"""Solver unit tests: budget split, reduced objective, grid search, structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jsam.costs import UniformCosts, make_clients
from jsam.mechanism import (MechanismOutcome, ServerConfig, _candidate_grid,
                            fixed_probability_solve, jsam_solve,
                            optimal_epsilon, reduced_objective,
                            solve_inner_budget, solve_profiles,
                            verify_structure)

# dev = 0, Q*c = 2: the stationary point of eta*sqrt(Qc)/B + B is
# B = sqrt(eta)*(Qc)^(1/4)
B_STAR_QC2 = 1.189207115002721


def _structured_p(h, p_h, n):
    p1 = (2.0 + n - h) / n - p_h
    p = np.zeros(n)
    p[0] = p1
    p[1:h - 1] = 1.0 / n
    if h > 1:
        p[h - 1] = p_h
    return p


def feasible_pairs(max_n=8):
    """(n, h, p_h) with the grid solver's feasibility constraints."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, n),
            st.floats(0.0, 1.0),
        ).map(lambda t: (t[0], t[1],
                         1.0 / t[0] if t[1] == 1 else t[2] / t[0])))


# ---------------------------------------------------------------------------
# optimal_epsilon


def test_budget_split_hand_example():
    eps = optimal_epsilon(np.array([0.5, 0.5]), 1.0, np.array([1.0, 8.0]))
    assert eps == pytest.approx([0.2, 0.1], rel=1e-12)


def test_budget_split_single_client():
    assert optimal_epsilon(np.array([1.0]), 3.0, np.array([1.5]))[0] == \
        pytest.approx(2.0, rel=1e-12)


def test_budget_split_zero_budget():
    eps = optimal_epsilon(np.array([0.3, 0.7]), 0.0, np.array([1.0, 2.0]))
    assert np.all(eps == 0.0)


def test_budget_split_excluded_client_gets_nothing():
    eps = optimal_epsilon(np.array([0.6, 0.0, 0.4]), 2.0,
                          np.array([1.0, 0.0, 2.0]))
    assert eps[1] == 0.0
    assert np.all(eps[[0, 2]] > 0)


def test_budget_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        optimal_epsilon(np.array([0.0, 0.0]), 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        optimal_epsilon(np.array([0.5, 0.5]), -1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        optimal_epsilon(np.array([0.5, 0.5]), 1.0, np.array([1.0, -2.0]))


@given(st.integers(1, 8), st.floats(0.01, 10.0), st.data())
def test_budget_split_spend_identity(n, budget, data):
    p = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    if p.sum() == 0:
        p[0] = 1.0
    p = p / p.sum()
    v = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    eps = optimal_epsilon(p, budget, v)
    assert float(np.sum(v * eps)) == pytest.approx(budget, rel=1e-9)


# ---------------------------------------------------------------------------
# reduced objective


def test_reduced_objective_unbiased_plan_closed_form():
    v = np.array([0.5, 1.0, 2.0])
    cfg = ServerConfig(eta=2.0, q_coefficient=3.0)
    n = 3
    c = float(np.sum(v ** (2.0 / 3.0)) / n ** (2.0 / 3.0)) ** 3
    got = reduced_objective(3, 1.0 / 3.0, 1.7, v, cfg)
    assert got == pytest.approx(2.0 * math.sqrt(3.0 * c) / 1.7 + 1.7, rel=1e-12)


def test_reduced_objective_eta_zero_is_the_budget():
    v = np.array([0.5, 1.0])
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    assert reduced_objective(2, 0.25, 0.9, v, cfg) == pytest.approx(0.9)


def test_reduced_objective_rejects_infeasible_pairs():
    v = np.array([0.5, 1.0, 2.0])
    cfg = ServerConfig()
    with pytest.raises(ValueError):
        reduced_objective(4, 0.1, 1.0, v, cfg)
    with pytest.raises(ValueError):
        reduced_objective(2, 0.9, 1.0, v, cfg)
    with pytest.raises(ValueError):
        reduced_objective(2, 0.1, 0.0, v, cfg)


@given(feasible_pairs(), st.floats(0.1, 5.0), st.floats(0.0, 3.0),
       st.floats(0.2, 4.0), st.data())
def test_reduced_objective_equals_direct_substitution(pair, budget, eta, q, data):
    n, h, p_h = pair
    v = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    v = np.sort(v)
    cfg = ServerConfig(eta=eta, q_coefficient=q)
    p = _structured_p(h, p_h, n)
    if np.any(p[p > 0] < 1e-9):
        return  # nearly-zero mass makes the direct noise sum ill-conditioned
    eps = optimal_epsilon(p, budget, v)
    noise = float(np.sum(np.where(p > 0, p ** 2 / np.where(eps > 0, eps, 1.0) ** 2, 0.0)))
    dev = float(np.abs(p - 1.0 / n).sum())
    direct = eta * math.sqrt(dev * dev + q * noise) + eta * dev + budget
    got = reduced_objective(h, p_h, budget, v, cfg)
    assert got == pytest.approx(direct, rel=1e-9)


@given(feasible_pairs())
def test_structured_deviation_is_the_exact_l1_distance(pair):
    n, h, p_h = pair
    p = _structured_p(h, p_h, n)
    assert 2.0 * (p[0] - 1.0 / n) == pytest.approx(
        float(np.abs(p - 1.0 / n).sum()), abs=1e-12)


def test_objective_forms_agree_only_when_p_h_is_uniform():
    v = np.array([0.4, 1.0, 2.5])
    exact = ServerConfig(eta=1.0, q_coefficient=1.0, objective_form="exact_l1")
    literal = ServerConfig(eta=1.0, q_coefficient=1.0,
                           objective_form="paper_literal")
    at_share = (3, 1.0 / 3.0, 1.2)
    assert reduced_objective(*at_share, v, exact) == \
        pytest.approx(reduced_objective(*at_share, v, literal), rel=1e-12)
    off_share = (3, 0.1, 1.2)
    assert reduced_objective(*off_share, v, literal) > \
        reduced_objective(*off_share, v, exact)


# ---------------------------------------------------------------------------
# inner budget minimization


def test_inner_budget_zero_deviation_closed_form():
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    got = solve_inner_budget(1, 1.0, np.array([math.sqrt(2.0)]), cfg)
    assert got == pytest.approx(B_STAR_QC2, rel=1e-9)


def test_inner_budget_eta_zero_degenerates():
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    assert solve_inner_budget(2, 0.25, np.array([0.5, 1.0]), cfg) == 0.0


@given(feasible_pairs(max_n=6), st.floats(0.05, 20.0), st.floats(0.2, 5.0),
       st.data())
def test_inner_budget_first_order_condition(pair, eta, q, data):
    n, h, p_h = pair
    v = np.sort(np.array(data.draw(
        st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))))
    cfg = ServerConfig(eta=eta, q_coefficient=q)
    p1 = (2.0 + n - h) / n - p_h
    dev = 2.0 * (p1 - 1.0 / n)
    w = np.zeros(n)
    w[0] = (v[0] * p1) ** (2.0 / 3.0)
    if h > 1:
        w[1:h - 1] = v[1:h - 1] ** (2.0 / 3.0) / n ** (2.0 / 3.0)
        w[h - 1] = (v[h - 1] * p_h) ** (2.0 / 3.0)
    a = q * float(w.sum()) ** 3
    b = solve_inner_budget(h, p_h, v, cfg)
    lhs = eta * a / b ** 3
    rhs = math.sqrt(dev * dev + a / (b * b))
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_inner_budget_matches_exhaustive_grid():
    rng = np.random.default_rng(7)
    for _ in range(3):
        n = int(rng.integers(2, 6))
        v = np.sort(rng.uniform(0.1, 3.0, n))
        h = int(rng.integers(1, n + 1))
        p_h = 1.0 / n if h == 1 else float(rng.uniform(0.0, 1.0 / n))
        cfg = ServerConfig(eta=float(rng.uniform(0.2, 4.0)),
                           q_coefficient=float(rng.uniform(0.2, 4.0)))
        b_star = solve_inner_budget(h, p_h, v, cfg)
        f_star = reduced_objective(h, p_h, b_star, v, cfg)
        grid = np.exp(np.linspace(np.log(b_star) - 3, np.log(b_star) + 3, 10 ** 6))
        f_grid = min(reduced_objective(h, p_h, float(b), v, cfg)
                     for b in grid[:: 10 ** 3])  # coarse pass
        lo = np.searchsorted(grid, b_star) - 2000
        fine = grid[max(lo, 0):lo + 4000]
        f_grid = min(f_grid, min(reduced_objective(h, p_h, float(b), v, cfg)
                                 for b in fine))
        assert f_star <= f_grid * (1 + 1e-4)
        assert f_star == pytest.approx(f_grid, rel=1e-4)


@given(feasible_pairs(max_n=6), st.floats(0.1, 10.0), st.floats(0.2, 5.0),
       st.data())
def test_scalar_and_batched_budget_solvers_agree(pair, eta, q, data):
    n, h, p_h = pair
    v = np.sort(np.array(data.draw(
        st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))))
    cfg = ServerConfig(eta=eta, q_coefficient=q)
    p = _structured_p(h, p_h, n)
    if np.any(p[p > 0] < 1e-12):
        return
    b_scalar = solve_inner_budget(h, p_h, v, cfg)
    _, b_batch, _ = fixed_probability_solve(p[None, :], v[None, :], cfg)
    assert float(b_batch[0]) == pytest.approx(b_scalar, rel=1e-8)


# ---------------------------------------------------------------------------
# full solver


def test_single_client_plan(uniform01, basic_cfg):
    outcome = jsam_solve(make_clients(uniform01, [0.4]), basic_cfg)
    assert outcome.probabilities == pytest.approx([1.0])
    assert outcome.threshold == 1
    v = 0.8
    assert outcome.privacy_budgets[0] == pytest.approx(
        outcome.total_budget / v, rel=1e-9)
    outcome.validate([v])


def test_empty_client_list_rejected(basic_cfg):
    with pytest.raises(ValueError, match="empty"):
        jsam_solve([], basic_cfg)


def test_solver_output_validates_and_orders(uniform01, rng, basic_cfg):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        costs = rng.uniform(0.05, 1.0, n)
        clients = make_clients(uniform01, costs)
        outcome = jsam_solve(clients, basic_cfg)
        outcome.validate([cl.virtual for cl in clients])
        assert outcome.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert 1 <= outcome.threshold <= n


def test_solver_is_deterministic(uniform01, basic_cfg):
    clients = make_clients(uniform01, [0.3, 0.7, 0.12, 0.55])
    a = jsam_solve(clients, basic_cfg)
    b = jsam_solve(clients, basic_cfg)
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.privacy_budgets.tobytes() == b.privacy_budgets.tobytes()
    assert a.total_budget == b.total_budget
    assert a.objective_value == b.objective_value


def test_eta_zero_plan_is_degenerate(uniform01):
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    outcome = jsam_solve(make_clients(uniform01, [0.2, 0.5, 0.8]), cfg)
    assert outcome.degenerate
    assert outcome.total_budget == 0.0
    assert np.all(outcome.privacy_budgets == 0.0)
    assert outcome.threshold == 1
    assert outcome.objective_value == 0.0
    outcome.validate([0.4, 1.0, 1.6])


def test_large_eta_drives_the_plan_to_uniform(uniform01, rng):
    cfg = ServerConfig(eta=1e3, q_coefficient=1.0)
    costs = rng.uniform(0.05, 1.0, 10)
    outcome = jsam_solve(make_clients(uniform01, costs), cfg)
    assert outcome.threshold == 10
    assert np.max(np.abs(outcome.probabilities - 0.1)) <= cfg.grid_delta + 1e-12


def test_raising_a_virtual_cost_never_raises_selection(rng):
    # exclusion is monotone: a pricier client cannot become more likely
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0, grid_delta=1e-2)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        v = rng.uniform(0.1, 2.0, n)
        k = int(rng.integers(0, n))
        bumped = v.copy()
        bumped[k] *= float(rng.uniform(1.05, 3.0))
        base = solve_profiles(v[None, :], cfg)
        moved = solve_profiles(bumped[None, :], cfg)
        assert moved.probabilities[0, k] <= base.probabilities[0, k] + 1e-9


def test_candidate_grid_order_and_size():
    cfg = ServerConfig(grid_delta=1e-3)
    h, p1, ph = _candidate_grid(3, cfg)
    assert h.size == 669  # 1 + 2 * (floor(1/(3*delta)) + 1)
    assert h[0] == 1 and p1[0] == 1.0
    assert np.all(np.diff(h) >= 0)  # h ascending, m ascending within h
    first_h2 = np.nonzero(h == 2)[0][0]
    assert p1[first_h2] == pytest.approx(2.0 / 3.0)
    assert ph[first_h2] == pytest.approx(1.0 / 3.0)


@pytest.mark.parametrize("n, eta", [(10, 30.0), (100, 30.0), (100, 1000.0),
                                    (2, 30.0)])
def test_threshold_counts_the_positive_probabilities(n, eta, rng):
    # 1/(N*delta) is an integer at N in {10, 100}, and one rounding step off
    # an integer at N = 2 with delta = 1/98
    delta = 1.0 / 98.0 if n == 2 else 1e-3
    cfg = ServerConfig(eta=eta, q_coefficient=6e4, grid_delta=delta)
    _, _, ph = _candidate_grid(n, cfg)
    assert np.all(ph > 0)
    sol = solve_profiles(2.0 * rng.uniform(0.01, 1.0, size=(400, n)), cfg)
    assert np.array_equal(sol.threshold,
                          np.count_nonzero(sol.probabilities > 0, axis=1))


def test_batch_solver_matches_single_profile_solves(uniform01, rng, basic_cfg):
    profiles = rng.uniform(0.05, 1.0, size=(12, 4))
    batch = solve_profiles(2.0 * profiles, basic_cfg)
    for i in range(12):
        single = jsam_solve(make_clients(uniform01, profiles[i]), basic_cfg)
        assert batch.probabilities[i] == pytest.approx(
            single.probabilities, abs=1e-12)
        assert float(batch.total_budget[i]) == pytest.approx(
            single.total_budget, rel=1e-8)


def test_chunked_and_unchunked_batches_agree(basic_cfg, rng):
    v = 2.0 * rng.uniform(0.05, 1.0, size=(50, 3))
    whole = solve_profiles(v, basic_cfg)
    chunked = solve_profiles(v, basic_cfg, max_elements=2000)
    assert whole.probabilities.tobytes() == chunked.probabilities.tobytes()
    assert whole.total_budget.tobytes() == chunked.total_budget.tobytes()


# ---------------------------------------------------------------------------
# structure verification


def test_structure_accepts_threshold_shapes():
    order = [1, 2, 3, 4]
    assert verify_structure([0.45, 0.25, 0.25, 0.05], order).passed
    assert verify_structure([0.25, 0.25, 0.25, 0.25], order).passed
    assert verify_structure([1.0, 0.0, 0.0, 0.0], order).passed


def test_structure_rejects_misplaced_mass():
    report = verify_structure([0.5, 0.1, 0.4], [1, 2, 3])
    assert not report.passed
    assert report.clause is not None
    assert not verify_structure([0.2, 0.5, 0.3], [1, 2, 3]).passed
    assert not verify_structure([0.0, 0.0, 0.0], [1, 2, 3]).passed
    # mass after the first zero entry
    assert not verify_structure([0.6, 0.0, 0.4], [1, 2, 3]).passed


def test_structure_respects_the_given_order():
    # same vector, read under the permutation that makes it valid
    third = 1.0 / 3.0
    p = [1.0 - 0.45 - third, 0.45, third]
    assert not verify_structure(p, [1, 2, 3]).passed
    assert verify_structure(p, [2, 3, 1]).passed


def test_outcome_validate_catches_tampering(uniform01, basic_cfg):
    clients = make_clients(uniform01, [0.2, 0.6, 0.9])
    outcome = jsam_solve(clients, basic_cfg)
    v = [cl.virtual for cl in clients]
    bad = MechanismOutcome(
        probabilities=outcome.probabilities * 1.1,
        privacy_budgets=outcome.privacy_budgets,
        total_budget=outcome.total_budget,
        threshold=outcome.threshold,
        objective_value=outcome.objective_value,
        order=outcome.order)
    with pytest.raises(ValueError):
        bad.validate(v)
    bad = MechanismOutcome(
        probabilities=outcome.probabilities,
        privacy_budgets=outcome.privacy_budgets * 2.0,
        total_budget=outcome.total_budget,
        threshold=outcome.threshold,
        objective_value=outcome.objective_value,
        order=outcome.order)
    with pytest.raises(ValueError, match="budget identity"):
        bad.validate(v)


# ---------------------------------------------------------------------------
# config


def test_server_config_validation_messages():
    with pytest.raises(ValueError, match="eta"):
        ServerConfig(eta=-0.5)
    with pytest.raises(ValueError, match="q_coefficient"):
        ServerConfig(q_coefficient=0.0)
    with pytest.raises(ValueError, match="grid_delta"):
        ServerConfig(grid_delta=0.0)
    with pytest.raises(ValueError, match="objective_form"):
        ServerConfig(objective_form="other")


def test_noise_model_coefficient():
    cfg = ServerConfig.from_noise_model(eta=1.0, c2=1.0, delta=1e-5,
                                        dimension=4, iterations=100,
                                        smoothness=0.5)
    assert cfg.q_coefficient == pytest.approx(
        2.0 * math.log(1e5) * 4 * 10.0 * 0.5, rel=1e-12)
    with pytest.raises(ValueError, match="delta"):
        ServerConfig.from_noise_model(eta=1.0, c2=1.0, delta=2.0, dimension=4,
                                      iterations=100, smoothness=0.5)
