"""Solver unit tests: budget split, objective at a fixed p, threshold search, structure."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jsam import config, mechanism
from jsam.costs import TruncatedGaussianCosts, UniformCosts
from jsam.mechanism import (_TWO_THIRDS, BatchSolution, ServerConfig,
                            _budget_and_objective, client_budgets,
                            fixed_probability_solve, optimal_epsilon,
                            solve_profiles, verify_structure)
from jsam.oracle import _golden_minimize

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
    """(n, h, p_h) with the threshold structure's feasibility constraints."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, n),
            st.floats(0.0, 1.0),
        ).map(lambda t: (t[0], t[1],
                         1.0 / t[0] if t[1] == 1 else t[2] / t[0])))


def _fixed(p, v, cfg):
    """fixed_probability_solve on one profile: (eps, B*, objective)."""
    sol = fixed_probability_solve(np.asarray(p, dtype=float)[None, :],
                                  np.asarray(v, dtype=float)[None, :], cfg)
    return (sol.privacy_budgets[0], float(sol.total_budget[0]),
            float(sol.objective_value[0]))


def _objective_at(p, v, cfg, budgets):
    """The objective at each budget in `budgets`, by direct substitution.

    eta*sqrt(dev^2 + Q*sum p^2/eps^2) + eta*dev + B with eps the
    optimal_epsilon split of B and dev the exact L1 distance to uniform.
    """
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    p = np.asarray(p, dtype=float)
    eps = optimal_epsilon(np.broadcast_to(p, budgets.shape + p.shape),
                          budgets[:, None], v)
    noise = np.where(p > 0, p ** 2 / np.where(eps > 0, eps, 1.0) ** 2, 0.0).sum(axis=1)
    dev = float(np.abs(p - 1.0 / p.size).sum())
    return cfg.eta * np.sqrt(dev * dev + cfg.q_coefficient * noise) \
        + cfg.eta * dev + budgets


def validate_plan(p, eps, total_budget, v, degenerate=False):
    """Raise ValueError unless (p, eps, B) is a consistent solved plan for v.

    p lies on the simplex, exactly the selected clients hold a budget (at
    eta = 0 none does), the spend identity sum v*eps = B holds and p has the
    threshold structure in the stable ascending order of v.
    """
    v = np.asarray(v, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities do not sum to 1")
    if np.any((p == 0) & (eps != 0)):
        raise ValueError("zero-probability client holds a privacy budget")
    if not degenerate and np.any((eps == 0) & (p != 0)):
        raise ValueError("selected client holds no privacy budget")
    spend = float(np.sum(v * eps))
    if total_budget == 0:
        if spend != 0:
            raise ValueError("nonzero spend against a zero budget")
    elif abs(spend - total_budget) > 1e-9 * total_budget:
        raise ValueError("budget identity violated")
    report = verify_structure(p, np.argsort(v, kind="stable") + 1)
    if not report.passed:
        raise ValueError(f"threshold structure violated: {report.clause}")


def _validate_row(sol, v, row=0, degenerate=False):
    validate_plan(sol.probabilities[row], sol.privacy_budgets[row],
                  float(sol.total_budget[row]), v, degenerate)


def _dense_grid(n, delta):
    """(h, p1, ph) triples of the dense (h, m) grid, h-, then m-ascending.

    h = 1 admits only p_1 = 1 (stored with a p_h = 1/n placeholder that no
    plan reads). For h >= 2 the grid walks p_1 = i/n + m*delta,
    p_h = 1/n - m*delta with i = n + 1 - h, for every m with p_h > 0: a
    p_h = 0 candidate repeats the distribution of (h - 1, m = 0), or of
    h = 1 when h = 2, so keeping it would let rounding decide which
    threshold a plan reports. The m range counts the steps strictly below
    1/n, with 1/(n*delta) read as an integer when it is one up to rounding.
    """
    share = 1.0 / n
    steps = math.ceil((1.0 - 1e-12) / (n * delta)) if n >= 2 else 0
    h = np.repeat(np.arange(2, n + 1), steps)
    m = np.tile(np.arange(steps), n - 1)
    return (np.concatenate([[1], h]),
            np.concatenate([[1.0], (n + 1 - h) * share + m * delta]),
            np.concatenate([[share], share - m * delta]))


def _dense_objectives(vs, cfg, grid):
    """(B*, f) at every (row, candidate) of ascending rows `vs`, all evaluated."""
    batch, n = vs.shape
    h, p1, ph = grid
    dev = 2.0 * (p1 - 1.0 / n)
    v23 = vs ** _TWO_THIRDS
    prefix = np.concatenate([np.zeros((batch, 1)), np.cumsum(v23, axis=1)], axis=1)
    first = v23[:, :1] * p1[None, :] ** _TWO_THIRDS
    hterm = np.where(h == 1, 0.0,
                     np.take_along_axis(v23, np.broadcast_to((h - 1)[None, :],
                                                             (batch, h.size)), axis=1)
                     * ph[None, :] ** _TWO_THIRDS)
    mid = (prefix[:, np.maximum(h - 1, 1)] - prefix[:, 1:2]) / n ** _TWO_THIRDS
    coef = (first + hterm + mid) ** 3
    return _budget_and_objective(dev, cfg.q_coefficient * coef, cfg.eta,
                                 mechanism._Work.of(coef.shape))


def _dense_solve(v, cfg, delta):
    """solve_profiles by a dense argmin over the (h, m) grid of step `delta`.

    The reference for the threshold kernel, which must agree with it bit for
    bit: the grid's m > 0 candidates, p_h < 1/N, never win.
    """
    v = np.atleast_2d(np.asarray(v, dtype=float))
    batch, n = v.shape
    grid = h, p1, ph = _dense_grid(n, delta)
    order = np.argsort(v, axis=1, kind="stable")
    vs = np.take_along_axis(v, order, axis=1)
    share = 1.0 / n
    if cfg.eta == 0:
        best = np.zeros(batch, dtype=int)
        b = f = np.zeros((batch, h.size))
    else:
        b, f = _dense_objectives(vs, cfg, grid)
        best = np.argmin(f, axis=1)
    rows = np.arange(batch)
    h_star = h[best]
    idx = np.arange(n)[None, :]
    hcol = h_star[:, None]
    p_sorted = np.where(idx == 0, p1[best][:, None],
                        np.where(idx < hcol - 1, share,
                                 np.where(idx == hcol - 1, ph[best][:, None], 0.0)))
    b_star = b[rows, best]
    eps_sorted = optimal_epsilon(p_sorted, b_star[:, None], vs)
    inverse = np.argsort(order, axis=1)
    p = np.take_along_axis(p_sorted, inverse, axis=1)
    eps = np.take_along_axis(eps_sorted, inverse, axis=1)
    return BatchSolution(p, eps, b_star, h_star, f[rows, best])


_TOP = 2.0  # the virtual cost at the top of a uniform [0, 1] support


_FIELDS = ("probabilities", "privacy_budgets", "total_budget", "threshold",
           "objective_value")


def _assert_same_bytes(got, want, label=""):
    for name in _FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
            f"{name} differs {label}"


def _curve_batch(rng, n, rows=200, floor=0.01):
    """A payment-curve batch: one client's cost swept, the others fixed."""
    v = np.repeat(2.0 * rng.uniform(floor, 1.0, size=(1, n)), rows, axis=0)
    v[:, int(rng.integers(n))] = np.linspace(0.02, 2.0, rows)
    return v


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


@pytest.mark.parametrize("field", ["eta", "q_coefficient"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_server_config_rejects_a_non_finite_weight(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got"):
        ServerConfig(**{field: value})


# ---------------------------------------------------------------------------
# objective and budget at a fixed selection distribution


def test_reduced_objective_unbiased_plan_closed_form():
    v = np.array([0.5, 1.0, 2.0])
    cfg = ServerConfig(eta=2.0, q_coefficient=3.0)
    n = 3
    c = float(np.sum(v ** (2.0 / 3.0)) / n ** (2.0 / 3.0)) ** 3
    _, b, f = _fixed(np.full(n, 1.0 / n), v, cfg)
    assert b == pytest.approx(math.sqrt(2.0) * (3.0 * c) ** 0.25, rel=1e-12)
    assert f == pytest.approx(2.0 * math.sqrt(3.0 * c) / b + b, rel=1e-12)


def test_reduced_objective_eta_zero_is_the_budget():
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    _, b, f = _fixed([0.75, 0.25], [0.5, 1.0], cfg)
    assert f == b == 0.0
    sol = solve_profiles([[0.5, 1.0]], cfg)
    assert sol.objective_value[0] == sol.total_budget[0] == 0.0


def test_reduced_objective_rejects_infeasible_pairs():
    v = np.array([[0.5, 1.0, 2.0]])
    cfg = ServerConfig()
    with pytest.raises(ValueError, match="simplex"):
        fixed_probability_solve([[0.5, 0.6, 0.0]], v, cfg)
    with pytest.raises(ValueError, match="simplex"):
        fixed_probability_solve([[1.2, -0.2, 0.0]], v, cfg)
    with pytest.raises(ValueError, match="virtual cost"):
        fixed_probability_solve([[0.5, 0.5, 0.0]], [[0.5, 0.0, 2.0]], cfg)
    for bad in ([np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [np.inf, -np.inf, 1.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^p must lie on the simplex$"):
                fixed_probability_solve(bad, v, cfg)
    # one p row shared by every profile of the batch
    shared = fixed_probability_solve([0.5, 0.5, 0.0], np.tile(v, (3, 1)), cfg)
    row = fixed_probability_solve([[0.5, 0.5, 0.0]], v, cfg)
    assert shared.probabilities.shape == shared.privacy_budgets.shape == (3, 3)
    for got, want in zip(shared, row):
        if got is not None:
            assert all(r.tobytes() == want[0].tobytes() for r in got)


# eta well below 1e-6 drives B* towards 1e-154, where the direct p^2/eps^2
# overflows; eta = 0 is its own test above
@given(feasible_pairs(), st.floats(1e-6, 3.0), st.floats(0.2, 4.0), st.data())
def test_reduced_objective_equals_direct_substitution(pair, eta, q, data):
    n, h, p_h = pair
    v = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
    v = np.sort(v)
    cfg = ServerConfig(eta=eta, q_coefficient=q)
    p = _structured_p(h, p_h, n)
    if np.any(p[p > 0] < 1e-9):
        return  # nearly-zero mass makes the direct noise sum ill-conditioned
    _, b, f = _fixed(p, v, cfg)
    assert f == pytest.approx(float(_objective_at(p, v, cfg, b)[0]), rel=1e-9)


@given(feasible_pairs())
def test_structured_deviation_is_the_exact_l1_distance(pair):
    n, h, p_h = pair
    p = _structured_p(h, p_h, n)
    assert 2.0 * (p[0] - 1.0 / n) == pytest.approx(
        float(np.abs(p - 1.0 / n).sum()), abs=1e-12)


# ---------------------------------------------------------------------------
# inner budget minimization


def test_inner_budget_zero_deviation_closed_form():
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    _, b, _ = _fixed([1.0], [math.sqrt(2.0)], cfg)
    assert b == pytest.approx(B_STAR_QC2, rel=1e-9)


def test_inner_budget_eta_zero_degenerates():
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    eps, b, _ = _fixed([0.75, 0.25], [0.5, 1.0], cfg)
    assert b == 0.0
    assert np.all(eps == 0.0)
    # the eta-0 path returns the kernel's one result type too
    sol = fixed_probability_solve([[0.75, 0.25]], [[0.5, 1.0]], cfg)
    assert isinstance(sol, BatchSolution) and sol.threshold is None
    assert np.array_equal(sol.probabilities, [[0.75, 0.25]])


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
    _, b, _ = _fixed(_structured_p(h, p_h, n), v, cfg)
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
        p = _structured_p(h, p_h, n)
        _, b_star, f_star = _fixed(p, v, cfg)
        grid = np.exp(np.linspace(np.log(b_star) - 3, np.log(b_star) + 3, 10 ** 6))
        f_grid = float(_objective_at(p, v, cfg, grid[:: 10 ** 3]).min())  # coarse pass
        lo = np.searchsorted(grid, b_star) - 2000
        fine = grid[max(lo, 0):lo + 4000]
        f_grid = min(f_grid, float(_objective_at(p, v, cfg, fine).min()))
        assert f_star <= f_grid * (1 + 1e-4)
        assert f_star == pytest.approx(f_grid, rel=1e-4)


@given(feasible_pairs(max_n=6), st.floats(0.1, 10.0), st.floats(0.2, 5.0),
       st.data())
def test_scalar_and_batched_budget_solvers_agree(pair, eta, q, data):
    # the scalar reference is a golden-section search of the directly
    # substituted objective over B, which knows nothing of the closed form
    n, h, p_h = pair
    v = np.sort(np.array(data.draw(
        st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))))
    cfg = ServerConfig(eta=eta, q_coefficient=q)
    p = _structured_p(h, p_h, n)
    if np.any(p[p > 0] < 1e-12):
        return
    _, b_batch, f_batch = _fixed(p, v, cfg)

    def objective(b):
        return _objective_at(p, v, cfg, b)

    hi = float(objective(1.0)[0]) + 1.0  # f(B) >= B, so B* < f(1)
    b_scalar, f_scalar = _golden_minimize(objective, np.array([1e-9]),
                                          np.array([hi]))
    assert f_batch <= float(f_scalar[0]) * (1 + 1e-12)
    assert b_batch == pytest.approx(float(b_scalar[0]), rel=1e-6)


# ---------------------------------------------------------------------------
# full solver


def test_single_client_plan(uniform01, basic_cfg):
    v = uniform01.virtual([0.4])
    sol = solve_profiles(v[None, :], basic_cfg)
    assert sol.probabilities[0] == pytest.approx([1.0])
    assert sol.threshold[0] == 1
    assert sol.privacy_budgets[0, 0] == pytest.approx(
        sol.total_budget[0] / 0.8, rel=1e-9)
    _validate_row(sol, v)


def test_empty_client_list_rejected(basic_cfg):
    with pytest.raises(ValueError, match="empty"):
        solve_profiles(np.empty((1, 0)), basic_cfg)


def test_solver_output_validates_and_orders(uniform01, rng, basic_cfg):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        v = uniform01.virtual(rng.uniform(0.05, 1.0, n))
        sol = solve_profiles(v[None, :], basic_cfg)
        _validate_row(sol, v)
        assert sol.probabilities[0].sum() == pytest.approx(1.0, abs=1e-9)
        assert 1 <= sol.threshold[0] <= n


def test_solver_is_deterministic(uniform01, basic_cfg):
    v = uniform01.virtual([0.3, 0.7, 0.12, 0.55])[None, :]
    a = solve_profiles(v, basic_cfg)
    b = solve_profiles(v, basic_cfg)
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.privacy_budgets.tobytes() == b.privacy_budgets.tobytes()
    assert a.total_budget.tobytes() == b.total_budget.tobytes()
    assert a.objective_value.tobytes() == b.objective_value.tobytes()


def test_eta_zero_plan_is_degenerate(uniform01):
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    v = uniform01.virtual([0.5, 0.2, 0.8])
    sol = solve_profiles(v[None, :], cfg)
    assert sol.total_budget[0] == 0.0
    assert np.all(sol.privacy_budgets == 0.0)
    assert sol.threshold[0] == 1
    assert sol.probabilities[0].tolist() == [0.0, 1.0, 0.0]  # the cheapest
    assert sol.objective_value[0] == 0.0
    _validate_row(sol, v, degenerate=True)


def test_exact_tie_selects_the_lower_index():
    # a one-client plan on v = [1, 1, 5]: the stable ranking puts the lower
    # index of the tie first, whichever end of the profile it sits at
    cfg = ServerConfig(eta=0.1, q_coefficient=1.0)
    sol = solve_profiles([[1.0, 1.0, 5.0], [5.0, 1.0, 1.0]], cfg)
    assert sol.threshold.tolist() == [1, 1]
    assert sol.probabilities.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    degenerate = solve_profiles([[5.0, 1.0, 1.0]], ServerConfig(eta=0.0))
    assert degenerate.probabilities.tolist() == [[0.0, 1.0, 0.0]]


def test_large_eta_drives_the_plan_to_uniform(uniform01, rng):
    cfg = ServerConfig(eta=1e3, q_coefficient=1.0)
    v = uniform01.virtual(rng.uniform(0.05, 1.0, 10))
    sol = solve_profiles(v[None, :], cfg)
    assert sol.threshold[0] == 10
    assert np.max(np.abs(sol.probabilities[0] - 0.1)) <= 1e-12


def test_raising_a_virtual_cost_never_raises_selection(rng):
    # exclusion is monotone: a pricier client cannot become more likely
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        v = rng.uniform(0.1, 2.0, n)
        k = int(rng.integers(0, n))
        bumped = v.copy()
        bumped[k] *= float(rng.uniform(1.05, 3.0))
        base = solve_profiles(v[None, :], cfg)
        moved = solve_profiles(bumped[None, :], cfg)
        assert moved.probabilities[0, k] <= base.probabilities[0, k] + 1e-9


@pytest.mark.parametrize("n, eta", [(10, 30.0), (100, 30.0), (100, 1000.0),
                                    (2, 30.0)])
def test_threshold_counts_the_positive_probabilities(n, eta, rng):
    cfg = ServerConfig(eta=eta, q_coefficient=6e4)
    sol = solve_profiles(2.0 * rng.uniform(0.01, 1.0, size=(400, n)), cfg)
    assert np.array_equal(sol.threshold,
                          np.count_nonzero(sol.probabilities > 0, axis=1))


@pytest.mark.parametrize("eta", [0.3, 3.0, 300.0])
def test_kernel_rows_match_fixed_probability_solve(eta, rng):
    # each row's budget split, B* and objective are those of the fixed-p
    # solve at the row's chosen p, which has no threshold
    cfg = ServerConfig(eta=eta, q_coefficient=2.0)
    v = 2.0 * rng.uniform(0.05, 1.0, size=(40, 5))
    sol = solve_profiles(v, cfg)
    fixed = fixed_probability_solve(sol.probabilities, v, cfg)
    assert np.array_equal(fixed.probabilities, sol.probabilities)
    assert fixed.threshold is None
    for got, want in zip(fixed, sol):
        if got is not None:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_batch_solver_matches_single_profile_solves(rng, basic_cfg):
    v = 2.0 * rng.uniform(0.05, 1.0, size=(12, 4))
    batch = solve_profiles(v, basic_cfg)
    for i in range(12):
        single = solve_profiles(v[i][None, :], basic_cfg)
        assert batch.probabilities[i] == pytest.approx(
            single.probabilities[0], abs=1e-12)
        assert float(batch.total_budget[i]) == pytest.approx(
            float(single.total_budget[0]), rel=1e-8)


def test_chunked_and_unchunked_batches_agree(basic_cfg, rng, monkeypatch):
    # 50 rows of N = 3 cut into 2-row chunks, and an N = 100 payment curve
    # cut into 7-row chunks
    small = 2.0 * rng.uniform(0.05, 1.0, size=(50, 3))
    curve = _curve_batch(rng, 100)
    for v, max_elements in [(small, 2 * 3), (curve, 7 * 100)]:
        whole = solve_profiles(v, basic_cfg)
        with monkeypatch.context() as patch:
            patch.setattr(mechanism, "_MAX_ELEMENTS", max_elements)
            chunked = solve_profiles(v, basic_cfg)
        assert whole.probabilities.tobytes() == chunked.probabilities.tobytes()
        assert whole.total_budget.tobytes() == chunked.total_budget.tobytes()


def _tiled_budgets(v, ks, z, cfg):
    """The reference for `client_budgets`: each report's whole profile
    through `solve_profiles`, read at the reporting client's column."""
    rows = np.arange(z.size)
    profiles = np.tile(v, (z.size, 1))
    profiles[rows, ks] = z
    return solve_profiles(profiles, cfg).privacy_budgets[rows, ks]


def test_client_budgets_equal_the_tiled_solve_bit_for_bit():
    top = 2.0  # the virtual cost at the top of a uniform [0, 1] support
    rng = np.random.default_rng(23)
    for trial in range(100):
        n = int(rng.integers(1, 301))
        eta = 0.0 if trial % 10 == 0 else float(10.0 ** rng.uniform(-3.0, 6.0))
        q = float(10.0 ** rng.uniform(-2.0, math.log10(6e4)))
        cfg = ServerConfig(eta=eta, q_coefficient=q)
        v = top * rng.uniform(0.01, 1.0, n)
        if trial % 5 == 1:
            v[:] = v[0]  # all costs tied
        rows = int(rng.integers(1, 300))
        ks = rng.integers(0, n, rows)
        z = top * rng.uniform(0.01, 1.0, rows)
        # reports equal to a rival's cost (either index order) or to its own,
        # and reports at the support top
        equal = rng.random(rows) < 0.3
        z[equal] = v[rng.integers(0, n, rows)[equal]]
        z[rng.random(rows) < 0.05] = top
        got = client_budgets(v, ks, z, cfg)
        want = _tiled_budgets(v, ks, z, cfg)
        assert got.tobytes() == want.tobytes(), f"n={n}, eta={eta}, q={q}"


@pytest.mark.parametrize("eta", [0.0, 1.0, 1e3])
def test_client_budgets_at_a_rivals_cost_take_the_stable_tie_order(eta):
    # client 2 reports client 1's and client 3's cost: the lower-index rival
    # ranks before it, the higher-index one after; all tied; the support top
    cfg = ServerConfig(eta=eta, q_coefficient=1.0)
    v = np.array([0.3, 0.9, 0.5, 1.4, 0.9])
    ks = np.array([2, 2, 2, 1, 4, 0])
    z = np.array([0.3, 1.4, 0.5, 0.9, 0.9, 2.0])
    assert client_budgets(v, ks, z, cfg).tobytes() == \
        _tiled_budgets(v, ks, z, cfg).tobytes()
    tied = np.full(6, 0.7)
    ks = np.arange(6)
    for z in (tied, np.full(6, 2.0)):
        assert client_budgets(tied, ks, z, cfg).tobytes() == \
            _tiled_budgets(tied, ks, z, cfg).tobytes()


def test_client_budgets_in_chunks_and_for_one_client(rng, monkeypatch):
    cfg = ServerConfig(eta=1e3, q_coefficient=6e4)
    v = 2.0 * rng.uniform(0.01, 1.0, 100)
    z = np.linspace(v[7], 2.0, 200)
    whole = client_budgets(v, 7, z, cfg)  # a scalar client broadcasts
    assert whole.tobytes() == _tiled_budgets(v, np.full(z.size, 7), z, cfg).tobytes()
    monkeypatch.setattr(mechanism, "_MAX_ELEMENTS", 7 * 100)
    assert client_budgets(v, 7, z, cfg).tobytes() == whole.tobytes()


def test_client_budgets_reject_what_solve_profiles_rejects():
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    with pytest.raises(ValueError, match="empty"):
        client_budgets(np.empty(0), 0, np.array([0.5]), cfg)
    with pytest.raises(ValueError, match="positive"):
        client_budgets(np.array([0.5, 0.7]), 0, np.array([0.0]), cfg)
    with pytest.raises(ValueError, match="noise coefficient"):
        client_budgets(np.full(5, 1e-200), 0, np.array([1e-200]), cfg)
    # and what only its index arguments can get wrong
    with pytest.raises(ValueError, match=r"virtuals must be one \(N,\) profile"):
        client_budgets(np.full((2, 3), 0.5), 0, np.array([0.5, 0.6]), cfg)
    for ks in (-1, 5, np.array([1, 5]), 1.0, True):
        with pytest.raises(ValueError, match=r"ks must be integers in \[0, 5\)"):
            client_budgets(np.full(5, 0.5), ks, np.array([0.5, 0.6]), cfg)


def _tiled_fixed_budgets(p, v, ks, z, cfg):
    """The reference for `fixed_client_budgets`: each report's whole profile
    through `fixed_probability_solve` with the one p, read at the reporting
    client's column."""
    rows = np.arange(z.size)
    profiles = np.tile(v, (z.size, 1))
    profiles[rows, ks] = z
    return fixed_probability_solve(p, profiles, cfg).privacy_budgets[rows, ks]


def test_fixed_client_budgets_equal_the_tiled_solve_bit_for_bit():
    # the fixed kinds' p (usbm, bbm, and fsbm-M at M = 1, N - 1 and N) at N
    # 1-12 on both priors; costs on a 1/8 grid tie, at fsbm's cut too, and
    # each client's reports run from its cost through every rival cost to
    # the support top
    rng = np.random.default_rng(2030)
    priors = (UniformCosts(0.0, 1.0), TruncatedGaussianCosts(0.5, 0.2, 0.05, 1.0))
    cases = 0
    for n in range(1, 13):
        for dist in priors * 2:  # two draws per prior
            costs = rng.integers(1, 9, size=n) / 8.0
            losses = rng.uniform(0.5, 2.0, size=n)
            order = np.argsort(costs, kind="stable")
            ps = [np.full(n, 1.0 / n), losses / losses.sum()]
            for m in sorted({1, max(n - 1, 1), n}):
                ps.append(np.zeros(n))
                ps[-1][order[:m]] = 1.0 / m
            eta = 0.0 if cases % 7 == 0 else 10.0 ** rng.uniform(-2, 4)
            cfg = ServerConfig(eta=eta, q_coefficient=10.0 ** rng.uniform(0, 5))
            ks = np.repeat(np.arange(n), n + 10)
            z = dist.virtual(np.concatenate([np.concatenate([
                np.linspace(costs[k], dist.upper, 9), [dist.upper],
                np.maximum(costs, costs[k])]) for k in range(n)]))
            v = dist.virtual(costs)
            for p in ps:
                got = mechanism.fixed_client_budgets(p, v, ks, z, cfg)
                assert got.tobytes() == _tiled_fixed_budgets(p, v, ks, z, cfg).tobytes()
            # a scalar client broadcasts
            got = mechanism.fixed_client_budgets(ps[0], v, n - 1, z, cfg)
            assert got.tobytes() == _tiled_fixed_budgets(
                ps[0], v, np.full(z.size, n - 1), z, cfg).tobytes()
            cases += 1


@pytest.mark.parametrize("p, virtuals, ks, match", [
    (np.full(3, 1 / 3), np.full((1, 3), 0.5), 0, r"^virtuals must be one \(N,\) profile"),
    (np.full(3, 1 / 3), np.full(3, 0.5), 3, r"^client indices ks must be integers in \[0, 3\)$"),
    (np.full(3, 1 / 3), np.full(3, 0.5), [0.0, 1.0], r"^client indices ks must be integers"),
    ([0.5, 0.6, 0.0], np.full(3, 0.5), 0, r"^p must lie on the simplex$"),
    ([np.inf, 0.0, 0.0], np.full(3, 0.5), 0, r"^p must lie on the simplex$"),
    ([0.5, 0.5], np.full(3, 0.5), 0, r"^p must lie on the simplex$"),
    ([0.5, 0.5, 0.0], [0.5, 0.0, 0.5], 2, r"^selected client with non-positive virtual cost$"),
], ids=["profile-2d", "ks-out-of-range", "ks-not-integers", "p-off-simplex",
        "p-infinite", "p-wrong-length", "selected-zero-cost"])
def test_fixed_client_budgets_name_their_errors(p, virtuals, ks, match):
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            mechanism.fixed_client_budgets(p, virtuals, ks, np.array([0.5, 0.6]), cfg)


def test_client_budgets_run_in_a_few_work_arrays():
    # one 200-row, N = 100 payment-curve call computes in one set of work
    # arrays (six float, one bool and one index, each (rows, N)), not in
    # fresh temporaries at every step
    cfg = ServerConfig(eta=1e3, q_coefficient=6e4)
    v = _TOP * np.random.default_rng(5).uniform(0.01, 1.0, 100)
    z = np.linspace(v[7], _TOP, 200)
    client_budgets(v, 7, z, cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        client_budgets(v, 7, z, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 10 * z.size * v.size * 8


# ---------------------------------------------------------------------------
# kernel digests: sha256 of every output of the kernels on a seeded battery,
# recorded before the threshold scan ran in reusable work arrays. The
# `.tobytes()` comparisons above pit kernels that share one scan against
# each other; these pin the scan itself.

def _profiles(seed, rows, n, floor=0.01):
    return _TOP * np.random.default_rng(seed).uniform(floor, 1.0, size=(rows, n))


def _tied_profiles():
    v = _profiles(1, 16, 12)
    v[0] = v[0, 0]          # all tied
    v[1] = _TOP             # all at the support top
    v[2, 5:] = _TOP         # a tied block at the top
    v[3, ::2] = v[3, 1]     # every other client tied with client 1
    v[4] = v[3]             # a repeated row
    return v


def _reports(seed, n, rows, ties=False):
    """(virtuals, ks, z) of a payment-curve batch; with `ties`, reports at
    a rival's cost, at the report's own cost and at the support top."""
    rng = np.random.default_rng(seed)
    v = _TOP * rng.uniform(0.01, 1.0, n)
    ks = rng.integers(0, n, rows)
    z = _TOP * rng.uniform(0.01, 1.0, rows)
    if ties:
        v[n // 2:] = v[0]
        z[::3] = v[rng.integers(0, n, z[::3].size)]
        z[1::3] = v[ks[1::3]]
        z[2::5] = _TOP
    return v, ks, z


def _on_simplex(seed, rows, n, spread):
    w = np.random.default_rng(seed).uniform(0.0, 1.0, size=(rows, n)) ** spread
    return w / w.sum(axis=1, keepdims=True)


def _server(eta, q=6e4):
    return ServerConfig(eta=eta, q_coefficient=q)


def _root(seed, t):
    """The budget root at a (dev2, a) block whose root argument is about `t`."""
    a = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, t.shape)
    eta = 1e3
    return mechanism._budget_root_sq(t * np.sqrt(a) / (mechanism._HALF_THREE_ROOT3 * eta),
                                     a, eta, mechanism._Work.of(a.shape))


def _t_grid(lo, hi, seed):
    return np.exp(np.random.default_rng(seed).uniform(np.log(lo), np.log(hi), (40, 25)))


# name: (the call, `_MAX_ELEMENTS` for it or None, which side of 1 the root
# argument t takes: "le1" everywhere, "gt1" everywhere, "both", or None)
KERNEL_CASES = {
    "solve-n1": (lambda: solve_profiles(_profiles(2, 5, 1), _server(1e3)), None, "le1"),
    "solve-empty-batch": (lambda: solve_profiles(np.empty((0, 7)), _server(1e3)),
                          None, None),
    "solve-eta0": (lambda: solve_profiles(_profiles(3, 12, 9), _server(0.0)), None, None),
    "solve-tied": (lambda: solve_profiles(_tied_profiles(), _server(1e3)), None, "both"),
    "solve-t-le1": (lambda: solve_profiles(_profiles(4, 24, 40), _server(1e-6)),
                    None, "le1"),
    "solve-t-both": (lambda: solve_profiles(_profiles(5, 30, 100), _server(1e3)),
                     None, "both"),
    # 250 rows in 7-row chunks and 50 rows in 4-row chunks: the last chunk
    # is shorter than the others
    "solve-chunks-n100": (lambda: solve_profiles(_profiles(6, 250, 100), _server(1e3)),
                          7 * 100, "both"),
    "solve-chunks-n3": (lambda: solve_profiles(_profiles(7, 50, 3), _server(1.0, 1.0)),
                        4 * 3, None),
    "budgets-n1": (lambda: client_budgets(*_reports(8, 1, 5), _server(1e3)), None, "le1"),
    "budgets-empty-batch": (lambda: client_budgets(
        _TOP * np.ones(10), np.empty(0, dtype=int), np.empty(0), _server(1e3)), None, None),
    "budgets-eta0": (lambda: client_budgets(*_reports(9, 20, 30), _server(0.0)), None, None),
    "budgets-tied-and-top": (lambda: client_budgets(*_reports(10, 30, 90, ties=True),
                                                    _server(1e3)), None, "both"),
    "budgets-t-le1": (lambda: client_budgets(*_reports(11, 40, 60), _server(1e-6)),
                      None, "le1"),
    "budgets-t-both": (lambda: client_budgets(*_reports(12, 100, 200), _server(1e3)),
                       None, "both"),
    # 200 rows in 7-row chunks
    "budgets-chunks": (lambda: client_budgets(*_reports(13, 100, 200, ties=True),
                                              _server(1e3)), 7 * 100, "both"),
    "fixed-t-gt1": (lambda: fixed_probability_solve(
        _on_simplex(14, 30, 20, 8.0), _profiles(15, 30, 20), _server(1e8, 1e-4)),
        None, "gt1"),
    "fixed-t-both": (lambda: fixed_probability_solve(
        _on_simplex(16, 30, 20, 1.0), _profiles(17, 30, 20), _server(10.0, 1.0)),
        None, "both"),
    "root-t-le1": (lambda: _root(18, _t_grid(1e-9, 0.999, 19)), None, "le1"),
    "root-t-gt1": (lambda: _root(20, _t_grid(1.001, 1e9, 21)), None, "gt1"),
    "root-t-both": (lambda: _root(22, _t_grid(0.25, 4.0, 23)), None, "both"),
}
KERNEL_DIGESTS = {
    "budgets-chunks": "59403597c4d5190fcf7a66d396406837f5a57cf6f1122d1a85f817e477b3535b",
    "budgets-empty-batch": "64578373a8a80ad1966c3cce7de4dc481c80ff42d854a1a792f6a18e306e028b",
    "budgets-eta0": "f13f66624de0a1f27a0a0fd04fc6e6a09f578d2dbf42f1358366b4887f7a13cd",
    "budgets-n1": "793368914fab2a1a736194dbd1780cd88739f8f008154f154e55348a6d07d065",
    "budgets-t-both": "776aa0dfdc51857a98d426d0c195c7ae8ccac8c15bb9ae65f84d2e85c17b6416",
    "budgets-t-le1": "9fcba65173429886c4f2f2e6244d738f0b59ee14fd69fa97e6e1fdf3823b2873",
    "budgets-tied-and-top": "0babb4909bddf231ecd23d3b4e70e3fbf14721770ba68ae31fad5c740dc192d2",
    "fixed-t-both": "aaf2eea32c16373f1bdba5e37629f95a8645523465734821619f98b55179ff92",
    "fixed-t-gt1": "72e9d5048928be30bf862996dc5cdb3c1f93e4ad9a148928e3831bb0d976a771",
    "root-t-both": "807f11adfbdafbc7b7edd6249b7913ba2417888b42baece63d98122904a95099",
    "root-t-gt1": "cab5c7ba44583345d3e6b15ca78f4c032522b19ede86c66170d091696f6e5775",
    "root-t-le1": "b43e57eab6d2d3fb479694515d5ff4d7d09b949ec0a84d294105c870c701d2b4",
    "solve-chunks-n100": "8253b862a42c868d280a1f39b96a2f22975e078da1e9bfd2298d939365d0a3c4",
    "solve-chunks-n3": "d2bf68f5efbb6969c47bb87a517be000ca40e946bb06f5b7f72a9aa4312926d0",
    "solve-empty-batch": "70caf227f138070999b7e37e591f8e1a740083f260ca28af558fbac293c06f40",
    "solve-eta0": "43065b7f3009aae69420324206095db1fcfa8806bf3221c1703b6fc9f4ae29b0",
    "solve-n1": "9cb9a372d5d6ef572e3bd91a1f7330472a041d658b0a3447906b881ea3890977",
    "solve-t-both": "57229b1bb70799bccc07d9c20a252b3926514c5cd2e32d0a1715d106d6912878",
    "solve-t-le1": "b2f45d5de1214dd38781d0a6881bc407e50d24fba7a21809102456363806bee5",
    "solve-tied": "5dc4aeb7682d4b7ac6e9882137b6fcf353a2b95d808a40461696120126f9335b",
}


def _digest(result):
    h = hashlib.sha256()
    for arr in (result if isinstance(result, tuple) else (result,)):
        if arr is None:
            h.update(b"None")
            continue
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_output_is_byte_identical(case, monkeypatch):
    run, max_elements, side = KERNEL_CASES[case]
    if max_elements is not None:
        monkeypatch.setattr(mechanism, "_MAX_ELEMENTS", max_elements)
    ts = []
    root = mechanism._budget_root_sq

    def spy(dev2, a, eta, *rest):
        ts.append(np.broadcast_to(mechanism._HALF_THREE_ROOT3 * dev2 * eta / np.sqrt(a),
                                  np.shape(a)))
        return root(dev2, a, eta, *rest)

    monkeypatch.setattr(mechanism, "_budget_root_sq", spy)
    assert _digest(run()) == KERNEL_DIGESTS[case]
    # the battery covers what its names say
    t = np.concatenate([x.ravel() for x in ts]) if ts else np.empty(0)
    if side == "le1":
        assert t.size and t.max() <= 1.0
    elif side == "gt1":
        assert t.size and t.min() > 1.0
    elif side == "both":
        assert t.min() <= 1.0 < t.max()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 100, 300])
def test_threshold_kernel_matches_the_dense_reference(n):
    # guards the conjecture in `solve_profiles`: at every grid step, the
    # dense (h, m) grid's first minimiser has p_h = 1/N
    rng = np.random.default_rng(n)
    for delta in [1e-3, 1e-2, 0.05, 0.3, 1.0]:
        for eta in [0.0, 1e-6, 1.0, 1e3, 1e5, 1e8]:
            for q, floor in [(float(10.0 ** rng.uniform(-3.0, 5.0)), 0.01),
                             (1e-4, 0.1), (6e4, 0.01), (6e4, 0.1)]:
                cfg = ServerConfig(eta=eta, q_coefficient=q)
                v = 2.0 * rng.uniform(floor, 1.0, size=(24, n))
                v[:4] = v[0]  # exact ties: repeated rows, a shared cost, all equal
                v[1, -1] = v[1, 0]
                v[2] = v[2, 0]
                for batch in (v, _curve_batch(rng, n, rows=40, floor=floor)):
                    _assert_same_bytes(solve_profiles(batch, cfg),
                                       _dense_solve(batch, cfg, delta),
                                       f"at n={n}, delta={delta}, eta={eta}, q={q}")


def test_near_tie_between_two_thresholds_goes_to_the_first():
    # bisect eta to where the best plans at h = 2 and h = 3 cost the same to
    # 1e-12 relative; on each side the kernel must keep the dense argmin's
    # choice
    v = np.array([[0.4, 1.3, 0.9]])
    grid = _dense_grid(3, 1e-2)

    def group_minima(eta):
        cfg = ServerConfig(eta=eta, q_coefficient=1.0)
        _, f = _dense_objectives(np.sort(v, axis=1), cfg, grid)
        return cfg, f[0, grid[0] == 2].min(), f[0, grid[0] == 3].min()

    lo, hi = 0.32, 0.56
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        _, f2, f3 = group_minima(mid)
        lo, hi = (mid, hi) if f2 <= f3 else (lo, mid)

    # the crossing and the etas a few ulps off it where the two are equal
    near = [lo + k * np.spacing(lo) for k in range(-8, 9)]
    ties = [eta for eta in near if group_minima(eta)[1] == group_minima(eta)[2]]
    assert ties
    for eta in [lo, hi, *ties]:
        cfg, f2, f3 = group_minima(eta)
        assert abs(f2 - f3) <= 1e-12 * f3
        want = _dense_solve(v, cfg, 1e-2)
        assert want.threshold[0] == (2 if f2 <= f3 else 3)
        _assert_same_bytes(solve_profiles(v, cfg), want, f"at eta={eta}")


def test_underflowing_noise_coefficient_is_an_error():
    # v^(2/3) cubed underflows to 0 at v = 1e-200, so B* would be 0/0
    cfg = ServerConfig(eta=1.0)
    v = np.full((1, 5), 1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="noise coefficient"):
            solve_profiles(v, cfg)
        with pytest.raises(ValueError, match="noise coefficient"):
            fixed_probability_solve(np.full((1, 5), 0.2), v, cfg)


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
    v = uniform01.virtual([0.2, 0.6, 0.9])
    sol = solve_profiles(v[None, :], basic_cfg)
    p, eps, b = sol.probabilities[0], sol.privacy_budgets[0], float(sol.total_budget[0])
    validate_plan(p, eps, b, v)
    with pytest.raises(ValueError):
        validate_plan(p * 1.1, eps, b, v)
    with pytest.raises(ValueError, match="budget identity"):
        validate_plan(p, eps * 2.0, b, v)


# ---------------------------------------------------------------------------
# config


def test_server_config_validation_messages():
    with pytest.raises(ValueError, match="eta"):
        ServerConfig(eta=-0.5)
    with pytest.raises(ValueError, match="q_coefficient"):
        ServerConfig(q_coefficient=0.0)
    with pytest.raises(ValueError, match="grid_delta"):
        ServerConfig(grid_delta=0.0)


def test_noise_model_coefficient():
    # an unset q_coefficient is 2*c2^2*ln(1/delta)*D*sqrt(T)*L with L = 1;
    # two classes of one feature give D = 2*(1+1) = 4
    cfg = config.server_config(config.from_dict({
        "train": {"c2": 1.0, "delta": 1e-5, "rounds": 100},
        "task": {"feature_dim": 1, "classes": 2}}))
    assert cfg.q_coefficient == pytest.approx(
        2.0 * math.log(1e5) * 4 * 10.0, rel=1e-12)
