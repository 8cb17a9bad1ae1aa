"""Independent-search oracles versus the closed-form solver."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jsam.oracle
from jsam import audit
from jsam.audit import grid_vs_brute_force
from jsam.cli import main
from jsam.costs import UniformCosts
from jsam.mechanism import (ServerConfig, optimal_epsilon, solve_profiles,
                            verify_structure)
from jsam.oracle import (BruteForceResult, brute_force_solve,
                         lagrangian_budget_split)


@given(st.integers(1, 6), st.floats(0.1, 10.0), st.data())
def test_lagrangian_split_reproduces_the_closed_form(n, budget, data):
    p = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    p = p / p.sum()
    v = np.array(data.draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
    eps, _ = lagrangian_budget_split(p, v, budget)
    ref = optimal_epsilon(p, budget, v)
    assert np.max(np.abs(eps[0] - ref) / ref) <= 1e-5


@given(st.integers(2, 6), st.floats(0.1, 10.0), st.data())
def test_independent_search_never_beats_the_closed_form(n, budget, data):
    p = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    p = p / p.sum()
    v = np.array(data.draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n)))
    _, noise = lagrangian_budget_split(p, v, budget)
    ref = optimal_epsilon(p, budget, v)
    closed = float(np.sum(p ** 2 / ref ** 2))
    assert float(noise[0]) >= closed * (1 - 1e-9)
    assert float(noise[0]) == pytest.approx(closed, rel=1e-6)


def test_lagrangian_split_handles_excluded_clients():
    p = np.array([0.7, 0.0, 0.3])
    v = np.array([0.5, 2.0, 1.0])
    eps, _ = lagrangian_budget_split(p, v, 2.0)
    assert eps[0, 1] == 0.0
    assert np.max(np.abs(eps[0] - optimal_epsilon(p, 2.0, v))) <= 1e-6


def test_lagrangian_split_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lagrangian_budget_split(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        lagrangian_budget_split(np.array([0.5, 0.5]), np.array([1.0, -1.0]), 1.0)


def test_lagrangian_split_fails_loudly_outside_its_bracket():
    # the closed form gives eps_1 = 2.15e13, past the bracket's 1e12 end
    with pytest.raises(ArithmeticError, match="bracket"):
        lagrangian_budget_split([[0.5, 0.5]], [1e-40, 1.0], 1.0)


def test_brute_force_single_client_budget():
    cfg = ServerConfig(eta=1.3, q_coefficient=0.7)
    v = np.array([1.4])
    result = brute_force_solve(v, cfg, grid_step=0.01)
    assert result.probabilities == pytest.approx([1.0])
    expected_b = math.sqrt(cfg.eta) * (cfg.q_coefficient * v[0] ** 2) ** 0.25
    assert result.total_budget == pytest.approx(expected_b, rel=1e-6)


def test_brute_force_eta_zero_costs_nothing():
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    result = brute_force_solve(np.array([0.5, 1.0]), cfg, grid_step=0.01)
    assert result.objective == 0.0
    assert result.total_budget == 0.0


def test_brute_force_matches_the_plan_at_eta_zero_with_the_cheapest_client_not_last():
    # every p ties at f = B = 0; the oracle must still report the plan with
    # the threshold structure, all mass on the cheapest client
    cfg = ServerConfig(eta=0.0, q_coefficient=1.0)
    for v in ([1.0, 0.4, 2.0], [2.0, 1.5, 0.5, 1.0], [0.7, 0.7, 0.3]):
        brute = brute_force_solve(np.array(v), cfg, grid_step=0.05)
        plan = solve_profiles([v], cfg)
        assert brute.probabilities.tolist() == plan.probabilities[0].tolist()
        verdict = grid_vs_brute_force([(v, cfg)])
        assert verdict.passed and verdict.measured == 0.0


def test_audit_passes_at_eta_zero(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "clients": 3, "server": {"eta": 0.0, "q_coefficient": 1.0},
        "train": {"rounds": 50, "per_round": 2},
        "task": {"samples_per_client": 20, "test_size": 50}}))
    out = tmp_path / "audit.txt"
    assert main(["audit", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6 and all(line.startswith("ok: ") for line in lines)


def test_brute_force_guards():
    cfg = ServerConfig()
    with pytest.raises(ValueError, match="N <= 5"):
        brute_force_solve(np.ones(6), cfg)
    with pytest.raises(ValueError, match="grid_step"):
        brute_force_solve(np.ones(2), cfg, grid_step=1e-4)
    with pytest.raises(ValueError, match="divide"):
        brute_force_solve(np.ones(2), cfg, grid_step=0.013)
    with pytest.raises(ValueError, match="positive"):
        brute_force_solve(np.array([1.0, -1.0]), cfg)


def test_brute_force_evaluation_count():
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    result = brute_force_solve(np.array([0.5, 1.5]), cfg, grid_step=0.05)
    assert result.evaluations == 21  # compositions of 20 into 2 parts
    assert abs(result.probabilities.sum() - 1.0) < 1e-12


def test_two_client_example_brackets_the_solver(uniform01):
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    v = uniform01.virtual([0.2, 1.0])  # (0.4, 2.0)
    brute = brute_force_solve(v, cfg, grid_step=0.01)
    assert verify_structure(brute.probabilities, [1, 2], tol=0.01 + 1e-9).passed
    verdict = grid_vs_brute_force([(v, cfg)])
    assert verdict.passed and verdict.measured <= 1.0


def test_near_tie_instance_is_deterministic():
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    dist = UniformCosts(0.0, 10.0)
    v = dist.virtual([0.5, 0.5 + 5e-10, 2.5])  # (1, 1+1e-9, 5)
    first = brute_force_solve(v, cfg, grid_step=0.02)
    second = brute_force_solve(v, cfg, grid_step=0.02)
    assert first.probabilities.tobytes() == second.probabilities.tobytes()
    verdict = grid_vs_brute_force([(v, cfg), (v, cfg)])
    assert verdict.passed


def test_grid_vs_brute_force_rejects_large_instances(uniform01, basic_cfg):
    with pytest.raises(ValueError, match="N <= 4"):
        grid_vs_brute_force([(uniform01.virtual([0.1] * 5), basic_cfg)])


def _brute_force_returning(monkeypatch, probabilities, objective):
    def fake(v, cfg, grid_step):
        assert grid_step == 0.01
        return BruteForceResult(np.array(probabilities), np.zeros(len(v)),
                                objective, 1.0, 1)
    monkeypatch.setattr(audit, "brute_force_solve", fake)


def test_grid_vs_brute_force_allowance_formula(monkeypatch):
    v = np.array([0.5, 1.5])
    cfg = ServerConfig(eta=2.0, q_coefficient=1.0)
    grid = float(solve_profiles([v], cfg).objective_value[0])
    cell = 4 * 0.01 * (2.0 + 1.5)  # exceeds 1% of a small optimum
    _brute_force_returning(monkeypatch, [1.0, 0.0], grid - 0.5 * cell)
    assert grid_vs_brute_force([(v, cfg)]).measured == pytest.approx(0.5, rel=1e-9)
    # 1% of a large optimum exceeds the grid-cell term
    _brute_force_returning(monkeypatch, [1.0, 0.0], 1000.0)
    assert grid_vs_brute_force([(v, cfg)]).measured == \
        pytest.approx((1000.0 - grid) / 10.0, rel=1e-9)


def test_unstructured_brute_force_optimum_measures_inf(monkeypatch):
    # all mass on the costlier client: the cheapest sits below 1/N
    _brute_force_returning(monkeypatch, [0.0, 1.0], 1.0)
    cfg = ServerConfig(eta=1.0, q_coefficient=1.0)
    verdict = grid_vs_brute_force([(np.array([0.5, 1.5]), cfg)])
    assert verdict.measured == math.inf and not verdict.passed


def test_oracle_binds_none_of_the_solver():
    bound = {"solve_profiles", "optimal_epsilon", "verify_structure"} & set(vars(jsam.oracle))
    assert not bound


def test_brute_force_tracks_the_solver_on_random_instances(uniform01, rng):
    instances = []
    for _ in range(4):
        n = int(rng.integers(2, 4))
        costs = rng.uniform(0.05, 1.0, n)
        cfg = ServerConfig(eta=float(rng.uniform(0.3, 2.5)),
                           q_coefficient=float(rng.uniform(0.3, 2.5)))
        instances.append((uniform01.virtual(costs), cfg))
    verdict = grid_vs_brute_force(instances)
    assert verdict.passed, verdict
