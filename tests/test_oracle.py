"""Independent-search oracles versus the closed-form solver."""

import hashlib
import itertools
import json
import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jsam.oracle
from jsam import audit, seeding
from jsam.audit import grid_vs_brute_force
from jsam.cli import main
from jsam.config import from_dict, server_config
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
    # non-finite inputs are named before any root find
    for budget in (math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ValueError, match="total budget must be finite"):
            lagrangian_budget_split([[0.5, 0.5], [0.2, 0.8]], [1.0, 1.0], budget)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="p must be finite"):
            lagrangian_budget_split([bad, 0.5], [1.0, 1.0], 1.0)
        for p in ([0.5, 0.5], [1.0, 0.0]):
            with pytest.raises(ValueError, match="virtual costs must be finite"):
                lagrangian_budget_split(p, [1.0, bad], 1.0)


def test_lagrangian_split_fails_loudly_outside_its_bracket():
    # the closed form gives eps_1 = 2.15e13, past the bracket's 1e12 end
    with pytest.raises(ArithmeticError, match="bracket"):
        lagrangian_budget_split([[0.5, 0.5]], [1e-40, 1.0], 1.0)
    # the brute force raises for a selected coordinate at any grid point ...
    for v, step in (([1e-40, 1.0], 0.5), ([1.0, 1e-40, 2.0], 0.01)):
        with pytest.raises(ArithmeticError, match="bracket"):
            brute_force_solve(np.array(v), ServerConfig(), step)
    # ... and only there: at N = 1 the grid is p = 1 alone, whose root
    # (2/v)^(1/3) = 2.7e-12 is inside the bracket while p = 0.01's is not
    assert brute_force_solve(np.array([1e35]), ServerConfig(), 0.01).probabilities == [1.0]


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
    # non-finite inputs are named before any work, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for step in (math.inf, math.nan):
            with pytest.raises(ValueError, match="grid_step must be finite"):
                brute_force_solve(np.ones(2), cfg, grid_step=step)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="virtual costs must be finite"):
                brute_force_solve(np.array([1.0, bad]), cfg)


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
    solver = {"solve_profiles", "optimal_epsilon", "verify_structure", "client_budgets",
              "fixed_probability_solve", "_budget_root_sq", "_budget_and_objective",
              "_scan", "_split", "_scale"}
    assert not solver & set(vars(jsam.oracle))
    from_solver = {name for name, value in vars(jsam.oracle).items()
                   if getattr(value, "__module__", None) == "jsam.mechanism"}
    assert from_solver == {"ServerConfig"}


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


# ---------------------------------------------------------------------------
# oracle digests: sha256 of every `BruteForceResult` field and of
# `lagrangian_budget_split`'s (eps, objective) on a seeded battery, recorded
# before the brute force solved each root once and bounded each grid point.

_AUDIT_DEFAULT = {"clients": 3, "server": {"eta": 1.0, "q_coefficient": 1.0}}


def _audit_instances(seed):
    """The three (virtual costs, cfg) pairs `jsam audit --seed seed` hands the
    brute force under the default audit config, drawn as `cli.cmd_audit` does."""
    cfg = from_dict(_AUDIT_DEFAULT)
    dist, scfg = cfg.prior, server_config(cfg)
    return [(dist.virtual(dist.sample(seeding.derive(seed, seeding.COSTS, 10 + i),
                                      size=cfg.clients)), scfg) for i in range(3)]


def _costs(seed, n, lo=-1.0, hi=1.0):
    return np.exp(np.random.default_rng(seed).uniform(lo, hi, n))


def _fields(result):
    return (result.probabilities, result.budgets, result.objective,
            result.total_budget, result.evaluations)


def _brute(v, eta, q, step):
    cfg = ServerConfig(eta=eta, q_coefficient=q)
    return _fields(brute_force_solve(np.asarray(v, dtype=float), cfg, grid_step=step))


def _audit_calls(seed):
    """Every brute-force result of `jsam audit --seed seed`, through the real
    command, after checking that it drew `_audit_instances(seed)`."""
    calls = []

    def spy(v, cfg, grid_step):
        result = brute_force_solve(v, cfg, grid_step)
        calls.append((v, cfg, grid_step, result))
        return result

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(audit, "brute_force_solve", spy)
        assert main(["audit", "--seed", str(seed), "--out", f"{tmp}/audit.txt"]) == 0
    expected = _audit_instances(seed)
    assert [(c[0].tobytes(), c[1], c[2]) for c in calls] == \
        [(v.tobytes(), cfg, 0.01) for v, cfg in expected]
    return tuple(field for *_, result in calls for field in _fields(result))


def _splits(seed, rows, n, zeros):
    """A (rows, n) batch of p with about `zeros` of entries excluded, costs
    from e^-8 to e^8 and budgets from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=rows)
    p[rng.uniform(size=p.shape) < zeros] = 0.0
    p[p.sum(axis=1) == 0, 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    v = np.exp(rng.uniform(-8.0, 8.0, p.shape))
    budget = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), rows))
    return lagrangian_budget_split(p, v, budget)


ORACLE_CASES = {
    "brute-n1": lambda: _brute([1.4], 1.3, 0.7, 0.01),
    "brute-n2-fine": lambda: _brute(_costs(30, 2), 1.0, 1.0, 0.001),
    "brute-n2-fine-steep": lambda: _brute(_costs(31, 2, -8.0, 8.0), 3e2, 1e-3, 0.001),
    "brute-n3-eta0": lambda: _brute(_costs(32, 3), 0.0, 1.0, 0.01),
    "brute-n3-small-eta": lambda: _brute(_costs(33, 3), 1e-4, 1.0, 0.01),
    "brute-n3-large-eta": lambda: _brute(_costs(34, 3), 1e4, 1.0, 0.01),
    "brute-n3-small-q": lambda: _brute(_costs(35, 3), 1.0, 1e-4, 0.01),
    "brute-n3-large-q": lambda: _brute(_costs(36, 3), 1.0, 1e4, 0.01),
    "brute-n3-both-small": lambda: _brute(_costs(37, 3), 1e-4, 1e-4, 0.01),
    "brute-n3-both-large": lambda: _brute(_costs(38, 3), 1e4, 1e4, 0.01),
    "brute-n3-wide-costs": lambda: _brute(_costs(39, 3, -8.0, 8.0), 2.0, 50.0, 0.01),
    "brute-n3-tie-1e-9": lambda: _brute([1.0, 1.0 + 1e-9, 2.5], 1.0, 1.0, 0.01),
    "brute-n3-tie-1e-12": lambda: _brute([0.8, 0.8 * (1 + 1e-12), 0.8], 0.5, 3.0, 0.01),
    "brute-n4": lambda: _brute(_costs(40, 4), 1.5, 1.0, 0.01),
    "brute-n4-tie-1e-12": lambda: _brute([0.3, 1.1, 0.3 * (1 + 1e-12), 1.1 * (1 + 1e-9)],
                                         30.0, 0.02, 0.01),
    "brute-n5": lambda: _brute(_costs(41, 5), 0.7, 2.0, 0.05),
    "brute-n5-extreme": lambda: _brute(_costs(42, 5, -3.0, 3.0), 1e-3, 1e3, 0.05),
    "audit-seed0": lambda: _audit_calls(0),
    "audit-seed1": lambda: _audit_calls(1),
    "audit-seed2": lambda: _audit_calls(2),
    "audit-seed3": lambda: _audit_calls(3),
    "split-n1": lambda: _splits(50, 20, 1, 0.0),
    "split-n3": lambda: _splits(51, 200, 3, 0.2),
    "split-n6": lambda: _splits(52, 200, 6, 0.3),
    "split-one-row": lambda: lagrangian_budget_split([0.2, 0.0, 0.8], [0.5, 2.0, 1e-3], 7.0),
}
ORACLE_DIGESTS = {
    "audit-seed0": "8b5892fabac13e2641d176b0a80f7debdfd120c8150cbd3b9a60f84ed7e847fb",
    "audit-seed1": "c119bd4937c58f5c82f9eba32fcc20e52bd3473afea2b716ecb5d50e8e16cbf1",
    "audit-seed2": "13e41b79f41677d9d22364c271e505afe5da57b9a0ae230f74d0807e117ac90f",
    "audit-seed3": "31c67b76da81188d23cddbfebdbc18ea60249fa7e9bd3b31b9499e8decafa5b0",
    "brute-n1": "b578ebdde605e4e00170ad75d5bd320dcb2526a8ff9ec8febecac59c574210e2",
    "brute-n2-fine": "e8d471b44f36dd7ab7a3b31ecba5b44aa72bd9324be27a8beb8e25307a6f8e4a",
    "brute-n2-fine-steep": "5bdc4c8a5eabfa3179e3f90739c8cad8b2b6f4089b271a04640fe0eb5b9e41de",
    "brute-n3-both-large": "c72cd0971584ca917d662c93f88bdeea08f31cecb5581dcb6fc77dcf46281dc9",
    "brute-n3-both-small": "a6ad5a52a268e563a27ad5c9493b900b2e824c3d84a863130f2f0427e6bea9b1",
    "brute-n3-eta0": "17e2d78a832bafe2a051198c957ac60ebf2e0807b5e767ae5bfef105fa63535c",
    "brute-n3-large-eta": "b24d08bfbd0142fb1c6433f538c267665d2c2ba3e39354f555ff8f2aa7cacf09",
    "brute-n3-large-q": "57d8a119b024ab22819a8462a2cef49b4063f8927f0f6007f580bb8735838e21",
    "brute-n3-small-eta": "53836ca5b523389cf6a5ccf805510b80a463a0b9fa69513a1f85504841ce331f",
    "brute-n3-small-q": "3f0a45c846a6833bb0e7dd8afef37822e1d142a68b6192e84a2cabf711358ee5",
    "brute-n3-tie-1e-12": "a89c076ee6b4924097c7926dc7f4486644a2ab389d5f01229268ad22e18ebe16",
    "brute-n3-tie-1e-9": "b6c0c326348ec8a73097787dc24ade45347ad1a5a72654527cb523b141f04d49",
    "brute-n3-wide-costs": "5ddfa4efd1d05e5cbf3f0dc84ca56690ba379852da5380a07c4d99f36bf6249e",
    "brute-n4": "b61e4026179398f1096230104e61a6029cd7a49c09a021a3f99cdd89e838094e",
    "brute-n4-tie-1e-12": "e883aa0c278b13d1018668def3abb3ce467cc0c30146c70565b80c88ce4ca915",
    "brute-n5": "d5bfe7cf57fef5fd35d70b973f3a22dae098c900de70adf534d940fe09dd590e",
    "brute-n5-extreme": "ff187c1b893cacc8b9ab560499ecdc0bce38ad46ffd940d73dcf8071add5a9b8",
    "split-n1": "64fc22485366521c0f9e6c6fc7d8eacf73598649cd758ae41488dc88bba127d9",
    "split-n3": "c38f2e8f6d9bfc5cb424b42aa649ddbba1316d1d203b43659cff69fd1abebc4b",
    "split-n6": "4d97feca5a42b80abbadd0508a72be18968c825d3307f974a73e71766bd4ca17",
    "split-one-row": "62067c99c569d6c8d74a2f276a6ff0e5f7749806d34beb6c46c75ce03b582f38",
}


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_output_is_byte_identical(case):
    assert _digest(ORACLE_CASES[case]()) == ORACLE_DIGESTS[case]


# ---------------------------------------------------------------------------
# the brute force's pieces: its numpy grid, its objective floor and how few
# grid points it searches

def _reference_compositions(resolution, parts):
    """Rows of `parts` nonnegative ints summing to `resolution`, in lex order,
    from the divider positions of stars and bars."""
    rows = []
    for dividers in itertools.combinations(range(resolution + parts - 1), parts - 1):
        edges = (-1, *dividers, resolution + parts - 1)
        rows.append([hi - lo - 1 for lo, hi in zip(edges, edges[1:])])
    return np.array(rows)


@pytest.mark.parametrize("parts,resolution,chunks", [
    (1, 1, 1), (1, 100, 1), (2, 1, 1), (2, 1000, 1), (3, 7, 1), (3, 100, 101),
    (4, 20, 1), (4, 50, 51), (5, 4, 1), (5, 30, 31)])
def test_grid_enumeration_matches_itertools(parts, resolution, chunks, monkeypatch):
    monkeypatch.setattr(jsam.oracle, "_CHUNK_ROWS", 5_000)
    blocks = list(jsam.oracle._composition_chunks(resolution, parts))
    assert len(blocks) == chunks
    assert np.array_equal(np.concatenate(blocks), _reference_compositions(resolution, parts))


@pytest.mark.parametrize("case", sorted(c for c in ORACLE_CASES
                                        if c.split("-")[0] in ("brute", "audit")
                                        and c != "brute-n3-eta0"))
def test_each_grid_points_floor_bounds_its_budget_search(case, monkeypatch):
    # with the slack infinite every grid point is searched; each floor is at
    # most its point's searched minimum, which is at most f at the floor's
    # budget, and the result keeps every bit
    floor_of, golden = jsam.oracle._objective_floor, jsam.oracle._golden_minimize
    floors, checks = [], []

    def floor_spy(dev, a, eta):
        floors.append(floor_of(dev, a, eta))
        return floors[-1]

    def golden_spy(fn, lo, hi):
        b_star, f_star = golden(fn, lo, hi)
        floor, b_guess = floors[-1]
        checks.append((floor, f_star, fn(b_guess)))
        return b_star, f_star

    monkeypatch.setattr(jsam.oracle, "_SLACK", math.inf)
    monkeypatch.setattr(jsam.oracle, "_objective_floor", floor_spy)
    monkeypatch.setattr(jsam.oracle, "_golden_minimize", golden_spy)
    assert _digest(ORACLE_CASES[case]()) == ORACLE_DIGESTS[case]
    assert checks
    for floor, f_star, f_guess in checks:
        assert floor.shape == f_star.shape
        assert np.all(floor <= f_star * (1 + 1e-15))
        assert np.all(f_star <= f_guess * (1 + 1e-15))


def test_budget_search_runs_on_few_grid_points(monkeypatch):
    golden = jsam.oracle._golden_minimize
    searched = []

    def spy(fn, lo, hi):
        searched[-1] += lo.size
        return golden(fn, lo, hi)

    monkeypatch.setattr(jsam.oracle, "_golden_minimize", spy)
    for seed in range(20):
        for v, cfg in _audit_instances(seed):
            searched.append(0)
            points = brute_force_solve(v, cfg, 0.01).evaluations
            assert 0 < searched[-1] <= 0.10 * points, (seed, v)
