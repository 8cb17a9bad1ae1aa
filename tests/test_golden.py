"""Golden `jsam solve` outputs, the budget root against its Newton reference,
the payments against evaluating every curve at every node, the nodes each
curve evaluates, and each payment curve against the plan it prices.

`golden_solve.json` holds the plans of the pinned configs below as written
before the closed-form budget root, the payment-curve skip and the
duplicate-free candidate grid; the N=30 bbm and jsam_ci plans were added
later. Every float field must agree at GOLDEN_RTOL; `threshold` is checked
against the count of positive probabilities instead, because the stored
values could name a zero-probability client. Regenerate (only for a
deliberate, documented change of numerics) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from jsam import flsim
from jsam.cli import main
from jsam.costs import TruncatedGaussianCosts, UniformCosts
from jsam.flsim import make_plan
from jsam.mechanism import ServerConfig, _budget_root_sq
from jsam.payments import (_COARSE_STRIDE, _envelope, _trapezoid_error,
                           expost_payments)

GOLDEN = Path(__file__).with_name("golden_solve.json")
GOLDEN_RTOL = 1e-12
ROOT_RTOL = 1e-13

_GAUSSIAN = {"kind": "gaussian", "mean": 0.5, "std": 0.2, "lower": 0.05,
             "upper": 1.0}
CASES = {
    "n100-uniform-eta1": {"clients": 100, "server": {"eta": 1.0}},
    "n100-uniform-eta1000": {"clients": 100, "server": {"eta": 1000.0}},
    "n100-gaussian-usbm-eta1000": {"clients": 100, "costs": _GAUSSIAN,
                                   "server": {"eta": 1000.0},
                                   "mechanisms": ["usbm"]},
    "n100-gaussian-fsbm10-eta1000": {"clients": 100, "costs": _GAUSSIAN,
                                     "server": {"eta": 1000.0},
                                     "mechanisms": ["fsbm-10"]},
    "n3-eta1": {"clients": 3, "server": {"eta": 1.0, "q_coefficient": 1.0}},
    "n30-uniform-bbm-eta300": {"clients": 30, "server": {"eta": 300.0},
                               "mechanisms": ["bbm"]},
    "n30-uniform-jsamci-eta300": {"clients": 30, "server": {"eta": 300.0},
                                  "mechanisms": ["jsam_ci"]},
}


def solve_doc(config, workdir):
    cfg_path = Path(workdir) / "config.json"
    out_path = Path(workdir) / "plan.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    return json.loads(out_path.read_text(encoding="utf-8"))


def _assert_close(name, got, want):
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=GOLDEN_RTOL, abs=0.0), name
    elif isinstance(want, list) and want and isinstance(want[0], float):
        np.testing.assert_allclose(got, want, rtol=GOLDEN_RTOL, atol=0.0,
                                   err_msg=name)
    else:
        assert got == want, name


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_the_golden_plan(case, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    got = solve_doc(CASES[case], tmp_path)
    assert sorted(got) == sorted(want)
    for field in want:
        if field != "threshold":
            _assert_close(field, got[field], want[field])
    positive = int(np.count_nonzero(np.asarray(got["probabilities"]) > 0))
    if got["mechanism"] in ("jsam", "jsam_ci"):
        assert got["threshold"] == positive
    else:
        assert got["threshold"] is None


def newton_root_sq(dev2, a, eta):
    """Reference B*^2: Newton on dev2*x^3 + a*x^2 - eta^2*a^2 from eta*sqrt(a).

    The start is exact at dev2 = 0 and an upper bound otherwise, so the
    iteration descends monotonically on the convex cubic.
    """
    x = eta * np.sqrt(a)
    for _ in range(80):
        phi = dev2 * x ** 3 + a * x ** 2 - (eta * a) ** 2
        dphi = 3.0 * dev2 * x ** 2 + 2.0 * a * x
        step = phi / dphi
        step = np.where(np.abs(step) > 1e-14 * np.abs(x), step, 0.0)
        x = x - step
        if not np.any(step):
            break
    return x


def test_closed_form_root_matches_newton_across_branches():
    # k = dev^2*eta/sqrt(a); t = (3*sqrt(3)/2)*k switches branch at t = 1
    k_switch = 2.0 / (3.0 * np.sqrt(3.0))
    ks = np.concatenate([[0.0], k_switch * (1.0 + np.linspace(-1e-6, 1e-6, 21)),
                         np.logspace(-8, 12, 400)])
    for eta in (1e-3, 1.0, 1e3):
        for a in (1e-6, 1.0, 1e6):
            dev2 = ks * np.sqrt(a) / eta
            got = _budget_root_sq(dev2, np.full(ks.size, a), eta)
            want = newton_root_sq(dev2, np.full(ks.size, a), eta)
            np.testing.assert_allclose(got, want, rtol=ROOT_RTOL, atol=0.0)


UNIFORM = UniformCosts(0.0, 1.0)
GAUSSIAN = TruncatedGaussianCosts(0.5, 0.2, 0.05, 1.0)


def priced_plan(monkeypatch, mechanism, seed, grid=200, dist=None, eta=1000.0):
    """(costs, dist, plan, the eps_of_reports curve make_plan passed to
    expost_payments); jsam defaults to the uniform prior, the rest to the
    Gaussian."""
    if dist is None:
        dist = UNIFORM if mechanism == "jsam" else GAUSSIAN
    cfg = ServerConfig(eta=eta, q_coefficient=6e4)
    rng = np.random.default_rng(seed)
    costs = dist.sample(rng, size=30)
    losses = rng.uniform(0.5, 2.0, size=30) if mechanism == "bbm" else None
    curves = []

    def capture(costs, budgets, support_upper, eps_of_reports, grid_size):
        curves.append(eps_of_reports)
        return expost_payments(costs, budgets, support_upper, eps_of_reports,
                               grid_size=grid_size)

    monkeypatch.setattr(flsim, "expost_payments", capture)
    plan = make_plan(mechanism, costs, dist, cfg, bbm_losses=losses,
                     payment_grid=grid)
    (eps_fn,) = curves
    return costs, dist, plan, eps_fn


def every_node_payments(costs, upper, eps_fn, grid):
    """The reference: every client's curve evaluated at every grid node."""
    pis, errs = np.zeros(costs.size), np.zeros(costs.size)
    for k in range(costs.size):
        z = np.linspace(costs[k], upper, grid)
        e = eps_fn(k, z)
        pis[k] = _envelope(z, e)
        errs[k] = _trapezoid_error(e, (upper - costs[k]) / (grid - 1))
    return pis, errs


@pytest.mark.parametrize("mechanism", ["jsam", "fsbm-10"])
@pytest.mark.parametrize("seed", [0, 1])
def test_skipped_payment_curves_are_exactly_zero(mechanism, seed, monkeypatch):
    grid = 200
    costs, dist, plan, eps_fn = priced_plan(monkeypatch, mechanism, seed, grid)
    budgets = plan.epsilons
    skipped = np.nonzero(budgets == 0)[0]
    assert 0 < skipped.size < costs.size
    for k in skipped:
        z = np.linspace(costs[k], dist.upper, grid)
        assert np.all(eps_fn(k, z) == 0.0)

    full = every_node_payments(costs, dist.upper, eps_fn, grid)
    fast = expost_payments(costs, budgets, dist.upper, eps_fn, grid_size=grid)
    assert full[0].tobytes() == fast[0].tobytes()
    assert full[1].tobytes() == fast[1].tobytes()


@pytest.mark.parametrize("mechanism", ["jsam", "fsbm-10", "usbm", "bbm"])
@pytest.mark.parametrize("dist", [UNIFORM, GAUSSIAN], ids=["uniform", "gaussian"])
def test_one_pass_payments_equal_every_node_evaluation(mechanism, dist, monkeypatch):
    grid = 200
    rows = []

    def counted(solver):
        def solve(batch, *args):
            rows.append(len(batch))
            return solver(batch, *args)
        return solve

    monkeypatch.setattr(flsim, "solve_profiles", counted(flsim.solve_profiles))
    monkeypatch.setattr(flsim, "fixed_probability_solve",
                        counted(flsim.fixed_probability_solve))
    costs, _, plan, eps_fn = priced_plan(monkeypatch, mechanism, 0, grid, dist)
    curve_rows = rows[1:]  # the first call is the truthful profile
    assert max(curve_rows) <= grid
    paid = np.count_nonzero(plan.epsilons)
    if mechanism in ("usbm", "bbm"):
        assert sum(curve_rows) == paid * grid  # no curve reaches 0
    elif mechanism == "jsam":
        assert sum(curve_rows) < paid * grid  # paid clients drop out below the top

    full = every_node_payments(costs, dist.upper, eps_fn, grid)
    assert full[0].tobytes() == plan.payments.tobytes()
    fast = expost_payments(costs, plan.epsilons, dist.upper, eps_fn, grid_size=grid)
    assert full[1].tobytes() == fast[1].tobytes()


@pytest.mark.parametrize("mechanism, eta", [("jsam", 1000.0), ("jsam", 1.0),
                                            ("fsbm-10", 1000.0)])
def test_each_curve_stops_within_a_stride_of_its_first_zero(mechanism, eta, monkeypatch):
    grid = 200
    costs, dist, plan, eps_fn = priced_plan(monkeypatch, mechanism, 0, grid, eta=eta)
    asked = []

    def counted(ks, z):
        asked.append(ks)
        return eps_fn(ks, z)

    expost_payments(costs, plan.epsilons, dist.upper, counted, grid_size=grid)
    evaluated = np.bincount(np.concatenate(asked), minlength=costs.size)
    paid = np.nonzero(plan.epsilons)[0]
    if eta == 1.0:
        assert paid.size == 1  # one paid curve, so 8 reports per call
    needed = []
    for k in paid:
        zero = eps_fn(k, np.linspace(costs[k], dist.upper, grid)) == 0
        needed.append(int(zero.argmax()) + 1 if zero.any() else grid)
    assert min(needed) < grid  # some curve reaches 0 below the top
    # every node up to the first zero, and at most a stride of nodes above it
    assert np.all(evaluated[paid] >= needed)
    assert np.all(evaluated[paid] <= np.minimum(grid, np.add(needed, _COARSE_STRIDE)))
    assert not np.any(np.delete(evaluated, paid))


@pytest.mark.parametrize("mechanism", ["jsam", "usbm", "fsbm-10", "bbm"])
def test_payment_curve_at_the_true_cost_is_the_plans_budget(mechanism, monkeypatch):
    # the plan and its payment curves are one rule, so each curve evaluated
    # at the client's true cost returns the plan's budget bit for bit
    costs, _, plan, eps_fn = priced_plan(monkeypatch, mechanism, seed=0)
    at_truth = np.array([eps_fn(k, costs[k:k + 1])[0] for k in range(costs.size)])
    assert at_truth.tobytes() == plan.epsilons.tobytes()
    assert np.count_nonzero(at_truth) > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        docs = {name: solve_doc(cfg, tmp) for name, cfg in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
