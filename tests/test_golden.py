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

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from jsam import flsim
from jsam import mechanism
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


def solve_bytes(config, workdir):
    cfg_path = Path(workdir) / "config.json"
    out_path = Path(workdir) / "plan.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["solve", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    return out_path.read_bytes()


def solve_doc(config, workdir):
    return json.loads(solve_bytes(config, workdir).decode("utf-8"))


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


# sha256 of `jsam solve`'s output, pinned because GOLDEN_RTOL would let a
# last-bit change pass: the benchmark's plan-n100 op configs, two tied
# profiles, and one golden case of each other mechanism kind. The jsam ones
# were recorded before payment curves were priced against presorted rivals
# (`mechanism.client_budgets`), the other kinds' before `make_plan` called
# each kernel directly.
# The n6 fsbm ones were recorded before the fixed kinds' curves were priced
# against the truthful p.
_PLAN_N100 = {"clients": 100, "costs": {"kind": "uniform", "lower": 0.0, "upper": 1.0},
              "payment_grid": 200, "mechanisms": ["jsam"]}
DIGEST_CASES = {
    **{f"n100-eta{eta:g}-seed{seed}":
       dict(_PLAN_N100, server={"eta": eta, "grid_delta": 1e-3}, seeds=[seed])
       for eta in (1.0, 1000.0) for seed in (0, 1, 2)},
    "n4-tied-eta1000": {"clients": 4, "sensitivities": [0.5] * 4,
                        "server": {"eta": 1000.0}, "mechanisms": ["jsam"]},
    "n2-tied-eta1": {"clients": 2, "sensitivities": [0.5] * 2,
                     "server": {"eta": 1.0}, "mechanisms": ["jsam"]},
    # fsbm-4's 4th and 5th cheapest costs tie at 0.5; fsbm-6 selects every
    # client, so no report drops one out
    **{f"n6-fsbm{m}-eta{eta:g}":
       {"clients": 6, "sensitivities": [0.25, 0.5, 0.125, 0.5, 0.75, 0.375],
        "server": {"eta": eta}, "mechanisms": [f"fsbm-{m}"]}
       for m, eta in ((4, 1000.0), (6, 1000.0), (1, 1.0))},
    **{case: CASES[case] for case in ("n100-gaussian-usbm-eta1000",
                                      "n100-gaussian-fsbm10-eta1000",
                                      "n30-uniform-bbm-eta300",
                                      "n30-uniform-jsamci-eta300")},
}
DIGESTS = {
    "n100-eta1-seed0": "053a6975f7ec923b0281d66f544f19f09d1a6203c128b2c6cd0ebce2187a658b",
    "n100-eta1-seed1": "583373c127728ac359b181d9e5885fd3719e996cebc14128d392b964a52388fa",
    "n100-eta1-seed2": "689a74e13e9b20ccad9da89e467e66add2f6c3fa940c383f73a8520c96b40aab",
    "n100-eta1000-seed0": "bcfef37eee670ed6560e43b9e88a2b985d4bfa9232ac7aee73747ad10c1ae0e7",
    "n100-eta1000-seed1": "7afce65a256bfdc53e8bf292eb559fd6ee4bb8bd76946a68674586153052ba1c",
    "n100-eta1000-seed2": "7ea682834cc0915a2491ccf0185d3e8ecb4ecc2e69b92fdda8413945c624834f",
    "n100-gaussian-fsbm10-eta1000":
        "97ae9ce3356a872d8127d9b078b29eeb88850d4c4968bce581de8d959b639430",
    "n100-gaussian-usbm-eta1000":
        "7ce4070d1d777db0c4e45a6f0dd8cb4f3b5760483236033e87888f7b8dbe3cc5",
    "n2-tied-eta1": "5e6dcf8b7a938d0add03b1a0e946de6ef8959f498bd5a1fcf0782aa685f171ad",
    "n4-tied-eta1000": "13ab8e1c48c070cffe581006a70e4ef9bdba79664d32c3e71a2151a59c6444a0",
    "n6-fsbm1-eta1": "b343aefb4d0bad3ea2942fe7837eb7e2fa5df667d753ece6968b841ab35ee2b8",
    "n6-fsbm4-eta1000": "9e583dc79f929cd005cdcc25f932afc4337e8e95ffbde868271dd850d9bcf88b",
    "n6-fsbm6-eta1000": "50ecea54e5dceabe62d21aca28272b734738c6a19105852ed79766c91c4b8bfe",
    "n30-uniform-bbm-eta300":
        "9b2d3bb313257623d18f1e12721cb990459889ece2a825fe4ecef9fe5bdb99d2",
    "n30-uniform-jsamci-eta300":
        "fb0cbe2b1b0c224999dd5d6109c2d9a71287fe8815b56bb5a312dccd8367d042",
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_solve_output_is_byte_identical(case, tmp_path):
    got = hashlib.sha256(solve_bytes(DIGEST_CASES[case], tmp_path)).hexdigest()
    assert got == DIGESTS[case]


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
            got = _budget_root_sq(dev2, np.full(ks.size, a), eta,
                                  mechanism._Work.of(ks.shape))
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

    def counted(solver, batch_arg=0):
        # rows of whichever kernel serves the call: a profile batch, or
        # client_budgets' reports
        def solve(*args):
            rows.append(len(args[batch_arg]))
            return solver(*args)
        return solve

    monkeypatch.setattr(flsim, "solve_profiles", counted(flsim.solve_profiles))
    monkeypatch.setattr(flsim, "fixed_probability_solve",
                        counted(flsim.fixed_probability_solve, 1))
    monkeypatch.setattr(flsim, "client_budgets", counted(flsim.client_budgets, 2))
    monkeypatch.setattr(flsim, "fixed_client_budgets",
                        counted(flsim.fixed_client_budgets, 3))
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



def tiled_curve(name, costs, dist, cfg, losses):
    """The reference for a fixed kind's payment curve: tile the reports, put
    z in column k, run the selection rule on every row and solve each whole
    profile."""
    kind, subset = flsim.parse_mechanism(name)
    virtuals = dist.virtual(costs)
    if kind == "fsbm":
        def selection(reports):
            order = np.argsort(reports, axis=1, kind="stable")
            p = np.zeros_like(reports)
            np.put_along_axis(p, order[:, :subset], 1.0 / subset, axis=1)
            return p
    else:
        p_fixed = (np.full(costs.size, 1.0 / costs.size) if kind == "usbm"
                   else losses / losses.sum())

        def selection(reports):
            return np.broadcast_to(p_fixed, reports.shape)

    def eps_of_reports(ks, z):
        rows = np.arange(z.size)
        reports = np.tile(costs, (z.size, 1))
        reports[rows, ks] = z
        profiles = np.tile(virtuals, (z.size, 1))
        profiles[rows, ks] = dist.virtual(z)
        return mechanism.fixed_probability_solve(selection(reports), profiles,
                                                 cfg).privacy_budgets[rows, ks]
    return eps_of_reports


def test_fixed_kinds_curves_equal_the_tiled_selection(monkeypatch):
    # costs on a 1/8 grid tie often, at the fsbm cut too; each client's
    # reports run from its cost to the support top through every rival cost
    curves = []

    def capture(costs, budgets, support_upper, eps_of_reports, grid_size):
        curves.append(eps_of_reports)
        return np.zeros(costs.size), np.zeros(costs.size)

    monkeypatch.setattr(flsim, "expost_payments", capture)
    rng = np.random.default_rng(2028)
    ties = {"kept": 0, "cut": 0}  # reports at c_last: k before or after last
    for n in range(1, 13):
        names = {"usbm", "bbm", "fsbm-1", f"fsbm-{max(n - 1, 1)}", f"fsbm-{n}"}
        for name in sorted(names):
            for dist in (UNIFORM, GAUSSIAN) * 2:  # two draws per prior
                costs = rng.integers(1, 9, size=n) / 8.0
                losses = rng.uniform(0.5, 2.0, size=n)
                cfg = ServerConfig(eta=10.0 ** rng.uniform(-2, 4),
                                   q_coefficient=10.0 ** rng.uniform(0, 5))
                make_plan(name, costs, dist, cfg, bbm_losses=losses)
                ks = np.concatenate([np.full(n + 10, k) for k in range(n)])
                z = np.concatenate([np.concatenate([
                    np.linspace(costs[k], dist.upper, 9), [dist.upper],
                    np.maximum(costs, costs[k])]) for k in range(n)])
                got = curves.pop()(ks, z)
                assert got.tobytes() == tiled_curve(name, costs, dist, cfg,
                                                    losses)(ks, z).tobytes(), name
                kind, m = flsim.parse_mechanism(name)
                if kind == "fsbm" and m < n:
                    last = np.argsort(costs, kind="stable")[m]
                    at_cut = (z == costs[last]) & (ks != last)
                    ties["kept"] += np.count_nonzero(at_cut & (ks < last) & (got > 0))
                    ties["cut"] += np.count_nonzero(at_cut & (ks > last)
                                                    & (costs[ks] < costs[last]))
    assert min(ties.values()) > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        docs = {name: solve_doc(cfg, tmp) for name, cfg in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
