"""Envelope payments, incentive audits, and interim allocation estimates."""

import numpy as np
import pytest

from jsam.audit import interim_monotone, truthfulness
from jsam.costs import UniformCosts
from jsam.mechanism import ServerConfig, solve_profiles
from jsam.payments import (InterimAllocation, expost_payments,
                           interim_allocation, payment)

# coarse solver grid keeps Monte-Carlo tests fast; fineness is orthogonal here
FAST = ServerConfig(eta=1.0, q_coefficient=1.0, grid_delta=1e-2)


def _linear_rule(grid_size=101, samples=10 ** 6):
    grid = np.linspace(0.0, 1.0, grid_size)
    return InterimAllocation(grid=grid, budgets=1.0 - grid, samples=samples)


def test_payment_of_a_linear_rule_is_exact():
    interim = _linear_rule()
    assert payment(0.5, interim) == pytest.approx(0.375, abs=1e-12)
    assert interim.quadrature_error() == pytest.approx(0.0, abs=1e-15)


def test_payment_off_grid_report_uses_the_interpolant():
    # closed form for the exact rule 1 - z: (1-c)^2/2 + c(1-c)
    c = 0.503
    assert payment(c, _linear_rule()) == \
        pytest.approx((1 - c) ** 2 / 2 + c * (1 - c), abs=1e-9)


def test_payment_at_the_top_of_the_support_is_zero():
    assert payment(1.0, _linear_rule()) == 0.0


def test_payment_outside_the_grid_is_rejected():
    with pytest.raises(ValueError, match="grid"):
        payment(1.5, _linear_rule())


def test_ir_examples():
    # IR fails only where the tail integral of the budget curve is negative
    grid = np.linspace(0.0, 1.0, 101)
    _, ir = truthfulness(_linear_rule(), [0.5, 0.9], [[], []])
    assert ir.passed and ir.measured == pytest.approx(-0.005, abs=1e-9)
    negative_tail = InterimAllocation(grid, 0.5 - grid, samples=10 ** 6)
    _, ir = truthfulness(negative_tail, [0.2], [[]])
    # shortfall: -integral_{0.2}^1 (0.5 - z) dz = 0.08
    assert not ir.passed and ir.measured == pytest.approx(0.08, abs=1e-9)


def test_ic_hand_integration_of_the_linear_rule():
    ic, ir = truthfulness(_linear_rule(), [0.5], [[0.8]])
    assert ic.passed and ic.tolerance == pytest.approx(0.003, abs=1e-12)
    # truthful utility 0.125; misreport utility:
    # integral_{0.8}^1 (1-z) dz + (0.8 - 0.5) * 0.2 = 0.08
    assert ic.measured == pytest.approx(0.08 - 0.125, abs=1e-9)
    assert ir.measured == pytest.approx(-0.125, abs=1e-9)


def test_ic_constant_rule_is_report_independent():
    grid = np.linspace(0.0, 1.0, 51)
    interim = InterimAllocation(grid, np.full(51, 0.4), samples=10 ** 6)
    ic, _ = truthfulness(interim, [0.3], [np.linspace(0.0, 1.0, 17)])
    assert ic.passed
    assert ic.measured == pytest.approx(0.0, abs=1e-12)


def test_increasing_rule_fails_both_audits():
    grid = np.linspace(0.0, 1.0, 51)
    interim = InterimAllocation(grid, grid.copy(), samples=10 ** 6)
    assert not interim_monotone(interim).passed
    ic, _ = truthfulness(interim, [0.2], [[0.9]])
    assert not ic.passed


def test_single_client_interim_is_the_deterministic_curve():
    dist = UniformCosts(0.2, 1.0)
    interim = interim_allocation(1, dist, 1, FAST, grid_size=8, samples=3, seed=5)
    for z, e in zip(interim.grid, interim.budgets):
        sol = solve_profiles(dist.virtual([z])[None, :], FAST)
        assert e == pytest.approx(sol.privacy_budgets[0, 0], rel=1e-9)


def test_interim_curve_is_monotone_and_lowest_at_the_top(uniform01):
    interim = interim_allocation(1, uniform01, 3, FAST, grid_size=40,
                                 samples=400, seed=9)
    mono = interim_monotone(interim)
    assert mono.passed, mono
    tol = 3.0 / np.sqrt(interim.samples)
    assert np.all(interim.budgets[-1] <= interim.budgets + tol)


def test_interim_reruns_agree_within_monte_carlo_noise():
    dist = UniformCosts(0.1, 1.0)  # positive virtual cost everywhere
    a = interim_allocation(2, dist, 3, FAST, grid_size=50, samples=2000, seed=21)
    b = interim_allocation(2, dist, 3, FAST, grid_size=50, samples=2000, seed=22)
    assert np.max(np.abs(a.budgets - b.budgets)) <= 3.0 / np.sqrt(2000)


def test_interim_is_deterministic_given_the_seed(uniform01):
    a = interim_allocation(1, uniform01, 3, FAST, grid_size=20, samples=50, seed=3)
    b = interim_allocation(1, uniform01, 3, FAST, grid_size=20, samples=50, seed=3)
    assert a.budgets.tobytes() == b.budgets.tobytes()


def test_interim_argument_guards(uniform01):
    with pytest.raises(ValueError):
        interim_allocation(0, uniform01, 3, FAST)
    with pytest.raises(ValueError):
        interim_allocation(1, uniform01, 3, FAST, grid_size=1)
    with pytest.raises(ValueError):
        interim_allocation(1, uniform01, 3, FAST, samples=0)


def test_payment_converges_under_grid_refinement(uniform01):
    coarse = interim_allocation(1, uniform01, 3, FAST, grid_size=200,
                                samples=200, seed=13)
    fine = interim_allocation(1, uniform01, 3, FAST, grid_size=2000,
                              samples=200, seed=13)
    pc = payment(0.2, coarse)
    pf = payment(0.2, fine)
    assert pc == pytest.approx(pf, rel=5e-3)


def test_expost_payments_cover_costs(uniform01, rng):
    costs = rng.uniform(0.05, 0.95, 3)
    sol = solve_profiles(2.0 * costs[None, :], FAST)

    def eps_fn(ks, z):
        rows = np.arange(z.size)
        profiles = np.tile(costs, (z.size, 1))
        profiles[rows, ks] = z
        return solve_profiles(2.0 * profiles, FAST).privacy_budgets[rows, ks]

    pis, errs = expost_payments(costs, sol.privacy_budgets[0], 1.0, eps_fn,
                                 grid_size=120)
    for k in range(3):
        assert pis[k] - costs[k] * sol.privacy_budgets[0, k] >= -1e-6
        assert errs[k] >= 0.0


@pytest.mark.parametrize("grid", [0, 1])
def test_expost_payments_reject_a_grid_below_two(grid):
    # one node would pay exactly c * eps, and no node cannot be priced at all
    with pytest.raises(ValueError, match="grid_size must be >= 2"):
        expost_payments(np.array([0.5]), np.ones(1), 1.0,
                        lambda ks, z: np.ones(z.size), grid_size=grid)


def test_total_payments_match_virtual_surrogate_spend(rng):
    # the envelope totals and sum of v_k * eps_k share the same expectation
    dist = UniformCosts(0.1, 1.0)
    n, trials, diffs, quad = 3, 60, [], []
    for _ in range(trials):
        costs = dist.sample(rng, n)

        def eps_fn(ks, z, costs=costs):
            rows = np.arange(z.size)
            profiles = np.tile(costs, (z.size, 1))
            profiles[rows, ks] = z
            return solve_profiles(dist.virtual(profiles), FAST).privacy_budgets[rows, ks]

        sol = solve_profiles(dist.virtual(costs)[None, :], FAST)
        pis, errs = expost_payments(costs, sol.privacy_budgets[0], dist.upper,
                                    eps_fn, grid_size=150)
        spend = float(np.sum(dist.virtual(costs) * sol.privacy_budgets[0]))
        diffs.append(pis.sum() - spend)
        quad.append(errs.sum())
    diffs = np.asarray(diffs)
    band = 3.0 * diffs.std(ddof=1) / np.sqrt(trials) + np.mean(quad) + 1e-3
    assert abs(diffs.mean()) <= band, (diffs.mean(), band)
