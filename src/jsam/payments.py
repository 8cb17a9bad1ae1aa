"""Payment rule for the selection mechanism.

The allocation rule here is a client's interim privacy budget: its expected
budget as a function of its own reported sensitivity, averaged over rivals'
reports. Payments follow the envelope form

    pi_k(c) = integral_c^{c_max} e_k(z) dz + c * e_k(c),

which, for a weakly decreasing allocation, makes truthful reporting a best
response in expectation and guarantees nonnegative expected utility. The
upper integration limit is the distribution's support top: budgets are only
defined for on-support reports.

Interim curves are estimated by Monte Carlo with common random numbers (one
set of rival profiles reused across the whole report grid), which keeps the
estimated curve monotone up to O(1/sqrt(S)) noise and therefore auditable at
moderate sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostDistribution
from .mechanism import ServerConfig, solve_profiles

_trapezoid = getattr(np, "trapezoid", None) or np.trapz
_COARSE_STRIDE = 8  # payment-curve nodes per live curve in one sweep call


def _envelope(z, e):
    """pi(z[0]) = integral of e over z + z[0] * e[0], by the trapezoid rule,
    for each curve along the last axis of z and e."""
    return _trapezoid(e, z, axis=-1) + z[..., 0] * e[..., 0]


def _trapezoid_error(e, step):
    """Composite-trapezoid error estimate step * sum|second differences| / 12,
    for each curve along the last axis of e."""
    return step * np.abs(np.diff(e, 2, axis=-1)).sum(axis=-1) / 12.0


@dataclass
class InterimAllocation:
    """Monte-Carlo estimate of one client's report -> expected budget curve."""

    grid: np.ndarray     # (G,) ascending reports
    budgets: np.ndarray  # (G,) estimated expected budgets
    samples: int

    def at(self, report):
        """Piecewise-linear interpolation of the curve."""
        return np.interp(report, self.grid, self.budgets)

    def quadrature_error(self) -> float:
        """Composite-trapezoid error estimate from second differences."""
        return float(_trapezoid_error(
            self.budgets, (self.grid[-1] - self.grid[0]) / (self.grid.size - 1)))


def interim_allocation(k, dist: CostDistribution, n_clients, cfg: ServerConfig,
                       grid_size: int = 200, samples: int = 2000,
                       seed: int = 0) -> InterimAllocation:
    """Estimate client k's interim budget curve on a support-covering grid.

    The same `samples` rival profiles are reused at every grid point. The
    lowest grid node is nudged off the support boundary when the virtual cost
    vanishes there (e.g. uniform starting at 0), since a zero virtual cost
    makes the budget split degenerate.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 1 <= k <= n_clients:
        raise ValueError("client index out of range")
    grid = np.linspace(dist.lower, dist.upper, grid_size)
    if float(dist.virtual(grid[0])) <= 0:
        grid[0] = dist.lower + 1e-9 * (dist.upper - dist.lower)
    rng = np.random.default_rng(seed)
    rivals = dist.sample(rng, size=(samples, n_clients - 1))
    col = k - 1
    profiles = np.insert(np.tile(rivals, (grid_size, 1)), col,
                         np.repeat(grid, samples), axis=1)
    virtuals = dist.virtual(profiles)
    sol = solve_profiles(virtuals, cfg)
    curve = sol.privacy_budgets[:, col].reshape(grid_size, samples).mean(axis=1)
    return InterimAllocation(grid=grid, budgets=curve, samples=samples)


def payment(c, interim: InterimAllocation) -> float:
    """Envelope payment for a report c, exact for the interim curve's
    interpolant; `interim.quadrature_error()` bounds the gap to the curve."""
    grid, e = interim.grid, interim.budgets
    if not grid[0] <= c <= grid[-1]:
        raise ValueError("report outside the interim grid range")
    j = int(np.searchsorted(grid, c, side="right"))
    return float(_envelope(np.concatenate(([c], grid[j:])),
                           np.concatenate(([np.interp(c, grid, e)], e[j:]))))


def expost_payments(costs, budgets, support_upper, eps_of_reports,
                    grid_size: int = 200):
    """Envelope payments with rivals' reports held fixed at their realization.

    eps_of_reports(ks, z) -> client ks[i]'s budget when it reports z[i],
    rivals fixed; `make_plan` prices jsam's curves with
    `mechanism.client_budgets`. Averaging this payment over rival draws
    recovers the interim rule, so totals are comparable across mechanisms.
    Returns (payments, quadrature error estimates).

    `budgets` are the truthful budgets. A client whose budget is exactly 0 at
    a report z gets 0 at every report above z under the rules priced here:

    - jsam: the objective of a candidate threshold h depends only on the h
      cheapest virtual costs and is weakly increasing in each of them.
      Raising an unselected client's report leaves every candidate that
      excludes it bit-for-bit unchanged and can only raise the others, so
      argmin keeps its first minimiser and the client stays out.
    - fsbm-M: `make_plan`'s cut gives the client 0 once its report passes
      the (M + 1)-th cheapest in stable order, and at every report above.
    - usbm and bbm give every client a positive budget.

    So a client with a zero truthful budget is paid 0 with error 0. The other
    curves, on linspace(c_k, support_upper, grid_size), are swept upward in
    one pass, node by node across all of them, at most min(grid_size,
    _COARSE_STRIDE x live curves) reports per call. A curve that returns an
    exact 0 is dropped, since every node above is 0 too, so the payments
    equal those of evaluating every node.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    costs = np.asarray(costs, dtype=float)
    pis, errs = np.zeros(costs.size), np.zeros(costs.size)
    paid = np.nonzero(np.asarray(budgets, dtype=float) != 0)[0]
    z = np.linspace(costs[paid], support_upper, grid_size, axis=1)
    e = np.zeros(z.shape)
    # node-major (curve, node) pairs: every curve's lower reports come first
    curve, node = np.unravel_index(np.arange(z.size), z.shape, order="F")
    live = np.ones(paid.size, dtype=bool)
    while curve.size:
        rows = min(grid_size, _COARSE_STRIDE * np.count_nonzero(live))
        ci, ni = curve[:rows], node[:rows]
        e[ci, ni] = eps_of_reports(paid[ci], z[ci, ni])
        curve, node = curve[rows:], node[rows:]
        out = ci[e[ci, ni] == 0]
        if out.size:
            live[out] = False
            keep = live[curve]
            curve, node = curve[keep], node[keep]
    pis[paid] = _envelope(z, e)
    errs[paid] = _trapezoid_error(e, (support_upper - costs[paid]) / (grid_size - 1))
    return pis, errs
