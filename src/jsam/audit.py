"""Self-checks behind `jsam audit` and the acceptance gate, tolerances fixed here.

A verdict passes iff measured <= tolerance, so a NaN measurement fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .flsim import noise_sigma
from .mechanism import optimal_epsilon, solve_profiles, verify_structure
from .oracle import brute_force_solve
from .payments import InterimAllocation, payment

_BRUTE_STEP = 0.01  # the brute-force oracle's simplex resolution


@dataclass(frozen=True)
class Verdict:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)


def budget_identity(rng) -> Verdict:
    """Max relative error of sum(v*eps) = B over 10^4 random 6-client triples."""
    p = rng.dirichlet(np.ones(6), size=10_000)
    p[rng.uniform(size=p.shape) < 0.15] = 0.0
    p[p.sum(axis=1) == 0, 0] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    v = rng.uniform(0.05, 2.0, p.shape)
    b = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (p.shape[0], 1)))
    eps = optimal_epsilon(p, b, v)
    rel = np.abs((v * eps).sum(axis=1, keepdims=True) - b) / b
    return Verdict("budget-identity", float(rel.max()), 1e-9)


def grid_vs_brute_force(instances) -> Verdict:
    """Worst |grid - brute-force objective| / allowance over (virtual costs, cfg)
    pairs of N <= 4, allowance = max(1% brute force, 4*(0.01 + grid_delta)*(eta + max v));
    a brute-force optimum without the threshold structure measures inf."""
    ratios = []
    for v, cfg in instances:
        v = np.asarray(v, dtype=float)
        if v.size > 4:
            raise ValueError("grid_vs_brute_force is guarded to N <= 4")
        grid = float(solve_profiles(v[None, :], cfg).objective_value[0])
        brute = brute_force_solve(v, cfg, _BRUTE_STEP)
        allowance = max(0.01 * brute.objective, 4.0 * (_BRUTE_STEP + cfg.grid_delta)
                        * (cfg.eta + float(v.max())))
        structured = verify_structure(brute.probabilities, np.argsort(v, kind="stable") + 1,
                                      tol=_BRUTE_STEP + 1e-9).passed
        ratios.append(abs(grid - brute.objective) / allowance if structured else math.inf)
    return Verdict("grid-vs-brute-force", float(np.max(ratios)), 1.0)


def interim_monotone(interim: InterimAllocation) -> Verdict:
    """Largest rise of the interim budget curve, within Monte-Carlo noise 3/sqrt(S)."""
    rise = float(np.max(np.diff(interim.budgets), initial=0.0))
    return Verdict("interim-monotone", rise, 3.0 / math.sqrt(interim.samples))


def truthfulness(interim: InterimAllocation, costs, misreports):
    """(IC, IR) verdicts of the envelope payment on `interim`.

    `misreports[i]` are the reports tried against true cost `costs[i]`. IC
    measures the best utility gain of a misreport over truth, within the
    Monte-Carlo allowance 3/sqrt(S) plus the curve's quadrature error; IR the
    largest shortfall c*e(c) - pi(c), within 1e-6.
    """
    gains, shortfalls = [], []
    for c, reports in zip(costs, misreports):
        truth = payment(c, interim) - c * float(interim.at(c))
        shortfalls.append(-truth)
        gains.extend(payment(float(r), interim) - c * float(interim.at(r))
                     - truth for r in np.atleast_1d(reports))
    gain = float(np.max(gains, initial=-math.inf))
    ic_tol = 3.0 / math.sqrt(interim.samples) + interim.quadrature_error()
    return (Verdict("incentive-compatibility", gain, ic_tol),
            Verdict("individual-rationality", float(np.max(shortfalls)), 1e-6))


def noise_calibration(rng, delta, c2) -> Verdict:
    """Max relative error of the eps -> sigma -> eps round trip, 200 random (T_k, eps)."""
    errs = []
    for _ in range(200):
        t_k = int(rng.integers(1, 1000))
        eps = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))
        back = c2 * np.sqrt(t_k * np.log(1.0 / delta)) / noise_sigma(t_k, eps, delta, c2)
        errs.append(abs(back - eps) / eps)
    return Verdict("noise-calibration", float(np.max(errs)), 1e-9)
