"""Independent small-scale solvers used to validate the mechanism module.

Nothing here evaluates the closed-form budget split or the threshold-grid
search. The inner problem (min sum p^2/eps^2 subject to sum v*eps = B) is
solved by numeric per-coordinate root finds of its stationarity conditions
at one multiplier, the outer budget problem by golden-section search, and
the selection problem by plain enumeration of a simplex grid. One multiplier
suffices: at multiplier lam every root of lam*v*eps^3 = 2p^2 scales by the
same lam^(-1/3), which rescaling the roots to spend exactly B cancels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mechanism import ServerConfig

_BRACKET = (1e-12, 1e12)
_REL_TOL = 1e-13
# halvings of log(hi/lo) down to a relative width of tol: 49
_STEPS = math.ceil(math.log2(math.log(_BRACKET[1] / _BRACKET[0]) / math.log1p(_REL_TOL)))


def lagrangian_budget_split(p, v, total_budget):
    """min sum p^2/eps^2 s.t. sum v*eps = B, by log-space bisection.

    Each selected coordinate's condition v*eps^3 = 2 p^2 is solved at a unit
    multiplier to relative tolerance 1e-13, then all are rescaled to spend B;
    any other multiplier scales every root alike, which the rescale cancels.
    A root at an end of the fixed bracket raises ArithmeticError. Returns
    (eps, objective) with leading batch dimensions preserved; coordinates
    with p = 0 get eps = 0.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    v = np.broadcast_to(np.asarray(v, dtype=float), p.shape)
    total_budget = np.asarray(total_budget, dtype=float)
    if np.any(total_budget <= 0):
        raise ValueError("total budget must be > 0")
    if np.any(p < 0) or not np.all(p.sum(axis=1) > 0):
        raise ValueError("p must be nonnegative with positive mass")
    if np.any(v[p > 0] <= 0):
        raise ValueError("selected coordinate with non-positive virtual cost")

    mask = p > 0
    two_p2 = 2.0 * p * p
    lo, hi = (np.full(p.shape, end) for end in _BRACKET)
    for _ in range(_STEPS):
        mid = np.sqrt(lo * hi)  # geometric midpoint: bisection on the log axis
        low = v * mid * mid * mid < two_p2
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    if np.any(mask & ((lo == _BRACKET[0]) | (hi == _BRACKET[1]))):
        raise ArithmeticError("stationary budget outside the search bracket")
    eps = np.where(mask, np.sqrt(lo * hi), 0.0)
    eps *= (total_budget / (v * eps).sum(axis=1))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        objective = np.where(mask, p * p / (eps * eps), 0.0).sum(axis=1)
    return eps, objective


def _golden_minimize(fn, lo, hi):
    """Vectorized golden-section minimum of a unimodal fn on [lo, hi].

    Sixty steps shrink the bracket by 0.618^60 (3e-13). Evaluates both
    interior points each step; fn is cheap enough that this is simpler.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    for _ in range(60):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        shrink_right = fn(c) < fn(d)
        b = np.where(shrink_right, d, b)
        a = np.where(shrink_right, a, c)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


@dataclass
class BruteForceResult:
    probabilities: np.ndarray
    budgets: np.ndarray
    objective: float
    total_budget: float
    evaluations: int


def _composition_chunks(resolution, parts, chunk=200_000):
    """Simplex numerators (rows summing to `resolution`) in lex order."""
    positions = itertools.combinations(range(resolution + parts - 1), parts - 1)
    while True:
        block = list(itertools.islice(positions, chunk))
        if not block:
            return
        if parts == 1:
            yield np.full((1, 1), resolution)
            return
        dividers = np.array(block, dtype=np.int64)
        padded = np.concatenate([
            np.full((dividers.shape[0], 1), -1),
            dividers,
            np.full((dividers.shape[0], 1), resolution + parts - 1),
        ], axis=1)
        yield np.diff(padded, axis=1) - 1


def brute_force_solve(v, cfg: ServerConfig, grid_step: float = 0.01) -> BruteForceResult:
    """Global search over the probability simplex at resolution `grid_step`.

    The deviation term is the exact L1 distance to uniform for every grid
    point (arbitrary p carries no threshold structure to exploit). Ties keep
    the lexicographically smallest p, which is the enumeration order, except
    at eta = 0: there every p ties at f = B = 0, and the result is the
    cheapest client alone (the lowest index among equals), the solver's
    degenerate plan and the only tie with the threshold structure.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n > 5:
        raise ValueError("brute force is guarded to N <= 5")
    if grid_step < 1e-3:
        raise ValueError("grid_step must be >= 1e-3")
    resolution = round(1.0 / grid_step)
    if abs(resolution * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1")
    total_points = math.comb(resolution + n - 1, n - 1)
    if total_points > 20_000_000:
        raise ValueError("grid too fine to enumerate")
    if np.any(v <= 0):
        raise ValueError("virtual costs must be positive")

    if cfg.eta == 0:
        p = np.zeros(n)
        p[np.argmin(v)] = 1.0
        return BruteForceResult(p, np.zeros(n), 0.0, 0.0, total_points)

    share = 1.0 / n
    best_f = math.inf
    best = None
    for numerators in _composition_chunks(resolution, n):
        p = numerators / resolution
        dev = np.abs(p - share).sum(axis=1)
        eps1, d1 = lagrangian_budget_split(p, v, 1.0)
        a = cfg.q_coefficient * d1
        dev2 = dev * dev

        def objective(b):
            return cfg.eta * np.sqrt(dev2 + a / (b * b)) + cfg.eta * dev + b

        f_at_one = objective(np.ones(p.shape[0]))
        b_star, f_star = _golden_minimize(objective, np.full(p.shape[0], 1e-9),
                                          f_at_one + 1.0)
        k = int(np.argmin(f_star))
        if f_star[k] < best_f:
            best_f = float(f_star[k])
            best = (p[k].copy(), b_star[k] * eps1[k], float(b_star[k]))
    return BruteForceResult(best[0], best[1], best_f, best[2], total_points)
