"""Independent small-scale solvers used to validate the mechanism module.

Nothing here evaluates the closed-form budget split or the threshold
search. The inner problem (min sum p^2/eps^2 subject to sum v*eps = B) is
solved by numeric per-coordinate root finds of its stationarity conditions
at one multiplier, the outer budget problem by golden-section search, and
the selection problem by enumeration of a simplex grid. One multiplier
suffices: at multiplier lam every root of lam*v*eps^3 = 2p^2 scales by the
same lam^(-1/3), which rescaling the roots to spend exactly B cancels. So
the brute force finds each root once per (grid level, client), and skips
the budget search of every grid point whose objective is bounded, by two
inequalities, above the best one found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanism import ServerConfig

_BRACKET = (1e-12, 1e12)
_REL_TOL = 1e-13
# halvings of log(hi/lo) down to a relative width of tol: 49
_STEPS = math.ceil(math.log2(math.log(_BRACKET[1] / _BRACKET[0]) / math.log1p(_REL_TOL)))
_B_LOW = 1e-9  # lower end of the golden-section budget search
# a grid point is searched when its objective's lower bound is within this
# relative slack of the best objective known, far above rounding and the
# golden-section search's error
_SLACK = 1e-9
_CHUNK_ROWS = 200_000  # larger grids are enumerated one leading part at a time


def _unit_roots(p, v):
    """Each root of v*eps^3 = 2p^2 by log-space bisection to relative 1e-13.

    p and v broadcast together; the root is 0 where p = 0, and NaN where
    p > 0 and it sits at an end of the fixed bracket.
    """
    two_p2 = 2.0 * p * p
    lo, hi = (np.full(np.broadcast_shapes(p.shape, v.shape), end) for end in _BRACKET)
    for _ in range(_STEPS):
        mid = np.sqrt(lo * hi)  # geometric midpoint: bisection on the log axis
        low = v * mid * mid * mid < two_p2
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    stuck = (lo == _BRACKET[0]) | (hi == _BRACKET[1])
    return np.where(p > 0, np.where(stuck, np.nan, np.sqrt(lo * hi)), 0.0)


def _spend(p, roots, v, total_budget):
    """(eps, objective) of each row: its unit-multiplier roots rescaled to
    spend total_budget; ArithmeticError if a selected root left the bracket."""
    if np.isnan(roots).any():
        raise ArithmeticError("stationary budget outside the search bracket")
    eps = roots * (total_budget / (v * roots).sum(axis=1))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        objective = np.where(p > 0, p * p / (eps * eps), 0.0).sum(axis=1)
    return eps, objective


def lagrangian_budget_split(p, v, total_budget):
    """min sum p^2/eps^2 s.t. sum v*eps = B, by log-space bisection.

    Each selected coordinate's condition v*eps^3 = 2 p^2 is solved at a unit
    multiplier to relative tolerance 1e-13, then all are rescaled to spend B;
    any other multiplier scales every root alike, which the rescale cancels.
    A non-finite input raises ValueError, and a root at an end of the fixed
    bracket ArithmeticError. Returns (eps, objective) with leading batch
    dimensions preserved; coordinates with p = 0 get eps = 0.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    v = np.broadcast_to(np.asarray(v, dtype=float), p.shape)
    total_budget = np.asarray(total_budget, dtype=float)
    if not np.all(np.isfinite(total_budget) & (total_budget > 0)):
        raise ValueError("total budget must be finite and > 0")
    if not np.all(np.isfinite(p)) or np.any(p < 0) or not np.all(p.sum(axis=1) > 0):
        raise ValueError("p must be finite and nonnegative with positive mass")
    if not np.all(np.isfinite(v)):
        raise ValueError("virtual costs must be finite")
    if np.any(v[p > 0] <= 0):
        raise ValueError("selected coordinate with non-positive virtual cost")
    return _spend(p, _unit_roots(p, v), v, total_budget)


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


def _budget_objective(dev, a, eta):
    """f(B) = eta*sqrt(dev^2 + a/B^2) + eta*dev + B, one grid point per entry."""
    dev2 = dev * dev
    return lambda b: eta * np.sqrt(dev2 + a / (b * b)) + eta * dev + b


def _objective_floor(dev, a, eta):
    """(a lower bound on each f's minimum, a budget whose f is at least it).

    sqrt(dev^2 + a/B^2) is at least dev and at least sqrt(a)/B, and
    eta*sqrt(a)/B + B >= 2*sqrt(eta*sqrt(a)) (AM-GM), with equality at
    B = sqrt(eta*sqrt(a)), raised here to the search's lower end if below it.
    """
    root = np.sqrt(eta * np.sqrt(a))
    eta_dev = eta * dev
    return eta_dev + np.maximum(eta_dev, 2.0 * root), np.maximum(root, _B_LOW)


@dataclass
class BruteForceResult:
    probabilities: np.ndarray
    budgets: np.ndarray
    objective: float
    total_budget: float
    evaluations: int


def _compositions(heads, resolution, parts):
    """Rows of `parts` nonnegative ints summing to `resolution` that start
    with a row of `heads`, in lex order (`heads` in lex order too)."""
    rows = heads
    for _ in range(parts - 1 - heads.shape[1]):
        room = resolution + 1 - rows.sum(axis=1)  # choices for the next part
        starts = np.cumsum(room) - room
        nxt = np.arange(room.sum()) - np.repeat(starts, room)
        rows = np.column_stack((np.repeat(rows, room, axis=0), nxt))
    return np.column_stack((rows, resolution - rows.sum(axis=1)))


def _composition_chunks(resolution, parts):
    """Simplex numerators (rows summing to `resolution`) in lex order: one
    block, or one block per leading part if the grid exceeds _CHUNK_ROWS."""
    if math.comb(resolution + parts - 1, parts - 1) <= _CHUNK_ROWS:
        yield _compositions(np.zeros((1, 0), dtype=np.int64), resolution, parts)
        return
    for head in range(resolution + 1):
        yield _compositions(np.array([[head]]), resolution, parts)


def brute_force_solve(v, cfg: ServerConfig, grid_step: float = 0.01) -> BruteForceResult:
    """Global search over the probability simplex at resolution `grid_step`.

    The deviation term is the exact L1 distance to uniform for every grid
    point (arbitrary p carries no threshold structure to exploit). Each
    client's unit-multiplier root is found once per grid level, a table
    that every grid point gathers from. A grid point's budget search runs
    only if a lower bound on its objective (`_objective_floor`) is within a
    relative 1e-9 of the best objective known: the best of earlier blocks,
    or the least of its block's objectives at the budgets the bounds name.
    Every skipped point is therefore worse than the winner, and the result
    is bit for bit that of a search over every point.

    Ties keep the lexicographically smallest p, which is the enumeration
    order, except at eta = 0: there every p ties at f = B = 0, and the
    result is the cheapest client alone (the lowest index among equals), the
    solver's degenerate plan and the only tie with the threshold structure.
    """
    v = np.asarray(v, dtype=float)
    n = v.size
    if n > 5:
        raise ValueError("brute force is guarded to N <= 5")
    if not (math.isfinite(grid_step) and grid_step >= 1e-3):
        raise ValueError("grid_step must be finite and >= 1e-3")
    resolution = round(1.0 / grid_step)
    if abs(resolution * grid_step - 1.0) > 1e-9:
        raise ValueError("grid_step must divide 1")
    total_points = math.comb(resolution + n - 1, n - 1)
    if total_points > 20_000_000:
        raise ValueError("grid too fine to enumerate")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("virtual costs must be finite and positive")

    if cfg.eta == 0:
        p = np.zeros(n)
        p[np.argmin(v)] = 1.0
        return BruteForceResult(p, np.zeros(n), 0.0, 0.0, total_points)

    share = 1.0 / n
    roots = _unit_roots(np.arange(resolution + 1)[:, None] / resolution, v)
    clients = np.arange(n)
    best_f = math.inf
    best = None
    for numerators in _composition_chunks(resolution, n):
        p = numerators / resolution
        eps1, d1 = _spend(p, roots[numerators, clients], v, 1.0)
        dev = np.abs(p - share).sum(axis=1)
        a = cfg.q_coefficient * d1
        floor, b_guess = _objective_floor(dev, a, cfg.eta)
        known = min(best_f, float(_budget_objective(dev, a, cfg.eta)(b_guess).min()))
        rows = np.flatnonzero(floor <= (1.0 + _SLACK) * known)
        if rows.size == 0:  # every point of the block is worse than best_f
            continue
        objective = _budget_objective(dev[rows], a[rows], cfg.eta)
        b_star, f_star = _golden_minimize(objective, np.full(rows.size, _B_LOW),
                                          objective(np.ones(rows.size)) + 1.0)
        k = int(np.argmin(f_star))
        if f_star[k] < best_f:
            best_f = float(f_star[k])
            best = (p[rows[k]].copy(), b_star[k] * eps1[rows[k]], float(b_star[k]))
    return BruteForceResult(best[0], best[1], best_f, best[2], total_points)
