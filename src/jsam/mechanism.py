"""Joint selection-probability and privacy-budget solver.

The server picks, for N clients sorted by ascending virtual cost, a selection
distribution p with the threshold structure

    p_1 >= 1/N,   p_k = 1/N for 1 < k < h,   0 <= p_h <= 1/N,   p_k = 0 for k > h,

a per-client privacy budget vector eps, and a total monetary budget B, to
minimize

    eta * sqrt(dev^2 + Q * sum_k p_k^2 / eps_k^2) + eta * dev + B

subject to sum_k v_k eps_k = B. The eps minimization has the closed form in
`optimal_epsilon`; substituting it reduces the noise term to Q*c/B^2 with
c = (sum_k (v_k p_k)^{2/3})^3, and the remaining (p_1, p_h, B) search is a
scan over the threshold h at p_h = 1/N (see `solve_profiles`) plus the
closed-form minimizing B of the convex 1-D objective.

`dev` is the L1 distance between p and the uniform distribution, which under
the threshold structure equals 2*(p_1 - 1/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

_TWO_THIRDS = 2.0 / 3.0
_TWO_OVER_ROOT3 = 2.0 / math.sqrt(3.0)
_HALF_THREE_ROOT3 = 1.5 * math.sqrt(3.0)
# most (row, threshold) pairs solved at once (`solve_profiles` chunks rows)
_MAX_ELEMENTS = 32_768


@dataclass(frozen=True)
class ServerConfig:
    """Server-side weights.

    eta trades learning loss against monetary cost; q_coefficient scales the
    noise-variance term. grid_delta is range-checked but not read by the
    solver, which scans thresholds at p_h = 1/N and has no grid step; it
    stays because configs and the benchmark harness set and read it.
    """

    eta: float = 1.0
    q_coefficient: float = 1.0
    grid_delta: float = 1e-3

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.q_coefficient <= 0:
            raise ValueError("q_coefficient must be > 0")
        if not 0 < self.grid_delta <= 1:
            raise ValueError("grid_delta must lie in (0, 1]")


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    clause: str | None = None
    threshold: int | None = None


def verify_structure(p, order, tol: float = 1e-9) -> StructureReport:
    """Check the threshold structure of p against an ascending-cost order.

    `order` lists 1-based client indices by ascending virtual cost. Passes iff
    at most one client sits above 1/N (the cheapest), every later selected
    client except possibly the last holds exactly 1/N, and everything past the
    threshold is zero, all within `tol`.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    q = p[np.asarray(order, dtype=int) - 1]
    share = 1.0 / n
    positive = np.nonzero(q > tol)[0]
    if positive.size == 0:
        return StructureReport(False, "no client selected")
    t = int(positive[-1])
    if q[0] < share - tol:
        return StructureReport(False, "cheapest client below 1/N", t + 1)
    mid = q[1:t]
    if mid.size and np.max(np.abs(mid - share)) > tol:
        return StructureReport(False, "interior client off 1/N", t + 1)
    if t >= 1 and q[t] > share + tol:
        return StructureReport(False, "threshold client above 1/N", t + 1)
    tail = q[t + 1:]
    if tail.size and np.max(tail) > tol:
        return StructureReport(False, "excluded client selected", t + 1)
    return StructureReport(True, None, t + 1)


def optimal_epsilon(p, total_budget, v) -> np.ndarray:
    """Budget split minimizing sum p_k^2/eps_k^2 under sum v_k eps_k = B.

    eps_k = p_k^{2/3} B / ((sum_i (v_i p_i)^{2/3}) v_k^{1/3}); excluded clients
    (p_k = 0) receive 0. Satisfies the spend identity sum v_k eps_k = B.

    Accepts a single profile (1-D p, scalar B) or a batch (2-D p with B
    scalar or of shape (rows, 1)); the client axis is always the last.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    total_budget = np.asarray(total_budget, dtype=float)
    if np.any(total_budget < 0):
        raise ValueError("total budget must be >= 0")
    if np.any(p < 0):
        raise ValueError("negative selection probability")
    if np.any(~(p.sum(axis=-1) > 0)):
        raise ValueError("all-zero selection probabilities")
    if np.any((p > 0) & (np.broadcast_to(v, p.shape) <= 0)):
        raise ValueError("selected client with non-positive virtual cost")
    weights = np.where(p > 0, (v * p) ** _TWO_THIRDS, 0.0)
    scale = weights.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = p ** _TWO_THIRDS * total_budget / (scale * np.cbrt(v))
    return np.where(p > 0, eps, 0.0)


def _budget_root_sq(dev2, a, eta):
    """Vectorized B*^2: the positive root of dev2*x^3 + a*x^2 - eta^2*a^2.

    Substituting x = eta*sqrt(a)/u turns the cubic into u^3 - u - k = 0 with
    k = dev2*eta/sqrt(a) >= 0, whose single real root u >= 1 has the closed
    form u = (2/sqrt(3))*cos(arccos(t)/3) for t <= 1 and
    u = (2/sqrt(3))*cosh(arccosh(t)/3) for t > 1, t = (3*sqrt(3)/2)*k. One
    Newton step on u, whose derivative 3u^2 - 1 is at least 2, removes the
    rounding of the trigonometric form. Requires a > 0 and eta > 0.
    """
    root_a = np.sqrt(a)
    k = dev2 * eta / root_a
    t = _HALF_THREE_ROOT3 * k
    # each branch only where its inverse function is defined
    trig = t <= 1.0
    hyper = ~trig
    u = np.empty_like(t)
    u[trig] = np.cos(np.arccos(t[trig]) / 3.0)
    u[hyper] = np.cosh(np.arccosh(t[hyper]) / 3.0)
    u *= _TWO_OVER_ROOT3
    u2 = u * u
    u -= (u2 * u - u - k) / (3.0 * u2 - 1.0)
    return eta * root_a / u


def _budget_and_objective(dev, a, eta):
    """B* and the objective eta*sqrt(dev^2 + a/B*^2) + eta*dev + B* at it."""
    if not np.all(a > 0):
        raise ValueError("noise coefficient Q*c is not positive: the virtual "
                         "costs are too small (or not numbers) to plan with")
    dev2 = dev * dev
    bsq = _budget_root_sq(dev2, a, eta)
    b = np.sqrt(bsq)
    f = eta * np.sqrt(dev2 + a / bsq) + eta * dev + b
    if not np.all(np.isfinite(f)):
        raise ValueError("objective is not finite: eta, q_coefficient or the "
                         "virtual costs overflow")
    return b, f


@dataclass
class BatchSolution:
    """Plans for a batch of cost profiles, original client order.

    `threshold` is the position h, in ascending virtual-cost order, of the
    last client with positive selection probability (None for plans with
    fixed selection probabilities, which have no threshold).
    """

    probabilities: np.ndarray   # (B, N)
    privacy_budgets: np.ndarray  # (B, N)
    total_budget: np.ndarray    # (B,)
    threshold: np.ndarray       # (B,)
    objective_value: np.ndarray  # (B,)


def solve_profiles(virtual_costs, cfg: ServerConfig) -> BatchSolution:
    """Run the threshold solver on a (B, N) batch of positive virtual costs.

    Clients are ranked by a stable argsort, so of two equal virtual costs
    the lower index ranks first. Each plan is the first minimiser, in h
    order, of the objective over the N thresholds h = 1..N with p_h = 1/N:
    p_1 = 1 at h = 1 and (N + 1 - h)/N after, and B* in closed form at each.
    Rows are solved in chunks of at most `_MAX_ELEMENTS` (row, threshold)
    pairs. At eta = 0 every plan is the degenerate one: the cheapest client
    alone, with B = 0 and no privacy budgets.

    Why p_h = 1/N, a checked conjecture. For h >= 2 the threshold structure
    leaves the segment p_1 = (N+1-h)/N + x, p_h = 1/N - x, x in [0, 1/N),
    whose ends are threshold h (x = 0) and threshold h - 1 (p_h = 0). Along
    it dev = 2(N-h)/N + 2x rises linearly, while c^(1/3) =
    (v_1 p_1)^(2/3) + (v_h p_h)^(2/3) + const is concave and, as v_1 <= v_h
    and p_1 >= p_h, decreasing; min_B f rises with both dev and c. That
    trade does not by itself rule out an interior minimum, but none has been
    found: on 654,533 random rows (N 1-300, eta 1e-6-1e8, Q 1e-4-6e4, cost
    floors 0.01 and 0.1) a dense grid over (h, x) at steps 1e-3 and 1e-2
    gave these plans byte for byte, and on 20,000 random segments, each at
    2,000 points, no interior point was below both ends.
    `tests/test_mechanism.py` keeps that dense grid as the reference this
    kernel must match.
    """
    v = np.atleast_2d(np.asarray(virtual_costs, dtype=float))
    batch, n = v.shape
    if n == 0:
        raise ValueError("empty client profile")
    if np.any(v <= 0):
        raise ValueError("virtual costs must be positive")
    rows_per_chunk = max(1, _MAX_ELEMENTS // n)
    if batch > rows_per_chunk:
        parts = [_solve_chunk(v[i:i + rows_per_chunk], cfg)
                 for i in range(0, batch, rows_per_chunk)]
        return BatchSolution(*(np.concatenate([getattr(s, f.name) for s in parts])
                               for f in fields(BatchSolution)))
    return _solve_chunk(v, cfg)


def _solve_chunk(v, cfg: ServerConfig) -> BatchSolution:
    batch, n = v.shape
    order = np.argsort(v, axis=1, kind="stable")
    vs = np.take_along_axis(v, order, axis=1)

    share = 1.0 / n
    h = np.arange(1, n + 1)
    p1 = np.concatenate([[1.0], (n + 1 - h[1:]) * share])
    if cfg.eta == 0:
        best = np.zeros(batch, dtype=int)  # ties at f = B = 0; h = 1 wins
        b_star, f_star = np.zeros(batch), np.zeros(batch)
    else:
        # c^(1/3) at each (row, h): the cheapest client at p_1, client h at
        # 1/N (none for h = 1) and clients 2..h-1 at 1/N. (1/N)^(2/3) is an
        # array power, like p_1's: numpy's vectorized pow can differ from the
        # scalar one in the last bit.
        p1_23, ph_23 = np.stack([p1, np.full(n, share)]) ** _TWO_THIRDS
        v23 = vs ** _TWO_THIRDS
        prefix = np.cumsum(v23, axis=1)
        vh = np.concatenate([np.zeros((batch, 1)), v23[:, 1:]], axis=1)
        mid = (prefix[:, np.maximum(h - 2, 0)] - prefix[:, :1]) / n ** _TWO_THIRDS
        inner = v23[:, :1] * p1_23 + vh * ph_23 + mid
        b, f = _budget_and_objective(2.0 * (p1 - share), cfg.q_coefficient * inner ** 3,
                                     cfg.eta)
        best = np.argmin(f, axis=1)
        rows = np.arange(batch)
        b_star, f_star = b[rows, best], f[rows, best]

    h_star = h[best]
    idx = np.arange(n)[None, :]
    p_sorted = np.where(idx == 0, p1[best][:, None],
                        np.where(idx < h_star[:, None], share, 0.0))
    eps_sorted = optimal_epsilon(p_sorted, b_star[:, None], vs)

    inverse = np.argsort(order, axis=1)
    p = np.take_along_axis(p_sorted, inverse, axis=1)
    eps = np.take_along_axis(eps_sorted, inverse, axis=1)
    return BatchSolution(p, eps, b_star, h_star, f_star)


def fixed_probability_solve(p, v, cfg: ServerConfig):
    """Inner-optimize B and eps for fixed selection distributions, batched.

    Used by fixed-probability baselines. The deviation term is the L1
    distance to uniform summed over all clients, since arbitrary p need not
    follow the threshold structure. p and v are (B, N); returns
    (eps (B, N), budgets (B,), objectives (B,)).
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    batch, n = p.shape
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9) or np.any(p < 0):
        raise ValueError("p must lie on the simplex")
    if np.any(v[p > 0] <= 0):
        raise ValueError("selected client with non-positive virtual cost")
    if cfg.eta == 0:
        return np.zeros((batch, n)), np.zeros(batch), np.zeros(batch)
    dev = np.abs(p - 1.0 / n).sum(axis=1)
    c = np.where(p > 0, (v * p) ** _TWO_THIRDS, 0.0).sum(axis=1) ** 3
    b, f = _budget_and_objective(dev, cfg.q_coefficient * c, cfg.eta)
    return optimal_epsilon(p, b[:, None], v), b, f
