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
grid over (h, m) plus the closed-form minimizing B of the convex 1-D
objective.

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


@dataclass(frozen=True)
class ServerConfig:
    """Server-side weights and search resolution.

    eta trades learning loss against monetary cost; q_coefficient scales the
    noise-variance term; grid_delta is the step of the p_1/p_h grid search.
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

    @classmethod
    def from_noise_model(cls, eta, c2, delta, dimension, iterations, smoothness,
                         grid_delta=1e-3):
        """Build the config with Q = 2*c2^2*ln(1/delta)*D*sqrt(T)*L."""
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if c2 <= 0 or dimension <= 0 or iterations <= 0 or smoothness <= 0:
            raise ValueError("c2, dimension, iterations, smoothness must be > 0")
        q = 2.0 * c2 ** 2 * math.log(1.0 / delta) * dimension * math.sqrt(iterations) * smoothness
        return cls(eta=eta, q_coefficient=q, grid_delta=grid_delta)


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
    dev2 = dev * dev
    bsq = _budget_root_sq(dev2, a, eta)
    b = np.sqrt(bsq)
    return b, eta * np.sqrt(dev2 + a / bsq) + eta * dev + b


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


def _candidate_grid(n, cfg: ServerConfig):
    """(h, p1, ph) triples in h-ascending, m-ascending order.

    h = 1 admits only p_1 = 1 (stored with a p_h = 1/n placeholder that no
    plan reads). For h >= 2 the grid walks p_1 = i/n + m*delta,
    p_h = 1/n - m*delta with i = n + 1 - h, for every m with p_h > 0: a
    p_h = 0 candidate repeats the distribution of (h - 1, m = 0), or of
    h = 1 when h = 2, so keeping it would let rounding decide which
    threshold a plan reports. The m range counts the steps strictly below
    1/n, with 1/(n*delta) read as an integer when it is one up to rounding.
    """
    share = 1.0 / n
    steps = math.ceil((1.0 - 1e-12) / (n * cfg.grid_delta)) if n >= 2 else 0
    h = np.repeat(np.arange(2, n + 1), steps)
    m = np.tile(np.arange(steps), n - 1)
    return (np.concatenate([[1], h]),
            np.concatenate([[1.0], (n + 1 - h) * share + m * cfg.grid_delta]),
            np.concatenate([[share], share - m * cfg.grid_delta]))


def solve_profiles(virtual_costs, cfg: ServerConfig,
                   max_elements: int = 262_144) -> BatchSolution:
    """Run the grid solver on a (B, N) batch of positive virtual costs.

    Clients are ranked by a stable argsort, so of two equal virtual costs
    the lower index ranks first. Work proceeds in row chunks sized so no
    intermediate exceeds `max_elements` floats (2 MB), which keeps each
    chunk's arrays near the cache instead of streaming them through memory.
    At eta = 0 every plan is the degenerate one: the cheapest client alone,
    with B = 0 and no privacy budgets.
    """
    v = np.atleast_2d(np.asarray(virtual_costs, dtype=float))
    batch, n = v.shape
    if n == 0:
        raise ValueError("empty client profile")
    if np.any(v <= 0):
        raise ValueError("virtual costs must be positive")
    grid = _candidate_grid(n, cfg)
    rows_per_chunk = max(1, max_elements // grid[0].size)
    if batch > rows_per_chunk:
        parts = [_solve_block(v[i:i + rows_per_chunk], cfg, grid)
                 for i in range(0, batch, rows_per_chunk)]
        return BatchSolution(*(np.concatenate([getattr(s, f.name) for s in parts])
                               for f in fields(BatchSolution)))
    return _solve_block(v, cfg, grid)


def _solve_block(v, cfg: ServerConfig, grid) -> BatchSolution:
    batch, n = v.shape
    order = np.argsort(v, axis=1, kind="stable")
    vs = np.take_along_axis(v, order, axis=1)

    h, p1, ph = grid
    share = 1.0 / n
    dev = 2.0 * (p1 - share)

    # noise coefficient per (profile, candidate), cubed at the end
    v23 = vs ** _TWO_THIRDS
    prefix = np.concatenate([np.zeros((batch, 1)), np.cumsum(v23, axis=1)], axis=1)
    first = v23[:, :1] * p1[None, :] ** _TWO_THIRDS
    hterm = np.where(h == 1, 0.0,
                     np.take_along_axis(v23, np.broadcast_to((h - 1)[None, :],
                                                             (batch, h.size)), axis=1)
                     * ph[None, :] ** _TWO_THIRDS)
    mid = (prefix[:, np.maximum(h - 1, 1)] - prefix[:, 1:2]) / n ** _TWO_THIRDS
    coef = (first + hterm + mid) ** 3

    if cfg.eta == 0:
        best = np.zeros(batch, dtype=int)  # ties at f = B = 0; h = 1 wins
        b = f = np.zeros((batch, h.size))
    else:
        # `a` stays bound until the block returns: freeing it mid-block
        # lets the allocator trim the heap, and payment curves then paid
        # about 50% more page faults per make_plan
        a = cfg.q_coefficient * coef
        b, f = _budget_and_objective(dev, a, cfg.eta)
        best = np.argmin(f, axis=1)

    rows = np.arange(batch)
    h_star = h[best]
    idx = np.arange(n)[None, :]
    hcol = h_star[:, None]
    p_sorted = np.where(idx == 0, p1[best][:, None],
                        np.where(idx < hcol - 1, share,
                                 np.where(idx == hcol - 1, ph[best][:, None], 0.0)))
    b_star = b[rows, best]
    eps_sorted = optimal_epsilon(p_sorted, b_star[:, None], vs)

    inverse = np.argsort(order, axis=1)
    p = np.take_along_axis(p_sorted, inverse, axis=1)
    eps = np.take_along_axis(eps_sorted, inverse, axis=1)
    return BatchSolution(p, eps, b_star, h_star, f[rows, best])


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
