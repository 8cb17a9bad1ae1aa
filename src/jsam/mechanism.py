"""Joint selection-probability and privacy-budget solver.

The server picks, for N clients sorted by ascending virtual cost, a selection
distribution p with the threshold structure

    p_1 >= 1/N,   p_k = 1/N for 1 < k < h,   0 <= p_h <= 1/N,   p_k = 0 for k > h,

a per-client privacy budget vector eps, and a total monetary budget B, to
minimize

    eta * sqrt(dev^2 + Q * sum_k p_k^2 / eps_k^2) + eta * dev + B

subject to sum_k v_k eps_k = B. The eps minimization has the closed form in
`optimal_epsilon`; substituting it reduces the noise term to Q*c/B^2 with the
`c` coefficient below, and the remaining (p_1, p_h, B) search is a grid over
(h, m) plus an exact 1-D convex minimization in B.

`dev` is the L1 distance between p and the uniform distribution. Under the
threshold structure it equals 2*(p_1 - 1/N); the alternative form
2*(p_1 - p_h) is kept behind `objective_form="paper_literal"` because the two
differ whenever p_h < 1/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .costs import ClientType, sort_by_virtual_cost

_TWO_THIRDS = 2.0 / 3.0
_TWO_OVER_ROOT3 = 2.0 / math.sqrt(3.0)
_HALF_THREE_ROOT3 = 1.5 * math.sqrt(3.0)

OBJECTIVE_FORMS = ("exact_l1", "paper_literal")


@dataclass(frozen=True)
class ServerConfig:
    """Server-side weights and search resolution.

    eta trades learning loss against monetary cost; q_coefficient scales the
    noise-variance term; grid_delta is the step of the p_1/p_h grid search.
    """

    eta: float = 1.0
    q_coefficient: float = 1.0
    grid_delta: float = 1e-3
    objective_form: str = "exact_l1"

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.q_coefficient <= 0:
            raise ValueError("q_coefficient must be > 0")
        if not 0 < self.grid_delta <= 1:
            raise ValueError("grid_delta must lie in (0, 1]")
        if self.objective_form not in OBJECTIVE_FORMS:
            raise ValueError(f"objective_form must be one of {OBJECTIVE_FORMS}")

    @classmethod
    def from_noise_model(cls, eta, c2, delta, dimension, iterations, smoothness,
                         grid_delta=1e-3, objective_form="exact_l1"):
        """Build the config with Q = 2*c2^2*ln(1/delta)*D*sqrt(T)*L."""
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if c2 <= 0 or dimension <= 0 or iterations <= 0 or smoothness <= 0:
            raise ValueError("c2, dimension, iterations, smoothness must be > 0")
        q = 2.0 * c2 ** 2 * math.log(1.0 / delta) * dimension * math.sqrt(iterations) * smoothness
        return cls(eta=eta, q_coefficient=q, grid_delta=grid_delta,
                   objective_form=objective_form)


@dataclass
class MechanismOutcome:
    """Solver output in original client order.

    `threshold` is the position h in ascending virtual-cost order of the last
    client with positive selection probability; `order` is that ascending
    permutation as 1-based client indices. `payments` stays None until a
    payment rule fills it. `degenerate` marks the eta=0 outcome (B=0, eps=0).
    """

    probabilities: np.ndarray
    privacy_budgets: np.ndarray
    total_budget: float
    threshold: int
    objective_value: float
    order: np.ndarray
    degenerate: bool = False
    payments: np.ndarray | None = None

    def validate(self, virtual_costs) -> None:
        v = np.asarray(virtual_costs, dtype=float)
        p = self.probabilities
        eps = self.privacy_budgets
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities do not sum to 1")
        if np.any((p == 0) & (eps != 0)):
            raise ValueError("zero-probability client holds a privacy budget")
        if not self.degenerate and np.any((eps == 0) & (p != 0)):
            raise ValueError("selected client holds no privacy budget")
        spend = float(np.sum(v * eps))
        if self.total_budget == 0:
            if spend != 0:
                raise ValueError("nonzero spend against a zero budget")
        elif abs(spend - self.total_budget) > 1e-9 * self.total_budget:
            raise ValueError("budget identity violated")
        report = verify_structure(p, self.order)
        if not report.passed:
            raise ValueError(f"threshold structure violated: {report.clause}")


@dataclass(frozen=True)
class StructureReport:
    passed: bool
    clause: str | None = None
    threshold: int | None = None
    max_violation: float = 0.0


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
        return StructureReport(False, "no client selected", None, 1.0)
    t = int(positive[-1])
    if q[0] < share - tol:
        return StructureReport(False, "cheapest client below 1/N", t + 1,
                               float(share - q[0]))
    mid = q[1:t]
    if mid.size and np.max(np.abs(mid - share)) > tol:
        return StructureReport(False, "interior client off 1/N", t + 1,
                               float(np.max(np.abs(mid - share))))
    if t >= 1 and q[t] > share + tol:
        return StructureReport(False, "threshold client above 1/N", t + 1,
                               float(q[t] - share))
    tail = q[t + 1:]
    if tail.size and np.max(tail) > tol:
        return StructureReport(False, "excluded client selected", t + 1,
                               float(np.max(tail)))
    return StructureReport(True, None, t + 1, 0.0)


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


def _noise_coefficient(h, p1, ph, v_sorted):
    """c = ((v_1 p_1)^{2/3} + (v_h p_h)^{2/3} + sum_{1<i<h} v_i^{2/3}/N^{2/3})^3.

    For h = 1 clients 1 and h coincide, so only the first term contributes.
    """
    n = v_sorted.size
    first = (v_sorted[0] * p1) ** _TWO_THIRDS
    if h == 1:
        return float(first ** 3)
    mid = np.sum(v_sorted[1:h - 1] ** _TWO_THIRDS) / n ** _TWO_THIRDS
    last = (v_sorted[h - 1] * ph) ** _TWO_THIRDS
    return float((first + mid + last) ** 3)


def _check_pair(h, p_h, n):
    if not 1 <= h <= n:
        raise ValueError(f"threshold h={h} outside [1, {n}]")
    if not -1e-12 <= p_h <= 1.0 / n + 1e-12:
        raise ValueError(f"p_h={p_h} outside [0, 1/N]")
    p1 = (2.0 + n - h) / n - p_h
    if not 1.0 / n - 1e-12 <= p1 <= 1.0 + 1e-12:
        raise ValueError(f"implied p_1={p1} outside [1/N, 1]")
    return p1


def _deviation(p1, ph, n, form):
    if form == "paper_literal":
        return 2.0 * (p1 - ph)
    return 2.0 * (p1 - 1.0 / n)


def reduced_objective(h, p_h, total_budget, v_sorted, cfg: ServerConfig) -> float:
    """Objective after substituting the optimal budget split, at a given B."""
    v_sorted = np.asarray(v_sorted, dtype=float)
    n = v_sorted.size
    p1 = _check_pair(h, p_h, n)
    if total_budget <= 0:
        raise ValueError("total budget must be > 0")
    dev = _deviation(p1, p_h, n, cfg.objective_form)
    c = _noise_coefficient(h, p1, p_h, v_sorted)
    noise = cfg.q_coefficient * c / total_budget ** 2
    return cfg.eta * math.sqrt(dev * dev + noise) + cfg.eta * dev + total_budget


def solve_inner_budget(h, p_h, v_sorted, cfg: ServerConfig) -> float:
    """Minimize the reduced objective over B > 0 for a fixed (h, p_h) pair.

    Derivative-sign bisection on [1e-8, B_hi], B_hi doubling from 1 until the
    derivative turns positive, to 1e-10 relative width. eta = 0 collapses the
    objective to B itself and returns the degenerate B = 0.
    """
    v_sorted = np.asarray(v_sorted, dtype=float)
    n = v_sorted.size
    p1 = _check_pair(h, p_h, n)
    if cfg.eta == 0:
        return 0.0
    dev = _deviation(p1, p_h, n, cfg.objective_form)
    a = cfg.q_coefficient * _noise_coefficient(h, p1, p_h, v_sorted)

    def slope(b):
        return 1.0 - cfg.eta * a / (b ** 3 * math.sqrt(dev * dev + a / b ** 2))

    lo, hi = 1e-8, 1.0
    for _ in range(200):
        if slope(hi) > 0:
            break
        hi *= 2.0
    else:
        raise ArithmeticError("no positive-slope bracket for the budget search")
    if slope(lo) > 0:
        return lo
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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


@dataclass
class BatchSolution:
    """jsam solutions for a batch of cost profiles, original client order."""

    probabilities: np.ndarray   # (B, N)
    privacy_budgets: np.ndarray  # (B, N)
    total_budget: np.ndarray    # (B,)
    threshold: np.ndarray       # (B,)
    objective_value: np.ndarray  # (B,)
    order: np.ndarray           # (B, N) ascending-cost permutation, 0-based
    degenerate: bool = False


def _candidate_grid(n, cfg: ServerConfig):
    """(h, p1, ph) triples in h-ascending, m-ascending order.

    h = 1 admits only p_1 = 1 (stored with the p_h = 1/n placeholder, which
    also makes both deviation forms agree there). For h >= 2 the grid walks
    p_1 = i/n + m*delta, p_h = 1/n - m*delta with i = n + 1 - h, for every m
    with p_h > 0: a p_h = 0 candidate repeats the distribution of (h - 1,
    m = 0), or of h = 1 when h = 2, so keeping it would let rounding decide
    which threshold a plan reports. The m range counts the steps strictly
    below 1/n, with 1/(n*delta) read as an integer when it is one up to
    rounding.
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

    Work proceeds in row chunks sized so no intermediate exceeds
    `max_elements` floats (2 MB), which keeps each chunk's arrays near the
    cache instead of streaming them through memory.
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
        return BatchSolution(
            np.concatenate([s.probabilities for s in parts]),
            np.concatenate([s.privacy_budgets for s in parts]),
            np.concatenate([s.total_budget for s in parts]),
            np.concatenate([s.threshold for s in parts]),
            np.concatenate([s.objective_value for s in parts]),
            np.concatenate([s.order for s in parts]),
            degenerate=parts[0].degenerate,
        )
    return _solve_block(v, cfg, grid)


def _solve_block(v, cfg: ServerConfig, grid) -> BatchSolution:
    batch, n = v.shape
    order = np.argsort(v, axis=1, kind="stable")
    vs = np.take_along_axis(v, order, axis=1)

    h, p1, ph = grid
    share = 1.0 / n
    if cfg.objective_form == "paper_literal":
        dev = 2.0 * (p1 - ph)
    else:
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
        bsq = np.zeros((batch, h.size))
        f = np.zeros((batch, h.size))
    else:
        a = cfg.q_coefficient * coef
        bsq = _budget_root_sq(dev[None, :] ** 2, a, cfg.eta)
        f = cfg.eta * np.sqrt(dev[None, :] ** 2 + a / bsq) + cfg.eta * dev[None, :] \
            + np.sqrt(bsq)
        best = np.argmin(f, axis=1)

    rows = np.arange(batch)
    h_star = h[best]
    p1_star = p1[best]
    ph_star = ph[best]
    b_star = np.sqrt(bsq[rows, best]) if cfg.eta != 0 else np.zeros(batch)

    idx = np.arange(n)[None, :]
    hcol = h_star[:, None]
    p_sorted = np.where(idx == 0, p1_star[:, None],
                        np.where(idx < hcol - 1, share,
                                 np.where(idx == hcol - 1, ph_star[:, None], 0.0)))

    w = np.where(p_sorted > 0, (vs * p_sorted) ** _TWO_THIRDS, 0.0)
    scale = w.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_sorted = p_sorted ** _TWO_THIRDS * b_star[:, None] / (scale * np.cbrt(vs))
    eps_sorted = np.where(p_sorted > 0, eps_sorted, 0.0)

    inverse = np.argsort(order, axis=1)
    p = np.take_along_axis(p_sorted, inverse, axis=1)
    eps = np.take_along_axis(eps_sorted, inverse, axis=1)
    return BatchSolution(p, eps, b_star, h_star, f[rows, best], order,
                         degenerate=cfg.eta == 0)


def jsam_solve(clients: list[ClientType], cfg: ServerConfig) -> MechanismOutcome:
    """Solve the joint selection/budget problem for explicit client types."""
    if not clients:
        raise ValueError("empty client list")
    v = np.array([cl.virtual for cl in clients], dtype=float)
    sol = solve_profiles(v[None, :], cfg)
    order = np.array(sort_by_virtual_cost(clients), dtype=int)
    return MechanismOutcome(
        probabilities=sol.probabilities[0],
        privacy_budgets=sol.privacy_budgets[0],
        total_budget=float(sol.total_budget[0]),
        threshold=int(sol.threshold[0]),
        objective_value=float(sol.objective_value[0]),
        order=order,
        degenerate=sol.degenerate,
    )


def fixed_probability_solve(p, v, cfg: ServerConfig):
    """Inner-optimize B and eps for fixed selection distributions, batched.

    Used by fixed-probability baselines. The deviation term is the exact L1
    distance to uniform regardless of objective_form, since arbitrary p need
    not follow the threshold structure. p and v are (B, N); returns
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
    a = cfg.q_coefficient * c
    bsq = _budget_root_sq(dev * dev, a, cfg.eta)
    b = np.sqrt(bsq)
    f = cfg.eta * np.sqrt(dev * dev + a / bsq) + cfg.eta * dev + b
    w = np.where(p > 0, (v * p) ** _TWO_THIRDS, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = p ** _TWO_THIRDS * b[:, None] / (w.sum(axis=1, keepdims=True) * np.cbrt(v))
    return np.where(p > 0, eps, 0.0), b, f


def plan_objective(p, v, cfg: ServerConfig):
    """Single-profile convenience wrapper around fixed_probability_solve."""
    eps, b, f = fixed_probability_solve(np.asarray(p)[None, :],
                                        np.asarray(v)[None, :], cfg)
    return eps[0], float(b[0]), float(f[0])
