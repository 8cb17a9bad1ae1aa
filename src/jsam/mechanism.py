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

The scan runs on ascending profiles, ranked by the key (virtual cost,
index). `solve_profiles` stably sorts each profile; `client_budgets`, which
prices payment curves (one report per row, rivals fixed), sorts the truthful
profile once and inserts each report at its rank by that key, with the same
budgets bit for bit. Both loop over row chunks, and the scan, the budget root
and the objective compute in place (`out=`) in one set of work arrays
(`_Work`) that the call allocates once, for its longest chunk.
`fixed_client_budgets` prices a fixed-p baseline's curves the same way: a
report moves only its own column of the truthful profile, so only that
column's budget is formed, bit for bit `fixed_probability_solve`'s.

`dev` is the L1 distance between p and the uniform distribution, which under
the threshold structure equals 2*(p_1 - 1/N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_TWO_THIRDS = 2.0 / 3.0
_TWO_OVER_ROOT3 = 2.0 / math.sqrt(3.0)
_HALF_THREE_ROOT3 = 1.5 * math.sqrt(3.0)
# most (row, threshold) pairs solved at once: `solve_profiles` and
# `client_budgets` chunk their rows by it, and every chunk of a call reuses
# the work arrays that call allocates for its longest chunk
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
        for name in ("eta", "q_coefficient"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
    return _split(p, total_budget, v, _scale(p, v))


def _scale(p, v):
    """sum_i (v_i p_i)^(2/3) over the client axis (kept); excluded clients add 0."""
    return np.where(p > 0, (v * p) ** _TWO_THIRDS, 0.0).sum(axis=-1, keepdims=True)


def _split(p, total_budget, v, scale):
    """`optimal_epsilon`'s eps, unchecked, for a given `_scale`. Elementwise,
    so a column split against its full row's scale is that row's entry."""
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = p ** _TWO_THIRDS * total_budget / (scale * np.cbrt(v))
    return np.where(p > 0, eps, 0.0)


class _Work(NamedTuple):
    """Work arrays of one shape for the threshold scan and the budget root:
    six float ones and one bool. `_budget_root_sq` uses float slots 1-5 and
    the mask, `_budget_and_objective` the same, and `_scan` all of them, so
    a caller's `a` may sit in slot 0."""

    floats: np.ndarray  # (6, *shape)
    mask: np.ndarray    # shape, bool

    @classmethod
    def of(cls, shape):
        return cls(np.empty((6, *shape)), np.empty(shape, dtype=bool))

    def head(self, rows):
        """The arrays' first `rows` rows: a shorter chunk's work arrays."""
        return _Work(self.floats[:, :rows], self.mask[:rows])


def _budget_root_sq(dev2, a, eta, work: _Work):
    """Vectorized B*^2: the positive root of dev2*x^3 + a*x^2 - eta^2*a^2.

    Substituting x = eta*sqrt(a)/u turns the cubic into u^3 - u - k = 0 with
    k = dev2*eta/sqrt(a) >= 0, whose single real root u >= 1 has the closed
    form u = (2/sqrt(3))*cos(arccos(t)/3) for t <= 1 and
    u = (2/sqrt(3))*cosh(arccosh(t)/3) for t > 1, t = (3*sqrt(3)/2)*k. One
    Newton step on u, whose derivative 3u^2 - 1 is at least 2, removes the
    rounding of the trigonometric form. Requires a > 0 and eta > 0.

    Computed in the caller's `work`; the root is returned in its float slot 1.
    """
    _, root_a, k, u, u2, step = work.floats
    np.sqrt(a, out=root_a)
    np.divide(dev2 * eta, root_a, out=k)
    t = np.multiply(k, _HALF_THREE_ROOT3, out=u)
    # u over t in place, each branch only where its inverse function is
    # defined
    trig = np.less_equal(t, 1.0, out=work.mask)
    np.arccos(t, out=u, where=trig)
    np.divide(u, 3.0, out=u, where=trig)
    np.cos(u, out=u, where=trig)
    hyper = np.logical_not(trig, out=work.mask)
    np.arccosh(t, out=u, where=hyper)
    np.divide(u, 3.0, out=u, where=hyper)
    np.cosh(u, out=u, where=hyper)
    u *= _TWO_OVER_ROOT3
    # the Newton step u -= (u^3 - u - k) / (3u^2 - 1), then eta*sqrt(a)/u
    np.multiply(u, u, out=u2)
    np.multiply(u2, u, out=step)
    step -= u
    step -= k
    u2 *= 3.0
    u2 -= 1.0
    step /= u2
    u -= step
    root_a *= eta
    root_a /= u
    return root_a


def _budget_and_objective(dev, a, eta, work: _Work):
    """B* and the objective eta*sqrt(dev^2 + a/B*^2) + eta*dev + B* at it,
    computed in the caller's `work` and returned in its float slots 2 and 4."""
    if not np.greater(a, 0.0, out=work.mask).all():
        raise ValueError("noise coefficient Q*c is not positive: the virtual "
                         "costs are too small (or not numbers) to plan with")
    dev2 = dev * dev
    bsq = _budget_root_sq(dev2, a, eta, work)
    _, _, b, _, f, _ = work.floats
    np.sqrt(bsq, out=b)
    # f = eta*sqrt(dev2 + a/bsq) + eta*dev + b
    np.divide(a, bsq, out=f)
    f += dev2
    np.sqrt(f, out=f)
    f *= eta
    f += eta * dev
    f += b
    if not np.isfinite(f, out=work.mask).all():
        raise ValueError("objective is not finite: eta, q_coefficient or the "
                         "virtual costs overflow")
    return b, f


class BatchSolution(NamedTuple):
    """Plans for a batch of cost profiles, original client order.

    `threshold` is the position h, in ascending virtual-cost order, of the
    last client with positive selection probability (None for plans with
    fixed selection probabilities, which have no threshold). A NamedTuple,
    not a dataclass, because some readers index it by position: index 1 is
    the (B, N) budgets either kernel returns.
    """

    probabilities: np.ndarray   # (B, N)
    privacy_budgets: np.ndarray  # (B, N)
    total_budget: np.ndarray    # (B,)
    threshold: np.ndarray | None  # (B,)
    objective_value: np.ndarray  # (B,)


def solve_profiles(virtual_costs, cfg: ServerConfig) -> BatchSolution:
    """Run the threshold solver on a (B, N) batch of positive virtual costs.

    Clients are ranked by the key (virtual cost, index), a stable argsort.
    Each plan is the first minimiser, in h order, of the objective over the
    N thresholds h = 1..N with p_h = 1/N: p_1 = 1 at h = 1 and (N + 1 - h)/N
    after, and B* in closed form at each. The loop solves the rows in chunks
    of at most `_MAX_ELEMENTS` (row, threshold) pairs, every chunk in the
    call's one set of work arrays, and scatters each back to client order.
    At eta = 0 every plan is the degenerate one: the cheapest client alone,
    with B = 0 and no privacy budgets.

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
    sol = BatchSolution(np.empty((batch, n)), np.empty((batch, n)), np.empty(batch),
                        np.empty(batch, dtype=int), np.empty(batch))
    idx = np.arange(n)
    work, chunks = _row_chunks(batch, n)
    for rows in chunks:
        w = work.head(rows.stop - rows.start)
        order = np.argsort(v[rows], axis=1, kind="stable")
        vs = np.take_along_axis(v[rows], order, axis=1)
        np.power(vs, _TWO_THIRDS, out=w.floats[1])
        best, b_star, f_star = _scan(cfg, w)
        sol.total_budget[rows], sol.objective_value[rows] = b_star, f_star
        sol.threshold[rows] = best + 1
        p_sorted = np.where(idx == 0, _first_shares(n)[best][:, None],
                            np.where(idx <= best[:, None], 1.0 / n, 0.0))
        eps_sorted = _split(p_sorted, b_star[:, None], vs, _scale(p_sorted, vs))
        np.put_along_axis(sol.probabilities[rows], order, p_sorted, axis=1)
        np.put_along_axis(sol.privacy_budgets[rows], order, eps_sorted, axis=1)
    return sol


def client_budgets(virtuals, ks, z_virtuals, cfg: ServerConfig) -> np.ndarray:
    """Client ks[i]'s privacy budget when its virtual cost is z_virtuals[i]
    and every rival keeps its entry of the (N,) `virtuals` (a scalar k
    broadcasts): `solve_profiles` on those profiles, read at column ks[i],
    bit for bit, without sorting each profile or forming the other budgets.

    The truthful profile is sorted once. Each row's ascending profile is the
    rivals' with the report inserted at its rank among them: the count of
    rivals whose key (virtual cost, index) is below the report's
    (z_virtuals[i], ks[i]), which is `solve_profiles`' order. The rows run
    its scan in the same chunks and work arrays, on 2/3 powers taken once
    per call from the sorted profile and the reports through each row's map
    of places; the budget split's scale is taken over the full row and only
    the budget at the report's rank is formed.

    `virtuals` must be 1-D and each ks[i] an integer in [0, N).
    """
    v, ks, z = _report_rows(virtuals, ks, z_virtuals)
    n = v.size
    if not (np.all(v > 0) and np.all(z > 0)):
        raise ValueError("virtual costs must be positive")
    order = np.argsort(v, kind="stable")
    vs = v[order]
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    # rivals below the report by the (cost, index) key, which is numpy's
    # complex order and the stable sort's; the client's own key is no rival
    rank = np.searchsorted(vs + 1j * order, z + 1j * ks) - (v[ks] < z)
    # the 2/3 powers the scan and the budget split read, at p = 1 and at
    # p = 1/N: the rivals' from the sorted profile, the reports' per row
    share = 1.0 / n
    vs23, vs_share23 = np.stack([vs, vs * share]) ** _TWO_THIRDS
    z23, z_share23 = np.stack([z, z * share]) ** _TWO_THIRDS
    p1 = _first_shares(n)
    budgets = np.empty(z.size)
    work, chunks = _row_chunks(z.size, n)
    sources = np.empty((chunks[0].stop, n), dtype=np.intp)
    idx = np.arange(n)
    for rows in chunks:
        w = work.head(rows.stop - rows.start)
        r = rank[rows]
        at_rank = (np.arange(r.size), r)
        # each place's index in the sorted profile: the rival there, and
        # (clipped) any index at the report's rank
        source = sources[:r.size]
        np.subtract(idx, np.greater(idx, r[:, None], out=w.mask), out=source)
        source += np.greater_equal(source, position[ks[rows], None], out=w.mask)
        v23 = vs23.take(source, mode="clip", out=w.floats[1])
        v23[at_rank] = z23[rows]
        best, b_star, _ = _scan(cfg, w)
        # the split's scale: (v p)^(2/3) summed over the selected places, the
        # first at p_1 and the others at 1/N
        terms = vs_share23.take(source, mode="clip", out=w.floats[0])
        terms[at_rank] = z_share23[rows]
        np.copyto(terms, 0.0, where=np.greater(idx, best[:, None], out=w.mask))
        first = np.where(r == 0, z[rows], vs.take(source[:, 0], mode="clip"))
        terms[:, 0] = (first * p1[best]) ** _TWO_THIRDS
        p_rank = np.where(r == 0, p1[best], np.where(r <= best, share, 0.0))
        budgets[rows] = _split(p_rank, b_star, z[rows], terms.sum(axis=1))
    return budgets


def _report_rows(virtuals, ks, z_virtuals):
    """The column kernels' checked arguments: the (N,) profile, the clients
    ks (an integer in [0, N) each) broadcast to the reports, and the
    reports."""
    v = np.asarray(virtuals, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"virtuals must be one (N,) profile, got shape {v.shape}")
    z = np.atleast_1d(np.asarray(z_virtuals, dtype=float))
    n = v.size
    if n == 0:
        raise ValueError("empty client profile")
    ks = np.asarray(ks)
    if not (np.issubdtype(ks.dtype, np.integer) and np.all((ks >= 0) & (ks < n))):
        raise ValueError(f"client indices ks must be integers in [0, {n})")
    return v, np.broadcast_to(ks, z.shape), z


def _row_chunks(batch, n):
    """Work arrays for the longest chunk and slices of at most
    `_MAX_ELEMENTS` // n rows covering `batch` rows (one slice when `batch`
    is 0, so that an empty batch keeps its shape)."""
    step = max(1, _MAX_ELEMENTS // n)
    chunks = [slice(i, min(i + step, batch)) for i in range(0, max(batch, 1), step)]
    return _Work.of((chunks[0].stop, n)), chunks


def _first_shares(n):
    """p_1 at each threshold h = 1..N with p_h = 1/N: 1 at h = 1, then
    (N + 1 - h)/N."""
    return np.concatenate([[1.0], (n - np.arange(1, n)) * (1.0 / n)])


def _scan(cfg: ServerConfig, work: _Work):
    """The threshold scan over ascending (rows, N) profiles whose 2/3 powers
    are in `work`'s float slot 1: each row's best threshold's index h - 1,
    its B* and its objective. Overwrites every work array."""
    v23 = work.floats[1]
    batch, n = v23.shape
    if cfg.eta == 0:  # ties at f = B = 0; h = 1 wins
        return np.zeros(batch, dtype=int), np.zeros(batch), np.zeros(batch)
    # c^(1/3) at each (row, h): the cheapest client at p_1, client h at 1/N
    # (none for h = 1) and clients 2..h-1 at 1/N. (1/N)^(2/3) is an array
    # power, like p_1's: numpy's vectorized pow can differ from the scalar
    # one in the last bit.
    share = 1.0 / n
    p1 = _first_shares(n)
    p23 = np.append(p1, share) ** _TWO_THIRDS
    inner, _, prefix, mid = work.floats[:4]
    np.cumsum(v23, axis=1, out=prefix)
    # clients 2..h-1: prefix[h - 2] - prefix[0], which is 0 for h <= 2
    mid[:, 1:] = prefix[:, :-1]
    mid[:, :1] = prefix[:, :1]
    mid -= prefix[:, :1]
    mid /= n ** _TWO_THIRDS
    np.multiply(v23[:, :1], p23[:n], out=inner)
    hterm = np.multiply(v23, p23[n], out=prefix)
    hterm[:, 0] = 0.0
    inner += hterm
    inner += mid
    a = np.power(inner, 3, out=inner)
    a *= cfg.q_coefficient
    b, f = _budget_and_objective(2.0 * (p1 - share), a, cfg.eta, work)
    best = np.argmin(f, axis=1)
    rows = np.arange(batch)
    return best, b[rows, best], f[rows, best]


def fixed_probability_solve(p, v, cfg: ServerConfig) -> BatchSolution:
    """Inner-optimize B and eps for fixed selection distributions, batched.

    Used by fixed-probability baselines. The deviation term is the L1
    distance to uniform summed over all clients, since arbitrary p need not
    follow the threshold structure. v is (B, N), p is (B, N) or one shared
    row; plans keep p (broadcast), threshold None, and zero budgets at eta 0.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("p must lie on the simplex")  # NaN and inf fail too
    if np.any((p > 0) & (v <= 0)):
        raise ValueError("selected client with non-positive virtual cost")
    batch, n = np.broadcast_shapes(p.shape, v.shape)
    p_rows = np.broadcast_to(p, (batch, n))
    if cfg.eta == 0:
        return BatchSolution(p_rows, np.zeros((batch, n)), np.zeros(batch), None,
                             np.zeros(batch))
    dev = np.abs(p - 1.0 / n).sum(axis=1)
    scale = _scale(p, v)
    b, f = _budget_and_objective(dev, cfg.q_coefficient * scale[:, 0] ** 3, cfg.eta,
                                 _Work.of((batch,)))
    return BatchSolution(p_rows, _split(p, b[:, None], v, scale), b, None, f)


def fixed_client_budgets(p, virtuals, ks, z_virtuals, cfg: ServerConfig) -> np.ndarray:
    """Client ks[i]'s privacy budget under the one fixed (N,) distribution p
    when its virtual cost is z_virtuals[i] and every rival keeps its entry of
    the (N,) `virtuals` (a scalar k broadcasts): `fixed_probability_solve`
    on those profiles, read at column ks[i], bit for bit.

    A report moves only its own column, so each row's scale is the truthful
    (v p)^(2/3) row with column ks[i]'s term replaced, summed as `_scale`
    sums; dev is one scalar, B* one (rows,) budget root, and only column
    ks[i]'s budget is split.

    `virtuals` must be 1-D, each ks[i] an integer in [0, N) and p a point of
    the simplex.
    """
    v, ks, z = _report_rows(virtuals, ks, z_virtuals)
    p = np.asarray(p, dtype=float)
    if not (p.shape == v.shape and np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
        raise ValueError("p must lie on the simplex")  # NaN and inf fail too
    pk = p[ks]
    if np.any((p > 0) & (v <= 0)) or np.any((pk > 0) & (z <= 0)):
        raise ValueError("selected client with non-positive virtual cost")
    if cfg.eta == 0:
        return np.zeros(z.size)
    terms = np.tile(np.where(p > 0, (v * p) ** _TWO_THIRDS, 0.0), (z.size, 1))
    terms[np.arange(z.size), ks] = np.where(pk > 0, (z * pk) ** _TWO_THIRDS, 0.0)
    scale = terms.sum(axis=1)
    dev = np.abs(p - 1.0 / v.size).sum()
    b, _ = _budget_and_objective(dev, cfg.q_coefficient * scale ** 3, cfg.eta,
                                 _Work.of(z.shape))
    return _split(pk, b, z, scale)
