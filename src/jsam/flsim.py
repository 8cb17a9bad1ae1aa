"""Desk-scale DP federated learning under a pre-drawn selection plan.

The model is multinomial logistic regression on Gaussian-blob synthetic data;
it trains in seconds while still exposing the selection/noise trade-offs the
mechanism is about. The protocol per round: draw nothing (the schedule is
fixed up front), each scheduled client computes per-example gradients of its
local loss, clips them individually to norm C, averages, adds
N(0, sigma_k^2 C^2 I) noise, and the server averages the noisy gradients and
takes a step. sigma_k is calibrated from the client's realized participation
count, which is known in advance precisely because the schedule is pre-drawn.
`train` takes the clients' budgets, not a plan, and returns only what it
measures: each round's train loss, test loss and test accuracy. Labelling
and writing the runs is the caller's.

A `TaskSpec` declares the task once: `make_task` draws the pool of N
clients' m examples it describes, and `partition_noniid` deals it into one
(N, m) array of pool indices, a row per client. A round is a few array
operations. The augmented shards, their one-hot labels and one evaluation
matrix (the pool, then the test set) are gathered once. One score product
serves every pass: classes-first (C, n) scores, so each sum over the C
classes is a short run of elementwise passes. The scheduled clients' softmax
errors and clip norms are taken on their (k, C, m) scores, and their clipped
gradients are one batched contraction. The rounds run in chunks of a few: a
chunk gathers its rounds' inputs in one pass and draws all their noise in
one call, so a round is one gradient call with its noise rows, and the step.
The metrics never feed back into training, so the train loss, test loss and
test accuracy are taken beside it: each chunk's weights go to a worker
thread, which scores the chunk over the evaluation matrix in one stacked
product and reduces it in one pass, while the next chunk's gradients run.
The two threads share the interpreter lock, and a numpy call on a large
array hands it over, so each side makes as few calls per round, and per
chunk, as it can. The noiseless diagnostic is the same round with an
infinite clip norm and zero noise. bbm's probe losses are one score pass
over the shards' examples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .costs import CostDistribution
from .mechanism import (ServerConfig, client_budgets, fixed_client_budgets,
                        fixed_probability_solve, solve_profiles)
from .payments import expost_payments

MECHANISM_KINDS = ("jsam", "usbm", "fsbm", "bbm", "jsam_ci")
_ETA_LO, _ETA_HI, _ETA_BISECTIONS = 1e-8, 1.0, 60  # match_eta_to_cost's search
# elements in one chunk of `train`'s rounds: its scores in the metric pass
# (rounds x classes x evaluation examples), 2 MB, few enough hand-offs that
# the worker keeps up; and each of its gathered inputs and its noise
_EVAL_ELEMENTS = 2 ** 18


# ---------------------------------------------------------------------------
# synthetic task and model


@dataclass
class TaskSpec:
    feature_dim: int = 16
    classes: int = 5
    samples_per_client: int = 60
    test_size: int = 400

    @property
    def weight_dim(self) -> int:
        return self.classes * (self.feature_dim + 1)


@dataclass
class SyntheticTask:
    spec: TaskSpec
    pool_x: np.ndarray
    pool_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def make_task(spec: TaskSpec, clients, rng: np.random.Generator) -> SyntheticTask:
    """Gaussian blobs with balanced labels: a pool of `clients` x
    `spec.samples_per_client` examples, then a test set of `spec.test_size`."""
    if spec.classes < 2:
        raise ValueError("need at least two classes")
    if clients * spec.samples_per_client < spec.classes:
        raise ValueError("pool must contain every class")
    centers = rng.normal(0.0, 2.5, size=(spec.classes, spec.feature_dim))

    def blob(size):
        y = rng.permutation(np.arange(size) % spec.classes)
        x = centers[y] + rng.normal(0.0, 1.0, size=(size, spec.feature_dim))
        return x, y

    pool_x, pool_y = blob(clients * spec.samples_per_client)
    test_x, test_y = blob(spec.test_size)
    return SyntheticTask(spec, pool_x, pool_y, test_x, test_y)


def _class_scores(w, x, classes, out=None):
    """Classes-first scores (..., C, n) of flat weights (..., W) on inputs
    (..., n, D), so the reductions run over the short classes axis; written
    into `out` when it is given. numpy multiplies a stack one matrix at a
    time, so each (C, n) block has the bits of its own product."""
    mat = w.reshape(w.shape[:-1] + (classes, -1))
    scores = np.matmul(mat[..., :-1], np.swapaxes(x, -1, -2), out=out)
    scores += mat[..., -1:]
    return scores


def _log_sum_exp(shifted, axis, out=None):
    """log(sum(exp(shifted))) over the classes `axis` of max-shifted scores;
    the exp terms are taken in `out` (which may be `shifted`) when it is given.

    Each sum holds exp(0) = 1 for its largest class, which absorbs any term
    below exp(-700) ~ 1e-304 exactly, so clamping the shifted scores at -700
    leaves the sum bit-for-bit unchanged. It keeps numpy's exp off its slow
    path for arguments below about -708 (over 10x slower per element, about
    175x where the result is subnormal), which up to a fifth of the pool's
    scores reach once noise has grown w.
    """
    terms = np.maximum(shifted, -700.0, out=out)
    return np.log(np.exp(terms, out=terms).sum(axis=axis))


def _label_picks(y):
    """Each column's label y as an index into classes-first (..., C, n)
    scores flattened to (..., C * n): one gather on the flat rows takes about
    half the time of scores[y, arange]."""
    return y * y.size + np.arange(y.size)


def _log_likelihoods(scores, picks):
    """Each column's log-probability of its label, from contiguous
    classes-first (..., C, n) scores and the labels' `_label_picks`: (..., n).
    The scores are the work space, overwritten."""
    scores -= scores.max(axis=-2, keepdims=True)
    picked = np.take(scores.reshape(scores.shape[:-2] + (-1,)), picks, axis=-1)
    return picked - _log_sum_exp(scores, -2, out=scores)


def _pool_and_test_metrics(weights, x, picks, test_y, classes, scores):
    """Rows (train loss, test loss, test accuracy) of an (r, W) chunk of
    weights over `x`, the pool's examples and then the test set's, whose
    labels are `picks` (`_label_picks`) and, for the last `test_y.size`,
    `test_y`: mean cross-entropy on the pool, and mean cross-entropy and
    accuracy on the test set, one column per round.

    The chunk's scores are one stacked product into the first r rows of the
    (>= r, C, n) work buffer `scores`; each round's block is its own product,
    so a round's bits do not depend on the chunk it falls in, and every later
    step is one pass over the chunk. This runs on `train`'s worker thread,
    which does not inherit the caller's error state, so the state is set
    here.
    """
    n_pool = picks.size - test_y.size
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _class_scores(weights, x, classes, out=scores[:weights.shape[0]])
        accuracy = (scores[:, :, n_pool:].argmax(axis=-2) == test_y).mean(axis=-1)
        log_p = _log_likelihoods(scores, picks)
        return np.stack([-log_p[:, :n_pool].mean(axis=-1),
                         -log_p[:, n_pool:].mean(axis=-1), accuracy])


def noise_sigma(t_k, eps_k, delta, c2=1.0) -> float:
    """Per-release noise scale keeping t_k participations (eps_k, delta)-private."""
    if t_k < 1:
        raise ValueError("participation count must be >= 1")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if eps_k <= 0:
        raise ValueError("selected client with zero privacy budget")
    return c2 * math.sqrt(t_k * math.log(1.0 / delta)) / eps_k


def _augment(x, y, classes):
    """(k, m, D) inputs of k clients and their (k, m) labels -> the inputs with
    a trailing bias column, the norm of each augmented row, and the (k, C, m)
    classes-first one-hot labels."""
    xt = np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)
    onehot = np.arange(classes)[:, None] == y[:, None, :]
    return xt, np.linalg.norm(xt, axis=-1), onehot


def local_noisy_gradient(w, augmented, clip_c, noise) -> np.ndarray:
    """Per-example-clipped mean local gradients of k clients, plus their noise.

    `augmented` is `_augment(x, y, C)` for the (k, m, D) inputs x and (k, m)
    labels y of k clients of m examples each, and `noise` holds the clients'
    (k, W) noise rows, added as given; the result is (k, W). C and m are read
    from the (k, C, m) one-hot labels.

    Each example's gradient is the outer product of (softmax - onehot) with
    the augmented input, whose norm factorizes, so clipping never materializes
    per-example matrices, and all k means are one batched contraction. The
    scores are the classes-first (k, C, m) product on the augmented inputs
    without their bias column, so the softmax, its errors and their norms
    reduce over the C classes as elementwise passes over (k, m) rows, one
    class after another. Below 8 classes that is the order of numpy's
    last-axis sum, so the bits are those of per-example softmax rows; from 8
    on numpy sums a last axis pairwise, a few ulps apart. The errors go back
    to example-major for the contraction. An infinite `clip_c` scales every
    error by exactly 1. A row of -0.0 adds nothing, signed zeros included.
    """
    xt, x_norms, onehot = augmented
    k, classes, m = onehot.shape
    if m == 0:
        raise ValueError("empty shard")
    if np.shape(noise) != (k, w.size):
        raise ValueError(f"noise must hold one row per client, shape {(k, w.size)}, "
                         f"got {np.shape(noise)}")
    shifted = _class_scores(w, xt[..., :-1], classes)
    shifted -= shifted.max(axis=1, keepdims=True)
    shifted -= _log_sum_exp(shifted, 1)[:, None]
    # the probabilities' exp is not clamped: its tiny outputs reach the weights
    errors = np.exp(shifted)
    errors -= onehot
    norms = np.sqrt((errors * errors).sum(axis=1)) * x_norms
    # no zero divisor: a norm that is 0 (or NaN) divides as 1
    scale = np.minimum(1.0, clip_c / np.where(norms > 0, norms, 1.0))
    errors *= scale[:, None]
    # back to (k, m, C) in memory: the contraction's operands, and so its
    # rounding, stay those of the example-major round
    example_major = np.swapaxes(errors, 1, 2).copy()
    grads = (np.swapaxes(example_major, 1, 2) @ xt / m).reshape(k, -1)
    grads += noise
    return grads


# ---------------------------------------------------------------------------
# partition and schedule


def partition_noniid(task: SyntheticTask, similarity,
                     rng: np.random.Generator) -> np.ndarray:
    """The clients' pool indices from a two-stage split, one (N, m) row per
    client, m = `task.spec.samples_per_client` and N = pool size / m: row j
    is client j's ceil(s% of m) uniform draws, then its block of the
    label-sorted rest.

    Stage 2 deals contiguous blocks of the label-sorted remainder, so each
    block spans at most two classes: its labels change at most once. That
    cap is validated; a pool too imbalanced for it is a hard error.
    """
    if not 0 <= similarity <= 100:
        raise ValueError("similarity must lie in [0, 100]")
    m, pool = task.spec.samples_per_client, task.pool_y.size
    if pool % m:
        raise ValueError(f"pool of {pool} examples is not a whole number of "
                         f"shards of {m}")
    n, n1 = pool // m, math.ceil(similarity * m / 100.0)
    perm = rng.permutation(pool)
    rest = perm[n * n1:]
    rest = rest[np.argsort(task.pool_y[rest], kind="stable")].reshape(n, m - n1)
    if np.any(np.count_nonzero(np.diff(task.pool_y[rest], axis=1), axis=1) > 1):
        raise ValueError("label-sorted block spans more than two classes; "
                         "grow the pool or rebalance labels")
    return np.concatenate([perm[:n * n1].reshape(n, n1), rest], axis=1)


def build_schedule(p, rounds, per_round, rng: np.random.Generator) -> np.ndarray:
    """Pre-draw all per-round client multisets i.i.d. from p, with replacement:
    the (rounds, per_round) 0-based client indices."""
    p = np.asarray(p, dtype=float)
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):  # NaN and inf fail too
        raise ValueError("p must lie on the simplex")
    return rng.choice(p.size, size=(rounds, per_round), replace=True,
                      p=p / p.sum())


# ---------------------------------------------------------------------------
# selection plans


@dataclass
class SelectionPlan:
    """Everything the trainer and the accountant need about one mechanism."""

    kind: str
    eta: float
    probabilities: np.ndarray
    epsilons: np.ndarray
    total_budget: float
    payments: np.ndarray
    objective: float | None = None
    threshold: int | None = None

    @property
    def degenerate(self) -> bool:  # eta = 0: no budget spent, nothing paid
        return bool(self.eta == 0)

    @property
    def total_payment(self) -> float:
        return float(self.payments.sum())

    @property
    def selected_count(self) -> int:
        return int(np.count_nonzero(self.probabilities > 0))


def parse_mechanism(name: str):
    """Split a mechanism string into (kind, subset size or None)."""
    if name.startswith("fsbm-"):
        try:
            m = int(name.split("-", 1)[1])
        except ValueError:
            raise ValueError(f"bad subset size in mechanism '{name}'") from None
        if m < 1:
            raise ValueError("fsbm subset size must be >= 1")
        return "fsbm", m
    if name == "fsbm":
        raise ValueError("fsbm needs a subset size, e.g. fsbm-10")
    if name not in MECHANISM_KINDS:
        raise ValueError(f"unknown mechanism '{name}'")
    return name, None


def initial_local_losses(task: SyntheticTask, shards, w) -> np.ndarray:
    """Each client's mean cross-entropy at the (W,) weights w, bbm's probe:
    one classes-first score pass over the (N, m) `shards`, meaned per
    client. Malformed shards or weights are rejected first."""
    x, y = _shard_examples(task, shards, w, "w")
    log_p = _log_likelihoods(
        _class_scores(w, x.reshape(y.size, -1), task.spec.classes),
        _label_picks(y.ravel()))
    return -log_p.reshape(y.shape).mean(axis=1)


def _selection(kind, subset, costs, bbm_losses):
    """(p, cut) of a fixed-probability kind at the truthful reports `costs`:
    its p, and `cut`, fsbm-M's (M + 1)-th client in stable cost order, or
    None (every other kind, and fsbm-N)."""
    if kind == "fsbm":
        if subset > costs.size:
            raise ValueError("fsbm subset larger than the client count")
        order = np.argsort(costs, kind="stable")
        p = np.zeros_like(costs)
        p[order[:subset]] = 1.0 / subset
        return p, order[subset] if subset < costs.size else None
    if kind == "usbm":
        return np.full_like(costs, 1.0 / costs.size), None
    if bbm_losses is None:
        raise ValueError("bbm needs probe losses for the initial model")
    losses = np.asarray(bbm_losses, dtype=float)
    if losses.size != costs.size or not np.all((losses > 0) & np.isfinite(losses)):
        raise ValueError("bbm probe losses must be positive and finite, one per client")
    with np.errstate(over="ignore"):
        total = losses.sum()
    if total == math.inf:
        raise ValueError("bbm probe losses overflow when summed; scale them down")
    return losses / total, None


def make_plan(name, costs, dist: CostDistribution, cfg: ServerConfig,
              bbm_losses=None, payment_grid: int = 200) -> SelectionPlan:
    """Build the selection plan and its payments for any mechanism kind.

    jsam solves the truthful profile's virtual costs with `solve_profiles`,
    jsam_ci its reported costs; usbm, fsbm-M and bbm solve the one p of the
    truthful reports with `fixed_probability_solve`. The payment curves are
    one rule: eps_of_reports(ks, z) is client ks[i]'s budget at report z[i],
    rivals fixed (a scalar k broadcasts), then fsbm-M's cut. jsam's budgets
    are `client_budgets`, which sorts the rivals once and forms only that
    budget. A fixed kind's report moves only its own virtual cost under the
    truthful p, so its budgets are `fixed_client_budgets`, which forms only
    that column. `expost_payments` sweeps the curves upward in one pass and
    ends each at its first zero, because a client out at one report stays
    out above it. Payments are envelope payments against the realized rival
    reports (their expectation over rivals is the interim rule), except
    jsam_ci's: c_k * eps_k, no information rent and no curve. At eta 0 every
    budget is 0, so every payment is 0.
    """
    kind, subset = parse_mechanism(name)
    costs = np.asarray(costs, dtype=float)
    if np.any(costs <= dist.lower) and dist.virtual(dist.lower) <= 0:
        raise ValueError("cost at the support boundary has zero virtual cost")
    virtuals = dist.virtual(costs)
    if kind == "jsam_ci":
        sol = solve_profiles(costs[None, :], cfg)
    elif kind == "jsam":
        sol, budgets, cut = solve_profiles(virtuals[None, :], cfg), client_budgets, None
    else:
        p, cut = _selection(kind, subset, costs, bbm_losses)
        sol = fixed_probability_solve(p, virtuals[None, :], cfg)
        budgets = functools.partial(fixed_client_budgets, p)

    def eps_of_reports(ks, z):
        eps = budgets(virtuals, ks, dist.virtual(z), cfg)
        if cut is not None:
            # fsbm-M's cut: k leaves the M cheapest, for a 0 budget, once
            # (z, k) passes (c_cut, cut)
            eps[(z > costs[cut]) | ((z == costs[cut]) & (ks >= cut))] = 0.0
        return eps

    eps = sol.privacy_budgets[0]
    payments = costs * eps if kind == "jsam_ci" else expost_payments(
        costs, eps, dist.upper, eps_of_reports, grid_size=payment_grid)[0]
    return SelectionPlan(kind=name, eta=cfg.eta, probabilities=sol.probabilities[0],
                         epsilons=eps, total_budget=float(sol.total_budget[0]),
                         payments=payments, objective=float(sol.objective_value[0]),
                         threshold=None if sol.threshold is None else int(sol.threshold[0]))


def match_eta_to_cost(target_cost, plan_fn, rel_tol=1e-3):
    """Find eta so plan_fn(eta).total_payment hits target_cost (monotone).

    Returns the plan, whose `eta` (as `make_plan` stores it) is the matched
    one. Bisection on log eta; the bracket top grows 4x until the cost
    exceeds the target.
    """
    if target_cost <= 0:
        raise ValueError("target cost must be > 0")
    hi = _ETA_HI
    plan_hi = plan_fn(hi)
    for _ in range(200):
        if plan_hi.total_payment >= target_cost:
            break
        hi *= 4.0
        plan_hi = plan_fn(hi)
    else:
        raise ArithmeticError("could not bracket the target cost")
    llo, lhi = math.log(_ETA_LO), math.log(hi)
    best = plan_hi
    for _ in range(_ETA_BISECTIONS):
        mid = 0.5 * (llo + lhi)
        plan = plan_fn(math.exp(mid))
        if abs(plan.total_payment - target_cost) <= rel_tol * target_cost:
            return plan
        if plan.total_payment < target_cost:
            llo = mid
        else:
            lhi = mid
            best = plan
    return best


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainSettings:
    rounds: int = 1000
    per_round: int = 10
    clip: float = 6.0
    learning_rate: float = 0.3
    delta: float = 1e-5
    c2: float = 1.0
    similarity: int = 100
    noiseless: bool = False   # no clipping, no noise: train runs clip = inf, sigma = 0


@dataclass
class RunRecord:
    """What one `train` call measures: one value per round of each curve."""

    train_loss: np.ndarray
    test_loss: np.ndarray
    test_accuracy: np.ndarray

    @property
    def diverged(self) -> bool:  # the last round's train loss is not finite
        return bool(not np.isfinite(self.train_loss[-1]))


def _shard_examples(task: SyntheticTask, shards, w, name):
    """(N, m, D) inputs and (N, m) labels of the (N, m) pool indices `shards`,
    once they and the weights `w`, called `name` in a message, are checked."""
    pool, width = task.pool_y.size, task.spec.weight_dim
    if not (isinstance(shards, np.ndarray) and shards.ndim == 2 and shards.size and
            shards.dtype.kind in "iu" and shards.min() >= 0 and shards.max() < pool):
        got = (f"{shards.dtype} array of shape {shards.shape}"
               if isinstance(shards, np.ndarray) else type(shards).__name__)
        raise ValueError(f"shards must be an (N, m) integer array of pool indices "
                         f"in [0, {pool}), N and m >= 1, got {got}")
    if np.shape(w) != (width,):
        raise ValueError(f"{name} must hold the task's {width} weights, "
                         f"shape ({width},), got {np.shape(w)}")
    return task.pool_x[shards], task.pool_y[shards]


def train(task: SyntheticTask, shards, epsilons, schedule: np.ndarray,
          settings: TrainSettings, rng: np.random.Generator, w0=None) -> RunRecord:
    """Run the full pre-scheduled DP-FL protocol; return its per-round train
    loss, test loss and test accuracy.

    `shards` holds one row of pool indices per client, as `partition_noniid`
    deals them, `epsilons` one privacy budget per client, as a plan holds
    them, `schedule` one row of client indices per round, as `build_schedule`
    draws it, and `w0`, if given, the task's W initial weights; any of them
    malformed is rejected before any draw. Noise scales come from the
    participation counts of the schedule itself; a scheduled client with a
    zero budget is a configuration error. `settings.noiseless` trains with an
    infinite clip norm and no noise, which leaves `rng` untouched. A run
    whose loss goes non-finite is returned, not raised (`RunRecord.diverged`).

    The rounds run in chunks: as many as fit `_EVAL_ELEMENTS` score elements,
    and each of whose gathered inputs and noise fit as many elements. A
    chunk gathers its rounds' scheduled inputs (a client drawn twice in a
    round counts twice) and draws the noise of its clients with sigma > 0 in
    one call, rounds and clients in order: the stream of one draw per round,
    bit for bit. Each round is then one `local_noisy_gradient` call, given
    its noise rows, and the step.

    Every round's metrics are scored on a worker thread that lives for this
    call: the rounds' weights go into one (T, W) array, and each chunk is one
    task, scored over the pool and the test set stacked together while the
    next chunk trains. A worker's exception is raised here once training is
    done.
    """
    # loaded here, so commands that never train do not import it
    from concurrent.futures import ThreadPoolExecutor

    w = np.zeros(task.spec.weight_dim) if w0 is None else np.array(w0, dtype=float)
    x, y = _shard_examples(task, shards, w, "w0")
    n = y.shape[0]
    schedule = np.asarray(schedule)
    if (schedule.ndim != 2 or schedule.size == 0 or schedule.dtype.kind not in "iu"
            or schedule.min() < 0 or schedule.max() >= n):
        raise ValueError("schedule must be a 2-D integer array of at least one round "
                         f"of at least one client, every entry in [0, {n})")
    if np.shape(epsilons) != (n,):
        raise ValueError(f"epsilons must hold one budget per client, shape "
                         f"({n},), got {np.shape(epsilons)}")
    classes = task.spec.classes
    augmented = _augment(x, y, classes)
    counts = np.bincount(schedule.ravel(), minlength=n)
    sigma = np.zeros(n)
    for k in range(n):
        if counts[k] > 0 and not settings.noiseless:
            sigma[k] = noise_sigma(counts[k], epsilons[k],
                                   settings.delta, settings.c2)
    clip = math.inf if settings.noiseless else settings.clip
    # the pool in shard order, then the test set: one evaluation matrix,
    # stored transposed so the classes-first scores multiply by a contiguous
    # (D, n) matrix every round (concatenate alone would keep x's layout)
    n_pool = y.size
    ex = np.concatenate([x.reshape(n_pool, -1).T, task.test_x.T], axis=1,
                        out=np.empty((x.shape[-1], n_pool + task.test_y.size))).T
    ey = np.concatenate([y.ravel(), task.test_y])

    picks, test_y = _label_picks(ey), ey[n_pool:]

    t_rounds, per_round = schedule.shape
    # the most rounds whose scores, and whose gathered inputs and noise, each
    # fit _EVAL_ELEMENTS: a client's inputs are (m, D + 1), its noise (W,)
    chunk = max(1, _EVAL_ELEMENTS // max(classes * ey.size,
                                         per_round * max(augmented[0][0].size, w.size)))
    weights = np.empty((t_rounds, w.size))
    # the worker runs one chunk at a time, so one work buffer serves them all
    scores = np.empty((min(chunk, t_rounds), classes, ey.size))
    futures = []
    with ThreadPoolExecutor(1) as worker, np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, t_rounds, chunk):
            rounds = schedule[t0:t0 + chunk]
            inputs = [a[rounds] for a in augmented]
            # the chunk's noise is one draw, rounds in order: the stream of one
            # draw per round. Its rows go to (round, client) places; clients
            # with sigma = 0 draw nothing and get -0.0 rows, which add nothing
            # (+0.0 would turn a -0.0 gradient entry into +0.0)
            sig = sigma[rounds]
            noisy = sig > 0
            noise = np.full(noisy.shape + w.shape, -0.0)
            # Generator.normal(0.0, scale)'s own arithmetic, loc + scale * z
            noise[noisy] = 0.0 + (sig[noisy] * clip)[:, None] * rng.standard_normal(
                (np.count_nonzero(noisy), w.size))
            for i in range(rounds.shape[0]):
                grads = local_noisy_gradient(w, [a[i] for a in inputs], clip, noise[i])
                w = np.subtract(w, settings.learning_rate * grads.mean(axis=0),
                                out=weights[t0 + i])
            futures.append(worker.submit(
                _pool_and_test_metrics, weights[t0:t0 + rounds.shape[0]], ex, picks,
                test_y, classes, scores))
        train_loss, test_loss, test_acc = np.concatenate(
            [future.result() for future in futures], axis=1)
    return RunRecord(train_loss, test_loss, test_acc)
