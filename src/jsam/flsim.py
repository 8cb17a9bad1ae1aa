"""Desk-scale DP federated learning under a pre-drawn selection plan.

The model is multinomial logistic regression on Gaussian-blob synthetic data;
it trains in seconds while still exposing the selection/noise trade-offs the
mechanism is about. The protocol per round: draw nothing (the schedule is
fixed up front), each scheduled client computes per-example gradients of its
local loss, clips them individually to norm C, averages, adds
N(0, sigma_k^2 C^2 I) noise, and the server averages the noisy gradients and
takes a step. sigma_k is calibrated from the client's realized participation
count, which is known in advance precisely because the schedule is pre-drawn.

A round is a few array operations. The equal-size augmented shards, their
one-hot labels and one evaluation matrix (the pool, then the test set) are
stacked once. One score product serves every pass: classes-first (C, n)
scores, so each sum over the C classes is a short run of elementwise
passes. The scheduled clients' softmax errors and clip norms are taken on
their (k, C, m) scores, and their clipped gradients are one batched
contraction. The rounds run in chunks of a few: a chunk gathers its rounds'
inputs in one pass and draws all their noise in one call, so a round is one
gradient call with its noise rows, and the step. The metrics never feed back
into training, so the train loss, test loss and test accuracy are taken
beside it: each chunk's weights go to a worker thread, which scores the
chunk over the evaluation matrix in one stacked product and reduces it in
one pass, while the next chunk's gradients run. The two threads share the
interpreter lock, and a numpy call on a large array hands it over, so each
side makes as few calls per round, and per chunk, as it can. The noiseless
diagnostic is the same round with an infinite clip norm and zero noise.
bbm's probe losses are one score pass over the stacked shards.
"""

from __future__ import annotations

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
class SyntheticTask:
    feature_dim: int
    classes: int
    samples_per_client: int
    pool_x: np.ndarray
    pool_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def weight_dim(self) -> int:
        return self.classes * (self.feature_dim + 1)


def make_task(feature_dim, classes, pool_size, test_size, samples_per_client,
              rng: np.random.Generator) -> SyntheticTask:
    """Gaussian blobs with balanced labels in both pool and test set."""
    if classes < 2:
        raise ValueError("need at least two classes")
    if pool_size < classes:
        raise ValueError("pool must contain every class")
    centers = rng.normal(0.0, 2.5, size=(classes, feature_dim))

    def blob(size):
        y = rng.permutation(np.arange(size) % classes)
        x = centers[y] + rng.normal(0.0, 1.0, size=(size, feature_dim))
        return x, y

    pool_x, pool_y = blob(pool_size)
    test_x, test_y = blob(test_size)
    return SyntheticTask(feature_dim, classes, samples_per_client, pool_x,
                         pool_y, test_x, test_y)


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


def partition_noniid(task: SyntheticTask, n_clients, similarity,
                     rng: np.random.Generator) -> list[np.ndarray]:
    """Each client's pool indices from a two-stage split: ceil(s% of m)
    uniform draws per client, the rest label-sorted blocks.

    Stage 2 deals contiguous blocks of the label-sorted remainder, so each
    client's skewed share spans at most two classes; that cap is validated and
    violations (pool too small or too imbalanced) are hard errors.
    """
    if not 0 <= similarity <= 100:
        raise ValueError("similarity must lie in [0, 100]")
    m = task.samples_per_client
    if task.pool_x.shape[0] < n_clients * m:
        raise ValueError("pool too small for the requested shards")
    n1 = math.ceil(similarity * m / 100.0)
    perm = rng.permutation(task.pool_x.shape[0])
    shards = [perm[j * n1:(j + 1) * n1] for j in range(n_clients)]
    rest = perm[n_clients * n1:]
    rest = rest[np.argsort(task.pool_y[rest], kind="stable")]
    n2 = m - n1
    for j in range(n_clients):
        block = rest[j * n2:(j + 1) * n2]
        if np.unique(task.pool_y[block]).size > 2:
            raise ValueError("label-sorted block spans more than two classes; "
                             "grow the pool or rebalance labels")
        shards[j] = np.concatenate([shards[j], block])
    return shards


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
    """Each client's mean cross-entropy at w, bbm's probe: one classes-first
    score pass over the stacked shards, meaned per client."""
    x, y = _stack_shards(task, shards)
    log_p = _log_likelihoods(_class_scores(w, x.reshape(y.size, -1), task.classes),
                             _label_picks(y.ravel()))
    return -log_p.reshape(y.shape).mean(axis=1)


def _selection(kind, subset, costs, bbm_losses):
    """The fixed-probability kinds' p of the truthful reports `costs`."""
    if kind == "fsbm":
        if subset > costs.size:
            raise ValueError("fsbm subset larger than the client count")
        p = np.zeros_like(costs)
        p[np.argsort(costs, kind="stable")[:subset]] = 1.0 / subset
        return p
    if kind == "usbm":
        return np.full_like(costs, 1.0 / costs.size)
    if bbm_losses is None:
        raise ValueError("bbm needs probe losses for the initial model")
    losses = np.asarray(bbm_losses, dtype=float)
    if losses.size != costs.size or not np.all((losses > 0) & np.isfinite(losses)):
        raise ValueError("bbm probe losses must be positive and finite, one per client")
    with np.errstate(over="ignore"):
        total = losses.sum()
    if total == math.inf:
        raise ValueError("bbm probe losses overflow when summed; scale them down")
    return losses / total


def make_plan(name, costs, dist: CostDistribution, cfg: ServerConfig,
              bbm_losses=None, payment_grid: int = 200) -> SelectionPlan:
    """Build the selection plan and its payments for any mechanism kind.

    jsam solves the truthful profile's virtual costs with `solve_profiles`,
    jsam_ci its reported costs; usbm, fsbm-M and bbm solve the one p of the
    truthful reports with `fixed_probability_solve`. The payment curves are
    the same rule: eps_of_reports(ks, z) is client ks[i]'s budget at report
    z[i], rivals fixed (a scalar k broadcasts). jsam's is `client_budgets`,
    which sorts the rivals once and forms only that budget. A fixed kind's
    report moves only its own virtual cost under the truthful p, up to
    fsbm-M's cut, so its curve is `fixed_client_budgets`, which forms only
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
        sol = solve_profiles(virtuals[None, :], cfg)

        def eps_of_reports(ks, z):
            return client_budgets(virtuals, ks, dist.virtual(z), cfg)
    else:
        p = _selection(kind, subset, costs, bbm_losses)
        sol = fixed_probability_solve(p, virtuals[None, :], cfg)
        # fsbm-M's cut: k leaves the M cheapest, for a 0 budget, once (z, k) passes
        # (c_last, last), `last` the (M + 1)-th client in stable order (M < N)
        last = (np.argsort(costs, kind="stable")[subset]
                if kind == "fsbm" and subset < costs.size else None)

        def eps_of_reports(ks, z):
            eps = fixed_client_budgets(p, virtuals, ks, dist.virtual(z), cfg)
            if last is not None:
                eps[(z > costs[last]) | ((z == costs[last]) & (ks >= last))] = 0.0
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

    Returns (eta, plan). Bisection on log eta; the bracket top grows 4x until
    the cost exceeds the target.
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
    best = (hi, plan_hi)
    for _ in range(_ETA_BISECTIONS):
        mid = 0.5 * (llo + lhi)
        plan = plan_fn(math.exp(mid))
        if abs(plan.total_payment - target_cost) <= rel_tol * target_cost:
            return math.exp(mid), plan
        if plan.total_payment < target_cost:
            llo = mid
        else:
            lhi = mid
            best = (math.exp(mid), plan)
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
    run_id: str
    mechanism: str
    seed: int
    similarity: int
    eta: float
    total_cost: float
    train_loss: np.ndarray
    test_loss: np.ndarray
    test_accuracy: np.ndarray
    diverged: bool = False

    CSV_HEADER = ("run_id,mechanism,seed,s,eta,round,train_loss,test_loss,"
                  "test_accuracy,cumulative_monetary_cost")

    def rows(self):
        """CSV rows; the monetary cost is paid up front, constant per round."""
        for t in range(self.train_loss.size):
            yield (f"{self.run_id},{self.mechanism},{self.seed},"
                   f"{self.similarity},{float(self.eta)!r},{t + 1},"
                   f"{float(self.train_loss[t])!r},{float(self.test_loss[t])!r},"
                   f"{float(self.test_accuracy[t])!r},{float(self.total_cost)!r}")


def _stack_shards(task: SyntheticTask, shards):
    """(N, m, D) inputs and (N, m) labels of equal-size, non-empty shards."""
    sizes = [len(s) for s in shards]
    if min(sizes) == 0:
        raise ValueError(f"shard of client {sizes.index(0)} is empty")
    if min(sizes) != max(sizes):
        raise ValueError(f"shards must have equal sizes, got sizes from "
                         f"{min(sizes)} to {max(sizes)}")
    idx = np.stack(shards)
    return task.pool_x[idx], task.pool_y[idx]


def train(task: SyntheticTask, shards, plan: SelectionPlan,
          schedule: np.ndarray, settings: TrainSettings,
          rng: np.random.Generator, w0=None, run_id="run", seed=0) -> RunRecord:
    """Run the full pre-scheduled DP-FL protocol and record per-round metrics.

    `schedule` holds one row of client indices per round, as `build_schedule`
    draws it, and `plan.epsilons` one budget per shard; either malformed is
    rejected before any draw. The shards must be non-empty and of equal size;
    they are stacked once. Noise scales come from the participation counts of
    the schedule itself; a scheduled client with a zero budget is a
    configuration error. `settings.noiseless` trains with an infinite clip
    norm and no noise, which leaves `rng` untouched. Divergence (non-finite
    loss) is recorded in the output, not raised.

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

    n = len(shards)
    schedule = np.asarray(schedule)
    if (schedule.ndim != 2 or schedule.size == 0 or schedule.dtype.kind not in "iu"
            or schedule.min() < 0 or schedule.max() >= n):
        raise ValueError("schedule must be a 2-D integer array of at least one round "
                         f"of at least one client, every entry in [0, {n})")
    if np.shape(plan.epsilons) != (n,):
        raise ValueError(f"plan.epsilons must hold one budget per client, shape "
                         f"({n},), got {np.shape(plan.epsilons)}")
    x, y = _stack_shards(task, shards)
    augmented = _augment(x, y, task.classes)
    counts = np.bincount(schedule.ravel(), minlength=n)
    sigma = np.zeros(n)
    for k in range(n):
        if counts[k] > 0 and not settings.noiseless:
            sigma[k] = noise_sigma(counts[k], plan.epsilons[k],
                                   settings.delta, settings.c2)
    clip = math.inf if settings.noiseless else settings.clip
    w = np.zeros(task.weight_dim) if w0 is None else np.asarray(w0, dtype=float).copy()
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
    chunk = max(1, _EVAL_ELEMENTS // max(task.classes * ey.size,
                                         per_round * max(augmented[0][0].size, w.size)))
    weights = np.empty((t_rounds, w.size))
    # the worker runs one chunk at a time, so one work buffer serves them all
    scores = np.empty((min(chunk, t_rounds), task.classes, ey.size))
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
                test_y, task.classes, scores))
        train_loss, test_loss, test_acc = np.concatenate(
            [future.result() for future in futures], axis=1)
    return RunRecord(
        run_id=run_id,
        mechanism=plan.kind,
        seed=seed,
        similarity=settings.similarity,
        eta=plan.eta,
        total_cost=plan.total_payment,
        train_loss=train_loss,
        test_loss=test_loss,
        test_accuracy=test_acc,
        diverged=bool(not np.isfinite(train_loss[-1])),
    )
