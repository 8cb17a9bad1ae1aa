"""Synthetic task, DP training loop, schedules, and baseline plans."""

import copy
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jsam import flsim
from jsam.costs import UniformCosts
from jsam.flsim import (SelectionPlan, SyntheticTask, TaskSpec, TrainSettings,
                        _augment, _pool_and_test_metrics, build_schedule,
                        initial_local_losses, local_noisy_gradient, make_plan,
                        make_task, match_eta_to_cost, noise_sigma,
                        parse_mechanism, partition_noniid, train)
from jsam.mechanism import ServerConfig

SIGMA_T100_E1 = 33.93070212207556  # sqrt(100 * ln(1e5))

FAST = ServerConfig(eta=1.0, q_coefficient=1.0, grid_delta=1e-2)


def _small_task(rng, n_clients=4, m=24, classes=3, dim=5, test=60):
    return make_task(TaskSpec(dim, classes, m, test), n_clients, rng)


def _reference_losses(w, x, y, classes):
    """(per-example cross-entropies, accuracy, max-shifted scores) of the flat
    logistic weights on (x, y), by an unclamped log-sum-exp: the tests' one
    reference loss. The mean of the first is the loss."""
    mat = w.reshape(classes, -1)
    scores = mat[:, :-1] @ x.T + mat[:, -1:]
    shifted = scores - scores.max(axis=0)
    logp = shifted - np.log(np.exp(shifted).sum(axis=0))
    accuracy = float((scores.argmax(axis=0) == y).mean())
    return -logp[y, np.arange(y.size)], accuracy, shifted


def _metrics_of(w, x, y, n_pool, classes):
    """(train loss, test loss, test accuracy) of one round's weights w, as a
    chunk of one round."""
    return _pool_and_test_metrics(w[None], x, flsim._label_picks(y), y[n_pool:],
                                  classes, np.empty((1, classes, y.size)))[:, 0]


def _noise_rows(sigma, clip_c, width, rng):
    """The (k, width) noise rows of k clients with multipliers `sigma`: one
    `Generator.normal` draw, clients in order, for those with sigma > 0, and
    -0.0 rows, which add nothing, for the others."""
    sigma = np.asarray(sigma, dtype=float)
    noisy = sigma > 0
    noise = np.full((sigma.size, width), -0.0)
    noise[noisy] = rng.normal(0.0, (sigma[noisy] * clip_c)[:, None],
                              size=(np.count_nonzero(noisy), width))
    return noise


def _gradient(w, x, y, classes, clip_c, sigma, rng):
    """The kernel on a (k, m, D) batch with (k, m) labels, augmented here."""
    return local_noisy_gradient(w, _augment(x, y, classes), clip_c,
                                _noise_rows(sigma, clip_c, w.size, rng))


def _client_gradient(w, x, y, classes, clip_c, sigma, rng):
    """One client's (m, D) data and (m,) labels as a k = 1 batch: (W,)."""
    return _gradient(w, x[None], y[None], classes, clip_c, [sigma], rng)[0]


# ---------------------------------------------------------------------------
# noise calibration


def test_noise_sigma_frozen_value():
    assert noise_sigma(100, 1.0, 1e-5, 1.0) == SIGMA_T100_E1


def test_noise_sigma_scaling_laws_are_exact():
    base = noise_sigma(100, 1.0, 1e-5, 1.0)
    assert noise_sigma(400, 1.0, 1e-5, 1.0) == 2.0 * base
    assert noise_sigma(100, 2.0, 1e-5, 1.0) == base / 2.0


def test_noise_sigma_guards():
    with pytest.raises(ValueError, match="participation"):
        noise_sigma(0, 1.0, 1e-5)
    with pytest.raises(ValueError, match="delta"):
        noise_sigma(10, 1.0, 2.0)
    with pytest.raises(ValueError, match="zero privacy budget"):
        noise_sigma(10, 0.0, 1e-5)


@given(st.integers(1, 10 ** 6), st.floats(1e-3, 1e3), st.floats(1e-8, 0.5),
       st.floats(0.1, 10.0))
def test_noise_sigma_round_trips_the_budget(t_k, eps, delta, c2):
    sigma = noise_sigma(t_k, eps, delta, c2)
    back = c2 * math.sqrt(t_k * math.log(1.0 / delta)) / sigma
    assert back == pytest.approx(eps, rel=1e-9)


# ---------------------------------------------------------------------------
# gradients


def test_clip_examples(rng):
    # two classes, w = 0, x = sqrt(7): the error (-1/2, 1/2) has norm 1/sqrt(2)
    # and the augmented input (sqrt(7), 1) has norm sqrt(8), so ||g|| = 2
    x, y = np.array([[math.sqrt(7.0)]]), np.array([0])
    raw = np.outer([-0.5, 0.5], [math.sqrt(7.0), 1.0]).ravel()
    assert np.linalg.norm(raw) == pytest.approx(2.0)
    halved = _client_gradient(np.zeros(4), x, y, 2, 1.0, 0.0, rng)
    assert halved == pytest.approx(raw / 2.0)
    kept = _client_gradient(np.zeros(4), x, y, 2, 2.5, 0.0, rng)
    assert kept == pytest.approx(raw)
    # a certain correct prediction has an exactly zero error: no 0/0
    sure = _client_gradient(np.array([0.0, 800.0, 0.0, 0.0]), x, y, 2,
                            1.0, 0.0, rng)
    assert np.all(sure == 0.0)
    # clipping is per example: the mean of one clipped and one kept gradient
    both = _client_gradient(np.zeros(4), np.array([[math.sqrt(7.0)], [0.0]]),
                            np.array([0, 1]), 2, 1.0, 0.0, rng)
    small = np.outer([0.5, -0.5], [0.0, 1.0]).ravel()
    assert both == pytest.approx((raw / 2.0 + small) / 2.0)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 6),
       st.integers(1, 12), st.floats(1e-3, 10.0), st.floats(0.0, 20.0))
def test_clip_norm_bound(seed, classes, dim, n, clip_c, spread):
    """No noise: each clipped per-example gradient and their mean have norm <= C."""
    gen = np.random.default_rng(seed)
    w = gen.normal(0.0, spread, classes * (dim + 1))
    x = gen.normal(0.0, spread, (n, dim))
    y = gen.integers(0, classes, n)
    # n one-example clients: each row is one clipped per-example gradient
    per_example = _gradient(w, x[:, None, :], y[:, None], classes, clip_c,
                            np.zeros(n), gen)
    mean = _client_gradient(w, x, y, classes, clip_c, 0.0, gen)
    assert np.all(np.linalg.norm(per_example, axis=1) <= clip_c * (1 + 1e-12))
    assert np.linalg.norm(mean) <= clip_c * (1 + 1e-12)
    np.testing.assert_allclose(mean, per_example.mean(axis=0), rtol=1e-9,
                               atol=1e-12 * clip_c)


def _uniform_plan(n, eps=1.0):
    return SelectionPlan(kind="usbm", eta=1.0, probabilities=np.full(n, 1.0 / n),
                         epsilons=np.full(n, eps), total_budget=1.0,
                         payments=np.zeros(n))


def test_a_batch_equals_single_client_calls(rng):
    task = _small_task(rng)
    shards = partition_noniid(task, 50, rng)
    x, y = task.pool_x[shards], task.pool_y[shards]
    w = rng.normal(0, 1.0, task.spec.weight_dim)
    ks = np.array([2, 0, 2, 3])  # the schedule draws with replacement
    # clipped, then train's noiseless round: clip inf
    for clip_c in (0.8, math.inf):
        batch = _gradient(w, x[ks], y[ks], task.spec.classes, clip_c, np.zeros(4), rng)
        singles = [_client_gradient(w, x[k], y[k], task.spec.classes, clip_c, 0.0, rng)
                   for k in ks]
        assert batch.shape == (ks.size, task.spec.weight_dim)
        assert batch.tobytes() == np.stack(singles).tobytes()
        assert batch[0].tobytes() == batch[2].tobytes()


@pytest.mark.parametrize("shape", [(6,), (5, 6)])
def test_noise_must_be_one_row_per_client(rng, shape):
    # a (W,) row would broadcast one draw to every client: correlated noise
    x, y = rng.normal(size=(4, 3, 1)), rng.integers(0, 3, (4, 3))
    with pytest.raises(ValueError, match=r"one row per client, shape \(4, 6\)"):
        local_noisy_gradient(np.zeros(6), _augment(x, y, 3), 1.0, np.zeros(shape))


def test_a_quiet_row_keeps_the_gradients_negative_zeros(rng):
    # each client's examples share one label, so its label-class errors are
    # negative; feature 0 is 0 but for one smallest subnormal, whose mean over
    # the 4 examples underflows to -0.0 there (a column of exact zeros gives
    # +0.0: the contraction's sum starts at +0.0)
    x = rng.normal(size=(2, 4, 3))
    x[..., 0] = 0.0
    x[:, 0, 0] = 5e-324
    y = np.array([[0] * 4, [1] * 4])
    w = rng.normal(size=3 * 4)
    label_entries = (np.arange(2), y[:, 0], 0)
    for clip_c in (1.0, math.inf):
        # a row of +0.0 would turn them into +0.0
        for fill, negative in ((-0.0, True), (0.0, False)):
            grads = local_noisy_gradient(w, _augment(x, y, 3), clip_c,
                                         np.full((2, w.size), fill))
            entries = grads.reshape(2, 3, 4)[label_entries]
            assert np.all(entries == 0.0)
            assert np.all(np.signbit(entries) == negative)


def test_one_noise_draw_equals_sequential_draws():
    scales = np.array([0.5, 3.0, 1e-3])
    batch = np.random.default_rng(8).normal(0.0, scales[:, None], size=(3, 17))
    gen = np.random.default_rng(8)
    rows = [gen.normal(0.0, s, size=17) for s in scales]
    assert batch.tobytes() == np.stack(rows).tobytes()


def test_zero_c2_trains_without_drawing_noise(rng):
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4)
    schedule = build_schedule(plan.probabilities, 5, 3, rng)
    noise_rng = np.random.default_rng(6)
    before = noise_rng.bit_generator.state
    record = train(task, shards, plan.epsilons, schedule,
                   TrainSettings(rounds=5, per_round=3, c2=0.0), noise_rng)
    assert noise_rng.bit_generator.state == before
    assert np.all(np.isfinite(record.train_loss))


def test_single_example_gradient_matches_softmax_algebra(rng):
    classes, dim = 3, 4
    w = rng.normal(0, 0.5, classes * (dim + 1))
    x = rng.normal(0, 1, (1, dim))
    y = np.array([1])
    got = _client_gradient(w, x, y, classes, 1e9, 0.0, rng)
    mat = w.reshape(classes, dim + 1)
    scores = x[0] @ mat[:, :-1].T + mat[:, -1]
    soft = np.exp(scores - scores.max())
    soft = soft / soft.sum()
    soft[1] -= 1.0
    expected = np.outer(soft, np.concatenate([x[0], [1.0]])).ravel()
    assert got == pytest.approx(expected, abs=1e-12)


def _example_major_gradient(w, x, y, classes, clip_c, sigma, rng):
    """The example-major round: softmax rows of (k, m, C) scores reduced over
    their last axis, unclamped, and noise drawn by `Generator.normal`."""
    k, m = y.shape
    xt = np.concatenate([x, np.ones((k, m, 1))], axis=-1)
    mat = w.reshape(classes, -1)
    scores = x @ mat[:, :-1].T + mat[:, -1]
    shifted = scores - scores.max(axis=-1, keepdims=True)
    errors = np.exp(shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))
    errors.reshape(-1)[np.arange(k * m) * classes + y.ravel()] -= 1.0
    norms = np.linalg.norm(errors, axis=-1) * np.linalg.norm(xt, axis=-1)
    with np.errstate(divide="ignore"):
        scale = np.minimum(1.0, clip_c / np.where(norms > 0, norms, 1.0))
    errors = errors * scale[..., None]
    grads = (np.swapaxes(errors, 1, 2) @ xt / m).reshape(k, -1)
    noisy = sigma > 0
    grads[noisy] += rng.normal(0.0, (sigma[noisy] * clip_c)[:, None],
                               size=(np.count_nonzero(noisy), grads.shape[1]))
    return grads, shifted


@pytest.mark.parametrize("classes", [2, 3, 5, 7, 8, 10])
@pytest.mark.parametrize("spread", [0.5, 30.0, 300.0])
def test_classes_first_gradient_matches_the_example_major_one(classes, spread):
    gen = np.random.default_rng(100 * classes + int(spread))
    n, m, dim = 4, 6, 5
    x = gen.normal(0.0, 1.0, (n, m, dim))
    y = gen.integers(0, classes, (n, m))
    w = gen.normal(0.0, spread, classes * (dim + 1))
    ks = np.array([2, 0, 2, 3, 1])                # client 2 drawn twice
    sigma = np.array([0.0, 1.5, 0.0, 4.0, 0.7])   # rows 0 and 2 draw nothing
    stacked = _augment(x, y, classes)  # augmented once and indexed, as in train
    # clipped and noisy, then train's noiseless round: clip inf, no noise
    for clip_c, sig in ((2.0, sigma), (math.inf, np.zeros(ks.size))):
        got = local_noisy_gradient(w, tuple(a[ks] for a in stacked), clip_c,
                                   _noise_rows(sig, clip_c, w.size,
                                               np.random.default_rng(7)))
        want, shifted = _example_major_gradient(w, x[ks], y[ks], classes, clip_c,
                                                sig, np.random.default_rng(7))
        if spread > 100:  # exp's slow path, and probabilities below 1e-304
            assert np.any(shifted < -708)
        if classes < 8:
            assert got.tobytes() == want.tobytes()
        else:
            # numpy sums a last axis of 8 or more terms pairwise, the
            # classes-first sums add one class at a time: a few ulps apart
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _set_chunk(monkeypatch, task, rounds):
    """Make `train` hand its metric pass to the worker `rounds` rounds at a time."""
    n_eval = task.pool_x.shape[0] + task.test_y.size
    monkeypatch.setattr(flsim, "_EVAL_ELEMENTS", rounds * task.spec.classes * n_eval)


def test_each_round_records_model_loss_and_test_metrics(rng, monkeypatch):
    task = _small_task(rng)
    shards = partition_noniid(task, 50, rng)
    plan = _uniform_plan(4)
    schedule = build_schedule(plan.probabilities, 5, 2, rng)
    w0 = rng.normal(0.0, 30.0, task.spec.weight_dim)
    _set_chunk(monkeypatch, task, 2)  # chunks of 2, 2 and 1 rounds
    record = train(task, shards, plan.epsilons, schedule,
                   TrainSettings(rounds=5, per_round=2, learning_rate=0.0,
                                 similarity=50),
                   np.random.default_rng(3), w0=w0)
    pool = np.concatenate(shards)  # in shard order, as train stacks them
    loss = _reference_losses(w0, task.pool_x[pool], task.pool_y[pool],
                             task.spec.classes)[0].mean()
    test_losses, accuracy, _ = _reference_losses(w0, task.test_x, task.test_y,
                                                 task.spec.classes)
    test_loss = test_losses.mean()
    assert record.train_loss.tobytes() == np.full(5, loss).tobytes()
    assert record.test_loss.tobytes() == np.full(5, test_loss).tobytes()
    assert record.test_accuracy.tobytes() == np.full(5, accuracy).tobytes()


@pytest.mark.parametrize("spread", [0.5, 30.0, 300.0])
def test_losses_match_the_unclamped_log_sum_exp_bit_for_bit(rng, spread):
    classes, dim, n, n_pool = 5, 6, 400, 240
    w = rng.normal(0, spread, classes * (dim + 1))
    x = rng.normal(0, 1, (n, dim))
    y = rng.integers(0, classes, n)

    _, _, shifted = _reference_losses(w, x, y, classes)
    if spread > 100:  # exp arguments in (-745, -700): clamped, not yet 0
        assert np.any((shifted < -700) & (shifted > -745))
    pool_losses = _reference_losses(w, x[:n_pool], y[:n_pool], classes)[0]
    test_losses, accuracy, _ = _reference_losses(w, x[n_pool:], y[n_pool:],
                                                 classes)
    assert tuple(_metrics_of(w, x, y, n_pool, classes)) == (
        pool_losses.mean(), test_losses.mean(), accuracy)
    # each example's loss: a pair's first example as the pool, its second as
    # the test set
    for i in range(0, n, 2):
        pair = slice(i, i + 2)
        got_pool, got_test, _ = _metrics_of(w, x[pair], y[pair], 1, classes)
        want = _reference_losses(w, x[pair], y[pair], classes)[0]
        assert (got_pool, got_test) == (want[0], want[1])


def test_a_saturated_set_keeps_the_sign_of_its_zero_loss():
    # each example's label outscores the other class by 2,000, so every
    # log-likelihood is exactly 0 and each loss, its negated mean, is -0.0:
    # the bits `jsam simulate` writes once a run saturates its test set
    x = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    y = np.array([1, 0, 1, 0])
    w = np.array([-1000.0, 0.0, 1000.0, 0.0])  # class c scores (2c - 1) * 1000 * x
    train_loss, test_loss, accuracy = _metrics_of(w, x, y, 2, 2)
    assert train_loss == test_loss == 0.0
    assert np.signbit(train_loss) and np.signbit(test_loss)
    assert accuracy == 1.0


@pytest.mark.parametrize("spread", [0.01, 300.0])
def test_probe_losses_equal_a_per_shard_loss_loop_bit_for_bit(rng, spread):
    # 0.01 is the spread of the CLI's initial weights; at 300 the -700 clamp acts
    task = _small_task(rng)
    shards = partition_noniid(task, 50, rng)
    w = rng.normal(0, spread, task.spec.weight_dim)
    want = [_reference_losses(w, task.pool_x[s], task.pool_y[s], task.spec.classes)
            for s in shards]
    if spread > 100:
        assert any(np.any(shifted < -700) for _, _, shifted in want)
    got = initial_local_losses(task, shards, w)
    assert got.tobytes() == np.array([losses.mean() for losses, _, _ in want]).tobytes()


def test_tiny_clip_shrinks_the_gradient_to_zero(rng):
    task = _small_task(rng)
    g = _client_gradient(np.zeros(task.spec.weight_dim), task.pool_x[:10],
                         task.pool_y[:10], task.spec.classes, 1e-9, 0.0, rng)
    assert np.linalg.norm(g) <= 1e-9


def test_noiseless_flag_disables_clipping(rng):
    # a tiny budget would draw large noise and a tiny clip would shrink every
    # step; a noiseless run does neither and never draws from its generator
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4, eps=1e-3)
    schedule = build_schedule(plan.probabilities, 5, 3, rng)
    w0 = rng.normal(0, 2.0, task.spec.weight_dim)
    losses = []
    for clip in (1e-6, 123.0):
        noise_rng = np.random.default_rng(6)
        before = noise_rng.bit_generator.state
        record = train(task, shards, plan.epsilons, schedule,
                       TrainSettings(rounds=5, per_round=3, clip=clip,
                                     noiseless=True), noise_rng, w0=w0)
        assert noise_rng.bit_generator.state == before
        losses.append(record.train_loss.tobytes())
    assert losses[0] == losses[1]
    clipped = train(task, shards, plan.epsilons, schedule,
                    TrainSettings(rounds=5, per_round=3, clip=1e-6, c2=0.0),
                    np.random.default_rng(6), w0=w0)
    assert clipped.train_loss.tobytes() != losses[0]


def test_empty_shard_is_rejected(rng):
    with pytest.raises(ValueError, match="empty"):
        _client_gradient(np.zeros(6), np.zeros((0, 2)), np.zeros(0, int),
                         2, 1.0, 0.0, rng)


def test_clipped_mean_matches_finite_differences_of_the_surrogate(rng):
    classes, dim, n = 3, 3, 7
    x = rng.normal(0, 1, (n, dim))
    y = rng.integers(0, classes, n)
    xt = np.concatenate([x, np.ones((n, 1))], axis=1)
    for _ in range(5):
        w = rng.normal(0, 0.8, classes * (dim + 1))
        clip_c = 0.9  # binding for some examples
        got = _client_gradient(w, x, y, classes, clip_c, 0.0, rng)

        def scales(wv):
            scores = x @ wv.reshape(classes, -1)[:, :-1].T + wv.reshape(classes, -1)[:, -1]
            sh = scores - scores.max(axis=1, keepdims=True)
            soft = np.exp(sh) / np.exp(sh).sum(axis=1, keepdims=True)
            soft[np.arange(n), y] -= 1.0
            norms = np.linalg.norm(soft, axis=1) * np.linalg.norm(xt, axis=1)
            return np.minimum(1.0, clip_c / norms)

        s_frozen = scales(w)

        def surrogate(wv):
            scores = x @ wv.reshape(classes, -1)[:, :-1].T + wv.reshape(classes, -1)[:, -1]
            sh = scores - scores.max(axis=1, keepdims=True)
            logp = sh - np.log(np.exp(sh).sum(axis=1, keepdims=True))
            per_example = -logp[np.arange(n), y]
            return float((s_frozen * per_example).mean())

        fd = np.zeros(w.size)
        h = 1e-6
        for i in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (surrogate(wp) - surrogate(wm)) / (2 * h)
        denom = max(np.linalg.norm(got), 1e-12)
        assert np.linalg.norm(got - fd) / denom <= 1e-5


# ---------------------------------------------------------------------------
# task and partition


def test_task_pool_is_label_balanced(rng):
    task = make_task(TaskSpec(4, 3, 30, 30), 3, rng)
    counts = np.bincount(task.pool_y, minlength=3)
    assert np.all(counts == 30)
    with pytest.raises(ValueError):
        make_task(TaskSpec(4, 1, 30, 30), 3, rng)
    with pytest.raises(ValueError):
        make_task(TaskSpec(4, 5, 1, 30), 3, rng)


def _stage1_draws(rng, pool_size, n_clients, count):
    """Each client's first `count` indices as partition_noniid draws them from
    a generator in `rng`'s state: slices of one permutation of the pool."""
    perm = copy.deepcopy(rng).permutation(pool_size)
    return [perm[j * count:(j + 1) * count] for j in range(n_clients)]


def test_uniform_partition_matches_pool_proportions(rng):
    task = make_task(TaskSpec(4, 4, 40, 40), 10, rng)
    draws = _stage1_draws(rng, 400, 10, 40)
    shards = partition_noniid(task, 100, rng)
    for shard, drawn in zip(shards, draws, strict=True):
        assert shard.tobytes() == drawn.tobytes()  # all 40 are stage 1
    for shard in shards:
        counts = np.bincount(task.pool_y[shard], minlength=4)
        # 4-sigma band around the balanced expectation
        expect = 40 / 4
        band = 4 * math.sqrt(40 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) <= band)


def test_skewed_partition_caps_labels_at_two(rng):
    task = make_task(TaskSpec(4, 5, 40, 40), 10, rng)
    perm = copy.deepcopy(rng).permutation(400)
    shards = partition_noniid(task, 0, rng)
    # no stage 1: the shards deal the label-sorted permutation in order
    dealt = perm[np.argsort(task.pool_y[perm], kind="stable")]
    assert np.concatenate(shards).tobytes() == dealt.tobytes()
    for shard in shards:
        assert np.unique(task.pool_y[shard]).size <= 2


def test_mixed_partition_counts_and_disjointness(rng):
    task = make_task(TaskSpec(4, 5, 60, 40), 10, rng)
    draws = _stage1_draws(rng, 600, 10, 18)  # ceil(30% of 60)
    shards = partition_noniid(task, 30, rng)
    assert shards.shape == (10, 60) and shards.dtype.kind == "i"
    for shard, drawn in zip(shards, draws, strict=True):
        assert shard.size == 60
        assert shard[:18].tobytes() == drawn.tobytes()
        # the other 42 come from the label-sorted rest, not from stage 1
        assert not np.isin(shard[18:], np.concatenate(draws)).any()
    all_idx = np.concatenate(shards)
    assert all_idx.size == 600
    assert np.unique(all_idx).size == 600


def _labelled_task(labels, m):
    """A hand-built one-feature task whose pool holds `labels`, m per client."""
    y = np.asarray(labels)
    return SyntheticTask(TaskSpec(1, int(y.max()) + 1, m, 1), np.zeros((y.size, 1)),
                         y, np.zeros((1, 1)), np.zeros(1, dtype=int))


def test_partition_guards(rng):
    task = make_task(TaskSpec(4, 3, 30, 30), 3, rng)
    with pytest.raises(ValueError, match="similarity"):
        partition_noniid(task, 150, rng)
    lopsided = make_task(TaskSpec(4, 5, 100, 30), 2, rng)
    with pytest.raises(ValueError, match="two classes"):
        partition_noniid(lopsided, 0, rng)
    with pytest.raises(ValueError, match="^pool of 7 examples is not a whole "
                                         "number of shards of 4$"):
        partition_noniid(_labelled_task([0, 0, 0, 1, 1, 1, 1], 4), 0, rng)


@pytest.mark.parametrize("labels, passes", [
    ([0, 0, 1, 1, 1, 1, 2, 2], True),    # each block's labels change once
    ([0, 1, 2, 2, 2, 2, 2, 2], False),   # client 0's change twice
    ([0, 0, 0, 0, 0, 1, 2, 2], False),   # client 1's change twice
])
def test_two_class_cap_allows_one_label_change_per_block(rng, labels, passes):
    # similarity 0: two clients deal the label-sorted pool in blocks of 4,
    # whatever order the permutation draws
    task = _labelled_task(labels, 4)
    if passes:
        shards = partition_noniid(task, 0, rng)
        assert task.pool_y[shards].tolist() == [labels[:4], labels[4:]]
    else:
        with pytest.raises(ValueError, match="spans more than two classes"):
            partition_noniid(task, 0, rng)


# ---------------------------------------------------------------------------
# schedule


def test_point_mass_schedule_hits_one_client(rng):
    sched = build_schedule(np.array([1.0, 0.0, 0.0]), 50, 4, rng)
    assert sched.shape == (50, 4)
    assert np.all(sched == 0)


def test_uniform_schedule_concentrates(rng):
    n, t, m = 10, 1000, 10
    counts = np.bincount(build_schedule(np.full(n, 1.0 / n), t, m, rng).ravel(),
                         minlength=n)
    assert counts.sum() == t * m
    expect = t * m / n
    band = 5 * math.sqrt(t * m * (1 / n) * (1 - 1 / n))
    assert np.all(np.abs(counts - expect) <= band)


def test_schedule_is_seed_deterministic():
    p = np.array([0.25, 0.5, 0.25])
    a = build_schedule(p, 30, 3, np.random.default_rng(11))
    b = build_schedule(p, 30, 3, np.random.default_rng(11))
    assert a.tobytes() == b.tobytes()


def test_schedule_rejects_non_simplex_p(rng):
    with pytest.raises(ValueError):
        build_schedule(np.array([0.7, 0.7]), 10, 2, rng)
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="^p must lie on the simplex$"):
            build_schedule(np.array(bad), 10, 2, rng)


# ---------------------------------------------------------------------------
# plans and baselines


def test_parse_mechanism_forms():
    assert parse_mechanism("jsam") == ("jsam", None)
    assert parse_mechanism("fsbm-10") == ("fsbm", 10)
    for bad in ("fsbm", "fsbm-x", "fsbm-0", "nope"):
        with pytest.raises(ValueError):
            parse_mechanism(bad)


def test_usbm_plan_is_uniform(uniform01, rng):
    costs = rng.uniform(0.1, 0.9, 5)
    plan = make_plan("usbm", costs, uniform01, FAST, payment_grid=80)
    assert plan.probabilities == pytest.approx(np.full(5, 0.2))
    assert plan.selected_count == 5
    assert plan.total_budget > 0


def test_fsbm_with_every_client_equals_usbm(uniform01, rng):
    costs = rng.uniform(0.1, 0.9, 4)
    a = make_plan("usbm", costs, uniform01, FAST, payment_grid=60)
    b = make_plan("fsbm-4", costs, uniform01, FAST, payment_grid=60)
    assert a.probabilities.tobytes() == b.probabilities.tobytes()
    assert a.epsilons == pytest.approx(b.epsilons, rel=1e-12)
    assert a.total_budget == pytest.approx(b.total_budget, rel=1e-12)


def test_fsbm_selects_the_cheapest_subset(uniform01):
    costs = np.array([0.8, 0.2, 0.5, 0.3])
    plan = make_plan("fsbm-2", costs, uniform01, FAST, payment_grid=60)
    assert plan.probabilities == pytest.approx([0.0, 0.5, 0.0, 0.5])
    with pytest.raises(ValueError, match="subset"):
        make_plan("fsbm-9", costs, uniform01, FAST)


def test_bbm_needs_probe_losses(uniform01, rng):
    costs = rng.uniform(0.1, 0.9, 4)
    with pytest.raises(ValueError, match="probe"):
        make_plan("bbm", costs, uniform01, FAST)
    losses = np.array([1.0, 2.0, 3.0, 4.0])
    plan = make_plan("bbm", costs, uniform01, FAST, bbm_losses=losses,
                         payment_grid=60)
    assert plan.probabilities == pytest.approx(losses / losses.sum())
    # non-finite losses are named before any arithmetic warns
    for bad in ([np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 1.0]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^bbm probe losses must be positive "
                                                 "and finite, one per client$"):
                make_plan("bbm", costs, uniform01, FAST, bbm_losses=bad)
    # finite losses whose sum overflows are named too, before any numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^bbm probe losses overflow when summed"):
            make_plan("bbm", costs, uniform01, FAST, bbm_losses=[1e308] * 4)


def test_jsam_ci_pays_reported_cost_exactly(uniform01, rng):
    costs = rng.uniform(0.1, 0.9, 4)
    plan = make_plan("jsam_ci", costs, uniform01, FAST)
    assert plan.payments.tobytes() == (costs * plan.epsilons).tobytes()


def test_cost_at_a_zero_virtual_boundary_is_rejected(uniform01):
    with pytest.raises(ValueError, match="zero virtual cost"):
        make_plan("jsam", np.array([0.0, 0.5]), uniform01, FAST)


def test_true_cost_variant_pays_less_in_expectation(uniform01, rng):
    gaps = []
    for _ in range(30):
        costs = rng.uniform(0.05, 0.95, 3)
        full = make_plan("jsam", costs, uniform01, FAST, payment_grid=120)
        ci = make_plan("jsam_ci", costs, uniform01, FAST)
        gaps.append(full.total_payment - ci.total_payment)
    gaps = np.asarray(gaps)
    sem = gaps.std(ddof=1) / math.sqrt(gaps.size)
    assert gaps.mean() >= -3 * sem


def test_match_eta_to_cost_brackets_a_monotone_curve():
    class P:
        def __init__(self, eta):
            self.eta, self.total_payment = eta, 2.0 * eta

    plan = match_eta_to_cost(3.0, P, rel_tol=1e-6)
    assert plan.total_payment == pytest.approx(3.0, rel=1e-5)
    assert plan.eta == pytest.approx(1.5, rel=1e-5)
    with pytest.raises(ValueError):
        match_eta_to_cost(0.0, P)


# ---------------------------------------------------------------------------
# training loop


def _toy_run(rng, plan_eps, rounds=6, lr=0.3):
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    n = 4
    plan = SelectionPlan(kind="usbm", eta=1.0,
                         probabilities=np.full(n, 0.25),
                         epsilons=np.full(n, plan_eps),
                         total_budget=1.0,
                         payments=np.full(n, 0.25))
    settings = TrainSettings(rounds=rounds, per_round=2, clip=6.0,
                             learning_rate=lr, similarity=100)
    schedule = build_schedule(plan.probabilities, rounds, 2, rng)
    record = train(task, shards, plan.epsilons, schedule, settings, rng)
    return record, plan


def test_zero_learning_rate_freezes_the_model(rng):
    record, _ = _toy_run(rng, plan_eps=5.0, lr=0.0)
    assert np.all(record.train_loss == record.train_loss[0])
    assert np.all(record.test_accuracy == record.test_accuracy[0])


def test_one_noiseless_round_is_a_plain_gradient_step(rng):
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4)
    schedule = np.array([[0, 2]])
    settings = TrainSettings(rounds=1, per_round=2, learning_rate=0.5,
                             similarity=100, noiseless=True)
    w0 = rng.normal(0, 0.2, task.spec.weight_dim)
    record = train(task, shards, plan.epsilons, schedule, settings,
                   np.random.default_rng(0), w0=w0)

    def mean_loss(wv):
        return 0.5 * sum(_reference_losses(wv, task.pool_x[shards[k]],
                                           task.pool_y[shards[k]],
                                           task.spec.classes)[0].mean()
                         for k in (0, 2))

    grad = np.zeros(task.spec.weight_dim)
    h = 1e-6
    for i in range(task.spec.weight_dim):
        wp, wm = w0.copy(), w0.copy()
        wp[i] += h
        wm[i] -= h
        grad[i] = (mean_loss(wp) - mean_loss(wm)) / (2 * h)
    w1 = w0 - 0.5 * grad
    pool = np.concatenate(shards)
    want = _reference_losses(w1, task.pool_x[pool], task.pool_y[pool],
                             task.spec.classes)[0].mean()
    assert record.train_loss[0] == pytest.approx(want, abs=1e-8)


def test_noise_is_calibrated_from_the_schedule_that_is_trained(rng):
    # one round of clients 0 and 1: each took part once, so each adds
    # noise_sigma(1, eps) -- the schedule is the only source of the counts
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4, eps=1e-3)
    settings = TrainSettings(rounds=1, per_round=2, similarity=100)
    w0 = rng.normal(0, 0.2, task.spec.weight_dim)
    record = train(task, shards, plan.epsilons, np.array([[0, 1]]), settings,
                   np.random.default_rng(5), w0=w0)

    x, y = task.pool_x[shards], task.pool_y[shards]
    sigma = noise_sigma(1, 1e-3, settings.delta, settings.c2)
    grads = _gradient(w0, x[:2], y[:2], task.spec.classes, settings.clip,
                      np.full(2, sigma), np.random.default_rng(5))
    w1 = w0 - settings.learning_rate * grads.mean(axis=0)
    pool = np.concatenate(shards)
    want = _reference_losses(w1, task.pool_x[pool], task.pool_y[pool],
                             task.spec.classes)[0].mean()
    assert record.train_loss[0] == pytest.approx(want, rel=1e-12)


def test_full_participation_noiseless_matches_centralized(rng):
    task = _small_task(rng, n_clients=4, m=30)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4)
    t = 50
    schedule = np.tile(np.arange(4), (t, 1))
    settings = TrainSettings(rounds=t, per_round=4, learning_rate=0.4,
                             similarity=100, noiseless=True)
    record = train(task, shards, plan.epsilons, schedule, settings,
                   np.random.default_rng(0))
    # centralized: equal shard sizes make the mean of shard means the pool mean
    w = np.zeros(task.spec.weight_dim)
    pool = np.concatenate(shards)
    for _ in range(t):
        w = w - 0.4 * _client_gradient(w, task.pool_x[pool], task.pool_y[pool],
                                       task.spec.classes, math.inf, 0.0, rng)
    _, central_acc, _ = _reference_losses(w, task.test_x, task.test_y,
                                          task.spec.classes)
    assert abs(record.test_accuracy[-1] - central_acc) <= 0.02


def test_huge_noise_swamps_learning(rng):
    record, _ = _toy_run(rng, plan_eps=1e-6, rounds=40)
    assert record.train_loss[-1] > 100.0
    # one draw can luckily label whole clusters; the mean across rounds cannot
    assert record.test_accuracy.mean() <= 1.0 / 3.0 + 0.25


def test_sigma_overflow_is_recorded_as_divergence(rng):
    with np.errstate(over="ignore"):
        record, _ = _toy_run(rng, plan_eps=5e-324, rounds=3)
    assert record.diverged
    assert not np.isfinite(record.train_loss[-1])


def _serial_reference(task, shards, plan, schedule, settings, seed):
    """Per-round (train loss, test loss, test accuracy) rows of `train`'s
    protocol, stepped one round at a time and scored by `_reference_losses`
    as each round ends."""
    x, y = task.pool_x[shards], task.pool_y[shards]
    augmented = _augment(x, y, task.spec.classes)
    counts = np.bincount(schedule.ravel(), minlength=len(shards))
    sigma = np.array([noise_sigma(c, eps, settings.delta, settings.c2) if c else 0.0
                      for c, eps in zip(counts, plan.epsilons)])
    pool = np.concatenate(shards)
    rng = np.random.default_rng(seed)
    w = np.zeros(task.spec.weight_dim)
    rows = []
    for ks in schedule:
        grads = local_noisy_gradient(w, [a[ks] for a in augmented], settings.clip,
                                     _noise_rows(sigma[ks], settings.clip, w.size, rng))
        w = w - settings.learning_rate * grads.mean(axis=0)
        pool_losses = _reference_losses(w, task.pool_x[pool], task.pool_y[pool],
                                        task.spec.classes)[0]
        test_losses, accuracy, _ = _reference_losses(w, task.test_x, task.test_y,
                                                     task.spec.classes)
        rows.append((pool_losses.mean(), test_losses.mean(), accuracy))
    return np.array(rows).T


@pytest.mark.parametrize("chunk, rounds", [(1, 1), (1, 5), (3, 1), (3, 2),
                                           (3, 3), (3, 9)])
def test_records_are_bit_identical_across_chunk_boundaries(rng, monkeypatch,
                                                           chunk, rounds):
    task = _small_task(rng)
    shards = partition_noniid(task, 50, rng)
    plan = _uniform_plan(4, eps=5.0)
    schedule = build_schedule(plan.probabilities, rounds, 2, rng)
    settings = TrainSettings(rounds=rounds, per_round=2, similarity=50)
    _set_chunk(monkeypatch, task, chunk)
    record = train(task, shards, plan.epsilons, schedule, settings,
                   np.random.default_rng(8))
    want = _serial_reference(task, shards, plan, schedule, settings, 8)
    got = np.stack([record.train_loss, record.test_loss, record.test_accuracy])
    assert got.tobytes() == want.tobytes()
    assert not record.diverged


def test_records_hold_under_rapid_thread_switching(rng, monkeypatch):
    # one hand-off per round and a thread switch every microsecond: a round's
    # weights read before they are written would change its bits
    task = _small_task(rng)
    shards = partition_noniid(task, 50, rng)
    plan = _uniform_plan(4, eps=5.0)
    schedule = build_schedule(plan.probabilities, 60, 2, rng)
    settings = TrainSettings(rounds=60, per_round=2, similarity=50)
    _set_chunk(monkeypatch, task, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        record = train(task, shards, plan.epsilons, schedule, settings,
                       np.random.default_rng(8))
    finally:
        sys.setswitchinterval(interval)
    want = _serial_reference(task, shards, plan, schedule, settings, 8)
    got = np.stack([record.train_loss, record.test_loss, record.test_accuracy])
    assert got.tobytes() == want.tobytes()


def test_quiet_and_noisy_rows_share_one_round_and_one_draw(rng, monkeypatch):
    # client 3 has an infinite budget, so noise_sigma gives it sigma 0: its
    # rows draw nothing and are -0.0, which adds nothing, signed zeros too
    task = _small_task(rng)
    shards = partition_noniid(task, 50, rng)
    plan = _uniform_plan(4, eps=5.0)
    plan.epsilons[3] = math.inf
    schedule = np.array([[3, 0, 3], [1, 3, 2], [3, 3, 3], [2, 0, 1]])
    settings = TrainSettings(rounds=4, per_round=3, similarity=50)
    _set_chunk(monkeypatch, task, 2)
    noise_rows = []

    def spy(w, augmented, clip_c, noise):
        noise_rows.append(noise.copy())
        return local_noisy_gradient(w, augmented, clip_c, noise)

    monkeypatch.setattr(flsim, "local_noisy_gradient", spy)
    noise_rng = np.random.default_rng(8)
    record = train(task, shards, plan.epsilons, schedule, settings, noise_rng)
    want = _serial_reference(task, shards, plan, schedule, settings, 8)
    got = np.stack([record.train_loss, record.test_loss, record.test_accuracy])
    assert got.tobytes() == want.tobytes()
    quiet = np.stack(noise_rows)[schedule == 3]
    assert np.all(quiet == 0.0) and np.all(np.signbit(quiet))
    expect = np.random.default_rng(8)
    expect.standard_normal((np.count_nonzero(schedule != 3), task.spec.weight_dim))
    assert noise_rng.bit_generator.state == expect.bit_generator.state


@pytest.mark.parametrize("schedule", [
    np.array([[0, 4]]),                   # past the last of 4 clients
    np.array([[0, -1]]),
    np.array([[0.0, 1.0]]),
    np.array([0, 1]),                     # 1-D
    np.zeros((0, 2), dtype=int),          # no round
    np.zeros((3, 0), dtype=int),          # no client in a round
])
def test_train_rejects_a_malformed_schedule_before_any_draw(rng, schedule):
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    noise_rng = np.random.default_rng(3)
    before = noise_rng.bit_generator.state
    with pytest.raises(ValueError, match=r"schedule must be a 2-D integer array "
                                         r".* every entry in \[0, 4\)"):
        train(task, shards, np.ones(4), schedule,
              TrainSettings(rounds=1, per_round=2), noise_rng)
    assert noise_rng.bit_generator.state == before


@pytest.mark.parametrize("epsilons", [np.ones(3), np.ones(5), np.ones((4, 1))])
def test_train_rejects_a_budget_count_unlike_the_client_count(rng, epsilons):
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    with pytest.raises(ValueError, match=r"one budget per client, shape \(4,\)"):
        train(task, shards, epsilons, np.array([[0, 1]]),
              TrainSettings(rounds=1, per_round=2), rng)


def test_a_large_round_gathers_and_draws_one_round_at_a_time(rng):
    # at 20,000 clients a round, one round's inputs and noise are more than
    # _EVAL_ELEMENTS elements, so each chunk is one round and one train call
    # stays within a few rounds' worth; gathering or drawing all 8 rounds at
    # once would take about 90 MB
    task = _small_task(rng, m=2)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4, eps=5.0)
    per_round, rounds = 20_000, 8
    schedule = build_schedule(plan.probabilities, rounds, per_round, rng)
    assert per_round * task.spec.weight_dim > flsim._EVAL_ELEMENTS  # a round's noise alone
    spec = task.spec
    one_round = per_round * (2 * (spec.feature_dim + 1) + spec.weight_dim) * 8  # bytes
    tracemalloc.start()
    try:
        record = train(task, shards, plan.epsilons, schedule,
                       TrainSettings(rounds=rounds, per_round=per_round, similarity=100),
                       np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.train_loss.size == rounds
    assert peak <= 6 * one_round


def test_divergence_in_the_last_chunk_only_is_recorded(rng, monkeypatch):
    # client 3's sigma overflows to inf; it is scheduled from round 8 on, so
    # of the chunks of 3 rounds only the last goes non-finite
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    plan = _uniform_plan(4, eps=5.0)
    plan.epsilons[3] = 5e-324
    schedule = np.array([[0, 1]] * 7 + [[3, 0]] * 2)
    _set_chunk(monkeypatch, task, 3)
    with np.errstate(over="ignore"):
        record = train(task, shards, plan.epsilons, schedule,
                       TrainSettings(rounds=9, per_round=2, similarity=100),
                       np.random.default_rng(2))
    assert np.all(np.isfinite(record.train_loss[:7]))
    assert not np.any(np.isfinite(record.train_loss[7:]))
    assert record.diverged


def test_a_metric_error_is_raised_from_train_and_its_worker_ends(rng, monkeypatch):
    def fail(*args):
        raise FloatingPointError("metric pass failed")

    monkeypatch.setattr(flsim, "_pool_and_test_metrics", fail)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="metric pass failed"):
        _toy_run(rng, plan_eps=5.0)
    assert threading.active_count() == threads


def test_a_diverging_run_emits_no_warning(rng):
    # the worker's own error state covers its whole pass, its products too
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        record, _ = _toy_run(rng, plan_eps=5e-324, rounds=3)
    assert record.diverged


def test_scheduled_client_with_zero_budget_is_a_config_error(rng):
    with pytest.raises(ValueError, match="zero privacy budget"):
        _toy_run(rng, plan_eps=0.0)


@pytest.mark.parametrize("malform", [
    np.ravel,
    lambda s: s.astype(float),
    lambda s: s[:, :0],
    lambda s: [s[0], s[1][:-1], s[2], s[3]],
    lambda s: s - 1,
], ids=["1-D", "float", "empty", "ragged-list", "negative-index"])
def test_train_rejects_malformed_shards_before_any_draw(rng, malform):
    task = _small_task(rng)
    shards = malform(partition_noniid(task, 100, rng))
    noise_rng = np.random.default_rng(3)
    before = noise_rng.bit_generator.state
    message = r"^shards must be an \(N, m\) integer array of pool indices in \[0, 96\)"
    with pytest.raises(ValueError, match=message):
        train(task, shards, np.ones(4), np.array([[0, 1]]),
              TrainSettings(rounds=1, per_round=2), noise_rng)
    assert noise_rng.bit_generator.state == before
    with pytest.raises(ValueError, match=message):
        initial_local_losses(task, shards, np.zeros(task.spec.weight_dim))


@pytest.mark.parametrize("weights", [np.zeros(5), np.zeros(19), np.zeros((3, 6)),
                                     np.zeros((1, 18))])
def test_misshapen_weights_are_rejected_before_any_draw(rng, weights):
    task = _small_task(rng)  # W = 3 classes x (5 features + 1) = 18
    shards = partition_noniid(task, 100, rng)
    noise_rng = np.random.default_rng(3)
    before = noise_rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^w0 must hold the task's 18 weights, "
                                         r"shape \(18,\), got "):
        train(task, shards, np.ones(4), np.array([[0, 1]]),
              TrainSettings(rounds=1, per_round=2), noise_rng, w0=weights)
    assert noise_rng.bit_generator.state == before
    with pytest.raises(ValueError, match=r"^w must hold the task's 18 weights"):
        initial_local_losses(task, shards, weights)


def test_initial_local_losses_probe(rng):
    task = _small_task(rng)
    shards = partition_noniid(task, 100, rng)
    w = rng.normal(0, 0.1, task.spec.weight_dim)
    losses = initial_local_losses(task, shards, w)
    assert losses.shape == (4,)
    assert np.all(losses > 0)
