import copy
import itertools
import json
import math
import os
import re
import select
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import (
    backprop_gradients,
    finite_difference_gradients,
    max_relative_gradient_error,
    min_hidden_preactivation,
    reference_gradients,
    reference_sigmoid,
    reference_train,
)
from spoofbench import mlp
from spoofbench.baseline import accuracy, confusion_matrix, loss_mse
from spoofbench.mlp import (
    ADAM_BETA1,
    BATCH_SIZE,
    VALIDATION_FRACTION,
    GridResult,
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    forward_batch,
    init_model,
    load_model,
    save_model,
    selection_key,
    train,
    train_stack,
    tune,
)


def zero_model(input_width=2, hidden_layers=1, neurons=4):
    arch = MlpArchitecture(input_width, hidden_layers, neurons)
    model = init_model(arch, np.random.default_rng(0))
    model.weights = [np.zeros_like(w) for w in model.weights]
    model.biases = [np.zeros_like(b) for b in model.biases]
    return model


def blobs(n=400, seed=0, sep=2.0, std=0.5):
    """Linearly separable two-feature toy set."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal([-sep, 0.0], std, size=(half, 2))
    x1 = rng.normal([sep, 0.0], std, size=(n - half, 2))
    X = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    return X, y


# --------------------------------------------------------------------- forward


def test_forward_all_zero_parameters_gives_half():
    assert forward_batch(zero_model(), [3.0, -1.0]).tolist() == [0.5]


def test_forward_single_unit_chain_at_zero_input():
    arch = MlpArchitecture(1, 1, 1)
    model = init_model(arch, np.random.default_rng(0))
    model.weights = [np.ones((1, 1)), np.ones((1, 1))]
    model.biases = [np.zeros(1), np.zeros(1)]
    assert forward_batch(model, [0.0]).tolist() == [0.5]  # ReLU(0) = 0 then logistic(0)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(7)
    arch = MlpArchitecture(4, 2, 5)
    model = init_model(arch, rng)
    model.norm_mean = rng.normal(size=4)
    model.norm_std = rng.uniform(0.5, 2.0, size=4)
    x = rng.normal(size=4)

    a = [(xi - mu) / sd for xi, mu, sd in zip(x, model.norm_mean, model.norm_std)]
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = [sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])]
        if layer < len(model.weights) - 1:
            a = [max(v, 0.0) for v in z]
        else:
            a = [1.0 / (1.0 + math.exp(-z[0]))]
    assert forward_batch(model, x)[0] == pytest.approx(a[0], rel=1e-12)


def test_forward_rejects_width_mismatch():
    with pytest.raises(ValueError, match="width"):
        forward_batch(zero_model(input_width=3), [1.0, 2.0])


def test_forward_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        model = init_model(MlpArchitecture(3, 2, 8), rng)
        out = forward_batch(model, rng.normal(size=(50, 3)) * 10)
        assert np.all((out > 0.0) & (out < 1.0))


def test_forward_batch_results_share_no_buffer():
    """forward_batch keeps no buffer between calls: each result is a new
    array that no later call, on this thread or another, writes over."""
    model = init_model(MlpArchitecture(3, 2, 4), np.random.default_rng(0))
    X = np.random.default_rng(1).normal(size=(5, 3))
    first = forward_batch(model, X)
    expected = first.copy()
    second = forward_batch(model, -X)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, expected)


def test_sigmoid_equals_the_two_branch_formula_with_its_sign_bits():
    """The branch-free sigmoid rounds the quotient each branch rounds, and
    raises no overflow, division or invalid-value error at any extreme."""
    magnitudes = [0.0, 5e-324, 1e-310, 1e-20, 1.0, 36.0, 40.0, 700.0, 745.0, 800.0, np.inf]
    z = np.array([v for m in magnitudes for v in (m, -m)])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        expected = reference_sigmoid(z)
        got, nan = z.copy(), np.array([np.nan, -np.nan])
        for a in (got, nan):
            mlp._run(mlp._sigmoid_calls(a, np.empty_like(a)))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.all(np.isnan(nan))


# --------------------------------------------------------------- loss/accuracy


def test_loss_mse_examples():
    assert loss_mse([1.0, 0.0, 1.0], [1.0, 0.0, 1.0]) == 0.0
    assert loss_mse([0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 1.0, 0.0]) == pytest.approx(0.25)
    assert loss_mse([0.9], [1.0]) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        loss_mse([], [])


def test_accuracy_examples():
    assert accuracy([0.9] * 5 + [0.1] * 5, [1] * 5 + [0] * 5) == 1.0
    assert accuracy([0.9] * 10, [1] * 5 + [0] * 5) == 0.5
    # confusion (tp, fp, fn, tn) = (3, 1, 2, 4) -> 7/10
    predictions = [0.8, 0.8, 0.8, 0.8, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2]
    labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    assert accuracy(predictions, labels) == pytest.approx(0.7)
    assert confusion_matrix(predictions, labels) == {"tp": 3, "fp": 1, "fn": 2, "tn": 4}
    with pytest.raises(ValueError):
        accuracy([0.5], [1, 0])


@pytest.mark.parametrize("predictions,labels", [([0.9], [1, 0, 1, 0]), ([0.9, 0.1], [1]), ([], [])])
def test_confusion_matrix_rejects_unequal_or_empty_input(predictions, labels):
    with pytest.raises(ValueError, match="equal-length and non-empty"):
        confusion_matrix(predictions, labels)


def test_prediction_threshold_is_inclusive():
    assert accuracy([0.5], [1]) == 1.0  # exactly at the cut counts as spoofed


# -------------------------------------------------------------------- gradients


def test_gradients_vanish_at_stationary_point():
    model = zero_model()
    grads_w, grads_b = backprop_gradients(model, [[1.0, 2.0], [0.5, -1.0]], [0.5, 0.5])
    for g in grads_w + grads_b:
        assert np.all(g == 0.0)


def test_gradients_match_hand_chain_rule_single_unit():
    arch = MlpArchitecture(1, 1, 1)
    model = init_model(arch, np.random.default_rng(0))
    w1, b1, w2, b2 = 0.7, 0.1, -1.3, 0.2
    model.weights = [np.array([[w1]]), np.array([[w2]])]
    model.biases = [np.array([b1]), np.array([b2])]
    x, y = 0.5, 1.0

    z1 = w1 * x + b1
    a1 = max(z1, 0.0)
    z2 = w2 * a1 + b2
    y_hat = 1.0 / (1.0 + math.exp(-z2))
    delta2 = 2.0 * (y_hat - y) * y_hat * (1.0 - y_hat)
    expected = {
        "w2": delta2 * a1,
        "b2": delta2,
        "w1": delta2 * w2 * (1.0 if z1 > 0 else 0.0) * x,
        "b1": delta2 * w2 * (1.0 if z1 > 0 else 0.0),
    }
    grads_w, grads_b = backprop_gradients(model, [[x]], [y])
    assert grads_w[0][0, 0] == pytest.approx(expected["w1"], rel=1e-12)
    assert grads_b[0][0] == pytest.approx(expected["b1"], rel=1e-12)
    assert grads_w[1][0, 0] == pytest.approx(expected["w2"], rel=1e-12)
    assert grads_b[1][0] == pytest.approx(expected["b2"], rel=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 10:
        arch = MlpArchitecture(
            int(rng.integers(2, 5)), int(rng.integers(1, 3)), int(rng.integers(3, 8))
        )
        model = init_model(arch, rng)
        X = rng.normal(size=(6, arch.input_width))
        y = rng.integers(0, 2, size=6).astype(float)
        if min_hidden_preactivation(model, X) < 1e-4:
            continue  # kink within the step: central differences undefined
        analytic = backprop_gradients(model, X, y)
        numeric = finite_difference_gradients(model, X, y)
        assert max_relative_gradient_error(analytic, numeric) <= 1e-4
        checked += 1


@pytest.mark.parametrize("n_models", [1, 3])
@pytest.mark.parametrize("depth", [1, 2, 3, 5])  # depth 1: each merged hidden-layer call covers one layer
@pytest.mark.parametrize("width", [1, 16, 32])
@pytest.mark.parametrize("lo,hi", [(0, 1), (1792, 1807), (0, 32)])  # 1807 rows: a last batch of 15
def test_trainer_gradient_equals_the_reference_gradient_bit_for_bit(n_models, depth, width, lo, hi):
    """A stack's step on a batch view of an epoch's rows, as the trainer
    passes it, against the per-model reference on the same rows."""
    rng = np.random.default_rng(7)
    arch = MlpArchitecture(3, depth, width)  # (3, 3, 16) is the wd/3 preset's shape
    models = [init_model(arch, rng) for _ in range(n_models)]
    X_epoch, y_epoch = rng.normal(size=(1807, 3)), rng.integers(0, 2, size=(1807, 1)).astype(float)
    x, y = X_epoch[lo:hi], y_epoch[lo:hi]
    params = np.stack([mlp._flatten(m.weights, m.biases) for m in models])
    stack = mlp._Stack(arch.layer_sizes(), params, np.zeros(n_models), [(x, x.T, y)], [])
    mlp._run(stack.steps[0])
    grad_w, grad_b = mlp._layer_views(stack.grads, stack.sizes)
    for i, model in enumerate(models):
        ref_w, ref_b = reference_gradients(model.weights, model.biases, x, y[:, 0])
        assert all(np.array_equal(g[i], r) for g, r in zip(grad_w, ref_w))
        assert all(np.array_equal(g[i, 0], r) for g, r in zip(grad_b, ref_b))


SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310]


@given(pairs=st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=64))
@example(pairs=list(itertools.product(SPECIAL_FLOATS, SPECIAL_FLOATS + [1.0, -1.0])))
def test_a_float_relu_mask_multiplies_to_the_bits_of_a_bool_mask(pairs):
    """The trainer's ReLU mask is `np.greater` written as float64 0.0/1.0:
    delta * that mask has the bits delta * the bool mask has, for every
    delta, the signed zeros, infinities, NaNs and subnormals too."""
    delta, act = np.array(pairs).T
    float_mask = np.greater(act, np.array(0.0), np.empty_like(act))
    assert set(float_mask.tolist()) <= {0.0, 1.0}
    assert np.array_equal(np.signbit(float_mask), np.zeros(len(act), dtype=bool))
    with np.errstate(invalid="ignore"):  # inf * 0.0, as the trainer allows
        got, expected = delta * float_mask, delta * (act > 0.0)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_flatten_lays_out_every_layers_weights_then_every_layers_biases():
    sizes = MlpArchitecture(3, 2, 4).layer_sizes()
    weights = [100.0 * k + np.arange(a * b).reshape(a, b) for k, (a, b) in enumerate(zip(sizes, sizes[1:]))]
    biases = [-100.0 * k - np.arange(b) - 1.0 for k, b in enumerate(sizes[1:])]
    flat = mlp._flatten(weights, biases)
    assert flat.tolist() == [v for w in weights for v in w.ravel()] + [v for b in biases for v in b]
    views_w, views_b = mlp._layer_views(np.stack([flat, 2.0 * flat]), sizes)
    for row, scale in enumerate([1.0, 2.0]):
        assert all(np.array_equal(v[row], scale * w) for v, w in zip(views_w, weights, strict=True))
        assert all(np.array_equal(v[row, 0], scale * b) for v, b in zip(views_b, biases, strict=True))


@pytest.mark.parametrize("n_models,kept", [(1, [0]), (3, [0, 2]), (3, [1])])
def test_hidden_bias_gradients_are_one_view_of_the_gradient_buffer(n_models, kept):
    """Before and after `keep`, the merged (depth, [L,] 1, width) view is the
    hidden layers' bias-gradient views of `stack.grads`."""
    arch = MlpArchitecture(3, 3, 16)
    model = init_model(arch, np.random.default_rng(1))
    params = np.tile(mlp._flatten(model.weights, model.biases), (n_models, 1))
    stack = mlp._Stack(arch.layer_sizes(), params, np.full(n_models, 0.01), [], [])

    def check(rows):
        assert stack.grad_b_hidden.shape == (3, *((rows,) if rows > 1 else ()), 1, 16)
        assert np.shares_memory(stack.grad_b_hidden, stack.grads)
        stack.grads[:] = np.arange(stack.grads.size).reshape(stack.grads.shape)
        assert all(np.array_equal(h, b) for h, b in zip(stack.grad_b_hidden, stack.grad_b[:-1], strict=True))

    check(n_models)
    stack.keep(kept)
    check(len(kept))


def _stack(arch, n_models, batches=(), passes=()):
    model = init_model(arch, np.random.default_rng(1))
    params = np.tile(mlp._flatten(model.weights, model.biases), (n_models, 1))
    return mlp._Stack(arch.layer_sizes(), params, np.full(n_models, 0.01), list(batches), list(passes))


def _batches(rows):
    """(x, x_t, y) views of rows of inputs and labels, 32 rows a batch."""
    X, y = np.random.default_rng(2).normal(size=(rows, 3)), np.ones((rows, 1))
    return [(X[lo : lo + 32], X[lo : lo + 32].T, y[lo : lo + 32]) for lo in range(0, rows, 32)]


def _operands(call) -> list:
    """The arrays a (callable, operands) call reads or writes, the array a
    bound `dot` belongs to included."""
    f, args = call
    return [a for a in (getattr(f, "__self__", None), *args) if isinstance(a, np.ndarray)]


def _reads(call, operand) -> bool:
    """Whether a call has operand among its operands."""
    return any(a is operand for a in _operands(call))


def _bound(stack) -> list:
    """Every array the stack's call lists bind."""
    lists = [*stack.steps, *(calls for passes in stack.evaluations for calls in passes), *stack._adam]
    return [a for calls in lists for call in calls for a in _operands(call)]


@pytest.mark.parametrize("n_models,kept", [(1, [0]), (3, [0, 2]), (3, [1])])
def test_full_batches_share_every_gradient_call_but_the_three_that_read_the_batch(n_models, kept):
    """Two full batches' call lists hold the same call objects but x's
    product with the first layer's weights, the output error y_hat - y and
    the weight gradient x_t @ delta, each reading its own batch; after
    `keep`, the lists are made anew on new buffers and share the same way."""
    arch, batches = MlpArchitecture(3, 3, 16), _batches(79)
    passes = mlp._evaluation_passes(arch, batches[0][0], batches[1][0][:20])
    stack = _stack(arch, n_models, batches, passes)

    def check(lists):
        first, second, _ = lists
        differ = [k for k, (a, b) in enumerate(zip(first, second, strict=True)) if a is not b]
        assert len(differ) == 3 and differ[0] == 0 and differ[-1] == len(first) - 2
        for calls, (x, x_t, y_batch) in zip(lists, batches, strict=True):
            assert [_reads(calls[k], operand) for k, operand in zip(differ, (x, y_batch, x_t))] == [True] * 3

    before, old = stack.steps, _bound(stack)
    check(before)
    stack.keep(kept)
    check(stack.steps)
    assert not any(a is b for a, b in zip(before[0], stack.steps[0]))
    held = [a for batch in batches for a in batch] + [a for x, outs, e in passes for a in (x, *outs, e)]
    new = [a for a in _bound(stack) if not any(np.shares_memory(a, h) for h in held)]
    assert new and not any(np.shares_memory(a, b) for a in new for b in old)


def _gradient_buffers(calls) -> list:
    """A step's six buffers: the hidden activations and ReLU masks, which
    the mask call reads and writes, the deltas the last call reduces,
    y_hat and d of the output error, and the temporary 1 - y_hat."""
    ((_, (hidden, _, mask)),) = [call for call in calls if call[0] is np.greater]
    error, complement = [args for f, args in calls if f is np.subtract]
    return [hidden, mask, calls[-1][1][0], error[0], error[2], complement[2]]


@pytest.mark.parametrize("n_models,kept", [(1, [0]), (3, [0, 2])])
def test_a_short_batch_the_validation_pass_and_adams_update_reuse_held_buffers(n_models, kept):
    """A short batch's buffers are the first rows of a full one's, before
    and after `keep`; the validation pass writes the first rows of the
    training pass's buffers; Adam's update is written into `stack.grads`."""
    arch = MlpArchitecture(3, 3, 16)
    stack = _stack(arch, n_models, _batches(47))

    def check():
        full, short = (_gradient_buffers(calls) for calls in (stack.steps[0], stack.steps[-1]))
        assert [b.shape[-2] for b in full + short] == [32] * 6 + [15] * 6
        assert all(np.shares_memory(a, b) for a, b in zip(short, full, strict=True))
        for calls in stack._adam:
            f, (p, update, out) = calls[-1]
            assert f is np.subtract and p is out is stack.params
            assert np.shares_memory(update, stack.grads)

    check()
    stack.keep(kept)
    check()
    (_, train_outs, train_e), (_, val_outs, val_e) = mlp._evaluation_passes(arch, np.zeros((1807, 3)), np.zeros((452, 3)))
    assert [len(out) for out in (*val_outs, val_e)] == [452] * 5
    assert all(np.shares_memory(v, t) for v, t in zip([*val_outs, val_e], [*train_outs, train_e], strict=True))


# ---------------------------------------------------------------------- train


def test_train_separable_toy_reaches_full_accuracy():
    X, y = blobs()
    model = train(MlpArchitecture(2, 1, 8), X, y, TrainConfig(learning_rate=0.01, rng_seed=1))
    assert accuracy(forward_batch(model, X), y) == 1.0
    assert len(model.history) <= 500


def test_train_halts_after_patience_non_improving_epochs():
    # overlapping classes: validation MSE bottoms out, then stalls
    X, y = blobs(n=300, seed=4, sep=0.6, std=1.0)
    config = TrainConfig(learning_rate=0.01, patience=7, max_epochs=500, rng_seed=2)
    model = train(MlpArchitecture(2, 1, 8), X, y, config)
    assert len(model.history) < 500  # early stopping actually triggered
    assert len(model.history) == model.best_epoch + config.patience


def test_train_returns_best_snapshot():
    X, y = blobs(n=300, seed=5)
    model = train(MlpArchitecture(2, 1, 6), X, y, TrainConfig(learning_rate=0.05, rng_seed=3))
    best = min(s.val_mse for s in model.history)
    assert model.val_mse == best
    assert model.history[model.best_epoch - 1].val_mse == best


def test_train_is_deterministic_for_a_seed():
    X, y = blobs(n=200, seed=6)
    config = TrainConfig(learning_rate=0.01, max_epochs=40, rng_seed=9)
    a = train(MlpArchitecture(2, 1, 4), X, y, config)
    b = train(MlpArchitecture(2, 1, 4), X, y, config)
    assert a.history == b.history
    assert all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights))


def test_train_rejects_single_class_and_bad_labels():
    X = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ValueError, match="single class"):
        train(MlpArchitecture(2, 1, 4), X, np.zeros(20), TrainConfig(learning_rate=0.01))
    with pytest.raises(ValueError, match="labels"):
        train(MlpArchitecture(2, 1, 4), X, np.full(20, 0.3), TrainConfig(learning_rate=0.01))


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0])
def test_train_config_rejects_a_non_finite_or_non_positive_learning_rate(lr):
    with pytest.raises(ValueError, match="learning_rate must be > 0 and finite"):
        TrainConfig(learning_rate=lr)


def test_train_normalization_absorbs_affine_feature_rescaling():
    X, y = blobs(n=240, seed=8)
    rescaled = X.copy()
    rescaled[:, 0] = 3.7 * rescaled[:, 0] - 11.0
    config = TrainConfig(learning_rate=0.01, max_epochs=60, rng_seed=4)
    base = train(MlpArchitecture(2, 1, 8), X, y, config)
    other = train(MlpArchitecture(2, 1, 8), rescaled, y, config)
    X_test, y_test = blobs(n=100, seed=9)
    rescaled_test = X_test.copy()
    rescaled_test[:, 0] = 3.7 * rescaled_test[:, 0] - 11.0
    decisions_base = forward_batch(base, X_test) >= 0.5
    decisions_other = forward_batch(other, rescaled_test) >= 0.5
    assert np.array_equal(decisions_base, decisions_other)


def test_train_on_shuffled_labels_is_chance_level():
    X, y = blobs(n=1200, seed=10)
    rng = np.random.default_rng(0)
    y_shuffled = y[rng.permutation(len(y))]
    model = train(MlpArchitecture(2, 2, 16), X, y_shuffled,
                  TrainConfig(learning_rate=0.005, rng_seed=5))
    X_test, y_test = blobs(n=1000, seed=11)
    y_test_shuffled = y_test[rng.permutation(len(y_test))]
    acc = accuracy(forward_batch(model, X_test), y_test_shuffled)
    assert acc == pytest.approx(0.5, abs=0.05)


# ----------------------------------------------------------------------- tune


def test_tune_singleton_grid_returns_that_configuration():
    X, y = blobs(n=200, seed=12)
    result = tune(
        X, y, TrainConfig(learning_rate=0.01, max_epochs=30, rng_seed=1),
        learning_rates=(0.01,), hidden_layers=(2,), neurons=(4,),
    )
    assert len(result.results) == 1
    assert (result.ranks, result.best_index) == ([1], 0)
    assert result.best_model.architecture == MlpArchitecture(2, 2, 4)


@pytest.mark.parametrize("jobs", [0, -3])
def test_tune_refuses_fewer_than_one_job(jobs):
    X, y = blobs(n=20, seed=13)
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        tune(X, y, TrainConfig(learning_rate=0.01, max_epochs=1), neurons=(3,), jobs=jobs)


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"learning_rates": (0.01, 0.05, 1e-2)}, "the learning rate grid repeats 0.01"),
        ({"hidden_layers": (1, 2, 1)}, "the hidden layers grid repeats 1"),
        ({"neurons": [4, 4]}, "the neurons grid repeats 4"),
    ],
)
def test_tune_refuses_a_grid_that_repeats_a_value(forks, grid, message):
    X, y = blobs(n=20, seed=13)
    grid = {"learning_rates": (0.01,), "hidden_layers": (1,), "neurons": (3,), **grid}
    with pytest.raises(ValueError, match=f"^{message}$"):
        tune(X, y, TrainConfig(learning_rate=0.01, max_epochs=1), **grid)
    assert forks == []  # refused before any training


def test_tune_explores_the_whole_grid_and_is_parallel_safe():
    X, y = blobs(n=150, seed=13)
    base = TrainConfig(learning_rate=0.01, max_epochs=10, rng_seed=1)
    seq = tune(X, y, base, learning_rates=(0.05, 0.01), hidden_layers=(1, 2), neurons=(3,))
    par = tune(X, y, base, learning_rates=(0.05, 0.01), hidden_layers=(1, 2), neurons=(3,), jobs=3)
    assert len(seq.results) == 4
    assert seq.results == par.results
    assert seq.best_index == par.best_index


def _same_model(a, b):
    return (
        a.history == b.history
        and a.best_epoch == b.best_epoch
        and a.train_config == b.train_config
        and all(np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases))
        and np.array_equal(a.norm_mean, b.norm_mean)
        and np.array_equal(a.norm_std, b.norm_std)
    )


@pytest.mark.parametrize(
    "arch,rows,config",
    [
        (MlpArchitecture(2, 1, 8), 300, TrainConfig(learning_rate=0.01, max_epochs=25, rng_seed=1)),
        # 33 training rows: a last batch of one row
        (MlpArchitecture(2, 3, 5), 41, TrainConfig(learning_rate=0.05, max_epochs=60, patience=3, rng_seed=2)),
        # 16 training rows: one short batch and no full one
        (MlpArchitecture(2, 3, 5), 20, TrainConfig(learning_rate=0.05, max_epochs=60, patience=3, rng_seed=2)),
    ],
)
def test_train_equals_the_per_tensor_reference_bit_for_bit(arch, rows, config):
    X, y = blobs(n=rows, seed=4, sep=0.6, std=1.0)
    model = train(arch, X, y, config)
    weights, biases, history, best_epoch = reference_train(arch, X, y, config)
    assert (model.history, model.best_epoch) == (history, best_epoch)
    assert all(np.array_equal(a, b) for a, b in zip(model.weights + model.biases, weights + biases))


def test_train_equals_the_per_tensor_reference_past_adams_last_bias_correction():
    """From the first step at which 1 - beta1^step rounds to 1.0, the trainer
    no longer divides by it; the reference divides at every step."""
    cutoff = next(step for step in itertools.count(1) if 1.0 - ADAM_BETA1**step == 1.0)
    arch = MlpArchitecture(2, 1, 8)
    config = TrainConfig(learning_rate=0.001, max_epochs=60, patience=60, rng_seed=1)
    X, y = blobs(n=300, seed=4, sep=0.6, std=1.0)
    model = train(arch, X, y, config)
    train_rows = len(X) - round(VALIDATION_FRACTION * len(X))
    steps_per_epoch = math.ceil(train_rows / BATCH_SIZE)
    # 480 steps, and the snapshot compared below is the last epoch's
    assert model.best_epoch * steps_per_epoch > cutoff
    weights, biases, history, best_epoch = reference_train(arch, X, y, config)
    assert (model.history, model.best_epoch) == (history, best_epoch)
    assert all(np.array_equal(a, b) for a, b in zip(model.weights + model.biases, weights + biases))


@pytest.mark.parametrize(
    "arch,rows",
    [
        (MlpArchitecture(2, 2, 6), 300),
        (MlpArchitecture(1, 2, 6), 300),  # input width 1, as a 1-station wd row
        (MlpArchitecture(2, 1, 1), 300),  # hidden width 1
        (MlpArchitecture(2, 2, 6), 281),  # 225 training rows: a last batch of one row
        (MlpArchitecture(2, 2, 6), 20),  # 16 training rows: one short batch and no full one
    ],
)
def test_train_stack_equals_one_train_per_learning_rate(arch, rows):
    X, y = blobs(n=rows, seed=4, sep=0.6, std=1.0)
    X = X[:, : arch.input_width]
    config = TrainConfig(learning_rate=0.01, patience=3, max_epochs=60, rng_seed=2)
    rates = (0.002, 0.05, 0.01)  # the fastest to stop sits mid-stack
    models = train_stack(arch, X, y, config, rates)
    # Each stops at its own epoch, so the stack shrinks to one model and
    # the last one trains on its 2-D path.
    assert len({len(m.history) for m in models}) == len(rates)
    for lr, model in zip(rates, models):
        lr_config = replace(config, learning_rate=lr)
        assert _same_model(model, train(arch, X, y, lr_config))
        weights, biases, history, best_epoch = reference_train(arch, X, y, lr_config)
        assert (model.history, model.best_epoch) == (history, best_epoch)
        assert all(np.array_equal(a, b) for a, b in zip(model.weights + model.biases, weights + biases))


def test_train_stack_remakes_its_call_lists_when_its_first_row_stops():
    """Row 0 stops first, so `keep` remakes every buffer under the rows that
    train on; their steps and evaluations must then run on the new ones."""
    arch = MlpArchitecture(2, 2, 6)
    X, y = blobs(n=300, seed=4, sep=0.6, std=1.0)
    config = TrainConfig(learning_rate=0.01, patience=3, max_epochs=60, rng_seed=2)
    rates = (0.05, 0.002, 0.01)
    models = train_stack(arch, X, y, config, rates)
    first, *rest = (len(m.history) for m in models)
    assert all(epochs >= first + 2 for epochs in rest)
    for lr, model in zip(rates, models):
        assert _same_model(model, train(arch, X, y, replace(config, learning_rate=lr)))


def three_cpus(monkeypatch) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))


def refuse_fork(monkeypatch) -> None:
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("os.fork called"))


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_tune_equals_one_train_per_configuration_bit_for_bit(monkeypatch, forks, jobs):
    X, y = blobs(n=300, seed=4, sep=0.6, std=1.0)
    base = TrainConfig(learning_rate=0.01, patience=3, max_epochs=60, rng_seed=2)
    rates, depths, widths = (0.01, 0.05, 0.002), (1, 2), (3, 6)
    three_cpus(monkeypatch)
    if jobs == 1:  # the grid trains in this process
        refuse_fork(monkeypatch)
    result = tune(X, y, base, learning_rates=rates, hidden_layers=depths, neurons=widths, jobs=jobs)
    assert len(forks) == jobs - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    combos = [(lr, depth, width) for lr in rates for depth in depths for width in widths]
    models = [
        train(MlpArchitecture(2, depth, width), X, y, replace(base, learning_rate=lr))
        for lr, depth, width in combos
    ]
    for depth in depths:  # the stop-and-drop path runs: rates of one shape stop apart
        for width in widths:
            runs = {r.epochs_run for r in result.results if (r.hidden_layers, r.neurons) == (depth, width)}
            assert len(runs) > 1
    expected = [
        GridResult(lr, depth, width, MlpArchitecture(2, depth, width).parameter_count(),
                   len(m.history), m.best_epoch, m.val_mse, m.val_accuracy)
        for (lr, depth, width), m in zip(combos, models)
    ]
    assert result.results == expected
    order = sorted(range(len(expected)), key=lambda i: (selection_key(expected[i]), i))
    assert result.ranks == [order.index(i) + 1 for i in range(len(expected))]
    winner = order[0]
    assert result.best_index == winner
    assert _same_model(result.best_model, models[winner])


@pytest.mark.parametrize("where", ["caller", "child"])
def test_a_failing_architecture_raises_its_error_and_leaves_no_child(monkeypatch, forks, where):
    X, y = blobs(n=150, seed=13)
    base = TrainConfig(learning_rate=0.01, max_epochs=10, rng_seed=1)
    depths = (1, 2, 3)
    three_cpus(monkeypatch)
    caller, train_stack = os.getpid(), mlp.train_stack
    # The caller's first architecture is the largest, depth 3; the child's
    # is the next, depth 2, and it fails before it can take another.
    failing = 3 if where == "caller" else 2

    def fail_one(arch, *args):
        if (os.getpid() == caller) == (where == "caller") and arch.hidden_layers == failing:
            raise ValueError(f"depth {failing} fails")
        return train_stack(arch, *args)

    monkeypatch.setattr(mlp, "train_stack", fail_one)
    with pytest.raises(ValueError) as error:
        tune(X, y, base, learning_rates=(0.01,), hidden_layers=depths, neurons=(3,), jobs=2)
    assert type(error.value) is ValueError and str(error.value) == f"depth {failing} fails"
    assert len(forks) == 1
    # Only a child's error comes with the child's traceback as its cause.
    assert (error.value.__cause__ is not None) == (where == "child")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_free_process_takes_the_next_architecture(monkeypatch, forks):
    X, y = blobs(n=150, seed=13)
    base = TrainConfig(learning_rate=0.01, max_epochs=5, rng_seed=1)
    grid = {"learning_rates": (0.01, 0.05), "hidden_layers": (1, 2, 3, 4), "neurons": (3,)}
    three_cpus(monkeypatch)
    caller, train_stack, (done_r, done_w) = os.getpid(), mlp.train_stack, os.pipe()
    waited = []  # the caller's first architecture, once it has waited

    def wait_for_the_others(arch, *args):
        if os.getpid() == caller and not waited:
            # Every other architecture must train while this one waits.
            waited.append(arch.hidden_layers)
            signals, deadline = b"", time.monotonic() + 30
            while len(signals) < len(grid["hidden_layers"]) - 1:
                if not select.select([done_r], [], [], max(0.0, deadline - time.monotonic()))[0]:
                    pytest.fail(f"the caller waited 30 s; {len(signals)} other architectures trained")
                signals += os.read(done_r, 64)
            return train_stack(arch, *args)
        models = train_stack(arch, *args)
        os.write(done_w, b".")
        return models

    monkeypatch.setattr(mlp, "train_stack", wait_for_the_others)
    try:
        result = tune(X, y, base, **grid, jobs=2)
    finally:
        os.close(done_r)
        os.close(done_w)
    assert waited == [4] and len(forks) == 1
    monkeypatch.setattr(mlp, "train_stack", train_stack)
    alone = tune(X, y, base, **grid, jobs=1)
    assert result.results == alone.results and result.ranks == alone.ranks
    assert _same_model(result.best_model, alone.best_model)


def test_a_running_thread_keeps_tune_in_one_process(monkeypatch):
    X, y = blobs(n=150, seed=13)
    three_cpus(monkeypatch)
    refuse_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        tune(X, y, TrainConfig(learning_rate=0.01, max_epochs=5), learning_rates=(0.01,),
             hidden_layers=(1, 2), neurons=(3,), jobs=3)
    finally:
        release.set()
        thread.join()


def test_selection_prefers_mse_then_accuracy_then_size():
    rows = [
        GridResult(0.01, 2, 8, 100, 20, 10, val_mse=0.10, val_accuracy=0.90),
        GridResult(0.01, 2, 4, 50, 20, 10, val_mse=0.05, val_accuracy=0.90),
        GridResult(0.01, 2, 2, 30, 20, 10, val_mse=0.05, val_accuracy=0.95),
        GridResult(0.01, 2, 1, 20, 20, 10, val_mse=0.05, val_accuracy=0.95),
    ]
    ranked = sorted(range(len(rows)), key=lambda i: (selection_key(rows[i]), i))
    assert ranked == [3, 2, 1, 0]  # smallest mse, then higher acc, then fewer params


# ------------------------------------------------------------------------- io


META = {"method": "wd", "n_bs": 2, "dataset_spec_hash": "0" * 64}  # the rows of the width-2 models below


def test_model_json_round_trip(tmp_path):
    X, y = blobs(n=120, seed=14)
    model = train(MlpArchitecture(2, 1, 4), X, y,
                  TrainConfig(learning_rate=0.01, max_epochs=15, rng_seed=2))
    path = tmp_path / "model.json"
    save_model(model, path, META)
    loaded, meta = load_model(path)
    assert meta == META
    assert loaded.architecture == model.architecture
    assert loaded.best_epoch == model.best_epoch
    assert loaded.train_config == model.train_config
    assert loaded.history == model.history
    assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, model.weights))
    assert np.array_equal(loaded.norm_mean, model.norm_mean)
    assert np.array_equal(forward_batch(loaded, X), forward_batch(model, X))


def test_save_model_refuses_a_nan_it_cannot_write_as_json(tmp_path):
    X, y = blobs(n=120, seed=14)
    model = train(MlpArchitecture(2, 1, 4), X, y,
                  TrainConfig(learning_rate=0.01, max_epochs=3, rng_seed=2))
    model.history[1] = replace(model.history[1], val_mse=math.nan)
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="JSON"):
        save_model(model, path, META)
    assert not path.exists()


def test_save_model_refuses_an_untrained_model_it_could_not_load(tmp_path):
    model = init_model(MlpArchitecture(3, 1, 4), np.random.default_rng(0))
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="untrained model"):
        save_model(model, path, META)
    assert not path.exists()


@pytest.mark.parametrize("key,value,message", [
    ("method", "wd,x", "meta.method must be one of"),
    ("n_bs", 4, "meta.n_bs must be one of"),
    ("method", "mvsk", "meta: mvsk features of 2 stations are 8 wide, but architecture.input_width is 2"),
])
def test_save_model_refuses_the_meta_load_model_would(tmp_path, key, value, message):
    model = train(MlpArchitecture(2, 1, 4), *blobs(n=120, seed=14), TrainConfig(learning_rate=0.01, max_epochs=3))
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match=message):
        save_model(model, path, {**META, key: value})
    assert not path.exists()


def test_load_model_rejects_other_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="not a"):
        load_model(path)


def _model_doc():
    """A saved model document."""
    X, y = blobs(n=120, seed=14)
    model = train(MlpArchitecture(2, 1, 3), X, y,
                  TrainConfig(learning_rate=0.05, max_epochs=12, patience=2, rng_seed=2))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path, META)
        return json.loads(path.read_text())


VALID_MODEL_DOC = _model_doc()


def test_the_valid_model_document_loads(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(VALID_MODEL_DOC))
    model, meta = load_model(path)
    assert meta == META
    assert model.train_config == TrainConfig(learning_rate=0.05, max_epochs=12, patience=2, rng_seed=2)


def _edited(edit):
    doc = copy.deepcopy(VALID_MODEL_DOC)
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d.pop("weights"), "model missing keys: weights"),
        (lambda d: d.pop("best_epoch"), "model missing keys: best_epoch"),
        (lambda d: d.update(norm_mean="0"), "norm_mean must be a 2 array"),
        (lambda d: d["weights"][0][0].__setitem__(0, True), r"weights\[0\] must be a number"),
        (lambda d: d["weights"][1].append([0.5]), r"weights\[1\] must be a 3 x 1 array"),
        (lambda d: d["biases"].pop(), "biases must be a list of 2 layers"),
        (lambda d: d["architecture"].update(input_width="2"), "architecture.input_width must be an integer"),
        (lambda d: d["architecture"].update(hidden_layers=0), "architecture: architecture sizes must be >= 1"),
        (lambda d: d["architecture"].update(dropout=0.1), r"architecture: unknown fields \['dropout'\]"),
        (lambda d: d["train_config"].update(momentum=0.9), r"train_config: unknown fields \['momentum'\]"),
        (lambda d: d["train_config"].pop("patience"), r"missing fields \['patience'\]"),
        (lambda d: d["train_config"].update(learning_rate=-1), "train_config: learning_rate must be > 0"),
        (lambda d: d.update(best_epoch=2.0), "best_epoch must be an integer"),
        (lambda d: d.update(best_epoch=True), "best_epoch must be an integer"),
        (lambda d: d.update(best_epoch=0), "best_epoch 0 is not an epoch"),
        (lambda d: d.update(best_epoch=len(d["history"]) + 1), "is not an epoch"),
        (lambda d: d.update(history=d["history"][: d["best_epoch"] - 1]), "is not an epoch"),
        (lambda d: d["history"][0].__setitem__(2, 0.0), "is not the first epoch of lowest val_mse"),
        (lambda d: d["history"][0].__setitem__(0, 0), r"history\[0\].epoch must be 1"),
        (lambda d: d["history"][1].pop(), r"history\[1\] must be \[epoch"),
        (lambda d: d["history"][0].__setitem__(1, None), r"history\[0\] must be a number"),
        (lambda d: d["norm_std"].__setitem__(0, 0.0), "norm_std entries must be > 0"),
        (lambda d: d["norm_mean"].__setitem__(0, 10**400), "norm_mean must be finite"),
        (lambda d: d.update(meta=[]), "meta must be an object"),
        (lambda d: d.update(train_config=None), "train_config must be an object"),
        (lambda d: d["meta"].pop("n_bs"), r"meta: missing fields \['n_bs'\]"),
        (lambda d: d["meta"].update(n_bs="3"), "meta.n_bs must be an integer"),
        (lambda d: d["meta"].update(method="wd,x"), "meta.method must be one of mvsk, box, wd, got 'wd,x'"),
        (lambda d: d["meta"].update(n_bs=-7), "meta.n_bs must be one of 1, 2, 3, got -7"),
        (lambda d: d["meta"].update(method="mvsk"), "meta: mvsk features of 2 stations are 8 wide, "
                                                    "but architecture.input_width is 2"),
        (lambda d: d["meta"].update(n_bs=3), "meta: wd features of 3 stations are 3 wide, "
                                             "but architecture.input_width is 2"),
        (lambda d: d["meta"].update(scenario="3bs"), r"meta: unknown fields \['scenario'\]"),
        (lambda d: d["train_config"].update(learning_rate=2**53 + 1),
         "train_config.learning_rate must be finite and held exactly by a double"),
        (lambda d: d.update(note="x"), r"model: unknown fields \['note'\]"),
        # a version-1 file, which also recorded the batch size and validation fraction
        (lambda d: d.update(format_version=1), "unsupported format version 1"),
        (lambda d: d["train_config"].update(batch_size=32), r"train_config: unknown fields \['batch_size'\]"),
    ],
)
def test_load_model_rejects_malformed_documents_naming_path_and_key(tmp_path, edit, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_edited(edit)))
    with pytest.raises(ValueError, match=message) as caught:
        load_model(path)
    assert str(caught.value).startswith(f"{path}: ")


def test_load_model_rejects_invalid_json_naming_the_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": ')
    with pytest.raises(ValueError, match="^" + re.escape(str(path))):
        load_model(path)


def _locations(doc, where=()):
    """Every (container, key) pair in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield where + (key,)
        if isinstance(value, (dict, list)):
            yield from _locations(value, where + (key,))


MODEL_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
)
MODEL_JSON_VALUES = st.recursive(
    MODEL_JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


@st.composite
def mutated_model_docs(draw):
    """A valid model document with a few values anywhere in it dropped,
    replaced by a nearby number or an arbitrary JSON value, or given a
    sibling."""
    doc = copy.deepcopy(VALID_MODEL_DOC)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        where = draw(st.sampled_from(list(_locations(doc))))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        key, value = where[-1], parent[where[-1]]
        action = draw(st.sampled_from(["drop", "arbitrary", "near", "extra"]))
        if action == "drop":
            del parent[key]
        elif action == "arbitrary":
            parent[key] = draw(MODEL_JSON_VALUES)
        elif action == "near" and type(value) in (int, float):
            parent[key] = draw(st.one_of(
                st.integers(min_value=-3, max_value=30), st.floats(min_value=-2.0, max_value=2.0)))
        elif action == "extra" and isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(MODEL_JSON_VALUES)
        elif action == "extra":
            parent.append(copy.deepcopy(value))
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_model_docs())
def test_load_model_fuzz_rejects_with_value_error_or_round_trips(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc))
        try:
            model, meta = load_model(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        again = Path(tmp) / "again.json"
        save_model(model, again, meta)
        written = json.loads(again.read_text())
        reloaded, meta_again = load_model(again)
    assert meta_again == meta
    assert _same_model(reloaded, model)
    # What was read is what the document said, key by key.
    for key, value in written.items():
        if key in doc:
            assert doc[key] == value, key


def test_architecture_parameter_count():
    arch = MlpArchitecture(3, 2, 16)
    # 3*16+16 + 16*16+16 + 16*1+1
    assert arch.parameter_count() == 64 + 272 + 17
    with pytest.raises(ValueError):
        MlpArchitecture(0, 1, 1)


def test_model_validates_shapes_and_norm():
    arch = MlpArchitecture(2, 1, 3)
    model = init_model(arch, np.random.default_rng(0))
    with pytest.raises(ValueError, match="norm_std"):
        MlpModel(
            architecture=arch,
            weights=model.weights,
            biases=model.biases,
            norm_mean=np.zeros(2),
            norm_std=np.array([1.0, 0.0]),
            history=[],
        )
