"""From-scratch multilayer perceptron for binary spoofing decisions.

Fully connected ReLU hidden layers feed a single logistic output unit; the
training loss is mean squared error between the (0,1) output and the 0/1
label, minimized with Adam. Inputs are standardized with statistics taken
from the training split; training stops early when validation MSE has not
improved for a fixed number of epochs, and the returned model is the
best-validation snapshot. Everything is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import asdict, astuple, dataclass, replace
from functools import partial

import numpy as np

from . import forks
from .baseline import accuracy, loss_mse
from .configio import ConfigError, fields, load_json, save_json, typed
from .spec import BS_SUBSETS, FEATURES_PER_BS, METHODS

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 32  # rows a step; an epoch's last batch may be shorter
VALIDATION_FRACTION = 0.2  # of the rows, held out for early stopping

MODEL_FORMAT = "spoofbench-mlp"
MODEL_FORMAT_VERSION = 2

# Hyperparameter search space for full tuning runs.
GRID_LEARNING_RATES = (0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001)
GRID_HIDDEN_LAYERS = (1, 2, 3, 4, 5, 6)
GRID_NEURONS = (8, 16, 32, 64, 96, 128)


@dataclass(frozen=True)
class MlpArchitecture:
    input_width: int
    hidden_layers: int
    neurons_per_hidden: int

    def __post_init__(self):
        if self.input_width < 1 or self.hidden_layers < 1 or self.neurons_per_hidden < 1:
            raise ValueError("architecture sizes must be >= 1")

    def layer_sizes(self) -> list[int]:
        return [self.input_width] + [self.neurons_per_hidden] * self.hidden_layers + [1]

    def parameter_count(self) -> int:
        sizes = self.layer_sizes()
        return sum(a * b + b for a, b in zip(sizes, sizes[1:]))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    max_epochs: int = 500
    patience: int = 15
    rng_seed: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate!r}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int  # 1-based
    train_mse: float
    val_mse: float
    val_accuracy: float


def column_names(cls) -> list[str]:
    """A record dataclass's field names, in order: the columns of its rows."""
    return [f.name for f in dataclasses.fields(cls)]


@dataclass
class MlpModel:
    architecture: MlpArchitecture
    weights: list[np.ndarray]  # per layer, shape (fan_in, fan_out)
    biases: list[np.ndarray]  # per layer, shape (fan_out,)
    norm_mean: np.ndarray
    norm_std: np.ndarray
    history: list[EpochStats]
    best_epoch: int = 0  # epoch of the snapshot held in weights/biases
    train_config: TrainConfig | None = None

    def __post_init__(self):
        sizes = self.architecture.layer_sizes()
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[k], sizes[k + 1]) or b.shape != (sizes[k + 1],):
                raise ValueError(f"layer {k} shapes do not chain the architecture")
        if np.any(self.norm_std <= 0):
            raise ValueError("norm_std entries must be > 0")

    @property
    def val_mse(self) -> float:
        return self.history[self.best_epoch - 1].val_mse

    @property
    def val_accuracy(self) -> float:
        return self.history[self.best_epoch - 1].val_accuracy


def _sigmoid_calls(z: np.ndarray, e: np.ndarray) -> list:
    """The calls z <- 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below,
    in place and without overflow, with e, shaped as z, for e^-|z| + 1.
    e^min(z, 0) is 1 or e^-|z|, so both branches are the one division
    e^min(z, 0) / (1 + e^-|z|)."""
    zero, one, minus_one = np.array(0.0), np.array(1.0), np.array(-1.0)
    return [
        (np.copysign, (z, minus_one, e)), (np.exp, (e, e)), (np.add, (e, one, e)),
        (partial(np.minimum, out=z), (z, zero)), (np.exp, (z, z)), (np.divide, (z, e, z)),
    ]


def _run(calls: list) -> None:
    """Run (numpy callable, operands) calls, bound once. Constants are 0-d
    float64 arrays: numpy would convert a Python float on every call.
    `np.maximum` and `np.minimum` get `out` by keyword through `partial`:
    as a third positional operand it is deprecated, and slower."""
    for f, args in calls:
        f(*args)


def init_model(architecture: MlpArchitecture, rng: np.random.Generator) -> MlpModel:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases,
    identity normalization."""
    sizes = architecture.layer_sizes()
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(
        architecture=architecture,
        weights=weights,
        biases=biases,
        norm_mean=np.zeros(architecture.input_width),
        norm_std=np.ones(architecture.input_width),
        history=[],
    )


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray, dot: bool) -> tuple:
    """The call a @ b -> out: `a.dot`, bound, for 2-D operands (the C
    routine `np.dot` reaches, without its dispatch), else `np.matmul`."""
    return (a.dot, (b, out)) if dot else (np.matmul, (a, b, out))


def _forward_calls(weights, biases, x_norm: np.ndarray, outs: list[np.ndarray], e: np.ndarray) -> list:
    """The calls of a forward pass of normalized inputs: layer k's
    activation is written into outs[k], and e is the sigmoid's temporary,
    shaped as outs[-1].

    Takes one model's (fan_in, fan_out) weights and (fan_out,) biases with
    (rows, fan_out) buffers, or a stack's (L, fan_in, fan_out) weights and
    (L, 1, fan_out) biases with (L, rows, fan_out) buffers. A layer's buffer
    may be reused two layers later, never by the next one: a product is not
    written over its own input. Products are `np.matmul`, which beat
    `np.dot` on a full split's rows (11 against 17 us for 1807 rows by
    (3, 16) weights).
    """
    return [_product(x_norm, weights[0], outs[0], False), *_forward_tail(weights, biases, outs, e, False)]


def _forward_tail(weights, biases, outs: list[np.ndarray], e: np.ndarray, dot: bool) -> list:
    """`_forward_calls` after the first product, the one call that reads the
    inputs; products are the bound `dot` if `dot` is set (see `_product`)."""
    calls, zero, last = [], np.array(0.0), len(weights) - 1
    for k, (w, b, out) in enumerate(zip(weights, biases, outs)):
        if k:
            calls.append(_product(outs[k - 1], w, out, dot))
        calls.append((np.add, (out, b, out)))
        calls += _sigmoid_calls(out, e) if k == last else [(partial(np.maximum, out=out), (out, zero))]
    return calls


def _pass_buffers(architecture: MlpArchitecture, rows: int) -> tuple[list[np.ndarray], np.ndarray]:
    """`_forward_calls` buffers and sigmoid temporary for one model on `rows`
    rows, when no activation is kept: the hidden layers alternate two
    buffers, so depth adds none."""
    width, depth = architecture.neurons_per_hidden, architecture.hidden_layers
    hidden = [np.empty((rows, width)) for _ in range(min(2, depth))]
    return [hidden[k % 2] for k in range(depth)] + [np.empty((rows, 1))], np.empty((rows, 1))


def _evaluation_passes(architecture: MlpArchitecture, Xt: np.ndarray, Xv: np.ndarray) -> list[tuple]:
    """(x, buffers, sigmoid temporary) of the training pass over Xt and the
    validation pass over Xv, which has no more rows: it writes the first
    rows of the training pass's buffers, so it runs once that output is read."""
    outs, e = _pass_buffers(architecture, len(Xt))
    n = len(Xv)
    return [(Xt, outs, e), (Xv, [out[:n] for out in outs], e[:n])]


def normalize(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    return (np.asarray(inputs, dtype=float) - model.norm_mean) / model.norm_std


def forward_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Spoofing probabilities, one per input row."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != model.architecture.input_width:
        raise ValueError(
            f"input width {inputs.shape[1]} != model width {model.architecture.input_width}"
        )
    outs, e = _pass_buffers(model.architecture, len(inputs))
    _run(_forward_calls(model.weights, model.biases, normalize(model, inputs), outs, e))
    return outs[-1][:, 0]


class _Stack:
    """Parameters, gradients and Adam moments of L models of one
    architecture, and every call list that binds them.

    Each is one flat (L, P) buffer, laid out as every layer's weights, then
    every layer's biases; `weights`, `biases`, `grad_w` and `grad_b` are
    per-layer (L, fan_in, fan_out) and (L, 1, fan_out) views into them,
    multiplied with `np.matmul`. The hidden layers' bias gradients are one
    contiguous block, and `grad_b_hidden` views it as (depth, L, 1, width),
    the shape of one bias-gradient reduce over the gradient's delta buffer.
    A stack of one model, which every `train` is, drops the L axis and
    multiplies with `dot`: on a batch's rows it costs less per call and
    gives the same bits, and its learning rate is 0-d. A stack's is (L, P)
    too: a multiply by it is faster than by an (L, 1) broadcast.

    `_bind` makes the gradients, the views and the lists, and `keep` calls
    it again, so no list outlives the buffers it binds: `steps`, the
    gradient calls of each (x, x_t, y) batch; `evaluations`, each row's
    calls of the `_evaluation_passes` passes; and Adam's two lists, one
    dividing by `corr1`, one for the steps at which `corr1` has rounded to
    1.0. Both write the update into `grads`, once the moments have read
    them.
    """

    def __init__(self, sizes: list[int], params: np.ndarray, learning_rates: np.ndarray, batches: list, passes: list):
        self.sizes, self.params, self.learning_rates = sizes, params, learning_rates
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.batches, self.passes = batches, passes
        self._bind()

    def _bind(self) -> None:
        self.grads = np.empty_like(self.params)
        views = [*_layer_views(self.params, self.sizes), *_layer_views(self.grads, self.sizes)]
        self.dot, rates = len(self.params) == 1, self.learning_rates
        self.lr = np.array(rates[0]) if self.dot else np.repeat(rates[:, None], self.params.shape[1], axis=1)
        if self.dot:
            views = [[t[0] for t in layers] for layers in views]
        self.weights, self.biases, self.grad_w, self.grad_b = views
        depth, width = len(self.sizes) - 2, self.sizes[1]
        hidden = self.grads[:, -1 - depth * width : -1].reshape(len(self.grads), depth, 1, width).swapaxes(0, 1)
        self.grad_b_hidden = hidden[:, 0] if self.dot else hidden
        self.weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self.corr1, self.corr2 = np.array(1.0), np.array(1.0)  # each step's bias corrections
        g, m, v, p, t = self.grads, self.m, self.v, self.params, np.empty_like(self.m)
        b1, b2, c1, c2, eps = map(np.array, (ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2, ADAM_EPS))
        moments = [
            # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
            (np.multiply, (m, b1, m)), (np.multiply, (g, c1, t)), (np.add, (m, t, m)),
            (np.multiply, (v, b2, v)), (np.multiply, (g, c2, t)), (np.multiply, (t, g, t)), (np.add, (v, t, v)),
            # p -= (lr (m / corr1)) / (sqrt(v / corr2) + eps)
            (np.divide, (v, self.corr2, t)), (np.sqrt, (t, t)), (np.add, (t, eps, t)),
        ]
        update = [(np.divide, (g, t, g)), (np.subtract, (p, g, p))]
        self._adam = ([*moments, (np.divide, (m, self.corr1, g)), (np.multiply, (g, self.lr, g)), *update],
                      [*moments, (np.multiply, (m, self.lr, g)), *update])
        self.steps = _gradient_calls(self, self.batches)
        models = [self.model(row) for row in range(len(self.params))]
        self.evaluations = [[_forward_calls(*model, x, outs, e) for x, outs, e in self.passes] for model in models]

    def keep(self, rows: list[int]) -> None:
        """Drop every row not in `rows`, in one copy of each buffer, and bind the views and lists anew."""
        self.params, self.m, self.v = (a[rows] for a in (self.params, self.m, self.v))
        self.learning_rates = self.learning_rates[rows]
        self._bind()

    def model(self, row: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Row views of one model's weights and biases."""
        if self.dot:
            return self.weights, self.biases
        return [w[row] for w in self.weights], [b[row] for b in self.biases]

    def adam_step(self, step: int) -> None:
        """One Adam update of every parameter. Each element goes through the
        operations of a per-tensor update in the same order, so stacking
        changes no bit of any model. corr1, once it has rounded to exactly
        1.0 (from step 356), is not divided by: x / 1.0 is x."""
        corr1 = 1.0 - ADAM_BETA1**step
        self.corr1[()], self.corr2[()] = corr1, 1.0 - ADAM_BETA2**step
        _run(self._adam[corr1 == 1.0])


def _layer_views(flat: np.ndarray, sizes: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (L, fan_in, fan_out) weight and (L, 1, fan_out) bias views
    of an (L, P) buffer laid out as `_flatten` lays out each row."""
    rows = len(flat)
    weights, biases = [], []
    lo = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(flat[:, lo : lo + fan_in * fan_out].reshape(rows, fan_in, fan_out))
        lo += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[:, lo : lo + fan_out].reshape(rows, 1, fan_out))
        lo += fan_out
    return weights, biases


def _flatten(weights: list[np.ndarray], biases: list[np.ndarray]) -> np.ndarray:
    """One model's parameters as every layer's weights, row-major, then
    every layer's biases: the hidden biases end up side by side."""
    return np.concatenate([t.ravel() for t in (*weights, *biases)])


def _gradient_calls(stack: _Stack, batches: list[tuple]) -> list[list]:
    """The calls of each (x, x_t, y) batch's MSE gradient of every model in
    the stack, into stack.grads: (n, d) normalized inputs, their transpose
    and (n, 1) labels. The ReLU subgradient at exactly 0 is taken as 0.

    The hidden layers' activations, deltas and ReLU masks are each one
    (depth, [L,] rows, width) buffer, so one call covers every hidden layer;
    a mask is float64 0.0/1.0, whose products have the bits a bool mask's
    have, without a cast. The buffers are made once, for the longest batch,
    and an n-row batch uses their first n rows: each matrix keeps its row
    stride, so a product gets the same BLAS call, and a reduce the same
    order, as on buffers of n rows. Batches of one length share every call
    object but the three that read the batch: x @ weights[0], the output
    error y_hat - y and the weight gradient x_t @ delta."""
    dot, weights, grad_w, sizes = stack.dot, stack.weights, stack.grad_w, stack.sizes
    lead, rows = () if dot else (len(stack.params),), max((len(y) for *_, y in batches), default=0)
    full = np.empty((len(sizes) - 2, *lead, rows, sizes[1]))
    buffers = (full, np.empty_like(full), np.empty_like(full), *(np.empty((*lead, rows, 1)) for _ in range(3)))
    shared, lists = {}, []
    for x, x_t, y in batches:
        n = len(y)
        if n not in shared:
            hidden, delta, mask, y_hat, d, t = views = [a[..., :n, :] for a in buffers]
            zero, one, half_n = np.array(0.0), np.array(1.0), np.array(n / 2)
            acts = [*hidden, y_hat]
            forward = _forward_tail(weights, stack.biases, acts, t, dot)
            # ReLU'(z) is 1 exactly where ReLU(z) > 0, in every hidden layer at once
            forward.append((np.greater, (hidden, zero, mask)))
            backward = [
                # d(mean squared error)/d(logit) through the logistic output:
                # 2 (y_hat - y) / n * y_hat * (1 - y_hat), one operation at a
                # time, from d = y_hat - y. Doubling is exact and so is n / 2,
                # so (y_hat - y) / (n / 2) rounds the same real quotient as
                # (2 (y_hat - y)) / n.
                (np.divide, (d, half_n, d)), (np.multiply, (d, y_hat, d)),
                (np.subtract, (one, y_hat, t)), (np.multiply, (d, t, d)),
                (np.add.reduce, (d, -2, None, stack.grad_b[-1], True)),
            ]
            above = d
            for k in range(len(acts) - 1, 0, -1):
                below = delta[k - 1]
                backward += [_product(acts[k - 1].swapaxes(-1, -2), above, grad_w[k], dot),
                             _product(above, stack.weights_t[k], below, dot), (np.multiply, (below, mask[k - 1], below))]
                above = below
            # every hidden layer's bias gradient: each element sums its n rows
            # in the order a per-layer reduce would
            shared[n] = views, forward, backward, (np.add.reduce, (delta, -2, None, stack.grad_b_hidden, True))
        (hidden, delta, _, y_hat, d, _), forward, backward, last = shared[n]
        lists.append([
            _product(x, weights[0], hidden[0], dot), *forward,
            (np.subtract, (y_hat, y, d)), *backward,
            _product(x_t, delta[0], grad_w[0], dot), last,
        ])
    return lists


def _check_training_labels(labels: np.ndarray) -> None:
    values = set(np.unique(labels).tolist())
    if not values <= {0.0, 1.0}:
        raise ValueError(f"labels must be 0/1, got {sorted(values)}")
    if len(values) < 2:
        raise ValueError("dataset has a single class; cannot train a detector")


def train(
    architecture: MlpArchitecture,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
) -> MlpModel:
    """Adam training with early stopping on validation MSE.

    Splits off VALIDATION_FRACTION of the rows for validation,
    standardizes inputs with training-split statistics, and returns the
    model snapshot from the epoch with the lowest validation MSE. The full
    per-epoch history stays attached to the returned model. An epoch whose
    train or validation MSE is not finite, as a diverging learning rate's
    is, raises ValueError.
    """
    return train_stack(architecture, inputs, labels, config, (config.learning_rate,))[0]


def train_stack(
    architecture: MlpArchitecture,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    learning_rates,
) -> list[MlpModel]:
    """`train` for each learning rate, all in lockstep; one model per rate.

    The runs share the seed, so they share the validation split, the
    normalization, the initial weights and every epoch's batch order; only
    the learning rate differs. They take each step together on one stacked
    parameter buffer, and each model is bit for bit what `train` with
    `replace(config, learning_rate=lr)` returns. A model that stops early
    leaves the stack; the others go on.
    """
    configs = [replace(config, learning_rate=lr) for lr in learning_rates]
    if not configs:
        raise ValueError("no learning rates to train")
    X = np.asarray(inputs, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("inputs must be (n, d) with one label per row")
    _check_training_labels(y)
    if X.shape[1] != architecture.input_width:
        raise ValueError(
            f"dataset width {X.shape[1]} != architecture input width {architecture.input_width}"
        )
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(len(X))
    n_val = max(1, int(round(VALIDATION_FRACTION * len(X))))
    if n_val >= len(X):
        raise ValueError("validation split leaves no training rows")
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    X_train, y_train = X[train_idx], y[train_idx]
    X_val, y_val = X[val_idx], y[val_idx]

    norm_mean = X_train.mean(axis=0)
    norm_std = X_train.std(axis=0)
    norm_std[norm_std == 0.0] = 1.0
    Xt = (X_train - norm_mean) / norm_std
    Xv = (X_val - norm_mean) / norm_std

    initial = init_model(architecture, rng)
    n_models = len(configs)
    # This epoch's rows and (n, 1) labels in batch order; each step's batch
    # is a fixed set of (x, x transposed, y) views of them, listed once.
    X_epoch, y_epoch = np.empty_like(Xt), np.empty((len(Xt), 1))
    b = BATCH_SIZE
    batches = [
        (X_epoch[lo : lo + b], X_epoch[lo : lo + b].T, y_epoch[lo : lo + b])
        for lo in range(0, len(Xt), b)
    ]
    passes = _evaluation_passes(architecture, Xt, Xv)
    train_out, val_out = (outs[-1][:, 0] for _, outs, _ in passes)
    stack = _Stack(
        architecture.layer_sizes(),
        np.tile(_flatten(initial.weights, initial.biases), (n_models, 1)),
        np.array([c.learning_rate for c in configs]),
        batches,
        passes,
    )
    active = list(range(n_models))  # model index of each stack row
    step = 0

    histories: list[list[EpochStats]] = [[] for _ in configs]
    best_val = [np.inf] * n_models
    best_epoch = [0] * n_models
    best_params = stack.params.copy()  # row i: model i's best snapshot

    # A diverging run overflows to inf and nan silently; its first
    # non-finite MSE raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(len(Xt))
            np.take(Xt, order, axis=0, out=X_epoch)
            np.take(y_train, order, out=y_epoch[:, 0])
            for calls in stack.steps:
                _run(calls)
                step += 1
                stack.adam_step(step)

            stopped = set()
            # One model at a time: a stack's (L, rows, width) buffers do not fit
            # the cache, and stacked, this pass was 2-3x slower per model.
            for row, i in enumerate(active):
                train_pass, val_pass = stack.evaluations[row]
                _run(train_pass)
                train_mse = loss_mse(train_out, y_train)
                _run(val_pass)  # over the training pass's first rows
                val_mse = loss_mse(val_out, y_val)
                if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
                    raise ValueError(
                        f"training at learning rate {configs[i].learning_rate!r} diverged: "
                        f"epoch {epoch}'s MSE is not finite"
                    )
                histories[i].append(EpochStats(epoch, train_mse, val_mse, accuracy(val_out, y_val)))
                if val_mse < best_val[i]:
                    best_val[i] = val_mse
                    best_epoch[i] = epoch
                    best_params[i] = stack.params[row]
                elif epoch - best_epoch[i] >= config.patience:
                    stopped.add(row)
            if stopped:
                rows = [row for row in range(len(active)) if row not in stopped]
                if not rows:
                    break
                stack.keep(rows)
                active = [active[row] for row in rows]

    best_weights, best_biases = _layer_views(best_params, stack.sizes)
    return [
        MlpModel(
            architecture=architecture,
            weights=[w[i].copy() for w in best_weights],
            biases=[b[i, 0].copy() for b in best_biases],
            norm_mean=norm_mean.copy(),
            norm_std=norm_std.copy(),
            history=histories[i],
            best_epoch=best_epoch[i],
            train_config=configs[i],
        )
        for i in range(n_models)
    ]


@dataclass(frozen=True)
class GridResult:
    learning_rate: float
    hidden_layers: int
    neurons: int
    param_count: int
    epochs_run: int
    best_epoch: int
    val_mse: float
    val_accuracy: float


@dataclass
class TuneResult:
    best_model: MlpModel
    results: list[GridResult]
    ranks: list[int]  # each result's place in selection order, 1 for the best

    @property
    def best_index(self) -> int:
        return self.ranks.index(1)


def selection_key(result: GridResult) -> tuple:
    """Lower is better: validation MSE, then accuracy (desc), then size."""
    return (result.val_mse, -result.val_accuracy, result.param_count)


def tune(
    inputs: np.ndarray,
    labels: np.ndarray,
    base_config: TrainConfig,
    learning_rates=GRID_LEARNING_RATES,
    hidden_layers=GRID_HIDDEN_LAYERS,
    neurons=GRID_NEURONS,
    jobs: int | None = None,
) -> TuneResult:
    """Train every (learning rate, depth, width) combination, rank them all
    and keep the best by validation MSE; ties go to the higher validation
    accuracy, then to the smaller parameter count, then to grid order.

    Results are in grid order, learning rate outermost. Each architecture
    trains all its learning rates in one `train_stack`. Of at most jobs
    processes (default: every usable CPU), one that is free takes the next
    architecture, largest first (forks.fork_map). The winner is the least
    (selection_key, grid index), so the schedule cannot change it.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    X = np.asarray(inputs, dtype=float)
    grid = {"learning rate": tuple(learning_rates), "hidden layers": tuple(hidden_layers), "neurons": tuple(neurons)}
    learning_rates, hidden_layers, neurons = grid.values()
    for axis, values in grid.items():
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"the {axis} grid repeats {value!r}")
    archs = [MlpArchitecture(X.shape[1], depth, width) for depth in hidden_layers for width in neurons]
    if not learning_rates or not archs:
        raise ValueError("empty hyperparameter grid")
    best = []  # the least (selection_key, grid index) this process has trained, and its model

    def run(s):
        """Architecture s's results, and this process's `best`, which each
        run updates in place: a process holds one model, not one for each."""
        arch, results = archs[s], []
        for j, model in enumerate(train_stack(arch, X, labels, base_config, learning_rates)):
            result = GridResult(
                learning_rate=learning_rates[j],
                hidden_layers=arch.hidden_layers,
                neurons=arch.neurons_per_hidden,
                param_count=arch.parameter_count(),
                epochs_run=len(model.history),
                best_epoch=model.best_epoch,
                val_mse=model.val_mse,
                val_accuracy=model.val_accuracy,
            )
            results.append(result)
            key = (selection_key(result), j * len(archs) + s)  # grid order: learning rate outermost
            if not best or key < best[0]:
                best[:] = key, model
        return results, best

    largest_first = sorted(range(len(archs)), key=lambda s: archs[s].parameter_count(), reverse=True)
    runs = dict(zip(largest_first, forks.fork_map(run, largest_first, forks.workers(jobs))))
    results = [runs[s][0][j] for j in range(len(learning_rates)) for s in range(len(archs))]
    _, best_model = min((kept for _, kept in runs.values()), key=lambda kept: kept[0])
    order = sorted(range(len(results)), key=lambda i: (selection_key(results[i]), i))
    return TuneResult(best_model=best_model, results=results, ranks=[order.index(i) + 1 for i in range(len(order))])


def save_model(model: MlpModel, path, meta: dict) -> None:
    """Versioned JSON: architecture, row-major weights, normalization stats,
    training config, per-epoch history and the `_META_KEYS` record. An
    untrained model, which `load_model` would refuse, raises ValueError."""
    if model.train_config is None or not model.history:
        raise ValueError("cannot save an untrained model: it needs a train_config and a history")
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": asdict(model.architecture),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "norm_mean": model.norm_mean.tolist(),
        "norm_std": model.norm_std.tolist(),
        "best_epoch": model.best_epoch,
        "train_config": asdict(model.train_config),
        "history": [astuple(s) for s in model.history],
        "meta": _meta(meta, model.architecture.input_width),
    }
    save_json(path, doc)


def array(key: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """Nested JSON lists of finite numbers, of exactly this shape."""
    try:
        cells = np.array(value, dtype=object)
    except ValueError:
        cells = None
    if cells is None or cells.shape != shape:
        raise ConfigError(f"{key} must be a {' x '.join(map(str, shape))} array")
    out = np.array([typed(key, v, float) for v in cells.flat], dtype=float).reshape(shape)
    if not np.isfinite(out).all():
        raise ValueError(f"{key} must be finite")
    return out


_MODEL_KEYS = {
    "format": str, "format_version": int, "architecture": dict, "weights": list, "biases": list,
    "norm_mean": object, "norm_std": object, "best_epoch": int, "train_config": dict,
    "history": list, "meta": dict,
}
# What a model was trained on: its dataset's feature method, stations, spec.
_META_KEYS = {"method": str, "n_bs": int, "dataset_spec_hash": str}


def _meta(value, input_width: int) -> dict:
    """The meta record, its method and station count ones a dataset can have,
    and that dataset's row as wide as the model's input."""
    meta = fields("meta", value, _META_KEYS)
    if meta["method"] not in METHODS:
        raise ValueError(f"meta.method must be one of {', '.join(METHODS)}, got {meta['method']!r}")
    if meta["n_bs"] not in BS_SUBSETS:
        raise ValueError(f"meta.n_bs must be one of {', '.join(map(str, BS_SUBSETS))}, got {meta['n_bs']}")
    width = FEATURES_PER_BS[meta["method"]] * meta["n_bs"]
    if width != input_width:
        raise ValueError(
            f"meta: {meta['method']} features of {meta['n_bs']} stations are {width} wide, "
            f"but architecture.input_width is {input_width}"
        )
    return meta


def _record(key: str, value, cls):
    """cls built from a JSON object holding exactly its fields, each of the
    type it is annotated with; errors name key."""
    values = fields(key, value, typing.get_type_hints(cls))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _history(value: list) -> list[EpochStats]:
    names = column_names(EpochStats)
    history = []
    for epoch, entry in enumerate(value, start=1):
        key = f"history[{epoch - 1}]"
        if not isinstance(entry, list) or len(entry) != len(names):
            raise ValueError(f"{key} must be [{', '.join(names)}]")
        if typed(f"{key}.epoch", entry[0], int) != epoch:
            raise ValueError(f"{key}.epoch must be {epoch}, got {entry[0]}")
        history.append(EpochStats(epoch, *array(key, entry[1:], (len(names) - 1,)).tolist()))
    return history


def _model_from_doc(doc) -> tuple[MlpModel, dict]:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported format version {doc.get('format_version')!r:.40}")
    d = fields("", doc, _MODEL_KEYS, "model")
    architecture = _record("architecture", d["architecture"], MlpArchitecture)
    layers = architecture.hidden_layers + 1
    for key in ("weights", "biases"):
        if len(d[key]) != layers:
            raise ValueError(f"{key} must be a list of {layers} layers")
    sizes = architecture.layer_sizes()
    weights = [array(f"weights[{k}]", w, (sizes[k], sizes[k + 1])) for k, w in enumerate(d["weights"])]
    biases = [array(f"biases[{k}]", b, (sizes[k + 1],)) for k, b in enumerate(d["biases"])]
    norm_mean = array("norm_mean", d["norm_mean"], (architecture.input_width,))
    norm_std = array("norm_std", d["norm_std"], (architecture.input_width,))
    history = _history(d["history"])
    best_epoch = d["best_epoch"]
    if not 1 <= best_epoch <= len(history):
        raise ValueError(f"best_epoch {best_epoch} is not an epoch of the {len(history)}-epoch history")
    val_mses = [s.val_mse for s in history]
    if val_mses.index(min(val_mses)) != best_epoch - 1:
        raise ValueError(f"best_epoch {best_epoch} is not the first epoch of lowest val_mse in history")
    train_config = _record("train_config", d["train_config"], TrainConfig)
    model = MlpModel(architecture, weights, biases, norm_mean, norm_std, history, best_epoch, train_config)
    return model, _meta(d["meta"], architecture.input_width)


def load_model(path) -> tuple[MlpModel, dict]:
    """Read a `save_model` file. A document that is not one raises a
    ConfigError (a ValueError) naming the path and the offending key."""
    return load_json(path, _model_from_doc)
