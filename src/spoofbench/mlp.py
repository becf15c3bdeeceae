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

import numpy as np

from . import forks
from .configio import array, fields, load_json, save_json, typed

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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """z <- 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, in place and
    without overflow. e^min(z, 0) is 1 or e^-|z|, so both branches are the
    one division e^min(z, 0) / (1 + e^-|z|)."""
    e = np.exp(np.copysign(z, -1.0))
    e += 1.0
    np.exp(np.minimum(z, 0.0, out=z), out=z)
    return np.divide(z, e, out=z)


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


def _forward(weights, biases, x_norm: np.ndarray, outs: list[np.ndarray], product=np.matmul) -> np.ndarray:
    """The output layer's activation for normalized inputs; layer k's
    activation is written into outs[k], and the last of them is returned.

    Takes one model's (fan_in, fan_out) weights and (fan_out,) biases with
    (rows, fan_out) buffers, or a stack's (L, fan_in, fan_out) weights and
    (L, 1, fan_out) biases with (L, rows, fan_out) buffers. A layer's buffer
    may be reused two layers later, never by the next one: a product is not
    written over its own input. `product` defaults to `np.matmul`, which
    beat `np.dot` on a full split's rows (11 against 17 us for 1807 rows by
    (3, 16) weights).
    """
    a = x_norm
    last = len(weights) - 1
    for k, (w, b, out) in enumerate(zip(weights, biases, outs)):
        a = product(a, w, out=out)
        a += b
        if k == last:
            _sigmoid(a)
        else:
            np.maximum(a, 0.0, out=a)
    return a


def _pass_buffers(architecture: MlpArchitecture, rows: int) -> list[np.ndarray]:
    """`_forward` buffers for one model on `rows` rows, when no activation is
    kept: the hidden layers alternate two buffers, so depth adds none."""
    width, depth = architecture.neurons_per_hidden, architecture.hidden_layers
    hidden = [np.empty((rows, width)) for _ in range(min(2, depth))]
    return [hidden[k % 2] for k in range(depth)] + [np.empty((rows, 1))]


def normalize(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    return (np.asarray(inputs, dtype=float) - model.norm_mean) / model.norm_std


def forward_batch(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    """Spoofing probabilities, one per input row."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != model.architecture.input_width:
        raise ValueError(
            f"input width {inputs.shape[1]} != model width {model.architecture.input_width}"
        )
    outs = _pass_buffers(model.architecture, len(inputs))
    return _forward(model.weights, model.biases, normalize(model, inputs), outs)[:, 0]


def _pair(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    """predictions and labels as float arrays, checked to pair up."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(p) == 0 or len(p) != len(y):
        raise ValueError("predictions and labels must be equal-length and non-empty")
    return p, y


def loss_mse(predictions, labels) -> float:
    p, y = _pair(predictions, labels)
    return float(np.mean((y - p) ** 2))


def accuracy(predictions, labels) -> float:
    """Fraction of correct spoofed/legitimate calls; positive means spoofed."""
    p, y = _pair(predictions, labels)
    return float(np.mean((p >= 0.5) == (y >= 0.5)))


def confusion_matrix(predictions, labels) -> dict[str, int]:
    p, y = _pair(predictions, labels)
    p, y = p >= 0.5, y >= 0.5
    return {
        "tp": int(np.sum(p & y)),
        "fp": int(np.sum(p & ~y)),
        "fn": int(np.sum(~p & y)),
        "tn": int(np.sum(~p & ~y)),
    }


class _Workspace:
    """What a stack of L models' gradient on an n-row batch writes. The
    hidden layers' activations, back-propagated deltas and ReLU masks are
    each one (depth, L, n, width) buffer, so one call covers every hidden
    layer; `acts`, `deltas` and `masks` are its per-layer (L, n, width)
    views, `acts` ending with the output layer's (L, n, 1) activation, and
    `acts_t` the hidden activations transposed. `d` and `t` are the output
    layer's delta and a temporary of it. A stack of one model drops the L
    axis."""

    def __init__(self, n_models: int, n: int, sizes: list[int]):
        lead = (n_models,) if n_models > 1 else ()
        self.hidden = np.empty((len(sizes) - 2, *lead, n, sizes[1]))
        self.delta = np.empty_like(self.hidden)
        self.mask = np.empty(self.hidden.shape, dtype=bool)
        self.acts = [*self.hidden, np.empty((*lead, n, 1))]
        self.acts_t = [a.swapaxes(-1, -2) for a in self.hidden]
        self.deltas, self.masks = list(self.delta), list(self.mask)
        self.d, self.t = np.empty((*lead, n, 1)), np.empty((*lead, n, 1))


class _Stack:
    """Parameters, gradients and Adam moments of L models of one architecture.

    Each is one flat (L, P) buffer, laid out as every layer's weights, then
    every layer's biases; `weights`, `biases`, `grad_w` and `grad_b` are
    per-layer (L, fan_in, fan_out) and (L, 1, fan_out) views into them,
    multiplied with `np.matmul`. The hidden layers' bias gradients are one
    contiguous block, and `grad_b_hidden` views it as (depth, L, 1, width),
    the shape of one bias-gradient reduce over the workspace's delta buffer.
    A stack of one model, which every `train` is, drops the L axis and
    multiplies with `np.dot`: on a batch's rows it costs less per call and
    gives the same bits. The learning rate is (L, P) too:
    Adam's multiply by it is then one array by another, which is faster
    than a multiply by an (L, 1) broadcast.
    """

    def __init__(self, sizes: list[int], params: np.ndarray, learning_rates: np.ndarray):
        self.sizes = sizes
        self.params = params
        self.grads = np.empty_like(params)
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.lr = np.repeat(learning_rates[:, None], params.shape[1], axis=1)
        self._views()

    def _views(self) -> None:
        views = [*_layer_views(self.params, self.sizes), *_layer_views(self.grads, self.sizes)]
        self.product = np.matmul
        if len(self.params) == 1:
            views = [[t[0] for t in layers] for layers in views]
            self.product = np.dot
        self.weights, self.biases, self.grad_w, self.grad_b = views
        depth, width = len(self.sizes) - 2, self.sizes[1]
        hidden = self.grads[:, -1 - depth * width : -1].reshape(len(self.grads), depth, 1, width).swapaxes(0, 1)
        self.grad_b_hidden = hidden[:, 0] if len(self.params) == 1 else hidden
        self.weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self._temps = (np.empty_like(self.params), np.empty_like(self.params))
        self._workspaces: dict[int, _Workspace] = {}

    def keep(self, rows: list[int]) -> None:
        """Drop every row not in `rows`, in one copy of each buffer."""
        self.params, self.m, self.v, self.lr = (a[rows] for a in (self.params, self.m, self.v, self.lr))
        self.grads = np.empty_like(self.params)
        self._views()

    def workspace(self, n: int) -> _Workspace:
        """The buffers of a gradient on an n-row batch, made on first use."""
        ws = self._workspaces.get(n)
        if ws is None:
            ws = self._workspaces[n] = _Workspace(len(self.params), n, self.sizes)
        return ws

    def model(self, row: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Row views of one model's weights and biases."""
        if len(self.params) == 1:
            return self.weights, self.biases
        return [w[row] for w in self.weights], [b[row] for b in self.biases]

    def adam_step(self, step: int) -> None:
        """One Adam update of every parameter. Each element goes through the
        operations of a per-tensor update in the same order, so stacking
        changes no bit of any model. A bias correction that has rounded to
        exactly 1.0 (corr1 from step 356) is not divided by: x / 1.0
        is x."""
        corr1 = 1.0 - ADAM_BETA1**step
        corr2 = 1.0 - ADAM_BETA2**step
        g, m, v = self.grads, self.m, self.v
        t, u = self._temps
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=t)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=t)
        v += np.multiply(t, g, out=t)
        # p -= (lr (m / corr1)) / (sqrt(v / corr2) + eps)
        np.sqrt(v if corr2 == 1.0 else np.divide(v, corr2, out=t), out=t)
        t += ADAM_EPS
        np.multiply(m if corr1 == 1.0 else np.divide(m, corr1, out=u), self.lr, out=u)
        self.params -= np.divide(u, t, out=u)


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


def _gradients(stack: _Stack, x: np.ndarray, x_t: np.ndarray, y: np.ndarray) -> None:
    """Batch MSE gradients of every model in the stack, into stack.grads,
    for (n, d) normalized inputs x, their (d, n) transpose x_t and (n, 1)
    labels y.

    The ReLU subgradient at exactly 0 is taken as 0.
    """
    n = len(y)
    ws = stack.workspace(n)
    product, grad_w = stack.product, stack.grad_w
    y_hat = _forward(stack.weights, stack.biases, x, ws.acts, product)
    # ReLU'(z) is 1 exactly where ReLU(z) > 0, in every hidden layer at once
    np.greater(ws.hidden, 0.0, out=ws.mask)
    # d(mean squared error)/d(logit) through the logistic output:
    # 2 (y_hat - y) / n * y_hat * (1 - y_hat), one operation at a time.
    # Doubling is exact and so is n / 2, so (y_hat - y) / (n / 2) rounds
    # the same real quotient as (2 (y_hat - y)) / n.
    delta = np.subtract(y_hat, y, out=ws.d)
    delta /= n / 2
    delta *= y_hat
    delta *= np.subtract(1.0, y_hat, out=ws.t)
    np.add.reduce(delta, axis=-2, keepdims=True, out=stack.grad_b[-1])
    for k in range(len(ws.acts) - 1, 0, -1):
        product(ws.acts_t[k - 1], delta, out=grad_w[k])
        delta = product(delta, stack.weights_t[k], out=ws.deltas[k - 1])
        delta *= ws.masks[k - 1]
    product(x_t, delta, out=grad_w[0])
    # every hidden layer's bias gradient: each element sums its n rows in
    # the order a per-layer reduce would
    np.add.reduce(ws.delta, axis=-2, keepdims=True, out=stack.grad_b_hidden)


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
    stack = _Stack(
        architecture.layer_sizes(),
        np.tile(_flatten(initial.weights, initial.biases), (n_models, 1)),
        np.array([c.learning_rate for c in configs]),
    )
    active = list(range(n_models))  # model index of each stack row
    step = 0

    histories: list[list[EpochStats]] = [[] for _ in configs]
    best_val = [np.inf] * n_models
    best_epoch = [0] * n_models
    best_params = stack.params.copy()  # row i: model i's best snapshot

    # This epoch's rows and (n, 1) labels in batch order; each step's batch
    # is a fixed set of (x, x transposed, y) views of them, listed once.
    X_epoch, y_epoch = np.empty_like(Xt), np.empty((len(Xt), 1))
    b = BATCH_SIZE
    batches = [
        (X_epoch[lo : lo + b], X_epoch[lo : lo + b].T, y_epoch[lo : lo + b])
        for lo in range(0, len(Xt), b)
    ]
    train_outs, val_outs = _pass_buffers(architecture, len(Xt)), _pass_buffers(architecture, len(Xv))

    # A diverging run overflows to inf and nan silently; its first
    # non-finite MSE raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(len(Xt))
            np.take(Xt, order, axis=0, out=X_epoch)
            np.take(y_train, order, out=y_epoch[:, 0])
            for x, x_t, y_batch in batches:
                _gradients(stack, x, x_t, y_batch)
                step += 1
                stack.adam_step(step)

            stopped = set()
            # One model at a time: a stack's (L, rows, width) buffers do not fit
            # the cache, and stacked, this pass was 2-3x slower per model.
            for row, i in enumerate(active):
                weights, biases = stack.model(row)
                train_pred = _forward(weights, biases, Xt, train_outs)[:, 0]
                val_pred = _forward(weights, biases, Xv, val_outs)[:, 0]
                train_mse, val_mse = loss_mse(train_pred, y_train), loss_mse(val_pred, y_val)
                if not (math.isfinite(train_mse) and math.isfinite(val_mse)):
                    raise ValueError(
                        f"training at learning rate {configs[i].learning_rate!r} diverged: "
                        f"epoch {epoch}'s MSE is not finite"
                    )
                histories[i].append(EpochStats(epoch, train_mse, val_mse, accuracy(val_pred, y_val)))
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


def _deal(architectures: list[MlpArchitecture], k: int) -> list[list[int]]:
    """The indices of architectures, largest first, each to the least loaded
    of at most k groups. A layer counts as 250 parameters: a wd/3 epoch of 6
    learning rates took 1.7 ms a layer plus 6.8 us a parameter (2-vCPU Xeon)."""
    cost = [a.parameter_count() + 250 * (a.hidden_layers + 1) for a in architectures]
    groups, loads = [[] for _ in range(k)], [0] * k
    for s in sorted(range(len(cost)), key=cost.__getitem__, reverse=True):
        g = loads.index(min(loads))
        groups[g].append(s)
        loads[g] += cost[s]
    return [sorted(group) for group in groups if group]


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
    trains all its learning rates in one `train_stack`. The architectures
    are dealt to at most jobs processes (default: every usable CPU); each
    sends back its results and only its best model by (selection_key, grid
    index), so the deal cannot change the winner.
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

    def run(group):
        rows, best = [], None
        for s in group:
            arch = archs[s]
            for j, model in enumerate(train_stack(arch, X, labels, base_config, learning_rates)):
                i = j * len(archs) + s  # grid order: learning rate outermost
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
                rows.append((i, result))
                if best is None or (selection_key(result), i) < best[0]:
                    best = (selection_key(result), i), model
        return rows, best

    groups = forks.fork_map(run, _deal(archs, forks.workers(jobs)))
    found = {i: result for rows, _ in groups for i, result in rows}
    results = [found[i] for i in range(len(found))]
    _, best_model = min(best for _, best in groups)  # each key holds a distinct grid index
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
        "meta": fields("meta", meta, _META_KEYS),
    }
    save_json(path, doc)


_MODEL_KEYS = {
    "format": str, "format_version": int, "architecture": dict, "weights": list, "biases": list,
    "norm_mean": object, "norm_std": object, "best_epoch": int, "train_config": dict,
    "history": list, "meta": dict,
}
# What a model was trained on: its dataset's feature method, stations, spec.
_META_KEYS = {"method": str, "n_bs": int, "dataset_spec_hash": str}


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
    return model, fields("meta", d["meta"], _META_KEYS)


def load_model(path) -> tuple[MlpModel, dict]:
    """Read a `save_model` file. A document that is not one raises a
    ConfigError (a ValueError) naming the path and the offending key."""
    return load_json(path, _model_from_doc)
