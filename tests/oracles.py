"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths: plain Python
summation for the moments, CDF-area integration and the sorted-difference
formula for the transport distance, central finite differences for the
gradients, one sample at a time for the flight positions and the simulated
path loss, one generator per window for the noise, one row at a time for
the row plan, one model with one Adam update per tensor for training, and
a count of the stations over T for the threshold verdicts.
`backprop_gradients` is the one exception: it runs the library's own batch
gradient on one model, so that the oracles above can check it.
"""

import numpy as np

from spoofbench import mlp
from spoofbench.baseline import accuracy, loss_mse
from spoofbench.channel import Link
from spoofbench.dataset import destination_grid
from spoofbench.mlp import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    VALIDATION_FRACTION,
    EpochStats,
    forward_batch,
    init_model,
)


def distance_3d(p, q) -> float:
    return float(np.linalg.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)))


def position_at(config, destination, k: float) -> np.ndarray:
    """Position at sample k of the straight flight from the start to
    destination, which reaches it at sample window_size."""
    samples = [0.0, float(config.window_size)]
    return np.array([np.interp(k, samples, [config.start[i], destination[i]]) for i in range(3)])


def link_at(position, bs, params) -> Link:
    """The Link of one station at one UAV position, as (1, 1, 1) arrays."""
    return Link.along(np.reshape(position, (1, 1, 3)), [bs], params)


def path_loss(position, bs, params) -> float:
    """Noise-free model path loss in dB at one UAV position."""
    return link_at(position, bs, params).theoretical().item()


def window_rng(params, noise_seed: int, bs_id: int) -> np.random.Generator:
    """One window's noise stream, seeded on its own: a fresh generator per
    (channel seed, flight, station)."""
    return np.random.default_rng([params.rng_seed, noise_seed, bs_id])


def measured_window(link, params, rng) -> np.ndarray:
    """Noisy path loss a station reports along one window of a Link of one
    path and one station, drawn from rng in the channel's order: the LoS
    branch of every sample (sampled_los only), then every shadow-fading
    value, then every measurement-noise value."""
    prob = link.los_prob[0, 0]
    n = len(prob)
    los = rng.random(n) < prob if params.sampled_los else prob >= 0.5
    pl, sigma = link.branch(los, params.nlos_shadow_sigma, (0, 0))
    return pl + sigma * rng.standard_normal(n) + params.meas_noise_sigma * rng.standard_normal(n)


def reference_row_plan(spec, split):
    """(label, destination, noise seed) of every row of a split, one row at a
    time in Python ints: even rows are spoofed and cycle the non-planned
    destinations, odd rows replay the planned one, and the seed packs
    (channel seed, split, row)."""
    split_id = ("train", "test").index(split)
    size = spec.train_size if split == "train" else spec.test_size
    rows = []
    for k in range(size):
        spoofed = k % 2 == 0
        dest = 1 + (k // 2) % (spec.scenario.n_destinations - 1) if spoofed else 0
        rows.append((spoofed, dest, ((spec.channel.rng_seed * 2 + split_id) << 32) + k))
    return rows


def reference_window(config, dest_index, noise_seed, bs, params):
    """Scalar per-window reference: (measured, theoretical, los) lists for one
    station's window of the flight to destination dest_index seeded
    noise_seed, one sample instant at a time.

    It shares only the path-loss formula with the library, evaluated at one
    position per call (numpy's vectorized log10 and exp round differently
    from the math module's, so only the same ufuncs compare bit for bit).
    The position arrays, the per-destination cache, the chunking and the
    array draws are replaced by per-sample positions and draws that consume
    the window's random stream as the channel must: every sample's LoS draw
    first (sampled_los only), then every shadow-fading draw, then every
    measurement-noise draw.
    """
    rng = window_rng(params, noise_seed, bs.id)
    destinations = destination_grid(config)
    instants = range(config.window_size)
    true = [link_at(position_at(config, destinations[dest_index], k), bs, params) for k in instants]
    reported = [link_at(position_at(config, destinations[0], k), bs, params) for k in instants]
    if params.sampled_los:
        los = [rng.random() < lk.los_prob.item() for lk in true]
    else:
        los = [lk.los_prob.item() >= 0.5 for lk in true]
    shadow = [rng.normal(0.0, lk.los_sigma.item() if k else params.nlos_shadow_sigma)
              for lk, k in zip(true, los)]
    noise = [rng.normal(0.0, params.meas_noise_sigma) for _ in instants]
    measured = [(lk.los_db.item() if k else lk.nlos_db.item()) + s + e
                for lk, k, s, e in zip(true, los, shadow, noise)]
    theoretical = [lk.los_db.item() if lk.los_prob.item() >= 0.5 else lk.nlos_db.item()
                   for lk in reported]
    return measured, theoretical, los


def naive_mvsk(xs):
    """Two-pass summation in plain Python arithmetic."""
    n = len(xs)
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    m2 = sum((x - mean) ** 2 for x in xs) / n
    if m2 == 0.0:
        return mean, 0.0, 0.0, 0.0
    m3 = sum((x - mean) ** 3 for x in xs) / n
    m4 = sum((x - mean) ** 4 for x in xs) / n
    return mean, var, m3 / m2**1.5, m4 / m2**2 - 3.0


def cdf_area_distance(a, b):
    """Area between the two empirical CDFs, integrated between breakpoints."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    points = np.unique(np.concatenate([a, b]))
    total = 0.0
    for x0, x1 in zip(points[:-1], points[1:]):
        fa = np.count_nonzero(a <= x0) / len(a)
        fb = np.count_nonzero(b <= x0) / len(b)
        total += abs(fa - fb) * (x1 - x0)
    return total


def wasserstein_1d(a, b) -> float:
    """Order-1 Wasserstein distance between two equal-size empirical samples:
    the mean absolute difference of the sorted values."""
    return float(np.mean(np.abs(np.sort(np.asarray(a, dtype=float)) - np.sort(np.asarray(b, dtype=float)))))


def finite_difference_gradients(model, inputs, labels, step=1e-5):
    """Central differences of the batch MSE w.r.t. every parameter."""

    def loss():
        return loss_mse(forward_batch(model, inputs), labels)

    grads_w, grads_b = [], []
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for array in params:
            g = np.zeros_like(array)
            for idx in np.ndindex(array.shape):
                orig = array[idx]
                array[idx] = orig + step
                up = loss()
                array[idx] = orig - step
                down = loss()
                array[idx] = orig
                g[idx] = (up - down) / (2.0 * step)
            grads.append(g)
    return grads_w, grads_b


def backprop_gradients(model, inputs, labels):
    """The trainer's analytic batch-MSE gradients, as (weights, biases)
    lists, from the step of a stack of this one model on the one batch."""
    x = mlp.normalize(model, np.atleast_2d(np.asarray(inputs, dtype=float)))
    batch = (x, x.T, np.asarray(labels, dtype=float)[:, None])
    params = mlp._flatten(model.weights, model.biases)[None]
    stack = mlp._Stack(model.architecture.layer_sizes(), params, np.zeros(1), [batch], [])
    mlp._run(stack.steps[0])
    grad_w, grad_b = mlp._layer_views(stack.grads, stack.sizes)  # (L, ...) whatever the stack's views
    return [g[0] for g in grad_w], [g[0, 0] for g in grad_b]


def max_relative_gradient_error(analytic, numeric, floor=1e-6):
    """Worst-case |a - n| / max(|a|, |n|, floor) across all parameters."""
    worst = 0.0
    for a_list, n_list in zip(analytic, numeric):
        for a, n in zip(a_list, n_list):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def min_hidden_preactivation(model, inputs):
    """Smallest |pre-activation| over all hidden units and batch rows.

    Central differences are only a valid oracle when no hidden unit sits
    within the step of its kink, so draws below a safety margin are skipped.
    """
    a = (np.atleast_2d(np.asarray(inputs, dtype=float)) - model.norm_mean) / model.norm_std
    closest = np.inf
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        closest = min(closest, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return closest


def _reference_forward(weights, biases, x):
    """Pre-activations and activations of one model, 2-D matmuls only."""
    zs, activations = [], [x]
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = activations[-1] @ w + b
        zs.append(z)
        activations.append(np.maximum(z, 0.0) if k < len(weights) - 1 else reference_sigmoid(z))
    return zs, activations


def reference_sigmoid(z):
    """The logistic function in two branches: 1 / (1 + e^-z) where z >= 0,
    e^z / (1 + e^z) elsewhere."""
    a = np.empty_like(z)
    pos = z >= 0
    a[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    a[~pos] = e / (1.0 + e)
    return a


def reference_gradients(weights, biases, x, y):
    """One model's batch-MSE gradients on rows x with 1-D labels y, as
    (weights, biases) lists: 2-D matmuls, and the output delta doubled
    before it is divided by the row count."""
    zs, acts = _reference_forward(weights, biases, x)
    y_hat = acts[-1][:, 0]
    delta = (2.0 * (y_hat - y) / len(y) * y_hat * (1.0 - y_hat))[:, None]
    grads_w, grads_b = [None] * len(zs), [None] * len(zs)
    for k in range(len(zs) - 1, -1, -1):
        grads_w[k] = acts[k].T @ delta
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k].T) * (zs[k - 1] > 0.0)
    return grads_w, grads_b


def reference_train(architecture, X, y, config):
    """One model, one Adam update per weight and bias tensor: the trainer's
    algorithm without stacking. Returns (weights, biases, history, best_epoch)."""
    rng = np.random.default_rng(config.rng_seed)
    perm = rng.permutation(len(X))
    n_val = max(1, int(round(VALIDATION_FRACTION * len(X))))
    train_idx, val_idx = perm[n_val:], perm[:n_val]
    mean, std = X[train_idx].mean(axis=0), X[train_idx].std(axis=0)
    std[std == 0.0] = 1.0
    Xt, yt = (X[train_idx] - mean) / std, y[train_idx]
    Xv, yv = (X[val_idx] - mean) / std, y[val_idx]
    model = init_model(architecture, rng)
    params = model.weights + model.biases
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    history, best, best_val, bad, step = [], ([p.copy() for p in params], 0), np.inf, 0, 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(Xt))
        for lo in range(0, len(order), BATCH_SIZE):
            batch = order[lo : lo + BATCH_SIZE]
            grads_w, grads_b = reference_gradients(model.weights, model.biases, Xt[batch], yt[batch])
            step += 1
            corr1, corr2 = 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step
            for p, g, (m, v) in zip(params, grads_w + grads_b, moments):
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                p -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + ADAM_EPS)
        train_pred = _reference_forward(model.weights, model.biases, Xt)[1][-1][:, 0]
        val_pred = _reference_forward(model.weights, model.biases, Xv)[1][-1][:, 0]
        val_mse = loss_mse(val_pred, yv)
        history.append(EpochStats(epoch, loss_mse(train_pred, yt), val_mse, accuracy(val_pred, yv)))
        if val_mse < best_val:
            best_val, best, bad = val_mse, ([p.copy() for p in params], epoch), 0
        else:
            bad += 1
            if bad >= config.patience:
                break
    layers = len(model.weights)
    return best[0][:layers], best[0][layers:], history, best[1]


def count_rule_verdicts(means, t: float, aggregation: str) -> np.ndarray:
    """Threshold verdicts without a per-row score: mean-delta flags a row
    whose stations' mean exceeds t, a majority vote one where more than
    half of the stations' window means exceed t, counted."""
    means = np.asarray(means, dtype=float)
    if aggregation == "mean-delta":
        return np.mean(means, axis=-1) > t
    return np.sum(means > t, axis=-1) * 2 > means.shape[-1]
