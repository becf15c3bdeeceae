"""Shipped reference hyperparameters per (feature method, station count).

These are the best-known settings for the default simulation setup; the
full tuner (`spoofbench tune`) can re-derive winners for any dataset.
"""

from __future__ import annotations

# (method, n_bs) -> (learning_rate, hidden_layers, neurons_per_hidden)
BEST_SETTINGS: dict[tuple[str, int], tuple[float, int, int]] = {
    ("mvsk", 3): (0.005, 4, 96),
    ("box", 3): (0.001, 5, 96),
    ("wd", 3): (0.0005, 3, 16),
    ("mvsk", 2): (0.001, 2, 32),
    ("box", 2): (0.001, 5, 96),
    ("wd", 2): (0.001, 2, 64),
    ("mvsk", 1): (0.0001, 2, 96),
    ("box", 1): (0.001, 5, 96),
    ("wd", 1): (0.0001, 2, 64),
}

