"""Workbench for cellular-assisted GPS spoofing detection on UAVs:
flight simulation, path-loss synthesis, statistical features and MLP
detectors, reproducible end to end from a single seed."""

from .baseline import OperatingPoint, ThresholdDetector, decide, sweep_threshold
from .channel import (
    ChannelParams,
    Link,
    los_probability,
    measured_window,
    theoretical_path_loss,
)
from .dataset import DatasetSpec, LabeledDataset, generate, select_bs_subset, spec_hash
from .features import FeatureVector, box, extract, mvsk, wasserstein_1d
from .mlp import (
    MlpArchitecture,
    MlpModel,
    TrainConfig,
    accuracy,
    backprop_gradients,
    forward,
    forward_batch,
    loss_mse,
    train,
    train_stack,
    tune,
)
from .scenario import (
    BaseStation,
    ScenarioConfig,
    SpoofingScenario,
    Trajectory,
    Waypoint,
    default_config,
    destination_grid,
)

__version__ = "0.1.0"
