"""Workbench for cellular-assisted GPS spoofing detection on UAVs:
flight simulation, path-loss synthesis, statistical features and MLP
detectors, reproducible end to end from a single seed."""

__version__ = "0.1.0"
