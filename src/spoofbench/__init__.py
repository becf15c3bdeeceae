"""Workbench for cellular-assisted GPS spoofing detection on UAVs:
flight simulation, path-loss synthesis, statistical features and MLP
detectors, reproducible end to end from a single seed."""

import os

# One BLAS thread a process unless the user sets one, before numpy loads its
# BLAS (the console script and `python -m spoofbench` import this first).
# The matrices are a batch's rows, too small for a thread pool to pay, and
# `tune` and `generate` fork one process per CPU: each running a pool of
# BLAS threads on the same CPUs made `tune --jobs 2` about twice as slow as
# `--jobs 1`.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
