"""A fixed calibration kernel that measures the machine's speed of the moment.

The runner runs the kernel once before every timed call and divides the call's
wall time by the kernel's slowness (its time over its reference time), so the
benchmark's times read as milliseconds on the machine running at its reference
speed. The kernel mixes the kinds of work jpulite spends its time on:
interpreter steps, numpy calls on tiny arrays (per-call overhead) and broadcast
multiply-adds over L2-sized maps (the `conv2d` inner loop). A workload that
writes and reads files (`.jt` checkpoints) adds small-file round trips in its
own work directory, in about the share of time they take in the workload: the
host's disk speed changes apart from its CPU speed. The kernel imports nothing
from jpulite, so a change to the program cannot change it.
"""

from __future__ import annotations

import os
import time

import numpy as np

# The kernel's median times on the reference box (2 vCPUs, Intel Xeon 2.1 GHz) in its
# usual state; scaled times equal wall times when the machine runs at that speed.
COMPUTE_REF_MS = 10.0
IO_REF_MS = 7.0

_SMALL = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_MAP = np.linspace(-1.0, 1.0, 18 * 66 * 66).reshape(1, 18, 66, 66)
_TAPS = np.linspace(0.5, 1.5, 16 * 9).reshape(16, 9)
_BLOB = np.arange(512, dtype=np.float64).tobytes()  # 4 KiB
IO_ROUND_TRIPS, IO_FILES = 40, 8


def compute_kernel() -> None:
    s = 0
    for i in range(40_000):
        s += i * i
    x = _SMALL
    for _ in range(1_000):
        x = np.tanh(x * 0.5 + _SMALL)
    y = np.zeros((1, 16, 64, 64))
    for c in range(3):
        for u in range(3):
            for v in range(3):
                y += _TAPS[:, 3 * u + v][None, :, None, None] * _MAP[:, c, u:u + 64, v:v + 64][:, None]


def io_kernel(io_dir: str) -> None:
    for i in range(IO_ROUND_TRIPS):
        path = os.path.join(io_dir, f"calibration{i % IO_FILES}.bin")
        with open(path, "wb") as f:
            f.write(_BLOB)
        with open(path, "rb") as f:
            f.read()


def slowness(io_dir: str | None = None) -> float:
    """One timed run of the kernel (with the file round trips in io_dir, if given),
    over its reference time: 1 at the reference speed, above 1 when slower."""
    t0 = time.perf_counter()
    compute_kernel()
    ref_ms = COMPUTE_REF_MS
    if io_dir is not None:
        io_kernel(io_dir)
        ref_ms += IO_REF_MS
    return (time.perf_counter() - t0) * 1e3 / ref_ms
