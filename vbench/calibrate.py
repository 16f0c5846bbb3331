"""Machine-speed calibration: fixed numpy work timed next to every pass.

This host is a few cores of a shared machine whose speed drifts by up to
1.8x over seconds to minutes, so raw wall times of the same code differ more
between runs than any bound worth gating on. Each workload names one kernel
below that uses the machine the way its job does (large FFTs, strided gate
updates on a large state, or interpreter-bound calls on small arrays). The
kernel never calls vibroniq, so a change to the library cannot move it; a
pass's time divided by the kernel's time next to it is the library's cost in
units of machine speed, and times the kernel's reference seconds
(REFERENCE_S) it reads as seconds on this host when it is not contended.
"""
from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
# two electronic surfaces x 4 modes x 16 grid points: the 2 MiB soft-4d state
_WAVE = _RNG.standard_normal((2, 16, 16, 16, 16)) + 1j * _RNG.standard_normal((2, 16, 16, 16, 16))
_PHASE = np.exp(1j * _RNG.standard_normal(_WAVE.shape))
# the 17-qubit (2 MiB) circuit-4d statevector
_STATE = _RNG.standard_normal(1 << 17) + 1j * _RNG.standard_normal(1 << 17)
_GATE = np.array([[0.6, 0.8j], [0.8j, 0.6]])
# the 9-qubit small-2mode statevector
_SMALL = _RNG.standard_normal(1 << 9) + 1j * _RNG.standard_normal(1 << 9)


def fft() -> None:
    """Phase multiplies and an FFT pair over the mode axes of a 2 MiB grid."""
    a = _WAVE
    for _ in range(4):
        a = np.fft.ifftn(np.fft.fftn(a * _PHASE, axes=(1, 2, 3, 4)), axes=(1, 2, 3, 4))


def gates() -> None:
    """2x2 updates on every qubit of a 2 MiB statevector through strided views."""
    t = _STATE.copy().reshape((2,) * 17)
    for q in list(range(17)) * 2:
        a = t[(slice(None),) * q + (0,)]
        b = t[(slice(None),) * q + (1,)]
        a0 = a.copy()
        a[...] = _GATE[0, 0] * a0 + _GATE[0, 1] * b
        b[...] = _GATE[1, 0] * a0 + _GATE[1, 1] * b


def dispatch() -> None:
    """Many interpreter-level calls on a 512-amplitude state, and small objects."""
    t = _SMALL.copy().reshape((2,) * 9)
    acc = 0.0
    for rep in range(300):
        for q in range(9):
            a = t[(slice(None),) * q + (0,)]
            b = t[(slice(None),) * q + (1,)]
            a0 = a.copy()
            a[...] = _GATE[0, 0] * a0 + _GATE[0, 1] * b
            b[...] = _GATE[1, 0] * a0 + _GATE[1, 1] * b
        rows = [{"q": q, "layer": rep, "name": f"g{q}"} for q in range(9)]
        acc += sum(len(r["name"]) for r in rows) + float(np.vdot(_SMALL, _SMALL).real)


KERNELS = {"fft": fft, "gates": gates, "dispatch": dispatch}
# 10th percentile of 60 calls on the 2-core Intel Xeon (2.0 GHz) host the
# benchmark was defined on, numpy 2.4.6, Python 3.11.7; fixed, so that a
# calibrated time compares across runs and commits
REFERENCE_S = {"fft": 0.035, "gates": 0.041, "dispatch": 0.035}


def timed(name: str) -> float:
    """Wall seconds of one call of kernel `name`."""
    kernel = KERNELS[name]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
