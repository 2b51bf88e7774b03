"""Timings in reference seconds.

On a shared host the speed of one core drifts: the same DHSPG step takes
8.6 ms or 13.5 ms, and spells of either last from under a second to tens of
seconds. A wall-clock figure over a run then says as much about the
neighbours as about the program. ``timed`` runs a fixed kernel right
before and right after a call and scales the call's wall time by the
kernel's reference time over its mean time at that moment. A change to the
program moves the call and not the kernel, so it moves the scaled figure
as it would the wall time on a steady machine.

Neighbours slow interpreter-bound and memory-bound code by different
factors, so there are two kernels, and each timed call names the one that
tracks it best (measurements in README.md):
- ``python``: a Python loop over 2000 groups of eight indices that gathers
  each group and takes its norm, like DHSPG's per-group loops (2 to 4 ms);
- ``array``: three times a 256 x 8 by 8 x 2000 matrix product and a ReLU
  over its 4 MB result, like an eval-mode forward at batch 256 (2.4 to
  4 ms).

Both are the benchmark's own code, not zigprune's.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=16000)
_GROUPS = [np.arange(8 * i, 8 * i + 8) for i in range(2000)]
_A = _RNG.normal(size=(256, 8))
_W = _RNG.normal(size=(8, 2000))
# preallocated: a fresh 4 MB result would be mapped and faulted in anew
# on every call, at a cost that depends on the allocator's state
_OUT = np.empty((256, 2000))


def _python_kernel() -> float:
    acc = 0.0
    for ix in _GROUPS:
        v = _X[ix]
        acc += float(np.sqrt(np.dot(v, v)))
    return acc


def _array_kernel() -> float:
    acc = 0.0
    for _ in range(3):
        np.matmul(_A, _W, out=_OUT)
        np.maximum(_OUT, 0.0, out=_OUT)
        acc += float(_OUT.sum())
    return acc


# kernel and its reference time, about its fastest time on the machine of
# the reference figures in README.md; the scale is arbitrary, and only
# figures made with the same kernels and reference times compare
KERNELS = {"python": (_python_kernel, 0.002), "array": (_array_kernel, 0.0024)}


def tick(kind: str) -> float:
    """Seconds one run of kernel ``kind`` takes now. An untimed run first
    brings its data into cache, so the time does not depend on how much
    memory the program touched before."""
    kernel, _ = KERNELS[kind]
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def timed(kind: str, fn, *args, **kwargs):
    """fn's result and its time in reference seconds of kernel ``kind``."""
    before = tick(kind)
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    after = tick(kind)
    return out, seconds * 2.0 * KERNELS[kind][1] / (before + after)
