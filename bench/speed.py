"""Machine-speed probes that put wall times taken on a shared host on one scale.

On a 2-vCPU x86-64 VM shared with other tenants, a single process slows by
up to 2x for minutes at a time (process CPU time slows just as much as wall
time), so raw wall times of identical runs spread by 30-40%. A probe is
a fixed piece of work that belongs to the benchmark, not to the library. It
runs before and after every timed region, and each region's wall time is
scaled by

    factor = (PROBE_REF_S / mean(probe before, probe after)) ** PROBE_EXPONENT

A change to the library moves the region's time but not the probe's, so it
still shows in full.

The exponent is below 1 because the probes slow down more than the library
does: fitting log(op time) against log(probe time) over desk-train ops on
such a VM gave slopes of 0.41-0.54 for every probe tried (small numpy
ops, sgemm, and a copy of the tape's closure-and-record pattern), sampled
around or inside the ops. A full correction would overshoot and add noise.

Each workload names the probe whose mix of work is closest to its own:
"interp" is interpreter-bound (many small numpy calls, objects and closures,
like the tape at desk scale), "blas" is sgemm and streaming elementwise
updates at paper-scale shapes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe durations on a quiet host (2-core x86-64 VM, OpenBLAS 0.3.31, one
# BLAS thread). They only fix the scale of the normalised numbers.
PROBE_REF_S = {"interp": 0.010, "blas": 0.015}
PROBE_REPEATS = 5
PROBE_EXPONENT = 0.5


class _Node:
    __slots__ = ("data", "grad", "flag")

    def __init__(self, data):
        self.data = data
        self.grad = None
        self.flag = True


def _interp_work(a, w):
    tape = []
    for _ in range(1500):
        x = _Node(a @ w)
        y = _Node(x.data * 0.5 + a)
        z = _Node(np.maximum(y.data, 0.0))
        ok = np.isfinite(z.data).all()
        tape.append(lambda g, x=x: g @ w.T)
        tape.append((y, z, ok))
        if len(tape) > 200:
            tape.clear()


def _blas_work(x, w, p, m):
    for _ in range(2):
        h = x @ w
        x.T @ h
        m *= 0.9
        m += 0.1 * p
        p -= 1e-9 * m / (np.sqrt(m * m) + 1e-8)


class SpeedProbe:
    """Runs one kind of probe on demand."""

    def __init__(self, kind: str):
        if kind not in PROBE_REF_S:
            raise ValueError(f"unknown probe {kind!r}")
        self.ref_s = PROBE_REF_S[kind]
        if kind == "interp":
            args = (np.ones((10, 32), np.float32), np.ones((32, 32), np.float32))
            self._work = lambda: _interp_work(*args)
        else:
            args = (np.ones((100, 1024), np.float32), np.ones((1024, 512), np.float32),
                    np.ones(1_000_000, np.float32), np.zeros(1_000_000, np.float32))
            self._work = lambda: _blas_work(*args)

    def sample(self) -> float:
        """Median of a few probe runs, in seconds."""
        runs = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            self._work()
            runs.append(time.perf_counter() - start)
        return statistics.median(runs)

    def factor(self, before: float, after: float) -> float:
        """Scale for a region bracketed by the probe samples `before` and `after`."""
        return (self.ref_s / ((before + after) / 2.0)) ** PROBE_EXPONENT
