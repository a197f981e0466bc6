"""A fixed reference computation that measures how fast the machine runs
right now.

The machines this benchmark runs on change speed by themselves: a fixed
loop of small numpy operations took 1.4 to 1.8 times as long in slow
stretches as in fast ones, and the stretches lasted from seconds to
minutes, so whole runs fell into one state.  A worker times this probe at
the start of every pass, after every phase and around every set-up call;
``run.py`` scales each phase's times by ``PROBE_REF_S`` over the mean of
the probes taken just before and just after it.

The probe imitates the simulator's two kinds of work: row gathers with
tiny matrix-vector products (the MF kernels) and a small dense
embedding-softmax block (the NWP kernels).  It is the benchmark's own
code, so no change to the simulator changes how long it takes.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's duration on the reference machine (2 vCPUs, x86-64,
# Python 3.11, numpy 2.4 with OpenBLAS on one thread) in its fast stretches.
PROBE_REF_S = 0.005


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20210205)
        self._items = rng.standard_normal((3706, 50))
        self._rows = rng.integers(0, 3706, size=(300, 5))
        self._user = 0.1 * rng.standard_normal(50)
        self._emb = rng.standard_normal((410, 32))
        self._out = rng.standard_normal((32, 410))
        self._ctx = rng.integers(0, 410, size=(40, 16, 3))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        p = self._user.copy()
        for rows in self._rows:
            q = self._items[rows]
            p = p - 0.001 * ((q @ p - 1.0) @ q)
        for ctx in self._ctx:
            h = self._emb[ctx].mean(axis=1)
            z = h @ self._out
            z = np.exp(z - z.max(axis=1, keepdims=True))
            z /= z.sum(axis=1, keepdims=True)
            _ = h.T @ z + (z @ self._out.T).sum()
        return time.perf_counter() - t0
