"""The host's speed, measured beside every pass.

The reference microVM does not run at one speed: the same code reads 10-25 %
slower for minutes at a time, which no median over the passes of one run
can remove. A fixed loop of interpreter, distance-matrix and streaming work
(the mix the workloads are made of) is therefore timed before and after
every pass, and the pass's times are scaled by `REFERENCE_S` / loop time:
every reported time is in seconds at the reference host's usual speed. The
loop calls nothing under `src/`, so no change to the program can move it.
"""

import time

import numpy as np
from scipy.spatial.distance import cdist

#: The loop's time on the reference host in its usual speed mode.
REFERENCE_S = 0.0150

_rng = np.random.default_rng(0)
_POINTS = _rng.random((4000, 32), dtype=np.float32)
_CENTERS = _POINTS[:64].copy()
_STREAM = _rng.random(2 << 20, dtype=np.float32)   # 8 MB, twice the L2
_STREAM_OUT = np.empty_like(_STREAM)


def loop():
    """Seconds the fixed loop took, by part: (interpreter, cdist, stream)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    t1 = time.perf_counter()
    cdist(_POINTS, _CENTERS)
    cdist(_POINTS, _CENTERS)
    t2 = time.perf_counter()
    for factor in (1.5, 0.5, 1.5, 0.5):
        np.multiply(_STREAM, factor, out=_STREAM_OUT)
    t3 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2


def speed(*loops):
    """Host speed over the given loop samples: 1.0 is the reference host."""
    return REFERENCE_S * len(loops) / sum(sum(parts) for parts in loops)
