"""The host-speed probe that end-to-end times are scaled by.

The shared host runs all code up to twice as slow for seconds to
minutes at a time, and a core that has been idle runs slower still for
a while; neither is the program's doing.  :func:`probe` times a fixed
pure-Python loop.  It runs every :data:`PROBE_EVERY` seconds in the
process whose speed it stands for: between operations in the thread
that times a library workload, and in a thread of its own inside the
server (``serve.py``).  A pass's times are multiplied by
:func:`host_factor` of the probes taken during it, which reports them as
if every probe had taken :data:`REFERENCE_PROBE_S`, the probe's time on
the host of README.md's numbers.

The probe allocates nothing the garbage collector tracks and touches no
program state.  Regressions injected for README.md's checks showed
through the scaling: extra work in the server, with or without the
interpreter lock, moved the probe by at most 2%, and a heap growing by
about 3 MB per operation moved it by 2.4%.
"""

from __future__ import annotations

import math
import statistics
import time

PROBE_EVERY = 0.25
REFERENCE_PROBE_S = 0.00035


def probe() -> float:
    """Seconds for a fixed pure-Python loop, the best of three (about 1 ms in all)."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(10_000):
            total += i
        best = min(best, time.perf_counter() - started)
    return best


def host_factor(probes: list[float]) -> float:
    """What scales a time measured beside ``probes`` to the reference host speed."""
    return REFERENCE_PROBE_S / statistics.median(probes)
