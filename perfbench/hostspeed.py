"""How fast the host is right now, from two fixed reference kernels.

Other tenants of a shared host slow this process by up to 2 times, in
spells that last from a fraction of a second to minutes.  ``probe_ms``
times one pure-Python kernel and one numpy kernel on a cache-resident
array and returns the geometric mean.  Run just before and just after a
measurement, it gives a factor that turns the measurement into host time
at nominal speed:

    corrected_ms = measured_ms * factor(before, after, elasticity)

Code does not slow as much as the probe when it waits on memory.  On a
host where the probe reads ``s`` times nominal, numpy over arrays of
64000 elements or more took about ``s ** 0.2`` to ``s ** 0.6`` times its
nominal time, interpreter-bound code about ``s ** 0.5`` to ``s ** 0.95``.
So each workload states the ``elasticity`` of its own code, measured
with ``elasticity.py``, and the factor is raised to it.  The exponent
changes only how much of the host's load is taken out of a figure;
between two commits measured under the same load it cancels, so a stale
exponent makes a figure noisier but does not bias the comparison (see
``perfbench/README.md``).

The kernels use neither scpsim nor anything a change to it can alter,
so they must never be edited: doing so rescales every corrected figure.
"""

from __future__ import annotations

import time

import numpy as np

#: ``probe_ms`` on an uncontended vCPU of the development host (Intel
#: Xeon, Python 3.11, numpy 2.4).  It only scales corrected figures back
#: to milliseconds; ratios between commits measured on one host do not
#: depend on it.
NOMINAL_MS = 0.35

_BYTES = bytes(range(256))
_ARRAY = np.arange(1 << 12, dtype=np.int64) * 37 - 1_000_000


def _interpreter_ms(n=1000) -> float:
    """Byte indexing, small-int multiply, truncating shift, clamp and dict update."""
    t0 = time.perf_counter_ns()
    table = {}
    for i in range(n):
        x = _BYTES[i & 255] * 77 - 150 * _BYTES[(i * 7) & 255]
        q = x >> 8 if x >= 0 else -((-x) >> 8)
        table[i & 63] = min(255, max(0, q + 128)) + table.get((i * 5) & 63, 0)
    return (time.perf_counter_ns() - t0) / 1e6


def _array_ms(reps=16) -> float:
    """Truncating divide and clamp over 2^12 int64 values, small enough
    that no temporary is mapped fresh from the operating system."""
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        np.clip(np.sign(_ARRAY) * (np.abs(_ARRAY) >> 8), 0, 255)
    return (time.perf_counter_ns() - t0) / 1e6


def probe_ms() -> float:
    # The first round refills the caches that the measured call evicted,
    # so the probe reads the host, not what the call left behind.
    _interpreter_ms()
    _array_ms()
    return (_interpreter_ms() * _array_ms()) ** 0.5


def factor(before: float, after: float, elasticity: float = 1.0) -> float:
    """Multiplier from host ms measured between two probes to nominal-speed
    ms, for code whose time grows as the probe's to the power ``elasticity``."""
    return (2 * NOMINAL_MS / (before + after)) ** elasticity
