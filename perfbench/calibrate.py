"""Machine-speed calibration of the benchmark's timings.

The benchmark host is shared with other jobs, and its speed drifts by
tens of percent within minutes: a whole run can be 30% slower than the
next one.  A run's median cannot average that away, so every timed call
is bracketed by :func:`spin`, a fixed pure-Python loop of the kind of
work the pipeline does (object allocation, dict inserts and lookups).
A timing is rescaled to the speed at which the loop takes
:data:`REFERENCE_S`: a slowdown of the machine stretches the loop and
the call alike and cancels, while a change to the program moves only
the call.
"""

import time

#: Seconds :func:`spin` takes at the reference speed (its typical time
#: on the 2-core x86-64 container the benchmark was defined on).
REFERENCE_S = 0.08


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def spin() -> float:
    """Run the fixed calibration loop; returns its wall seconds."""
    started = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(60_000):
        node = _Node((i & 1023, i >> 10), float(i))
        table[node.key] = node
        other = table.get(((i * 7) & 1023, i >> 10))
        if other is not None:
            total += other.value * 0.5
    return time.perf_counter() - started


def calibrated(seconds: float, before: float, after: float) -> float:
    """*seconds* at the reference speed, given the :func:`spin` times
    measured just before and just after it."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
