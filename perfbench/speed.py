"""The machine's speed right now, from a fixed loop timed between calls.

On a shared virtual machine the host's speed drifts: the same desk-session
pass took from 12.8 to 20.7 CPU seconds within a few minutes, and a fixed
pure-Python loop slowed by most of that at the same times.  So the worker
times ``sample()`` before the first call, after the last, and between
calls whenever ``EVERY_S`` seconds have passed, and scales the pass's CPU
time by ``factor()``: the reference speed, at which one sample takes
``REF_S`` seconds, over the speed of the median sample.  The time spent
sampling is left out of every other measurement.

The median, not a mean of the samples around each call, because a pass
can be a few long calls: pure-box spends most of its time in one call, and
a single slow or fast sample beside it moved the scaled time by 15%.
"""

import statistics
import time

#: CPU seconds of one sample at the reference speed.  Changing it changes
#: every scaled metric, so it stays fixed from one benchmark run to the next.
REF_S = 0.010
#: wall seconds between samples during a pass
EVERY_S = 0.25
LOOP = 100_000


def sample() -> float:
    """CPU seconds this process takes for a fixed pure-Python loop."""
    t0 = time.process_time()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.process_time() - t0


def factor(samples: list[float]) -> float:
    """The measured speed over the reference speed; CPU time times this
    factor is CPU time at the reference speed."""
    return REF_S / statistics.median(samples)
