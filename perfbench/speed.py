"""The machine's speed, measured alongside the code the benchmark times.

The cores of a shared host change speed by 30 % and more, over seconds
and over minutes, whatever runs on them, so every time the benchmark
reports is in reference seconds: the time measured, scaled by how long a
fixed piece of reference work took in the same process while it ran.
A change to finsite moves the measured time and not the samples.

Only the standard library's lightest modules are imported: the set-up
child imports this before finsite, and its import counts in setup_s.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.001  # the reference work's time on a calm core of the machine the bounds were set on
SAMPLE_EVERY_S = 0.025  # a speed sample every this many seconds while the measured code runs
EDGE_SAMPLES = 3  # speed samples just before and just after it


def _reference_work():
    """About 1 ms of the kind of work finsite does: tuple keys, dict and
    frozenset building, set insertion."""
    table = {}
    for a in range(40):
        for b in range(40):
            table[a, b] = (a * b + a) % 40
    seen = set()
    for (a, _), c in table.items():
        seen.add(frozenset((a, c)))
    return len(seen)


def speed_sample():
    """Seconds the reference work takes now.  The collector is held off so
    that a collection of the measured code's heap never lands in a sample; the
    work frees all it allocates."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    _reference_work()
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


def reference_seconds(seconds, samples):
    """`seconds` measured while the reference work took `samples` seconds,
    expressed as seconds at the reference speed.

    The samples are spread evenly over the measured interval, so their
    mean is the interval's average slowness."""
    return seconds * REFERENCE_S * len(samples) / sum(samples)


class SpeedSampler:
    """Takes speed samples from a SIGALRM handler while the code in its
    `with` block runs, in that code's own process (no thread, no second
    process), plus a few just before and just after.  It keeps the time
    spent in the handler, to be taken out of the measured time.  Without
    the interval timer it takes only the samples before and after, which
    land in no span of a traced request."""

    def __init__(self, interval=True):
        self.interval = interval
        self.samples = []
        self.in_handler = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(speed_sample())
        self.in_handler += time.perf_counter() - t0

    def __enter__(self):
        self.samples.extend(speed_sample() for _ in range(EDGE_SAMPLES))
        if self.interval:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.extend(speed_sample() for _ in range(EDGE_SAMPLES))
        return False
