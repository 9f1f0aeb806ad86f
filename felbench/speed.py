"""The reference computation that scales the benchmark's times to one CPU speed.

The host's CPU speed changes by 10-30% from one second to the next, and a
slow spell slows the program and any other code in its process alike, if
not by exactly the same share.  So while a command runs, a SIGALRM every
``PERIOD`` seconds runs ``kernel()``, a fixed piece of pure-Python and numpy
work that does not touch fel, and records how long it took; the kernel also
runs ``EDGE_SAMPLES`` times just before and just after the command.  The
mean of those samples is the speed the command ran at, and its time ``t`` is
reported as ``t * REF_S / mean``: the time it would have taken at the speed
where the kernel takes ``REF_S`` seconds.  The time the handler itself took
is taken out of the command it interrupted.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.1        # seconds between two kernel samples while a command runs
REF_S = 0.0027      # nominal kernel time: the reported times are at this speed
EDGE_SAMPLES = 3    # samples just before and just after each timed span


_XS = np.linspace(0.0, 1.0, 64)
_WS = np.full(64, 1.0 / 64)


def kernel():
    """About 1.4 ms of big-integer, small-integer and float arithmetic,
    0.5 ms of numpy calls on 64-point arrays and 1 ms of strided numpy
    writes to an 800 kB array: the interpreter-bound, call-bound and
    memory-bound parts of the program's work."""
    s, x, f = 0, 7 ** 300, 1.0
    for i in range(3000):
        s += (x * (i + 1)) % 1000003
        f = f * 1.0000001 + 0.5
    for i in range(60):
        f += float(np.dot(_WS, np.abs(np.exp(_XS * (1.0 + i * 1e-3)) * np.cos(_XS))))
    sieve = np.ones(800_000, dtype=bool)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        sieve[p * p::2 * p] = False
    return s, f, int(sieve.sum())


class SpeedProbe:
    """Kernel samples taken around and, on a timer, during timed spans."""

    def __init__(self):
        self.samples = []   # seconds of each kernel run
        self.busy = 0.0     # seconds spent in the timer's handler
        self._old = None

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _on_timer(self, *_):
        t0 = time.perf_counter()
        self._sample()
        self.busy += time.perf_counter() - t0

    def begin(self, timer=True):
        """Start a timed span: edge samples, then the timer; returns a mark.
        Without the timer only the edge samples give the speed."""
        for _ in range(EDGE_SAMPLES):
            self._sample()
        mark = (len(self.samples) - EDGE_SAMPLES, self.busy)
        if timer:
            self._old = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return mark + (timer,)

    def end(self, mark, seconds):
        """Stop the timer and take the edge samples; ``seconds`` measured since
        ``begin`` becomes (handler time taken out, reference-speed seconds)."""
        if mark[2]:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        own = seconds - (self.busy - mark[1])
        for _ in range(EDGE_SAMPLES):
            self._sample()
        span = self.samples[mark[0]:]
        return own, own * REF_S * len(span) / sum(span)
