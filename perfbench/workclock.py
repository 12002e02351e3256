"""A clock that counts reference seconds: wall time scaled by the core's speed.

The benchmark shares a few cores of a host with other tenants, and the speed of
those cores drifts by a third or more within seconds and between runs; every
timing of one run moves with it.  ``WorkClock`` divides that drift out: a
``SIGALRM`` handler runs ``reference_loop`` every ``PERIOD_S`` seconds, and the
clock advances by the wall time since the last probe times
``REFERENCE_LOOP_S / u``, where ``u`` is the median of the last few probe times.
A reference second (unit ``ref_s``) is thus the work a core does in one second
when it runs the reference loop in ``REFERENCE_LOOP_S``.  Probe time itself is
left out of every interval.

The reference loop is pure Python, like the package: ``Fraction`` arithmetic
with integers of a few hundred bits, as in ``RadicalScalar``, and float dot
products over a list of lists as large as the solver's d=256 matrix.  It lives
here and not in the package, so a change to the package moves a time in
``ref_s`` as much as it moves the same time in seconds on a steady core.
"""

from __future__ import annotations

import functools
import random
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

now = time.perf_counter

# About the reference loop's time on one quiet core of a 2-vCPU Xeon VM; only an
# exchange rate, fixed so that reference seconds read close to seconds.
REFERENCE_LOOP_S = 0.001
# The clock's rate is the median of the last WINDOW probes: long enough to
# ignore one probe that a burst stretched, short enough to follow the drift.
WINDOW = 3
WARMUP_PROBES = 10
# One probe every PERIOD_S: the host's speed switches within a second, and
# probes of about 1 ms this often cost some 3% of a run.
PERIOD_S = 0.04


@functools.cache
def _operands() -> tuple[list[list[float]], list[float]]:
    rng = random.Random(20241206)
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(256)] for _ in range(256)]
    return rows, [rng.uniform(-1.0, 1.0) for _ in range(256)]


def reference_loop() -> None:
    """A fixed amount of interpreter work, about a millisecond long."""
    x = Fraction(1, 3)
    for i in range(2, 100):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i)
    rows, vector = _operands()
    for row in rows[::8]:
        total = 0.0
        for a, b in zip(row, vector):
            total = total + a * b


class WorkClock:
    """Callable like ``time.perf_counter``, but counting reference seconds.

    Use as a context manager; the clock only advances while it is entered.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._recent: deque[float] = deque(maxlen=WINDOW)
        # (reference seconds so far, wall time of the last probe's end,
        #  wall seconds per reference second)
        self._state = (0.0, now(), 1.0)
        self._previous = None

    def _probe(self) -> tuple[float, float]:
        t0 = now()
        reference_loop()
        t1 = now()
        self.probes.append(t1 - t0)
        self._recent.append(t1 - t0)
        return t0, t1

    def _rate(self) -> float:
        return statistics.median(self._recent) / REFERENCE_LOOP_S

    def _on_alarm(self, signum, frame) -> None:
        work, last, rate = self._state
        t0, t1 = self._probe()
        self._state = (work + (t0 - last) / rate, t1, self._rate())

    def __call__(self) -> float:
        while True:
            state = self._state
            t = now()
            if self._state is state:
                work, last, rate = state
                return work + (t - last) / rate

    def __enter__(self) -> "WorkClock":
        for _ in range(WARMUP_PROBES):
            self._probe()
        self._state = (0.0, now(), self._rate())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
