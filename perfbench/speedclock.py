"""Wall time scaled by the machine's speed, probed in the measured thread.

On a few cores of a shared host the speed of a core drifts by a factor of
up to 1.7 within seconds (a fixed pure-Python loop took 0.064 to 0.112 s in
one 40 s stretch on a 2-vCPU VM, CPU time tracking wall time), so a plain
wall time says as much about the neighbours as about the program.  A
``SpeedClock`` interrupts the measured body every ``PERIOD_S`` seconds
(``SIGALRM``, handled between bytecodes of the main thread) and times a
short fixed reference loop there.  Each stretch of the body between two
probes is scaled by the reference loop's nominal time over its measured
time, averaged over the probes at both ends; the probes' own time is left
out.  The sum is the body's time in *reference seconds*: the seconds it
would have taken had the core run the reference loop in ``PROBE_REF_S``.
That constant only sets the scale, and is close to the loop's median time
on the machine the benchmark was tuned on, so reference seconds read close
to wall seconds there.

The reference loop exercises what the library's hot paths do (calls,
attribute and dict lookups, small and big integer arithmetic, tuple and
object allocation) and does not touch the library, so no change to the
program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_REPS = 1000
PROBE_REF_S = 0.002


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _reference_loop(reps: int = PROBE_REPS) -> int:
    acc = 0
    big = 3 ** 150
    table = {}
    for i in range(reps):
        p = _Pair(i, big + i)
        q = _Pair(p.b * 7 % 1000003, (p.a, i))
        table[i & 15] = q
        acc += q.a + len(q.b) + (big * (i + 1) // (big - i)) + table[i & 15].a % 97
        acc ^= hash((i, acc & 0xFFFF))
    return acc


def probe() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def probe_median(n: int = 5) -> float:
    """Median of n probes in a row: a steadier reading for a single interval."""
    return statistics.median(probe() for _ in range(n))


def to_ref(wall_s: float, probe_start_s: float, probe_end_s: float) -> float:
    """Reference seconds of a stretch of wall_s seconds, from the probes at its two ends."""
    return wall_s * 2 * PROBE_REF_S / (probe_start_s + probe_end_s)


class SpeedClock:
    """Use as ``with SpeedClock() as clock: body()``; then read ``clock.wall_s``
    (the body's wall time without the probes) and ``clock.ref_s``."""

    def __enter__(self) -> "SpeedClock":
        self.stretches = []  # (wall seconds of body, probe seconds at its start, at its end)
        self.probe_s = 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._last_probe = probe()
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _close_stretch(self) -> None:
        end = time.perf_counter()
        p = probe()
        self.stretches.append((end - self._mark, self._last_probe, p))
        self._last_probe = p
        self._mark = time.perf_counter()
        self.probe_s += self._mark - end

    def _on_alarm(self, signum, frame) -> None:
        self._close_stretch()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._close_stretch()

    @property
    def wall_s(self) -> float:
        return sum(dt for dt, _, _ in self.stretches)

    @property
    def ref_s(self) -> float:
        return sum(to_ref(dt, p0, p1) for dt, p0, p1 in self.stretches)
