"""Wall time rescaled to a reference machine speed.

The benchmark shares a 2-core machine whose speed drifts by up to half
within seconds, so plain wall times of identical work spread by more than
any useful regression bound.  ``SpeedClock`` samples the machine's
current speed with a tiny fixed kernel every ``PERIOD_S`` (a ``SIGALRM``
handler in the measured process itself, so no thread or process is
added) and counts each stretch of wall time between two samples at the
rate the later sample measured:

    reference seconds = sum over stretches of  wall seconds * K0 / probe

where ``probe`` is the kernel's measured time and ``K0`` its typical time
on the machine the benchmark was written on (a 2-core 2.0 GHz Xeon VM), so
reference seconds stay close to wall seconds there.  The kernel is
benchmark code that does what the package's inner loops do (relabel a
permutation tuple, look it up in a set) and never changes, so a faster
package gives fewer reference seconds while machine drift cancels out.
Time spent in the kernel itself is not counted.
"""
from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
K0 = 0.0006  # seconds per kernel call at the reference speed
_STEPS = 800
_RELABEL = (3, 1, 4, 0, 8, 5, 2, 7, 6)


def kernel() -> int:
    seen = set()
    p = (1, 2, 3, 4, 5, 6, 7, 8, 0)
    out = [0] * 9
    for _ in range(_STEPS):
        for i, v in enumerate(p):
            out[_RELABEL[i]] = _RELABEL[v]
        p = tuple(out)
        if p not in seen:
            seen.add(p)
    return len(seen)


def probe() -> float:
    t = time.monotonic()
    kernel()
    return time.monotonic() - t


class SpeedClock:
    """Reference seconds since ``origin`` (a ``time.monotonic()`` value,
    possibly taken in the parent process before this one started; the
    stretch before the clock exists is counted at the first probe's
    rate)."""

    def __init__(self, origin: float):
        p = probe()
        now = time.monotonic()
        # (reference seconds up to `last`, wall time of the last probe's
        # end, that probe's duration), replaced as one value so that a
        # reader interrupted by the signal handler never mixes two states
        self._state = ((now - origin) * K0 / p, now, p)
        self.probes = [p]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        kernel()
        end = time.monotonic()
        p = end - start
        norm, last, _ = self._state
        self._state = (norm + (start - last) * K0 / p, end, p)
        self.probes.append(p)

    def now(self) -> float:
        norm, last, p = self._state
        return norm + (time.monotonic() - last) * K0 / p

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
