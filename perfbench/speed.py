"""Machine-speed sampler: wall time rescaled to a fixed reference speed.

The host this benchmark was built on changes speed by up to 2x in phases
of a fraction of a second to tens of seconds (neighbours on shared cores),
so the same pass over the same inputs took anywhere from 10 to 16 s.  The
sampler measures that speed while the workload runs: every PERIOD seconds
a SIGALRM handler, in the one thread the workload uses, times PROBE, a
fixed piece of plain-integer Python work.  A stretch of wall time then
counts as reference seconds in proportion to how fast the probe ran around
it, as if the probe had taken REFERENCE_S every time:

    reference_s(t0, t1) = REFERENCE_S * sum over stretches of dt / probe_s

where probe_s is the median of the five probes nearest the stretch and the
probes' own time is left out.  A change that makes the program do less work
shows in full; a phase in which the whole machine runs slower does not.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional

PERIOD = 0.05          # seconds between probes
REFERENCE_S = 0.0005   # the probe's time at reference speed
_WINDOW = 2            # probes on each side in the median


def probe(reps: int = 400) -> int:
    """Fixed work like the library's inner loops: small integer dot products."""
    u, v, s = tuple(range(1, 10)), tuple(range(9, 0, -1)), 0
    for i in range(reps):
        s += sum(a * b for a, b in zip(u, v)) + i
    return s


class Sampler:
    """Probe timings taken on SIGALRM between start() and stop()."""

    def __init__(self):
        self.clock = time.perf_counter
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._probe_s: Optional[List[float]] = None
        self._old_handler = None

    def _sample(self, *_args) -> None:
        if len(self.starts) != len(self.ends):
            return  # a signal arrived during a probe
        t0 = self.clock()
        self.starts.append(t0)
        probe()
        self.ends.append(self.clock())

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop sampling; every interval timed since start() can be converted."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        raw = [e - s for s, e in zip(self.starts, self.ends)]
        self._probe_s = [statistics.median(raw[max(0, i - _WINDOW):i + _WINDOW + 1])
                         for i in range(len(raw))]

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], probes left out."""
        starts, ends, probe_s = self.starts, self.ends, self._probe_s
        total = 0.0
        # probe i is followed by plain workload time until probe i + 1 starts
        i = max(bisect.bisect_right(starts, t0) - 1, 0)
        while i < len(starts) - 1 and starts[i] < t1:
            lo, hi = max(t0, ends[i]), min(t1, starts[i + 1])
            if hi > lo:
                total += (hi - lo) / probe_s[i]
            i += 1
        return REFERENCE_S * total

    def probe_quartiles(self) -> List[float]:
        """Quartiles of the raw probe times, in seconds; start() and stop() each take one."""
        return statistics.quantiles([e - s for s, e in zip(self.starts, self.ends)], n=4)
