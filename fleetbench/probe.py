"""Host-speed probe, sampled while the program runs.

The benchmark runs on a few cores of a host shared with other jobs, and the
speed those cores give one process drifts within seconds and over minutes,
by more than the bounds allow: the same tunnel-detour batch took 2.6 to
4.3 s within one minute.  So while a run is timed, an interval timer
interrupts it every INTERVAL_S and a signal handler times a fixed piece of
work, the probe, that does not touch the program.

A timed window's host-normalized time is its wall time, less the probes that
ran inside it, times the probe's reference time over its mean time inside
the window: seconds of a host on which the probe takes REFERENCE_S.  The raw
wall times are printed on the detail line.

The probe is made of kinds of work, and each workload uses the kinds its own
time follows.  Over one batch repeated 7-14 times in one process, the
correlation of batch time with each kind's mean time in the batch was:

| workload | interpreted | streaming |
|---|---|---|
| open-crossing | 0.81 | 0.66 |
| tunnel-detour | 0.80 | 0.28 |
| audit-fleet | 0.51 | 0.84 |

A Python signal handler runs between bytecodes of the main thread, so a
probe falls between the program's operations, never inside a numpy call.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Seconds between probes.
INTERVAL_S = 0.05
# Mean seconds of each kind of probe work on the 2-core host the bounds
# were set on.
REFERENCE_S = {"interpreted": 0.0008, "streaming": 0.0011}

_STREAM = np.linspace(0.0, 1.0, 1 << 18)   # 2 MB, more than a core's L2


def _interpreted() -> float:
    """Interpreted loops and numpy calls on a 64-element array."""
    x, d = 0.0, {}
    for i in range(2500):
        x += (i * 0.5) % 7.0
        d[i & 255] = x
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(80):
        a = np.sqrt(a * a + 1.0) - 0.5
    return x + float(a[0])


def _streaming() -> float:
    """One numpy pass over an array larger than the core's caches."""
    return float(np.sqrt(_STREAM * _STREAM + 1.0)[-1])


KINDS = {"interpreted": _interpreted, "streaming": _streaming}


class Probe:
    """Samples the probe on an interval timer between start() and stop(),
    keeping (start time, duration) of every sample."""

    def __init__(self, kinds: tuple):
        self.work = [KINDS[k] for k in kinds]
        self.reference_s = sum(REFERENCE_S[k] for k in kinds)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        for work in self.work:
            work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, t_start: float, seconds: float) -> tuple:
        """(wall seconds less the probes that ran in it, their durations)
        of the window of length seconds from perf_counter time t_start."""
        lo = bisect.bisect_left(self.starts, t_start)
        hi = bisect.bisect_left(self.starts, t_start + seconds)
        inside = self.durations[lo:hi]
        return seconds - sum(inside), inside

    def normalized(self, net_seconds: float, probes: list) -> float:
        """Host-normalized seconds of net_seconds, timed while probes ran."""
        if not probes:
            raise RuntimeError("no host-speed probe ran in a timed window")
        return net_seconds * self.reference_s * len(probes) / sum(probes)
