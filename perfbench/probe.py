"""Machine-speed probe: corrects timings for a shared host's slow phases.

On a shared host the same CLI call runs up to 40 % slower while a
neighbour is busy, in phases lasting from a fraction of a second to tens
of seconds, which no run length averages away.  While a `SpeedProbe` is
active, SIGALRM fires every PERIOD_S seconds of wall time and the handler
times a small fixed kernel of the benchmark's own: a periodic difference
operator on a 4 x 2 array, the same mix of numpy calls on tiny arrays and
per-point Python callbacks as the package's residual evaluation, so that
its slowdown tracks the package's.  (Regressing the log of a sweep's wall
time on the log of the mean probe time during it gave a slope of 1.0 for
this kernel, over probe times varying 2x; for a loop of dict, list and
float operations it gave 0.84, which over-corrects the slow phases.)

A timed window's load-corrected time is its wall time, less the probe's
own time inside it, scaled by REF_S over the mean probe time inside it:
the window's time on a host where the probe takes REF_S.  The probe never
calls the package, so a change to the package moves the corrected time as
much as the wall time.  No thread or process is started; the handler runs
in the main thread between bytecodes.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
PROBE_ITERATIONS = 20
# About the mean probe time on a 2-core x86-64 host; it only sets the scale
# of the corrected times, which read as seconds on that host.
REF_S = 0.0006

_U = np.linspace(-1.0, 1.0, 8).reshape(4, 2)


def _coupling(k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b - 0.1 * k


def _probe_work(n: int = PROBE_ITERATIONS) -> float:
    v, total = _U, 0.0
    for _ in range(n):
        d = np.roll(v, -1, axis=0) - v
        a = np.abs(d) * d
        lhs = a - np.roll(a, 1, axis=0)
        c = np.empty_like(v)
        for k in range(len(v)):
            c[k] = _coupling(k, v[k], d[k])
        total += float(np.linalg.norm(lhs + c))
    return total


class SpeedProbe:
    """Samples the probe's time from a SIGALRM interval timer while active."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, t0: float, t1: float) -> list[float]:
        return [d for e, d in zip(self.ends, self.durations) if t0 < e <= t1]

    def corrected(self, windows) -> list[float]:
        """Load-corrected seconds of each (start, end) window, in order.

        A window with no sample inside (shorter than PERIOD_S) is scaled by
        the mean over the span from the first window's start to the last
        window's end.
        """
        around = self._inside(windows[0][0], windows[-1][1])
        out = []
        for t0, t1 in windows:
            inside = self._inside(t0, t1)
            scale = inside or around
            if not scale:
                raise RuntimeError("the speed probe took no sample")
            out.append((t1 - t0 - sum(inside)) * REF_S * len(scale) / sum(scale))
        return out
