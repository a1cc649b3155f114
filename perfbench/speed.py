"""Host speed probe: scales measured times to a fixed reference host speed.

The benchmark's host is a share of a machine whose speed drifts, for all
interpreter-bound work alike, by up to a factor of two within minutes, and
which switches between a fast and a slow state many times a second.  That is
far more than the changes the benchmark must resolve, and no run is long
enough to average it out.

So while set-up and the untraced ops run, a probe -- a fixed piece of
pure-Python work that never calls the program -- runs every
``PROBE_INTERVAL_S`` on the main thread, from a ``SIGALRM`` handler.  Probes
also run back to back for ``WINDOW_S`` before the first and after the last
measured interval.  Afterwards each measured interval is reduced by the probe
time inside it, and multiplied by ``REFERENCE_S`` times the mean probe speed
(one over the probe time) within ``WINDOW_S`` of it.  Probes are spread evenly
in time, so that mean is the host's mean speed over the interval, and a scaled
time reads as the interval would have taken on a host on which one probe
always takes ``REFERENCE_S``.

The program is single-threaded and the handler runs between its bytecodes, so
each probe lies wholly inside or wholly outside any interval the benchmark
measures.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.5
# Median probe time on the host of the first baseline (2-vCPU Linux VM,
# Python 3.11.7), so scaled times there read about as measured.
REFERENCE_S = 0.0006

clock = time.perf_counter


def probe_work():
    """Fraction arithmetic, int tuples and dict updates, like the program's
    own inner loops."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = tuple((i * k) % 97 for k in range(12))
        seen[key] = seen.get(key, 0) + sum(key)
    return acc, len(seen)


class SpeedProbe:
    """Context manager that probes the host speed while it is open."""

    def __init__(self):
        self.starts: list = []  # when each probe began
        self.busy: list = []  # how long each probe held the main thread
        self.durations: list = []  # the timed, warm run of each probe

    def _probe(self, *_signal_args):
        # With the collector on, a probe would often pay for collecting the
        # program's young objects; the program pays for them itself later.
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        probe_work()  # refills the caches the program has just used
        warm = clock()
        probe_work()
        end = clock()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.busy.append(end - start)
        self.durations.append(end - warm)

    @staticmethod
    def _spin(seconds: float):
        end = clock() + seconds
        while clock() < end:
            pass

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._spin(WINDOW_S)
        return self

    def __exit__(self, *exc):
        self._spin(WINDOW_S)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, intervals) -> tuple:
        """For each measured ``(start, end)``: its time less the probes inside
        it, unscaled and scaled to the reference speed.  Call after closing."""
        starts, durations = self.starts, self.durations
        unscaled, scaled = [], []
        for start, end in intervals:
            lo, hi = bisect_left(starts, start), bisect_right(starts, end)
            inside = sum(b for s, b in zip(starts[lo:hi], self.busy[lo:hi]) if s + b <= end)
            own = end - start - inside
            middle = (start + end) / 2
            near = durations[bisect_left(starts, min(start, middle - WINDOW_S)):
                             bisect_right(starts, max(end, middle + WINDOW_S))] or durations
            unscaled.append(own)
            scaled.append(own * REFERENCE_S * statistics.fmean(1 / d for d in near))
        return unscaled, scaled

    def summary(self) -> dict:
        return {
            "probes": len(self.durations),
            "probe_median_s": statistics.median(self.durations),
            "probe_harmonic_mean_s": statistics.harmonic_mean(self.durations),
            "probe_total_s": sum(self.busy),
            "reference_s": REFERENCE_S,
        }
