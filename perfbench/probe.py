"""The host probe: how fast this host runs Python at this moment.

The benchmark shares a small host with other tenants, whose load slows
it by up to a half for seconds at a time (README.md, "Timing noise").
A fixed pure-Python loop, timed right before every operation, every
0.1 s while one runs and once after the last, sees the same slowdown;
run.py scales each latency by the probes taken around it.  The loop is
the benchmark's own code, so no change to the program moves it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: What :func:`probe` takes at the reference speed: the host's fast
#: state on the 2-core machine the bounds were set on.
REFERENCE_S = 0.006
#: Seconds between probes while an operation runs.
SAMPLE_INTERVAL_S = 0.1


def probe() -> float:
    """Seconds a fixed loop of 60,000 multiply-modulo-adds takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probes) -> float:
    """``seconds`` measured while ``probes`` were taken, scaled to the
    reference speed."""
    return seconds * REFERENCE_S / statistics.median(probes)


def beside(probes, index: int) -> list:
    """The probes taken right before and right after operation ``index``,
    of the probes taken between operations."""
    return probes[index:index + 2]


class ScaledTimer:
    """Times a run of steps, each scaled to the reference speed by the
    probes taken on its two sides.  Starts timing when made."""

    def __init__(self) -> None:
        self.probes = [probe()]
        #: Seconds as measured, and at the reference speed.
        self.seconds = 0.0
        self.scaled = 0.0
        self._start = time.perf_counter()

    def step(self) -> None:
        """End the current step and start the next."""
        elapsed = time.perf_counter() - self._start
        self.probes.append(probe())
        self.seconds += elapsed
        self.scaled += at_reference_speed(elapsed, self.probes[-2:])
        self._start = time.perf_counter()


class HostSampler:
    """While armed, probes the host every ``SAMPLE_INTERVAL_S`` from a
    SIGALRM handler, so that a long operation is scaled by the speed the
    host had during it, not only at its two ends.  Each sample is ``(at,
    probe_s, handler_s)`` on the monotonic clock the operations are timed
    with; the handler's own time is taken off the operation's latency."""

    def __init__(self) -> None:
        self.samples: list = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.monotonic()
        seconds = probe()
        self.samples.append((start, seconds, time.monotonic() - start))

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def disarm(self) -> list:
        """Stop sampling; the samples taken since :meth:`arm`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples, self.samples = self.samples, []
        return samples
