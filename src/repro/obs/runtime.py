"""Instrumentation bundles and the ambient (process-local) default.

:class:`Instrumentation` pairs a :class:`~repro.obs.metrics.MetricsRegistry`
with a tracer.  Components that own a natural handle take one explicitly
(the simulation oracle, the explorer, the MILP formulation); substrate
layers with no clean plumbing path — the DES kernel deep inside picklable
replicate jobs, the simplex engine under the branch-and-bound solver —
read the *ambient* instrumentation via :func:`get_active`.

The ambient default uses a process-global registry and the no-op tracer,
so uninstrumented programs pay one function call plus a counter add per
*milestone* (per simulation run, per LP solve — never per event or per
pivot).  The CLI activates a real tracer for the duration of a run with
:func:`activate`.  Pool worker processes run each task under a fresh
registry and ship its counter increments back with the result
(:func:`repro.core.parallel.pool_task`), so counter totals are the same
at any ``--jobs``; oracle- and explorer-level events are emitted in the
parent and stay complete under fan-out, while per-replicate DES
milestones are only traced reliably in serial runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer


class Instrumentation:
    """A metrics registry plus a tracer, with convenience delegates."""

    __slots__ = ("metrics", "tracer")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- tracer delegates --------------------------------------------------------

    def event(self, kind: str, **fields) -> None:
        self.tracer.event(kind, **fields)

    def span(self, name: str, **fields):
        return self.tracer.span(name, **fields)

    def manifest(self, **fields) -> None:
        self.tracer.manifest(**fields)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    # -- metrics delegates -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    def __repr__(self) -> str:
        return (
            f"Instrumentation(metrics={self.metrics!r}, "
            f"tracing={self.tracing})"
        )


#: Process-global default: real (cheap) metrics, no tracing.
_DEFAULT = Instrumentation(MetricsRegistry(), NULL_TRACER)
_active = _DEFAULT


def get_active() -> Instrumentation:
    """The ambient instrumentation for this process."""
    return _active


def set_active(instr: Optional[Instrumentation]) -> Instrumentation:
    """Install ``instr`` as the ambient instrumentation (``None`` restores
    the process default).  Returns the previously active one."""
    global _active
    previous = _active
    _active = instr if instr is not None else _DEFAULT
    return previous


@contextmanager
def activate(instr: Instrumentation):
    """Scoped :func:`set_active`: restores the previous instrumentation on
    exit even if the body raises."""
    previous = set_active(instr)
    try:
        yield instr
    finally:
        set_active(previous)
