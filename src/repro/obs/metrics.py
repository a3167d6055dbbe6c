"""Process-local metrics primitives: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat name → instrument map.  Instruments
are deliberately lock-free (the interpreter serializes the ``+=`` on the
hot path and every registry is process-local), allocation-light, and
cheap enough to leave enabled unconditionally: incrementing a counter is
one attribute add, and components hold direct references to their
instruments so the registry dict is only touched at construction time.

The registry is the single source of truth for run statistics — e.g. the
simulation oracle's ``stats()`` is computed entirely from its registry —
and :meth:`MetricsRegistry.to_dict` serializes everything for the CLI's
``--metrics-out`` dump.
"""

from __future__ import annotations

from typing import Dict, List, Union


class Counter:
    """A named monotone accumulator (int or float increments)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, by: Union[int, float] = 1) -> None:
        self.value += by

    def reset(self) -> None:
        self.value = 0

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name!r}={self.value})"


class Gauge:
    """A named last-value-wins instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}={self.value})"


class Histogram:
    """A sample-keeping histogram with nearest-rank quantiles.

    Samples are kept verbatim (the workloads instrumented here observe at
    per-simulation or per-solve grain, thousands of samples at most), so
    quantiles are exact.  The sorted view is cached and invalidated on
    insert, making repeated quantile queries O(1) after the first.
    """

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted: bool = True

    def observe(self, value: float) -> None:
        self._samples.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return sum(self._samples) / len(self._samples) if self._samples else 0.0

    @property
    def min(self) -> float:
        return min(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile; 0.0 on an empty histogram.

        By construction ``min <= quantile(q) <= max`` for every
        ``q ∈ [0, 1]`` and the function is monotone in ``q``.
        """
        if not self._samples:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples[min(len(self._samples) - 1, int(q * len(self._samples)))]

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = True

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are free-form dotted strings (``"oracle.simulations"``,
    ``"milp.nodes"``).  Re-requesting a name returns the existing
    instrument; requesting it as a different type is an error.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        for instrument in self._instruments.values():
            instrument.reset()  # type: ignore[attr-defined]

    def counter_values(self) -> Dict[str, Union[int, float]]:
        """name → value of every non-zero counter (what a pool child
        ships back for its parent to add)."""
        return {
            name: instrument.value
            for name, instrument in self._instruments.items()
            if isinstance(instrument, Counter) and instrument.value
        }

    def to_dict(self) -> Dict[str, dict]:
        """JSON-serializable snapshot of every instrument, sorted by name."""
        return {
            name: self._instruments[name].to_dict()  # type: ignore[attr-defined]
            for name in self.names()
        }

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
