"""Structured runtime metrics: counters, gauges and streaming histograms.

The registry is the statistics feed every other subsystem reports into —
the engine's per-task tuple counts, the DES's per-replica occupancy, the
optimizer's search statistics.  It exists so that runs become
machine-readable (see :mod:`repro.metrics.export`) instead of each harness
inventing its own result shape.

Design constraints:

* **Near-zero cost when off.**  Instrumented code takes a registry object
  and checks its ``enabled`` flag once per hot section; the default
  :data:`NULL_REGISTRY` hands out shared no-op instruments, so an
  uninstrumented run pays at most one boolean test per batch.
* **Bounded memory.**  Histograms are streaming: exact count/sum/min/max
  plus a fixed-size reservoir sample for quantiles (Vitter's Algorithm R
  with a deterministic per-instrument RNG, so runs are reproducible).
* **Flat dotted names.**  The convention is ``component.replica.metric``
  (e.g. ``engine.splitter.0.tuples_in``); the registry itself only
  requires names to be non-empty strings, and one name maps to exactly one
  instrument kind.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterator

from repro.errors import MetricsError

#: Reservoir size used by default; large enough that p99 of a
#: 4096-sample reservoir tracks the true p99 closely.
DEFAULT_RESERVOIR = 4096


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time float value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming distribution: exact moments + reservoir-sampled quantiles.

    ``observe`` is O(1); quantiles sort the (bounded) reservoir on demand.
    With fewer observations than the reservoir size the quantiles are
    exact and match :func:`statistics.quantiles` with
    ``method="inclusive"``.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "_samples",
        "_reservoir",
        "_capacity",
        "_rng_state",
    )

    def __init__(
        self, name: str, reservoir: int = DEFAULT_RESERVOIR, seed: int = 0
    ) -> None:
        if reservoir < 1:
            raise MetricsError("histogram reservoir must hold >= 1 sample")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples = 0  # observe() calls: what the reservoir samples
        self._reservoir: list[float] = []
        self._capacity = reservoir
        # Deterministic per-instrument stream: a tiny xorshift seeded from
        # the name, so identical runs keep identical reservoirs without
        # touching the global RNG.
        self._rng_state = (zlib.crc32(name.encode()) ^ seed) or 1

    def _rand_below(self, n: int) -> int:
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._rng_state = x
        return x % n

    def observe(self, value: float, weight: int = 1) -> None:
        """Record ``value`` for ``weight`` items at once (a per-item mean
        over a batch): the count and sum move by ``weight``, while min,
        max and the quantile reservoir see one sample."""
        value = float(value)
        self.count += weight
        self.total += value * weight
        self._samples += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rand_below(self._samples)
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (inclusive interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q} outside [0, 1]")
        if not self._reservoir:
            raise MetricsError(f"histogram {self.name!r} has no samples")
        data = sorted(self._reservoir)
        if len(data) == 1:
            return data[0]
        position = q * (len(data) - 1)
        low = math.floor(position)
        high = math.ceil(position)
        return data[low] + (data[high] - data[low]) * (position - low)

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]."""
        return self.quantile(p / 100.0)

    def snapshot(self) -> dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Namespace of named instruments, created on first use.

    One name resolves to exactly one instrument; asking for the same name
    with a different kind is a programming error and raises.
    """

    enabled = True

    def __init__(
        self, histogram_reservoir: int = DEFAULT_RESERVOIR, seed: int = 0
    ) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._kinds: dict[str, str] = {}
        self._reservoir = histogram_reservoir
        self._seed = seed

    def _claim(self, name: str, kind: str) -> None:
        if not name:
            raise MetricsError("metric names must be non-empty")
        existing = self._kinds.get(name)
        if existing is None:
            self._kinds[name] = kind
        elif existing != kind:
            raise MetricsError(
                f"metric {name!r} already registered as a {existing}, "
                f"requested as a {kind}"
            )

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._claim(name, "histogram")
            instrument = self._histograms[name] = Histogram(
                name, reservoir=self._reservoir, seed=self._seed
            )
        return instrument

    def names(self) -> Iterator[str]:
        yield from sorted(self._kinds)

    def __len__(self) -> int:
        return len(self._kinds)

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time dump of every instrument (the exporter's input)."""
        return {
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.snapshot() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float, weight: int = 1) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The do-nothing registry injected by default.

    Hands out shared no-op instruments so instrumented code needs no
    ``if registry`` branches of its own, and reports ``enabled = False``
    so hot loops can skip instrumentation wholesale.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram

    def snapshot(self) -> dict[str, dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared default instance: uninstrumented callers all use this one.
NULL_REGISTRY = NullRegistry()
