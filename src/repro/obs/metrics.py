"""Lightweight in-process metrics: counters, gauges, histograms, spans.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Metrics are off by default; the
   module-level accessors (:func:`counter`, :func:`histogram`,
   :func:`span`, ...) then return a shared :data:`NOOP` object whose
   methods do nothing, so instrumented hot paths pay one module-attribute
   load and an ``is None`` test — no allocation, no dict lookup, no
   branching inside the metric itself.  Code on the very hottest loops
   (the simulator's per-cycle phases) goes further and accumulates plain
   local integers, publishing once per run.
2. **Snapshot/merge semantics.**  A registry serialises to a plain
   JSON-able dict (:meth:`MetricsRegistry.snapshot`) and any snapshot can
   be merged into another registry (:meth:`MetricsRegistry.merge`):
   counters and histograms add, arrays add element-wise, gauges keep the
   maximum, ``info`` annotations update.  Merging is commutative and
   associative, so per-worker snapshots from a process pool aggregate to
   exactly the totals a serial run would have recorded, whatever the
   worker count or completion order.
3. **Process-local.**  One active registry per process, installed with
   :func:`enable` / scoped with :func:`capture`.  Worker processes start
   with metrics disabled; the pool plumbing in
   :mod:`repro.core.cache` / :mod:`repro.netsim.parallel` captures a
   fresh registry per task and ships the snapshot home.

Metric kinds:

- **counter** — monotonically increasing int (``inc``);
- **gauge** — last-set float (``set``); merges by max;
- **histogram** — count/total/min/max plus power-of-two bucket counts
  (``observe``); cheap, bounded, and mergeable;
- **timer** — a histogram of seconds fed by ``with span(name):`` blocks
  (kept in a separate namespace so wall-time metrics are easy to exclude
  from determinism comparisons);
- **array** — a fixed-length int64 accumulator (``add``), e.g. per
  directed-link flit counts; merges element-wise.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "NOOP",
    "Counter",
    "Gauge",
    "Histogram",
    "ArrayMetric",
    "MetricsRegistry",
    "enable",
    "disable",
    "enabled",
    "active",
    "config",
    "capture",
    "counter",
    "gauge",
    "histogram",
    "array",
    "span",
    "annotate",
    "snapshot",
    "merge_snapshot",
]

SNAPSHOT_FORMAT = "repro-metrics-v1"


class _Noop:
    """Absorbs every metric operation — the disabled-mode fast path.

    A single shared instance doubles as counter, gauge, histogram, array
    and span context manager, so call sites never branch on enablement.
    """

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def add(self, values) -> None:
        pass

    def __enter__(self) -> "_Noop":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NOOP = _Noop()


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-set value; merges by maximum (peak semantics)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


def _bucket_of(value: float) -> int:
    """Power-of-two bucket index: smallest ``e`` with ``value <= 2**e``.

    Non-positive values land in a dedicated sentinel bucket so the log
    bucketing never raises.
    """
    if value <= 0.0:
        return -1075  # below the smallest subnormal exponent
    return math.frexp(value)[1]


class Histogram:
    """count / total / min / max plus power-of-two bucket counts."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        b = _bucket_of(v)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def merge_dict(self, doc: Mapping) -> None:
        self.count += int(doc["count"])
        self.total += float(doc["total"])
        if doc.get("min") is not None:
            self.min = min(self.min, float(doc["min"]))
        if doc.get("max") is not None:
            self.max = max(self.max, float(doc["max"]))
        for k, v in doc.get("buckets", {}).items():
            k = int(k)
            self.buckets[k] = self.buckets.get(k, 0) + int(v)


class ArrayMetric:
    """Fixed-length int64 accumulator (e.g. flits per directed link)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str, size: int):
        self.name = name
        self.values = np.zeros(int(size), dtype=np.int64)

    def _grown_to(self, size: int) -> np.ndarray:
        if size > len(self.values):
            grown = np.zeros(size, dtype=np.int64)
            grown[: len(self.values)] = self.values
            self.values = grown
        return self.values

    def add(self, values: Sequence[int]) -> None:
        arr = np.asarray(values, dtype=np.int64)
        self._grown_to(len(arr))[: len(arr)] += arr


class _Span:
    """Context manager feeding one wall-time observation into a timer."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._hist.observe(time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """One process's metric store; see the module docstring for semantics."""

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.timers: Dict[str, Histogram] = {}
        self.arrays: Dict[str, ArrayMetric] = {}
        self.info: Dict[str, object] = {}

    # ------------------------------------------------------------ access
    def counter(self, name: str) -> Counter:
        found = self.counters.get(name)
        if found is None:
            found = self.counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        found = self.gauges.get(name)
        if found is None:
            found = self.gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        found = self.histograms.get(name)
        if found is None:
            found = self.histograms[name] = Histogram(name)
        return found

    def array(self, name: str, size: int = 0) -> ArrayMetric:
        found = self.arrays.get(name)
        if found is None:
            found = self.arrays[name] = ArrayMetric(name, size)
        return found

    def span(self, name: str) -> _Span:
        found = self.timers.get(name)
        if found is None:
            found = self.timers[name] = Histogram(name)
        return _Span(found)

    def annotate(self, key: str, value) -> None:
        """Attach a JSON-able fact (scale, topology hash, ...) to the run."""
        self.info[key] = value

    # --------------------------------------------------- snapshot / merge
    def snapshot(self) -> dict:
        """A plain JSON-able dict of everything recorded so far."""
        return {
            "format": SNAPSHOT_FORMAT,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self.histograms.items())
            },
            "timers": {n: h.to_dict() for n, h in sorted(self.timers.items())},
            "arrays": {
                n: a.values.tolist() for n, a in sorted(self.arrays.items())
            },
            "info": dict(self.info),
        }

    def merge(self, snap: Mapping) -> None:
        """Fold a :meth:`snapshot` document into this registry.

        Commutative and associative across snapshots: counters,
        histograms, timers and arrays add; gauges keep the max; ``info``
        annotations are updated (last merge wins on key collision).
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snap.get("gauges", {}).items():
            g = self.gauge(name)
            g.value = max(g.value, float(value))
        for name, doc in snap.get("histograms", {}).items():
            self.histogram(name).merge_dict(doc)
        for name, doc in snap.get("timers", {}).items():
            found = self.timers.get(name)
            if found is None:
                found = self.timers[name] = Histogram(name)
            found.merge_dict(doc)
        for name, values in snap.get("arrays", {}).items():
            self.array(name).add(values)
        self.info.update(snap.get("info", {}))

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.timers.clear()
        self.arrays.clear()
        self.info.clear()


# --------------------------------------------------------- module state
#: The process's active registry, or ``None`` when metrics are disabled.
#: Hot paths read this attribute directly (``metrics._active is None`` is
#: the whole disabled-mode cost).
_active: Optional[MetricsRegistry] = None


def enable(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process's active registry."""
    global _active
    _active = registry if registry is not None else MetricsRegistry()
    return _active


def disable() -> None:
    """Turn metrics off; accessors return :data:`NOOP` again."""
    global _active
    _active = None


def enabled() -> bool:
    return _active is not None


def active() -> Optional[MetricsRegistry]:
    return _active


def config() -> Optional[dict]:
    """``{}`` when enabled (a registry has no parameters), else ``None``."""
    return None if _active is None else {}


@contextmanager
def capture() -> Iterator[MetricsRegistry]:
    """Divert metrics to a fresh registry for the duration of the block.

    Used by pool workers to scope one task's metrics; the previous active
    registry (or disabled state) is restored on exit.
    """
    global _active
    prev = _active
    fresh = MetricsRegistry()
    _active = fresh
    try:
        yield fresh
    finally:
        _active = prev


def counter(name: str):
    reg = _active
    return NOOP if reg is None else reg.counter(name)


def gauge(name: str):
    reg = _active
    return NOOP if reg is None else reg.gauge(name)


def histogram(name: str):
    reg = _active
    return NOOP if reg is None else reg.histogram(name)


def array(name: str, size: int = 0):
    reg = _active
    return NOOP if reg is None else reg.array(name, size)


def span(name: str):
    reg = _active
    return NOOP if reg is None else reg.span(name)


def annotate(key: str, value) -> None:
    reg = _active
    if reg is not None:
        reg.annotate(key, value)


def snapshot() -> Optional[dict]:
    """Snapshot of the active registry, or ``None`` when disabled."""
    reg = _active
    return None if reg is None else reg.snapshot()


def merge_snapshot(snap: Optional[Mapping]) -> None:
    """Merge a worker snapshot into the active registry (no-op if either
    side is absent)."""
    reg = _active
    if reg is not None and snap:
        reg.merge(snap)
