"""Counters, gauges, and fixed-bucket histograms behind one registry.

Metric names are dot-namespaced (``swap.out.latency_s``,
``fastpath.noop.count``) — the names the stats classes declare on their
fields (:func:`repro.stats.metric`), so one registry holds both the live
instrumentation and the mirrored stats counters.  Exporters
(:mod:`repro.obs.export`) turn a registry into JSONL or Prometheus text.

Histograms use *fixed* bucket bounds chosen at creation: observation is
a bisect plus two adds, no allocation, so they are safe on the swap hot
path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Simulated-seconds latency buckets for swap operations (Bluetooth-class
#: payloads land in the 0.1–10 s range; metadata-only no-ops near zero).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Payload-size buckets (bytes) for shipped cluster XML.
PAYLOAD_BUCKETS_B: Tuple[float, ...] = (
    1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
)

#: Attempt-count buckets for retries per operation.
RETRY_BUCKETS: Tuple[float, ...] = (1, 2, 3, 5, 8, 13)


class Counter:
    """A count: ``inc`` only adds; ``set_to`` mirrors an external one."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_to(self, value: int) -> None:
        """Mirror an externally maintained count (a stats field).  A
        component replaced with fresh stats makes the value drop, which
        Prometheus reads as a counter reset."""
        self.value = value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "metric", "type": "counter", "name": self.name,
                "value": self.value}


class Gauge:
    """A value that can go up and down (heap usage, cache bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": "metric", "type": "gauge", "name": self.name,
                "value": self.value}


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets, plus +Inf)."""

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        ordered = tuple(sorted(float(bound) for bound in bounds))
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.bounds = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, +Inf last — the shape
        Prometheus ``_bucket{le=...}`` series want."""
        running = 0
        rows: List[Tuple[float, int]] = []
        for bound, count in zip(self.bounds, self.counts):
            running += count
            rows.append((bound, running))
        rows.append((float("inf"), running + self.counts[-1]))
        return rows

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "metric",
            "type": "histogram",
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Create-or-get access to named metrics; one per Observability."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._get(
            name,
            Histogram,
            lambda: Histogram(
                name, bounds if bounds is not None else LATENCY_BUCKETS_S
            ),
        )

    def _get(self, name: str, kind: type, factory: Any) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def all(self) -> List[Any]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data view of every metric, keyed by name."""
        return {metric.name: metric.to_dict() for metric in self.all()}
