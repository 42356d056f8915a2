"""Exporters: JSONL trace/metric dumps and Prometheus text format.

The JSONL dump is the interchange format between a run and the ``python
-m repro obs`` CLI: one JSON object per line, discriminated by ``kind``
(``meta`` / ``span`` / ``metric``).  Several runs may be appended to one
file; each contributes its own ``meta`` line.  :func:`check_dump`
validates the schema (every CI ``bench`` entry gates on it) and
:func:`load_dump` parses a file back into records.

:func:`render_prometheus` writes the registry in the Prometheus text
exposition format (``# TYPE`` comments, ``_total`` counters,
``_bucket{le=...}`` histogram series), dots mangled to underscores.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Bumped when a dump line's schema changes incompatibly.
DUMP_VERSION = 1

_REQUIRED_KEYS = {
    "meta": {"kind", "version", "space", "clock_s"},
    "span": {
        "kind", "trace", "span", "parent", "name", "start_s", "end_s",
        "duration_s", "wall_s", "status", "tags",
    },
    "metric": {"kind", "type", "name"},
}

_METRIC_KEYS = {
    "counter": {"value"},
    "gauge": {"value"},
    "histogram": {"bounds", "counts", "sum", "count"},
}


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def write_dump(obs: Any, handle: IO[str], *, label: Optional[str] = None) -> int:
    """Serialize one observability state as JSONL lines; returns lines
    written.  ``label`` distinguishes runs sharing a file (bench
    scenarios append to one dump)."""
    meta: Dict[str, Any] = {
        "kind": "meta",
        "version": DUMP_VERSION,
        "space": obs.space_name,
        "clock_s": obs.clock.now(),
        "spans": len(obs.tracer.finished),
        "dropped_spans": obs.tracer.dropped_spans,
    }
    if label is not None:
        meta["label"] = label
    lines = 1
    handle.write(json.dumps(meta, sort_keys=True) + "\n")
    for span in obs.tracer.finished:
        handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        lines += 1
    for metric in obs.metrics.all():
        handle.write(json.dumps(metric.to_dict(), sort_keys=True) + "\n")
        lines += 1
    return lines


def load_dump(source: Any) -> List[Dict[str, Any]]:
    """Parse a JSONL dump (a path or an open text handle) into records."""
    if hasattr(source, "read"):
        return _parse_dump_lines(source, "<stream>")
    with open(source, "r", encoding="utf-8") as handle:
        return _parse_dump_lines(handle, str(source))


def _parse_dump_lines(
    handle: Iterable[str], where: str
) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}:{line_number}: not JSON: {exc}") from exc
        records.append(record)
    return records


def check_dump(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Schema-check dump records; returns human-readable problems
    (empty list = well-formed)."""
    problems: List[str] = []
    saw_meta = False
    for index, record in enumerate(records, start=1):
        where = f"record {index}"
        if not isinstance(record, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = record.get("kind")
        required = _REQUIRED_KEYS.get(kind)
        if required is None:
            problems.append(f"{where}: unknown kind {kind!r}")
            continue
        missing = required - set(record)
        if missing:
            problems.append(
                f"{where} ({kind}): missing keys {sorted(missing)}"
            )
            continue
        if kind == "meta":
            saw_meta = True
            if record["version"] != DUMP_VERSION:
                problems.append(
                    f"{where}: dump version {record['version']!r} != "
                    f"{DUMP_VERSION}"
                )
        elif kind == "span":
            if record["status"] not in ("ok", "error"):
                problems.append(
                    f"{where}: bad span status {record['status']!r}"
                )
            if not isinstance(record["tags"], dict):
                problems.append(f"{where}: span tags not an object")
            end = record["end_s"]
            if end is not None and end < record["start_s"]:
                problems.append(f"{where}: span ends before it starts")
        elif kind == "metric":
            metric_keys = _METRIC_KEYS.get(record["type"])
            if metric_keys is None:
                problems.append(
                    f"{where}: unknown metric type {record['type']!r}"
                )
                continue
            missing = metric_keys - set(record)
            if missing:
                problems.append(
                    f"{where} ({record['type']} {record['name']}): "
                    f"missing keys {sorted(missing)}"
                )
                continue
            if record["type"] == "histogram" and len(record["counts"]) != len(
                record["bounds"]
            ) + 1:
                problems.append(
                    f"{where}: histogram {record['name']} has "
                    f"{len(record['counts'])} counts for "
                    f"{len(record['bounds'])} bounds"
                )
    if not saw_meta:
        problems.append("no meta record found")
    return problems


def registry_from_dump(records: Iterable[Dict[str, Any]]) -> MetricsRegistry:
    """Rebuild a registry from dump metric lines (merging repeated runs
    by taking counters/histograms cumulatively and gauges last-wins)."""
    registry = MetricsRegistry()
    for record in records:
        if record.get("kind") != "metric":
            continue
        name = record["name"]
        if record["type"] == "counter":
            registry.counter(name).inc(int(record["value"]))
        elif record["type"] == "gauge":
            registry.gauge(name).set(record["value"])
        elif record["type"] == "histogram":
            histogram = registry.histogram(name, record["bounds"])
            if tuple(float(b) for b in record["bounds"]) == histogram.bounds:
                for slot, count in enumerate(record["counts"]):
                    histogram.counts[slot] += int(count)
                histogram.sum += record["sum"]
                histogram.count += int(record["count"])
    return registry


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _prom_name(name: str, prefix: str) -> str:
    mangled = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"{prefix}_{mangled}" if prefix else mangled


def _prom_number(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(
    registry: MetricsRegistry, *, prefix: str = "repro"
) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for metric in registry.all():
        if isinstance(metric, Counter):
            name = _prom_name(metric.name, prefix)
            if not name.endswith("_total"):
                name += "_total"
            lines.append(f"# HELP {name} {metric.name}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {metric.value}")
        elif isinstance(metric, Gauge):
            name = _prom_name(metric.name, prefix)
            lines.append(f"# HELP {name} {metric.name}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_number(metric.value)}")
        elif isinstance(metric, Histogram):
            name = _prom_name(metric.name, prefix)
            lines.append(f"# HELP {name} {metric.name}")
            lines.append(f"# TYPE {name} histogram")
            for bound, cumulative in metric.cumulative():
                lines.append(
                    f'{name}_bucket{{le="{_prom_number(bound)}"}} {cumulative}'
                )
            lines.append(f"{name}_sum {_prom_number(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[Tuple[str, str], float]:
    """A minimal parser for the text format (tests and the CLI use it to
    prove an export is well-formed).  Returns {(name, labels): value}."""
    samples: Dict[Tuple[str, str], float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            series, value_text = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"line {line_number}: no sample value") from None
        if "{" in series:
            name, _, label_part = series.partition("{")
            if not label_part.endswith("}"):
                raise ValueError(f"line {line_number}: unterminated labels")
            labels = label_part[:-1]
        else:
            name, labels = series, ""
        if not name or not (name[0].isalpha() or name[0] in "_:"):
            raise ValueError(f"line {line_number}: bad metric name {name!r}")
        value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        samples[(name, labels)] = value
    return samples
