"""Exporters for metric snapshots: Prometheus text, JSON, ASCII table.

All three consume the plain-data ``registry.snapshot()`` dict, so they
work the same on a live registry, a merged worker dump, or a snapshot
loaded back from a CI artifact.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

__all__ = ["to_prometheus", "to_json", "render_text"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
# DOTALL: label *values* may contain newlines; they are escaped only at
# render time (_escape_label_value), so the splitter must cross them.
_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$", re.DOTALL)


def _parse_key(key: str) -> Tuple[str, List[Tuple[str, str]]]:
    """Split a snapshot key ``name{k=v,...}`` into (name, label pairs)."""
    match = _KEY_RE.match(key)
    if match is None:  # defensive: snapshot keys are generated, not parsed
        return key, []
    labels = []
    raw = match.group("labels")
    if raw:
        for part in raw.split(","):
            k, _, v = part.partition("=")
            labels.append((k, v))
    return match.group("name"), labels


def _prom_name(name: str, suffix: str = "") -> str:
    return "repro_" + _NAME_RE.sub("_", name) + suffix


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: List[Tuple[str, str]], extra: str = "") -> str:
    parts = [
        f'{_NAME_RE.sub("_", k)}="{_escape_label_value(v)}"' for k, v in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Prometheus text exposition format (0.0.4) for a snapshot."""
    lines: List[str] = []
    typed: set = set()

    def declare(prom: str, kind: str) -> None:
        if prom not in typed:
            typed.add(prom)
            lines.append(f"# TYPE {prom} {kind}")

    for key, value in snapshot.get("counters", {}).items():
        name, labels = _parse_key(key)
        prom = _prom_name(name, "_total")
        declare(prom, "counter")
        lines.append(f"{prom}{_prom_labels(labels)} {value}")

    for key, value in snapshot.get("gauges", {}).items():
        name, labels = _parse_key(key)
        prom = _prom_name(name)
        declare(prom, "gauge")
        lines.append(f"{prom}{_prom_labels(labels)} {value}")

    for key, summary in snapshot.get("histograms", {}).items():
        name, labels = _parse_key(key)
        prom = _prom_name(name)
        declare(prom, "summary")
        for q, field in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            quantile = 'quantile="%s"' % q
            lines.append(
                f"{prom}{_prom_labels(labels, quantile)} {summary[field]}"
            )
        lines.append(f"{prom}_sum{_prom_labels(labels)} {summary['sum']}")
        lines.append(f"{prom}_count{_prom_labels(labels)} {summary['count']}")

    return "\n".join(lines) + ("\n" if lines else "")


def to_json(snapshot: Dict[str, Dict[str, object]], indent: int = 2) -> str:
    """JSON text for a snapshot (what ``repro stats --json`` prints)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def render_text(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Aligned ASCII tables: counters, gauges, then histogram summaries."""
    from repro.bench.reporting import format_table

    sections: List[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        sections.append("counters\n" + format_table(
            ("metric", "value"),
            [(key, value) for key, value in counters.items()],
        ))
    gauges = snapshot.get("gauges", {})
    if gauges:
        sections.append("gauges\n" + format_table(
            ("metric", "value"),
            [(key, value) for key, value in gauges.items()],
        ))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = []
        for key, s in histograms.items():
            rows.append((
                key, s["count"], f"{s['mean']:.3g}",
                f"{s['p50']:.3g}", f"{s['p95']:.3g}", f"{s['p99']:.3g}",
                f"{s['max']:.3g}",
            ))
        sections.append("histograms\n" + format_table(
            ("metric", "count", "mean", "p50", "p95", "p99", "max"), rows
        ))
    if not sections:
        return "(no metrics recorded)"
    return "\n\n".join(sections)
