"""RunRecord: the JSON-serializable account of one decision-procedure run.

Schema (version 2)::

    {
      "schema_version": 2,
      "name": "contains",                 # recording name
      "trace_id": "a1b2-3",               # recording identity (pid-seq)
      "duration_s": 0.0123,
      "meta": {                           # run-level facts (free-form keys)
        "command": "contains",
        "engine": "bounded" | "expspace",
        "verdict": "satisfiable" | "unsatisfiable" | "no-witness-within-bound",
        "inputs": {"size": 5, "fragment": "...", ...}
      },
      "counters": {"trees.enumerated": 123, ...},   # monotone ints
      "gauges": {"expspace.modal_atoms": 4, ...},   # last-value floats
      "histograms": {                     # latency/size distributions
        "batch.problem_s": {"count": 10, "sum": 0.4, "min": ..., "max": ...,
                            "mean": ..., "p50": ..., "p90": ..., "p99": ...,
                            "buckets": [[upper_bound, count], ...]}
      },
      "spans": {                          # nested span tree, root first
        "name": "contains", "duration_s": 0.0123,
        "id": 0, "parent": null,          # dense span ids, parent links
        "start_ts": 1754640000.123,       # wall clock (cross-process merge)
        "attrs": {...}, "children": [ ... same shape ... ]
      }
    }

``from_dict`` rejects any other version.  The record is a plain-data
object: ``to_dict``/``from_dict`` round-trip exactly, and ``summary()``
renders the human-readable report behind the CLI's ``--stats`` flag.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["RunRecord", "SCHEMA_VERSION"]

SCHEMA_VERSION = 2


def _format_duration(seconds: float | None) -> str:
    if seconds is None:
        return "unfinished"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds * 1e6:.1f} µs"


@dataclass
class RunRecord:
    """One decision-procedure invocation, frozen for export."""

    name: str
    duration_s: float
    meta: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)
    trace_id: str = ""

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "trace_id": self.trace_id,
            "duration_s": self.duration_s,
            "meta": self.meta,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "spans": self.spans,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported RunRecord schema version {version}")
        return cls(
            name=data["name"],
            duration_s=data["duration_s"],
            meta=dict(data.get("meta", {})),
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms=dict(data.get("histograms", {})),
            spans=dict(data.get("spans", {})),
            trace_id=data.get("trace_id", ""),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------ traversal

    def iter_spans(self) -> Iterator[dict]:
        """All span dicts, depth-first from the root."""

        def walk(node: dict) -> Iterator[dict]:
            if node:
                yield node
                for child in node.get("children", ()):
                    yield from walk(child)

        yield from walk(self.spans)

    # -------------------------------------------------------------- display

    def summary(self) -> str:
        """The human-readable report printed by the CLI's ``--stats``."""
        lines = [f"== run: {self.name} =="]
        headline = [
            f"{key}: {self.meta[key]}"
            for key in ("engine", "verdict", "method")
            if key in self.meta
        ]
        headline.append(f"duration: {_format_duration(self.duration_s)}")
        lines.append("  " + "   ".join(headline))
        inputs = self.meta.get("inputs")
        if inputs:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(inputs.items()))
            lines.append(f"  inputs: {rendered}")
        if self.spans:
            lines.append("spans:")

            def walk(node: dict, depth: int) -> None:
                pad = "  " * (depth + 1)
                label = node.get("name", "?")
                attrs = node.get("attrs")
                if attrs:
                    rendered_attrs = ", ".join(
                        f"{k}={v}" for k, v in sorted(attrs.items())
                    )
                    label = f"{label} [{rendered_attrs}]"
                duration = _format_duration(node.get("duration_s"))
                lines.append(f"{pad}{label:<48} {duration:>12}")
                for child in node.get("children", ()):
                    walk(child, depth + 1)

            walk(self.spans, 0)
        if self.counters:
            lines.append("counters:")
            for key in sorted(self.counters):
                lines.append(f"  {key}: {self.counters[key]}")
        if self.gauges:
            lines.append("gauges:")
            for key in sorted(self.gauges):
                lines.append(f"  {key}: {self.gauges[key]}")
        if self.histograms:
            lines.append("histograms:")
            for key in sorted(self.histograms):
                data = self.histograms[key]
                if not data.get("count"):
                    lines.append(f"  {key}: empty")
                    continue
                # Latency histograms (``*_s``) render as durations; others
                # (sizes, counts per round) as plain numbers.
                fmt = _format_duration if key.endswith("_s") \
                    else lambda value: f"{value:g}"
                lines.append(
                    f"  {key}: n={data['count']} "
                    f"mean={fmt(data['mean'])} p50={fmt(data['p50'])} "
                    f"p90={fmt(data['p90'])} p99={fmt(data['p99'])} "
                    f"max={fmt(data['max'])}"
                )
        return "\n".join(lines)
