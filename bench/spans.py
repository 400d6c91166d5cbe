"""In-memory span recorder for the traced benchmark run.

A span covers one call the benchmark makes into a package module (or
one benchmark op, or one verification step).  Spans are kept in memory
and written out once, at exit.  A span's self time is its duration
minus the time its child spans cover; spans are strictly nested because
the benchmark is single-threaded.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# per-layer metrics: (span name, counters carried by that span)
LAYER_SPANS = (
    ("groups.build", ("elements",)),
    ("groups.homs", ("found",)),
    ("cayley.graph", ()),
    ("cayley.diff_space", ("maps", "nbhd_pairs")),
    ("differential.map_space", ()),
    ("differential.criterion", ("found",)),
    ("anf.from_source", ("points",)),
    ("boolean.classify", ("found",)),
    ("boolean.census", ("points",)),
)

CLI_SUBCOMMANDS = (
    "examples",
    "group",
    "cayley",
    "space",
    "diffspace",
    "diff",
    "bool_diff",
    "bool_census",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name, counters in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for counter in counters:
            units[f"{name}.{counter}"] = "count"
    units["cli.spawn_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.calls"] = "count"
        units[f"cli.{sub}.self_s"] = "s"
    units["cli.stdout_bytes"] = "bytes"
    units["verify.self_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class _NullSpan:
    def __init__(self):
        self.counts: dict[str, int] = {}

    def __enter__(self) -> dict[str, int]:
        return self.counts

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    op_id: int | None = None

    def __init__(self):
        self._span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


class Tracer:
    """Records (name, start, end, parent, op id, counters) per span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the duration of its children."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def layer_totals(self) -> dict[str, float]:
        """calls, self_s and summed counters for each span name."""
        totals: dict[str, float] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            name = s["name"]
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + self_s
            for key, value in s["counts"].items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
