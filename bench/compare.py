"""Summarize or compare sets of benchmark runs.

    python3 bench/compare.py RUNS.jsonl             # spread of one set
    python3 bench/compare.py BASE.jsonl NEW.jsonl   # NEW against BASE

A runs file holds the last two stdout lines of each run of
``bench/run.py`` (the record line, then the result line), one run after
another.  Bounds and directions come from BENCHMARK.json.

For one set, each workload and metric gets its median, quartiles and
spread (quartile distance over median).  For two sets, NEW's median is
compared with BASE's: "worse" when it is worse by more than the bound;
otherwise "unresolved" when BASE's own spread exceeds the bound and not
every NEW run beats every BASE run, "gain" when NEW wins at least nine
runs in ten against BASE (matched by seed) and the medians differ by
more than BASE's quartile distance, and "ok" else.  Determinism digests
of all runs with the same workload and seed, in either set, must agree.
The exit code is 1 if any run failed a check, any metric is worse or
any digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """(workload, trace) -> {"metrics": name -> [values], "seeds": [...],
    "digests": seed -> {digest}, "failed_runs": count}"""
    sets: dict = defaultdict(
        lambda: {"metrics": defaultdict(list), "seeds": [], "digests": {}, "failed_runs": 0}
    )
    record = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            data = json.loads(line)
            if "record" in data:
                record = data["record"]
                continue
            if record is None or "metrics" not in data:
                continue
            entry = sets[(record["workload"], record["trace"])]
            entry["seeds"].append(record["seed"])
            entry["digests"].setdefault(record["seed"], set()).add(record["digest"])
            if not data["correct"] or data["failed"] > 0:
                entry["failed_runs"] += 1
            for name, m in data["metrics"].items():
                entry["metrics"][name].append(m["value"])
            record = None
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) not in (2, 3):
        sys.stderr.write(__doc__)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    base = load(argv[1])
    new = load(argv[2]) if len(argv) == 3 else None
    status = 0
    for label, sets in (("base", base), ("new", new or {})):
        for (workload, trace), entry in sorted(sets.items()):
            if entry["failed_runs"]:
                print(f"{label} {workload} trace={trace}: {entry['failed_runs']} runs failed their checks")
                status = 1
    for workload, trace in sorted(set(new or {}) - set(base)):
        print(f"new {workload} trace={trace}: no base runs to compare with")
        status = 1
    for key in sorted(base):
        workload, trace = key
        b = base[key]
        print(f"== {workload} trace={trace}: {len(b['seeds'])} runs")
        n = new.get(key) if new is not None else None
        for name, values in b["metrics"].items():
            meta = e2e.get(name) or layer.get(name, {})
            bound = meta.get("bound")
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:32s} median {med:12.6g} IQR/median {spread:6.3f}"
            if bound is not None:
                line += f" bound {bound:.3f}"
            if n is not None and name in n["metrics"]:
                line += "  " + _verdict(values, n["metrics"][name], b["seeds"], n["seeds"], meta)
                if line.endswith("worse"):
                    status = 1
            print(line)
        other = n["digests"] if n is not None else {}
        for seed in sorted(set(b["digests"]) | set(other)):
            digests = b["digests"].get(seed, set()) | other.get(seed, set())
            if len(digests) > 1:
                print(f"  digest differs for seed {seed}: {sorted(digests)}")
                status = 1
    return status


def _verdict(old, new, old_seeds, new_seeds, meta) -> str:
    higher = meta.get("better") == "higher"
    bound = meta.get("bound")
    oq1, omed, oq3 = quartiles(old)
    nmed = statistics.median(new)
    change = (nmed - omed) / omed if omed else 0.0
    text = f"new {nmed:12.6g} ({change:+.1%})"
    if bound is None:
        return text
    worse = -change if higher else change
    pairs = [(o, v) for s, o in zip(old_seeds, old) for t, v in zip(new_seeds, new) if s == t]
    wins = sum((v > o) if higher else (v < o) for o, v in pairs)
    text += f" wins {wins}/{len(pairs)}"
    if worse > bound:
        return text + " worse"
    all_better = min(new) > max(old) if higher else max(new) < min(old)
    if (oq3 - oq1) / omed > bound and not all_better:
        return text + " unresolved"
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - omed) > oq3 - oq1:
        return text + " gain"
    return text + " ok"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
