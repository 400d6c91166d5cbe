"""cayleydiff benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload cayley_mix --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The
end-to-end timings are scaled for the host's speed (see
``REF_PROBE_S``).  The line before it is a ``{"record": ...}`` object
with sample counts, the failure ratio, the determinism digest, workload
properties, the raw timings and the environment.  A human summary goes
to stderr.  See bench/README.md.

The run is a closed loop with one caller in a child process whose
environment has no ``CAYLEYDIFF_*`` overrides and no ``PYTHONOPTIMIZE``,
and which imports the package from ``src/`` of the current directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN = os.path.join(HERE, "frozen.json")
OUT_DIR = os.path.join(HERE, "out")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# a p90 needs ten samples beyond it; the loop runs whole cycles until it has these
MIN_SAMPLES = 100
# setup_s: the measured child and 6 spawns that exit when ready, 3 before
# it and 3 after it, so their median is not set by one moment's host speed
PROBES = 7
CHILD_WALL_CAP_S = 140  # stop starting cycles after this, to end within 180 s

# The speed of a shared host drifts by up to 2x over seconds to minutes,
# and every timing drifts with it.  So a fixed pure-Python speed probe
# runs after each timed op, outside the timed region, and the reported
# timings are scaled by the square root of REF_PROBE_S over the run's
# median probe time.  The square root, because between the host's
# slowest and fastest states the probe's time swings about twice as far
# (in log terms) as the workloads' ops do; full scaling overcorrects.
# One factor per run, because a single 4 ms probe is itself too noisy
# to scale a single op.  The record line keeps the raw timings.
REF_PROBE_S = 0.004


def _speed_probe() -> float:
    """Seconds taken by a fixed piece of dict, tuple and int work.

    The cyclic GC is off meanwhile, so the heap the workload keeps
    cannot change the probe's time."""
    gc.disable()
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(6000):
        key = (i, i * 7 % 13, i & 31)
        table[key] = table.get(key[1:], 0) + 1
        acc += len(table) ^ i
    sorted(table.values())
    secs = time.perf_counter() - t0
    gc.enable()
    return secs


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cayley_mix", "boolean_mix", "cli_calls"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run the workload in this process (set by the parent)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _clean_env(src: str) -> tuple[dict, list[str]]:
    """The parent's environment minus anything that changes the work done."""
    env, stripped = {}, []
    for key, value in os.environ.items():
        if key.startswith("CAYLEYDIFF_") or key in ("PYTHONOPTIMIZE", "PYTHONPATH"):
            if key != "PYTHONPATH":
                stripped.append(key)
            continue
        env[key] = value
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env, sorted(stripped)


# ------------------------------------------------------------ child side


def _run_op(op, passes, tracer, null, op_id):
    """Run one op once per pass; returns the seconds spent and the result
    (or the exception raised) per pass."""
    results, spent = {}, {}
    for mode in passes:
        tr = tracer if mode == "traced" else null
        tr.op_id = op_id
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{op.kind}"):
                results[mode] = op.run(tr)
        except Exception as exc:  # an op that raises is a failed op
            results[mode] = exc
        spent[mode] = time.perf_counter() - t0
    return spent, results


def _verify(op, passes, results, tracer, null):
    """The canonical result of a checked op, or the exception that made
    it fail."""
    from checks import Mismatch

    with (tracer or null).span("verify"):
        try:
            res = results[passes[-1]]
            if isinstance(res, Exception):
                raise res
            if len(passes) == 2 and results["traced"] != results["untraced"]:
                raise Mismatch(f"{op.kind}: traced and untraced results differ")
            return op.check(res)
        except Exception as exc:  # a raising op or a rejected result
            return exc


def _child(args) -> int:
    import cayleydiff
    import numpy

    import workloads
    from spans import NullTracer, Tracer

    src = os.environ["PYTHONPATH"]
    if not os.path.abspath(cayleydiff.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: cayleydiff imported from {cayleydiff.__file__}, not {src}\n")
        return 2
    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](args.seed, frozen, inprocess=bool(args.trace))
    ops = wl.cycle(0)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    start = time.perf_counter()
    null = NullTracer()
    tracer = Tracer() if args.trace else None
    latencies: list[float] = []
    probes: list[float] = []
    times = {"untraced": 0.0, "traced": 0.0}
    attempted = failed = 0
    errors: list[str] = []
    kinds, sizes, repeats, seen = Counter(), Counter(), Counter(), set()
    by_size: dict[str, list[float]] = defaultdict(list)
    digest = hashlib.sha256()
    cycle = 0
    while True:
        if args.trace:  # every op runs traced and untraced, alternating first
            passes = ("traced", "untraced") if cycle % 2 else ("untraced", "traced")
        else:
            passes = ("untraced",)
        for op in ops:
            attempted += 1
            kinds[op.kind] += 1
            sizes[f"{op.kind}:{op.size}"] += 1
            if op.key in seen:
                repeats[op.kind] += 1
            seen.add(op.key)
            spent, results = _run_op(op, passes, tracer, null, attempted)
            for mode, secs in spent.items():
                times[mode] += secs
            if not args.trace:
                probes.append(_speed_probe())
            latencies.append(spent["untraced"] * 1000.0)
            by_size[f"{op.kind}:{op.size}"].append(latencies[-1])
            outcome = _verify(op, passes, results, tracer, null)
            del results
            if isinstance(outcome, Exception):
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.kind} {op.key!r:.120}: {type(outcome).__name__}: {outcome}")
            elif cycle == 0:
                digest.update(workloads.digest_entry(op.kind, outcome))
            del outcome  # no result outlives its op, so peak RSS does not depend on op order
        cycle += 1
        measured = times["untraced"] + times["traced"]
        enough = args.trace or len(latencies) >= MIN_SAMPLES
        if (measured >= args.seconds and enough) or time.perf_counter() - start > CHILD_WALL_CAP_S:
            break
        ops = wl.cycle(cycle)

    digest_hex = digest.hexdigest()
    want = frozen.get("digests", {}).get(args.workload, {}).get(str(args.seed))
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli_calls" and not args.trace
        else resource.RUSAGE_SELF
    )
    report = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "cycles": cycle,
        "latencies_ms": latencies,
        "op_time_s": times["untraced"],
        "probes_s": probes,
        "p50_ms_by_size": {k: statistics.median(v) for k, v in sorted(by_size.items())},
        "peak_rss_kb": usage.ru_maxrss,
        "digest": digest_hex,
        "digest_frozen": want,
        "digest_ok": want is None or want == digest_hex,
        "properties": {
            "op_share": {k: v / attempted for k, v in sorted(kinds.items())},
            "size_histogram": dict(sorted(sizes.items())),
            "repeat_share": sum(repeats.values()) / attempted,
            "repeat_share_by_kind": {k: repeats[k] / kinds[k] for k in sorted(kinds)},
            **{k: v for k, v in sorted(wl.extras.items())},
        },
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cayleydiff": cayleydiff.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
    }
    if "classify" in kinds:
        report["properties"]["classify_with_differential_share"] = (
            wl.extras["classify_with_differential"] / kinds["classify"]
        )
    if tracer is not None:
        layers = tracer.layer_totals()
        layers["trace.overhead_pct"] = 100.0 * (times["traced"] / times["untraced"] - 1.0)
        if args.workload == "cli_calls":
            layers["cli.stdout_bytes"] = wl.stdout_bytes[0]
        report["layers"] = layers
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


# ------------------------------------------------------------ parent side


def _spawn_until_ready(cmd, env):
    """Start a child and time it until it reports ready; returns (proc, secs)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child did not start: {line!r}")
    return proc, ready


def _timed_run(cmd, env) -> tuple[float, str]:
    t0 = time.perf_counter()
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return time.perf_counter() - t0, out.stdout


def _check_definition(per_layer_units) -> None:
    """BENCHMARK.json must list exactly the metrics this file reports."""
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != E2E_UNITS or layer != per_layer_units:
        raise SystemExit("error: BENCHMARK.json metrics differ from bench/run.py")


def _parent(args) -> int:
    from spans import layer_metric_units

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cayleydiff", "__init__.py")):
        sys.stderr.write("error: run from the repository root; src/cayleydiff not found\n")
        return 2
    units = layer_metric_units()
    _check_definition(units)
    env, stripped = _clean_env(src)
    base = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.perf_counter() + 170

    # untimed warm-up: byte-compiles the package on a fresh checkout
    _timed_run(base + ["--child", "--setup-only"], env)
    setup = []

    def setup_spawns(count):
        for _ in range(count):
            proc, secs = _spawn_until_ready(base + ["--child", "--setup-only"], env)
            proc.communicate()
            setup.append(secs)

    probes = {}
    if args.trace:
        probes["spawn_ms"] = statistics.median(
            1000 * _timed_run([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBES)
        )
        code = ("import time; t = time.perf_counter(); import cayleydiff.cli; "
                "print(time.perf_counter() - t)")
        probes["import_ms"] = statistics.median(
            1000 * float(_timed_run([sys.executable, "-c", code], env)[1]) for _ in range(PROBES)
        )
    else:
        setup_spawns(PROBES // 2)

    proc, secs = _spawn_until_ready(base + ["--child"], env)
    setup.append(secs)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("error: workload did not finish in time\n")
        return 2
    if proc.returncode != 0:
        sys.stderr.write(f"error: workload exited with {proc.returncode}\n")
        return 2
    rep = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        setup_spawns(PROBES // 2)

    lat = rep["latencies_ms"]
    if args.trace:
        layers = rep["layers"]
        values = {
            "cli.spawn_ms": probes["spawn_ms"],
            "cli.import_ms": probes["import_ms"],
        }
        values.update({k: layers.get(k, 0) for k in units if k not in values})
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    else:
        raw = {
            "setup_s": statistics.median(setup),
            "ops_per_s": rep["attempted"] / rep["op_time_s"],
            "op_p50_ms": statistics.median(lat),
            "op_p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8],
        }
        speed = (statistics.median(rep["probes_s"]) / REF_PROBE_S) ** 0.5
        values = {
            "setup_s": raw["setup_s"] / speed,
            "ops_per_s": raw["ops_per_s"] * speed,
            "op_p50_ms": raw["op_p50_ms"] / speed,
            "op_p90_ms": raw["op_p90_ms"] / speed,
            "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    correct = rep["failed"] == 0 and rep["digest_ok"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(lat),
        "cycles": rep["cycles"],
        "failed_ratio": rep["failed"] / rep["attempted"],
        "errors": rep["errors"],
        "digest": rep["digest"],
        "digest_ok": rep["digest_ok"],
        "setup_samples_s": setup,
        "raw": None if args.trace else raw,
        "speed_probe_median_s": statistics.median(rep["probes_s"]) if rep["probes_s"] else None,
        "p50_ms_by_size": rep["p50_ms_by_size"],
        "properties": rep["properties"],
        "env": {**rep["env"], "stripped_env": stripped, "runner_python": sys.executable},
    }
    for err in rep["errors"]:
        sys.stderr.write(f"FAILED {err}\n")
    if not rep["digest_ok"]:
        sys.stderr.write(f"FAILED digest {rep['digest']} != frozen {rep['digest_frozen']}\n")
    sys.stderr.write(
        f"{args.workload} seed={args.seed} trace={args.trace}: {rep['attempted']} ops "
        f"in {rep['cycles']} cycles, failed_ratio={record['failed_ratio']:.4f}\n"
    )
    for name, m in metrics.items():
        sys.stderr.write(f"  {name:32s} {m['value']:14.6g} {m['unit']}\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    return _parent(args)


if __name__ == "__main__":
    sys.exit(main())
