"""Regenerate bench/frozen.json from the code as it stands.

    python3 bench/freeze.py

Freezes the homomorphism counts of the cayley_mix pool, the sha256 of
the stdout of every call in the cli_calls cycle, and the determinism
digest of each workload's first cycle for seeds 0..FROZEN_SEEDS-1.  Run
it from the repository root, and only on a commit whose outputs are
known good: afterwards every run compares against these values, and a
change is a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

from run import FROZEN, _clean_env

FROZEN_SEEDS = 16


def main() -> int:
    src = os.path.abspath("src")
    env, stripped = _clean_env(src)
    if stripped or os.environ.get("PYTHONPATH") != src or os.environ.get("PYTHONHASHSEED") != "0":
        # run in the same environment as a benchmark child, package from src/
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)], env)

    import workloads
    from cayleydiff.groups import enumerate_homomorphisms
    from spans import NullTracer

    null = NullTracer()
    frozen: dict = {"hom_counts": {}, "cli_stdout_sha256": {}, "digests": {}}
    for dom, cod, _, n_homs in workloads.CayleyMix.POOL:
        if n_homs:
            g, _ = workloads.build_group(null, dom)
            h, _ = workloads.build_group(null, cod)
            frozen["hom_counts"][f"{dom}->{cod}"] = len(enumerate_homomorphisms(g, h))
    for _, call in workloads.CliCalls.COMMANDS:
        out = subprocess.run(
            [sys.executable, "-m", "cayleydiff.cli", *call],
            env=env, stdout=subprocess.PIPE, check=True,
        ).stdout
        frozen["cli_stdout_sha256"][" ".join(call)] = hashlib.sha256(out).hexdigest()
    for name, cls in workloads.WORKLOADS.items():
        frozen["digests"][name] = {
            str(seed): workloads.first_cycle_digest(cls(seed, frozen, inprocess=True), null)
            for seed in range(FROZEN_SEEDS)
        }
        print(f"{name}: {FROZEN_SEEDS} digests", file=sys.stderr)
    with open(FROZEN, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
