#!/usr/bin/env python3
"""Mutation suite: deliberate faults that the tier-1 tests must catch.

Run from the repository root:

    python scripts/mutants.py              # every entry
    python scripts/mutants.py NAME ...     # the named entries

Each entry names a file, one or more exact substitutions ``old -> new``
and why the fault matters.  Every entry is checked first: each ``old``
must occur exactly once in the file, and differ from its ``new``.  Then,
for each entry, src/, tests/, bench/ and pyproject.toml are copied to a
temporary directory, the substitutions are applied there, and tier 1
runs with ``-x``.  A mutant is caught when tier 1 fails (pytest exit
code 1).  The script exits 1 if an entry is malformed, if a mutant
survives, or if tier 1 cannot run on a mutant; the working tree is never
modified.

A refactor that moves the mutated code must update its entry, not drop
it: a missing ``old`` fails the suite.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")


class Mutant(NamedTuple):
    name: str
    path: str                          # relative to the repository root
    subs: tuple[tuple[str, str], ...]  # exact (old, new) substitutions
    why: str


MUTANTS = (
    # -- the map-space criterion, the CLI point parser, BoolFunction and
    #    the Boolean existence test
    Mutant(
        "hom-neighbor-target-from-f",
        "src/cayleydiff/spaces.py",
        (("target = cod.nbhd[g_vals[b]]", "target = cod.nbhd[f_vals[b]]"),),
        "the criterion for f in N(g) must read its targets from g",
    ),
    Mutant(
        "resolve-point-off-by-one",
        "src/cayleydiff/cli.py",
        (("if not 0 <= idx < order:", "if not 0 <= idx <= order:"),),
        "a point index equal to the carrier's order is out of range",
    ),
    Mutant(
        "bool-function-keeps-rows-as-given",
        "src/cayleydiff/boolean.py",
        (
            (
                'set_field(self, "table", tuple(tuple(map(operator.index, out)) for out in table))',
                "pass",
            ),
        ),
        "a table is stored as tuples of plain ints, whatever rows it was given",
    ),
    Mutant(
        "existence-tests-origin-everywhere",
        "src/cayleydiff/boolean.py",
        (
            ("and (b & (b - 1) or values[0] == 0)", "and values[0] == 0"),
            (
                "for x in neighborhood_indices(b, f.m)}",
                "for x in range(2**f.m)}",
            ),
        ),
        "f(0) = 0 is forced only when the origin lies in the Hamming ball of b",
    ),
    # -- the one homomorphism sweep behind both oracles
    Mutant(
        "homs-by-definition-no-identity-check",
        "src/cayleydiff/groups.py",
        (
            (
                "if all(itemgetter(*tg[a])(phi) == itemgetter(*phi)(th[phi[a]]) for a in range(g.order)):",
                "if True:",
            ),
        ),
        "an assignment of generator images extends to a homomorphism only if the identity holds",
    ),
    Mutant(
        "homs-by-definition-product-swapped",
        "src/cayleydiff/groups.py",
        (("phi[x] = th[phi[parent]][images[j]]", "phi[x] = th[images[j]][phi[parent]]"),),
        "phi(x*s) is phi(x)*phi(s), not phi(s)*phi(x), in a non-abelian codomain",
    ),
    Mutant(
        "homs-by-definition-two-rows",
        "src/cayleydiff/groups.py",
        (("for a in range(g.order)):", "for a in range(g.order)[:2]):"),),
        "the identity must hold on every row a, not only the first two",
    ),
    # -- the one parser for polynomial sources
    Mutant(
        "parser-tuple-may-end-the-source",
        "src/cayleydiff/anf.py",
        (
            (
                "if start or self.chars[self.i] is not None:",
                "if self.chars[self.i] is not None:",
            ),
        ),
        "(p)(q,r) is not a tuple source: a tuple must span the whole source",
    ),
    # -- the exhaustive local sweeps
    Mutant(
        "code-sweep-no-origin-test",
        "src/cayleydiff/boolean.py",
        (("origin_ok = b & (b - 1) != 0 or values[0] == 0", "origin_ok = True"),),
        "a linear map fixes the origin, so f(0) != 0 in sight of b rules out the zero and single-column shapes",
    ),
    Mutant(
        "theorem-no-forced-identity",
        "src/cayleydiff/differential.py",
        (("if all(fv[x] == e_h for x in near if x in forced):", "if True:"),),
        "points of N(a) in the squares subgroup must map to the identity",
    ),
)


def malformed(mutants, root: pathlib.Path = ROOT) -> list[str]:
    """Why each malformed entry cannot be applied, one line each."""
    problems = []
    names = [m.name for m in mutants]
    for m in mutants:
        if names.count(m.name) > 1:
            problems.append(f"{m.name}: the name is used more than once")
        if not m.subs:
            problems.append(f"{m.name}: no substitution")
        text = (root / m.path).read_text()
        for old, new in m.subs:
            if old == new:
                problems.append(f"{m.name}: old == new ({old!r})")
            count = text.count(old)
            if count != 1:
                problems.append(f"{m.name}: {old!r} occurs {count} times in {m.path}, not once")
    return problems


def run_mutant(m: Mutant, root: pathlib.Path = ROOT) -> tuple[int, float]:
    """Tier 1's exit code on a copy of the tree with ``m`` applied, and
    the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = pathlib.Path(tmp)
        for name in COPIED:
            src = root / name
            if src.is_dir():
                shutil.copytree(
                    src, work / name, ignore=shutil.ignore_patterns("__pycache__", "out")
                )
            else:
                shutil.copy2(src, work / name)
        target = work / m.path
        text = target.read_text()
        for old, new in m.subs:
            text = text.replace(old, new)
        target.write_text(text)
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *TIER1],
            cwd=work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return proc.returncode, time.perf_counter() - start


def main(argv: list[str] | None = None, mutants=MUTANTS) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = sorted(set(names) - {m.name for m in mutants})
    if unknown:
        print(f"no such mutant: {', '.join(unknown)}", file=sys.stderr)
        return 1
    chosen = [m for m in mutants if not names or m.name in names]
    problems = malformed(chosen)
    if problems:
        print("malformed entries:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    failed = []
    for m in chosen:
        code, seconds = run_mutant(m)
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"tier 1 could not run (exit {code})")
        print(f"{m.name:40s} {verdict:10s} {seconds:6.1f} s  {m.path}", flush=True)
        if code != 1:
            failed.append(m.name)
    if failed:
        print(f"{len(failed)} of {len(chosen)} mutants not caught: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all {len(chosen)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
