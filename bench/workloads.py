"""The benchmark's workloads: inputs from a seed, the timed ops, and checks.

A workload hands out its ops one cycle at a time.  Every cycle holds the
same multiset of op kinds and sizes; the seed and the cycle number pick
the order and the inputs (maps, relabellings, polynomials, points).  A
run stops only at the end of a cycle, so each run measures the same mix
of work whatever the seed.

Each op has a ``run`` part, the only part that is timed, and a ``check``
part that verifies the result against an independent route and returns
its canonical form for the determinism digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cayleydiff import cli
from cayleydiff.boolean import (
    BoolFunction,
    boolean_differentials_at,
    scalar_differentiability_census,
    solve_matrix_equation,
)
from cayleydiff.cayley import cayley_graph, diff_space
from cayleydiff.differential import (
    DifferentialQuery,
    MapSpace,
    differentials_at,
    differentials_by_theorem,
)
from cayleydiff.groups import (
    direct_sum,
    enumerate_homomorphisms,
    group_from_spec,
    group_from_table,
)
from cayleydiff.spaces import FiniteMap

import checks
from checks import expect


@dataclass
class Op:
    kind: str
    size: str                            # histogram bucket
    key: Any                             # input identity, for the repeat share
    run: Callable[[Any], Any]            # run(tracer) -> result; timed
    check: Callable[[Any], Any]          # check(result) -> canonical result


class Workload:
    """Base: ``cycle(c)`` returns the ops of cycle c; ``extras`` counts
    workload properties that the checks observe."""

    def __init__(self, seed: int, frozen: dict, inprocess: bool = False):
        self.seed = seed
        self.frozen = frozen
        self.inprocess = inprocess
        self.extras: Counter = Counter()

    def rng(self, cycle: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + cycle)


def build_group(tr, spec: str):
    """Group and canonical generators for a spec; ``a+b`` is a direct sum."""
    with tr.span("groups.build") as counts:
        first, *rest = spec.split("+")
        group, gens = group_from_spec(first)
        elements = group.order
        for part in rest:
            other, other_gens = group_from_spec(part)
            # (g, e) has index g*|other|, (e, h) has index h
            gens = tuple(g * other.order for g in gens) + other_gens
            group = direct_sum(group, other)
            elements += other.order + group.order
        counts["elements"] = elements
    return group, gens


# ------------------------------------------------------------ cayley_mix


class CayleyMix(Workload):
    """Library requests on Cayley pairs drawn from a fixed pool."""

    # (domain, codomain, diff ops per cycle, homs ops per cycle).  The
    # counts put a run of similar latencies at the 50th and the 90th
    # percentile of a cycle, so both percentiles sit on a plateau.
    POOL = (
        ("cyclic:12", "cyclic:8", 4, 4),
        ("cyclic:6", "s:3", 4, 4),
        ("s:3", "s:3", 3, 4),
        ("s:3+cyclic:2", "s:3", 3, 3),
        ("cyclic:2+cyclic:4", "z2^2", 3, 3),
        ("z2^2", "s:4", 4, 9),
        ("s:4", "z2^3", 3, 3),
        ("s:4", "s:4", 3, 3),
        ("s:5", "z2^2", 2, 2),
        ("z2^3", "z2^3", 3, 3),
        ("z2^3", "s:4", 2, 2),
        ("z2^4", "z2^3", 1, 1),
        ("z2^3", "z2^5", 1, 1),
    )
    # group tables revalidated after a seeded relabelling, orders 64..256
    VALIDATE = ("z2^8", "cyclic:128", "s:5", "cyclic:4+cyclic:16")

    def __init__(self, seed, frozen, inprocess=False):
        super().__init__(seed, frozen, inprocess)
        self.bases = {spec: checks.base_table(spec) for spec in self.VALIDATE}
        self.cross_checked: set = set()

    def cycle(self, c: int) -> list[Op]:
        rng = self.rng(c)
        ops = []
        for dom, cod, n_diff, n_homs in self.POOL:
            ops += [self._diff(rng, dom, cod) for _ in range(n_diff)]
            ops += [self._homs(dom, cod) for _ in range(n_homs)]
        ops += [self._validate(rng, spec) for spec in self.VALIDATE]
        rng.shuffle(ops)
        return ops

    def _diff(self, rng, dom, cod) -> Op:
        n, k = checks.spec_order(dom), checks.spec_order(cod)
        if rng.random() < 0.5:
            values = tuple(rng.randrange(k) for _ in range(n))
        else:  # mostly the identity, so constant and pair differentials occur
            values = tuple(0 if rng.random() < 0.75 else rng.randrange(k) for _ in range(n))

        def run(tr):
            g, g_gens = build_group(tr, dom)
            h, h_gens = build_group(tr, cod)
            with tr.span("cayley.graph"):
                cg = cayley_graph(g, g_gens)
            with tr.span("cayley.graph"):
                ch = cayley_graph(h, h_gens)
            with tr.span("cayley.diff_space") as counts:
                ds = diff_space(cg, ch)
                counts["maps"] = len(ds.maps)
                counts["nbhd_pairs"] = sum(len(nb) for nb in ds.nbhd)
            with tr.span("differential.map_space"):
                space = MapSpace.from_diff_space(ds)
            f = FiniteMap(n, k, values)
            found = []
            for a in range(n):
                with tr.span("differential.criterion") as counts:
                    found.append(differentials_at(DifferentialQuery(space, f, a)))
                    counts["found"] = len(found[-1])
            return cg, ch, ds, space, f, found

        def check(res):
            cg, ch, ds, space, f, found = res
            for a, got in enumerate(found):
                want = differentials_by_theorem(DifferentialQuery(space, f, a))
                expect(got == want, f"{dom}->{cod} at {a}: criterion {got}, theorem {want}")
            if (dom, cod) not in self.cross_checked:
                ref = diff_space(cg, ch, cross_check=True)
                expect(
                    ref.maps == ds.maps and ref.nbhd == ds.nbhd,
                    f"{dom}->{cod}: cross-checked D(C,D) differs",
                )
                self.cross_checked.add((dom, cod))
            self.extras["diff_points"] += n
            self.extras["diff_points_with_differential"] += sum(1 for r in found if r)
            return len(ds.maps), [sorted(space.maps[i].values for i in r) for r in found]

        return Op("diff", f"{n}->{k}", ("pair", dom, cod), run, check)

    def _homs(self, dom, cod) -> Op:
        def run(tr):
            g, _ = build_group(tr, dom)
            h, _ = build_group(tr, cod)
            with tr.span("groups.homs") as counts:
                homs = enumerate_homomorphisms(g, h)
                counts["found"] = len(homs)
            return g, h, homs

        def check(res):
            g, h, homs = res
            values = [phi.values for phi in homs]
            want = self.frozen["hom_counts"][f"{dom}->{cod}"]
            expect(len(values) == want, f"{dom}->{cod}: {len(values)} homs, expected {want}")
            checks.check_homomorphisms(values, g.table, h.table)
            return values

        n, k = checks.spec_order(dom), checks.spec_order(cod)
        return Op("homs", f"{n}->{k}", ("pair", dom, cod), run, check)

    def _validate(self, rng, spec) -> Op:
        base = self.bases[spec]
        perm = list(range(len(base)))
        rng.shuffle(perm)
        if perm[0] == 0:  # keep the identity away from index 0
            perm[0], perm[1] = perm[1], perm[0]
        table = checks.relabel(base, np.array(perm))
        rows = table.tolist()

        def run(tr):
            with tr.span("groups.build") as counts:
                group = group_from_table(rows)
                counts["elements"] = group.order
            return group

        def check(group):
            want = checks.identity_to_zero(table)
            expect(
                group.order == len(base) and np.array_equal(np.array(group.table), want),
                f"{spec}: validated table differs from the relabelled input",
            )
            return group.table

        return Op("validate", str(len(base)), ("table", spec, tuple(perm)), run, check)


# ------------------------------------------------------------ boolean_mix


class BooleanMix(Workload):
    """Boolean requests: classify at one point, or census a scalar map."""

    # classify ops per cycle for each (m, n).  Runs of one size sit at the
    # 50th (4->3) and the 90th (5->5) percentile of a cycle; the costliest
    # sizes, with (n+1)^m up to 46656 candidates, run once.
    CLASSIFY = {
        **{(2, n): 3 for n in range(2, 7)},
        **{(3, n): 3 for n in range(2, 6)},
        (3, 6): 2,
        (4, 2): 1, (4, 3): 7, (4, 4): 2, (4, 5): 2, (4, 6): 2,
        (5, 2): 1, (5, 3): 1, (5, 4): 1, (5, 5): 4, (5, 6): 1,
        **{(6, n): 1 for n in range(2, 6)},
    }
    CENSUS = (5, 5, 6, 6, 7, 8)

    def cycle(self, c: int) -> list[Op]:
        rng = self.rng(c)
        ops = []
        for (m, n), count in self.CLASSIFY.items():
            # input shapes alternate, so half the inputs are linear on the ball
            ops += [self._classify(rng, m, n, (j + c) % 2 == 0) for j in range(count)]
        ops += [self._census(rng, m) for m in self.CENSUS]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _sparse(rng, m: int, constant: bool) -> list[int]:
        """A few random monomials of degree 1..3, as variable bitmasks."""
        monos = [
            sum(1 << v for v in rng.sample(range(m), rng.randint(1, min(3, m))))
            for _ in range(rng.randint(1, 4))
        ]
        return monos + [0] if constant else monos

    def _classify(self, rng, m: int, n: int, linear: bool) -> Op:
        b = rng.randrange(2**m)
        if linear:
            # continuous linear on the Hamming ball of b, random elsewhere
            shape = rng.choice(("isolated", "isolated", "zero", "single"))
            if shape == "zero":
                code = [0] * m
            elif shape == "single":
                beta = rng.randint(1, n)
                code = [rng.choice((0, beta)) for _ in range(m)]
                code[rng.randrange(m)] = beta
            else:
                code = [rng.randint(0, n) for _ in range(m)]
                first, second = rng.sample(range(m), 2)
                code[first], code[second] = rng.sample(range(1, n + 1), 2)
            near = set(checks.ball(b, m))
            table = []
            for x in range(2**m):
                if x in near:
                    out = [0] * n
                    for k in range(m):
                        if code[k] and (x >> (m - 1 - k)) & 1:
                            out[code[k] - 1] ^= 1
                    table.append(tuple(out))
                else:
                    table.append(tuple(rng.randint(0, 1) for _ in range(n)))
            components = [
                checks.anf_monomials([row[i] for row in table], m) for i in range(n)
            ]
        else:
            shape = "random"
            components = [self._sparse(rng, m, rng.random() < 0.25) for _ in range(n)]
            table = checks.evaluate(components, m)
        source = checks.render_source(components, m)
        bits = checks.point_bits(b, m)

        def run(tr):
            with tr.span("anf.from_source") as counts:
                f = BoolFunction.from_source(source, m=m)
                counts["points"] = 2**m
            with tr.span("boolean.classify") as counts:
                diffs = boolean_differentials_at(f, bits)
                counts["found"] = len(diffs)
            return f, diffs

        def isolated(rows) -> bool:
            return len({col for col in zip(*rows) if any(col)}) >= 2

        def check(res):
            f, diffs = res
            expect((f.m, f.n) == (m, n) and list(f.table) == table, f"{source!r}: parsed table differs")
            got = [mt.bits for mt in diffs]
            expect(got == sorted(set(got)), f"{source!r}: result not sorted and distinct")
            want = checks.boolean_differentials(table, m, n, b)
            expect(set(got) == want, f"{source!r} at {b}: differentials differ from the closed form")
            solved = {mt.bits for mt in solve_matrix_equation(f, bits) if isolated(mt.bits)}
            expect(
                {g for g in got if isolated(g)} == solved,
                f"{source!r} at {b}: isolated differentials differ from the matrix equation",
            )
            if (n + 1) ** m <= 64:
                oracle = boolean_differentials_at(f, bits, cross_check=True)
                expect([mt.bits for mt in oracle] == got, f"{source!r} at {b}: cross-check differs")
            self.extras[f"classify_shape_{shape}"] += 1
            self.extras["classify_with_differential"] += bool(got)
            for g in got:
                kind = "isolated" if isolated(g) else "zero" if not any(map(any, g)) else "single"
                self.extras[f"found_{kind}"] += 1
            return got

        return Op("classify", f"{m}->{n}", ("classify", source, b), run, check)

    def _census(self, rng, m: int) -> Op:
        components = [self._sparse(rng, m, rng.random() < 0.5)]
        table = checks.evaluate(components, m)
        source = checks.render_source(components, m)

        def run(tr):
            with tr.span("anf.from_source") as counts:
                f = BoolFunction.from_source(source, m=m)
                counts["points"] = 2**m
            with tr.span("boolean.census") as counts:
                report = scalar_differentiability_census(f)
                counts["points"] = 2**m
            return f, report

        def check(res):
            f, report = res
            expect(list(f.table) == table, f"{source!r}: parsed table differs")
            expect(report.matches, f"{source!r}: census deviates from its prediction")
            expect(
                report.differentiable == checks.census_pattern(table, m),
                f"{source!r}: census differs from the rule",
            )
            return report.differentiable

        return Op("census", str(m), ("census", source), run, check)


# ------------------------------------------------------------ cli_calls


class CliCalls(Workload):
    """A fixed cycle of canonical CLI calls; the seed only sets the order.

    Untraced, each call is a child process timed from spawn to exit.
    Traced, each call goes through ``cli.run`` in this process with
    stdout captured, so the trace can time the subcommand itself.
    """

    DIFFSPACE = ("diffspace", ("diffspace", "--dom", "z2^3", "--cod", "z2^3"))
    DIFF = ("diff", ("diff", "--dom", "z2^3", "--cod", "z2^3", "--f", "(p, qr, r)",
                     "--at", "100", "--oracle"))
    CENSUS = ("bool_census", ("bool", "census", "--m", "7", "--f", "pq+rs+tuv"))
    # The calls of one cycle.  diffspace, diff and the census (the slowest
    # call) run twice, so the 50th percentile sits on the diffspace/diff
    # plateau and the 90th inside the census band, not on a step between
    # two calls of different latency.
    COMMANDS = (
        ("examples", ("examples", "--suite", "paper")),
        ("group", ("group", "--group", "z2^8")),
        ("group", ("group", "--group", "s:4", "--homs-to", "s:4")),
        ("cayley", ("cayley", "--group", "s:4", "dot")),
        ("space", ("space", "--hypercube", "8", "--props")),
        DIFFSPACE, DIFFSPACE,
        DIFF, DIFF,
        ("bool_diff", ("bool", "diff", "--m", "5", "--n", "4", "--f",
                       "(p+st, q, r, 0)", "--at", "01101")),
        CENSUS, CENSUS,
    )

    def __init__(self, seed, frozen, inprocess=False):
        super().__init__(seed, frozen, inprocess)
        self.stdout_bytes: Counter = Counter()

    def cycle(self, c: int) -> list[Op]:
        commands = list(self.COMMANDS)
        self.rng(c).shuffle(commands)
        return [self._call(c, sub, args) for sub, args in commands]

    def _call(self, c: int, sub: str, args: tuple[str, ...]) -> Op:
        def run(tr):
            if not self.inprocess:
                proc = subprocess.run(
                    [sys.executable, "-m", "cayleydiff.cli", *args],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    timeout=120,
                )
                return proc.returncode, proc.stdout, proc.stderr
            out, err = io.StringIO(), io.StringIO()
            with tr.span(f"cli.{sub}"):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(list(args))
            return code, out.getvalue().encode(), err.getvalue().encode()

        def check(res):
            code, out, err = res
            line = " ".join(args)
            expect(code == 0, f"{line}: exit {code}: {err.decode(errors='replace').strip()}")
            digest = hashlib.sha256(out).hexdigest()
            want = self.frozen["cli_stdout_sha256"][line]
            expect(digest == want, f"{line}: stdout digest {digest}, expected {want}")
            self.stdout_bytes[c] += len(out)
            return digest

        return Op(sub, sub, args, run, check)


WORKLOADS = {"cayley_mix": CayleyMix, "boolean_mix": BooleanMix, "cli_calls": CliCalls}


def digest_entry(kind: str, canonical) -> bytes:
    """What one checked op adds to a run's determinism digest."""
    return kind.encode() + repr(canonical).encode()


def first_cycle_digest(wl: Workload, tracer) -> str:
    """The determinism digest of a run: sha256 over the digest entries of
    its first cycle's checked ops, in op order.  ``bench/run.py`` builds
    the same hash while it times that cycle."""
    digest = hashlib.sha256()
    for op in wl.cycle(0):
        digest.update(digest_entry(op.kind, op.check(op.run(tracer))))
    return digest.hexdigest()
