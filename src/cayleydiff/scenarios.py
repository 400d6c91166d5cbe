"""Canned worked-example scenarios behind ``cayleydiff examples``.

Each scenario recomputes one of the package's reference examples from
scratch and checks the result against its frozen expectation.  A failure
here means a soundness regression, not a user error, which is why the
CLI maps it to exit code 2.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .boolean import (
    BoolFunction,
    GF2Matrix,
    boolean_differentials_at,
    is_differentiable_at,
    linear_map_space,
    matrix_anf,
    neighborhood_indices,
    solve_matrix_equation,
)
from .cayley import (
    cayley_graph,
    diff_space,
    group_multiplication_map,
    hypercube,
    left_mult_automorphism_check,
)
from .differential import (
    DifferentialQuery,
    chain_rule_check,
    differentials_at,
)
from .errors import CrossCheckMismatch, Record
from .groups import (
    GeneratingSet,
    closure,
    cyclic_group,
    direct_sum,
    symmetric_group,
    validate_generating_set,
    z2_power_group,
)
from .spaces import (
    FiniteMap,
    PrincipalFilter,
    box_product,
    converges,
    diagonal_map,
    is_continuous,
    is_continuous_at,
    is_isolated,
    pentacle,
    space_properties,
)


def expect(ok: bool, detail: object) -> None:
    """Check one expectation of a scenario.

    Unlike ``assert`` this survives ``python -O``, so a soundness
    regression can never make the suite pass.
    """
    if not ok:
        raise CrossCheckMismatch(str(detail))


class ScenarioResult(Record):
    name: str
    ok: bool
    detail: str


def _pentacle_neighborhoods() -> str:
    space = pentacle()
    for p in range(5):
        want = frozenset(range(5)) - {(p + 3) % 5}
        expect(space.nbhd[p] == want, (p, space.nbhd[p]))
    props = space_properties(space)
    expect(props.is_T0 and not props.is_topological, props)
    return "N(p) omits exactly (p+3) mod 5; T0 and not topological"


def _pentacle_filter_convergence() -> str:
    space = pentacle()
    expect(converges(space, PrincipalFilter.of({0, 1}), 0), "[{0,1}] misses 0")
    expect(not converges(space, PrincipalFilter.of({3}), 0), "[{3}] converges to 0")
    return "[{0,1}] converges to 0, [{3}] does not"


def _s3_generators() -> str:
    s3 = symmetric_group(3)
    expect(closure(s3, (1, 3)) == frozenset(range(6)), "{r, t} does not generate S3")
    validate_generating_set(s3, (1, 3))
    c = cayley_graph(s3, GeneratingSet((1, 3)))
    expect(c.digraph.nbhd[0] == frozenset({0, 1, 3}), c.digraph.nbhd[0])
    return "{r, t} generates S3 without redundancy; N(e) = {e, r, t}"


def _left_multiplication_automorphism() -> str:
    samples = (
        cayley_graph(cyclic_group(6), GeneratingSet((1,))),
        cayley_graph(symmetric_group(3), GeneratingSet((1, 3))),
        cayley_graph(z2_power_group(3), GeneratingSet((1, 2, 4))),
    )
    for c in samples:
        check = left_mult_automorphism_check(c)
        expect(check.ok, check.witness)
    return "left multiplication is an automorphism on Z6, S3 and B3"


def _cayley_separation() -> str:
    nontrivial = (
        cayley_graph(cyclic_group(3), GeneratingSet((1,))),
        cayley_graph(cyclic_group(4), GeneratingSet((1,))),
        cayley_graph(symmetric_group(3), GeneratingSet((1, 3))),
        cayley_graph(z2_power_group(2), GeneratingSet((1, 2))),
    )
    for c in nontrivial:
        props = space_properties(c.digraph)
        expect(props.is_T0 and not props.is_topological, c)
    two = space_properties(cayley_graph(cyclic_group(2), GeneratingSet((1,))).digraph)
    expect(two.is_topological and not two.is_T0, two)
    return "sampled Cayley graphs are non-topological T0; order 2 is the exception"


def _hypercube_structure() -> str:
    b1 = hypercube(1).digraph
    b2 = hypercube(2).digraph
    expect(box_product(b1, b1) == b2, "B1 x B1 differs from B2")
    expect(b2.nbhd[3] == frozenset({3, 1, 2}), b2.nbhd[3])
    b3 = hypercube(3).digraph
    expect(all(len(b3.nbhd[v]) == 4 for v in range(8)), b3.nbhd)
    expect(neighborhood_indices(0, 3) == (0, 1, 2, 4), neighborhood_indices(0, 3))
    return "B1 x B1 = B2, N((1,1)) = {(1,1),(0,1),(1,0)}, B3 balls have size 4"


# A homomorphism out of Z or Z^2 is fixed by its generator images, and
# continuity confines those images to N(0) = {0, 1}.  Z_N with N >= 3
# offers the same choices and has no order-2 generator, so D(Z_N, Z_N)
# and D(Z_N^2, Z_N) are the line's and the plane's spaces reduced mod N
# (N = 2 is the exception: 1 has order two there).
_CYCLIC_ORDERS = range(3, 9)


def _integer_line_diff_space() -> str:
    for n in _CYCLIC_ORDERS:
        line = cayley_graph(cyclic_group(n), GeneratingSet((1,)))
        space = diff_space(line, line)
        want = ((0,) * n, tuple(range(n)))
        expect(tuple(phi.values for phi in space.maps) == want, (n, space.maps))
        expect(all(is_isolated(space, i) for i in range(2)), (n, space.nbhd))
    return "the line's map space is {zero, identity}, discrete"


def _integer_line_criterion() -> str:
    # windows of the line read on D(Z_7, Z_7): their points and values lie
    # in -3..3, where reduction mod 7 is injective
    line = cayley_graph(cyclic_group(7), GeneratingSet((1,)))
    space = diff_space(line, line)  # the zero map is index 0, the identity 1
    hits = 0
    for n in (-1, 0, 1):
        pts = (n - 1, n, n + 1, n + 2)
        for vals in itertools.product(range(-2, 3), repeat=4):
            w = dict(zip(pts, vals))
            values = [0] * 7
            for p, v in w.items():
                values[p % 7] = v % 7
            got = differentials_at(DifferentialQuery(space, FiniteMap(7, 7, tuple(values)), n % 7))
            zero_ok = w[n] == 0 and w[n + 1] == 0
            id_ok = w[n] == n and w[n + 1] == n + 1
            expect(got == (0,) * zero_ok + (1,) * id_ok, (n, w))
            hits += 1
    return f"differentiable iff window hits 0,0 or n,n+1 ({hits} windows swept)"


def _integer_plane_diff_space() -> str:
    for n in _CYCLIC_ORDERS:
        line = cayley_graph(cyclic_group(n), GeneratingSet((1,)))
        plane = cayley_graph(
            direct_sum(line.group, line.group), GeneratingSet((1, n))
        )
        expect(plane.digraph == box_product(line.digraph, line.digraph), n)
        space = diff_space(plane, line)
        # the pair (a, b) has index a*n + b; members sort as 0, a, b, a+b
        want = tuple(
            tuple((x * a + y * b) % n for a in range(n) for b in range(n))
            for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))
        )
        expect(tuple(phi.values for phi in space.maps) == want, (n, space.maps))
        expect(all(is_isolated(space, i) for i in range(4)), (n, space.nbhd))
        add = group_multiplication_map(line)
        expect(
            is_continuous(plane.digraph, line.digraph, add),
            f"addition on Z{n} is not continuous",
        )
    return "plane map space has 4 members; addition is continuous on the box product"


def _diagonal_nowhere() -> str:
    z6 = cyclic_group(6)
    s3 = symmetric_group(3)
    cases = [
        ("Z6", z6, (1,)),
        ("S3", s3, (1, 3)),
        ("B2", z2_power_group(2), (1, 2)),
    ]
    for label, group, gens in cases:
        c = cayley_graph(group, GeneratingSet(gens))
        paired = direct_sum(group, group)
        n = group.order
        pair_gens = tuple(sorted({s * n for s in gens} | set(gens)))
        boxed = cayley_graph(paired, GeneratingSet(pair_gens))
        expect(boxed.digraph == box_product(c.digraph, c.digraph), label)
        d = diagonal_map(n)
        for v in range(n):
            expect(not is_continuous_at(c.digraph, boxed.digraph, d, v), (label, v))
        space = diff_space(c, boxed)
        for v in range(n):
            expect(differentials_at(DifferentialQuery(space, d, v)) == (), (label, v))
    return "diagonal into the box product: continuous nowhere, differentiable nowhere"


_F_SOURCE = "(p, (1+p)(1+q), q)"
_G_SOURCE = "((1+q)(1+p+pr), (1+r)q)"
_BAD_SOURCE = "(p(1+q)(1+r), pr(1+q), r(1+p)(1+q))"
_F_MATRIX = GF2Matrix(3, 2, ((1, 0), (0, 0), (0, 1)))


def _bool_triple_map_differential() -> str:
    f = BoolFunction.from_source(_F_SOURCE)
    diffs = boolean_differentials_at(f, (1, 1), cross_check=True)
    expect(diffs == (_F_MATRIX,), diffs)
    value = f.value((1, 1))
    expect(_F_MATRIX.apply_bits((1, 1)) == value == (1, 0, 1), value)
    return f"unique differential at (1,1) is {matrix_anf(_F_MATRIX)}"


def _bool_pair_map_differential() -> str:
    g = BoolFunction.from_source(_G_SOURCE)
    diffs = boolean_differentials_at(g, (1, 0, 1), cross_check=True)
    want = GF2Matrix(2, 3, ((0, 1, 1), (0, 0, 0)))
    expect(want in diffs, diffs)
    return f"differentials at (1,0,1) include {matrix_anf(want)}"


def _bool_composite_chain() -> str:
    f = BoolFunction.from_source(_F_SOURCE)
    g = BoolFunction.from_source(_G_SOURCE)
    gf = g.compose(f)
    diffs = boolean_differentials_at(gf, (1, 1), cross_check=True)
    want = GF2Matrix(2, 2, ((0, 1), (0, 0)))
    expect(want in diffs, diffs)
    _, outer = linear_map_space(3, 2)
    _, inner = linear_map_space(2, 3)
    _, comp = linear_map_space(2, 2)
    report = chain_rule_check(
        g.as_finite_map(), f.as_finite_map(), 3, outer, inner, comp
    )
    expect(report.holds and not report.missing_composites, report)
    return f"composite has differential {matrix_anf(want)} at (1,1); chain rule holds"


def _bool_differentiable_not_continuous() -> str:
    bad = BoolFunction.from_source(_BAD_SOURCE)
    diffs = boolean_differentials_at(bad, (1, 0, 1), cross_check=True)
    expect(any(mt.is_zero() for mt in diffs), diffs)
    cube = hypercube(3).digraph
    continuous = is_continuous_at(cube, cube, bad.as_finite_map(), 5)
    expect(not continuous, "map is continuous at (1,0,1)")
    return "zero map is a differential at (1,0,1) although the map is discontinuous there"


def _bool_matrix_equation() -> str:
    f = BoolFunction.from_source(_F_SOURCE)
    sols = solve_matrix_equation(f, (1, 1))
    expect(sols == (_F_MATRIX,), sols)
    return f"linear system at (1,1) pins down {matrix_anf(_F_MATRIX)}"


def _bool_scalar_zero_rule() -> str:
    checked = 0
    for tbl in itertools.product((0, 1), repeat=8):
        if tbl[0] != 0:
            continue
        f = BoolFunction(3, 1, tuple((v,) for v in tbl))
        for b in range(8):
            expect(is_differentiable_at(f, b), (tbl, b))
        checked += 1
    return f"all {checked} scalar maps on B3 with f(0)=0 are differentiable everywhere"


_SCENARIOS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("pentacle-neighborhoods", _pentacle_neighborhoods),
    ("pentacle-filter-convergence", _pentacle_filter_convergence),
    ("s3-generators", _s3_generators),
    ("left-multiplication-automorphism", _left_multiplication_automorphism),
    ("cayley-separation", _cayley_separation),
    ("hypercube-structure", _hypercube_structure),
    ("integer-line-diff-space", _integer_line_diff_space),
    ("integer-line-criterion", _integer_line_criterion),
    ("integer-plane-diff-space", _integer_plane_diff_space),
    ("diagonal-nowhere", _diagonal_nowhere),
    ("bool-triple-map-differential", _bool_triple_map_differential),
    ("bool-pair-map-differential", _bool_pair_map_differential),
    ("bool-composite-chain", _bool_composite_chain),
    ("bool-differentiable-not-continuous", _bool_differentiable_not_continuous),
    ("bool-matrix-equation", _bool_matrix_equation),
    ("bool-scalar-zero-rule", _bool_scalar_zero_rule),
)

SUITES = {"paper": _SCENARIOS}


def run_suite(name: str) -> tuple[ScenarioResult, ...]:
    try:
        scenarios = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for label, fn in scenarios:
        try:
            detail = fn()
            results.append(ScenarioResult(label, True, detail))
        except Exception as exc:  # a failure is data here, not a crash
            results.append(ScenarioResult(label, False, f"{type(exc).__name__}: {exc}"))
    return tuple(results)
