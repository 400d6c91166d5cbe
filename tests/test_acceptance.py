"""Acceptance gate: twelve exact criteria, one test per criterion.

Each test is a frozen contract; tolerances are exact.  Randomized
criteria use fixed seeds so the gate is reproducible.
"""

import itertools
import random

import pytest

from cayleydiff.boolean import (
    BoolFunction,
    GF2Matrix,
    boolean_differentials_at,
    continuous_linear_maps,
    is_continuous_linear,
    linear_map_space,
    scalar_differentiability_census,
)
from cayleydiff.boolean import _neighbor_criterion
from cayleydiff.cayley import (
    cayley_graph,
    diff_space,
    group_multiplication_map,
    hypercube,
)
from cayleydiff.differential import (
    DifferentialQuery,
    MapSpace,
    chain_rule_check,
    differential_oracle,
    differentials_at,
    differentials_by_theorem,
    t1_forces_value_check,
)
from cayleydiff.groups import (
    GeneratingSet,
    cyclic_group,
    direct_sum,
    symmetric_group,
    z2_power_group,
)
from cayleydiff.spaces import (
    FiniteMap,
    ReflexiveDigraph,
    box_product,
    continuous_maps,
    diagonal_map,
    discrete_digraph,
    hom_neighbor,
    is_continuous,
    is_continuous_at,
    pentacle,
    space_properties,
)


def _pool():
    return {
        "Z2": cayley_graph(cyclic_group(2), GeneratingSet((1,))),
        "Z3": cayley_graph(cyclic_group(3), GeneratingSet((1,))),
        "Z4": cayley_graph(cyclic_group(4), GeneratingSet((1,))),
        "Z2xZ2": cayley_graph(z2_power_group(2), GeneratingSet((1, 2))),
        "S3": cayley_graph(symmetric_group(3), GeneratingSet((1, 3))),
        "B1": cayley_graph(z2_power_group(1), GeneratingSet((1,))),
        "B2": cayley_graph(z2_power_group(2), GeneratingSet((1, 2))),
        "B3": cayley_graph(z2_power_group(3), GeneratingSet((1, 2, 4))),
    }


@pytest.fixture(scope="module")
def pool():
    return _pool()


@pytest.fixture(scope="module")
def pool_spaces(pool):
    return {
        (dn, cn): diff_space(dom, cod)
        for dn, dom in pool.items()
        for cn, cod in pool.items()
    }


F_SOURCE = "(p, (1+p)(1+q), q)"
G_SOURCE = "((1+q)(1+p+pr), (1+r)q)"
BAD_SOURCE = "(p(1+q)(1+r), pr(1+q), r(1+p)(1+q))"


def test_c01_pentacle_neighborhoods_and_separation():
    space = pentacle()
    for p in range(5):
        assert space.nbhd[p] == frozenset(range(5)) - {(p + 3) % 5}
    props = space_properties(space)
    assert props.is_T0
    assert not props.is_topological


def test_c02_integer_line_window_criterion():
    # windows of the line read on D(Z_7, Z_7): their points and values lie
    # in -3..3, where reduction mod 7 is injective
    line = cayley_graph(cyclic_group(7), GeneratingSet((1,)))
    space = diff_space(line, line)
    zero, ident = (phi.values for phi in space.maps)
    assert zero == (0,) * 7 and ident == tuple(range(7))
    for n in (-1, 0, 1):
        pts = (n - 1, n, n + 1, n + 2)
        for vals in itertools.product(range(-2, 3), repeat=4):
            window = dict(zip(pts, vals))
            values = [0] * 7
            for p, v in window.items():
                values[p % 7] = v % 7
            got = differentials_at(DifferentialQuery(space, FiniteMap(7, 7, tuple(values)), n % 7))
            want = []
            if window[n] == 0 and window[n + 1] == 0:
                want.append(0)
            if window[n] == n and window[n + 1] == n + 1:
                want.append(1)
            assert got == tuple(want), (n, window)


def test_c03_integer_plane_members_and_box_addition():
    # Z_N^2 -> Z_N for N >= 3 has the same generator-image choices as
    # Z^2 -> Z: each generator goes to 0 or 1, and no order-2 generator
    # links two members
    for n in range(3, 9):
        line = cayley_graph(cyclic_group(n), GeneratingSet((1,)))
        plane = cayley_graph(
            direct_sum(line.group, line.group), GeneratingSet((1, n))
        )
        box = box_product(line.digraph, line.digraph)
        assert plane.digraph == box
        space = diff_space(plane, line)
        pairs = [(a, b) for a in range(n) for b in range(n)]
        assert [phi.values for phi in space.maps] == [
            tuple(0 for a, b in pairs),
            tuple(a for a, b in pairs),
            tuple(b for a, b in pairs),
            tuple((a + b) % n for a, b in pairs),
        ]
        assert all(space.nbhd[i] == frozenset({i}) for i in range(4))
        add = group_multiplication_map(line)
        assert space.maps[3] == add
        assert is_continuous(box, line.digraph, add)


def test_c04_diagonal_nowhere_continuous_nowhere_differentiable():
    cases = (
        (cyclic_group(6), (1,)),
        (symmetric_group(3), (1, 3)),
        (z2_power_group(2), (1, 2)),
    )
    for group, gens in cases:
        c = cayley_graph(group, GeneratingSet(gens))
        n = group.order
        paired = direct_sum(group, group)
        pair_gens = tuple(sorted({s * n for s in gens} | set(gens)))
        boxed = cayley_graph(paired, GeneratingSet(pair_gens))
        assert boxed.digraph == box_product(c.digraph, c.digraph)
        d = diagonal_map(n)
        space = diff_space(c, boxed)
        for v in range(n):
            assert not is_continuous_at(c.digraph, boxed.digraph, d, v)
            assert differentials_at(DifferentialQuery(space, d, v)) == ()


def test_c05_boolean_worked_example():
    f = BoolFunction.from_source(F_SOURCE)
    g = BoolFunction.from_source(G_SOURCE)
    f_mat = GF2Matrix(3, 2, ((1, 0), (0, 0), (0, 1)))
    assert boolean_differentials_at(f, (1, 1)) == (f_mat,)
    g_mat = GF2Matrix(2, 3, ((0, 1, 1), (0, 0, 0)))
    assert g_mat in boolean_differentials_at(g, (1, 0, 1))
    composite_mat = GF2Matrix(2, 2, ((0, 1), (0, 0)))
    assert composite_mat in boolean_differentials_at(g.compose(f), (1, 1))
    _, outer = linear_map_space(3, 2)
    _, inner = linear_map_space(2, 3)
    _, comp = linear_map_space(2, 2)
    report = chain_rule_check(
        g.as_finite_map(), f.as_finite_map(), 3, outer, inner, comp
    )
    assert report.holds
    comp_values = composite_mat.as_finite_map().values
    assert any(
        comp.maps[i].values == comp_values for i in report.composite_differentials
    )


def test_c06_differentiable_but_not_continuous():
    bad = BoolFunction.from_source(BAD_SOURCE)
    assert boolean_differentials_at(bad, (1, 0, 1)) != ()
    cube = hypercube(3).digraph
    assert not is_continuous_at(cube, cube, bad.as_finite_map(), 5)


def test_c07_criterion_oracle_equivalence_matrix(pool, pool_spaces):
    rng = random.Random(20260817)
    mismatches = 0
    for dn, dom in pool.items():
        for cn, cod in pool.items():
            space = pool_spaces[(dn, cn)]
            ds, cs = dom.group.order, cod.group.order
            for _ in range(500):
                f = FiniteMap(ds, cs, tuple(rng.randrange(cs) for _ in range(ds)))
                a = rng.randrange(ds)
                q = DifferentialQuery(space, f, a)
                routes = (
                    differentials_at(q),
                    differentials_by_theorem(q),
                    differential_oracle(q),
                    differential_oracle(q, literal=True),
                )
                if len(set(routes)) != 1:
                    mismatches += 1
    assert mismatches == 0


def test_c08_lemma_equivalence_suites(pool):
    from cayleydiff.groups import enumerate_homomorphisms

    # homomorphisms: continuity at the identity equals global continuity
    for dom in pool.values():
        for cod in pool.values():
            e = dom.group.identity
            for h in enumerate_homomorphisms(dom.group, cod.group):
                at_e = is_continuous_at(dom.digraph, cod.digraph, h, e)
                everywhere = is_continuous(dom.digraph, cod.digraph, h)
                assert at_e == everywhere

    # map-space adjacency: the order-2 generator rule equals the generic one
    for dom in pool.values():
        for cod in pool.values():
            diff_space(dom, cod, cross_check=True)

    # linear continuity: the column-weight rule equals digraph continuity
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            dom, cod = hypercube(m).digraph, hypercube(n).digraph
            for bits in itertools.product(
                itertools.product((0, 1), repeat=m), repeat=n
            ):
                mt = GF2Matrix(n, m, tuple(bits))
                assert is_continuous_linear(mt) == is_continuous(
                    dom, cod, mt.as_finite_map()
                )

    # matrix adjacency: the column-union rule equals the generic hom rule
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            dom, cod = hypercube(m).digraph, hypercube(n).digraph
            mats = continuous_linear_maps(m, n)
            for a in mats:
                for b in mats:
                    want = a == b or _neighbor_criterion(a, b)
                    got = hom_neighbor(
                        dom, cod, a.as_finite_map(), b.as_finite_map()
                    )
                    assert want == got, (m, n, a, b)


def test_c09_chain_rule_randomized(pool, pool_spaces):
    rng = random.Random(90123)
    names = sorted(pool)
    trials = 0
    while trials < 1000:
        an, bn, cn = (rng.choice(names) for _ in range(3))
        inner_space = pool_spaces[(an, bn)]
        outer_space = pool_spaces[(bn, cn)]
        comp_space = pool_spaces[(an, cn)]
        sa = pool[an].group.order
        sb = pool[bn].group.order
        sc = pool[cn].group.order
        a = rng.randrange(sa)
        # build g continuous at a by forcing nearby values into N(g(a))
        g_vals = [rng.randrange(sb) for _ in range(sa)]
        near_image = sorted(inner_space.codomain.nbhd[g_vals[a]])
        for x in inner_space.domain.nbhd[a]:
            if x != a:
                g_vals[x] = rng.choice(near_image)
        g = FiniteMap(sa, sb, tuple(g_vals))
        f = FiniteMap(sb, sc, tuple(rng.randrange(sc) for _ in range(sb)))
        report = chain_rule_check(f, g, a, outer_space, inner_space, comp_space)
        assert report.holds, (an, bn, cn, g.values, f.values, a)
        assert not report.missing_composites
        trials += 1


def test_c10_t1_codomain_forces_value(pool):
    rng = random.Random(1010)
    domains = [
        pentacle(),
        hypercube(2).digraph,
        hypercube(3).digraph,
        pool["S3"].digraph,
        pool["Z4"].digraph,
    ]
    spaces = {}
    trials = 0
    while trials < 500:
        dom = rng.choice(domains)
        k = rng.randrange(1, 5)
        key = (id(dom), k)
        if key not in spaces:
            cod = discrete_digraph(k)
            spaces[key] = MapSpace.from_continuous_maps(
                dom, cod, continuous_maps(dom, cod)
            )
        space = spaces[key]
        f = FiniteMap(
            dom.size, k, tuple(rng.randrange(k) for _ in range(dom.size))
        )
        a = rng.randrange(dom.size)
        assert t1_forces_value_check(DifferentialQuery(space, f, a))
        trials += 1


def test_c11_scalar_census_on_b3():
    rng = random.Random(1111)
    for _ in range(200):
        table = tuple((rng.randint(0, 1),) for _ in range(8))
        f = BoolFunction(3, 1, table)
        report = scalar_differentiability_census(f)
        assert report.matches, table


def test_c12_endomorphism_counts_against_brute_force():
    s3 = symmetric_group(3)
    c = cayley_graph(s3, GeneratingSet((1, 3)))
    homs = []
    for values in itertools.product(range(6), repeat=6):
        if values[0] != 0:
            continue
        if all(
            values[s3.table[a][b]] == s3.table[values[a]][values[b]]
            for a in range(6)
            for b in range(6)
        ):
            homs.append(FiniteMap(6, 6, values))
    assert len(homs) == 10
    members = [
        h for h in homs if is_continuous_at(c.digraph, c.digraph, h, 0)
    ]
    assert len(members) == 3

    from cayleydiff.groups import enumerate_homomorphisms

    assert len(enumerate_homomorphisms(s3, s3)) == 10
    assert len(diff_space(c, c).maps) == 3
    assert sorted(h.values for h in homs) == sorted(
        h.values for h in enumerate_homomorphisms(s3, s3)
    )
    assert sorted(m.values for m in members) == sorted(
        m.values for m in diff_space(c, c).maps
    )
