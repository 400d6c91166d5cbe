import itertools
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cayleydiff
from cayleydiff.errors import (
    DimMismatch,
    MalformedTable,
    NotContinuous,
    SizeGuardExceeded,
)
from cayleydiff.spaces import (
    FiniteMap,
    _hom_neighbor_criterion,
    MapSpace,
    PrincipalFilter,
    ReflexiveDigraph,
    adherence,
    box_product,
    categorical_product,
    continuous_maps,
    converges,
    diagonal_map,
    digraph_from_json,
    digraph_to_json,
    discrete_digraph,
    hom_neighbor,
    is_continuous,
    is_continuous_at,
    is_isolated,
    map_from_json,
    map_to_json,
    pair_index,
    pentacle,
    space_properties,
    unpair_index,
)


@st.composite
def digraphs(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    nbhd = []
    for v in range(n):
        extra = draw(st.sets(st.integers(0, n - 1), max_size=n))
        nbhd.append(frozenset(extra | {v}))
    return ReflexiveDigraph(tuple(nbhd))


@st.composite
def digraph_with_map(draw, max_size=4):
    dom = draw(digraphs(max_size))
    cod = draw(digraphs(max_size))
    values = tuple(
        draw(st.integers(0, cod.size - 1)) for _ in range(dom.size)
    )
    return dom, cod, FiniteMap(dom.size, cod.size, values)


def _all_digraphs(n):
    verts = range(n)
    options = []
    for v in verts:
        others = [u for u in verts if u != v]
        choices = []
        for mask in range(2 ** len(others)):
            extra = {others[k] for k in range(len(others)) if mask >> k & 1}
            choices.append(frozenset(extra | {v}))
        options.append(choices)
    for combo in itertools.product(*options):
        yield ReflexiveDigraph(tuple(combo))


def test_finite_map_validation():
    with pytest.raises(DimMismatch):
        FiniteMap(2, 2, (0,))
    with pytest.raises(DimMismatch):
        FiniteMap(2, 2, (0, 2))
    with pytest.raises(DimMismatch, match="integers"):
        FiniteMap(2, 2, (0.0, 1.0))
    with pytest.raises(DimMismatch):
        FiniteMap.identity(3).compose(FiniteMap.identity(2))
    # integer-like values are stored as plain ints
    assert [type(v) for v in FiniteMap(2, 2, (True, 0)).values] == [int, int]


def test_finite_map_validation_survives_python_O():
    # the public constructor checks with raise, not assert, which -O strips
    script = textwrap.dedent("""
        import sys
        from cayleydiff.errors import DimMismatch
        from cayleydiff.spaces import FiniteMap

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        for args in ((2, 2, (0,)), (2, 2, (0, 2)), (2, 2, (-1, 0))):
            try:
                FiniteMap(*args)
            except DimMismatch:
                continue
            sys.exit(f"FiniteMap{args} was accepted")
    """)
    src = os.path.dirname(os.path.dirname(cayleydiff.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_finite_map_basics():
    f = FiniteMap(3, 2, (1, 0, 1))
    assert f(0) == 1 and f(2) == 1
    assert f.image() == frozenset({0, 1})
    ident = FiniteMap.identity(3)
    assert f.compose(ident).values == f.values
    assert FiniteMap.identity(2).compose(f).values == f.values
    c = FiniteMap.constant(4, 3, 2)
    assert c.values == (2, 2, 2, 2)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_compose_matches_pointwise(data):
    dom, mid, g = data.draw(digraph_with_map())
    values = tuple(
        data.draw(st.integers(0, 3)) for _ in range(mid.size)
    )
    f = FiniteMap(mid.size, 4, values)
    fg = f.compose(g)
    assert all(fg(x) == f(g(x)) for x in range(dom.size))


def test_reflexivity_enforced():
    with pytest.raises(MalformedTable):
        ReflexiveDigraph((frozenset({1}), frozenset({1})))
    with pytest.raises(MalformedTable):
        ReflexiveDigraph.from_neighborhoods([[0, 5]])


def test_filter_convergence():
    space = pentacle()
    # the smallest neighborhood filter of v converges to v
    for v in range(5):
        assert converges(space, PrincipalFilter.of(space.nbhd[v]), v)
        assert converges(space, PrincipalFilter.point(v), v)
    assert converges(space, PrincipalFilter.of({0, 1}), 0)
    assert not converges(space, PrincipalFilter.of({3}), 0)
    # coarser filters still converge
    assert converges(space, PrincipalFilter.of({1}), 0)


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.data())
def test_point_filters_converge_reflexively(space, data):
    v = data.draw(st.integers(0, space.size - 1))
    assert converges(space, PrincipalFilter.point(v), v)
    sub = data.draw(st.sets(st.sampled_from(sorted(space.nbhd[v])), min_size=1))
    assert converges(space, PrincipalFilter.of(sub), v)


@settings(max_examples=60, deadline=None)
@given(digraph_with_map())
def test_global_continuity_is_pointwise(triple):
    dom, cod, f = triple
    pointwise = all(
        is_continuous_at(dom, cod, f, v) for v in range(dom.size)
    )
    assert is_continuous(dom, cod, f) == pointwise


def test_continuity_examples():
    space = pentacle()
    ident = FiniteMap.identity(5)
    assert is_continuous(space, space, ident)
    rotate = FiniteMap(5, 5, (1, 2, 3, 4, 0))
    # the defining rule is rotation invariant
    assert is_continuous(space, space, rotate)
    swap = FiniteMap(5, 5, (1, 0, 2, 3, 4))
    assert not is_continuous(space, space, swap)


def test_hom_neighbor_requires_continuity():
    space = pentacle()
    cont = FiniteMap.identity(5)
    broken = FiniteMap(5, 5, (1, 0, 2, 3, 4))
    with pytest.raises(NotContinuous):
        hom_neighbor(space, space, broken, cont)
    with pytest.raises(NotContinuous):
        hom_neighbor(space, space, cont, broken)


def test_map_space_rejects_a_discontinuous_map():
    space = pentacle()
    broken = FiniteMap(5, 5, (1, 0, 2, 3, 4))
    with pytest.raises(NotContinuous, match="map 1 with values"):
        MapSpace.from_continuous_maps(space, space, [FiniteMap.identity(5), broken])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hom_neighbor_matches_definition(data):
    dom = data.draw(digraphs(3))
    cod = data.draw(digraphs(3))
    maps = continuous_maps(dom, cod)
    if not maps:
        return
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    want = all(
        f.values[a] in cod.nbhd[g.values[b]]
        for b in range(dom.size)
        for a in dom.nbhd[b]
    )
    assert hom_neighbor(dom, cod, f, g) == want


@settings(max_examples=60, deadline=None)
@given(digraphs(3), digraphs(3), st.data())
def test_pair_loop_criterion_matches_hom_neighbor(dom, cod, data):
    # diff_space's cross-check pair loop runs the criterion without
    # hom_neighbor's continuity checks, on maps it has proved continuous
    maps = continuous_maps(dom, cod)
    for f in maps:
        for g in maps:
            assert _hom_neighbor_criterion(dom, cod, f, g) == hom_neighbor(dom, cod, f, g)
    values = tuple(data.draw(st.integers(0, cod.size - 1)) for _ in range(dom.size))
    h = FiniteMap(dom.size, cod.size, values)
    if not is_continuous(dom, cod, h):
        with pytest.raises(NotContinuous, match="first map"):
            hom_neighbor(dom, cod, h, maps[0])
        with pytest.raises(NotContinuous, match="second map"):
            hom_neighbor(dom, cod, maps[0], h)


def _nbhd_by_hom_neighbor(dom, cod, maps):
    return tuple(
        frozenset(j for j, f in enumerate(maps) if hom_neighbor(dom, cod, f, g))
        for g in maps
    )


def test_map_space_nbhd_matches_hom_neighbor_on_the_pentacle():
    # from_continuous_maps checks continuity once, then runs the bare
    # criterion over all pairs
    space = pentacle()
    maps = continuous_maps(space, space)
    built = MapSpace.from_continuous_maps(space, space, maps)
    assert len(maps) == 185
    assert built.nbhd == _nbhd_by_hom_neighbor(space, space, maps)


@settings(max_examples=60, deadline=None)
@given(digraphs(3), digraphs(3))
def test_map_space_nbhd_matches_hom_neighbor(dom, cod):
    maps = continuous_maps(dom, cod)
    built = MapSpace.from_continuous_maps(dom, cod, maps)
    assert built.nbhd == _nbhd_by_hom_neighbor(dom, cod, maps)
    # the masks differentials_at reads
    alone = [is_isolated(built, i) for i in range(len(maps))]
    isolated, others = built._nbhd_masks
    assert isolated == sum(1 << i for i in range(len(maps)) if alone[i])
    assert others == tuple(
        (i, sum(1 << j for j in nb)) for i, nb in enumerate(built.nbhd) if not alone[i]
    )


def test_continuous_maps_counts():
    # from a discrete domain everything is continuous
    assert len(continuous_maps(discrete_digraph(3), pentacle())) == 125
    # into a one-point space only the constant exists
    assert len(continuous_maps(pentacle(), discrete_digraph(1))) == 1
    # identity and the five constants are always present on the pentacle
    maps = continuous_maps(pentacle(), pentacle())
    values = {m.values for m in maps}
    assert tuple(range(5)) in values
    for c in range(5):
        assert (c,) * 5 in values
    # frozen count, confirmed by an independent brute-force sweep
    assert len(maps) == 185


def test_continuous_maps_guard():
    with pytest.raises(SizeGuardExceeded):
        continuous_maps(discrete_digraph(12), discrete_digraph(12))


def test_pair_index_round_trip():
    for a in range(5):
        for b in range(7):
            assert unpair_index(pair_index(a, b, 7), 7) == (a, b)


def test_box_product_neighborhoods():
    x = pentacle()
    y = discrete_digraph(2)
    box = box_product(x, y)
    assert box.size == 10
    for a in range(5):
        for b in range(2):
            got = box.nbhd[pair_index(a, b, 2)]
            want = {pair_index(a, b, 2)}
            want |= {pair_index(u, b, 2) for u in x.nbhd[a]}
            want |= {pair_index(a, v, 2) for v in y.nbhd[b]}
            assert got == frozenset(want)


def test_categorical_product_neighborhoods():
    x = pentacle()
    cat = categorical_product(x, x)
    for a in range(5):
        for b in range(5):
            want = {
                pair_index(u, v, 5) for u in x.nbhd[a] for v in x.nbhd[b]
            }
            assert cat.nbhd[pair_index(a, b, 5)] == frozenset(want)


def test_box_is_coarser_than_categorical():
    x = pentacle()
    box = box_product(x, x)
    cat = categorical_product(x, x)
    for v in range(25):
        assert box.nbhd[v] <= cat.nbhd[v]


def test_diagonal_map_values():
    d = diagonal_map(3)
    assert d.values == (0, 4, 8)
    assert d.cod_size == 9


def test_pentacle_properties():
    props = space_properties(pentacle())
    assert props.is_T0
    assert not props.is_T1
    assert not props.is_discrete
    assert not props.is_topological


def test_discrete_properties():
    props = space_properties(discrete_digraph(4))
    assert props.is_T0 and props.is_T1 and props.is_discrete
    assert props.is_topological


def test_indiscrete_properties():
    n = 3
    complete = ReflexiveDigraph(tuple(frozenset(range(n)) for _ in range(n)))
    props = space_properties(complete)
    assert not props.is_T0
    assert not props.is_T1
    assert props.is_topological


def test_t1_equals_discrete_exhaustively():
    # the two are computed by different rules; they must agree everywhere
    for n in (1, 2, 3):
        for space in _all_digraphs(n):
            props = space_properties(space)
            assert props.is_T1 == props.is_discrete


def test_topological_equals_adherence_idempotent_exhaustively():
    for n in (1, 2, 3):
        for space in _all_digraphs(n):
            props = space_properties(space)
            idempotent = all(
                adherence(space, adherence(space, frozenset(sub)))
                == adherence(space, frozenset(sub))
                for r in range(n + 1)
                for sub in itertools.combinations(range(n), r)
            )
            assert props.is_topological == idempotent


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.data())
def test_t1_equals_discrete_random(space, data):
    props = space_properties(space)
    assert props.is_T1 == props.is_discrete
    if props.is_discrete:
        assert props.is_T0


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.data())
def test_adherence_is_expansive_and_monotone(space, data):
    n = space.size
    a = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    b = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
    adh_a = adherence(space, a)
    assert a <= adh_a
    if a <= b:
        assert adh_a <= adherence(space, b)
    assert adherence(space, a | b) == adh_a | adherence(space, b)


def test_json_round_trips():
    for space in (pentacle(), discrete_digraph(3)):
        assert digraph_from_json(digraph_to_json(space)) == space
    f = FiniteMap(3, 2, (1, 0, 1))
    assert map_from_json(map_to_json(f)) == f
    with pytest.raises(MalformedTable):
        digraph_from_json({"size": 2})
    with pytest.raises(MalformedTable):
        digraph_from_json({"size": 2, "nbhd": [[0]]})
    with pytest.raises(MalformedTable):
        map_from_json({"dom_size": 1})
