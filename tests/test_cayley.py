import dataclasses

import pytest

from cayleydiff.cayley import (
    CayleyGraph,
    cayley_graph,
    diff_space,
    group_multiplication_map,
    left_mult_automorphism_check,
)
from cayleydiff.errors import (
    CrossCheckMismatch,
    DimMismatch,
    NotGenerating,
    Redundant,
    SizeGuardExceeded,
)
from cayleydiff.groups import (
    GeneratingSet,
    cyclic_group,
    direct_sum,
    enumerate_homomorphisms,
    group_from_spec,
    symmetric_group,
    z2_power_group,
)
from cayleydiff.spaces import (
    FiniteMap,
    ReflexiveDigraph,
    box_product,
    is_continuous,
    is_isolated,
    space_properties,
)


def test_s3_neighborhoods():
    c = cayley_graph(symmetric_group(3), GeneratingSet((1, 3)))
    assert c.digraph.nbhd[0] == frozenset({0, 1, 3})
    # right multiplication: N(g) = {g} | {g*s}
    g = 4  # tr
    s3 = c.group
    assert c.digraph.nbhd[g] == frozenset({g, s3.table[g][1], s3.table[g][3]})


def test_hypercube_neighborhoods():
    c = cayley_graph(z2_power_group(3), GeneratingSet((1, 2, 4)))
    for v in range(8):
        assert c.digraph.nbhd[v] == frozenset({v, v ^ 1, v ^ 2, v ^ 4})


def test_generating_set_validation_happens():
    s3 = symmetric_group(3)
    with pytest.raises(NotGenerating):
        cayley_graph(s3, (1,))
    with pytest.raises(Redundant):
        cayley_graph(cyclic_group(6), (1, 3))
    # a pre-validated GeneratingSet is accepted as-is
    gens = GeneratingSet((1, 3))
    assert cayley_graph(s3, gens).gens is gens


def test_cayley_graph_dim_check():
    c = cayley_graph(cyclic_group(3), GeneratingSet((1,)))
    with pytest.raises(DimMismatch):
        CayleyGraph(c.group, c.gens, ReflexiveDigraph((frozenset({0}),)))


def test_left_multiplication_is_automorphism():
    for c in (
        cayley_graph(cyclic_group(5), GeneratingSet((1,))),
        cayley_graph(symmetric_group(3), GeneratingSet((1, 3))),
        cayley_graph(z2_power_group(2), GeneratingSet((1, 2))),
    ):
        check = left_mult_automorphism_check(c)
        assert check.ok
        assert check.witness is None


def test_left_multiplication_check_detects_corruption():
    c = cayley_graph(symmetric_group(3), GeneratingSet((1, 3)))
    # tamper with one neighborhood; the carrier keeps its size
    broken_nbhd = list(c.digraph.nbhd)
    broken_nbhd[2] = frozenset({2, 3})
    broken = CayleyGraph(
        c.group, c.gens, ReflexiveDigraph(tuple(broken_nbhd))
    )
    check = left_mult_automorphism_check(broken)
    assert not check.ok
    assert check.witness


def test_diff_space_s3_endomorphisms():
    c = cayley_graph(symmetric_group(3), GeneratingSet((1, 3)))
    space = diff_space(c, c, cross_check=True)
    values = [m.values for m in space.maps]
    assert values == [
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 3, 3, 3),
        (0, 1, 2, 3, 4, 5),
    ]
    assert space.nbhd == (
        frozenset({0, 1}),
        frozenset({0, 1}),
        frozenset({2}),
    )
    assert not is_isolated(space, 0)
    assert not is_isolated(space, 1)
    assert is_isolated(space, 2)


def test_diff_space_z4_to_z2():
    dom = cayley_graph(cyclic_group(4), GeneratingSet((1,)))
    cod = cayley_graph(cyclic_group(2), GeneratingSet((1,)))
    space = diff_space(dom, cod, cross_check=True)
    assert [m.values for m in space.maps] == [(0, 0, 0, 0), (0, 1, 0, 1)]
    # the two maps converge to each other
    assert space.nbhd == (frozenset({0, 1}), frozenset({0, 1}))


def test_diff_space_cross_check_sample():
    specs = (
        (cyclic_group(3), (1,)),
        (cyclic_group(4), (1,)),
        (z2_power_group(2), (1, 2)),
        (symmetric_group(3), (1, 3)),
    )
    graphs = [cayley_graph(g, GeneratingSet(s)) for g, s in specs]
    for dom in graphs:
        for cod in graphs:
            diff_space(dom, cod, cross_check=True)


def test_cross_check_catches_a_dropped_map(monkeypatch):
    import cayleydiff.cayley as cayley

    c = cayley_graph(symmetric_group(3), GeneratingSet((1, 3)))
    homs_along_tree = cayley._homs_along_tree
    monkeypatch.setattr(
        cayley, "_homs_along_tree", lambda *args: homs_along_tree(*args)[:-1]
    )
    assert len(diff_space(c, c).maps) == 2
    with pytest.raises(CrossCheckMismatch, match="from the definition"):
        diff_space(c, c, cross_check=True)


def test_cross_check_catches_a_missing_bucket(monkeypatch):
    import cayleydiff.cayley as cayley

    c = cayley_graph(symmetric_group(3), GeneratingSet((1, 3)))
    monkeypatch.setattr(cayley, "_order2_generators", lambda c: frozenset())
    assert all(is_isolated(diff_space(c, c), i) for i in range(3))
    with pytest.raises(CrossCheckMismatch, match="generic criterion"):
        diff_space(c, c, cross_check=True)


def test_oracle_refuses_during_its_sweep(monkeypatch):
    # D(B2, B2) has 9 maps; with 15 pair comparisons allowed the oracle
    # stops at the 4th kept map instead of comparing all 81 pairs
    cube = cayley_graph(z2_power_group(2), GeneratingSet((1, 2)))
    assert len(diff_space(cube, cube, cross_check=True).maps) == 9
    monkeypatch.setenv("CAYLEYDIFF_MAX_ORACLE_WORK", "15")
    assert len(diff_space(cube, cube).maps) == 9
    with pytest.raises(SizeGuardExceeded, match="kept so far needs 16,"):
        diff_space(cube, cube, cross_check=True)


def test_diff_space_needs_a_generating_set():
    # a GeneratingSet is trusted as given; a non-generating one cannot
    # pin a homomorphism down by its generator images
    half = cayley_graph(cyclic_group(4), GeneratingSet((2,)))
    with pytest.raises(NotGenerating):
        diff_space(half, half)


def test_order_two_exception():
    two = cayley_graph(cyclic_group(2), GeneratingSet((1,)))
    props = space_properties(two.digraph)
    assert props.is_topological
    assert not props.is_T0
    for n in (3, 4, 5, 6):
        c = cayley_graph(cyclic_group(n), GeneratingSet((1,)))
        p = space_properties(c.digraph)
        assert p.is_T0 and not p.is_topological


def test_multiplication_continuity_on_box_product():
    # abelian: continuous; the smallest nonabelian case is not
    for n in (3, 4, 5, 6):
        c = cayley_graph(cyclic_group(n), GeneratingSet((1,)))
        box = box_product(c.digraph, c.digraph)
        assert is_continuous(box, c.digraph, group_multiplication_map(c))
    s3 = cayley_graph(symmetric_group(3), GeneratingSet((1, 3)))
    box = box_product(s3.digraph, s3.digraph)
    assert not is_continuous(box, s3.digraph, group_multiplication_map(s3))


def _line(n):
    return cayley_graph(cyclic_group(n), GeneratingSet((1,)))


def _plane(n):
    line = _line(n)
    return cayley_graph(direct_sum(line.group, line.group), GeneratingSet((1, n)))


def test_integer_line_space():
    # Z_N for N >= 3 stands in for Z: the generator 1 may map to 0 or 1
    for n in range(3, 9):
        space = diff_space(_line(n), _line(n))
        zero, ident = space.maps
        assert zero.values == (0,) * n
        assert ident.values == tuple(range(n))
        assert all(is_isolated(space, i) for i in range(2))
        # members compose like D(Z, Z): only identity after identity is nonzero
        assert ident.compose(ident) == ident
        assert zero.compose(ident) == zero
        assert ident.compose(zero) == zero


def test_integer_plane_space():
    for n in range(3, 9):
        space = diff_space(_plane(n), _line(n))
        # the pair (a, b) has index a*n + b; members sort as 0, a, b, a+b
        pairs = [(a, b) for a in range(n) for b in range(n)]
        assert [phi.values for phi in space.maps] == [
            tuple((x * a + y * b) % n for a, b in pairs)
            for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))
        ]
        assert all(is_isolated(space, i) for i in range(4))


def test_plane_members_materialize_continuously():
    c6 = _line(6)
    plane = _plane(6)
    box = box_product(c6.digraph, c6.digraph)
    assert plane.digraph == box
    space = diff_space(plane, c6)
    for phi in space.maps:
        assert is_continuous(box, c6.digraph, phi)
    assert space.maps[-1] == group_multiplication_map(c6)


def test_diff_space_is_frozen():
    c = cayley_graph(cyclic_group(3), GeneratingSet((1,)))
    space = diff_space(c, c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.maps = ()


@pytest.mark.parametrize(
    "dom, cod", [("s:4", "z2^3"), ("z2^3", "z2^2"), ("cyclic:6", "s:3"), ("cyclic:1", "z2^1")]
)
def test_library_built_maps_equal_validated_maps(dom, cod):
    # homomorphisms skip FiniteMap validation; they must be
    # indistinguishable from maps built through the public constructor
    (g, g_gens), (h, h_gens) = group_from_spec(dom), group_from_spec(cod)
    space = diff_space(cayley_graph(g, g_gens), cayley_graph(h, h_gens))
    for phi in enumerate_homomorphisms(g, h) + space.maps:
        built = FiniteMap(g.order, h.order, phi.values)
        assert type(phi) is FiniteMap
        assert phi == built and built == phi and hash(phi) == hash(built)
        assert repr(phi) == repr(built)
        assert (phi.dom_size, phi.cod_size) == (g.order, h.order)
        assert type(phi.values) is tuple
        assert all(type(v) is int and 0 <= v < h.order for v in phi.values)
