import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleydiff import anf
from cayleydiff.boolean import (
    BoolFunction,
    GF2Matrix,
    _differentials_by_matrix_sweep,
    boolean_differentials_at,
    continuous_linear_maps,
    index_point,
    is_continuous_linear,
    is_differentiable_at,
    leibniz_probe,
    linear_map_space,
    linear_neighbors,
    matrix_anf,
    neighborhood_indices,
    point_index,
    row_anf,
    scalar_differentiability_census,
    solve_matrix_equation,
)
from cayleydiff.cayley import hypercube
from cayleydiff.errors import (
    CrossCheckMismatch,
    DimMismatch,
    Error,
    MalformedTable,
    NotContinuous,
    NotDifferentiable,
    SizeGuardExceeded,
)
from cayleydiff.spaces import FiniteMap, is_continuous_at

F_SOURCE = "(p, (1+p)(1+q), q)"
G_SOURCE = "((1+q)(1+p+pr), (1+r)q)"
BAD_SOURCE = "(p(1+q)(1+r), pr(1+q), r(1+p)(1+q))"

F_MATRIX = GF2Matrix(3, 2, ((1, 0), (0, 0), (0, 1)))
G_MATRIX = GF2Matrix(2, 3, ((0, 1, 1), (0, 0, 0)))
COMPOSITE_MATRIX = GF2Matrix(2, 2, ((0, 1), (0, 0)))


# ---------------------------------------------------------------- parsing


def test_tabulate_worked_sources():
    f = BoolFunction.from_source(F_SOURCE)
    assert (f.m, f.n) == (2, 3)
    assert f.table == ((0, 1, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1))

    g = BoolFunction.from_source(G_SOURCE)
    assert (g.m, g.n) == (3, 2)
    assert g.table == (
        (1, 0),
        (1, 0),
        (0, 1),
        (0, 0),
        (0, 0),
        (1, 0),
        (0, 1),
        (0, 0),
    )

    bad = BoolFunction.from_source(BAD_SOURCE)
    assert (bad.m, bad.n) == (3, 3)
    assert bad.value((1, 0, 1)) == (0, 1, 0)
    assert bad.table == (
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 0),
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 0),
        (0, 0, 0),
    )


def test_product_spellings_agree():
    spellings = ["pq+r", "p*q+r", "p q + r", "(p)(q)+r", "p *q+ r"]
    tables = {BoolFunction.from_source(s).table for s in spellings}
    assert len(tables) == 1


def test_parser_errors():
    with pytest.raises(MalformedTable):
        BoolFunction.from_source("p+")
    with pytest.raises(MalformedTable):
        BoolFunction.from_source("p&q")
    with pytest.raises(MalformedTable):
        BoolFunction.from_source("(p+q")
    # positions count the spaces of the original text
    with pytest.raises(MalformedTable, match="unexpected character '&' at position 4"):
        BoolFunction.from_source("p + &")
    with pytest.raises(MalformedTable, match="missing '\\)' at position 8"):
        BoolFunction.from_source("p (q + r")
    with pytest.raises(MalformedTable, match="trailing input at position 4: '\\) q'"):
        BoolFunction.from_source("p q ) q")
    with pytest.raises(DimMismatch):
        BoolFunction.from_source("1")  # constant needs an explicit m
    with pytest.raises(DimMismatch):
        BoolFunction.from_source("r", m=2)  # r is the third variable
    # redundant m is fine and pads with unused bits
    assert BoolFunction.from_source("p", m=3).m == 3


def test_table_guard_refuses_before_any_point_is_evaluated(monkeypatch):
    def sentinel(node, masks, ones):
        raise RuntimeError("a point was evaluated")

    monkeypatch.setattr(anf, "_eval_mask", sentinel)
    with pytest.raises(RuntimeError):
        BoolFunction.from_source("p", m=1)
    with pytest.raises(SizeGuardExceeded, match="bool_table_dim=20"):
        BoolFunction.from_source("p", m=21)


def _random_expression(rng, m, depth=0):
    """A random polynomial over the first m variables, spelt with spaces,
    ``*``, juxtaposition, nested parentheses and the constants."""
    pick = rng.randrange(5 if depth < 3 else 2)
    if pick == 0 and m:
        return anf._VARS[rng.randrange(m)]
    if pick <= 1:
        return rng.choice("01")
    if pick == 2:
        return "(" + _random_expression(rng, m, depth + 1) + ")"
    parts = [_random_expression(rng, m, depth + 1) for _ in range(rng.randrange(2, 4))]
    if pick == 3:
        return rng.choice(("+", " + ", "+ ")).join(parts)
    # a sum as a factor needs its parentheses
    parts = [f"({p})" if "+" in p and not p.startswith("(") else p for p in parts]
    return "".join(rng.choice(("", "*", " ", " * ")) + p for p in parts).lstrip(" *")


def _both_routes(source, m):
    """The outcome of the bit-sliced and the per-point tabulation: the
    table, or the type of the error raised."""
    out = []
    for route in (anf.tabulate, anf._tabulate_by_points):
        try:
            out.append(route(source, m))
        except Error as exc:
            out.append(type(exc))
    return out


def test_tabulate_matches_per_point_route():
    rng = random.Random(25)
    for _ in range(400):
        m = rng.randrange(9)
        parts = [_random_expression(rng, m) for _ in range(rng.randrange(1, 6))]
        source = parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"
        fast, slow = _both_routes(source, m)
        assert fast == slow, source
        assert fast[0] == m and len(fast[1]) == 2**m
        assert all(type(b) is int for row in fast[1] for b in row)
        # the bit count inferred from the variables used
        if any(ch in anf._VARS for ch in source):
            fast, slow = _both_routes(source, None)
            assert fast == slow, source
        # malformed sources: one character inserted, dropped or replaced
        chars = list(source)
        for _ in range(3):
            i = rng.randrange(len(chars) + 1)
            bad = chars[:i] + [rng.choice("()+*&,z1 ")] + chars[i + rng.randrange(2) :]
            fast, slow = _both_routes("".join(bad), m)
            assert fast == slow, "".join(bad)


def test_explicit_constant():
    one = BoolFunction.from_source("1", m=2)
    assert one.table == ((1,),) * 4
    zero = BoolFunction.from_source("0", m=1)
    assert zero.table == ((0,), (0,))


# --------------------------------------------------------- points, indices


def test_point_indexing_is_msb_first():
    assert point_index((1, 0)) == 2
    assert point_index((0, 1, 1)) == 3
    assert index_point(5, 3) == (1, 0, 1)
    for m in range(1, 5):
        for idx in range(2**m):
            assert point_index(index_point(idx, m)) == idx
    with pytest.raises(DimMismatch):
        point_index((0, 2))
    with pytest.raises(DimMismatch):
        index_point(8, 3)


def test_neighborhood_indices():
    assert neighborhood_indices(0, 3) == (0, 1, 2, 4)
    assert neighborhood_indices(3, 2) == (1, 2, 3)
    for idx in range(8):
        ball = neighborhood_indices(idx, 3)
        assert idx in ball and len(ball) == 4


# ----------------------------------------------------------------- matrices


def test_matrix_validation():
    with pytest.raises(DimMismatch):
        GF2Matrix(2, 2, ((0, 1),))
    with pytest.raises(DimMismatch):
        GF2Matrix(1, 2, ((0, 1, 1),))
    with pytest.raises(DimMismatch):
        GF2Matrix(1, 2, ((0, 2),))


def test_matrix_columns_round_trip():
    mt = GF2Matrix(3, 2, ((1, 0), (0, 0), (0, 1)))
    assert mt.columns() == ((1, 0, 0), (0, 0, 1))
    assert GF2Matrix.from_columns(3, mt.columns()) == mt
    assert mt.distinct_nonzero_columns() == frozenset(
        {(1, 0, 0), (0, 0, 1)}
    )
    assert GF2Matrix.from_columns(2, ()) == GF2Matrix(2, 0, ((), ()))


def test_from_finite_map_inverts_as_finite_map():
    # every matrix, not only the continuous ones: a non-canonical
    # generating set of the domain gives homomorphisms of column weight 2
    for m in range(4):
        for n in range(4):
            for bits in itertools.product((0, 1), repeat=m * n):
                rows = tuple(bits[i * m : (i + 1) * m] for i in range(n))
                mt = GF2Matrix(n, m, rows)
                assert GF2Matrix.from_finite_map(mt.as_finite_map(), m, n) == mt
    with pytest.raises(DimMismatch):
        GF2Matrix.from_finite_map(F_MATRIX.as_finite_map(), 3, 2)


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=60)
def test_apply_matches_mod2_product(rows, cols, data):
    bits = tuple(
        tuple(data.draw(st.integers(0, 1)) for _ in range(cols))
        for _ in range(rows)
    )
    x = tuple(data.draw(st.integers(0, 1)) for _ in range(cols))
    mt = GF2Matrix(rows, cols, bits)
    expected = tuple(
        sum(bits[i][j] * x[j] for j in range(cols)) % 2 for i in range(rows)
    )
    assert mt.apply_bits(x) == expected


def test_compose_is_pointwise():
    rng = random.Random(5)
    for _ in range(40):
        a = GF2Matrix(
            2, 3, tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(2))
        )
        b = GF2Matrix(
            3, 2, tuple(tuple(rng.randrange(2) for _ in range(2)) for _ in range(3))
        )
        ab = a.compose(b)
        for x in itertools.product((0, 1), repeat=2):
            assert ab.apply_bits(x) == a.apply_bits(b.apply_bits(x))
    with pytest.raises(DimMismatch):
        GF2Matrix.zero(2, 3).compose(GF2Matrix.zero(2, 3))


def test_as_finite_map_values():
    assert F_MATRIX.as_finite_map().values == (0, 1, 4, 5)
    fm = COMPOSITE_MATRIX.as_finite_map()
    assert (fm.dom_size, fm.cod_size) == (4, 4)
    assert fm.values == (0, 2, 0, 2)


# --------------------------------------------------- continuous linear maps


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (2, 3), (1, 4)])
def test_continuous_linear_map_count(m, n):
    maps = continuous_linear_maps(m, n)
    assert len(maps) == (n + 1) ** m
    assert len(set(maps)) == len(maps)
    assert all(is_continuous_linear(mt) for mt in maps)


def test_column_rule_matches_digraph_continuity():
    cube2 = hypercube(2).digraph
    for bits in itertools.product((0, 1), repeat=4):
        mt = GF2Matrix(2, 2, (bits[:2], bits[2:]))
        direct = all(
            is_continuous_at(cube2, cube2, mt.as_finite_map(), v)
            for v in range(4)
        )
        assert is_continuous_linear(mt) == direct


def test_zero_matrix_has_seven_neighbors():
    zero = GF2Matrix.zero(2, 2)
    nbrs = linear_neighbors(zero)
    assert len(nbrs) == 7
    assert zero in nbrs
    # every neighbor repeats a single nonzero column or is zero
    assert all(len(mt.distinct_nonzero_columns()) <= 1 for mt in nbrs)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_neighbors_match_pair_criterion(m, n):
    from cayleydiff.boolean import _neighbor_criterion

    maps = continuous_linear_maps(m, n)
    for mt in maps:
        via_filter = tuple(
            sorted(
                (o for o in maps if o == mt or _neighbor_criterion(mt, o)),
                key=lambda x: x.bits,
            )
        )
        assert linear_neighbors(mt) == via_filter


def test_isolated_matrix_is_its_own_neighborhood():
    mt = GF2Matrix(2, 2, ((1, 0), (0, 1)))
    assert linear_neighbors(mt) == (mt,)
    with pytest.raises(NotContinuous):
        linear_neighbors(GF2Matrix(2, 1, ((1,), (1,))))


def test_linear_map_space_is_reflexive():
    matrices, space = linear_map_space(2, 2)
    assert len(matrices) == 9
    for i, nv in enumerate(space.nbhd):
        assert i in nv


@pytest.mark.parametrize(
    "m,n", [(m, n) for m in range(1, 4) for n in range(1, 4)] + [(4, 3)]
)
def test_linear_map_space_matches_pair_filter(m, n):
    from cayleydiff.boolean import _neighbor_criterion

    matrices, space = linear_map_space(m, n)
    # the oracle: every continuous linear map, neighbors by the pair rule
    ref = continuous_linear_maps(m, n)
    assert sorted(mt.bits for mt in matrices) == [mt.bits for mt in ref]
    assert [mt.as_finite_map() for mt in matrices] == list(space.maps)
    index = {mt: i for i, mt in enumerate(matrices)}
    for a in ref:
        want = {b for b in ref if b == a or _neighbor_criterion(a, b)}
        assert {matrices[j] for j in space.nbhd[index[a]]} == want


def test_zero_dimensional_cubes():
    assert continuous_linear_maps(0, 2) == (GF2Matrix(2, 0, ((), ())),)
    matrices, space = linear_map_space(0, 2)
    assert matrices == (GF2Matrix(2, 0, ((), ())),)
    assert space.maps == (FiniteMap(1, 4, (0,)),)
    assert (space.domain.size, space.codomain.size) == (1, 4)
    f = BoolFunction.from_source("(0, 0)", m=0)
    assert boolean_differentials_at(f, (), cross_check=True) == matrices
    assert linear_map_space(2, 0)[0] == (GF2Matrix(0, 2, ()),)


# ----------------------------------------------------------- differentials


def test_triple_map_has_unique_differential():
    f = BoolFunction.from_source(F_SOURCE)
    diffs = boolean_differentials_at(f, (1, 1), cross_check=True)
    assert diffs == (F_MATRIX,)
    assert matrix_anf(diffs[0]) == "(p, 0, q)"


def test_pair_map_differentials():
    g = BoolFunction.from_source(G_SOURCE)
    diffs = boolean_differentials_at(g, (1, 0, 1), cross_check=True)
    assert len(diffs) == 8
    assert G_MATRIX in diffs
    assert matrix_anf(G_MATRIX) == "(q+r, 0)"


def test_composite_differentials():
    f = BoolFunction.from_source(F_SOURCE)
    g = BoolFunction.from_source(G_SOURCE)
    comp = g.compose(f)
    assert (comp.m, comp.n) == (2, 2)
    diffs = boolean_differentials_at(comp, (1, 1), cross_check=True)
    assert len(diffs) == 4
    assert COMPOSITE_MATRIX in diffs
    assert G_MATRIX.compose(F_MATRIX) == COMPOSITE_MATRIX
    assert matrix_anf(COMPOSITE_MATRIX) == "(q, 0)"


def test_differentiable_without_continuity():
    bad = BoolFunction.from_source(BAD_SOURCE)
    at = (1, 0, 1)
    diffs = boolean_differentials_at(bad, at, cross_check=True)
    assert diffs == (GF2Matrix.zero(3, 3),)
    cube = hypercube(3).digraph
    assert not is_continuous_at(
        cube, cube, bad.as_finite_map(), point_index(at)
    )


def test_point_forms_agree():
    g = BoolFunction.from_source(G_SOURCE)
    by_bits = boolean_differentials_at(g, (1, 0, 1))
    by_index = boolean_differentials_at(g, 5)
    assert by_bits == by_index
    with pytest.raises(DimMismatch):
        boolean_differentials_at(g, (1, 0))
    with pytest.raises(DimMismatch):
        boolean_differentials_at(g, 8)


def test_random_cross_checks():
    rng = random.Random(41)
    for _ in range(60):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        table = tuple(
            tuple(rng.randrange(2) for _ in range(n)) for _ in range(2**m)
        )
        f = BoolFunction(m, n, table)
        b = rng.randrange(2**m)
        boolean_differentials_at(f, b, cross_check=True)


@given(st.sampled_from([(4, 4), (5, 3)]), st.data())
@settings(max_examples=30, deadline=None)
def test_cross_check_on_larger_cubes(dims, data):
    m, n = dims
    point = st.tuples(*[st.integers(0, 1)] * n)
    table = data.draw(st.lists(point, min_size=2**m, max_size=2**m))
    b = data.draw(st.integers(0, 2**m - 1))
    f = BoolFunction(m, n, tuple(table))
    got = boolean_differentials_at(f, b, cross_check=True)
    assert got == boolean_differentials_at(f, b)


def test_cross_check_runs_the_theorem_route(monkeypatch):
    # the cross-check imports the theorem route when it runs, so the
    # patch goes on the module that defines it
    import cayleydiff.differential as differential

    f = BoolFunction.from_source(F_SOURCE)
    monkeypatch.setattr(differential, "differentials_by_theorem", lambda q: ())
    assert boolean_differentials_at(f, (1, 1)) == (F_MATRIX,)
    with pytest.raises(CrossCheckMismatch, match="theorem route"):
        boolean_differentials_at(f, (1, 1), cross_check=True)


# --------------------------------------------------------- matrix equation


def test_matrix_equation_on_worked_example():
    f = BoolFunction.from_source(F_SOURCE)
    assert solve_matrix_equation(f, (1, 1)) == (F_MATRIX,)


def test_matrix_equation_recovers_linear_map():
    f = BoolFunction.from_source("(q, p)")
    swap = GF2Matrix(2, 2, ((0, 1), (1, 0)))
    for b in range(4):
        assert solve_matrix_equation(f, b) == (swap,)


def test_matrix_equation_inconsistent_near_origin():
    f = BoolFunction.from_source("(1+p, q)")
    assert solve_matrix_equation(f, 0) == ()


def test_matrix_equation_subset_of_differentials():
    # every table and point of the small cubes: the solver gives exactly
    # the continuous linear maps that agree with f on the ball, and exact
    # agreement on the ball is stronger than the window rules
    for m, n in ((1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        maps = continuous_linear_maps(m, n)
        for table in itertools.product(itertools.product((0, 1), repeat=n), repeat=2**m):
            f = BoolFunction(m, n, table)
            for b in range(2**m):
                near = neighborhood_indices(b, m)
                want = tuple(
                    mt for mt in maps
                    if all(mt.apply_bits(index_point(x, m)) == table[x] for x in near)
                )
                assert solve_matrix_equation(f, b) == want
                assert set(want) <= set(boolean_differentials_at(f, b))


# --------------------------------------------------------------- existence


@st.composite
def _function_and_point(draw):
    """A table on the m-cube and a point b; unless the shape is "random",
    the table is linear on the ball of b, by the zero matrix, a matrix
    with columns in {0, beta}, an isolated matrix (two distinct nonzero
    columns, where m and n allow it), or any continuous matrix."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 1)] * n)
    table = draw(st.lists(point, min_size=2**m, max_size=2**m))
    b = draw(st.integers(0, 2**m - 1))
    zero = (0,) * n
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    shape = draw(st.sampled_from(["random", "zero", "single", "isolated", "continuous"]))
    if shape != "random":
        choices = [zero] if shape == "zero" else [zero, *units]
        if shape == "single":
            choices = [zero, draw(st.sampled_from(units))]
        cols = [draw(st.sampled_from(choices)) for _ in range(m)]
        if shape == "isolated" and m >= 2 and n >= 2:
            first, second = draw(st.permutations(range(m)))[:2]
            cols[first], cols[second] = draw(st.permutations(units))[:2]
        linear = GF2Matrix.from_columns(n, cols)
        for x in neighborhood_indices(b, m):
            table[x] = linear.apply_bits(index_point(x, m))
    return BoolFunction(m, n, tuple(table)), b


@given(_function_and_point())
@settings(max_examples=150, deadline=None)
def test_existence_matches_classification(case):
    f, b = case
    assert is_differentiable_at(f, b) == bool(boolean_differentials_at(f, b))


def test_existence_exhaustive_on_pair_maps():
    # every map B2 -> B2 at every point; the shapes seen show that the
    # zero-matrix and the isolated test each decide both ways
    seen = set()
    for values in itertools.product(range(4), repeat=4):
        f = BoolFunction(2, 2, tuple(index_point(v, 2) for v in values))
        for b in range(4):
            diffs = boolean_differentials_at(f, b)
            assert is_differentiable_at(f, b) == bool(diffs), (values, b)
            seen.add(
                (
                    any(mt.is_zero() for mt in diffs),
                    any(len(mt.distinct_nonzero_columns()) >= 2 for mt in diffs),
                )
            )
    assert {(True, False), (False, True), (False, False)} <= seen


def test_existence_point_forms():
    g = BoolFunction.from_source(G_SOURCE)
    assert is_differentiable_at(g, (1, 0, 1)) is is_differentiable_at(g, 5) is True
    assert is_differentiable_at(BoolFunction.from_source("(1+p, q)"), 0) is False
    assert is_differentiable_at(BoolFunction(0, 2, ((0, 0),)), ()) is True
    assert is_differentiable_at(BoolFunction(0, 2, ((1, 0),)), 0) is False
    with pytest.raises(DimMismatch):
        is_differentiable_at(g, (1, 0))
    with pytest.raises(DimMismatch):
        is_differentiable_at(g, 8)


# ------------------------------------------------------ column-code sweep


@given(_function_and_point())
@settings(max_examples=100, deadline=None)
def test_code_sweep_matches_matrix_sweep(case):
    f, b = case
    got = boolean_differentials_at(f, b)
    assert got == _differentials_by_matrix_sweep(f, b)
    # raises unless the matrix sweep, the generic criterion and the
    # theorem route all agree, and returns the default route's answer
    assert boolean_differentials_at(f, b, cross_check=True) == got


def test_code_sweep_exhaustive_on_pair_maps():
    # every map B2 -> B2 at every point, and every map from the 0-cube
    tables = [
        tuple(index_point(v, 2) for v in values)
        for values in itertools.product(range(4), repeat=4)
    ]
    cases = [(BoolFunction(2, 2, t), b) for t in tables for b in range(4)]
    cases += [
        (BoolFunction(0, n, (out,)), 0)
        for n in (1, 2, 3)
        for out in itertools.product((0, 1), repeat=n)
    ]
    shapes = set()
    for f, b in cases:
        got = boolean_differentials_at(f, b, cross_check=True)
        assert got == _differentials_by_matrix_sweep(f, b), (f.table, b)
        shapes.update(
            "zero" if mt.is_zero()
            else "isolated" if len(mt.distinct_nonzero_columns()) >= 2
            else "single"
            for mt in got
        )
    assert shapes == {"zero", "single", "isolated"}


def test_cross_check_runs_the_matrix_sweep(monkeypatch):
    import cayleydiff.boolean as boolean

    f = BoolFunction.from_source(F_SOURCE)
    monkeypatch.setattr(boolean, "_differentials_by_matrix_sweep", lambda f, b: ())
    assert boolean_differentials_at(f, (1, 1)) == (F_MATRIX,)
    with pytest.raises(CrossCheckMismatch, match="matrix sweep"):
        boolean_differentials_at(f, (1, 1), cross_check=True)


# ------------------------------------------------------------------ census


def test_census_every_scalar_pair_function():
    for bits in itertools.product((0, 1), repeat=4):
        f = BoolFunction(2, 1, tuple((b,) for b in bits))
        assert scalar_differentiability_census(f).matches


def test_census_frozen_patterns():
    everywhere = scalar_differentiability_census(
        BoolFunction.from_source("pq")
    )
    assert everywhere.differentiable == (True,) * 4

    shifted = scalar_differentiability_census(
        BoolFunction.from_source("pq+1")
    )
    assert shifted.differentiable == (False, False, False, True)
    assert shifted.matches


def test_census_random_triples():
    rng = random.Random(613)
    for _ in range(100):
        table = tuple((rng.randrange(2),) for _ in range(8))
        f = BoolFunction(3, 1, table)
        report = scalar_differentiability_census(f)
        assert report.matches
        assert report.m == 3


def test_census_rejects_vector_codomain():
    f = BoolFunction.from_source("(p, q)")
    with pytest.raises(DimMismatch):
        scalar_differentiability_census(f)


def _census_by_sweep(f):
    return tuple(bool(boolean_differentials_at(f, b)) for b in range(2**f.m))


def test_census_matches_sweep_on_every_scalar_triple():
    for bits in itertools.product((0, 1), repeat=8):
        f = BoolFunction(3, 1, tuple((v,) for v in bits))
        assert scalar_differentiability_census(f).differentiable == _census_by_sweep(f)


def test_census_matches_sweep_on_random_tables():
    rng = random.Random(2718)
    for m in range(4, 8):
        for _ in range(3):
            f = BoolFunction(m, 1, tuple((rng.randrange(2),) for _ in range(2**m)))
            assert scalar_differentiability_census(f).differentiable == _census_by_sweep(f)


def test_census_on_sixteen_bits():
    rng = random.Random(16)
    table = [(rng.randrange(2),) for _ in range(2**16)]
    table[0] = (1,)
    report = scalar_differentiability_census(BoolFunction(16, 1, tuple(table)))
    # f(0) = 1: differentiable exactly off the ball of the origin
    assert report.differentiable == tuple(b & (b - 1) != 0 for b in range(2**16))
    assert report.matches


# ------------------------------------------------------------ product rule


def test_product_rule_probe():
    f = BoolFunction.from_source("p+q")
    g = BoolFunction.from_source("pq")
    for b in range(4):
        report = leibniz_probe(f, g, b)
        assert report.total == 16
        assert report.satisfied == 16
        assert len(report.trials) == report.total
        nf = len(boolean_differentials_at(f, b))
        ng = len(boolean_differentials_at(g, b))
        assert report.total == nf * ng


def test_probe_needs_differentiable_factors():
    one = BoolFunction.from_source("1", m=2)
    g = BoolFunction.from_source("pq")
    with pytest.raises(NotDifferentiable):
        leibniz_probe(one, g, 0)
    with pytest.raises(DimMismatch):
        leibniz_probe(BoolFunction.from_source("(p, q)"), g, 0)


# ------------------------------------------------------------------ guards


def test_hypercube_dimension_guard(monkeypatch):
    with pytest.raises(SizeGuardExceeded, match="group_order=1024"):
        hypercube(11)
    monkeypatch.setenv("CAYLEYDIFF_MAX_GROUP_ORDER", "2048")
    big = hypercube(11).digraph
    assert big.size == 2048
    assert len(big.nbhd[0]) == 12


def test_hypercube_matches_bit_flips():
    # reference: the Hamming ball of radius 1 around every point
    for m in range(9):
        flips = tuple(frozenset(neighborhood_indices(b, m)) for b in range(2**m))
        assert hypercube(m).digraph.nbhd == flips


# --------------------------------------------------------------- functions


def test_function_conversions():
    f = BoolFunction.from_source(F_SOURCE)
    fm = f.as_finite_map()
    assert fm.values == (2, 1, 4, 5)
    assert BoolFunction.from_finite_map(fm, 2, 3) == f
    with pytest.raises(DimMismatch):
        BoolFunction.from_finite_map(fm, 3, 3)
    assert f.value(3) == f.value((1, 1)) == (1, 0, 1)
    # a bad table is refused, naming its first bad row
    for table, first in (
        (((0, 1), (1,), (1, 2), (1, 1)), "(1,)"),
        (((0, 1), (0, 0), (1, 2), (1,)), "(1, 2)"),
        (((0, 1), (2.0, 0), (1, 2), (1, 1)), "(2.0, 0)"),
    ):
        with pytest.raises(DimMismatch, match=re.escape(f"output {first} is not a 2-bit point")):
            BoolFunction(2, 2, table)


def test_pointwise_product_table():
    f = BoolFunction.from_source("p+q")
    g = BoolFunction.from_source("pq")
    prod = f.pointwise_product(g)
    assert prod.table == tuple(
        (a[0] & b[0],) for a, b in zip(f.table, g.table)
    )
    with pytest.raises(DimMismatch):
        f.pointwise_product(BoolFunction.from_source("pqr"))


def test_compose_dimension_check():
    f = BoolFunction.from_source(F_SOURCE)  # 2 -> 3
    with pytest.raises(DimMismatch):
        f.compose(f)


# --------------------------------------------------------------- rendering


def test_anf_rendering():
    assert row_anf((1, 0, 1)) == "p+r"
    assert row_anf((0, 0, 0)) == "0"
    assert matrix_anf(GF2Matrix.zero(2, 2)) == "(0, 0)"
    assert matrix_anf(F_MATRIX) == "(p, 0, q)"
    assert matrix_anf(G_MATRIX) == "(q+r, 0)"


def test_anf_rendering_refuses_unnamed_variables():
    # the notation names 11 variables; a 12-column row renders while its
    # last column is zero and raises a typed error once it is not
    assert row_anf((1,) * 11 + (0,)) == "p+q+r+s+t+u+v+w+x+y+z"
    assert row_anf((0,) * 12) == "0"
    with pytest.raises(DimMismatch, match="variable 12 has no name"):
        row_anf((0,) * 11 + (1,))
    with pytest.raises(DimMismatch, match="11 variables p..z"):
        matrix_anf(GF2Matrix.from_columns(1, [(0,)] * 11 + [(1,)]))
    assert anf.row_anf is row_anf and anf.matrix_anf is matrix_anf
