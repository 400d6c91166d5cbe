"""Each fast path against the slow route it replaced, which is kept.

- ``enumerate_homomorphisms`` against ``_enumerate_homomorphisms_sweep``
- ``diff_space`` against its ``cross_check=True`` rebuild, and both
  against the full homomorphism sweep filtered by continuity
- ``group_from_table`` against the full associativity sweep (kept here
  as ``_reference_group_from_table``)
- ``differentials_at`` against ``differential_oracle`` and, on D(C,D),
  ``differentials_by_theorem``

and, as the ground for exhaustive checks over local functions, that
every classification route reads f only near the point and that the
Boolean answer permutes with the coordinates.  On that ground
``sweep_boolean_locals`` and ``sweep_cayley_locals`` run every route on
every function that is zero off the point's neighbourhood, a complete
check for each space and point they cover.  Tier 1 sweeps the small
cases; larger ones run through the same functions outside it, e.g.

    PYTHONPATH=src:tests python -c "import test_equivalence as t; t.sweep_boolean_locals(3, 3)"
"""

import functools
import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleydiff.boolean import (
    BoolFunction,
    boolean_differentials_at,
    is_differentiable_at,
    linear_map_space,
    solve_matrix_equation,
)
from cayleydiff.cayley import _diff_space_sweep, cayley_graph, diff_space
from cayleydiff.differential import (
    DifferentialQuery,
    differential_oracle,
    differentials_at,
    differentials_by_theorem,
)
from cayleydiff.groups import (
    _enumerate_homomorphisms_sweep,
    _greedy_generators,
    direct_sum,
    enumerate_homomorphisms,
    group_from_spec,
    group_from_table,
)
from cayleydiff.errors import (
    Error,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    SizeGuardExceeded,
)
from cayleydiff.gf2 import index_point, neighborhood_indices, point_index
from cayleydiff.spaces import (
    FiniteMap,
    MapSpace,
    ReflexiveDigraph,
    continuous_maps,
    hom_neighbor,
    is_continuous,
    is_isolated,
    pentacle,
)

# cyclic, symmetric, z2^k and direct sums, orders 1..48
SPECS = (
    "cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6", "cyclic:8",
    "cyclic:12", "s:3", "s:4", "z2^2", "z2^3", "z2^4", "z2^5",
    "cyclic:2+cyclic:4", "cyclic:2+s:3", "z2^2+cyclic:3", "s:3+s:3",
    "s:4+cyclic:2",
)


@functools.lru_cache(maxsize=None)
def build(spec):
    """Group and canonical generators; ``a+b`` is a direct sum."""
    first, *rest = spec.split("+")
    group, gens = group_from_spec(first)
    for part in rest:
        other, other_gens = group_from_spec(part)
        gens = tuple(g * other.order for g in gens) + other_gens
        group = direct_sum(group, other)
    return group, gens


@functools.lru_cache(maxsize=None)
def graph(spec):
    return cayley_graph(*build(spec))


def sweep_size(dom, cod):
    g, _ = build(dom)
    h, _ = build(cod)
    return h.order ** len(_greedy_generators(g.table, g.identity))


HOM_PAIRS = [(a, b) for a in SPECS for b in SPECS if sweep_size(a, b) <= 40_000]
DIFF_PAIRS = [(a, b) for a in SPECS for b in SPECS if sweep_size(a, b) <= 2_000]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(HOM_PAIRS))
def test_homomorphisms_match_full_sweep(pair):
    g, _ = build(pair[0])
    h, _ = build(pair[1])
    assert enumerate_homomorphisms(g, h) == _enumerate_homomorphisms_sweep(g, h)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DIFF_PAIRS))
def test_diff_space_matches_its_cross_check(pair):
    dom, cod = graph(pair[0]), graph(pair[1])
    fast = diff_space(dom, cod)
    checked = diff_space(dom, cod, cross_check=True)
    assert checked.maps == fast.maps
    assert checked.nbhd == fast.nbhd


# (spec, generators), with None for the canonical ones
ORACLE_GRAPHS = (
    ("cyclic:1", None), ("cyclic:4", None), ("cyclic:6", None),
    ("cyclic:6", (2, 3)), ("s:3", None), ("s:3", (3, 4)), ("z2^2", None),
    ("z2^2", (1, 3)), ("z2^3", None), ("cyclic:2+cyclic:4", None),
)
ORACLE_PAIRS = [
    (a, b) for a in ORACLE_GRAPHS for b in ORACLE_GRAPHS if sweep_size(a[0], b[0]) <= 5_000
]


@functools.lru_cache(maxsize=None)
def graph_on(spec, gens):
    group, canonical = build(spec)
    return cayley_graph(group, canonical if gens is None else gens)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_PAIRS))
def test_diff_space_oracle_matches_the_definition(pair):
    # fast route = the cross-check's oracle = every homomorphism of the
    # full sweep that is continuous, compared pairwise by hom_neighbor
    dom, cod = graph_on(*pair[0]), graph_on(*pair[1])
    fast = diff_space(dom, cod)
    oracle = _diff_space_sweep(dom, cod)
    maps = tuple(
        f
        for f in _enumerate_homomorphisms_sweep(dom.group, cod.group)
        if is_continuous(dom.digraph, cod.digraph, f)
    )
    nbhd = tuple(
        frozenset(
            j for j, g in enumerate(maps) if hom_neighbor(dom.digraph, cod.digraph, g, f)
        )
        for f in maps
    )
    assert fast.maps == oracle.maps == maps
    assert fast.nbhd == oracle.nbhd == nbhd


def test_oracle_pairs_cover_non_default_generators():
    assert (("cyclic:6", (2, 3)), ("z2^2", (1, 3))) in ORACLE_PAIRS
    assert (("s:3", (3, 4)), ("s:3", None)) in ORACLE_PAIRS


def test_pair_pools_reach_order_48():
    assert max(build(a)[0].order for a, _ in HOM_PAIRS) == 48
    assert max(build(b)[0].order for _, b in HOM_PAIRS) == 48
    assert max(build(a)[0].order for a, _ in DIFF_PAIRS) == 48


def test_s5_endomorphisms_within_default_guards():
    s5, _ = group_from_spec("s:5")
    # the full sweep needs 120^4 candidates
    with pytest.raises(SizeGuardExceeded):
        _enumerate_homomorphisms_sweep(s5, s5)
    homs = enumerate_homomorphisms(s5, s5)
    # trivial, 25 through the sign onto an element of order <= 2, 120
    # conjugations
    assert len(homs) == 146
    kernels = sorted(sum(v == 0 for v in phi.values) for phi in homs)
    assert kernels == [1] * 120 + [60] * 25 + [120]
    table = np.array(s5.table)
    for phi in homs:
        values = np.array(phi.values)
        assert (values[table] == table[values[:, None], values[None, :]]).all()


def test_b5_diff_space_within_default_guards():
    cube = graph("z2^5")
    space = diff_space(cube, cube)
    # a continuous homomorphism sends each basis vector to 0 or a basis
    # vector, independently
    assert len(space.maps) == 6**5
    want = []
    for code in itertools.product(range(6), repeat=5):
        cols = [0 if c == 0 else 1 << (c - 1) for c in code]
        bits = [[c for k, c in enumerate(cols) if x >> k & 1] for x in range(32)]
        want.append(tuple(functools.reduce(operator.xor, b, 0) for b in bits))
    assert [phi.values for phi in space.maps] == sorted(want)
    rng = random.Random(7)
    for i in rng.sample(range(len(space.maps)), 50):
        assert is_continuous(cube.digraph, cube.digraph, space.maps[i])
    # the zero map sees every map whose image is {0, d}; each such map
    # sees its 2^5 - 1 companions and the zero map
    assert len(space.nbhd[0]) == 1 + 5 * (2**5 - 1)
    singles = [i for i in range(len(space.maps)) if not is_isolated(space, i)]
    assert len(singles) == len(space.nbhd[0])
    assert all(len(space.nbhd[i]) == 2**5 for i in singles if i != 0)


# ------------------------------------------------------------ validation


def _reference_group_from_table(table, names=None):
    """Table validation with an element-wise range check and the full
    cubic associativity sweep."""
    n = len(table)
    if n == 0:
        raise MalformedTable("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, (int, np.integer)) or not 0 <= v < n:
                raise MalformedTable(f"entry ({i},{j}) = {v!r} outside 0..{n - 1}")
    if names is not None and len(names) != n:
        raise MalformedTable(f"{len(names)} names for {n} elements")
    t = np.array(table, dtype=np.int64)
    idx = np.arange(n)
    e = next(
        (c for c in range(n) if (t[c] == idx).all() and (t[:, c] == idx).all()), -1
    )
    if e < 0:
        raise NoIdentity("no two-sided identity element")
    for g in range(n):
        if not any(t[h, g] == e for h in np.flatnonzero(t[g] == e)):
            raise NoInverse(g)
    for a in range(n):
        lhs, rhs = t[t[a]], t[a][t]
        if not np.array_equal(lhs, rhs):
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            raise NotAssociative(a, b, c)
    perm = list(range(n))
    perm[0], perm[e] = e, 0
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[perm[a]][perm[b]] = perm[t[a][b]]
    if names is not None and e != 0:
        names = list(names)
        names[0], names[e] = names[e], names[0]
    return new, names


def _outcome(fn, table, names):
    try:
        result = fn(table, names)
    except Error as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return [list(r) for r in result[0]], result[1]
    return [list(r) for r in result.table], (
        list(result.names) if result.names is not None else None
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SPECS),
    st.randoms(use_true_random=False),
    st.sampled_from(("none", "in-range", "out-of-range", "float")),
)
def test_table_validation_matches_full_sweep(spec, rng, corruption):
    group, _ = build(spec)
    n = group.order
    perm = list(range(n))
    rng.shuffle(perm)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[group.table[a][b]]
    names = [f"x{perm.index(k)}" for k in range(n)]
    i, j = rng.randrange(n), rng.randrange(n)
    if corruption == "in-range":
        table[i][j] = rng.randrange(n)
    elif corruption == "out-of-range":
        table[i][j] = rng.choice((-1, n, n + 7))
    elif corruption == "float":
        table[i][j] = float(table[i][j])
    want = _outcome(_reference_group_from_table, table, names)
    assert _outcome(group_from_table, table, names) == want
    if corruption == "none":
        assert want[0] == [list(r) for r in group_from_table(table).table]


def test_in_range_corruptions_reach_the_associativity_check():
    group, _ = build("s:4")
    rng = random.Random(3)
    seen = set()
    for _ in range(40):
        table = [list(r) for r in group.table]
        i, j = rng.randrange(1, 24), rng.randrange(1, 24)
        table[i][j] = rng.randrange(24)
        want = _outcome(_reference_group_from_table, table, None)
        assert _outcome(group_from_table, table, None) == want
        seen.add(want[0] if isinstance(want[0], type) else "valid")
    assert NotAssociative in seen


# ------------------------------------------------------------ differentials


def _random_function(space, rng):
    """Random values, mostly the identity element 0, or a member of the
    space with a few values changed, so that every branch of the
    criterion (no match, isolated and non-isolated hits) is reached."""
    n, k = space.domain.size, space.codomain.size
    shape = rng.randrange(3)
    if shape == 0 or not space.maps:
        values = [rng.randrange(k) for _ in range(n)]
    elif shape == 1:
        values = [0 if rng.random() < 0.75 else rng.randrange(k) for _ in range(n)]
    else:
        values = list(rng.choice(space.maps).values)
        for x in rng.sample(range(n), rng.randrange(min(n, 3) + 1)):
            values[x] = rng.randrange(k)
    return FiniteMap(n, k, tuple(values))


def _check_every_point(space, f):
    for a in range(space.domain.size):
        q = DifferentialQuery(space, f, a)
        found = differentials_at(q)
        assert found == differential_oracle(q), (f.values, a)
        if space.cayley is not None:
            assert found == differentials_by_theorem(q), (f.values, a)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(DIFF_PAIRS), st.randoms(use_true_random=False))
def test_differentials_at_matches_oracle_and_theorem(pair, rng):
    space = diff_space(graph(pair[0]), graph(pair[1]))
    # the space keeps the masks and map shapes it derives, so several
    # functions share them
    for _ in range(3):
        _check_every_point(space, _random_function(space, rng))


@st.composite
def small_digraphs(draw):
    """Random reflexive digraphs on 1..3 vertices, or the pentacle; most
    neighbourhoods are not symmetric."""
    if draw(st.integers(0, 4)) == 0:
        return pentacle()
    n = draw(st.integers(1, 3))
    return ReflexiveDigraph(
        tuple(draw(st.frozensets(st.integers(0, n - 1))) | {v} for v in range(n))
    )


@functools.lru_cache(maxsize=None)
def _all_continuous_maps(dom, cod):
    return continuous_maps(dom, cod)


@settings(max_examples=150, deadline=None)
@given(small_digraphs(), small_digraphs(), st.randoms(use_true_random=False))
def test_differentials_at_matches_oracle_on_generic_spaces(dom, cod, rng):
    maps = _all_continuous_maps(dom, cod)
    if len(maps) > 40:  # keep from_continuous_maps' pair loop small
        maps = sorted(rng.sample(maps, 40), key=lambda m: m.values)
    elif maps and rng.random() < 0.5:  # a subset leaves more maps isolated
        maps = rng.sample(maps, rng.randrange(1, len(maps) + 1))
    space = MapSpace.from_continuous_maps(dom, cod, maps)
    for _ in range(3):
        _check_every_point(space, _random_function(space, rng))


# ------------------------------------------------------------- locality

# The first locality lemma: every route reads f only near the point, on
# N(a) for the Cayley routes and on the Hamming ball of b for the Boolean
# ones, so drawing f again everywhere else changes no route's answer.

LOCALITY_PAIRS = (
    (("s:3", None), ("s:3", None)),
    (("z2^2", None), ("cyclic:4", None)),
    (("cyclic:6", (2, 3)), ("z2^2", None)),
)


def _redrawn_off(values, keep, k, rng):
    """``values`` with every entry at an index outside ``keep`` drawn
    again from ``range(k)``."""
    return tuple(v if x in keep else rng.randrange(k) for x, v in enumerate(values))


@pytest.mark.parametrize(
    "pair", LOCALITY_PAIRS, ids=lambda p: f"{p[0][0]}{p[0][1] or ''}->{p[1][0]}"
)
def test_cayley_routes_read_f_only_near_the_point(pair):
    rng = random.Random(str(pair))
    space = diff_space(graph_on(*pair[0]), graph_on(*pair[1]))
    n, k = space.domain.size, space.codomain.size
    for a in range(n):
        for _ in range(6):
            f = _random_function(space, rng)
            g = FiniteMap(n, k, _redrawn_off(f.values, space.domain.nbhd[a], k, rng))
            for route in (differentials_at, differentials_by_theorem, differential_oracle):
                got = route(DifferentialQuery(space, g, a))
                assert got == route(DifferentialQuery(space, f, a)), (route, f, g, a)


def _random_bool_values(m, n, rng):
    """Point indices of a random f from the m-cube to the n-cube: uniform,
    of weight <= 1, or a continuous linear map with a few values changed,
    so that every shape of the classification is reached."""
    shape = rng.randrange(3)
    if shape == 0:
        return [rng.randrange(2**n) for _ in range(2**m)]
    if shape == 1:
        return [rng.choice([0] + [1 << i for i in range(n)]) for _ in range(2**m)]
    # column j is zero or a unit vector; input bit j is index bit m - 1 - j
    cols = [rng.choice([0] + [1 << i for i in range(n)]) for _ in range(m)]
    values = [
        functools.reduce(operator.xor, (c for j, c in enumerate(cols) if x >> (m - 1 - j) & 1), 0)
        for x in range(2**m)
    ]
    for x in rng.sample(range(2**m), rng.randrange(3)):
        values[x] = rng.randrange(2**n)
    return values


@pytest.mark.parametrize("m", range(1, 6))
def test_boolean_routes_read_f_only_on_the_ball(m):
    rng = random.Random(m)
    for n in range(1, 4):
        for b in range(2**m):
            ball = set(neighborhood_indices(b, m))
            for _ in range(4):
                values = _random_bool_values(m, n, rng)
                f, g = (
                    BoolFunction(m, n, tuple(index_point(v, n) for v in vals))
                    for vals in (values, _redrawn_off(values, ball, 2**n, rng))
                )
                for route in (boolean_differentials_at, is_differentiable_at, solve_matrix_equation):
                    assert route(g, b) == route(f, b), (route, f, g, b)


# The second lemma: permuting the coordinates permutes the Boolean
# answer.  With y[p[j]] = x[j] and g(y) = f(x), the differentials of g at
# p(b) are those of f at b with column j moved to column p[j], so the
# points 1^k 0^(m-k) stand for every point of their weight.


@pytest.mark.parametrize("m", range(1, 5))
def test_boolean_answer_permutes_with_the_coordinates(m):
    rng = random.Random(m)
    for n in range(1, 4):
        for _ in range(3):
            f = BoolFunction(m, n, tuple(index_point(v, n) for v in _random_bool_values(m, n, rng)))
            for p in itertools.permutations(range(m)):
                inv = [p.index(k) for k in range(m)]
                moved = [point_index(tuple(index_point(x, m)[i] for i in inv)) for x in range(2**m)]
                table = [None] * 2**m
                for x, y in enumerate(moved):
                    table[y] = f.table[x]
                g = BoolFunction(m, n, tuple(table))
                for b in range(2**m):
                    want = sorted(
                        tuple(tuple(row[i] for i in inv) for row in mt.bits)
                        for mt in boolean_differentials_at(f, b)
                    )
                    assert [mt.bits for mt in boolean_differentials_at(g, moved[b])] == want


def _zero_off(size, near, vals):
    """The value tuple that is ``vals`` on ``near``, in order, and 0 elsewhere."""
    values = [0] * size
    for x, v in zip(near, vals):
        values[x] = v
    return tuple(values)


def sweep_boolean_locals(m, n, points=None):
    """Run every Boolean route on every f from the m-cube to the n-cube
    that is zero off the Hamming ball of b, at each of ``points`` (every
    point by default).  The code sweep, the generic criterion and the
    theorem route on ``linear_map_space(m, n)`` must give the same
    differentials, and ``is_differentiable_at`` says whether there are
    any.  Returns the number of (f, b) cases."""
    matrices, space = linear_map_space(m, n)
    index_of = {mt.bits: i for i, mt in enumerate(matrices)}
    cases = 0
    for b in range(2**m) if points is None else points:
        ball = neighborhood_indices(b, m)
        for vals in itertools.product(range(2**n), repeat=len(ball)):
            values = _zero_off(2**m, ball, vals)
            f = BoolFunction(m, n, tuple(index_point(v, n) for v in values))
            found = tuple(sorted(index_of[mt.bits] for mt in boolean_differentials_at(f, b)))
            q = DifferentialQuery(space, FiniteMap(2**m, 2**n, values), b)
            assert differentials_at(q) == differentials_by_theorem(q) == found, (values, b)
            assert is_differentiable_at(f, b) == bool(found), (values, b)
            cases += 1
    return cases


def sweep_cayley_locals(dom, cod):
    """Run every Cayley route on every f that is zero off N(a), at every
    point a of D(dom, cod); ``dom`` and ``cod`` are (spec, generators)
    as in ``graph_on``.  ``differentials_at``, ``differentials_by_theorem``
    and ``differential_oracle`` must agree.  Returns the number of (f, a)
    cases."""
    space = diff_space(graph_on(*dom), graph_on(*cod))
    n, k = space.domain.size, space.codomain.size
    cases = 0
    for a in range(n):
        near = sorted(space.domain.nbhd[a])
        for vals in itertools.product(range(k), repeat=len(near)):
            q = DifferentialQuery(space, FiniteMap(n, k, _zero_off(n, near, vals)), a)
            found = differentials_at(q)
            assert differentials_by_theorem(q) == differential_oracle(q) == found, (q.f, a)
            cases += 1
    return cases


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (2, 3)])
def test_boolean_routes_agree_on_every_local_function(m, n):
    assert sweep_boolean_locals(m, n) == 2**m * 2 ** (n * (m + 1))


@pytest.mark.parametrize(
    "pair",
    LOCALITY_PAIRS + ((("s:3", None), ("z2^2", None)),),
    ids=lambda p: f"{p[0][0]}{p[0][1] or ''}->{p[1][0]}",
)
def test_cayley_routes_agree_on_every_local_function(pair):
    dom, cod = graph_on(*pair[0]), graph_on(*pair[1])
    n, k = dom.group.order, cod.group.order
    assert sweep_cayley_locals(*pair) == sum(k ** len(dom.digraph.nbhd[a]) for a in range(n))
