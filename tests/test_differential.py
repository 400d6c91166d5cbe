import itertools
import random

import pytest

from cayleydiff.cayley import cayley_graph, diff_space
from cayleydiff.differential import (
    DifferentialQuery,
    MapSpace,
    chain_rule_check,
    differential_oracle,
    differentials_at,
    differentials_by_theorem,
    t1_forces_value_check,
)
from cayleydiff.errors import DimMismatch, HypothesisViolated, NotCayley
from cayleydiff.groups import (
    GeneratingSet,
    cyclic_group,
    element_order,
    symmetric_group,
    z2_power_group,
)
from cayleydiff.spaces import (
    FiniteMap,
    continuous_maps,
    discrete_digraph,
    is_isolated,
    pentacle,
)


def _space(dom_group, dom_gens, cod_group, cod_gens):
    dom = cayley_graph(dom_group, GeneratingSet(dom_gens))
    cod = cayley_graph(cod_group, GeneratingSet(cod_gens))
    return diff_space(dom, cod)


@pytest.fixture(scope="module")
def z4_to_z2():
    return _space(cyclic_group(4), (1,), cyclic_group(2), (1,))


@pytest.fixture(scope="module")
def s3_to_s3():
    return _space(symmetric_group(3), (1, 3), symmetric_group(3), (1, 3))


def test_query_validation(z4_to_z2):
    with pytest.raises(DimMismatch):
        DifferentialQuery(z4_to_z2, FiniteMap(3, 2, (0, 0, 0)), 0)
    with pytest.raises(DimMismatch):
        DifferentialQuery(z4_to_z2, FiniteMap(4, 3, (0, 0, 0, 0)), 0)
    with pytest.raises(DimMismatch):
        DifferentialQuery(z4_to_z2, FiniteMap(4, 2, (0, 0, 0, 0)), 4)


def test_all_routes_agree_exhaustively(z4_to_z2):
    for values in itertools.product(range(2), repeat=4):
        f = FiniteMap(4, 2, values)
        for a in range(4):
            q = DifferentialQuery(z4_to_z2, f, a)
            got = differentials_at(q)
            assert got == differentials_by_theorem(q)
            assert got == differential_oracle(q)
            assert got == differential_oracle(q, literal=True)


def test_even_order_point_blocks_zero_differential(z4_to_z2):
    # f is identity-like on the window around 1 but nonzero at the
    # square 2, which every candidate map sends to the codomain identity
    f = FiniteMap(4, 2, (0, 1, 1, 0))
    q = DifferentialQuery(z4_to_z2, f, 1)
    assert differentials_at(q) == ()
    assert differentials_by_theorem(q) == ()
    assert differential_oracle(q) == ()
    assert differential_oracle(q, literal=True) == ()


def test_naive_odd_order_rule_would_be_wrong(z4_to_z2):
    # a tempting simplification: constant candidates only need values
    # in {identity} | order-2 generators, with the identity forced just
    # at points of odd order.  The point 2 in the window of 1 has even
    # order, so that rule admits the zero map here; the real criterion
    # (forcing on the whole subgroup generated by squares) refuses it.
    dom_group = cyclic_group(4)
    f = FiniteMap(4, 2, (0, 1, 1, 0))
    a = 1
    near = sorted(z4_to_z2.domain.nbhd[a])
    naive_ok = all(
        f.values[x] == 0
        if (x == 0 or element_order(dom_group, x) % 2 == 1)
        else f.values[x] in (0, 1)
        for x in near
    )
    assert naive_ok  # the simplification accepts the zero map ...
    q = DifferentialQuery(z4_to_z2, f, a)
    assert differential_oracle(q, literal=True) == ()  # ... wrongly


def test_isolated_member_requires_pointwise_agreement(s3_to_s3):
    ident_idx = next(
        i
        for i, m in enumerate(s3_to_s3.maps)
        if m.values == (0, 1, 2, 3, 4, 5)
    )
    assert is_isolated(s3_to_s3, ident_idx)
    a = 2
    near = sorted(s3_to_s3.domain.nbhd[a])
    # agree with the identity on N(a), arbitrary elsewhere
    values = [5, 4, 0, 3, 1, 2]
    for x in near:
        values[x] = x
    f = FiniteMap(6, 6, tuple(values))
    q = DifferentialQuery(s3_to_s3, f, a)
    assert ident_idx in differentials_at(q)
    # one disagreement inside the window removes it
    bump = [v for v in values]
    x0 = next(x for x in near if x != a)
    bump[x0] = (bump[x0] + 1) % 6
    q2 = DifferentialQuery(s3_to_s3, FiniteMap(6, 6, tuple(bump)), a)
    assert ident_idx not in differentials_at(q2)


def test_random_s3_queries_agree(s3_to_s3):
    rng = random.Random(33)
    for _ in range(300):
        f = FiniteMap(6, 6, tuple(rng.randrange(6) for _ in range(6)))
        a = rng.randrange(6)
        q = DifferentialQuery(s3_to_s3, f, a)
        got = differentials_at(q)
        assert got == differentials_by_theorem(q)
        assert got == differential_oracle(q)
        assert got == differential_oracle(q, literal=True)


def test_numpy_valued_function_agrees():
    # numpy scalars compare to ints with numpy booleans, not bool; a
    # fresh space, so no match mask was built from plain ints first
    np = pytest.importorskip("numpy")
    space = _space(symmetric_group(3), (1, 3), symmetric_group(3), (1, 3))
    rng = random.Random(34)
    for _ in range(20):
        values = tuple(np.array([rng.randrange(6) for _ in range(6)]))
        f, plain = FiniteMap(6, 6, values), FiniteMap(6, 6, tuple(map(int, values)))
        for a in range(6):
            got = differentials_at(DifferentialQuery(space, f, a))
            assert got == differential_oracle(DifferentialQuery(space, f, a))
            assert got == differentials_at(DifferentialQuery(space, plain, a))


def test_theorem_route_needs_cayley_structure():
    cube = cayley_graph(z2_power_group(2), GeneratingSet((1, 2))).digraph
    space = MapSpace.from_continuous_maps(cube, cube, continuous_maps(cube, cube))
    q = DifferentialQuery(space, FiniteMap.identity(4), 0)
    with pytest.raises(NotCayley):
        differentials_by_theorem(q)
    assert differentials_at(q) == differential_oracle(q)


def test_t1_check_rejects_non_t1_codomain(s3_to_s3):
    q = DifferentialQuery(s3_to_s3, FiniteMap.identity(6), 0)
    with pytest.raises(HypothesisViolated, match="codomain is not T1"):
        t1_forces_value_check(q)


def test_t1_check_on_discrete_codomain():
    dom = pentacle()
    cod = discrete_digraph(3)
    space = MapSpace.from_continuous_maps(
        dom, cod, continuous_maps(dom, cod)
    )
    rng = random.Random(7)
    for _ in range(50):
        f = FiniteMap(5, 3, tuple(rng.randrange(3) for _ in range(5)))
        assert t1_forces_value_check(
            DifferentialQuery(space, f, rng.randrange(5))
        )


def test_chain_rule_rejects_discontinuous_inner():
    z4_self = _space(cyclic_group(4), (1,), cyclic_group(4), (1,))
    # g jumps from 0 straight to 2, skipping the window of g(0)
    g = FiniteMap(4, 4, (0, 2, 0, 0))
    f = FiniteMap.identity(4)
    with pytest.raises(HypothesisViolated):
        chain_rule_check(f, g, 0, z4_self, z4_self, z4_self)


def test_chain_rule_on_homomorphisms():
    z4 = cayley_graph(cyclic_group(4), GeneratingSet((1,)))
    z2 = cayley_graph(cyclic_group(2), GeneratingSet((1,)))
    inner = diff_space(z4, z4)
    outer = diff_space(z4, z2)
    comp = diff_space(z4, z2)
    g = FiniteMap.identity(4)
    f = FiniteMap(4, 2, (0, 1, 0, 1))
    for a in range(4):
        report = chain_rule_check(f, g, a, outer, inner, comp)
        assert report.holds
        assert not report.missing_composites
        assert report.composite_differentials


def test_cyclic_line_differentials_follow_the_window_rule():
    # D(Z_N, Z_N), N >= 3, holds the zero map (index 0) and the identity
    # (index 1), both isolated; each is a differential of f at a exactly
    # when it agrees with f on N(a) = {a, a+1}
    checks = 0
    for n in (3, 4, 5):
        line = cayley_graph(cyclic_group(n), GeneratingSet((1,)))
        space = diff_space(line, line)
        for values in itertools.product(range(n), repeat=n):
            f = FiniteMap(n, n, values)
            for a in range(n):
                b = (a + 1) % n
                want = []
                if values[a] == values[b] == 0:
                    want.append(0)
                if values[a] == a and values[b] == b:
                    want.append(1)
                assert differentials_at(DifferentialQuery(space, f, a)) == tuple(want)
                checks += 1
    assert checks == 16_730


def test_oracle_literal_mode_sweeps_subsets(s3_to_s3):
    # a function whose differentials exist; both oracle modes agree
    f = FiniteMap(6, 6, (0, 0, 0, 3, 3, 3))
    for a in range(6):
        q = DifferentialQuery(s3_to_s3, f, a)
        assert differential_oracle(q) == differential_oracle(q, literal=True)
        assert differentials_at(q) != ()
