import itertools
import json
import random
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleydiff.errors import (
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotGenerating,
    Redundant,
    SizeGuardExceeded,
)
from cayleydiff.groups import (
    FiniteGroup,
    GeneratingSet,
    closure,
    cyclic_group,
    direct_sum,
    element_order,
    enumerate_homomorphisms,
    group_from_json,
    group_from_spec,
    group_from_table,
    group_to_json,
    squares_subgroup,
    symmetric_group,
    validate_generating_set,
    z2_power_group,
)
from cayleydiff.spaces import FiniteMap


def _perm_compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def test_s3_table_matches_permutation_composition():
    s3 = symmetric_group(3)
    # reconstruct the table from the named permutations and compare
    r = (1, 2, 0)
    t = (1, 0, 2)
    ident = (0, 1, 2)
    by_name = {
        "e": ident,
        "r": r,
        "r2": _perm_compose(r, r),
        "t": t,
        "tr": _perm_compose(t, r),
        "tr2": _perm_compose(t, _perm_compose(r, r)),
    }
    perms = [by_name[s3.names[i]] for i in range(6)]
    index = {p: i for i, p in enumerate(perms)}
    for a in range(6):
        for b in range(6):
            assert s3.table[a][b] == index[_perm_compose(perms[a], perms[b])]


def test_symmetric_group_orders():
    for n, order in ((1, 1), (2, 2), (3, 6), (4, 24)):
        assert symmetric_group(n).order == order
    with pytest.raises(MalformedTable):
        symmetric_group(6)


def _itemgetter_table(elems):
    """The table as ``symmetric_group`` once built it: column q holds
    ``itemgetter(*q)(p)`` = p*q for every p, one composition per entry."""
    if len(elems) == 1:  # itemgetter with one index returns a bare int
        return [[0]]
    index = {p: i for i, p in enumerate(elems)}
    columns = [[index[itemgetter(*q)(p)] for p in elems] for q in elems]
    return [list(row) for row in zip(*columns)]


# names of the group_from_spec("s:n") generators: the rotation i -> i+1
# and the swap of 0 and 1
SPEC_GENERATORS = {
    1: [], 2: ["10"], 3: ["r", "t"], 4: ["1023", "1230"], 5: ["10234", "12340"]
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetric_group_matches_composition_table(n):
    # the table as it was built before: one composition per entry
    if n == 3:
        r, t = (1, 2, 0), (1, 0, 2)
        r2 = _perm_compose(r, r)
        elems = [(0, 1, 2), r, r2, t, _perm_compose(t, r), _perm_compose(t, r2)]
        names = ["e", "r", "r2", "t", "tr", "tr2"]
    else:
        elems = sorted(itertools.permutations(range(n)))
        names = ["".join(map(str, p)) for p in elems]
    index = {p: i for i, p in enumerate(elems)}
    want = [[index[_perm_compose(p, q)] for q in elems] for p in elems]
    g = symmetric_group(n)
    assert [list(row) for row in g.table] == want
    assert [list(row) for row in g.table] == _itemgetter_table(elems)
    assert list(g.names) == names
    spec_group, gens = group_from_spec(f"s:{n}")
    assert spec_group == g and spec_group.names == g.names
    assert [g.names[i] for i in gens] == SPEC_GENERATORS[n]
    validated = group_from_table(g.table, g.names)
    assert validated == g and validated.names == g.names


def test_malformed_tables():
    with pytest.raises(MalformedTable):
        group_from_table([[0, 1], [1]])
    with pytest.raises(MalformedTable):
        group_from_table([[0, 2], [2, 0]])
    with pytest.raises(MalformedTable):
        group_from_table([])


def test_no_identity():
    # constant rows: no e with e*x = x for both columns
    with pytest.raises(NoIdentity):
        group_from_table([[1, 1], [0, 0]])


def test_no_inverse():
    # left-zero band on {0,1,2} with 0 tweaked to act as identity
    table = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
    with pytest.raises((NoInverse, NoIdentity)):
        group_from_table(table)


def test_not_associative_carries_real_triple():
    # a loop: identity and two-sided inverses present, associativity broken
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as exc_info:
        group_from_table(table)
    a, b, c = exc_info.value.triple
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_identity_relabeled_to_zero():
    # cyclic group of order 3 written with the identity at position 2
    rename = {0: 2, 1: 0, 2: 1}
    table = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            table[rename[i]][rename[j]] = rename[(i + j) % 3]
    g = group_from_table(table, names=["a", "b", "e"])
    assert g.identity == 0
    assert g.names[0] == "e"
    assert all(g.table[0][x] == x == g.table[x][0] for x in range(3))


def test_numpy_tables_give_plain_int_rows():
    z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    shifted = [[(i + j + 1) % 4 for j in range(4)] for i in range(4)]  # e = 3
    for table in (
        np.array(z4),
        [[np.int64(v) for v in row] for row in z4],
        np.array(shifted, dtype=np.int32),
    ):
        g = group_from_table(table)
        assert all(type(v) is int for row in g.table for v in row)
        json.dumps(group_to_json(g))
    assert group_from_table(np.array(z4)).table == cyclic_group(4).table
    bad = [[np.int64(v) for v in row] for row in z4]
    bad[1][2] = np.float64(bad[1][2])
    with pytest.raises(MalformedTable) as exc_info:
        group_from_table(bad)
    assert str(exc_info.value) == f"entry (1,2) = {bad[1][2]!r} outside 0..3"
    floats = np.array(z4, dtype=np.float64)
    with pytest.raises(MalformedTable) as exc_info:
        group_from_table(floats)
    assert str(exc_info.value) == f"entry (0,0) = {floats[0][0]!r} outside 0..3"


def test_group_guard():
    with pytest.raises(SizeGuardExceeded):
        cyclic_group(5000)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_properties(data):
    n = data.draw(st.sampled_from((2, 3, 4, 6, 8)))
    g = cyclic_group(n)
    seeds = data.draw(st.sets(st.integers(0, n - 1), max_size=3))
    result = closure(g, seeds)
    assert g.identity in result
    assert seeds <= result
    for a in result:
        for b in result:
            assert g.table[a][b] in result
    # minimality: the subgroup generated by any seed superset contains it
    assert result <= closure(g, set(seeds) | {g.identity})


def test_closure_examples():
    s3 = symmetric_group(3)
    assert closure(s3, {1, 3}) == frozenset(range(6))
    assert closure(s3, {1}) == frozenset({0, 1, 2})
    assert closure(s3, set()) == frozenset({0})
    z8 = cyclic_group(8)
    assert closure(z8, {2}) == frozenset({0, 2, 4, 6})


def test_validate_generating_set():
    s3 = symmetric_group(3)
    gens = validate_generating_set(s3, (1, 3))
    assert isinstance(gens, GeneratingSet)
    assert set(gens.elements) == {1, 3}

    with pytest.raises(NotGenerating) as exc_info:
        validate_generating_set(s3, (1,))
    assert set(exc_info.value.missing) == {3, 4, 5}

    with pytest.raises(Redundant):
        validate_generating_set(s3, (0, 1, 3))


def test_redundant_witness_word_evaluates_to_generator():
    z6 = cyclic_group(6)
    # 3 = 1+1+1 so {1, 3} is redundant
    with pytest.raises(Redundant) as exc_info:
        validate_generating_set(z6, (1, 3))
    err = exc_info.value
    acc = z6.identity
    for step in err.word:
        assert step != err.generator
        acc = z6.table[acc][step]
    assert acc == err.generator


def test_element_order():
    s3 = symmetric_group(3)
    assert element_order(s3, 0) == 1
    assert element_order(s3, 1) == 3
    assert element_order(s3, 3) == 2
    z12 = cyclic_group(12)
    assert element_order(z12, 1) == 12
    assert element_order(z12, 8) == 3


def test_squares_subgroup():
    assert squares_subgroup(symmetric_group(3)) == frozenset({0, 1, 2})
    assert squares_subgroup(cyclic_group(4)) == frozenset({0, 2})
    assert squares_subgroup(cyclic_group(5)) == frozenset(range(5))
    assert squares_subgroup(z2_power_group(3)) == frozenset({0})


def _brute_force_homs(g, h):
    out = []
    for values in itertools.product(range(h.order), repeat=g.order):
        if values[g.identity] != h.identity:
            continue
        if all(
            values[g.table[a][b]] == h.table[values[a]][values[b]]
            for a in range(g.order)
            for b in range(g.order)
        ):
            out.append(values)
    return sorted(out)


@pytest.mark.parametrize(
    "dom,cod",
    [
        ("cyclic:4", "cyclic:2"),
        ("cyclic:2", "cyclic:4"),
        ("cyclic:6", "s:3"),
        ("s:3", "cyclic:6"),
        ("z2^2", "cyclic:4"),
        ("z2^2", "z2^2"),
        ("s:3", "s:3"),
    ],
)
def test_hom_enumeration_matches_brute_force(dom, cod):
    g, _ = group_from_spec(dom)
    h, _ = group_from_spec(cod)
    fast = sorted(f.values for f in enumerate_homomorphisms(g, h))
    assert fast == _brute_force_homs(g, h)


def test_homs_are_finite_maps():
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    homs = enumerate_homomorphisms(z4, z2)
    assert all(isinstance(h, FiniteMap) for h in homs)
    assert sorted(h.values for h in homs) == [(0, 0, 0, 0), (0, 1, 0, 1)]


def test_direct_sum_is_cyclic_six():
    g = direct_sum(cyclic_group(2), cyclic_group(3))
    z6 = cyclic_group(6)
    assert g.order == 6
    census = sorted(element_order(g, x) for x in range(6))
    assert census == sorted(element_order(z6, x) for x in range(6))
    assert census == [1, 2, 3, 3, 6, 6]
    # abelian
    assert all(
        g.table[a][b] == g.table[b][a] for a in range(6) for b in range(6)
    )


def test_direct_sum_names():
    g = direct_sum(cyclic_group(2), cyclic_group(2))
    assert g.names[0] == "(0,0)"
    assert g.names[3] == "(1,1)"


def test_z2_power_group():
    g = z2_power_group(3)
    assert g.order == 8
    assert all(g.table[x][x] == 0 for x in range(8))
    assert g.table[3][5] == 6  # XOR
    assert g.names == ("000", "001", "010", "011", "100", "101", "110", "111")
    trivial = z2_power_group(0)
    assert (trivial.order, trivial.table) == (1, ((0,),))
    with pytest.raises(MalformedTable):
        z2_power_group(-1)


def test_constructors_pass_table_validation():
    # the constructors skip group_from_table; this is the check they skip
    groups = [cyclic_group(n) for n in range(1, 65)]
    groups += [z2_power_group(n) for n in range(9)]
    groups += [symmetric_group(n) for n in range(1, 6)]
    sums = [
        direct_sum(g, h) for g in groups for h in groups if g.order * h.order <= 128
    ]
    for g in groups + sums:
        back = group_from_table(g.table, names=g.names)
        assert back == g
        assert back.names == g.names


def test_group_from_spec():
    g, gens = group_from_spec("cyclic:6")
    assert g.order == 6 and gens == (1,)
    g, gens = group_from_spec("s:3")
    assert g.order == 6 and gens == (1, 3)
    g, gens = group_from_spec("z2^2")
    assert g.order == 4 and gens == (1, 2)
    canonical = [group_from_spec(f"s:{n}")[1] for n in range(1, 6)]
    assert canonical == [(), (1,), (1, 3), (6, 9), (24, 33)]
    with pytest.raises(MalformedTable):
        group_from_spec("dihedral:4")
    with pytest.raises(MalformedTable):
        group_from_spec("cyclic:x")


def test_json_round_trip():
    for spec in ("cyclic:5", "s:3", "z2^2"):
        g, _ = group_from_spec(spec)
        data = group_to_json(g)
        back = group_from_json(data)
        assert back.table == g.table
        assert back.names == g.names
    with pytest.raises(MalformedTable):
        group_from_json({"order": 3})
    with pytest.raises(MalformedTable):
        group_from_json({"order": 2, "table": [[0, 1]]})


def test_random_relabeled_cyclic_tables_validate():
    rng = random.Random(5)
    for n in (3, 4, 5, 6):
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[perm[i]][perm[j]] = perm[(i + j) % n]
        g = group_from_table(table)
        assert g.identity == 0
        assert sorted(element_order(g, x) for x in range(n)) == sorted(
            element_order(cyclic_group(n), x) for x in range(n)
        )
