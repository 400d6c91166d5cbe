"""Finite groups as validated multiplication tables.

Elements are indices ``0..order-1`` with the identity always at index 0;
``table[a][b]`` is the product a*b.  Tables from files, JSON or user code
go through ``group_from_table``, which checks the group axioms
(associativity by Light's test over a generating set) and relabels the
identity to 0 if needed; the named constructors build groups by
construction and skip it.  Tables hold at most a few thousand entries
per row, so all of it is plain Python over row tuples: whole rows are
compared and permuted with ``==`` and ``operator.itemgetter``, which run
in C.  Optional names are display-only and never affect equality.

Homomorphisms are enumerated by sweeping generator images, each limited
to the allowed elements whose order divides the generator's, and
extending them along a spanning tree of the Cayley graph.  The plain
sweep over all |H|^k images is kept as the tests' oracle for
:func:`enumerate_homomorphisms`; the D(C,D) oracle of
:func:`cayleydiff.cayley.diff_space` extends its candidates along the
BFS words of :func:`_closure_words` instead.
"""

from __future__ import annotations

import itertools
import math
import operator
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from . import guards
from .errors import (
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotGenerating,
    Record,
    Redundant,
)
from .spaces import FiniteMap

__all__ = [
    "FiniteGroup",
    "GeneratingSet",
    "group_from_table",
    "cyclic_group",
    "symmetric_group",
    "z2_power_group",
    "direct_sum",
    "group_from_spec",
    "closure",
    "validate_generating_set",
    "element_order",
    "squares_subgroup",
    "enumerate_homomorphisms",
    "group_to_json",
    "group_from_json",
]


class FiniteGroup(Record):
    """Immutable multiplication table; identity at index 0.

    :func:`group_from_table` validates the axioms; the named constructors
    and direct construction do not.  ``names`` are display-only: equality
    and hashing ignore them.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int = 0
    names: tuple[str, ...] | None = None
    _compared = ("order", "table", "identity")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def name_of(self, g: int) -> str:
        return self.names[g] if self.names else str(g)


class GeneratingSet(Record):
    """Validated non-redundant generating set, stored sorted."""

    elements: tuple[int, ...]


def group_from_table(
    table: Sequence[Sequence[int]], names: Sequence[str] | None = None
) -> FiniteGroup:
    """Validate a multiplication table and normalize the identity to 0.

    Checks, in order: shape and entry range, existence of a two-sided
    identity, two-sided inverses, associativity.  Each failure names the
    first violating element or triple.  Associativity uses Light's test:
    (x*a)*y = x*(a*y) for every a in a generating set implies it for
    every a (Clifford & Preston, Algebraic Theory of Semigroups I,
    section 1.2), so the cubic sweep runs only to name a failure.
    """
    n = len(table)
    if n == 0:
        raise MalformedTable("empty table")
    guards.check("group_order", n, f"group of order {n}")
    rows = _int_table(table, n)
    if names is not None and len(names) != n:
        raise MalformedTable(f"{len(names)} names for {n} elements")

    idx = tuple(range(n))
    e = next(
        (c for c in range(n) if rows[c] == idx and tuple(r[c] for r in rows) == idx),
        -1,
    )
    if e < 0:
        raise NoIdentity("no two-sided identity element")

    for g, row in enumerate(rows):
        h = -1
        while True:
            try:
                h = row.index(e, h + 1)
            except ValueError:
                raise NoInverse(g) from None
            if rows[h][g] == e:
                break

    for a in _greedy_generators(rows, e):
        # (x*a)*y = x*(a*y) for all y, one row x at a time; a exists only
        # when n >= 2, so itemgetter returns a tuple
        a_times = itemgetter(*rows[a])
        if any(rows[row[a]] != a_times(row) for row in rows):
            _raise_first_non_associative(rows)

    if e != 0:
        perm = list(idx)
        perm[0], perm[e] = e, 0  # swap labels 0 and e; perm is its own inverse
        relabel = itemgetter(*perm)
        # new[x][y] = perm[old[perm[x]][perm[y]]]
        rows = [itemgetter(*relabel(rows[p]))(perm) for p in perm]
        if names is not None:
            names = list(names)
            names[0], names[e] = names[e], names[0]

    return FiniteGroup(
        order=n,
        table=tuple(rows),
        names=tuple(names) if names is not None else None,
    )


def _int_table(table: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """The rows as tuples of plain ints, after the shape and entry-range
    checks.

    Each row is checked by its length, ``operator.index`` of its entries
    (integer types only) and its min/max; the element-wise loop runs
    only when a check fails, to name the first bad row or entry.
    """
    rows = []
    try:
        for row in table:
            r = tuple(map(operator.index, row))
            if len(r) != n or min(r) < 0 or max(r) >= n:
                break
            rows.append(r)
    except TypeError:
        pass
    if len(rows) == n:
        return rows
    for i, row in enumerate(table):
        if not hasattr(row, "__len__"):
            raise MalformedTable(f"row {i} = {row!r} is not a sequence")
        if len(row) != n:
            raise MalformedTable(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not _is_index(v) or not 0 <= v < n:
                raise MalformedTable(f"entry ({i},{j}) = {v!r} outside 0..{n - 1}")
    return [tuple(map(operator.index, row)) for row in table]


def _is_index(v) -> bool:
    try:
        operator.index(v)
    except TypeError:
        return False
    return True


def _raise_first_non_associative(rows: Sequence[tuple[int, ...]]) -> None:
    """Raise :class:`NotAssociative` for the first failing triple in
    lexicographic order (the full cubic sweep).  Needs n >= 2."""
    times = [itemgetter(*row) for row in rows]  # times[b](r)[c] = r[b*c]
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            lhs = rows[ab]           # lhs[c] = (a*b)*c
            rhs = times[b](row_a)    # rhs[c] = a*(b*c)
            if lhs != rhs:
                c = next(c for c in range(len(rows)) if lhs[c] != rhs[c])
                raise NotAssociative(a, b, c)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise MalformedTable(f"cyclic group needs order >= 1, got {n}")
    guards.check("group_order", n, f"cyclic group of order {n}")
    row = tuple(range(n))
    table = tuple(row[i:] + row[:i] for i in range(n))  # (i + j) % n
    return FiniteGroup(n, table, names=tuple(map(str, row)))


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group on n symbols, n <= 5.

    The product p*q applies q first: (p*q)(i) = p(q(i)).  For n = 3 the
    elements are ordered e, r, r2, t, tr, tr2 with r the 3-cycle and t
    the swap of 0 and 1, matching the usual rotation/reflection
    presentation; larger n uses lexicographic one-line order with
    one-line names.

    The table is built from the n - 1 adjacent transpositions s, which
    generate S_n.  ``left[s]`` is the index permutation x -> s*x, one
    composition per element.  Row s*p is then row p with ``left[s]``
    applied to every entry, since (s*p)*q = s*(p*q), so a breadth-first
    walk from the identity row fills the table one whole-row
    ``itemgetter`` at a time.
    """
    if not 1 <= n <= 5:
        raise MalformedTable(f"symmetric group supported for 1 <= n <= 5, got {n}")
    guards.check("group_order", math.factorial(n), f"symmetric group S{n}")
    if n == 1:
        # itemgetter with one index returns a bare int, not a permutation
        return FiniteGroup(1, ((0,),), names=("0",))
    if n == 3:
        elems = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
        names = ("e", "r", "r2", "t", "tr", "tr2")
    else:
        elems = sorted(itertools.permutations(range(n)))
        names = tuple("".join(map(str, p)) for p in elems)
    index = {p: i for i, p in enumerate(elems)}
    after = [itemgetter(*x) for x in elems]  # after[x](s) = s*x
    lefts = []
    for k in range(n - 1):
        s = list(range(n))
        s[k], s[k + 1] = k + 1, k
        lefts.append(tuple(index[x(s)] for x in after))
    # both element orders start with the identity
    rows: list = [None] * len(elems)
    rows[0] = tuple(range(len(elems)))
    frontier = [0]
    while frontier:
        reached = []
        for p in frontier:
            apply_row_p = itemgetter(*rows[p])  # apply_row_p(left) = row s*p
            for left in lefts:
                sp = left[p]
                if rows[sp] is None:
                    rows[sp] = apply_row_p(left)
                    reached.append(sp)
        frontier = reached
    return FiniteGroup(len(elems), tuple(rows), names=names)


def z2_power_group(n: int) -> FiniteGroup:
    """Direct power of the order-2 group; element index = bit vector.

    ``n = 0`` gives the order-1 group, the carrier of the 0-cube.  Row
    i XOR 2^k is row i permuted, so all rows share row 0's ints."""
    if n < 0:
        raise MalformedTable(f"z2 power needs n >= 0, got {n}")
    size = 2**n
    guards.check("group_order", size, f"z2^{n}")
    rows = [tuple(range(size))]
    for k in range(n):
        rows += list(map(itemgetter(*(j ^ 2**k for j in range(size))), rows))
    names = tuple(format(i, f"0{n}b") for i in range(size))
    return FiniteGroup(size, tuple(rows), names=names)


def direct_sum(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct sum with pair index (a, b) -> a * |H| + b."""
    order = g.order * h.order
    guards.check("group_order", order, "direct sum")
    hs = h.order
    table = tuple(
        tuple(ga * hs + hb for ga in row_g for hb in row_h)
        for row_g in g.table
        for row_h in h.table
    )
    names = tuple(
        f"({g.name_of(a)},{h.name_of(b)})" for a in range(g.order) for b in range(hs)
    )
    return FiniteGroup(order, table, names=names)


def group_from_spec(spec: str) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Parse a group spec string; returns the group and canonical generators.

    Accepted forms: ``cyclic:N``, ``s:N``, ``z2^N``.
    """
    if spec.startswith("cyclic:"):
        n = _spec_int(spec, "cyclic:")
        group = cyclic_group(n)
        return group, (1,) if n > 1 else ()
    if spec.startswith("s:"):
        n = _spec_int(spec, "s:")
        group = symmetric_group(n)
        # the rotation i -> i+1 and the swap of 0 and 1, found by name
        rest = "".join(map(str, range(2, n)))
        gens = ("r", "t") if n == 3 else ("1" + rest + "0", "10" + rest)
        return group, tuple(i for i, x in enumerate(group.names) if x in gens)
    if spec.startswith("z2^"):
        n = _spec_int(spec, "z2^")
        group = z2_power_group(n)
        return group, tuple(2**k for k in range(n))
    raise MalformedTable(f"unknown group spec {spec!r}")


def _spec_int(spec: str, prefix: str) -> int:
    try:
        return int(spec[len(prefix):])
    except ValueError:
        raise MalformedTable(f"bad number in group spec {spec!r}")


def _closure_words(
    group: FiniteGroup, seeds: Iterable[int]
) -> dict[int, tuple[int, ...]]:
    """Breadth-first saturation; maps each reachable element to a word.

    Words are tuples of seed elements whose left-to-right product gives
    the element; the identity gets the empty word.
    """
    seeds = sorted(set(seeds))
    words: dict[int, tuple[int, ...]] = {group.identity: ()}
    for s in seeds:
        words.setdefault(s, (s,))
    frontier = list(words)
    table = group.table
    while frontier:
        nxt = []
        for x in frontier:
            wx = words[x]
            for s in seeds:
                y = table[x][s]
                if y not in words:
                    words[y] = wx + (s,)
                    nxt.append(y)
        frontier = nxt
    return words


def closure(group: FiniteGroup, seeds: Iterable[int]) -> frozenset[int]:
    """Smallest subset containing the seeds and the identity, closed
    under the product."""
    return frozenset(_closure_words(group, seeds))


def validate_generating_set(group: FiniteGroup, elements: Iterable[int]) -> GeneratingSet:
    """Check that the set generates and no member is a product of the others.

    The identity is rejected as trivially redundant (empty word).  A
    redundant generator comes with a witness word over the remaining
    generators.
    """
    elems = sorted(set(elements))
    for g in elems:
        if not 0 <= g < group.order:
            raise MalformedTable(f"generator {g} outside 0..{group.order - 1}")
    if group.identity in elems:
        raise Redundant(group.identity, ())
    reached = closure(group, elems)
    if len(reached) != group.order:
        missing = tuple(sorted(set(range(group.order)) - reached))
        raise NotGenerating(missing)
    for g in elems:
        rest = [x for x in elems if x != g]
        words = _closure_words(group, rest)
        if g in words:
            raise Redundant(g, words[g])
    return GeneratingSet(tuple(elems))


def element_order(group: FiniteGroup, g: int) -> int:
    k = 1
    acc = g
    while acc != group.identity:
        acc = group.table[acc][g]
        k += 1
    return k


def squares_subgroup(group: FiniteGroup) -> frozenset[int]:
    """Subgroup generated by all squares.

    Every homomorphism into an order-2 subgroup kills exactly this set,
    which is what the differential classification needs.
    """
    return closure(group, {group.table[g][g] for g in range(group.order)})


def _greedy_generators(table: Sequence[Sequence[int]], e: int) -> list[int]:
    """Elements a_1, a_2, ... such that every element is e*a_i*a_j*...
    multiplied left to right; each is the least element not reached yet.

    Only the identity e is assumed, so table validation can use it
    before associativity is known.
    """
    seen = {e}
    gens: list[int] = []
    for cand in range(len(table)):
        if len(seen) == len(table):
            break
        if cand in seen:
            continue
        gens.append(cand)
        queue = [table[x][cand] for x in seen]
        while queue:
            y = queue.pop()
            if y not in seen:
                seen.add(y)
                queue.extend(table[y][s] for s in gens)
    return gens


def enumerate_homomorphisms(g: FiniteGroup, h: FiniteGroup) -> tuple[FiniteMap, ...]:
    """All group homomorphisms g -> h, sorted by value tuple.

    Each greedy generator of g may map to any element of h whose order
    divides its own; :func:`_homs_along_tree` extends and checks each
    candidate.
    """
    gens = _greedy_generators(g.table, g.identity)
    return _homs_along_tree(g, h, gens, range(h.order))


def _homs_along_tree(
    g: FiniteGroup, h: FiniteGroup, gens: Sequence[int], choices: Iterable[int]
) -> tuple[FiniteMap, ...]:
    """Homomorphisms g -> h sending every generator into ``choices``,
    sorted by value tuple.  ``gens`` must generate g.

    A breadth-first spanning tree of the Cayley graph of (g, gens) is
    grown one generator at a time: stage i takes the edges x -> x*gens[i]
    out of the elements reached so far, then every edge out of the
    elements newly reached.  Generator i may map to the elements of
    ``choices`` whose order divides its own.  A candidate fixes the
    images stage by stage; tree edges define phi(x*s) = phi(x)*phi(s)
    and every other edge must satisfy it.  Once every edge x -> x*s
    does, phi(ab) = phi(a)phi(b) follows by induction on the length of
    a word for b, so no candidate needs the full identity checked.  A
    failing stage discards every candidate with the same earlier images.
    """
    tg, th = g.table, h.table
    order_of = {c: element_order(h, c) for c in choices}
    options = []
    for s in gens:
        k = element_order(g, s)
        options.append([c for c, kc in order_of.items() if k % kc == 0])
    guards.check(
        "hom_candidates", math.prod(map(len, options)), "homomorphism enumeration"
    )

    seen = [False] * g.order
    seen[g.identity] = True
    reached = [g.identity]
    stages = []  # per generator: (tree edges, closing edges) as (x, j, x*gens[j])
    for i in range(len(gens)):
        tree, closing = [], []
        queue = [(x, (i,)) for x in reached]
        for x, js in queue:
            for j in js:
                y = tg[x][gens[j]]
                if seen[y]:
                    closing.append((x, j, y))
                else:
                    seen[y] = True
                    reached.append(y)
                    queue.append((y, range(i + 1)))
                    tree.append((x, j, y))
        stages.append((tree, closing))
    if len(reached) != g.order:
        raise NotGenerating(tuple(x for x in range(g.order) if not seen[x]))

    out: list[tuple[int, ...]] = []
    phi = [h.identity] * g.order
    _extend_stages(0, stages, options, th, phi, [h.identity] * len(gens), out)
    out.sort()
    return FiniteMap._trusted(g.order, h.order, out)


def _extend_stages(
    i: int,
    stages: list[tuple[list, list]],
    options: list[list[int]],
    th: tuple[tuple[int, ...], ...],
    phi: list[int],
    images: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Try every image of generator i given images[:i]; append each phi
    that passes the last stage to ``out``."""
    if i == len(stages):
        out.append(tuple(phi))
        return
    tree, closing = stages[i]
    for img in options[i]:
        images[i] = img
        for x, j, y in tree:
            phi[y] = th[phi[x]][images[j]]
        for x, j, y in closing:
            if phi[y] != th[phi[x]][images[j]]:
                break
        else:
            _extend_stages(i + 1, stages, options, th, phi, images, out)


def _enumerate_homomorphisms_sweep(
    g: FiniteGroup, h: FiniteGroup
) -> tuple[FiniteMap, ...]:
    """Oracle for :func:`enumerate_homomorphisms`: sweep all |h|^k images
    of the k greedy generators, extend each along products, and verify
    every survivor against the full defining identity."""
    gens = _greedy_generators(g.table, g.identity)
    guards.check(
        "hom_candidates", h.order ** len(gens), "homomorphism enumeration"
    )
    tg, th = g.table, h.table
    out = []
    for images in itertools.product(range(h.order), repeat=len(gens)):
        phi = [-1] * g.order
        phi[g.identity] = h.identity
        queue = [g.identity]
        ok = True
        while queue and ok:
            x = queue.pop()
            px = phi[x]
            for gen, img in zip(gens, images):
                y = tg[x][gen]
                py = th[px][img]
                if phi[y] < 0:
                    phi[y] = py
                    queue.append(y)
                elif phi[y] != py:
                    ok = False
                    break
        if not ok:
            continue
        for a in range(g.order):
            pa = phi[a]
            ra = tg[a]
            for b in range(g.order):
                if phi[ra[b]] != th[pa][phi[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(phi))
    out.sort()
    return tuple(FiniteMap(g.order, h.order, v) for v in out)


def group_to_json(group: FiniteGroup) -> dict:
    data: dict = {"order": group.order, "table": [list(r) for r in group.table]}
    if group.names is not None:
        data["names"] = list(group.names)
    return data


def group_from_json(data: Mapping) -> FiniteGroup:
    try:
        order = data["order"]
        table = list(data["table"])
        names = data.get("names")
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"group JSON field missing or not a list: {exc}")
    if names is not None and (
        not isinstance(names, (list, tuple)) or not all(isinstance(x, str) for x in names)
    ):
        raise MalformedTable(f"group JSON names must be a list of strings, got {names!r:.60}")
    if order != len(table):
        raise MalformedTable(f"order {order} does not match table of size {len(table)}")
    return group_from_table(table, names=names)
