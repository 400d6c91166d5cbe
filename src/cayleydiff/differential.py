"""Differentials of arbitrary maps at a point.

A map L in a space of continuous maps is a differential of f at a when
every x in the smallest neighborhood of a has a witness k in the
smallest neighborhood of L with k(x) = f(x).  On finite carriers this
single check is equivalent to the full filter-quantifier definition,
because principal filters are determined by their minimal sets.

The space of candidate maps is a :class:`~cayleydiff.spaces.MapSpace`.
Three independent routes are provided: the neighborhood-matching
criterion (:func:`differentials_at`), a classification by the shape of
L for map spaces that carry their Cayley graphs, such as
D(C, D) from :func:`~cayleydiff.cayley.diff_space`
(:func:`differentials_by_theorem`), and a naive oracle with an optional
literal sweep over all principal filters at the point
(:func:`differential_oracle`).
"""

from __future__ import annotations

import itertools

from . import guards
from .cayley import _order2_generators
from .errors import DimMismatch, HypothesisViolated, NotCayley, Record
from .groups import squares_subgroup
from .spaces import (
    FiniteMap,
    MapSpace,
    is_continuous_at,
    is_isolated,
    space_properties,
)

__all__ = [
    "MapSpace",
    "DifferentialQuery",
    "differentials_at",
    "differentials_by_theorem",
    "differential_oracle",
    "t1_forces_value_check",
    "ChainRuleReport",
    "chain_rule_check",
]


class DifferentialQuery(Record):
    space: MapSpace
    f: FiniteMap
    a: int

    def _validate(self) -> None:
        space, f, a = self.space, self.f, self.a
        n = space.domain.size
        if f.dom_size != n:
            raise DimMismatch(f"function domain {f.dom_size} != space domain {n}")
        if f.cod_size != space.codomain.size:
            raise DimMismatch(
                f"function codomain {f.cod_size} != space codomain {space.codomain.size}"
            )
        if not 0 <= a < n:
            raise DimMismatch(f"point {a} outside the domain carrier")


def differentials_at(q: DifferentialQuery) -> tuple[int, ...]:
    """Indices of all differentials of f at a, sorted ascending.

    Uses bitmask intersection over map indices: for each x near a, the
    maps that agree with f at x form a match mask, and L qualifies when
    every match mask meets N(L).  The masks come from state the space
    derives once and keeps: the neighbourhood masks, and the match mask
    of each (x, value) pair, built the first time it is asked for.  A
    point with an empty match mask rules out every L at once, and an
    isolated L (N(L) = {L}) qualifies exactly when its bit survives the
    AND of all match masks.
    """
    space = q.space
    fv = q.f.values
    matches = []
    common = -1  # every bit set
    for x in space.domain.nbhd[q.a]:
        mask = space._match_mask(x, fv[x])
        if not mask:
            return ()
        matches.append(mask)
        common &= mask
    isolated, others = space._nbhd_masks
    out = [i for i, nb in others if all(nb & mm for mm in matches)]
    hits = common & isolated
    while hits:
        low = hits & -hits
        out.append(low.bit_length() - 1)
        hits ^= low
    out.sort()
    return tuple(out)


def differentials_by_theorem(q: DifferentialQuery) -> tuple[int, ...]:
    """Differentials computed by classifying each candidate map.

    Needs the space's Cayley payload (raises :class:`NotCayley` when it
    is ``None``).  The classification:

    * isolated L: f must agree with L on the whole neighborhood of a;
    * non-isolated constant L: every value of f near a is the identity
      or an order-2 generator of the codomain, and points of N(a) lying
      in the subgroup generated by squares must map to the identity;
    * non-isolated non-constant L: the image of L is {identity, d} for
      an order-2 generator d, every value of f near a lies in that
      image, and the squares-subgroup points again force the identity.

    The squares subgroup is exactly the common kernel of all
    homomorphisms onto an order-2 subgroup, so it marks the points
    where no neighbor of L can produce a non-identity value.

    The shape of every map and the squares subgroup are derived once per
    space (:func:`_theorem_shapes`), so each call runs the isolated
    tests, and the constant and pair tests once per shape.
    """
    if q.space.cayley is None:
        raise NotCayley("theorem route needs a diff space built from Cayley graphs")
    e_h, forced, allowed, isolated, constant, pairs = q.space._derive(
        "theorem_shapes", _theorem_shapes
    )
    near = q.space.domain.nbhd[q.a]
    fv = q.f.values

    out = [i for i, values in isolated if all(fv[x] == values[x] for x in near)]
    if all(fv[x] == e_h for x in near if x in forced):
        free = {fv[x] for x in near if x not in forced}
        if free <= allowed:
            out += constant
        for delta, members in pairs:
            if free <= {e_h, delta}:
                out += members
    out.sort()
    return tuple(out)


def _theorem_shapes(space: MapSpace) -> tuple:
    """What :func:`differentials_by_theorem` reads of a D(C, D), as
    ``(e, forced, allowed, isolated, constant, pairs)``:

    * ``e``, the identity of the codomain;
    * ``forced``, the squares subgroup of the domain group;
    * ``allowed``, the identity and the order-2 generators of the codomain;
    * ``isolated``, ``(i, values)`` for every isolated map;
    * ``constant``, the indices of the non-isolated constant maps;
    * ``pairs``, ``(d, indices)`` for the non-isolated maps with image
      {e, d}, one entry per d.
    """
    dom, cod = space.cayley
    e_h = cod.group.identity
    isolated, constant, pairs = [], [], {}
    for i, m in enumerate(space.maps):
        if is_isolated(space, i):
            isolated.append((i, m.values))
            continue
        image = m.image()
        if image == frozenset((e_h,)):
            constant.append(i)
        else:
            # non-isolated and non-constant: image must be a pair
            pairs.setdefault(next(iter(image - {e_h})), []).append(i)
    allowed = frozenset((e_h,)) | _order2_generators(cod)
    return (
        e_h,
        squares_subgroup(dom.group),
        allowed,
        tuple(isolated),
        tuple(constant),
        tuple(pairs.items()),
    )


def differential_oracle(q: DifferentialQuery, *, literal: bool = False) -> tuple[int, ...]:
    """Slow reference implementation by direct search.

    Default mode checks the smallest-neighborhood reduction with plain
    loops.  ``literal`` additionally sweeps every principal filter
    converging to a (every nonempty subset of N(a)); the per-point
    witness search is shared, the quantifier structure is executed in
    full.
    """
    maps = q.space.maps
    near = sorted(q.space.domain.nbhd[q.a])
    guards.check("oracle_work", len(near) * max(len(maps), 1), "differential oracle")
    fv = q.f.values
    out = []
    for i in range(len(maps)):
        neighbor_maps = [maps[k] for k in q.space.nbhd[i]]
        matched = []
        for x in near:
            found = False
            for k in neighbor_maps:
                if k.values[x] == fv[x]:
                    found = True
                    break
            matched.append(found)
        if literal:
            ok = True
            for r in range(1, len(near) + 1):
                for subset in itertools.combinations(range(len(near)), r):
                    if not all(matched[t] for t in subset):
                        ok = False
                        break
                if not ok:
                    break
        else:
            ok = all(matched)
        if ok:
            out.append(i)
    return tuple(out)


def t1_forces_value_check(q: DifferentialQuery) -> bool:
    """On a T1 codomain every differential takes the value f(a) at a."""
    props = space_properties(q.space.codomain)
    if not props.is_T1:
        raise HypothesisViolated("codomain is not T1; the check does not apply")
    target = q.f.values[q.a]
    return all(
        q.space.maps[i].values[q.a] == target for i in differentials_at(q)
    )


class ChainRuleReport(Record):
    holds: bool
    inner_differentials: tuple[int, ...]
    outer_differentials: tuple[int, ...]
    composite_differentials: tuple[int, ...]
    violations: tuple[tuple[int, int], ...]
    missing_composites: tuple[tuple[int, int], ...]


def chain_rule_check(
    f: FiniteMap,
    g: FiniteMap,
    a: int,
    outer_space: MapSpace,
    inner_space: MapSpace,
    composite_space: MapSpace,
) -> ChainRuleReport:
    """Check that composites of differentials are differentials.

    ``g`` runs from the domain of ``inner_space`` and must be continuous
    at ``a`` (the chain rule hypothesis); ``f`` continues from there.
    For every pair (outer differential of f at g(a), inner differential
    of g at a) the composite is looked up in ``composite_space``;
    composites absent from that space are reported separately as
    composition-closure gaps rather than counted as violations.
    """
    if not is_continuous_at(inner_space.domain, inner_space.codomain, g, a):
        raise HypothesisViolated(f"inner map is not continuous at {a}")
    inner_diffs = differentials_at(DifferentialQuery(inner_space, g, a))
    outer_diffs = differentials_at(
        DifferentialQuery(outer_space, f, g.values[a])
    )
    composite = f.compose(g)
    composite_diffs = differentials_at(
        DifferentialQuery(composite_space, composite, a)
    )
    index_of = {m.values: i for i, m in enumerate(composite_space.maps)}
    violations = []
    missing = []
    for lf in outer_diffs:
        for lg in inner_diffs:
            comp = outer_space.maps[lf].compose(inner_space.maps[lg])
            at = index_of.get(comp.values)
            if at is None:
                missing.append((lf, lg))
            elif at not in composite_diffs:
                violations.append((lf, lg))
    return ChainRuleReport(
        holds=not violations,
        inner_differentials=inner_diffs,
        outer_differentials=outer_diffs,
        composite_differentials=composite_diffs,
        violations=tuple(violations),
        missing_composites=tuple(missing),
    )

