"""Cayley graphs of finite groups and their spaces of differentials.

The Cayley graph of (G, S) is the reflexive digraph with
``nbhd[g] = {g} union {g*s for s in S}``.  The differential space
D(C, D) collects the continuous group homomorphisms between the
underlying groups; it is a :class:`~cayleydiff.spaces.MapSpace` that
carries C and D as its Cayley payload.  A homomorphism is continuous
exactly when it sends S into N(e) = {e} union T, so D(C, D) is
enumerated by sweeping only those generator images.  Two distinct
members are neighbors exactly when both images fit inside
{identity, d} for a single order-2 generator d of the codomain, so
neighborhoods are read off one bucket of maps per such d.  The oracle
behind ``cross_check=True`` leans on neither shortcut: it sweeps the
generator images that continuity at the identity allows, keeps the
maps that :func:`~cayleydiff.groups._homs_by_definition` finds to
satisfy the full identity phi(ab) = phi(a)phi(b), as the enumeration
oracle does, checks their global continuity, and compares every pair
of them by the generic map-space criterion.

The hypercube B_n is the Cayley graph of z2^n over its unit vectors
(:func:`hypercube`).
"""

from __future__ import annotations

from typing import Iterable

from . import guards
from .errors import CrossCheckMismatch, DimMismatch, NotContinuous, Record
from .groups import (
    FiniteGroup,
    GeneratingSet,
    _homs_along_tree,
    _homs_by_definition,
    element_order,
    validate_generating_set,
    z2_power_group,
)
from .spaces import (
    FiniteMap,
    MapSpace,
    ReflexiveDigraph,
    is_continuous,
)

__all__ = [
    "CayleyGraph",
    "cayley_graph",
    "hypercube",
    "AutomorphismCheck",
    "left_mult_automorphism_check",
    "diff_space",
    "group_multiplication_map",
]


class CayleyGraph(Record):
    group: FiniteGroup
    gens: GeneratingSet
    digraph: ReflexiveDigraph

    def _validate(self) -> None:
        group, digraph = self.group, self.digraph
        if digraph.size != group.order:
            raise DimMismatch(
                f"digraph on {digraph.size} vertices for group of order {group.order}"
            )


def cayley_graph(group: FiniteGroup, gens: Iterable[int] | GeneratingSet) -> CayleyGraph:
    """Build the reflexive Cayley digraph over a validated generating set."""
    if not isinstance(gens, GeneratingSet):
        gens = validate_generating_set(group, gens)
    table = group.table
    nbhd = tuple(
        frozenset({g} | {table[g][s] for s in gens.elements})
        for g in range(group.order)
    )
    return CayleyGraph(group, gens, ReflexiveDigraph(nbhd))


def hypercube(n: int) -> CayleyGraph:
    """Cayley graph of the n-dimensional hypercube over unit vectors."""
    group = z2_power_group(n)
    return cayley_graph(group, GeneratingSet(tuple(2**k for k in range(n))))


class AutomorphismCheck(Record):
    ok: bool
    witness: str | None


def left_mult_automorphism_check(c: CayleyGraph) -> AutomorphismCheck:
    """Verify that every left multiplication is a digraph automorphism.

    Returns a failure witness instead of raising, so corrupted graphs
    can be probed.
    """
    n = c.group.order
    dig = c.digraph
    for v in range(n):
        row = c.group.table[v]
        if len(set(row)) != n:
            return AutomorphismCheck(False, f"left multiplication by {v} is not a bijection")
        fwd = FiniteMap(n, n, tuple(row))
        inv_values = [0] * n
        for x, vx in enumerate(row):
            inv_values[vx] = x
        bwd = FiniteMap(n, n, tuple(inv_values))
        if not is_continuous(dig, dig, fwd):
            return AutomorphismCheck(
                False, f"left multiplication by {v} is not continuous"
            )
        if not is_continuous(dig, dig, bwd):
            return AutomorphismCheck(
                False, f"inverse of left multiplication by {v} is not continuous"
            )
    return AutomorphismCheck(True, None)


def diff_space(
    domain: CayleyGraph, codomain: CayleyGraph, *, cross_check: bool = False
) -> MapSpace:
    """Enumerate D(domain, codomain), maps sorted by value tuple.

    A homomorphism is continuous exactly when it sends every Cayley
    generator of the domain into N(e) = {e} union T of the codomain, so
    only those generator images are swept.  Neighborhoods use the order-2
    generator criterion.  With ``cross_check`` the maps and neighborhoods
    are compared with those of :func:`_diff_space_sweep`, which builds
    the space from the definitions; any disagreement raises
    :class:`CrossCheckMismatch`.
    """
    e_h = codomain.group.identity
    gens = domain.gens.elements
    maps = _homs_along_tree(
        domain.group, codomain.group, gens, sorted(codomain.digraph.nbhd[e_h])
    )

    # members of bucket d are the maps with image inside {e, d}
    buckets: dict[int, list[int]] = {d: [] for d in _order2_generators(codomain)}
    for i, phi in enumerate(maps):
        image = {phi.values[s] for s in gens} - {e_h}
        if not image:
            for members in buckets.values():
                members.append(i)
        elif len(image) == 1 and (d := image.pop()) in buckets:
            buckets[d].append(i)
    nbhd = [frozenset((i,)) for i in range(len(maps))]
    for members in buckets.values():
        together = frozenset(members)
        for i in members:
            nbhd[i] |= together
    space = MapSpace(
        domain.digraph, codomain.digraph, maps, tuple(nbhd), (domain, codomain)
    )

    if cross_check:
        ref = _diff_space_sweep(domain, codomain)
        if ref.maps != space.maps:
            raise CrossCheckMismatch(
                f"{len(space.maps)} continuous homomorphisms from the generator "
                f"sweep, {len(ref.maps)} from the definition"
            )
        if ref.nbhd != space.nbhd:
            i = next(i for i, (a, b) in enumerate(zip(ref.nbhd, space.nbhd)) if a != b)
            raise CrossCheckMismatch(
                f"neighborhood of map {i}: buckets give {sorted(space.nbhd[i])}, "
                f"generic criterion gives {sorted(ref.nbhd[i])}"
            )
    return space


def _order2_generators(c: CayleyGraph) -> frozenset[int]:
    return frozenset(d for d in c.gens.elements if element_order(c.group, d) == 2)


def _diff_space_sweep(domain: CayleyGraph, codomain: CayleyGraph) -> MapSpace:
    """Oracle for :func:`diff_space`, built from the definition.

    The maps are the homomorphisms that :func:`_homs_by_definition`
    yields for the domain's Cayley generators S sent into
    N(e) = {e} union T, each checked against the full identity
    phi(ab) = phi(a)phi(b), as the enumeration oracle's maps are.  The
    ``oracle_work`` guard on |maps|^2 is checked as each map is kept, so
    a refused space is refused mid-sweep.  Neighborhoods come from
    :meth:`MapSpace.from_continuous_maps`, which also checks each kept
    map's global continuity and compares every pair of maps by the
    generic criterion.
    """
    g, h = domain.group, codomain.group
    allowed = sorted(codomain.digraph.nbhd[h.identity])
    maps = []
    for values in _homs_by_definition(g, h, domain.gens.elements, allowed):
        maps.append(FiniteMap(g.order, h.order, values))
        # refuse as soon as the pair comparison is known to be too large
        guards.check(
            "oracle_work", len(maps) ** 2, "D(C,D) oracle pair comparison of the maps kept so far"
        )
    maps.sort(key=lambda f: f.values)
    try:
        return MapSpace.from_continuous_maps(domain.digraph, codomain.digraph, maps)
    except NotContinuous as exc:
        raise CrossCheckMismatch(f"homomorphism sending S into N(e) is not continuous: {exc}")


def group_multiplication_map(c: CayleyGraph) -> FiniteMap:
    """The product (a, b) -> a*b on the paired carrier of size |G|^2."""
    n = c.group.order
    values = tuple(
        c.group.table[a][b] for a in range(n) for b in range(n)
    )
    return FiniteMap(n * n, n, values)
