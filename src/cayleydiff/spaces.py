"""Finite convergence spaces presented as reflexive digraphs.

A space is a reflexive digraph on vertices ``0..size-1``; ``nbhd[v]`` is
the set of out-neighbors of ``v`` including ``v`` itself, and plays the
role of the smallest neighborhood of ``v``.  On a finite carrier every
filter is principal, so a filter is just its nonempty minimal set, and
the filter converges to ``v`` exactly when that set sits inside
``nbhd[v]``.  Continuity of a map then coincides with being a digraph
homomorphism.

A :class:`MapSpace` is a chosen set of continuous maps between two such
spaces together with the convergence structure it inherits; the
differential spaces D(C, D) of Cayley graphs are map spaces that also
carry the two Cayley graphs.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import guards
from .errors import DimMismatch, MalformedTable, NotContinuous, Record, set_field

if TYPE_CHECKING:
    from .cayley import CayleyGraph

__all__ = [
    "FiniteMap",
    "ReflexiveDigraph",
    "PrincipalFilter",
    "SpaceProperties",
    "converges",
    "is_continuous_at",
    "is_continuous",
    "hom_neighbor",
    "MapSpace",
    "is_isolated",
    "continuous_maps",
    "box_product",
    "categorical_product",
    "pair_index",
    "unpair_index",
    "diagonal_map",
    "space_properties",
    "adherence",
    "pentacle",
    "discrete_digraph",
    "digraph_to_json",
    "digraph_from_json",
]


class FiniteMap(Record):
    """Total function between finite carriers, stored as a value tuple."""

    dom_size: int
    cod_size: int
    values: tuple[int, ...]

    def _validate(self) -> None:
        dom_size, cod_size = self.dom_size, self.cod_size
        try:
            values = tuple(map(operator.index, self.values))
        except TypeError:
            raise DimMismatch(f"map values {self.values!r:.60} are not all integers") from None
        if len(values) != dom_size:
            raise DimMismatch(f"map has {len(values)} values for domain size {dom_size}")
        for v in values:
            if not 0 <= v < cod_size:
                raise DimMismatch(f"value {v} outside codomain 0..{cod_size - 1}")
        # integer-like values (numpy scalars, say) are stored as plain ints
        set_field(self, "values", values)

    @classmethod
    def _trusted(
        cls, dom_size: int, cod_size: int, value_tuples: Iterable[tuple[int, ...]]
    ) -> tuple["FiniteMap", ...]:
        """Maps for value tuples the library computed itself, which fit
        the carriers by construction: neither ``__init__`` nor the
        validation runs.  Public construction always validates."""
        new, set_field = object.__new__, object.__setattr__

        def make(values):
            f = new(cls)
            # past the frozen __setattr__, one field at a time, which keeps
            # the compact attribute storage (reading f.__dict__ would not)
            set_field(f, "dom_size", dom_size)
            set_field(f, "cod_size", cod_size)
            set_field(f, "values", values)
            return f

        return tuple(map(make, value_tuples))

    def __call__(self, x: int) -> int:
        return self.values[x]

    def compose(self, inner: "FiniteMap") -> "FiniteMap":
        """self after inner."""
        if inner.cod_size != self.dom_size:
            raise DimMismatch(
                f"cannot compose: inner codomain {inner.cod_size} "
                f"!= outer domain {self.dom_size}"
            )
        return FiniteMap(
            inner.dom_size, self.cod_size, tuple(self.values[v] for v in inner.values)
        )

    def image(self) -> frozenset[int]:
        return frozenset(self.values)

    @classmethod
    def identity(cls, size: int) -> "FiniteMap":
        return cls(size, size, tuple(range(size)))

    @classmethod
    def constant(cls, dom_size: int, cod_size: int, value: int) -> "FiniteMap":
        return cls(dom_size, cod_size, (value,) * dom_size)


class ReflexiveDigraph(Record):
    """Vertices ``0..size-1`` with reflexive out-neighborhood sets."""

    nbhd: tuple[frozenset[int], ...]

    def _validate(self) -> None:
        nbhd = self.nbhd
        n = len(nbhd)
        for v, nv in enumerate(nbhd):
            if v not in nv:
                raise MalformedTable(f"digraph not reflexive at vertex {v}")
            for u in nv:
                if not 0 <= u < n:
                    raise MalformedTable(f"neighbor {u} of {v} outside 0..{n - 1}")

    @property
    def size(self) -> int:
        return len(self.nbhd)

    @classmethod
    def from_neighborhoods(cls, neighborhoods: Iterable[Iterable[int]]) -> "ReflexiveDigraph":
        return cls(tuple(frozenset(nv) for nv in neighborhoods))


class PrincipalFilter(Record):
    """A filter on a finite carrier, identified with its minimal set."""

    minset: frozenset[int]

    def _validate(self) -> None:
        if not self.minset:
            raise MalformedTable("principal filter needs a nonempty minimal set")

    @classmethod
    def point(cls, v: int) -> "PrincipalFilter":
        return cls(frozenset((v,)))

    @classmethod
    def of(cls, elems: Iterable[int]) -> "PrincipalFilter":
        return cls(frozenset(elems))


def converges(space: ReflexiveDigraph, filt: PrincipalFilter, v: int) -> bool:
    """Whether the filter converges to ``v``.

    The filter contains ``nbhd[v]`` exactly when its minimal set is a
    subset of ``nbhd[v]``.
    """
    return filt.minset <= space.nbhd[v]


def is_continuous_at(
    dom: ReflexiveDigraph, cod: ReflexiveDigraph, f: FiniteMap, v: int
) -> bool:
    """f maps the smallest neighborhood of ``v`` into that of ``f(v)``."""
    _check_map_dims(dom, cod, f)
    target = cod.nbhd[f.values[v]]
    return all(f.values[u] in target for u in dom.nbhd[v])


def is_continuous(dom: ReflexiveDigraph, cod: ReflexiveDigraph, f: FiniteMap) -> bool:
    """f lies in its own neighborhood of the map space: f(u) is a
    neighbor of f(v) whenever u is a neighbor of v."""
    _check_map_dims(dom, cod, f)
    return _hom_neighbor_criterion(dom, cod, f, f)


def _check_map_dims(dom: ReflexiveDigraph, cod: ReflexiveDigraph, f: FiniteMap) -> None:
    if f.dom_size != dom.size or f.cod_size != cod.size:
        raise DimMismatch(
            f"map {f.dom_size}->{f.cod_size} does not fit spaces "
            f"{dom.size}->{cod.size}"
        )


def hom_neighbor(
    dom: ReflexiveDigraph, cod: ReflexiveDigraph, f: FiniteMap, g: FiniteMap
) -> bool:
    """Whether ``f`` lies in the neighborhood of ``g`` in the map space.

    Both maps must be continuous.  The criterion: f(a) is a neighbor of
    g(b) whenever a is a neighbor of b.
    """
    if not is_continuous(dom, cod, f):
        raise NotContinuous("first map is not continuous")
    if not is_continuous(dom, cod, g):
        raise NotContinuous("second map is not continuous")
    return _hom_neighbor_criterion(dom, cod, f, g)


def _hom_neighbor_criterion(
    dom: ReflexiveDigraph, cod: ReflexiveDigraph, f: FiniteMap, g: FiniteMap
) -> bool:
    """:func:`hom_neighbor` for callers that already know both maps are
    continuous; it checks neither."""
    f_vals, g_vals = f.values, g.values
    for b, nb in enumerate(dom.nbhd):
        target = cod.nbhd[g_vals[b]]
        for a in nb:
            if f_vals[a] not in target:
                return False
    return True


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


class MapSpace(Record):
    """A chosen space of continuous maps with its convergence structure.

    ``nbhd[i]`` holds the indices of the maps converging to ``maps[i]``
    (always including ``i``).  ``cayley`` holds the domain and codomain
    Cayley graphs when the space is D(C, D), as built by
    :func:`cayleydiff.cayley.diff_space`; their digraphs are ``domain``
    and ``codomain``.

    The bitmasks over map indices that
    :func:`cayleydiff.differential.differentials_at` reads, and the map
    shapes that :func:`cayleydiff.differential.differentials_by_theorem`
    reads, are derived from the fields on first use and kept on the
    instance; they are not fields, so equality, hashing and repr ignore
    them.
    """

    domain: ReflexiveDigraph
    codomain: ReflexiveDigraph
    maps: tuple[FiniteMap, ...]
    nbhd: tuple[frozenset[int], ...]
    cayley: tuple[CayleyGraph, CayleyGraph] | None = None

    @cached_property
    def _nbhd_masks(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The isolated maps (``nbhd[i] == {i}``) as one bitmask, and
        ``(i, bitmask of nbhd[i])`` for every other map."""
        nbhd = self.nbhd
        # one byte per map, 1 when it is isolated; read last map first as
        # a binary number, as in _match_mask
        single = bytes(map(operator.eq, nbhd, [frozenset((i,)) for i in range(len(nbhd))]))
        isolated = int(b"0" + single[::-1].translate(_BIT_CHARS), 2)
        others = tuple(
            (i, sum(1 << j for j in nb))
            for i, (nb, alone) in enumerate(zip(nbhd, single))
            if not alone
        )
        return isolated, others

    @cached_property
    def _match_masks(self) -> dict[tuple[int, int], int]:
        """Filled by :meth:`_match_mask`, one (point, value) at a time."""
        return {}

    @cached_property
    def _derived(self) -> dict:
        """Filled by :meth:`_derive`, one key at a time."""
        return {}

    def _derive(self, key: str, build: Callable[[MapSpace], object]):
        """``build(self)``, computed on the first call for ``key`` and
        kept for the later ones."""
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    @cached_property
    def _values_last_first(self) -> tuple[tuple[int, ...], ...]:
        """The value tuples of the maps, last map first."""
        return tuple(m.values for m in reversed(self.maps))

    def _match_mask(self, x: int, value: int) -> int:
        """Bitmask of the maps k with ``maps[k](x) == value``."""
        key = (x, value)
        mask = self._match_masks.get(key)
        if mask is None:
            column = map(operator.itemgetter(x), self._values_last_first)
            bits = bytes(map(operator.eq, column, itertools.repeat(value)))
            # one "0"/"1" byte per map, last map first, read as a binary
            # number; the leading "0" covers a space with no maps
            mask = int(b"0" + bits.translate(_BIT_CHARS), 2)
            self._match_masks[key] = mask
        return mask

    @classmethod
    def from_diff_space(cls, space: "MapSpace") -> "MapSpace":
        """Identity; kept for ``bench/workloads.py``, which still calls it."""
        return space

    @classmethod
    def from_continuous_maps(
        cls,
        domain: ReflexiveDigraph,
        codomain: ReflexiveDigraph,
        maps: Sequence[FiniteMap],
    ) -> "MapSpace":
        """Wrap an explicit map list, deriving neighborhoods from the
        generic map-space criterion."""
        maps = tuple(maps)
        for i, f in enumerate(maps):
            if not is_continuous(domain, codomain, f):
                raise NotContinuous(f"map {i} with values {f.values}")
        # every map is continuous now, so the pair loop skips that check
        nbhd = tuple(
            frozenset(
                j
                for j in range(len(maps))
                if _hom_neighbor_criterion(domain, codomain, maps[j], maps[i])
            )
            for i in range(len(maps))
        )
        return cls(domain, codomain, maps, nbhd)


def is_isolated(space: MapSpace, index: int) -> bool:
    return space.nbhd[index] == frozenset((index,))


def continuous_maps(dom: ReflexiveDigraph, cod: ReflexiveDigraph) -> tuple[FiniteMap, ...]:
    """All continuous maps dom -> cod, in lexicographic order of value tuples."""
    total = cod.size**dom.size
    guards.check("map_enumeration", total, "exhaustive map enumeration")
    out = []
    nbhd_d = dom.nbhd
    nbhd_c = cod.nbhd
    for combo in itertools.product(range(cod.size), repeat=dom.size):
        ok = True
        for v, nv in enumerate(nbhd_d):
            target = nbhd_c[combo[v]]
            for u in nv:
                if combo[u] not in target:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(FiniteMap(dom.size, cod.size, combo))
    return tuple(out)


def pair_index(a: int, b: int, right_size: int) -> int:
    """Canonical index of the pair (a, b): a * right_size + b."""
    return a * right_size + b


def unpair_index(idx: int, right_size: int) -> tuple[int, int]:
    return divmod(idx, right_size)


def box_product(x: ReflexiveDigraph, y: ReflexiveDigraph) -> ReflexiveDigraph:
    """Box product: a pair moves in one coordinate at a time."""
    guards.check("product_vertices", x.size * y.size, "box product")
    nbhd = []
    for a in range(x.size):
        for b in range(y.size):
            cur = {pair_index(a, v, y.size) for v in y.nbhd[b]}
            cur.update(pair_index(u, b, y.size) for u in x.nbhd[a])
            nbhd.append(frozenset(cur))
    return ReflexiveDigraph(tuple(nbhd))


def categorical_product(x: ReflexiveDigraph, y: ReflexiveDigraph) -> ReflexiveDigraph:
    """Categorical product: both coordinates move independently."""
    guards.check("product_vertices", x.size * y.size, "categorical product")
    nbhd = []
    for a in range(x.size):
        for b in range(y.size):
            nbhd.append(
                frozenset(
                    pair_index(u, v, y.size) for u in x.nbhd[a] for v in y.nbhd[b]
                )
            )
    return ReflexiveDigraph(tuple(nbhd))


def diagonal_map(size: int) -> FiniteMap:
    """The map a -> (a, a) into a product carrier of size*size."""
    return FiniteMap(size, size * size, tuple(pair_index(a, a, size) for a in range(size)))


class SpaceProperties(Record):
    is_T0: bool
    is_T1: bool
    is_discrete: bool
    is_topological: bool


def space_properties(space: ReflexiveDigraph) -> SpaceProperties:
    """Separation and topologicity flags.

    ``is_T1`` is computed from unique limits of point filters (u in
    N(v) forces u == v) while ``is_discrete`` compares each
    neighborhood against the singleton; their equivalence is a theorem,
    not an assumption, and the test suite asserts it.
    """
    nbhd = space.nbhd
    t0 = len(set(nbhd)) == space.size
    t1 = all(u == v for v, nv in enumerate(nbhd) for u in nv)
    discrete = all(nv == frozenset((v,)) for v, nv in enumerate(nbhd))
    topological = all(nbhd[u] <= nv for v, nv in enumerate(nbhd) for u in nv)
    return SpaceProperties(t0, t1, discrete, topological)


def adherence(space: ReflexiveDigraph, subset: frozenset[int]) -> frozenset[int]:
    """Points whose smallest neighborhood meets the subset.

    This closure operator is idempotent exactly on topological spaces,
    which gives an independent route to ``is_topological``.
    """
    return frozenset(v for v in range(space.size) if space.nbhd[v] & subset)


def pentacle() -> ReflexiveDigraph:
    """Five vertices; p sees everything except p+3 mod 5.

    Homogeneous, T0, and not topological.
    """
    full = frozenset(range(5))
    return ReflexiveDigraph(tuple(full - {(p + 3) % 5} for p in range(5)))


def discrete_digraph(size: int) -> ReflexiveDigraph:
    return ReflexiveDigraph(tuple(frozenset((v,)) for v in range(size)))


def digraph_to_json(space: ReflexiveDigraph) -> dict:
    return {
        "size": space.size,
        "nbhd": [sorted(nv) for nv in space.nbhd],
    }


def digraph_from_json(data: dict) -> ReflexiveDigraph:
    try:
        size = data["size"]
        nbhd = [frozenset(map(operator.index, nv)) for nv in data["nbhd"]]
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"digraph JSON field missing or not integers: {exc}")
    if size != len(nbhd):
        raise MalformedTable(f"size {size} does not match {len(nbhd)} neighborhoods")
    return ReflexiveDigraph.from_neighborhoods(nbhd)


def map_to_json(f: FiniteMap) -> dict:
    return {
        "dom_size": f.dom_size,
        "cod_size": f.cod_size,
        "values": list(f.values),
    }


def map_from_json(data: dict) -> FiniteMap:
    try:
        dom_size = operator.index(data["dom_size"])
        cod_size = operator.index(data["cod_size"])
        values = tuple(map(operator.index, data["values"]))
    except (KeyError, TypeError) as exc:
        raise MalformedTable(f"map JSON field missing or not integers: {exc}")
    return FiniteMap(dom_size, cod_size, values)
