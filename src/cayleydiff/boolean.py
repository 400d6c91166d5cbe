"""Differential calculus on Boolean hypercubes over GF(2).

The hypercube of dimension n is the Cayley graph of the n-fold power of
the order-2 group over its unit vectors, so a point's neighborhood is
the Hamming ball of radius 1.  Continuous linear maps are exactly the
GF(2) matrices with at most one 1 per column, and they are the members
of the group calculus's differential space D(B_m, B_n)
(:func:`linear_map_space` builds it with :func:`cayleydiff.cayley.diff_space`).
The classification of differentials specializes pleasantly: every
nonzero column of a map and its neighbors agree, so the three candidate
shapes are isolated matrices (two or more distinct nonzero columns), the
zero matrix, and matrices with a single repeated column.  Whether a
differential exists at all is read off the first two shapes without
enumerating any matrix (:func:`is_differentiable_at`), which is what
the scalar census uses.

Points are bit tuples; the index of a point spells its bits with
variable 1 as the most significant bit.  Points and :class:`GF2Matrix`
live in :mod:`cayleydiff.gf2`, the polynomial rendering in
:mod:`cayleydiff.anf`; both are re-exported here.  The group calculus
is imported only where it is used (:func:`linear_map_space`, the
cross-check and the conversions to :class:`~cayleydiff.spaces.FiniteMap`),
so classification and the census load no group code; the hypercube
itself is :func:`cayleydiff.cayley.hypercube`.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

from . import anf, gf2, guards
from .anf import matrix_anf, row_anf
from .errors import (
    CrossCheckMismatch,
    DimMismatch,
    NotContinuous,
    NotDifferentiable,
    Record,
)
from .gf2 import BoolPoint, GF2Matrix, index_point, neighborhood_indices, point_index

if TYPE_CHECKING:
    from .spaces import FiniteMap, MapSpace

__all__ = [
    "BoolPoint",
    "point_index",
    "index_point",
    "neighborhood_indices",
    "GF2Matrix",
    "BoolFunction",
    "is_continuous_linear",
    "continuous_linear_maps",
    "linear_neighbors",
    "linear_map_space",
    "boolean_differentials_at",
    "is_differentiable_at",
    "solve_matrix_equation",
    "row_anf",
    "matrix_anf",
    "CensusReport",
    "scalar_differentiability_census",
    "LeibnizTrial",
    "LeibnizReport",
    "leibniz_probe",
]


_BITS = frozenset((0, 1))


class BoolFunction(Record):
    """Arbitrary function between hypercubes, stored as a dense table."""

    m: int
    n: int
    table: tuple[BoolPoint, ...]

    def _validate(self) -> None:
        m, n, table = self.m, self.n, self.table
        guards.check("bool_table_dim", m, "boolean function table")
        if len(table) != 2**m:
            raise DimMismatch(f"table of {len(table)} entries for a {m}-cube")
        # C-level passes over lengths and bits; the row loop runs only on
        # failure, to name the first bad row
        try:
            if set(map(len, table)) == {n} and _BITS.issuperset(
                itertools.chain.from_iterable(table)
            ):
                return
        except TypeError:
            pass
        for out in table:
            if len(out) != n or any(b not in (0, 1) for b in out):
                raise DimMismatch(f"output {out!r} is not a {n}-bit point")

    @classmethod
    def from_source(cls, source: str, m: int | None = None) -> "BoolFunction":
        m, table = anf.tabulate(source, m)
        return cls(m, len(table[0]), table)

    @classmethod
    def from_finite_map(cls, fm: FiniteMap, m: int, n: int) -> "BoolFunction":
        if fm.dom_size != 2**m or fm.cod_size != 2**n:
            raise DimMismatch(
                f"map {fm.dom_size}->{fm.cod_size} is not {2**m}->{2**n}"
            )
        return cls(m, n, tuple(index_point(v, n) for v in fm.values))

    def as_finite_map(self) -> FiniteMap:
        from .spaces import FiniteMap

        return FiniteMap(
            2**self.m, 2**self.n, tuple(point_index(out) for out in self.table)
        )

    def value(self, b: Sequence[int] | int) -> BoolPoint:
        idx = b if isinstance(b, int) else point_index(b)
        return self.table[idx]

    def compose(self, inner: "BoolFunction") -> "BoolFunction":
        if inner.n != self.m:
            raise DimMismatch(
                f"cannot compose: inner lands in {inner.n} bits, outer reads {self.m}"
            )
        return BoolFunction(
            inner.m,
            self.n,
            tuple(self.table[point_index(out)] for out in inner.table),
        )

    def pointwise_product(self, other: "BoolFunction") -> "BoolFunction":
        if self.n != 1 or other.n != 1 or self.m != other.m:
            raise DimMismatch("pointwise product needs two scalar functions on one cube")
        return BoolFunction(
            self.m,
            1,
            tuple((a[0] & b[0],) for a, b in zip(self.table, other.table)),
        )


def is_continuous_linear(matrix: GF2Matrix) -> bool:
    """A linear map is continuous exactly when every column has weight <= 1."""
    return all(sum(matrix.column(j)) <= 1 for j in range(matrix.cols))


def continuous_linear_maps(m: int, n: int) -> tuple[GF2Matrix, ...]:
    """All continuous linear maps from the m-cube to the n-cube.

    There are (n+1)^m of them: each column is zero or a unit vector.
    """
    guards.check("bool_candidates", (n + 1) ** m, "continuous linear enumeration")
    unit = [tuple(1 if i == k else 0 for i in range(n)) for k in range(n)]
    choices = [tuple([0] * n)] + unit
    out = [
        GF2Matrix.from_columns(n, cols)
        for cols in itertools.product(choices, repeat=m)
    ]
    return tuple(sorted(out, key=lambda mt: mt.bits))


def _neighbor_criterion(a: GF2Matrix, b: GF2Matrix) -> bool:
    """Oracle for the neighborhoods of :func:`linear_map_space`: two
    distinct maps are neighbors when all nonzero columns of the two
    matrices are one and the same vector."""
    return len(a.distinct_nonzero_columns() | b.distinct_nonzero_columns()) <= 1


def linear_neighbors(matrix: GF2Matrix) -> tuple[GF2Matrix, ...]:
    """All continuous linear neighbors of a continuous linear map."""
    if not is_continuous_linear(matrix):
        raise NotContinuous("matrix has a column of weight > 1")
    m, n = matrix.cols, matrix.rows
    nz = matrix.distinct_nonzero_columns()
    if len(nz) >= 2:
        return (matrix,)
    guards.check("bool_candidates", (n + 1) * 2**m, "linear neighbor enumeration")
    out = []
    if len(nz) == 1:
        c = next(iter(nz))
        zero_col = tuple([0] * n)
        for cols in itertools.product((zero_col, c), repeat=m):
            out.append(GF2Matrix.from_columns(n, cols))
    else:
        out.append(GF2Matrix.zero(n, m))
        zero_col = tuple([0] * n)
        for k in range(n):
            c = tuple(1 if i == k else 0 for i in range(n))
            for cols in itertools.product((zero_col, c), repeat=m):
                mt = GF2Matrix.from_columns(n, cols)
                if not mt.is_zero():
                    out.append(mt)
    return tuple(sorted(out, key=lambda mt: mt.bits))


def linear_map_space(m: int, n: int) -> tuple[tuple[GF2Matrix, ...], MapSpace]:
    """The continuous linear maps as the differential space D(B_m, B_n).

    Returns (matrices, MapSpace) with matching indices, for feeding the
    generic differential machinery; the space carries both hypercubes
    as its Cayley payload.
    """
    from .cayley import diff_space, hypercube

    guards.check("bool_candidates", (n + 1) ** m, "continuous linear enumeration")
    space = diff_space(hypercube(m), hypercube(n))
    return tuple(GF2Matrix.from_finite_map(f, m, n) for f in space.maps), space


def _normalize_point(b: Sequence[int] | int, m: int) -> int:
    if isinstance(b, int):
        if not 0 <= b < 2**m:
            raise DimMismatch(f"index {b} outside a {m}-cube")
        return b
    if len(b) != m:
        raise DimMismatch(f"point of length {len(b)} in a {m}-cube")
    return point_index(b)


def boolean_differentials_at(
    f: BoolFunction, b: Sequence[int] | int, *, cross_check: bool = False
) -> tuple[GF2Matrix, ...]:
    """Differentials of f at the point b among continuous linear maps.

    Classification by column shape: matrices with two distinct nonzero
    columns are isolated and must agree with f on the whole Hamming
    ball; the zero matrix needs every nearby value in the ball around
    the origin; a single-column matrix needs every nearby value inside
    its two-point image.  The latter two also force f(0) = 0 whenever
    the origin is in sight, since linear maps cannot move it.

    The sweep runs over column codes (see :func:`_code_sweep`) and
    builds a :class:`GF2Matrix` only for the codes that pass, sorted by
    ``bits``.  ``cross_check=True`` also runs the dense sweep over
    validated matrices (:func:`_differentials_by_matrix_sweep`), the
    generic criterion and the theorem route on :func:`linear_map_space`,
    and raises :class:`CrossCheckMismatch` unless all agree.
    """
    b_idx = _normalize_point(b, f.m)
    guards.check("bool_candidates", (f.n + 1) ** f.m, "continuous linear enumeration")
    codes = _code_sweep(_ball_values(f, b_idx), f.m, f.n, b_idx)
    result = tuple(
        sorted((GF2Matrix(f.n, f.m, _code_rows(c, f.n)) for c in codes), key=lambda mt: mt.bits)
    )

    if cross_check:
        from .differential import (
            DifferentialQuery,
            differentials_at,
            differentials_by_theorem,
        )

        oracle = _differentials_by_matrix_sweep(f, b_idx)
        if oracle != result:
            raise CrossCheckMismatch(
                f"column-code sweep disagrees with the matrix sweep at point "
                f"{b_idx}: {[mt.bits for mt in result]} vs {[mt.bits for mt in oracle]}"
            )
        matrices, space = linear_map_space(f.m, f.n)
        q = DifferentialQuery(space, f.as_finite_map(), b_idx)
        want = {mt.bits for mt in result}
        for label, route in (
            ("generic criterion", differentials_at),
            ("theorem route", differentials_by_theorem),
        ):
            got = {matrices[i].bits for i in route(q)}
            if got != want:
                raise CrossCheckMismatch(
                    f"boolean classification disagrees with the {label} "
                    f"at point {b_idx}: {sorted(want)} vs {sorted(got)}"
                )
    return result


def _code_rows(code: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the continuous linear map with column code ``code``:
    column j is zero (code 0) or the unit vector e_c (code c >= 1)."""
    return tuple(tuple(int(c == i + 1) for c in code) for i in range(n))


def _code_sweep(values, m: int, n: int, b: int) -> list[tuple[int, ...]]:
    """Column codes of the differentials at b, in sweep order.

    A continuous linear map is a code c in {0..n}^m (see
    :func:`_code_rows`); every one of the (n+1)^m codes is visited and
    classified by its shape with integer tests on point indices.
    ``values`` gives f as point indices and needs to cover the ball of
    b, e.g. the dict of :func:`_ball_values`.
    """
    # code c >= 1 as a point index of the n-cube: bit n - c is row c - 1
    unit = (0,) + tuple(1 << (n - c) for c in range(1, n + 1))
    fb = values[b]
    # flipping input bit j (column j) is index bit m - 1 - j
    near = [values[b ^ (1 << (m - 1 - j))] for j in range(m)]
    ball = [fb, *near]
    # b & (b - 1) is 0 exactly when the origin is in the ball of b
    origin_ok = b & (b - 1) != 0 or values[0] == 0
    zero_ok = origin_ok and all(v & (v - 1) == 0 for v in ball)
    single_ok = [origin_ok and all(v in (0, u) for v in ball) for u in unit]
    # a linear L agrees with f on the ball iff L(b) = f(b) and, since
    # L(b + e_j) = L(b) + column j, column j = f(b) + f(b + e_j)
    forced = [fb ^ v for v in near]
    set_bits = [j for j in range(m) if b >> (m - 1 - j) & 1]
    out = []
    for code in itertools.product(range(n + 1), repeat=m):
        nonzero = set(code)
        nonzero.discard(0)
        if len(nonzero) >= 2:
            image = 0
            for j in set_bits:
                image ^= unit[code[j]]
            ok = image == fb and all(unit[c] == col for c, col in zip(code, forced))
        elif nonzero:
            ok = single_ok[nonzero.pop()]
        else:
            ok = zero_ok
        if ok:
            out.append(code)
    return out


def _differentials_by_matrix_sweep(f: BoolFunction, b_idx: int) -> tuple[GF2Matrix, ...]:
    """Oracle for :func:`boolean_differentials_at`: the same classification
    applied to every dense validated matrix of :func:`continuous_linear_maps`."""
    near = neighborhood_indices(b_idx, f.m)
    zero_out = tuple([0] * f.n)
    origin_near = 0 in near
    out = []
    for mt in continuous_linear_maps(f.m, f.n):
        nz = mt.distinct_nonzero_columns()
        if len(nz) >= 2:
            ok = all(
                mt.apply_bits(index_point(x, f.m)) == f.table[x] for x in near
            )
        elif len(nz) == 0:
            ok = all(sum(f.table[x]) <= 1 for x in near) and (
                not origin_near or f.table[0] == zero_out
            )
        else:
            beta = next(iter(nz))
            ok = all(f.table[x] in (zero_out, beta) for x in near) and (
                not origin_near or f.table[0] == zero_out
            )
        if ok:
            out.append(mt)
    return tuple(out)


def is_differentiable_at(f: BoolFunction, b: Sequence[int] | int) -> bool:
    """Whether f has a differential at the point b, by the classification.

    Equivalent to ``bool(boolean_differentials_at(f, b))`` but builds no
    matrix and costs O(m*n).  A differential exists exactly when

    * the zero matrix is one: every value of f on the Hamming ball of b
      has weight <= 1, and f(0) = 0 if the origin is in the ball (every
      single-column differential implies this, so the families need no
      test of their own); or
    * the isolated candidate is one: agreeing with f on the ball forces
      its column for e_k to be f(b) + f(b + e_k); it counts when every
      column has weight <= 1, two distinct columns are nonzero, and the
      columns over the set bits of b sum to f(b).
    """
    b_idx = _normalize_point(b, f.m)
    return _has_differential(_ball_values(f, b_idx), f.m, b_idx)


def _ball_values(f: BoolFunction, b: int) -> dict[int, int]:
    """f on the Hamming ball of b, as point indices keyed by point index."""
    return {x: point_index(f.table[x]) for x in neighborhood_indices(b, f.m)}


def _has_differential(values, m: int, b: int) -> bool:
    """:func:`is_differentiable_at` on values given as point indices;
    ``values`` needs to cover the ball of b, e.g. a list over the cube."""
    fb = values[b]
    near = [values[b ^ (1 << k)] for k in range(m)]
    # b & (b - 1) is 0 exactly when the origin is in the ball of b
    if (
        fb & (fb - 1) == 0
        and all(v & (v - 1) == 0 for v in near)
        and (b & (b - 1) or values[0] == 0)
    ):
        return True
    cols = [fb ^ v for v in near]
    if any(c & (c - 1) for c in cols) or len(set(cols) - {0}) < 2:
        return False
    image = 0
    for k, c in enumerate(cols):
        if b >> k & 1:
            image ^= c
    return image == fb


def solve_matrix_equation(f: BoolFunction, b: Sequence[int] | int) -> tuple[GF2Matrix, ...]:
    """Continuous linear maps agreeing with f on the whole ball around b.

    Solves one GF(2) linear system per output row by Gaussian
    elimination.  The ball spans GF(2)^m, since e_j = b + (b + e_j), so
    each system has at most one solution: the answer is the one matrix
    they give, if every system is consistent and it is continuous.
    Restricted to isolated matrices this is an independent route to the
    first case of the classification.
    """
    b_idx = _normalize_point(b, f.m)
    near = neighborhood_indices(b_idx, f.m)
    # rows of the system: the points themselves, bit j <-> column j
    sys_rows = [sum(bit << j for j, bit in enumerate(index_point(x, f.m))) for x in near]
    rows = []
    for r in range(f.n):
        solution = gf2.solve_affine(sys_rows, [f.table[x][r] for x in near])
        if solution is None:
            return ()
        rows.append(tuple((solution >> j) & 1 for j in range(f.m)))
    mt = GF2Matrix(f.n, f.m, tuple(rows))
    return (mt,) if is_continuous_linear(mt) else ()


class CensusReport(Record):
    m: int
    differentiable: tuple[bool, ...]
    expected: tuple[bool, ...]
    matches: bool


def scalar_differentiability_census(f: BoolFunction) -> CensusReport:
    """Where a scalar function is differentiable, with the predicted pattern.

    Scalar codomain: differentiable everywhere outside the ball around
    the origin, and on that ball exactly when f(0) = 0.  The report
    compares the computed set against this pattern.  Each point is
    decided by the existence test of :func:`is_differentiable_at`, so
    the census costs O(m) per point and materialises no matrix.
    """
    if f.n != 1:
        raise DimMismatch("census needs a scalar codomain")
    origin_ball = set(neighborhood_indices(0, f.m))
    values = [out[0] for out in f.table]
    got = tuple(_has_differential(values, f.m, b) for b in range(2**f.m))
    zero_at_origin = f.table[0] == (0,)
    expected = tuple(
        (b not in origin_ball) or zero_at_origin for b in range(2**f.m)
    )
    return CensusReport(f.m, got, expected, got == expected)


class LeibnizTrial(Record):
    outer: GF2Matrix
    inner: GF2Matrix
    candidate: GF2Matrix
    is_differential: bool


class LeibnizReport(Record):
    total: int
    satisfied: int
    trials: tuple[LeibnizTrial, ...]


def leibniz_probe(f: BoolFunction, g: BoolFunction, b: Sequence[int] | int) -> LeibnizReport:
    """Try the product-rule shape L_f*g(b) + f(b)*L_g on pointwise products.

    Purely observational: reports how many candidate combinations land
    in the differential set of f*g at b, asserting nothing.
    """
    if f.n != 1 or g.n != 1 or f.m != g.m:
        raise DimMismatch("probe needs two scalar functions on the same cube")
    b_idx = _normalize_point(b, f.m)
    f_diffs = boolean_differentials_at(f, b_idx)
    if not f_diffs:
        raise NotDifferentiable("first factor has no differential at the point")
    g_diffs = boolean_differentials_at(g, b_idx)
    if not g_diffs:
        raise NotDifferentiable("second factor has no differential at the point")
    product = f.pointwise_product(g)
    prod_diffs = {mt.bits for mt in boolean_differentials_at(product, b_idx)}
    fb = f.table[b_idx][0]
    gb = g.table[b_idx][0]
    trials = []
    satisfied = 0
    for lf in f_diffs:
        for lg in g_diffs:
            row = tuple(
                (gb & lf.bits[0][j]) ^ (fb & lg.bits[0][j]) for j in range(f.m)
            )
            cand = GF2Matrix(1, f.m, (row,))
            hit = cand.bits in prod_diffs
            satisfied += hit
            trials.append(LeibnizTrial(lf, lg, cand, hit))
    return LeibnizReport(len(trials), satisfied, tuple(trials))
