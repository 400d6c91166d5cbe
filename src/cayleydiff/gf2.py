"""Linear algebra over GF(2): bit points, dense matrices, a tiny solver.

Points are bit tuples; the index of a point spells its bits with
variable 1 as the most significant bit.  :class:`GF2Matrix` is a dense
0/1 matrix acting on column bit vectors.  The solver works on rows
given as ints, bit j standing for variable j, and returns one solution
of the small matrix equations of the Boolean differential routines,
whose systems have full column rank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .errors import DimMismatch, Record

if TYPE_CHECKING:
    from .spaces import FiniteMap

__all__ = [
    "BoolPoint",
    "point_index",
    "index_point",
    "neighborhood_indices",
    "GF2Matrix",
    "solve_affine",
]

BoolPoint = tuple[int, ...]


def point_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise DimMismatch(f"bit {b!r} is not 0 or 1")
        idx = idx * 2 + b
    return idx


def index_point(idx: int, m: int) -> BoolPoint:
    if not 0 <= idx < 2**m:
        raise DimMismatch(f"index {idx} outside a {m}-cube")
    return tuple((idx >> (m - 1 - k)) & 1 for k in range(m))


def neighborhood_indices(idx: int, m: int) -> tuple[int, ...]:
    """Hamming ball of radius 1 around the point, as sorted indices."""
    return tuple(sorted({idx} | {idx ^ (1 << k) for k in range(m)}))


class GF2Matrix(Record):
    """Dense 0/1 matrix, row-major; acts on column bit vectors."""

    rows: int
    cols: int
    bits: tuple[tuple[int, ...], ...]

    def _validate(self) -> None:
        rows, cols, bits = self.rows, self.cols, self.bits
        if len(bits) != rows:
            raise DimMismatch(f"{len(bits)} rows, declared {rows}")
        for row in bits:
            if len(row) != cols:
                raise DimMismatch(f"row of length {len(row)}, declared {cols}")
            for v in row:
                if v not in (0, 1):
                    raise DimMismatch(f"entry {v!r} is not a bit")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def from_columns(cls, rows: int, columns: Sequence[Sequence[int]]) -> "GF2Matrix":
        return cls(
            rows, len(columns), tuple(tuple(c[i] for c in columns) for i in range(rows))
        )

    @classmethod
    def from_finite_map(cls, fm: FiniteMap, m: int, n: int) -> "GF2Matrix":
        """The matrix of a linear map from the m-cube to the n-cube.

        Column j is the image of the j-th basis point; only those images
        are read, so this inverts :meth:`as_finite_map` on linear maps.
        """
        if fm.dom_size != 2**m or fm.cod_size != 2**n:
            raise DimMismatch(
                f"map {fm.dom_size}->{fm.cod_size} is not {2**m}->{2**n}"
            )
        return cls.from_columns(
            n, tuple(index_point(fm.values[1 << (m - 1 - j)], n) for j in range(m))
        )

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.bits)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.cols))

    def distinct_nonzero_columns(self) -> frozenset[tuple[int, ...]]:
        return frozenset(c for c in self.columns() if any(c))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.bits)

    def apply_bits(self, x: Sequence[int]) -> BoolPoint:
        if len(x) != self.cols:
            raise DimMismatch(f"point of length {len(x)} for {self.cols} columns")
        out = []
        for row in self.bits:
            acc = 0
            for rj, xj in zip(row, x):
                acc ^= rj & xj
            out.append(acc)
        return tuple(out)

    def apply_index(self, idx: int) -> int:
        return point_index(self.apply_bits(index_point(idx, self.cols)))

    def compose(self, inner: "GF2Matrix") -> "GF2Matrix":
        """Matrix product self * inner (apply inner first)."""
        if inner.rows != self.cols:
            raise DimMismatch(
                f"cannot compose: inner has {inner.rows} rows, outer {self.cols} columns"
            )
        return GF2Matrix.from_columns(
            self.rows,
            tuple(self.apply_bits(inner.column(j)) for j in range(inner.cols)),
        )

    def as_finite_map(self) -> FiniteMap:
        from .spaces import FiniteMap

        return FiniteMap(
            2**self.cols,
            2**self.rows,
            tuple(self.apply_index(i) for i in range(2**self.cols)),
        )


def solve_affine(rows: list[int], rhs: list[int]) -> int | None:
    """Solve row.x = rhs over GF(2) for all equations at once.

    Returns one solution as a bitmask, with every free variable 0, or
    None when the system is inconsistent.
    """
    pivots: list[tuple[int, int, int]] = []  # (column bit, row, rhs)
    for r, b in zip(rows, rhs):
        b &= 1
        for bit, pr, pb in pivots:
            if r & bit:
                r ^= pr
                b ^= pb
        if r == 0:
            if b:
                return None
            continue
        pivots.append((r & -r, r, b))
    solution = 0
    # back-substitute from the last pivot upward
    for bit, r, b in reversed(pivots):
        if b ^ bin(r & ~bit & solution).count("1") % 2:
            solution |= bit
    return solution
