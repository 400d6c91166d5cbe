"""Independent routes the benchmark checks the package's results against.

Nothing here imports the package: the Boolean closed form, the ANF
tools, group tables and the homomorphism identity are recomputed from
scratch, so a fault in the package cannot hide in its own check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

VARS = "pqrstuvwxyz"


class Mismatch(Exception):
    """A result disagrees with its independent check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# ------------------------------------------------------------ groups


def spec_order(spec: str) -> int:
    """Order of the group named by a benchmark spec (``a+b`` is a direct sum)."""
    order = 1
    for part in spec.split("+"):
        kind, _, num = part.partition(":") if ":" in part else part.partition("^")
        k = int(num)
        if kind == "cyclic":
            order *= k
        elif kind == "s":
            order *= math.factorial(k)
        elif kind == "z2":
            order *= 2**k
        else:
            raise ValueError(f"unknown spec {spec!r}")
    return order


def base_table(spec: str) -> np.ndarray:
    """Multiplication table with identity 0, built without the package."""
    tables = []
    for part in spec.split("+"):
        if part.startswith("cyclic:"):
            n = int(part[len("cyclic:") :])
            idx = np.arange(n)
            tables.append((idx[:, None] + idx[None, :]) % n)
        elif part.startswith("z2^"):
            idx = np.arange(2 ** int(part[len("z2^") :]))
            tables.append(idx[:, None] ^ idx[None, :])
        elif part.startswith("s:"):
            perms = sorted(itertools.permutations(range(int(part[len("s:") :]))))
            index = {p: i for i, p in enumerate(perms)}
            tables.append(
                np.array(
                    [[index[tuple(p[x] for x in q)] for q in perms] for p in perms]
                )
            )
        else:
            raise ValueError(f"unknown spec {spec!r}")
    table = tables[0]
    for t in tables[1:]:
        h = len(t)
        # (a1,b1)*(a2,b2) with pair index a*h + b
        table = (table[:, None, :, None] * h + t[None, :, None, :]).reshape(
            len(table) * h, len(table) * h
        )
    return table


def relabel(table: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The table of the same group with element x renamed sigma[x]."""
    out = np.empty_like(table)
    out[sigma[:, None], sigma[None, :]] = sigma[table]
    return out


def identity_to_zero(table: np.ndarray) -> np.ndarray:
    """Swap the labels of the identity and 0, as validation normalizes."""
    n = len(table)
    idx = np.arange(n)
    e = next(c for c in range(n) if (table[c] == idx).all() and (table[:, c] == idx).all())
    tau = idx.copy()
    tau[0], tau[e] = e, 0
    return relabel(table, tau)


def check_homomorphisms(values: list[tuple[int, ...]], tg, th) -> None:
    """Every value tuple satisfies phi(ab) = phi(a)phi(b); the list is
    strictly increasing."""
    expect(values == sorted(set(values)), "homomorphisms not sorted and distinct")
    if not values:
        return
    g = np.array(tg, dtype=np.int16)
    h = np.array(th, dtype=np.int16)
    for start in range(0, len(values), 2048):
        phi = np.array(values[start : start + 2048], dtype=np.int16)
        lhs = phi[:, g]                                 # phi(a*b)
        rhs = h[phi[:, :, None], phi[:, None, :]]       # phi(a)*phi(b)
        bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
        if bad.size:
            raise Mismatch(f"map {values[start + int(bad[0])]} is not a homomorphism")


# ------------------------------------------------------------ Boolean


def point_bits(idx: int, m: int) -> tuple[int, ...]:
    return tuple((idx >> (m - 1 - k)) & 1 for k in range(m))


def ball(idx: int, m: int) -> list[int]:
    return sorted({idx} | {idx ^ (1 << k) for k in range(m)})


def anf_monomials(column: list[int], m: int) -> list[int]:
    """Moebius transform: the monomials (as variable bitmasks) of a 0/1 table."""
    coeff = list(column)
    for i in range(m):
        bit = 1 << i
        for x in range(2**m):
            if x & bit:
                coeff[x] ^= coeff[x ^ bit]
    return [x for x in range(2**m) if coeff[x]]


def render_monomial(mask: int, m: int) -> str:
    """Bit m-1-k of the mask stands for variable k, as in point indices."""
    letters = "".join(VARS[k] for k in range(m) if (mask >> (m - 1 - k)) & 1)
    return letters or "1"


def render_polynomial(monomials: list[int], m: int) -> str:
    return "+".join(render_monomial(x, m) for x in monomials) if monomials else "0"


def render_source(components: list[list[int]], m: int) -> str:
    parts = [render_polynomial(c, m) for c in components]
    return parts[0] if len(parts) == 1 else "(" + ", ".join(parts) + ")"


def evaluate(components: list[list[int]], m: int) -> list[tuple[int, ...]]:
    """Truth table of a polynomial map given by monomial masks."""
    return [
        tuple(sum((x & mono) == mono for mono in comp) & 1 for comp in components)
        for x in range(2**m)
    ]


def matrix_bits(code: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the continuous linear map with column code ``code``:
    column j is zero (code 0) or unit vector code[j]-1."""
    return tuple(tuple(int(c == i + 1) for c in code) for i in range(n))


def boolean_differentials(table, m: int, n: int, b: int) -> set:
    """Differentials at b among continuous linear maps, by closed form.

    The isolated candidate's column k is forced to f(b) + f(b + e_k); it
    counts when every column has weight at most one, at least two
    distinct columns are nonzero and the columns sum to f(b) over the
    bits of b.  The zero matrix and each single-column family need
    every value near b to lie in their image, and f(0) = 0 when the
    origin is near b.
    """
    near = ball(b, m)
    fb = table[b]
    out = set()
    cols = [tuple(x ^ y for x, y in zip(fb, table[b ^ (1 << (m - 1 - k))])) for k in range(m)]
    if all(sum(c) <= 1 for c in cols):
        distinct = {c for c in cols if any(c)}
        total = [0] * n
        for k in range(m):
            if (b >> (m - 1 - k)) & 1:
                total = [t ^ c for t, c in zip(total, cols[k])]
        if len(distinct) >= 2 and tuple(total) == fb:
            code = tuple(c.index(1) + 1 if any(c) else 0 for c in cols)
            out.add(matrix_bits(code, n))
    origin_ok = 0 not in near or not any(table[0])
    if not origin_ok:
        return out
    if all(sum(table[x]) <= 1 for x in near):
        out.add(matrix_bits((0,) * m, n))
    for beta in range(1, n + 1):
        unit = tuple(int(i + 1 == beta) for i in range(n))
        if all(table[x] == unit or not any(table[x]) for x in near):
            for pick in itertools.product((0, beta), repeat=m):
                if any(pick):
                    out.add(matrix_bits(pick, n))
    return out


def census_pattern(table, m: int) -> tuple[bool, ...]:
    """Scalar census by the rule: differentiable off the origin's ball,
    and on it exactly when f(0) = 0."""
    origin = set(ball(0, m))
    return tuple(b not in origin or table[0] == (0,) for b in range(2**m))
