"""Parser for polynomial (algebraic normal form) function sources.

Syntax: ``+`` is XOR, juxtaposition or ``*`` is AND, constants are
``0`` and ``1``, variables are the single letters ``p`` through ``z``
ranked alphabetically (p is variable 1 and the most significant bit of
a point index).  A vector-valued function is a parenthesized
comma-separated tuple of expressions that spans the whole source, e.g.
``(p,(1+p)(1+q),q)``; one parser reads both kinds of source.
:func:`row_anf` and :func:`matrix_anf` render linear maps back into
this notation.

:func:`tabulate` evaluates each component once over all 2^m points,
bit-sliced: a value is a 2^m-bit integer whose bit i is the value at
point i, so a variable is a fixed mask, ``+`` is XOR and a product is
AND.  The per-point evaluator :func:`_eval` is the reference route
(:func:`_tabulate_by_points`) that the tests compare it against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from . import guards
from .errors import DimMismatch, MalformedTable

if TYPE_CHECKING:
    from .gf2 import GF2Matrix

__all__ = [
    "tabulate",
    "row_anf",
    "matrix_anf",
]

_VARS = "pqrstuvwxyz"
_FACTOR_START = frozenset("01(" + _VARS)


class _Parser:
    """Recursive descent over the non-space characters of ``text``.

    The characters are tokenised once, with ``None`` as the end marker;
    error messages give positions in the original text.  A parenthesized
    comma list of two or more expressions is a tuple, legal only as the
    whole source.
    """

    def __init__(self, text: str):
        self.text = text
        self.chars = [*"".join(text.split()), None]
        self.i = 0

    @property
    def pos(self) -> int:
        """Position in ``text`` of the current character (its length at the end)."""
        at = [j for j, ch in enumerate(self.text) if not ch.isspace()]
        return (at + [len(self.text)])[self.i]

    def parse(self) -> list:
        """The component ASTs: one for a scalar source, one per item of a
        tuple."""
        node = self.expr()
        if self.chars[self.i] is not None:
            pos = self.pos
            raise MalformedTable(f"trailing input at position {pos}: {self.text[pos:]!r}")
        return node[1] if node[0] == "tuple" else [node]

    def expr(self):
        terms = [self.term()]
        while self.chars[self.i] == "+":
            self.i += 1
            terms.append(self.term())
        return ("xor", terms) if len(terms) > 1 else terms[0]

    def term(self):
        factors = [self.factor()]
        while True:
            ch = self.chars[self.i]
            if ch == "*":
                self.i += 1
                factors.append(self.factor())
            elif ch in _FACTOR_START:
                factors.append(self.factor())
            else:
                break
        return ("and", factors) if len(factors) > 1 else factors[0]

    def factor(self):
        ch = self.chars[self.i]
        if ch == "(":
            start = self.i
            self.i += 1
            items = [self.expr()]
            while self.chars[self.i] == ",":
                self.i += 1
                items.append(self.expr())
            if self.chars[self.i] != ")":
                raise MalformedTable(f"missing ')' at position {self.pos}")
            self.i += 1
            if len(items) == 1:
                return items[0]
            if start or self.chars[self.i] is not None:
                raise MalformedTable(f"a tuple must be the whole source: {self.text.strip()!r}")
            return ("tuple", items)
        if ch == "0" or ch == "1":
            self.i += 1
            return ("const", int(ch))
        if ch is not None and ch in _VARS:
            self.i += 1
            return ("var", _VARS.index(ch))
        raise MalformedTable(f"unexpected character {ch!r} at position {self.pos}")


def _eval(node, bits: tuple[int, ...]) -> int:
    """Value of ``node`` at the point ``bits``: the per-point reference
    route (:func:`_tabulate_by_points`) that :func:`tabulate` is tested
    against."""
    kind, payload = node
    if kind == "const":
        return payload
    if kind == "var":
        if payload >= len(bits):
            raise DimMismatch(
                f"variable {_VARS[payload]!r} needs at least {payload + 1} bits"
            )
        return bits[payload]
    if kind == "xor":
        acc = 0
        for child in payload:
            acc ^= _eval(child, bits)
        return acc
    acc = 1
    for child in payload:
        acc &= _eval(child, bits)
        if not acc:
            return 0
    return acc


def _components(source: str, m: int | None) -> tuple[int, list]:
    """Parse ``source`` into component ASTs and settle the bit count m,
    checking the ``bool_table_dim`` guard on it."""
    components = _Parser(source).parse()
    # every letter of a parsed source is a variable (find gives -1 elsewhere)
    needed = max(map(_VARS.find, source), default=-1) + 1
    if m is None:
        if needed == 0:
            raise DimMismatch("constant expression needs an explicit bit count")
        m = needed
    if m < needed:
        raise DimMismatch(f"expression uses {needed} variables but m = {m}")
    guards.check("bool_table_dim", m, "boolean function table")
    return m, components


def _var_masks(m: int) -> list[int]:
    """Mask k has bit i set when variable k is 1 at point i, i.e. when
    index bit m - 1 - k of i is set."""
    size = 1 << m
    masks = []
    for k in range(m):
        run = 1 << (m - 1 - k)
        mask = ((1 << run) - 1) << run
        width = 2 * run
        while width < size:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _eval_mask(node, masks: list[int], ones: int) -> int:
    """Value of ``node`` at every point at once: bit i is its value at
    point i, so ``+`` is XOR and a product is AND."""
    kind, payload = node
    if kind == "var":
        return masks[payload]
    if kind == "const":
        return ones if payload else 0
    if kind == "xor":
        acc = 0
        for child in payload:
            acc ^= _eval_mask(child, masks, ones)
        return acc
    acc = ones
    for child in payload:
        acc &= _eval_mask(child, masks, ones)
        if not acc:
            return 0
    return acc


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def tabulate(source: str, m: int | None = None) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Evaluate a (possibly vector) polynomial source on all points.

    Returns (m, table) where table[i] is the output tuple at the point
    whose bits spell i with variable 1 as the most significant bit.  The
    ``bool_table_dim`` guard is checked before any point is evaluated.

    Each component is evaluated once, bit-sliced over all 2^m points
    (:func:`_eval_mask`); its bits then become a column of 0/1 values.
    """
    m, components = _components(source, m)
    size = 1 << m
    masks = _var_masks(m)
    ones = (1 << size) - 1
    spec = f"0{size}b"
    # format spells the last point's bit first, hence the reversal
    columns = [
        format(_eval_mask(node, masks, ones), spec)[::-1].encode().translate(_DIGIT_BITS)
        for node in components
    ]
    return m, tuple(zip(*columns))


def _tabulate_by_points(source: str, m: int | None = None) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Reference route for :func:`tabulate`, kept for the tests: the
    same table from :func:`_eval`, one point at a time."""
    m, components = _components(source, m)
    table = []
    for idx in range(2**m):
        bits = tuple((idx >> (m - 1 - k)) & 1 for k in range(m))
        table.append(tuple(_eval(node, bits) for node in components))
    return m, tuple(table)


def row_anf(row: Sequence[int]) -> str:
    """Render one matrix row as a polynomial over p, q, r, ..."""
    terms = [j for j, bit in enumerate(row) if bit]
    if terms and terms[-1] >= len(_VARS):
        raise DimMismatch(
            f"variable {terms[-1] + 1} has no name: polynomial notation names only "
            f"the {len(_VARS)} variables {_VARS[0]}..{_VARS[-1]}"
        )
    return "+".join(_VARS[j] for j in terms) or "0"


def matrix_anf(mt: GF2Matrix) -> str:
    """Render a whole matrix as a tuple of row polynomials."""
    return "(" + ", ".join(row_anf(r) for r in mt.bits) + ")"
