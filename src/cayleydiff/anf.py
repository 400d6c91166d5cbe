"""Parser for polynomial (algebraic normal form) function sources.

Syntax: ``+`` is XOR, juxtaposition or ``*`` is AND, constants are
``0`` and ``1``, variables are the single letters ``p`` through ``z``
ranked alphabetically (p is variable 1 and the most significant bit of
a point index).  A vector-valued function is a parenthesized
comma-separated tuple of expressions, e.g. ``(p,(1+p)(1+q),q)``.
:func:`row_anf` and :func:`matrix_anf` render linear maps back into
this notation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from . import guards
from .errors import DimMismatch, MalformedTable

if TYPE_CHECKING:
    from .gf2 import GF2Matrix

__all__ = [
    "split_components",
    "parse_expression",
    "variables_used",
    "tabulate",
    "row_anf",
    "matrix_anf",
]

_VARS = "pqrstuvwxyz"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise MalformedTable("unexpected end of expression")
        self.pos += 1
        return ch

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise MalformedTable(
                f"trailing input at position {self.pos}: {self.text[self.pos:]!r}"
            )
        return node

    def expr(self):
        terms = [self.term()]
        while self.peek() == "+":
            self.take()
            terms.append(self.term())
        return ("xor", terms) if len(terms) > 1 else terms[0]

    def term(self):
        factors = [self.factor()]
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                factors.append(self.factor())
            elif ch is not None and (ch in "01(" or ch in _VARS):
                factors.append(self.factor())
            else:
                break
        return ("and", factors) if len(factors) > 1 else factors[0]

    def factor(self):
        ch = self.peek()
        if ch == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                raise MalformedTable(f"missing ')' at position {self.pos}")
            self.take()
            return node
        if ch in ("0", "1"):
            self.take()
            return ("const", int(ch))
        if ch is not None and ch in _VARS:
            self.take()
            return ("var", _VARS.index(ch))
        raise MalformedTable(f"unexpected character {ch!r} at position {self.pos}")


def parse_expression(text: str):
    """Parse one scalar expression into an AST."""
    return _Parser(text).parse()


def _eval(node, bits: tuple[int, ...]) -> int:
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


def variables_used(node) -> set[int]:
    kind, payload = node
    if kind == "var":
        return {payload}
    if kind == "const":
        return set()
    out: set[int] = set()
    for child in payload:
        out |= variables_used(child)
    return out


def split_components(source: str) -> list[str]:
    """Split a tuple source into component expressions.

    ``(a, b, c)`` splits on its top-level commas; anything else is a
    single component.
    """
    s = source.strip()
    if not s.startswith("("):
        return [s]
    depth = 0
    cuts = []
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i != len(s) - 1:
                return [s]  # the leading paren is a grouping paren
            if depth < 0:
                raise MalformedTable("unbalanced parentheses")
        elif ch == "," and depth == 1:
            cuts.append(i)
    if depth != 0:
        raise MalformedTable("unbalanced parentheses")
    if not cuts:
        return [s]
    parts = []
    prev = 0
    for cut in cuts:
        parts.append(s[prev + 1 : cut])
        prev = cut
    parts.append(s[prev + 1 : -1])
    return [p.strip() for p in parts]


def tabulate(source: str, m: int | None = None) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Evaluate a (possibly vector) polynomial source on all points.

    Returns (m, table) where table[i] is the output tuple at the point
    whose bits spell i with variable 1 as the most significant bit.  The
    ``bool_table_dim`` guard is checked before any point is evaluated.
    """
    components = [parse_expression(c) for c in split_components(source)]
    used: set[int] = set()
    for node in components:
        used |= variables_used(node)
    needed = max(used) + 1 if used else 0
    if m is None:
        if needed == 0:
            raise DimMismatch("constant expression needs an explicit bit count")
        m = needed
    if m < needed:
        raise DimMismatch(f"expression uses {needed} variables but m = {m}")
    guards.check("bool_table_dim", m, "boolean function table")
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
