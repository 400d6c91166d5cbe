"""Exception types shared across the package.

Every error raised on a bad input subclasses :class:`Error`, so callers
(and the CLI) can distinguish user mistakes from genuine bugs.
:class:`CrossCheckMismatch` is reserved for the latter: two independent
computations of the same value disagreed.

:class:`Record` is the base of the package's immutable value records.
"""

from __future__ import annotations

__all__ = [
    "Error",
    "MalformedTable",
    "NoIdentity",
    "NoInverse",
    "NotAssociative",
    "SizeGuardExceeded",
    "BadGuardOverride",
    "NotGenerating",
    "Redundant",
    "NotContinuous",
    "NotCayley",
    "DimMismatch",
    "WindowTooSmall",
    "HypothesisViolated",
    "NotDifferentiable",
    "CrossCheckMismatch",
]


class Error(Exception):
    """Base class for all package errors."""


class MalformedTable(Error):
    """Multiplication table is not square or has out-of-range entries."""


class NoIdentity(Error):
    """No two-sided identity element exists in the table."""


class NoInverse(Error):
    """Some element has no two-sided inverse."""

    def __init__(self, element: int):
        super().__init__(f"element {element} has no two-sided inverse")
        self.element = element


class NotAssociative(Error):
    """The table fails associativity; carries the first violating triple."""

    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"associativity fails at triple ({a}, {b}, {c})")
        self.triple = (a, b, c)


class SizeGuardExceeded(Error):
    """A computation would exceed a documented size guard."""


class BadGuardOverride(Error):
    """A ``CAYLEYDIFF_MAX_*`` override is not a non-negative integer or names no guard."""


class NotGenerating(Error):
    """Candidate generating set does not generate the whole group."""

    def __init__(self, missing: tuple[int, ...]):
        super().__init__(f"set does not generate; unreachable elements {list(missing)}")
        self.missing = missing


class Redundant(Error):
    """A generator is a product of the others; carries a witness word."""

    def __init__(self, generator: int, word: tuple[int, ...]):
        super().__init__(
            f"generator {generator} is redundant; witness word {list(word)}"
        )
        self.generator = generator
        self.word = word


class NotContinuous(Error):
    """A map required to be continuous is not."""


class NotCayley(Error):
    """Operation needs Cayley structure but was given a bare map space."""


class DimMismatch(Error):
    """Point or matrix dimensions do not match the ambient space."""


class WindowTooSmall(Error):
    """An integer window does not cover the points the criterion reads."""


class HypothesisViolated(Error):
    """A theorem-check hypothesis (e.g. continuity at a point) fails."""


class NotDifferentiable(Error):
    """A probe requires a differential that does not exist."""


class CrossCheckMismatch(Error):
    """Two independent routes to the same value disagree: a soundness bug."""


class Record:
    """Base of the package's immutable value records.

    A subclass lists its fields in ``__match_args__``, in order, stores
    them in its own ``__init__`` through :data:`set_field`, and defines
    ``__eq__`` (between instances of the same class only) and
    ``__hash__`` over the fields it compares.  The base supplies the
    repr, ``Name(field=value, ...)``, and refuses assignment and
    deletion with ``FrozenInstanceError``, an :class:`AttributeError`.
    That error is imported only when it is raised: its module loads
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, a large share of the
    import time of a CLI call.
    """

    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


# stores a field past Record.__setattr__; __init__ methods call it directly
set_field = object.__setattr__


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
