"""Exception types shared across the package.

Every error raised on a bad input subclasses :class:`Error`, so callers
(and the CLI) can distinguish user mistakes from genuine bugs.
:class:`CrossCheckMismatch` is reserved for the latter: two independent
computations of the same value disagreed.

:class:`Record` is the base of the package's immutable value records.
"""

from __future__ import annotations

from operator import attrgetter

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


class HypothesisViolated(Error):
    """A theorem-check hypothesis (e.g. continuity at a point) fails."""


class NotDifferentiable(Error):
    """A probe requires a differential that does not exist."""


class CrossCheckMismatch(Error):
    """Two independent routes to the same value disagree: a soundness bug."""


class Record:
    """Base of the package's immutable value records.

    A record declares each field once, as an annotation in its class
    body, in order; a field with a default is written
    ``name: type = default``.  A record may also name, in ``_compared``,
    the fields that ``==`` and ``hash`` use (all of them if it does
    not), and define ``_validate``, which checks the stored fields and
    raises a package error.  A subclass that declares no field keeps
    its parent's.

    From the fields the base supplies ``__match_args__``, one
    ``__init__`` that binds arguments as a function with that signature
    would, applies the defaults, stores the fields and calls
    ``_validate``; ``__eq__`` (between instances of the same class
    only) and ``__hash__``, both over the compared fields as a tuple;
    the repr, ``Name(field=value, ...)``; and refusal of assignment and
    deletion with ``FrozenInstanceError``, an :class:`AttributeError`.
    That error is imported only when it is raised: its module loads
    ``inspect``, ``ast``, ``dis`` and ``tokenize``, a large share of the
    import time of a CLI call.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not fields:
            return
        cls.__match_args__ = fields
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        compared = cls.__dict__.get("_compared", fields)
        get = attrgetter(*compared)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(compared) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__match_args__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            set_field(self, name, value)
        self._validate()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values, in order, for a call other than one
        positional argument per field."""
        fields, name = self.__match_args__, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args) :]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        if kwargs:
            raise TypeError(
                f"{name}() got keyword argument {next(iter(kwargs))!r}, "
                "which names no field or one already given by position"
            )
        return values

    def _validate(self) -> None:
        """Check the stored fields; a record with checks overrides this."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


# stores a field past Record.__setattr__
set_field = object.__setattr__


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
