"""Size guards for operations with exponential or cubic worst cases.

Every limit can be overridden with an environment variable named
``CAYLEYDIFF_MAX_<NAME>``, e.g. ``CAYLEYDIFF_MAX_GROUP_ORDER=2048``.
Limits are read at call time so overrides apply without reimport.
Names that match no limit are rejected by :func:`check_overrides`.
"""

from __future__ import annotations

import os

from .errors import BadGuardOverride, SizeGuardExceeded

__all__ = ["DEFAULT_LIMITS", "limit", "check", "check_overrides"]

ENV_PREFIX = "CAYLEYDIFF_MAX_"

DEFAULT_LIMITS = {
    # largest multiplication table accepted (validation is O(n^2 log n))
    "group_order": 1024,
    # generator-image assignments swept by homomorphism enumeration: the
    # product over generators of the allowed images whose order divides
    # the generator's (in D(C,D) only images in N(e) are allowed, and its
    # oracle sweeps all |N(e)|^|S| of them)
    "hom_candidates": 10**6,
    # total maps swept when enumerating continuous maps exhaustively
    "map_enumeration": 10**7,
    # vertices in a box or categorical product
    "product_vertices": 65536,
    # |N(a)| * |map space| in the differential oracle, and |maps|^2 pair
    # comparisons in the D(C,D) oracle of diff_space(cross_check=True)
    "oracle_work": 10**6,
    # bits per point in dense Boolean function tables
    "bool_table_dim": 20,
    # candidate matrices swept by the Boolean differential routines
    "bool_candidates": 10**6,
}


def limit(name: str) -> int:
    """Current limit for ``name``, honoring environment overrides.

    An override that is not a non-negative integer raises
    :class:`BadGuardOverride` rather than falling back to the default.
    """
    var = ENV_PREFIX + name.upper()
    raw = os.environ.get(var)
    if raw is None:
        return DEFAULT_LIMITS[name]
    try:
        value = int(raw)
    except ValueError:
        raise BadGuardOverride(f"{var}={raw!r} is not an integer")
    if value < 0:
        raise BadGuardOverride(f"{var}={raw!r} is negative")
    return value


def check(name: str, value: int, what: str) -> None:
    """Raise :class:`SizeGuardExceeded` if ``value`` exceeds the limit."""
    cap = limit(name)
    if value > cap:
        raise SizeGuardExceeded(
            f"{what} needs {value}, exceeds guard {name}={cap} "
            f"(override with {ENV_PREFIX}{name.upper()})"
        )


def check_overrides() -> None:
    """Raise :class:`BadGuardOverride` for a ``CAYLEYDIFF_MAX_*`` variable
    that names no limit, so a misspelt override is not silently ignored."""
    known = [ENV_PREFIX + name.upper() for name in DEFAULT_LIMITS]
    for var in sorted(os.environ):
        if var.startswith(ENV_PREFIX) and var not in known:
            raise BadGuardOverride(f"{var} names no size guard; known: {', '.join(known)}")
