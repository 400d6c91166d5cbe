"""Differential calculus on finite convergence spaces.

Finite reflexive digraphs carry a convergence structure in which
continuity means preserving edges; Cayley graphs of finite groups are
the central examples.  The package computes spaces of continuous
homomorphisms, differentials of arbitrary maps at a point, and the
GF(2) matrix calculus on Boolean hypercubes, with independent oracle
routes cross-checking every classification.

Submodules load lazily (PEP 562): ``import cayleydiff`` imports none of
them, and each name below is imported from its submodule on first use.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "BoolFunction": "boolean",
    "GF2Matrix": "gf2",
    "boolean_differentials_at": "boolean",
    "is_differentiable_at": "boolean",
    "leibniz_probe": "boolean",
    "scalar_differentiability_census": "boolean",
    "solve_matrix_equation": "boolean",
    "CayleyGraph": "cayley",
    "cayley_graph": "cayley",
    "diff_space": "cayley",
    "hypercube": "cayley",
    "left_mult_automorphism_check": "cayley",
    "DifferentialQuery": "differential",
    "chain_rule_check": "differential",
    "differential_oracle": "differential",
    "differentials_at": "differential",
    "differentials_by_theorem": "differential",
    "t1_forces_value_check": "differential",
    "FiniteGroup": "groups",
    "GeneratingSet": "groups",
    "closure": "groups",
    "cyclic_group": "groups",
    "direct_sum": "groups",
    "element_order": "groups",
    "enumerate_homomorphisms": "groups",
    "group_from_table": "groups",
    "symmetric_group": "groups",
    "validate_generating_set": "groups",
    "z2_power_group": "groups",
    "FiniteMap": "spaces",
    "MapSpace": "spaces",
    "PrincipalFilter": "spaces",
    "ReflexiveDigraph": "spaces",
    "box_product": "spaces",
    "categorical_product": "spaces",
    "continuous_maps": "spaces",
    "converges": "spaces",
    "hom_neighbor": "spaces",
    "is_continuous": "spaces",
    "is_continuous_at": "spaces",
    "is_isolated": "spaces",
    "pentacle": "spaces",
    "space_properties": "spaces",
}

# submodules served as attributes, as when the package imported them eagerly
_SUBMODULES = (
    "anf",
    "boolean",
    "cayley",
    "differential",
    "errors",
    "gf2",
    "groups",
    "guards",
    "spaces",
)

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
