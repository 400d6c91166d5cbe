"""Differential calculus on finite convergence spaces.

Finite reflexive digraphs carry a convergence structure in which
continuity means preserving edges; Cayley graphs of finite groups are
the central examples.  The package computes spaces of continuous
homomorphisms, differentials of arbitrary maps at a point, and the
GF(2) matrix calculus on Boolean hypercubes, with independent oracle
routes cross-checking every classification.
"""

from . import anf, boolean, cayley, differential, errors, groups, guards, spaces
from .boolean import (
    BoolFunction,
    GF2Matrix,
    boolean_differentials_at,
    hypercube,
    is_differentiable_at,
    leibniz_probe,
    scalar_differentiability_census,
    solve_matrix_equation,
)
from .cayley import (
    CayleyGraph,
    cayley_graph,
    diff_space,
    left_mult_automorphism_check,
)
from .differential import (
    DifferentialQuery,
    chain_rule_check,
    differential_oracle,
    differentials_at,
    differentials_by_theorem,
    integers_differentiable_at,
    t1_forces_value_check,
)
from .groups import (
    FiniteGroup,
    GeneratingSet,
    closure,
    cyclic_group,
    direct_sum,
    element_order,
    enumerate_homomorphisms,
    group_from_table,
    symmetric_group,
    validate_generating_set,
    z2_power_group,
)
from .spaces import (
    FiniteMap,
    MapSpace,
    PrincipalFilter,
    ReflexiveDigraph,
    box_product,
    categorical_product,
    continuous_maps,
    converges,
    hom_neighbor,
    is_continuous,
    is_continuous_at,
    is_isolated,
    pentacle,
    space_properties,
)

__version__ = "0.1.0"
