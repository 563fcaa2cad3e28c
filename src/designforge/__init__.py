"""Designs from finite simple permutation groups.

Two constructions are provided: blocks as group translates of a point-
stabilizer orbit, and points as a conjugacy class with blocks cut out by
the conjugates of a maximal subgroup.  On top of these sit reductions,
duals, t-design verification, automorphism-group search, and lift tests
for normalizing maps of the acting group.
"""

from .atlas import (
    GroupRecipe,
    ProjectiveLine,
    build_alternating,
    build_pgammal2,
    build_psl2,
    build_symmetric,
    diagonal_map_on_projline,
    embed_pgl2,
    frobenius_on_projline,
    load_group,
    mathieu_group,
    normalizer_of_cyclic,
    point_stabilizer_subgroup,
    psl2_order,
)
from .autsearch import (
    AutResult,
    aut_group,
    is_design_automorphism,
    kernel_generators,
    lift_test_method1,
    lift_test_method2,
    reduction_kernel_order,
    verify_kernel_intersection,
    verify_kernel_quotient,
)
from .construct import (
    CosetAction,
    Method1Design,
    Method2Design,
    coset_action,
    method1_design,
    method2_design,
    perm_char_value,
    stabilizer_orbits,
)
from .design import (
    DesignParams,
    IncidenceStructure,
    ReducedStructure,
    dual_design,
    read_design,
    reduce_design,
    t_design_lambda,
    validate_1design,
    write_design,
)
from .errors import (
    BudgetExceeded,
    DesignForgeError,
    InternalInconsistency,
    InvalidField,
    InvalidGenerators,
    NonUniformBlockSize,
    NonUniformReplication,
    NotASubgroupElement,
    NotFound,
    NotTDesign,
    OrbitOverflow,
    PartitionViolation,
)
from .gf import FieldElem, FieldSpec, field_make, frobenius, is_square, subfield_embedding
from .group import (
    PermGroup,
    centralizer,
    conjugacy_class,
    element_of_order,
    find_imprimitivity,
    minimal_block_system,
    normalizing_map_check,
    orbit_with_stabilizer,
    orbit_with_transversal,
    subgroup_closure,
)
from .perm import Permutation, parse_cycle_string, read_generator_file, write_generator_file

__version__ = "0.1.0"
