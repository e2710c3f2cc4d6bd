"""Reductive homogeneous spaces: invariant metric connections with
skew torsion, their curvature, and homogeneous Einstein equations."""

from . import catalog, connections, curvature, einstein, equivariant, liealg, reductive
from .liealg import (
    InnerProduct,
    LieAlgebra,
    LieAlgebraError,
    bprime,
    build_g2,
    build_so,
    build_sp,
    build_su,
    build_u,
    direct_sum,
    gram_schmidt,
    negative_killing,
    stabilizer_subalgebra,
)
from .reductive import (
    CasimirData,
    MetricSpec,
    ReductiveError,
    ReductiveSpace,
    casimir,
    check_inclusions,
    decompose,
    lie_group_space,
    split_isotropy,
    verify_use1,
)
from .connections import (
    BilinearMapOnU,
    NomizuMap,
    biinvariant_family,
    exotic_un_maps,
    is_derivation,
    is_metric,
    linear_combination_stc_rank,
    nomizu_alpha,
    nomizu_levi_civita_gt,
    nomizu_st,
    satisfies_stc,
)
from .curvature import (
    Tensor2,
    Tensor3,
    Tensor31,
    codifferential,
    jacobian_m,
    nabla_torsion,
    ricci_alpha_closed,
    ricci_oracle,
    ricci_st_closed,
    s_tensor,
    torsion,
    torsion_type,
    verify_stary,
)
from .einstein import (
    QuadraticReport,
    einstein_defect,
    nabla_alpha_einstein_residual,
    riemannian_quadratic,
    skew_einstein_quadratic,
    thm4_identity_residual,
)
from .equivariant import EquivariantSolveResult, certify_bracket_span, hom_dimension
from .catalog import (
    FamilySpec,
    SpaceDescriptor,
    build_space,
    family_dims,
    family_table,
    killing_einstein_p,
    killing_einstein_table,
)

__version__ = "0.1.0"
