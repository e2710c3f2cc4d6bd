"""Every pass/fail threshold and numerical cut of redhom, in one place.

``TOL`` holds the values the library reads.  A field decides one thing,
and every site that decides it reads that field.

Check thresholds decide a verdict: a residual passes when it is below its
threshold.  The CLI's ``--tol T`` scales all of them by T / ``REFERENCE_TOL``
(``Tolerances.scaled``), so at the default ``--tol`` each is exactly its
value here.  Numerical cuts decide a rank, a zero or a split, and so move
computed numbers rather than verdicts; they never scale.  Library gates
read ``TOL`` itself, so no scaled instance reaches them.
"""

from typing import NamedTuple

# The --tol at which the check thresholds below are written.
REFERENCE_TOL = 1e-9


class Tolerances(NamedTuple):
    """One field per decision, each at the value the package was built with.

    Immutable.  A ``NamedTuple`` rather than a frozen dataclass: every cold
    CLI process builds this class, and for 43 fields the dataclass
    machinery costs about five times what the tuple does.
    """

    # -- check thresholds ------------------------------------------------------
    # algebra and space validation: ``validate`` of ``LieAlgebra`` and
    # ``ReductiveSpace`` (every build), ``space build`` and the reductive/* rows
    valid: float = 1e-8
    # a matrix or bracket outside a span (relative to max(1, |x|) where the
    # site scales): ``coefficients``, bracket closure of ``from_basis`` and
    # ``stabilizer_subalgebra``, the ideal leak of ``biinvariant_family``
    span: float = 1e-8
    use1: float = 1e-8                  # the Casimir trace identities of ``verify_use1``
    # the Casimir operator is one scalar per summand: reductive/casimir_scalar
    # and the spread gate of the Einstein quadratics
    summand_scalar: float = 1e-7
    inclusions: float = 1e-8            # ``check_inclusions`` and reductive/incl_*
    summand_stable: float = 1e-7        # ``split_isotropy``: each block is ad(k)-stable
    summand_order: float = 1e-7         # ``split_isotropy``: some order meets the inclusions
    isotropy_skew: float = 1e-10        # ``group_spot_check``: ad(k) skew (relative)
    bracket_certificate: float = 1e-9   # ``certify_bracket_span`` (relative)
    equivariance: float = 1e-9          # connections/equivariance_*
    stc: float = 1e-9                   # ``satisfies_stc`` and connections/stc_*
    metric: float = 1e-9                # ``is_metric``
    derivation: float = 1e-9            # ``is_derivation``
    mu_axis: float = 1e-8               # ``linear_combination_stc_rank``: only mu survives
    # torsion is totally skew: ``Tensor3.is_totally_skew``, ``tensor torsion``
    # and the skew test inside connections/skew_iff_killing_*
    torsion_skew: float = 1e-9
    skew_torsion_gate: float = 1e-7     # ``scalar_relation_residual`` applies
    jacobian: float = 1e-9              # ``jacobian_m``: the cyclic Jacobian vanishes
    oracle: float = 1e-8                # curvature/oracle_*: closed Ricci against the trace
    ricci_symmetry: float = 1e-9        # curvature/ricci_symmetric_*
    codifferential: float = 1e-9        # curvature/codifferential_*
    scalar_relation: float = 1e-8       # curvature/scalar_relation_s3
    einstein_root: float = 1e-8         # einstein/riemannian_root_* and skew_root_*
    root_match: float = 1e-8            # the killing_root and kahler_root flags
    thm4: float = 1e-7                  # einstein/thm4_identity
    nabla_alpha: float = 1e-7           # einstein/nabla_alpha_*
    group_scalar: float = 1e-8          # einstein/group_scalar_alpha2

    # -- numerical cuts (``CUTS``: every field from here on) -------------------
    nullspace_rtol: float = 1e-10       # ``nullspace``: relative singular-value cut
    independence: float = 1e-10         # ``matrix_rank`` of a basis that must be independent
    structure_zero: float = 1e-9        # ``from_basis`` zeroes smaller constants
    dependence: float = 1e-9            # ``gram_schmidt`` pivot (relative)
    ideal_rank: float = 1e-8            # ``ideal_generated_by`` (relative)
    transvection_rank: float = 1e-8     # ``ricci_alpha_closed``: g = m + [m, m]
    stc_rank: float = 1e-8              # ``linear_combination_stc_rank`` (relative)
    gram_symmetry: float = 1e-10        # ``InnerProduct``: symmetric gram
    gram_positive: float = 1e-12        # ``InnerProduct``: smallest eigenvalue
    central: float = 1e-12              # ``negative_killing``: a central basis vector
    cluster_gap: float = 1e-6           # ``split_isotropy``: eigenvalue cluster gap
    uniform_scale: float = 1e-14        # a metric whose scales all agree
    quadratic_zero: float = 1e-10       # ``solve_quadratic`` (relative)
    skew_quadratic_zero: float = 1e-9   # ``solve_skew_quadratic``
    hom_rank: float = 1e-7              # ``hom_dimension``: lambda cut over lambda_max
    rank_gap_min: float = 1e3           # ``hom_dimension``: smallest accepted gap
    weight_zero: float = 1e-8           # ``hom_dimension``: a zero weight (relative)

    def scaled(self, tol: float) -> "Tolerances":
        """Every check threshold times tol / ``REFERENCE_TOL``; cuts as they are."""
        factor = tol / REFERENCE_TOL
        return self._replace(**{name: value * factor for name, value in zip(self._fields, self)
                                if name not in CUTS})


CUTS = frozenset(Tolerances._fields[Tolerances._fields.index("nullspace_rtol"):])
TOL = Tolerances()
