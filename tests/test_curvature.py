import numpy as np
import pytest

from redhom.connections import (
    NomizuMap,
    nomizu_alpha,
    nomizu_levi_civita_gt,
    nomizu_st,
)
from redhom.curvature import (
    codifferential,
    curvature,
    jacobian_m,
    nabla_torsion,
    ricci_alpha_closed,
    ricci_oracle,
    ricci_st_closed,
    s_tensor,
    s_tensor_alpha_closed,
    scalar_relation_residual,
    scalar_st_closed,
    torsion,
    torsion_type,
)
from redhom.reductive import MetricSpec, ReductiveError, frame_tables

ALPHAS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
ST_GRID = tuple((s, t) for s in (0.0, 1.0, 2.0) for t in (0.3, 0.5, 1.0))


def test_canonical_torsion_is_negative_bracket(cp3):
    nm = nomizu_alpha(cp3, 1.0)
    bm_f, _, _, _ = frame_tables(cp3, nm.metric)
    assert np.abs(torsion(nm).components + bm_f).max() < 1e-12


def test_levi_civita_torsion_free(cp3):
    for t in (0.3, 0.5, 0.9):
        nm = nomizu_st(cp3, 1.0, t)
        assert np.abs(torsion(nm).components).max() < 1e-10


@pytest.mark.parametrize("fixture", ["cp3", "flag_c53"])
def test_skew_iff_killing_parameter(fixture, request):
    space = request.getfixturevalue(fixture)
    for s in (0.0, 2.0, 3.0):
        for t in (0.3, 0.5, 0.8):
            nm = nomizu_st(space, s, t)
            skew = torsion(nm).is_totally_skew(1e-9)
            assert skew == (abs(t - 0.5) < 1e-12), (s, t)


def test_cartan_schouten_flat(su2_group, su3_group):
    for sp in (su2_group, su3_group):
        for alpha in (1.0, -1.0):
            nm = nomizu_alpha(sp, alpha)
            assert curvature(nm).max_abs() < 1e-9
            assert np.abs(nabla_torsion(nm)).max() < 1e-9


def test_alpha_curvature_closed_identity(su2_group, su3_group):
    for sp in (su2_group, su3_group):
        bm_f, _, _, _ = frame_tables(sp, MetricSpec.killing(1))
        for alpha in (-2.0, 0.5, 3.0):
            nm = nomizu_alpha(sp, alpha)
            r = curvature(nm).components
            target = (1 - alpha**2) / 4.0 * np.einsum("abw,cwd->abcd", bm_f, bm_f)
            assert np.abs(r - target).max() < 1e-9


def test_canonical_curvature_on_symmetric_space(sphere_s4):
    nm = nomizu_alpha(sphere_s4, 1.0)
    r = curvature(nm).components
    _, bk_f, adk_f, _ = frame_tables(sphere_s4, nm.metric)
    target = -np.einsum("abw,wdc->abcd", bk_f, adk_f)
    assert np.abs(r - target).max() < 1e-12


def test_alpha_parallel_torsion(su2_group):
    for alpha in (-3.0, 0.5, 2.0):
        nm = nomizu_alpha(su2_group, alpha)
        assert np.abs(nabla_torsion(nm)).max() < 1e-9


def test_ricci_oracle_su2_levi_civita(su2_group):
    ric = ricci_oracle(nomizu_alpha(su2_group, 0.0))
    assert np.abs(ric.components - 0.25 * np.eye(3)).max() < 1e-12


def test_ricci_oracle_s4_canonical(sphere_s4):
    ric = ricci_oracle(nomizu_alpha(sphere_s4, 1.0))
    assert np.abs(ric.components - 0.5 * np.eye(4)).max() < 1e-10


def test_ricci_oracle_runs_on_arbitrary_map(cp3, rng):
    coeffs = rng.standard_normal((6, 6, 6))
    nm = NomizuMap(cp3, MetricSpec.killing(2), coeffs, "random")
    ric = ricci_oracle(nm)
    assert ric.components.shape == (6, 6)


@pytest.mark.parametrize("fixture", ["cp3", "sphere_s4", "sphere_s6", "sphere_s7",
                                     "su2_group"])
def test_alpha_closed_vs_oracle(fixture, request):
    space = request.getfixturevalue(fixture)
    for alpha in ALPHAS:
        nm = nomizu_alpha(space, alpha)
        oracle = ricci_oracle(nm)
        closed = ricci_alpha_closed(space, alpha)
        assert np.abs(oracle.components - closed.components).max() < 1e-8
        assert abs(oracle.scalar - closed.scalar) < 1e-8


def test_alpha_scal_lie_group(su2_group):
    for alpha in ALPHAS:
        closed = ricci_alpha_closed(su2_group, alpha)
        assert abs(closed.scalar - 3 * (1 - alpha**2) / 4.0) < 1e-9


def test_alpha_ricci_pm1_is_casimir_pairing(sphere_s7):
    from redhom.reductive import casimir

    cas = casimir(sphere_s7)
    for alpha in (1.0, -1.0):
        closed = ricci_alpha_closed(sphere_s7, alpha)
        assert np.abs(closed.components - cas.a_gram).max() < 1e-9


@pytest.mark.parametrize("fixture", ["cp3", "flag_c53"])
def test_st_closed_vs_oracle(fixture, request):
    space = request.getfixturevalue(fixture)
    for s, t in ST_GRID:
        nm = nomizu_st(space, s, t)
        oracle = ricci_oracle(nm)
        closed = ricci_st_closed(space, s, t)
        assert np.abs(oracle.components - closed.components).max() < 1e-8
        assert abs(oracle.scalar - scalar_st_closed(space, s, t)) < 1e-8
        # mixed block vanishes
        s1, s2 = space.summand_slices()
        assert np.abs(oracle.components[s1, s2]).max() < 1e-10


def test_st_closed_requires_two_summands(sphere_s4):
    with pytest.raises(ReductiveError):
        ricci_st_closed(sphere_s4, 1.0, 0.5)


def test_cp3_kahler_einstein_point(cp3):
    ric = ricci_st_closed(cp3, 1.0, 1.0)
    diag = np.diag(ric.components)
    assert np.abs(diag - diag[0]).max() < 1e-10


def test_cp3_canonical_ricci_is_casimir(cp3):
    ric = ricci_st_closed(cp3, 0.0, 0.5)
    assert np.abs(ric.components - 2.0 * np.eye(6)).max() < 1e-9


def test_s_tensor_zero_at_levi_civita(cp3):
    nm = nomizu_st(cp3, 1.0, 0.5)
    assert np.abs(s_tensor(nm).components).max() < 1e-12


def test_s_tensor_alpha_closed(sphere_s7, su2_group):
    for sp in (sphere_s7, su2_group):
        for alpha in (-1.0, 0.5, 2.0):
            nm = nomizu_alpha(sp, alpha)
            direct = s_tensor(nm).components
            closed = s_tensor_alpha_closed(sp, alpha).components
            assert np.abs(direct - closed).max() < 1e-9


def test_s_tensor_canonical_pair_on_s7(sphere_s7):
    # at the (anti)canonical parameters: S = (1 - 2 Cas) B
    from redhom.reductive import casimir

    cas = casimir(sphere_s7).constants[0]
    for alpha in (1.0, -1.0):
        s = s_tensor(nomizu_alpha(sphere_s7, alpha)).components
        target = (1.0 - 2.0 * cas) * sphere_s7.b_form
        assert np.abs(s - target).max() < 1e-9


def test_s_tensor_square_symmetry_about_one(cp3):
    s0 = s_tensor(nomizu_st(cp3, 0.0, 0.5)).components
    s2 = s_tensor(nomizu_st(cp3, 2.0, 0.5)).components
    assert np.abs(s0 - s2).max() < 1e-12


def test_ricci_decomposition_via_s_tensor(sphere_s7):
    # Ric^alpha = Ric^g - S^alpha / 4
    ric_g = ricci_oracle(nomizu_alpha(sphere_s7, 0.0)).components
    for alpha in (-1.0, 2.0):
        nm = nomizu_alpha(sphere_s7, alpha)
        ric = ricci_oracle(nm).components
        s = s_tensor(nm).components
        assert np.abs(ric - (ric_g - 0.25 * s)).max() < 1e-9


def test_nabla_torsion_zero_for_canonical(cp3):
    assert np.abs(nabla_torsion(nomizu_st(cp3, 0.0, 0.5))).max() == 0.0


def test_nabla_torsion_covar_blocks(cp3):
    s = 2.0
    nm = nomizu_st(cp3, s, 0.5)
    nt = nabla_torsion(nm)
    bm_f, bk_f, adk_f, _ = frame_tables(cp3, nm.metric)
    s1, s2 = slice(0, 4), slice(4, 6)
    factor = s * (s - 1) / 2.0
    # within the first summand: the cyclic Jacobian of the m2-projections
    mask = np.zeros(6)
    mask[4:] = 1.0
    bm2 = bm_f * mask
    jac = np.einsum("yzc,xcd->xyzd", bm2, bm_f)
    jac = jac + jac.transpose(1, 2, 0, 3) + jac.transpose(2, 0, 1, 3)
    assert np.abs(nt[s1, s1, s1, :] - factor
                  * jac[s1, s1, s1, :].transpose(2, 0, 1, 3)).max() < 1e-10
    # mixed blocks reduce to isotropy actions on the k-parts
    rhs = factor * np.einsum("xyw,wdk->kxyd", bk_f[s1, s1, :], adk_f[:, :, s2])
    assert np.abs(nt[s2, s1, s1, :] - rhs).max() < 1e-10
    rhs = factor * np.einsum("klw,wdi->ikld", bk_f[s2, s2, :], adk_f[:, :, s1])
    assert np.abs(nt[s1, s2, s2, :] - rhs).max() < 1e-10
    assert np.abs(nt[s2, s2, s2, :]).max() < 1e-12
    # nonzero somewhere
    assert np.abs(nt).max() > 0.1


def test_codifferential_vanishes(cp3, su3_group):
    for s in (-1.0, 0.0, 2.0, 3.0):
        nm = nomizu_st(cp3, s, 0.5)
        assert np.abs(codifferential(nm).components).max() < 1e-9
    for alpha in (-1.0, 0.5, 2.0):
        nm = nomizu_alpha(su3_group, alpha)
        assert np.abs(codifferential(nm).components).max() < 1e-9


def test_codifferential_zero_for_zero_torsion(cp3):
    nm = nomizu_st(cp3, 1.0, 0.5)
    assert np.abs(codifferential(nm).components).max() < 1e-12


@pytest.mark.parametrize("fixture", ["cp3", "flag_c53"])
def test_torsion_type_grid(fixture, request):
    space = request.getfixturevalue(fixture)
    for s in (0.0, 2.0, 3.0):
        for t in (0.3, 0.5, 0.8):
            tt = torsion_type(nomizu_st(space, s, t))
            assert tt["vectorial_norm"] < 1e-9
            if abs(t - 0.5) < 1e-12:
                assert tt["cartan_norm"] < 1e-9
            elif s != 1.0:
                assert tt["cartan_norm"] > 1e-3


def test_torsion_type_zero_at_levi_civita(cp3):
    tt = torsion_type(nomizu_st(cp3, 1.0, 0.7))
    assert tt["vectorial_norm"] < 1e-12
    assert tt["skew_norm"] < 1e-12
    assert tt["cartan_norm"] < 1e-12


def test_jacobian_symmetric_space(sphere_s4):
    j = jacobian_m(sphere_s4)
    assert j["is_zero"]
    assert j["m_bracket_m_residual"] < 1e-12  # [m, m] in k


def test_jacobian_lie_group(su2_group):
    j = jacobian_m(su2_group)
    assert j["is_zero"]
    assert j["m_bracket_k_residual"] < 1e-12  # [m, m] in m


def test_jacobian_s7_matches_curvature_difference(sphere_s7):
    j = jacobian_m(sphere_s7)
    assert not j["is_zero"]
    r_minus = curvature(nomizu_alpha(sphere_s7, -1.0)).components
    r_plus = curvature(nomizu_alpha(sphere_s7, 1.0)).components
    assert np.abs((r_minus - r_plus) - j["jacobian"]).max() < 1e-10


def test_scalar_relation_skew_connections(cp3, su2_group):
    for s in (-1.0, 0.0, 2.0, 3.0):
        assert scalar_relation_residual(nomizu_st(cp3, s, 0.5)) < 1e-8
    for alpha in (-2.0, 0.5, 1.0):
        assert scalar_relation_residual(nomizu_alpha(su2_group, alpha)) < 1e-8


def test_torsion_norm_lie_group(su2_group):
    for alpha in (-2.0, 0.5, 1.0, 3.0):
        t3 = torsion(nomizu_alpha(su2_group, alpha))
        assert abs(t3.norm_squared() - 3 * alpha**2 / 6.0) < 1e-9


def test_ricci_symmetry_skew_family(cp3):
    for s in (-1.0, 0.0, 2.0, 3.0):
        ric = ricci_oracle(nomizu_st(cp3, s, 0.5))
        assert ric.symmetry_residual() < 1e-9


def test_antisymmetric_ricci_part_is_codifferential(cp3):
    # Ric_A = -(1/2) delta T for metric connections, checked off the
    # naturally reductive point as well
    for s, t in ((2.0, 0.5), (0.0, 0.5)):
        nm = nomizu_st(cp3, s, t)
        ric = ricci_oracle(nm).components
        anti = 0.5 * (ric - ric.T)
        dt = codifferential(nm).components
        assert np.abs(anti + 0.5 * dt).max() < 1e-8


def _random_map(space, seed):
    """A Nomizu map that is neither metric nor STC (Lambda(X)X != 0)."""
    metric = (MetricSpec.g_t(0.7) if space.nsummands == 2
              else MetricSpec.killing(space.nsummands))
    m = space.dim_m
    coeffs = np.random.default_rng(seed).standard_normal((m, m, m))
    return NomizuMap(space, metric, coeffs, "random")


@pytest.mark.parametrize("fixture", ["cp3", "sphere_s7", "berger", "su3_group",
                                     "flag_c53"])
def test_fused_traces_match_full_tensors(fixture, request):
    space = request.getfixturevalue(fixture)
    for seed in (0, 1):
        nm = _random_map(space, seed)
        pairs = (
            (ricci_oracle(nm).components,
             np.einsum("xiiy->xy", curvature(nm).components)),
            (codifferential(nm).components,
             -np.einsum("iixy->xy", nabla_torsion(nm))),
        )
        for got, ref in pairs:
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_fused_traces_never_form_an_m4_tensor(flag_c53):
    import tracemalloc

    nm = _random_map(flag_c53, 0)
    one_m4_tensor = 8 * flag_c53.dim_m ** 4
    for fn in (ricci_oracle, codifferential):
        fn(nm)  # fill the space's lazily cached tables outside the trace
        tracemalloc.start()
        try:
            fn(nm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_m4_tensor, (fn.__name__, peak)
