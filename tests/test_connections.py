import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redhom import liealg
from redhom.connections import (
    ConnectionError_,
    NomizuMap,
    biinvariant_family,
    combine_bilinear,
    derivation_action,
    equivariance_residual,
    exotic_un_maps,
    is_derivation,
    is_metric,
    linear_combination_stc_rank,
    nomizu_alpha,
    nomizu_levi_civita_gt,
    nomizu_st,
    satisfies_stc,
    u_group_space,
)
from redhom.curvature import torsion, verify_stary
from redhom.reductive import MetricSpec, frame_tables, lie_group_space


def test_alpha_one_is_zero_map(cp3):
    nm = nomizu_alpha(cp3, 1.0)
    assert np.abs(nm.coeffs).max() == 0.0


def test_alpha_zero_is_levi_civita_on_group(su2_group):
    nm = nomizu_alpha(su2_group, 0.0)
    assert torsion(nm).skew_residual() < 1e-12
    assert np.abs(torsion(nm).components).max() < 1e-12
    assert is_metric(nm)[0]


def test_alpha_family_equivariance(cp3, sphere_s6, sphere_s7, berger):
    for sp in (cp3, sphere_s6, sphere_s7, berger):
        for alpha in (-1.0, 0.3, 2.0):
            nm = nomizu_alpha(sp, alpha)
            assert equivariance_residual(nm) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(-10, 10))
def test_alpha_family_satisfies_stc(alpha):
    from redhom.catalog import build_cp3

    nm = nomizu_alpha(build_cp3(), alpha)
    ok, res = satisfies_stc(nm)
    assert ok, res


def test_wang_rules(cp3):
    for t in (0.3, 1.0):
        nm = nomizu_levi_civita_gt(cp3, t)
        raw = nm.rescaled(MetricSpec.killing(2)).coeffs
        bm = cp3.bm
        # Lambda_t(m2)m2 = 0
        assert np.abs(raw[4:, 4:, :]).max() < 1e-12
        # Lambda_t(m1)m2 = t [m1, m2]
        assert np.abs(raw[:4, 4:, :] - t * bm[:4, 4:, :]).max() < 1e-12
        # Lambda_t(m2)m1 = (1 - t) [m2, m1]
        assert np.abs(raw[4:, :4, :] - (1 - t) * bm[4:, :4, :]).max() < 1e-12
        # Lambda_t(m1)m1 = (1/2) [m1, m1]_{m2}
        mask = np.zeros(6)
        mask[4:] = 1.0
        assert np.abs(raw[:4, :4, :] - 0.5 * bm[:4, :4, :] * mask).max() < 1e-12


def test_levi_civita_gt_is_torsion_free_and_metric(cp3, flag_c53):
    for sp in (cp3, flag_c53):
        for t in (0.3, 0.5, 0.9):
            nm = nomizu_levi_civita_gt(sp, t)
            assert np.abs(torsion(nm).components).max() < 1e-10
            assert is_metric(nm)[0]
            assert equivariance_residual(nm) < 1e-9


def test_nomizu_st_endpoints(cp3):
    assert np.abs(nomizu_st(cp3, 0.0, 0.7).coeffs).max() == 0.0
    lc = nomizu_levi_civita_gt(cp3, 0.7)
    assert np.abs(nomizu_st(cp3, 1.0, 0.7).coeffs - lc.coeffs).max() == 0.0


def test_killing_family_kills_quadratic(cp3, rng):
    # Lambda_{s,1/2}(X)X = 0 for random X
    nm = nomizu_st(cp3, 2.0, 0.5)
    for _ in range(50):
        x = rng.standard_normal(6)
        val = np.einsum("abc,a,b->c", nm.coeffs, x, x)
        assert np.abs(val).max() < 1e-12


def test_stc_fails_off_killing(cp3):
    nm = nomizu_st(cp3, 2.0, 0.3)
    ok, res = satisfies_stc(nm)
    assert not ok
    # residual carried by the mixed block: |s(2t - 1)| times the bracket size
    bm_f, _, _, _ = frame_tables(cp3, nm.metric)
    expected = abs(2.0 * (2 * 0.3 - 1)) * np.abs(bm_f[:4, 4:, :]).max()
    assert abs(res - expected) < 1e-12


def test_biinvariant_u2_vanishes_on_center():
    space = u_group_space(2)
    center = np.eye(4)[3:4]
    rest = np.eye(4)[:3]
    nm = biinvariant_family(space, [center, rest], [0.3, 0.7])
    # the frame vector with a centre component is inert
    cidx = int(np.argmax(np.abs(space.m_basis[:, 3])))
    assert np.abs(nm.coeffs[cidx]).max() < 1e-12
    assert np.abs(nm.coeffs[:, cidx, :]).max() < 1e-12
    assert is_metric(nm)[0]


def test_biinvariant_su2su2_blockwise():
    ss = liealg.direct_sum(liealg.build_su(2), liealg.build_su(2))
    space = lie_group_space(ss, ip=liealg.negative_killing(ss))
    nm = biinvariant_family(space, [np.eye(6)[:3], np.eye(6)[3:]], [1.0, -1.0])
    bm_f, _, _, _ = frame_tables(space, nm.metric)
    assert np.abs(nm.coeffs[:3, :3, :]).max() < 1e-12
    assert np.abs(nm.coeffs[3:, 3:, :] - bm_f[3:, 3:, :]).max() < 1e-12


def test_biinvariant_rejects_non_ideal():
    ss = liealg.direct_sum(liealg.build_su(2), liealg.build_su(2))
    space = lie_group_space(ss, ip=liealg.negative_killing(ss))
    mixed = np.zeros((3, 6))
    mixed[:, :3] = np.eye(3)
    mixed[:, 3:] = np.eye(3)
    other = np.eye(6)[3:]
    with pytest.raises(ConnectionError_):
        biinvariant_family(space, [mixed, other], [1.0, 1.0])


# -- exotic maps on u(n) ----------------------------------------------------


@pytest.fixture(scope="module")
def u2_maps():
    return exotic_un_maps(2)


@pytest.fixture(scope="module")
def u2_space():
    return u_group_space(2)


def test_mu_kills_diagonal(u2_maps, rng):
    mu = u2_maps["mu"]
    for _ in range(20):
        x = rng.standard_normal(4)
        assert np.abs(np.einsum("abc,a,b->c", mu.coeffs, x, x)).max() < 1e-12


def test_eta1_nonzero_on_diagonal(u2_maps):
    # X = i E_11 expressed over the u(2) basis
    x = np.zeros(4)
    x[2] = 0.5  # i(E11 - E22)
    x[3] = 0.5  # iI
    val = np.einsum("abc,a,b->c", u2_maps["eta1"].coeffs, x, x)
    assert np.abs(val).max() > 1e-9


def test_eta2_symmetric(u2_maps):
    c = u2_maps["eta2"].coeffs
    assert np.abs(c - c.transpose(1, 0, 2)).max() < 1e-12


def test_eta_maps_fail_metric_and_stc(u2_maps, u2_space):
    for kind in ("eta1", "eta2", "eta3"):
        nm = u2_maps[kind].as_nomizu(u2_space)
        assert not is_metric(nm)[0]
        assert not satisfies_stc(nm)[0]


def test_zero_map_is_metric(cp3):
    nm = nomizu_alpha(cp3, 1.0)
    assert is_metric(nm)[0]


def test_derivation_certificates(u2_maps, u2_space):
    assert not is_derivation(u2_maps["mu"].as_nomizu(u2_space))[0]
    assert not is_derivation(u2_maps["eta1"].as_nomizu(u2_space))[0]
    assert not is_derivation(u2_maps["eta2"].as_nomizu(u2_space))[0]


def test_eta1_not_derivation_on_u3():
    maps = exotic_un_maps(3)
    space = u_group_space(3)
    ok, res = is_derivation(maps["eta1"].as_nomizu(space))
    assert not ok and res > 0.1


def test_ad_family_is_derivation(su2_group, su3_group):
    for sp in (su2_group, su3_group):
        for alpha in (-1.0, 0.5, 3.0):
            nm = nomizu_alpha(sp, alpha)
            ok, res = is_derivation(nm)
            assert ok, res
            assert is_metric(nm)[0]


def test_alpha_family_is_metric(cp3, sphere_s7):
    for sp in (cp3, sphere_s7):
        for alpha in (-2.0, 0.3, 1.0, 4.0):
            assert is_metric(nomizu_alpha(sp, alpha))[0]


def test_verify_stary_ad_family(su2_group, su3_group):
    for sp in (su2_group, su3_group):
        for alpha in (-2.0, 0.0, 3.0):
            assert verify_stary(nomizu_alpha(sp, alpha)) < 1e-9


def test_verify_stary_detects_non_derivation(u2_maps, u2_space):
    nm = u2_maps["mu"].as_nomizu(u2_space)
    res = verify_stary(nm)
    assert res > 0.1
    # the identity defect equals the Leibniz defect
    _, der_res = is_derivation(nm)
    assert abs(res - der_res) < 1e-9


def test_verify_stary_rejects_stc_violation(u2_maps, u2_space):
    with pytest.raises(ConnectionError_):
        verify_stary(u2_maps["eta1"].as_nomizu(u2_space))


def test_verify_stary_zero_map(su2_group):
    assert verify_stary(nomizu_alpha(su2_group, 1.0)) == 0.0


def test_verify_stary_rejects_spaces_with_isotropy(cp3, sphere_s7):
    # the identity leaves out the ad([Z,X]_k) curvature term, so k must vanish
    for sp in (cp3, sphere_s7):
        with pytest.raises(ConnectionError_, match="Lie group"):
            verify_stary(nomizu_alpha(sp, 0.0))


@pytest.mark.parametrize("n", [2, 3])
def test_stc_rank_mu_only(n):
    out = linear_combination_stc_rank(n)
    assert out["dimension"] == 1
    assert out["mu_only"]


def test_stc_rank_single_point_underdetermined():
    # constraining only at iI leaves a larger solution space
    out = linear_combination_stc_rank(2, sample_points=[np.eye(4)[3]])
    assert out["dimension"] > 1


def test_combined_map_fails_stc(u2_maps, u2_space):
    combo = combine_bilinear(u2_maps, 1.0, -0.5, 0.2, 3.0)
    nm = combo.as_nomizu(u2_space)
    assert not satisfies_stc(nm)[0]


def test_st_family_equivariance(cp3, flag_c53):
    for sp in (cp3, flag_c53):
        for s, t in ((2.0, 0.3), (-1.0, 0.5), (3.0, 0.8)):
            nm = nomizu_st(sp, s, t)
            assert equivariance_residual(nm) < 1e-9


def test_frame_tables_are_computed_once_per_map(cp3, flag_c53):
    for space, nm in [(cp3, nomizu_st(cp3, 1.5, 0.7)), (flag_c53, nomizu_alpha(flag_c53, -1.0))]:
        tables = nm.frame_tables
        assert nm.frame_tables is tables
        assert all(a is b for a, b in zip(nm.frame_tables, tables))
        for table, fresh in zip(tables, frame_tables(space, nm.metric)):
            assert np.array_equal(table, fresh)
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] += 1.0
        assert tables[0] is nm.frame_bracket.dense
        blocks = nm.torsion_blocks
        assert nm.torsion_blocks is blocks
        for block in blocks.parts.values():
            assert block.flags.c_contiguous
            with pytest.raises(ValueError):
                block[0, 0, 0] = 1.0
        # another metric gets its own tables
        other = nm.rescaled(MetricSpec.g_t(0.3))
        assert other.frame_tables is not tables
        assert np.array_equal(other.frame_tables[0], frame_tables(space, other.metric)[0])


# ---------------------------------------------------------------------------
# tensordot contractions against their einsum forms


def einsum_equivariance_residual(nm):
    """The three-einsum form of ``equivariance_residual``, kept as its reference."""
    _, _, adk_f, _ = frame_tables(nm.space, nm.metric)
    lam = nm.coeffs.transpose(0, 2, 1)
    left = np.einsum("wij,ajk->waik", adk_f, lam) - np.einsum("aij,wjk->waik", lam, adk_f)
    right = np.einsum("wca,cik->waik", adk_f, lam)
    return float(np.abs(left - right).max())


def einsum_derivation_action(L, a):
    """The three-einsum form of ``derivation_action``, kept as its reference."""
    return (np.einsum("xyc,zcd->zxyd", a, L) - np.einsum("zxc,cyd->zxyd", L, a)
            - np.einsum("zyc,xcd->zxyd", L, a))


@pytest.mark.parametrize("fixture", ["cp3", "sphere_s6", "sphere_s7", "berger", "flag_c53"])
def test_equivariance_residual_matches_einsum_reference(fixture, request):
    space = request.getfixturevalue(fixture)
    metric = MetricSpec.g_t(0.7) if space.nsummands == 2 else MetricSpec.killing(1)
    coeffs = np.random.default_rng(5).standard_normal((space.dim_m,) * 3)
    maps = [nomizu_alpha(space, -1.0), NomizuMap(space, metric, coeffs)]
    if space.nsummands == 2:
        maps.append(nomizu_st(space, 2.0, 0.3))
    refs = []
    for nm in maps:
        got, ref = equivariance_residual(nm), einsum_equivariance_residual(nm)
        assert abs(got - ref) <= 1e-12 * max(1.0, ref)
        refs.append(ref)
    assert refs[0] < 1e-9 < 1.0 < refs[1]     # the random map is far from equivariant


def test_equivariance_residual_holds_a_few_m3_tables(flag_d64):
    # a block of rows of k at a time (one here): the whole defect, dim k = 22
    # m^3 tables, is never live
    nm = nomizu_st(flag_d64, 1.0, 0.5)
    nm.frame_tables, nm.coeffs               # the map's cached dense views
    tracemalloc.start()
    try:
        residual = equivariance_residual(nm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flag_d64.dim_k == 22 and residual < 1e-9
    assert peak <= 4 * 8 * flag_d64.dim_m ** 3


def test_derivation_action_matches_einsum_reference(su3_group, flag_b54):
    rng = np.random.default_rng(8)
    cases = [(rng.standard_normal((7,) * 3), rng.standard_normal((7,) * 3))]
    for space in (su3_group, flag_b54):
        nm = nomizu_alpha(space, -1.0)
        cases.append((nm.coeffs, nm.frame_bracket.dense))
        cases.append((nm.coeffs, torsion(nm).components))
    for L, a in cases:
        got, ref = derivation_action(L, a), einsum_derivation_action(L, a)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
