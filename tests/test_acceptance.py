"""Acceptance suite: one test per criterion, each printing a PASS line
with its observed residuals (run with -s or -rA to see them)."""

import numpy as np
import pytest

from redhom import catalog
from redhom.connections import (
    exotic_un_maps,
    is_derivation,
    linear_combination_stc_rank,
    nomizu_alpha,
    nomizu_st,
    satisfies_stc,
    u_group_space,
    verify_stary,
)
from redhom.curvature import (
    codifferential,
    curvature,
    nabla_torsion,
    ricci_alpha_closed,
    ricci_oracle,
    ricci_st_closed,
    scalar_relation_residual,
    torsion,
    torsion_type,
)
from redhom.einstein import (
    nabla_alpha_einstein_residual,
    riemannian_quadratic,
    skew_einstein_quadratic,
    thm4_identity_residual,
)
from redhom.equivariant import certify_bracket_span, hom_dimension
from redhom.reductive import casimir

from test_catalog import CP3_TABLE


def report(criterion, detail):
    print(f"ACCEPT {criterion}: PASS  ({detail})")


def test_criterion_01_cp3_end_to_end(cp3):
    frame = np.vstack([cp3.k_basis, cp3.m_basis])
    worst = 0.0
    for i in range(6):
        for j in range(6):
            coeffs = cp3.algebra.bracket(cp3.m_basis[i], cp3.m_basis[j]) @ frame.T
            expected = np.zeros(10)
            if i < j:
                for idx, val in CP3_TABLE[(i, j)].items():
                    expected[idx] = val
            elif j < i:
                for idx, val in CP3_TABLE[(j, i)].items():
                    expected[idx] = -val
            worst = max(worst, float(np.abs(coeffs - expected).max()))
    assert worst < 1e-12
    rep = riemannian_quadratic(cp3)
    coeff_err = np.abs(np.array(rep.coefficients) - (-4.0, 6.0, -2.0)).max()
    root_err = max(abs(rep.root_values[0] - 0.5), abs(rep.root_values[1] - 1.0))
    assert coeff_err < 1e-10 and root_err < 1e-10
    report("01 cp3 end-to-end",
           f"table {worst:.1e}, coeffs {coeff_err:.1e}, roots {root_err:.1e}")


def test_criterion_02_cp3_skew_einstein(cp3):
    cas = casimir(cp3)
    cas_err = max(abs(cas.constants[0] - 2.0), abs(cas.constants[1] - 2.0))
    assert cas_err < 1e-9
    rep = skew_einstein_quadratic(cp3)
    root_err = max(abs(rep.root_values[0] - 0.0), abs(rep.root_values[1] - 2.0))
    assert root_err < 1e-10
    report("02 cp3 skew-Einstein",
           f"Cas {cas_err:.1e}, roots {root_err:.1e}, "
           f"degenerate={rep.flags['degenerate_c']}")


def test_criterion_03_hom_dimensions(sphere_s7, sphere_s6, sphere_s4):
    results = {}
    for name, space, want in (("s7", sphere_s7, 1), ("s6", sphere_s6, 2),
                              ("s4", sphere_s4, 0)):
        res = hom_dimension(space)
        assert res.dimension == want, (name, res.dimension)
        assert res.gap >= 1e3
        results[name] = (res.dimension, res.gap)
    report("03 hom dimensions",
           ", ".join(f"{k}: dim {d} gap {g:.1e}" for k, (d, g) in results.items()))


def test_criterion_04_cartan_schouten(su2_group, su3_group):
    worst_r = worst_nt = 0.0
    for sp in (su2_group, su3_group):
        for alpha in (1.0, -1.0):
            nm = nomizu_alpha(sp, alpha)
            worst_r = max(worst_r, curvature(nm).max_abs())
            worst_nt = max(worst_nt, float(np.abs(nabla_torsion(nm)).max()))
    assert worst_r < 1e-9 and worst_nt < 1e-9
    report("04 Cartan-Schouten flatness", f"|R| {worst_r:.1e}, |nablaT| {worst_nt:.1e}")


def test_criterion_05_oracle_equivalence(cp3, sphere_s4, sphere_s6, sphere_s7,
                                         su2_group, flag_c53):
    worst = 0.0
    for sp in (cp3, sphere_s4, sphere_s6, sphere_s7, su2_group, flag_c53):
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            nm = nomizu_alpha(sp, alpha)
            closed = ricci_alpha_closed(sp, alpha)
            worst = max(worst, float(np.abs(
                ricci_oracle(nm).components - closed.components).max()))
    for sp in (cp3, flag_c53):
        for s in (0.0, 1.0, 2.0):
            for t in (0.3, 0.5, 1.0):
                nm = nomizu_st(sp, s, t)
                closed = ricci_st_closed(sp, s, t)
                worst = max(worst, float(np.abs(
                    ricci_oracle(nm).components - closed.components).max()))
    assert worst < 1e-8
    report("05 oracle equivalence", f"worst {worst:.1e}")


def test_criterion_06_scalar_bookkeeping(cp3, flag_c53, su2_group, sphere_s7):
    worst = 0.0
    for sp in (cp3, flag_c53):
        for s in (-1.0, 0.0, 2.0, 3.0):
            worst = max(worst, scalar_relation_residual(nomizu_st(sp, s, 0.5)))
    for sp in (su2_group, sphere_s7):
        for alpha in (-2.0, 0.5, 2.0):
            worst = max(worst, scalar_relation_residual(nomizu_alpha(sp, alpha)))
    assert worst < 1e-8
    norm_err = 0.0
    for alpha in (-2.0, 0.5, 1.0, 3.0):
        t3 = torsion(nomizu_alpha(su2_group, alpha))
        norm_err = max(norm_err, abs(t3.norm_squared() - 3 * alpha**2 / 6.0))
    assert norm_err < 1e-9
    report("06 scalar/torsion bookkeeping",
           f"relation {worst:.1e}, group norm {norm_err:.1e}")


def test_criterion_07_skewness_characterization(cp3, flag_c53):
    for sp in (cp3, flag_c53):
        for s in (0.0, 2.0, 3.0):
            for t in (0.3, 0.5, 0.8):
                skew = torsion(nomizu_st(sp, s, t)).is_totally_skew(1e-9)
                assert skew == (abs(t - 0.5) < 1e-12), (sp.name, s, t)
    report("07 skewness characterization", "skew iff t = 1/2 over both grids")


def test_criterion_08_torsion_type(cp3, flag_c53):
    worst_vec = worst_skw = 0.0
    for sp in (cp3, flag_c53):
        for s in (0.0, 2.0, 3.0):
            for t in (0.3, 0.5, 0.8):
                tt = torsion_type(nomizu_st(sp, s, t))
                worst_vec = max(worst_vec, tt["vectorial_norm"])
                if abs(t - 0.5) < 1e-12:
                    worst_skw = max(worst_skw, tt["cartan_norm"])
    assert worst_vec < 1e-9 and worst_skw < 1e-9
    report("08 torsion type",
           f"vectorial {worst_vec:.1e}, cartan-at-killing {worst_skw:.1e}")


def test_criterion_09_thm4_and_einstein(sphere_s6, sphere_s7, berger):
    worst_id = worst_res = 0.0
    for sp in (sphere_s6, sphere_s7, berger):
        worst_id = max(worst_id, thm4_identity_residual(sp))
        for alpha in (-2.0, -1.0, 0.0, 1.0, 2.0):
            worst_res = max(worst_res, nabla_alpha_einstein_residual(sp, alpha))
    assert worst_id < 1e-7 and worst_res < 1e-7
    report("09 isotropy-irreducible Einstein",
           f"identity {worst_id:.1e}, residual {worst_res:.1e}")


def test_criterion_10_codifferential_and_symmetry(cp3):
    worst_dt = worst_sym = 0.0
    for s in (-1.0, 0.0, 2.0, 3.0):
        nm = nomizu_st(cp3, s, 0.5)
        worst_dt = max(worst_dt, float(np.abs(codifferential(nm).components).max()))
        worst_sym = max(worst_sym, ricci_oracle(nm).symmetry_residual())
    assert worst_dt < 1e-9 and worst_sym < 1e-9
    report("10 codifferential/symmetry", f"|dT| {worst_dt:.1e}, sym {worst_sym:.1e}")


def test_criterion_11_derivation_certificates(su2_group, su3_group):
    worst = 0.0
    for sp in (su2_group, su3_group):
        for alpha in (-2.0, 0.5, 3.0):
            worst = max(worst, verify_stary(nomizu_alpha(sp, alpha)))
    assert worst < 1e-9
    for n in (2, 3):
        maps = exotic_un_maps(n)
        space = u_group_space(n)
        for kind in ("eta1", "eta2", "eta3"):
            nm = maps[kind].as_nomizu(space)
            ok_stc, res_stc = satisfies_stc(nm)
            assert not ok_stc and res_stc > 1e-3, (n, kind)
        for kind in ("eta1", "eta2", "mu"):
            ok_der, res_der = is_derivation(maps[kind].as_nomizu(space))
            assert not ok_der and res_der > 1e-3, (n, kind)
        out = linear_combination_stc_rank(n)
        assert out["dimension"] == 1 and out["mu_only"]
    report("11 derivation certificates",
           f"stary {worst:.1e}; eta1/eta2/mu non-derivations, "
           "eta1/eta2/eta3 fail stc, mu-only solution space")


@pytest.mark.xfail(
    strict=True,
    reason="the trace-pair map sends everything to the centre and kills "
           "commutators, so its Leibniz defect vanishes identically; the "
           "stated clause contradicts that computation (see README, "
           "Decisions)",
)
def test_criterion_11_eta3_derivation_clause():
    maps = exotic_un_maps(2)
    space = u_group_space(2)
    ok, _ = is_derivation(maps["eta3"].as_nomizu(space))
    assert not ok


def test_criterion_12_flag_tables_and_builds(flag_b54, flag_c53):
    from test_catalog import test_killing_einstein_tables_match_published_rows
    test_killing_einstein_tables_match_published_rows()
    worst_cas = worst_root = 0.0
    for sp in (flag_b54, flag_c53):
        cas = casimir(sp)
        worst_cas = max(worst_cas, abs(cas.constants[0] - cas.constants[1]))
        rep = skew_einstein_quadratic(sp)
        worst_root = max(worst_root,
                         abs(rep.root_values[0] - 0.0),
                         abs(rep.root_values[1] - 2.0))
    assert worst_cas < 1e-6 and worst_root < 1e-8
    report("12 flag tables and builds",
           f"dCas {worst_cas:.1e}, skew roots {worst_root:.1e}")
