import dataclasses

import numpy as np
import pytest

from redhom import catalog, liealg, reductive
from redhom.liealg import build_so, build_su, negative_killing
from redhom.reductive import (
    MetricSpec,
    ReductiveError,
    ReductiveSpace,
    casimir,
    center_of_k,
    check_inclusions,
    decompose,
    frame_sigma,
    frame_tables,
    lie_group_space,
    split_isotropy,
    verify_use1,
)


def test_cp3_decompose_matches_pinned_complement(cp3):
    # recomputing the complement from k alone must reproduce span{e1..e6}
    raw = decompose(cp3.algebra, cp3.k_basis, ip=cp3.ip)
    assert raw.dim_m == 6
    proj = raw.m_basis @ cp3.ip.gram @ cp3.m_basis.T
    assert np.abs(raw.m_basis - proj @ cp3.m_basis).max() < 1e-10


def test_s4_symmetric_pair(sphere_s4):
    assert sphere_s4.dim_m == 4
    # [m, m] lands in k
    assert np.abs(sphere_s4.bm).max() < 1e-12


def test_decompose_full_basis_gives_empty_m():
    so5 = build_so(5)
    space = decompose(so5, np.eye(10), ip=negative_killing(so5))
    assert space.dim_m == 0


def test_decompose_rejects_non_subalgebra():
    so5 = build_so(5)
    # span{E12, E13} is not closed: [E12, E13] = E23
    with pytest.raises((ReductiveError, liealg.LieAlgebraError)):
        decompose(so5, np.eye(10)[[0, 1]], ip=negative_killing(so5))


def test_space_invariants_on_catalog(cp3, sphere_s4, sphere_s6, sphere_s7, berger):
    for sp in (cp3, sphere_s4, sphere_s6, sphere_s7, berger):
        report = sp.validate(tol=1e-9)
        assert report["ok"], (sp.name, report)


def test_split_isotropy_cp3(cp3):
    raw = decompose(cp3.algebra, cp3.k_basis, ip=cp3.ip, name="cp3-raw")
    split = split_isotropy(raw)
    assert split.summand_dims == (4, 2)
    # first summand spans {e1..e4}
    m1 = split.m_basis[:4]
    proj = m1 @ cp3.ip.gram @ cp3.m_basis[:4].T
    assert np.abs(m1 - proj @ cp3.m_basis[:4]).max() < 1e-9


def test_split_isotropy_irreducible(sphere_s4, sphere_s7):
    assert split_isotropy(sphere_s4).summand_dims == (4,)
    assert split_isotropy(sphere_s7).summand_dims == (7,)


def test_check_inclusions_cp3(cp3):
    report = check_inclusions(cp3)
    assert report["ok"]
    assert max(v["residual"] for v in report.values() if isinstance(v, dict)) < 1e-12


def test_twistor_intermediate_subalgebra(cp3):
    # k + m2 is a subalgebra and (g, k + m2), (k + m2, k) are symmetric pairs
    u_basis = np.vstack([cp3.k_basis, cp3.m_basis[4:]])
    alg = cp3.algebra
    for i in range(6):
        for j in range(6):
            br = alg.bracket(u_basis[i], u_basis[j])
            res = br - (br @ u_basis.T) @ u_basis
            assert np.abs(res).max() < 1e-12


def test_artificial_split_fails_invariance(sphere_s4):
    bad = ReductiveSpace(
        algebra=sphere_s4.algebra, ip=sphere_s4.ip, k_basis=sphere_s4.k_basis,
        m_basis=sphere_s4.m_basis, summands=((0, 2), (2, 4)), name="bad-split",
    )
    report = check_inclusions(bad)
    assert not report["ok"]


def test_casimir_cp3_constants(cp3):
    cas = casimir(cp3)
    assert abs(cas.constants[0] - 2.0) < 1e-9
    assert abs(cas.constants[1] - 2.0) < 1e-9
    assert cas.deviation < 1e-9


def test_casimir_s4_scalar(sphere_s4):
    cas = casimir(sphere_s4)
    assert cas.deviation < 1e-9
    assert abs(cas.constants[0] - 0.5) < 1e-9


def test_casimir_trivial_for_group(su2_group):
    cas = casimir(su2_group)
    assert cas.constants == (0.0,)
    assert np.abs(cas.a_gram).max() == 0.0


@pytest.mark.parametrize("fixture", ["cp3", "sphere_s7", "su2_group"])
def test_use1_identities(fixture, request):
    space = request.getfixturevalue(fixture)
    res = verify_use1(space)
    assert res["a_identity"] < 1e-9
    assert res["b_identity"] < 1e-9


def test_use1_on_flags(flag_c53, flag_b54):
    for sp in (flag_c53, flag_b54):
        res = verify_use1(sp)
        assert res["a_identity"] < 1e-8
        assert res["b_identity"] < 1e-8


def test_center_of_k(cp3, sphere_s7):
    assert center_of_k(cp3).shape[0] == 1
    assert center_of_k(sphere_s7).shape[0] == 0


def test_metric_spec():
    assert MetricSpec.g_t(0.5).scales == (1.0, 1.0)
    with pytest.raises(ReductiveError):
        MetricSpec.g_t(0.0)
    with pytest.raises(ReductiveError):
        MetricSpec((1.0, -1.0))
    with pytest.raises(ReductiveError):
        MetricSpec((1.0, float("nan")))
    with pytest.raises(ReductiveError):
        MetricSpec.g_t(float("nan"))


def test_frame_tables_scaling(cp3):
    metric = MetricSpec.g_t(0.8)
    sigma = frame_sigma(cp3, metric)
    assert np.abs(sigma[:4] - 1.0).max() < 1e-14
    assert np.abs(sigma[4:] - np.sqrt(1.6)).max() < 1e-14
    bm_f, bk_f, adk_f, _ = frame_tables(cp3, metric)
    bm, bk = cp3.bm, cp3.bk
    # spot check one entry: [E_1, E_5] with E_5 = e5 / sqrt(1.6)
    s = np.sqrt(1.6)
    assert abs(bm_f[0, 4, 2] - bm[0, 4, 2] / s) < 1e-12
    assert abs(bk_f[0, 4, 0] - bk[0, 4, 0] / s) < 1e-12


def test_lie_group_space_m_is_whole_algebra():
    su3 = build_su(3)
    sp = lie_group_space(su3, ip=negative_killing(su3))
    assert sp.dim_k == 0 and sp.dim_m == 8
    assert np.abs(sp.m_basis @ sp.ip.gram @ sp.m_basis.T - np.eye(8)).max() < 1e-10


def test_cached_space_is_read_only():
    space = catalog.build_space("cp3")
    tables = (space.k_basis, space.m_basis, space.m_bracket_vectors, space.bm,
              space.bk, space.adk, space.k_structure, space.b_form)
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        space.m_basis = space.m_basis.copy()
    assert catalog.build_space("cp3") is space
    assert space.validate()["ok"]


def two_trial_order(space, blocks):
    """``_order_two_summands`` as it was: one trial space, with all its
    tables, per summand order (the reference of the one-table form)."""
    best = None
    for order in ([0, 1], [1, 0]):
        m_new = np.vstack([blocks[order[0]] @ space.m_basis,
                           blocks[order[1]] @ space.m_basis])
        d1 = blocks[order[0]].shape[0]
        trial = ReductiveSpace(algebra=space.algebra, ip=space.ip,
                               k_basis=space.k_basis, m_basis=m_new,
                               summands=((0, d1), (d1, space.dim_m)),
                               name=space.name)
        worst = max(reductive._inclusion_residuals(trial).values())
        if best is None or worst < best[0]:
            best = (worst, order)
    return [blocks[i] for i in best[1]]


@pytest.mark.parametrize("space_id", ["flag-B(2,2)", "flag-B(5,4)", "flag-C(5,3)",
                                      "flag-D(6,4)"])
def test_one_table_summand_order_matches_two_trial_spaces(space_id, monkeypatch):
    calls = []
    order_two = reductive._order_two_summands

    def recording(space, blocks):
        calls.append((space, blocks))
        return order_two(space, blocks)

    monkeypatch.setattr(reductive, "_order_two_summands", recording)
    desc = catalog.parse_id(space_id)
    built = catalog.build_flag.__wrapped__(desc.family[-1], *desc.params)
    ((space, blocks),) = calls
    # both input orders, so that one of them needs the swapped slices
    for given in (blocks, blocks[::-1]):
        got, ref = order_two(space, given), two_trial_order(space, given)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in ref]
    assert np.array_equal(built.m_basis,
                          np.vstack([b @ space.m_basis for b in order_two(space, blocks)]))
