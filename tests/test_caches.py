"""Per-space caches, the one-pass frame tables and the warm point path.

A space computes its default Casimir data, its bracket-inclusion residuals,
the bracket contractions of the two-summand closed forms, the isotropy
pairings of the oracle and the summand blocks of bm once, as read-only
cached properties; a Nomizu map computes its frame bracket and its torsion
once, on the same blocks.  The one-pass builders are checked against the
three-pass rescaling they replaced, the oracle's isotropy term against the
frame-table pairing it replaced, bm and bk against their reads of the
retained bracket vectors, and the block torsion, oracle and co-differential
against the dense formulas they replaced; the references are kept here.
"""

import dataclasses
import gc
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from redhom import catalog, connections, curvature as curvature_module, einstein, liealg, reductive
from redhom.connections import NomizuMap, nomizu_levi_civita_gt, nomizu_st
from redhom.curvature import (
    codifferential,
    curvature,
    nabla_torsion,
    ricci_oracle,
    ricci_st_closed,
    scalar_st_closed,
    torsion,
)
from redhom.reductive import MetricSpec, casimir, check_inclusions, frame_sigma, frame_tables

ST_POINTS = ((1.7, 0.8), (-0.6, 0.5), (2.9, 0.3), (1.0, 1.4))
SRC = Path(__file__).resolve().parent.parent / "src"


def frame_rescale(table, r):
    """table[a, b, c] * r[c] / (r[a] r[b]) in three broadcast passes."""
    inv = 1.0 / r
    return table * inv[:, None, None] * inv[None, :, None] * r


def on_kept_blocks(space, table):
    """``table`` with the blocks that ``bm_blocks`` leaves out set to zero,
    after checking that they hold rounding only."""
    kept = np.zeros_like(table)
    sl = space.summand_slices()
    for a, b, c in space.bm_blocks.parts:
        kept[sl[a], sl[b], sl[c]] = table[sl[a], sl[b], sl[c]]
    assert np.abs(table - kept).max() <= 1e-14 * max(1.0, np.abs(table).max())
    return kept


def reference_nomizu_st(space, s, t):
    """Coefficients of nabla^{s,t}: masked block writes, rescaling, then s."""
    s1, s2 = space.summand_slices()
    m2_mask = (space.summand_index() == 1).astype(float)
    raw = np.zeros_like(space.bm)
    raw[s1, s1, :] = 0.5 * space.bm[s1, s1, :] * m2_mask
    raw[s1, s2, :] = t * space.bm[s1, s2, :]
    raw[s2, s1, :] = (1.0 - t) * space.bm[s2, s1, :]
    return s * frame_rescale(raw, frame_sigma(space, MetricSpec.g_t(t)))


def frame_pairing(bk_f, adk_f):
    """sum_{i,w} bk_f[x,i,w] adk_f[w,y,i] from the frame tables."""
    return np.tensordot(bk_f, adk_f, ([1, 2], [2, 0]))


def point_task(space, s, t):
    """One flag point: map, torsion, oracle, closed Ricci, co-differential, skewness."""
    nm = nomizu_st(space, s, t)
    t3 = torsion(nm)
    oracle = ricci_oracle(nm)
    closed = ricci_st_closed(space, s, t)
    codiff = codifferential(nm)
    return t3.skew_residual(), oracle, closed, codiff


def reference_bracket_tables(space):
    """(bm, bk) read off the space's cached bracket vectors; bm antisymmetrized."""
    vecs = space.m_bracket_vectors
    raw = vecs @ (space.ip.gram @ space.m_basis.T)
    return 0.5 * (raw - raw.transpose(1, 0, 2)), vecs @ (space.ip.gram @ space.k_basis.T)


def reference_validate(space):
    """``ReductiveSpace.validate`` residuals with bm as read before the
    antisymmetrization."""
    vecs = space.m_bracket_vectors
    bm = vecs @ (space.ip.gram @ space.m_basis.T)
    _, bk = reference_bracket_tables(space)
    report = dict(space.validate())
    report["m_bracket_split"] = float(np.abs(vecs - bm @ space.m_basis
                                             - bk @ space.k_basis).max())
    return report


def one_table_validate(space):
    """The bracket rows of ``ReductiveSpace.validate`` as one table each:
    every bracket vector [A_p, B_q] of the row formed at once, less its
    rebuild from the k- and m-parts, with the maximum read off |defect|."""
    alg, g, k, m = space.algebra, space.ip.gram, space.k_basis, space.m_basis
    vecs = alg.brackets(m, m)
    split = vecs @ (g @ (m.T @ m + k.T @ k))
    np.subtract(vecs, split, out=split)
    return {"k_closed": float(np.abs(alg.brackets(k, k) - space.k_structure @ k).max(initial=0.0)),
            "k_m_in_m": float(np.abs(alg.brackets(k, m)
                                     - space.adk.transpose(0, 2, 1) @ m).max(initial=0.0)),
            "m_bracket_split": float(np.abs(split).max(initial=0.0))}


def dense_torsion(nm):
    """T = L - L[b,a,c] - bm_f on the dense coefficients, bm_f rescaled from bm."""
    bm_f = frame_rescale(nm.space.bm, frame_sigma(nm.space, nm.metric))
    return nm.coeffs - nm.coeffs.transpose(1, 0, 2) - bm_f


def dense_ricci_oracle(nm):
    """Ric = Lambda.u - <Lambda + bm_f,Lambda> - <bk_f,adk_f>, one GEMM on
    the dense coefficients."""
    L, m = nm.coeffs, nm.dim
    _, bk_f, adk_f, _ = frame_tables(nm.space, nm.metric)
    left = L + frame_rescale(nm.space.bm, frame_sigma(nm.space, nm.metric)).transpose(0, 2, 1)
    ric = np.einsum("iij->j", L) @ L - left.reshape(m, -1) @ L.reshape(-1, m)
    if nm.space.dim_k:
        ric -= frame_pairing(bk_f, adk_f)
    return ric


def dense_codifferential(nm):
    """delta T = <v,T> + <L,T> - <T,L>, with <T,L> read from a contiguous
    copy of T[b,a,c] and <L,T> from one of L[b,a,c]."""
    t3, L, m = dense_torsion(nm), nm.coeffs, nm.dim
    t_rows = np.ascontiguousarray(t3.transpose(1, 0, 2)).reshape(m, -1)
    dt = (np.einsum("iic->c", L) @ t3.reshape(m, -1)).reshape(m, m)
    dt += np.ascontiguousarray(L.transpose(1, 0, 2)).reshape(m, -1) @ t3.reshape(-1, m)
    dt -= t_rows @ L.reshape(-1, m)
    return dt


def _close(got, ref):
    return np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _rel(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _fresh(space):
    """A copy of ``space`` with none of its cached properties computed."""
    return dataclasses.replace(space)


@pytest.fixture(scope="module", params=["flag-B(5,4)", "flag-C(5,3)", "flag-D(6,4)",
                                        "flag-B(2,2)", "cp3"])
def two_summand(request):
    return catalog.build_space(request.param)


# ---------------------------------------------------------------------------
# one-pass tables against the three-pass reference


def test_one_pass_nomizu_matches_three_pass_reference(two_summand):
    for s, t in ST_POINTS:
        assert _rel(nomizu_st(two_summand, s, t).coeffs,
                    on_kept_blocks(two_summand, reference_nomizu_st(two_summand, s, t))) <= 1e-15
    assert _rel(nomizu_levi_civita_gt(two_summand, 0.7).coeffs,
                on_kept_blocks(two_summand, reference_nomizu_st(two_summand, 1.0, 0.7))) <= 1e-15


def test_one_pass_frame_bracket_matches_three_pass_reference(two_summand):
    for _, t in ST_POINTS:
        metric = MetricSpec.g_t(t)
        bm_f = frame_tables(two_summand, metric)[0]
        ref = frame_rescale(two_summand.bm, frame_sigma(two_summand, metric))
        assert _rel(bm_f, on_kept_blocks(two_summand, ref)) <= 1e-15


def test_rescaled_map_matches_three_pass_reference(two_summand):
    nm = nomizu_st(two_summand, 1.3, 0.4)
    metric = MetricSpec.g_t(0.9)
    ratio = frame_sigma(two_summand, metric) / frame_sigma(two_summand, nm.metric)
    assert _rel(nm.rescaled(metric).coeffs, frame_rescale(nm.coeffs, ratio)) <= 1e-15


@pytest.mark.parametrize("space_id", catalog.known_ids())
def test_block_point_path_matches_the_dense_reference(space_id):
    # two summands: seeded (s, t); one summand: the alpha family; and a
    # seeded dense non-metric map, which keeps all of its blocks
    space = catalog.build_space(space_id)
    rng = np.random.default_rng(30)
    if space.nsummands == 2:
        maps = [nomizu_st(space, rng.uniform(-1.0, 3.0), rng.uniform(0.25, 1.5))
                for _ in range(3)]
        metric = MetricSpec.g_t(rng.uniform(0.25, 1.5))
    else:
        maps = [connections.nomizu_alpha(space, a) for a in rng.uniform(-2.0, 2.0, 3)]
        metric = MetricSpec.killing(1)
    dense = NomizuMap(space, metric, rng.standard_normal((space.dim_m,) * 3))
    assert len(dense.blocks.parts) == space.nsummands ** 3
    for nm in [*maps, dense]:
        t3, ref = torsion(nm), dense_torsion(nm)
        assert _close(t3.components, ref)
        assert _close(ricci_oracle(nm).components, dense_ricci_oracle(nm))
        assert _close(codifferential(nm).components, dense_codifferential(nm))
        skew = float(np.abs(ref + ref.transpose(0, 2, 1)).max())
        assert _close(t3.skew_residual(), skew)
        assert _close(t3.norm_squared(), np.einsum("ijc,ijc->", ref, ref) / 6.0)


def test_oracle_is_the_trace_of_the_full_curvature(cp3, flag_b54, flag_c53, flag_d64):
    cases = ((cp3, ST_POINTS[:2]), (flag_b54, ST_POINTS[:2]), (flag_c53, ST_POINTS[2:3]),
             (flag_d64, ST_POINTS[:1]))
    for space, points in cases:
        for s, t in points:
            nm = nomizu_st(space, s, t)
            pairs = ((ricci_oracle(nm).components,
                      np.einsum("xiiy->xy", curvature(nm).components)),
                     (codifferential(nm).components,
                      -np.einsum("iixy->xy", nabla_torsion(nm))))
            for got, ref in pairs:
                assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("space_id", [sid for sid in catalog.known_ids()
                                      if not sid.startswith("lie-group")] + ["flag-B(2,2)"])
def test_isotropy_term_matches_the_frame_table_pairing(space_id):
    space = catalog.build_space(space_id)
    assert space.dim_k
    ns = space.nsummands
    metrics = [MetricSpec.killing(ns)]
    metrics += [MetricSpec.g_t(t) if ns == 2 else MetricSpec((2.0 * t,) * ns)
                for t in (0.3, 0.8, 1.4)]
    for metric in metrics:
        _, bk_f, adk_f, _ = frame_tables(space, metric)
        assert _rel(curvature_module._isotropy_term(space, metric),
                    frame_pairing(bk_f, adk_f)) <= 1e-14


@pytest.mark.parametrize("space_id", catalog.known_ids())
def test_bm_is_exactly_antisymmetric(space_id):
    bm = catalog.build_space(space_id).bm
    assert np.array_equal(bm, -bm.transpose(1, 0, 2))


@pytest.mark.parametrize("space_id", ["flag-B(5,4)", "flag-C(5,3)", "flag-D(6,4)",
                                      "cp3", "sphere-s6"])
def test_bm_and_bk_come_from_one_transient_bracket_table(space_id):
    space = _fresh(catalog.build_space(space_id))
    space.bm, space.bk, space.adk, casimir(space), space.isotropy_pairs
    if len(space.summands) == 2:
        space.bracket_sums
    assert "m_bracket_vectors" not in vars(space)
    bm, bk = space.bm, space.bk
    ref_bm, ref_bk = reference_bracket_tables(space)
    assert np.array_equal(bm, ref_bm) and np.array_equal(bk, ref_bk)
    # read bk first, or validate first: the same tables
    bk_first, validated = _fresh(space), _fresh(space)
    bk_first.bk
    report = validated.validate()
    for other in (bk_first, validated):
        assert np.array_equal(other.bm, bm) and np.array_equal(other.bk, bk)
    ref = reference_validate(validated)
    assert report.keys() == ref.keys() and report["ok"]
    for key, value in ref.items():
        assert abs(report[key] - value) <= 1e-15, key


@pytest.mark.parametrize("space_id", catalog.known_ids())
def test_validate_streams_the_one_table_bracket_rows(space_id):
    space = _fresh(catalog.build_space(space_id))
    report = space.validate()
    for key, value in one_table_validate(space).items():
        assert abs(report[key] - value) <= 1e-15, key


def test_torsion_is_exactly_antisymmetric_and_codifferential_copy_free(flag_b54, cp3):
    for space in (flag_b54, cp3):
        coeffs = np.random.default_rng(6).standard_normal((space.dim_m,) * 3)
        maps = (nomizu_st(space, 1.7, 0.8), nomizu_st(space, -0.6, 0.5),
                connections.nomizu_alpha(space, 0.3),
                NomizuMap(space, MetricSpec.g_t(0.7), coeffs))
        for nm in maps:
            t = torsion(nm).components
            assert np.array_equal(t, -t.transpose(1, 0, 2))
            assert _close(codifferential(nm).components, dense_codifferential(nm))


def test_skew_residual_is_the_two_temporary_max(flag_b54):
    coeffs = np.random.default_rng(4).standard_normal((flag_b54.dim_m,) * 3)
    maps = (nomizu_st(flag_b54, 1.7, 0.5), nomizu_st(flag_b54, 2.9, 0.3),
            NomizuMap(flag_b54, MetricSpec.g_t(0.7), coeffs))
    for nm in maps:
        t3 = torsion(nm)
        t = t3.components
        assert t3.skew_residual() == float(np.abs(t + t.transpose(0, 2, 1)).max())


def test_oracle_reads_no_closed_form_quantity(monkeypatch, flag_b54):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle read a closed-form quantity")

    space = _fresh(flag_b54)
    monkeypatch.setattr(reductive, "casimir", refuse)
    monkeypatch.setattr(curvature_module, "casimir", refuse)
    monkeypatch.setattr(reductive, "_casimir_data", refuse)
    monkeypatch.setattr(reductive, "_bracket_sums", refuse)
    nm = nomizu_st(space, 1.7, 0.8)
    ric = ricci_oracle(nm)
    codifferential(nm)
    assert "casimir_data" not in vars(space) and "bracket_sums" not in vars(space)
    monkeypatch.undo()
    assert np.abs(ric.components - ricci_st_closed(space, 1.7, 0.8).components).max() < 1e-10


def test_point_task_builds_no_frame_tables(monkeypatch, flag_b54):
    def refuse(*args, **kwargs):
        raise AssertionError("the point task built a table it should have read")

    point_task(flag_b54, 1.7, 0.8)           # the space's own tables, built once
    for module in (reductive, connections, curvature_module):
        for name in ("frame_tables", "frame_k_tables"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(reductive, "_casimir_data", refuse)
    monkeypatch.setattr(reductive, "_bracket_sums", refuse)
    skew, oracle, closed, codiff = point_task(flag_b54, 2.9, 0.3)
    assert skew > 1e-3 and np.isfinite(codiff.components).all()
    assert np.abs(oracle.components - closed.components).max() < 1e-10


# ---------------------------------------------------------------------------
# immutability and lifetime


def test_cached_casimir_is_frozen_and_read_only(flag_c53):
    cas = casimir(flag_c53)
    assert casimir(flag_c53) is cas is flag_c53.casimir_data
    for arr in (cas.operator, cas.a_gram):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cas.constants = (0.0, 0.0)


def test_cached_bracket_data_is_read_only(flag_c53):
    sums = flag_c53.bracket_sums
    assert flag_c53.bracket_sums is sums
    for field in dataclasses.fields(sums):
        with pytest.raises(ValueError):
            getattr(sums, field.name)[0] = 1.0
    with pytest.raises(TypeError):
        flag_c53.inclusion_residuals["m2_m2_in_k"] = 0.0
    report = check_inclusions(flag_c53)
    report["ok"] = False                     # the caller's copy, not the cache
    assert check_inclusions(flag_c53)["ok"]


def test_nomizu_coefficients_and_torsion_are_read_only(cp3):
    nm = nomizu_st(cp3, 2.0, 0.6)
    assert torsion(nm).components is nm.torsion_blocks.dense
    for arr in (nm.coeffs, torsion(nm).components, *nm.blocks.parts.values(),
                *nm.torsion_blocks.parts.values()):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        nm.coeffs = np.zeros_like(nm.coeffs)


def test_nomizu_metric_is_frozen(cp3):
    nm = nomizu_st(cp3, 1.0, 0.8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        nm.metric.scales = (1.0, 1.0)
    assert np.abs(torsion(nm).components).max() < 1e-12


def test_nomizu_map_copies_a_writeable_array(cp3):
    coeffs = np.random.default_rng(3).standard_normal((cp3.dim_m,) * 3)
    nm = NomizuMap(cp3, MetricSpec.g_t(0.5), coeffs)
    before = torsion(nm).components.copy()
    coeffs[0, 0, 0] += 1.0                    # the caller's array stays writeable
    assert np.array_equal(torsion(nm).components, before)
    assert not np.shares_memory(nm.coeffs, coeffs)


def test_dropped_space_is_freed(cp3):
    space = _fresh(cp3)
    nm = nomizu_st(space, 1.5, 0.7)
    ricci_oracle(nm), codifferential(nm), ricci_st_closed(space, 1.5, 0.7)
    scalar_st_closed(space, 1.5, 0.7)
    einstein.riemannian_quadratic(space), einstein.skew_einstein_quadratic(space)
    assert {"casimir_data", "inclusion_residuals", "bracket_sums"} <= set(vars(space))
    ref = weakref.ref(space)
    del space, nm
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# count guard


def test_space_invariants_are_built_once_per_space(monkeypatch, flag_b54):
    calls = {"casimir": 0, "sums": 0, "pairs": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(reductive, "_casimir_data",
                        counted("casimir", reductive._casimir_data))
    monkeypatch.setattr(reductive, "_bracket_sums",
                        counted("sums", reductive._bracket_sums))
    monkeypatch.setattr(reductive, "_isotropy_pairs",
                        counted("pairs", reductive._isotropy_pairs))
    space = _fresh(flag_b54)
    rng = np.random.default_rng(14)
    for _ in range(20):
        s, t = rng.uniform(-1.0, 3.0), rng.uniform(0.25, 1.5)
        point_task(space, s, t)
    report = einstein.riemannian_quadratic(space)
    for root in report.positive_roots:
        einstein.riemannian_root_residual(space, root)
    report = einstein.skew_einstein_quadratic(space)
    for root in report.root_values:
        einstein.skew_root_residual(space, root)
    assert calls == {"casimir": 1, "sums": 1, "pairs": 1}
    pairs = space.isotropy_pairs
    assert pairs.shape == (2, space.dim_m, space.dim_m)
    with pytest.raises(ValueError):
        pairs[0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# allocation guard


def test_bm_is_built_beside_bounded_scratch():
    # the raw read-off and its antisymmetrized copy are 2 x 8 M^3 bytes; the
    # len(A) x dim^2 first-slot table of so(16) took the peak to 4.8 x
    space = _fresh(catalog.build_space("flag-D(8,5)"))
    assert (space.dim_m, space.algebra.dim) == (80, 120)
    tracemalloc.start()
    try:
        space.bm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * space.dim_m ** 3


@pytest.mark.parametrize("space_id", ["flag-B(5,4)", "flag-C(5,3)", "flag-D(6,4)",
                                      "flag-D(8,5)"])
def test_brackets_scratch_stays_within_the_block_budget(space_id):
    # the first-slot table alone was sized to the budget; its per-constant
    # terms and the product with B took the scratch to 2.17-3.16 x
    space = catalog.build_space(space_id)
    alg, m = space.algebra, space.m_basis
    onto = space.ip.gram @ m.T
    alg.brackets(m[:1], m[:1])               # the algebra's constant index, built once
    for call in (lambda: alg.brackets(m, m, onto), lambda: alg.brackets(m, m)):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 1.5 * 8 * liealg._BLOCK


def test_flag_build_holds_no_whole_bracket_vector_table():
    # validate's split row held the (M, M, dim g) bracket vectors, their
    # defect and |defect| at once: 3.57 x 8 M^2 dim g on flag-D(8,5)
    space = catalog.build_space("flag-D(8,5)")   # the algebra and its index, cached
    tracemalloc.start()
    try:
        catalog.build_flag.__wrapped__("D", 8, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 8 * space.dim_m ** 2 * space.algebra.dim


def test_point_task_holds_at_most_two_m3_tables(flag_d64):
    # The map, bm_f and T live through the task on their three stored
    # blocks, each 0.43 m^3 on flag-D(6,4), with one block-sized transient
    # table at a time beside them (the oracle's L + bm_f[a,c,b], the
    # co-differential's L[b,a,c]); a dense m^3 table would fail here.
    point_task(flag_d64, 1.7, 0.8)           # the space's own tables, built once
    tracemalloc.start()
    try:
        point_task(flag_d64, 2.9, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * flag_d64.dim_m ** 3


FAULT_SCRIPT = """
import resource
import numpy as np
from redhom import catalog
from redhom.connections import nomizu_st
from redhom.curvature import codifferential, ricci_oracle, ricci_st_closed, torsion

space = catalog.build_space("flag-D(6,4)")
rng = np.random.default_rng(1)

def point():
    s, t = rng.uniform(-1.0, 3.0), rng.choice([0.5, rng.uniform(0.25, 1.5)])
    nm = nomizu_st(space, s, t)
    torsion(nm).skew_residual()
    np.abs(ricci_oracle(nm).components - ricci_st_closed(space, s, t).components).max()
    codifferential(nm)

for _ in range(20):
    point()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(300):
    point()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 300)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's mmap threshold")
def test_point_task_is_served_from_the_heap_at_a_pinned_mmap_threshold():
    # glibc serves an allocation of at least M_MMAP_THRESHOLD with its own
    # mmap, and unmaps it on free, so every later call faults its pages in
    # again.  With the threshold pinned at 128 KiB (for the child only) a
    # point task whose per-point arrays all stay below it reuses the heap;
    # the dense m^3 tables (665 KiB on flag-D(6,4)) cost about 1000 faults
    # a task.  The trim threshold is raised too: pinning the mmap threshold
    # leaves it at 128 KiB, and whether a task's frees then trim the top of
    # the heap depends on where set-up left it (0 to 140 faults a task on
    # the same code), not on the task's array sizes.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072",
               MALLOC_TRIM_THRESHOLD_=str(2**27), OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert float(proc.stdout) < 20


def stacked_transvection_rank(space) -> int:
    """Rank of the m-basis stacked with every [Z_a, Z_b] in g: g = m + [m,m]
    holds when it equals dim g.  The check on the retained bracket vectors."""
    stacked = np.vstack([space.m_basis,
                         space.m_bracket_vectors.reshape(-1, space.algebra.dim)])
    return int(np.linalg.matrix_rank(stacked, tol=1e-8))


@pytest.mark.parametrize("space_id", [*catalog.known_ids(), "flag-B(2,2)", "lie-group(u2)"])
def test_transvection_check_reads_bk_not_the_bracket_vectors(space_id):
    space = _fresh(catalog.build_space(space_id))
    curvature_module.ricci_alpha_closed(space, 0.5)
    assert "m_bracket_vectors" not in vars(space)
    assert stacked_transvection_rank(_fresh(space)) == space.algebra.dim


def test_transvection_check_refuses_a_product_split():
    so3 = liealg.build_so(3)
    algebra = liealg.direct_sum(so3, so3)
    space = reductive.decompose(algebra, np.eye(algebra.dim)[:so3.dim])
    with pytest.raises(reductive.ReductiveError, match=r"g = m \+ \[m,m\] fails"):
        curvature_module.ricci_alpha_closed(space, 0.5)
    assert stacked_transvection_rank(space) == so3.dim < algebra.dim
