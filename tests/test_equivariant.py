import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import redhom
from redhom import catalog, equivariant
from redhom.cli import resolve_space
from redhom.equivariant import (
    SOLVE_BUDGET_BYTES,
    SolveTooLargeError,
    _apply_equivariance,
    _equivariance_operator,
    _expm_skew,
    _zero_weight,
    certify_bracket_span,
    group_spot_check,
    hom_dimension,
    solve_bytes,
)
from redhom.reductive import ReductiveError

SMALL_SPACES = ["cp3", "sphere-s4", "sphere-s6", "sphere-s7", "berger", "flag-B(2,2)"]


def test_s7_one_dimensional(sphere_s7):
    res = hom_dimension(sphere_s7)
    assert res.dimension == 1
    assert res.skew_dim == 1 and res.sym_dim == 0
    assert res.gap >= 1e3


def test_s6_two_dimensional(sphere_s6):
    res = hom_dimension(sphere_s6)
    assert res.dimension == 2
    assert res.skew_dim == 2 and res.sym_dim == 0
    assert res.gap >= 1e3


def test_s4_zero_dimensional(sphere_s4):
    res = hom_dimension(sphere_s4)
    assert res.dimension == 0
    assert res.gap >= 1e3


def test_solutions_satisfy_equivariance(sphere_s6):
    res = hom_dimension(sphere_s6)
    adk = sphere_s6.adk
    for eta in res.basis:
        for a in range(adk.shape[0]):
            ad = adk[a]
            defect = (
                np.einsum("dc,abc->abd", ad, eta)
                - np.einsum("ca,cbd->abd", ad, eta)
                - np.einsum("cb,acd->abd", ad, eta)
            )
            assert np.abs(defect).max() < 1e-9


def test_bracket_certification(sphere_s6, sphere_s7):
    for sp in (sphere_s6, sphere_s7):
        res = hom_dimension(sp)
        cert = certify_bracket_span(res, sp)
        assert cert["ok"], cert


def test_zero_map_trivially_certified(sphere_s4):
    # on the symmetric space the bracket map is itself zero
    res = hom_dimension(sphere_s4)
    cert = certify_bracket_span(res, sphere_s4)
    assert cert["ok"]
    assert np.abs(sphere_s4.bm).max() < 1e-12


def test_group_level_spot_check(sphere_s6, sphere_s7):
    for sp in (sphere_s6, sphere_s7):
        res = hom_dimension(sp)
        assert group_spot_check(res, sp, samples=10, seed=0) < 1e-6


@pytest.mark.parametrize("fixture", ["sphere_s6", "sphere_s7"])
def test_spot_check_detects_a_non_equivariant_basis(fixture, request):
    # a degenerate generator (w, x or y always zero, or g the identity)
    # would pass any basis
    sp = request.getfixturevalue(fixture)
    res = hom_dimension(sp)
    bent = res.basis + 1e-3 * np.random.default_rng(5).standard_normal(res.basis.shape)
    fake = SimpleNamespace(dimension=res.dimension, basis=bent)
    assert group_spot_check(fake, sp, samples=10, seed=0) > 1e-6
    assert group_spot_check(res, sp, samples=10, seed=0) < 1e-12


def test_lie_group_case_returns_everything(su2_group):
    res = hom_dimension(su2_group)
    assert res.dimension == 27


def test_oversized_solve_is_refused_before_building(sphere_s7, monkeypatch):
    # r = 31 zero-weight triples of the 7-dimensional representation of g2
    # (weights 0 and the six short roots): (0, 0, 0), 18 orderings of
    # (0, a, -a) and 12 of the two root triangles
    vecs, codes = _zero_weight(sphere_s7, 0)
    assert codes.size == 31 and np.abs(vecs.conj().T @ vecs - np.eye(7)).max() < 1e-14
    stage = 16 * (8 * 31**2 + 2 * 14 * 7**2 + 4 * 7**3)
    assert solve_bytes(sphere_s7, 31) == stage
    assert solve_bytes(sphere_s7, 31, 1) == stage + 8 * 7**3 < SOLVE_BUDGET_BYTES
    # the r x r stage of flag-C(5,3) needs 9.3 MiB: refused under an 8 MiB
    # budget from its size alone

    def forbidden(*args, **kwargs):
        raise AssertionError("Gram matrix built")

    monkeypatch.setattr(equivariant, "_reduced_gram", forbidden)
    monkeypatch.setattr(equivariant, "SOLVE_BUDGET_BYTES", 1 << 23)
    space = catalog.build_space("flag-C(5,3)")
    with pytest.raises(SolveTooLargeError, match="flag-C.*GiB"):
        hom_dimension(space)


def test_oversized_basis_is_refused_before_mapping(monkeypatch):
    # flag-C(5,3): the r x r stage needs 9.3 MiB and its d = 6 maps 2.1 MiB
    # more, so a 10 MiB budget admits the solve and refuses the basis
    def forbidden(*args, **kwargs):
        raise AssertionError("basis mapped back")

    monkeypatch.setattr(equivariant, "_real_maps", forbidden)
    monkeypatch.setattr(equivariant, "SOLVE_BUDGET_BYTES", 10 << 20)
    space = catalog.build_space("flag-C(5,3)")
    assert solve_bytes(space, 216) < 10 << 20 < solve_bytes(space, 216, 6)
    with pytest.raises(SolveTooLargeError, match="flag-C.*GiB"):
        hom_dimension(space)


def test_flag_b54_is_answered_on_a_small_budget(monkeypatch):
    # the basis is sized by d = 6, not by d <= r = 216 (86 MiB)
    monkeypatch.setattr(equivariant, "SOLVE_BUDGET_BYTES", 32 << 20)
    space = catalog.build_space("flag-B(5,4)")
    res = hom_dimension(space)
    assert (res.dimension, res.skew_dim, res.sym_dim) == (6, 4, 2)
    assert certify_bracket_span(res, space)["ok"]


def subspace_rank(vectors: np.ndarray) -> int:
    """Numerical rank of a stack of tensors, relative to the largest singular value."""
    if vectors.size == 0:
        return 0
    s = np.linalg.svd(vectors.reshape(vectors.shape[0], -1), compute_uv=False)
    if s.size == 0 or s[0] < 1e-12:
        return 0
    return int((s > s[0] * 1e-9).sum())


@pytest.mark.parametrize("normalization", [None, "bprime"])
@pytest.mark.parametrize("space_id", SMALL_SPACES)
def test_gram_null_space_matches_dense_svd(space_id, normalization):
    space, _ = resolve_space(space_id, normalization)
    n = space.dim_m
    _, dense_s, vt = np.linalg.svd(_equivariance_operator(space), full_matrices=False)
    rank = int((dense_s > dense_s[0] * 1e-9).sum())
    dense = vt[rank:].T
    # the swap-skew and swap-symmetric parts of the dense null space
    null = dense.T.reshape(-1, n, n, n)
    swapped = null.transpose(0, 2, 1, 3)
    skew, sym = subspace_rank((null - swapped) / 2.0), subspace_rank((null + swapped) / 2.0)
    for seed in (0, 1):
        res = hom_dimension(space, seed=seed)
        assert res.dimension == dense.shape[1]
        assert (res.skew_dim, res.sym_dim) == (skew, sym)
        assert res.gap >= 1e3
        # the reduced Gram matrix is the Casimir operator on a sum of its
        # eigenspaces: every kept singular value is one of the dense ones
        kept = res.singular_values[:res.singular_values.size - res.dimension]
        for value in kept:
            assert np.abs(dense_s[:rank] - value).min() <= 1e-10 * value
        if res.dimension:
            ours = res.basis.reshape(res.dimension, -1).T
            assert np.abs(ours.T @ ours - np.eye(res.dimension)).max() < 1e-12
            # sine of the largest principal angle between the two null spaces
            assert np.linalg.norm(ours - dense @ (dense.T @ ours), 2) < 1e-8


@pytest.mark.parametrize("space_id", SMALL_SPACES)
def test_matrix_free_action_matches_operator(space_id):
    space = catalog.build_space(space_id)
    n = space.dim_m
    system = _equivariance_operator(space)
    rng = np.random.default_rng(7)
    for _ in range(3):
        eta = rng.standard_normal((n, n, n))
        applied = _apply_equivariance(space.adk, eta)
        assert applied.shape == (space.dim_k, n, n, n)
        ref = system @ eta.reshape(-1)
        assert np.abs(applied.reshape(-1) - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("space_id", SMALL_SPACES + ["flag-C(5,3)", "flag-D(6,4)"])
def test_eigh_exponential_matches_expm(space_id):
    space = catalog.build_space(space_id)
    n = space.dim_m
    assert np.array_equal(_expm_skew(np.zeros((n, n))), np.eye(n))
    rng = np.random.default_rng(3)
    for _ in range(3):
        a = np.tensordot(rng.standard_normal(space.dim_k), space.adk, (0, 0))
        assert np.abs(a + a.T).max() < 1e-12
        norm = np.linalg.norm(a, 2)
        # the draw itself, then operator norms up to 10 pi
        for scale in (1.0, 1e-9 / norm, 1.0 / norm, np.pi / norm, 10 * np.pi / norm):
            b = scale * a
            assert np.abs(_expm_skew(b) - scipy.linalg.expm(b)).max() < 1e-12


def test_spot_check_refuses_a_non_skew_action(sphere_s6):
    res = hom_dimension(sphere_s6)
    bent = sphere_s6.adk.copy()
    bent[0] += 1e-6 * np.eye(sphere_s6.dim_m)
    fake = SimpleNamespace(adk=bent, dim_k=sphere_s6.dim_k, dim_m=sphere_s6.dim_m,
                           name="bent")
    with pytest.raises(ReductiveError, match="not skew"):
        group_spot_check(res, fake)
    # the reduced solve assumes the skew action too
    with pytest.raises(ReductiveError, match="not skew"):
        hom_dimension(fake)


def test_import_does_not_load_scipy():
    # nor numpy.random, whose import loads secrets, hashlib and OpenSSL
    src = Path(redhom.__file__).resolve().parents[1]
    probe = ("import sys, redhom.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.startswith('numpy.random') or m in ('secrets', '_hashlib')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def flag_b32_solve():
    space = catalog.build_space("flag-B(3,2)")
    tracemalloc.start()
    try:
        res = hom_dimension(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return space, res, peak


def test_flag_b32_is_answered(flag_b32_solve):
    space, res, _ = flag_b32_solve
    r = _zero_weight(space, 0)[1].size
    assert space.dim_m == 14 and solve_bytes(space, r, res.dimension) < SOLVE_BUDGET_BYTES
    assert res.dimension == 6
    assert res.skew_dim + res.sym_dim == 6
    assert res.gap >= 1e3
    assert certify_bracket_span(res, space)["ok"]
    assert group_spot_check(res, space, samples=10, seed=0) < 1e-6


def test_flag_b32_solve_stays_within_its_budget(flag_b32_solve):
    space, res, peak = flag_b32_solve
    assert peak <= solve_bytes(space, _zero_weight(space, 0)[1].size, res.dimension)
    # no n^6-sized array: the solve works on the r zero-weight triples
    assert peak < 1.6 * 8 * space.dim_m**6


CATALOG_FLAGS = ["flag-B(5,4)", "flag-C(5,3)", "flag-D(6,4)"]


@pytest.mark.parametrize("space_id", CATALOG_FLAGS)
def test_catalog_flags_are_answered(space_id):
    space = catalog.build_space(space_id)
    res = hom_dimension(space)
    assert (res.dimension, res.skew_dim, res.sym_dim) == (6, 4, 2)
    assert res.gap >= 1e3
    assert certify_bracket_span(res, space)["ok"]
    assert group_spot_check(res, space, samples=10, seed=0) < 1e-9


def test_bracket_certificate_takes_one_generator_at_a_time():
    # the whole (dim k, n, n, n) defect of flag-D(6,4), formed three times,
    # peaked at 68 maps of n^3 doubles
    space = catalog.build_space("flag-D(6,4)")
    res = hom_dimension(space)
    tracemalloc.start()
    try:
        assert certify_bracket_span(res, space)["ok"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * space.dim_m**3


def test_flag_d64_solve_stays_within_its_budget():
    space = catalog.build_space("flag-D(6,4)")
    tracemalloc.start()
    try:
        res = hom_dimension(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= solve_bytes(space, _zero_weight(space, 0)[1].size, res.dimension)
    assert peak < 32 * 2**20
