import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redhom import liealg
from redhom.liealg import (
    InnerProduct,
    LieAlgebraError,
    bprime,
    build_g2,
    build_so,
    build_sp,
    build_su,
    build_u,
    centralizer_constraint,
    direct_sum,
    gram_schmidt,
    ideal_generated_by,
    negative_killing,
    stabilizer_subalgebra,
    vector_annihilator_constraint,
)


@pytest.mark.parametrize("n,dim", [(2, 1), (3, 3), (5, 10), (7, 21)])
def test_so_dimension(n, dim):
    assert build_so(n).dim == dim


def test_so_rejects_small_n():
    with pytest.raises(LieAlgebraError):
        build_so(1)


def test_su_u_sp_dimensions():
    assert build_su(2).dim == 3
    assert build_su(3).dim == 8
    assert build_u(2).dim == 4
    assert build_sp(2).dim == 10
    with pytest.raises(LieAlgebraError):
        build_su(1)


@pytest.mark.parametrize("builder", [
    lambda: build_so(5), lambda: build_su(2), lambda: build_su(3),
    lambda: build_u(2), lambda: build_sp(2), build_g2,
])
def test_algebra_invariants(builder):
    alg = builder()
    report = alg.validate(tol=1e-9)
    assert report["antisymmetry"] < 1e-9
    assert report["jacobi"] < 1e-9
    assert report["killing_ad_invariance"] < 1e-9


def test_bprime_orthonormal_on_so5():
    so5 = build_so(5)
    ip = bprime(so5)
    assert np.abs(ip.gram - np.eye(10)).max() < 1e-12
    assert ip.provenance == "b-prime"


def test_killing_trace_multiple_so():
    # K(X, Y) = (n - 2) tr(XY) on so(n)
    for n in (4, 5, 7):
        alg = build_so(n)
        tr = np.einsum("iab,jba->ij", alg.basis, alg.basis)
        assert np.abs(alg.killing - (n - 2) * tr).max() < 1e-9


def test_negative_killing_e12_so5():
    # oracle: -tr(ad E12 ad E12) computed from structure constants,
    # cross-checked against the 2(n-2) multiple of the unit trace form
    so5 = build_so(5)
    ad = so5.ad(np.eye(10)[0])
    assert abs(-np.trace(ad @ ad) - 6.0) < 1e-9
    assert abs(-so5.killing[0, 0] - 2 * (5 - 2) * bprime(so5).gram[0, 0]) < 1e-9


def test_u2_center_dimension():
    u2 = build_u(2)
    center = stabilizer_subalgebra(u2, centralizer_constraint(u2), name="center")
    assert center.shape[0] == 1


def test_so5_trivial_center():
    so5 = build_so(5)
    center = stabilizer_subalgebra(so5, centralizer_constraint(so5), name="center")
    assert center.shape[0] == 0


def test_bracket_cp3_examples():
    # [e1, e2] = k1 and [e5, e6] = k2 - k1 in the pinned twistor basis
    from redhom.catalog import build_cp3

    space = build_cp3()
    alg = space.algebra
    e = space.m_basis
    k = space.k_basis
    b12 = alg.bracket(e[0], e[1])
    assert np.abs(b12 - k[0]).max() < 1e-12
    b56 = alg.bracket(e[4], e[5])
    assert np.abs(b56 - (k[1] - k[0])).max() < 1e-12


def test_bracket_dimension_mismatch():
    so5 = build_so(5)
    with pytest.raises(LieAlgebraError):
        so5.bracket(np.ones(3), np.ones(10))


def test_brackets_table_matches_pairwise_bracket(rng):
    su3 = build_su(3)
    a = rng.standard_normal((3, su3.dim))
    b = rng.standard_normal((4, su3.dim))
    table = su3.brackets(a, b)
    assert table.shape == (3, 4, su3.dim)
    for i in range(3):
        for j in range(4):
            assert np.abs(table[i, j] - su3.bracket(a[i], b[j])).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=10, max_size=10))
def test_bracket_antisymmetry_random(coeffs):
    so5 = build_so(5)
    x = np.asarray(coeffs)
    assert np.abs(so5.bracket(x, x)).max() < 1e-9


def test_g2_dimension_and_closure():
    g2 = build_g2()
    assert g2.dim == 14
    assert g2.ambient_dim == 7
    # closure is established by construction; re-check residual explicitly
    flat = g2.basis.reshape(14, -1)
    pinv = np.linalg.pinv(flat)
    for i in range(14):
        for j in range(i + 1, 14):
            comm = g2.basis[i] @ g2.basis[j] - g2.basis[j] @ g2.basis[i]
            coeffs = comm.reshape(-1) @ pinv
            assert np.abs(np.tensordot(coeffs, g2.basis, 1) - comm).max() < 1e-9


def test_g2_killing_proportional_to_restriction():
    g2 = build_g2()
    so7 = build_so(7)
    coeffs = np.array([so7.coefficients(m) for m in g2.basis])
    restricted = coeffs @ so7.killing @ coeffs.T
    scale = np.sum(restricted * g2.killing) / np.sum(g2.killing**2)
    assert np.abs(restricted - scale * g2.killing).max() < 1e-8


def test_g2_simple_by_ideal_probe(rng):
    g2 = build_g2()
    for _ in range(20):
        v = rng.standard_normal(14)
        assert ideal_generated_by(g2, v).shape[0] == 14


def test_su3_stabilizer_in_g2():
    g2 = build_g2()
    k = stabilizer_subalgebra(
        g2, vector_annihilator_constraint(np.eye(7)[:, 0]), name="su3"
    )
    assert k.shape[0] == 8
    gram = k @ g2.killing @ k.T
    evals = np.linalg.eigvalsh(gram)
    assert evals.max() < -1e-8  # negative definite of full rank


def test_stabilizer_of_form_is_g2():
    from itertools import combinations

    so7 = build_so(7)
    w = liealg.three_form()
    triples = list(combinations(range(7), 3))

    def constraint(x):
        xw = liealg.form_action(x, w)
        return np.array([xw[t] for t in triples])

    assert stabilizer_subalgebra(so7, constraint).shape[0] == 14


def test_gram_schmidt_keeps_orthonormal_input():
    so5 = build_so(5)
    ip = bprime(so5)
    vecs = np.eye(10)[:4]
    out = gram_schmidt(vecs, ip)
    assert np.abs(out - vecs).max() < 1e-12


def test_gram_schmidt_cp3_basis_unchanged():
    from redhom.catalog import build_cp3

    space = build_cp3()
    out = gram_schmidt(space.m_basis, space.ip)
    assert np.abs(out - space.m_basis).max() < 1e-12


def test_gram_schmidt_rejects_dependent():
    so5 = build_so(5)
    ip = bprime(so5)
    v = np.eye(10)[0]
    with pytest.raises(LieAlgebraError):
        gram_schmidt([v, v], ip)


def test_inner_product_requires_positive_definite():
    with pytest.raises(LieAlgebraError):
        InnerProduct(np.diag([1.0, -1.0]))
    u2 = build_u(2)
    with pytest.raises(LieAlgebraError):
        negative_killing(u2)
    ip = negative_killing(u2, center_weight=2.0)
    assert np.linalg.eigvalsh(ip.gram).min() > 0


def test_cached_algebra_and_inner_product_are_read_only():
    import dataclasses

    from redhom import catalog

    so5 = build_so(5)
    ip = negative_killing(so5)
    for array in (so5.basis, so5.structure, so5.killing, ip.gram):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        so5.structure = so5.structure.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ip.gram = ip.gram.copy()
    assert build_so(5) is so5 and so5.validate()["ok"]
    assert catalog.build_space("cp3").validate()["ok"]


def test_direct_sum_block_structure():
    ss = direct_sum(build_su(2), build_su(2))
    assert ss.dim == 6
    # cross brackets vanish
    assert np.abs(ss.structure[:3, 3:, :]).max() < 1e-12
    assert ss.validate()["ok"]
