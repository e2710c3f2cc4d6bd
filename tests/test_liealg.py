import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redhom import liealg
from redhom.liealg import (
    InnerProduct,
    LieAlgebra,
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
from redhom.tolerances import TOL


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


def dense_jacobi(c):
    """Reference: max |J(i, j, k)| over every index triple, one index at a time."""
    d = c.shape[0]
    flat = c.reshape(d, d * d)
    jacobi = 0.0
    for i in range(d):
        term = (
            (c[i] @ flat).reshape(d, d, d)
            + c @ c[:, i, :]
            + (c[:, i, :] @ flat).reshape(d, d, d).transpose(1, 0, 2)
        )
        jacobi = max(jacobi, np.abs(term).max())
    return float(jacobi)


def assert_matches_reference(alg):
    new, ref = alg.validate()["jacobi"], dense_jacobi(alg.structure)
    assert abs(new - ref) <= 1e-9 * max(new, ref), (alg.name, new, ref)


def perturbed(alg, rng, size=1e-3):
    """``alg`` with a seeded antisymmetric perturbation of its structure tensor.

    Small algebras get a dense perturbation; above dim 30 a sparse one, which
    also adds nonzero brackets and columns the unperturbed tensor lacks.
    """
    p = size * rng.standard_normal(alg.structure.shape)
    if alg.dim > 30:
        p *= rng.random(p.shape) < 2e-3
    p -= p.transpose(1, 0, 2)
    return LieAlgebra(name=f"{alg.name}~", basis=alg.basis,
                      structure=alg.structure + p, killing=alg.killing)


JACOBI_BUILDERS = {
    "so2": lambda: build_so(2), "so5": lambda: build_so(5),
    "so7": lambda: build_so(7), "so11": lambda: build_so(11),
    "so12": lambda: build_so(12), "su2": lambda: build_su(2),
    "su3": lambda: build_su(3), "su4": lambda: build_su(4),
    "u1": lambda: build_u(1), "u3": lambda: build_u(3),
    "sp2": lambda: build_sp(2), "sp5": lambda: build_sp(5), "g2": build_g2,
    "su2+so5": lambda: direct_sum(build_su(2), build_so(5)),
}


@pytest.mark.parametrize("key", JACOBI_BUILDERS)
def test_jacobi_matches_dense_reference(key):
    alg = JACOBI_BUILDERS[key]()
    assert_matches_reference(alg)
    rng = np.random.default_rng(0)
    for _ in range(2):
        bent = perturbed(alg, rng)
        assert_matches_reference(bent)
        if alg.dim > 1:
            report = bent.validate()
            assert report["jacobi"] > 1e-6 and not report["ok"]


def test_validate_fails_on_a_jacobi_defect():
    # [e0, e1] = e1 and [e1, e2] = e0: antisymmetric, with an ad-invariant
    # (zero) form, but the Jacobi sum of (e0, e1, e2) is [[e0, e1], e2] = e0
    c = np.zeros((3, 3, 3))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    alg = LieAlgebra(name="bad", basis=np.zeros((3, 1, 1)), structure=c,
                     killing=np.zeros((3, 3)))
    report = alg.validate()
    assert report["antisymmetry"] == 0.0 and report["killing_ad_invariance"] == 0.0
    assert report["jacobi"] == dense_jacobi(c) == 1.0
    assert not report["ok"]


# Antisymmetric brackets [x, y] = z of e0, e1, e2 whose Jacobi sum at
# (e0, e1, e2) has exactly one nonzero term, [[e0,e1],e2], [[e1,e2],e0] or
# [[e0,e2],e1], equal to a basis vector.
ONE_TERM_DEFECTS = [
    [(0, 1, 1, 1.0), (1, 2, 0, 1.0)],
    [(1, 2, 1, 1.0), (0, 1, 2, -1.0)],
    [(0, 2, 2, 1.0), (1, 2, 0, -1.0)],
]


@pytest.mark.parametrize("brackets", ONE_TERM_DEFECTS)
@pytest.mark.parametrize("labels", [(0, 1, 2), (4, 1, 3)])
def test_validate_sees_each_jacobi_term_alone(brackets, labels):
    # the labels place the defect at other indices of a dim-5 tensor
    d = max(labels) + 1
    c = np.zeros((d, d, d))
    for x, y, z, val in brackets:
        x, y, z = labels[x], labels[y], labels[z]
        c[x, y, z], c[y, x, z] = val, -val
    alg = LieAlgebra(name="bad", basis=np.zeros((d, 1, 1)), structure=c,
                     killing=np.zeros((d, d)))
    report = alg.validate()
    assert report["antisymmetry"] == 0.0 and report["killing_ad_invariance"] == 0.0
    assert report["jacobi"] == dense_jacobi(c) == 1.0
    assert not report["ok"]


def dense_structure(mats):
    """Reference: structure constants from the whole dim^2 N^2 commutator table.

    Returns the thresholded constants, the closure residual and its scale.
    """
    mats = np.asarray(mats, dtype=float)
    dim = mats.shape[0]
    flat = mats.reshape(dim, -1)
    pinv = np.linalg.pinv(flat)
    comm = np.tensordot(mats, mats, (2, 1)).transpose(0, 2, 1, 3)
    comm = (comm - comm.transpose(1, 0, 2, 3)).reshape(dim, dim, -1)
    structure = comm @ pinv
    closure = np.abs(structure @ flat - comm).max()
    scale = max(1.0, np.abs(comm).max())
    structure[np.abs(structure) < TOL.structure_zero] = 0.0
    return structure, closure, scale


STRUCTURE_BUILDERS = (
    [(f"so{n}", lambda n=n: build_so(n)) for n in range(3, 15)]
    + [(f"su{n}", lambda n=n: build_su(n)) for n in range(2, 7)]
    + [(f"u{n}", lambda n=n: build_u(n)) for n in range(1, 5)]
    + [(f"sp{n}", lambda n=n: build_sp(n)) for n in range(1, 6)]
    + [("g2", build_g2)]
)


@pytest.mark.parametrize("key,builder", STRUCTURE_BUILDERS, ids=[k for k, _ in STRUCTURE_BUILDERS])
def test_blocked_structure_matches_dense_reference(key, builder):
    alg = builder()
    ref, closure, scale = dense_structure(alg.basis)
    assert closure <= 1e-8 * scale
    assert np.abs(alg.structure - ref).max() <= 1e-14
    killing = np.tensordot(ref, ref, ([1, 2], [2, 1]))
    assert np.abs(alg.killing - killing).max() <= 1e-12 * max(1.0, np.abs(killing).max())


@pytest.mark.parametrize("key", ["su3", "sp2", "g2", "su2+so5"])
def test_results_do_not_depend_on_the_block_budget(key, monkeypatch):
    alg = JACOBI_BUILDERS[key]()
    bent = perturbed(alg, np.random.default_rng(3))
    skewed = alg.structure.copy()
    skewed[0, 1] += 1e-3  # neither antisymmetric nor ad-invariant
    skewed = LieAlgebra(name="skewed", basis=alg.basis, structure=skewed, killing=alg.killing)
    expected = [alg.structure, alg.validate(), bent.validate(), skewed.validate()]
    assert not expected[3]["ok"]
    # one commutator per block in from_basis, one smallest index a per Jacobi
    # block, whose nonzeros are read in many parts
    monkeypatch.setattr(liealg, "_BLOCK", 64)
    small = liealg.from_basis(alg.name, alg.basis)
    assert np.abs(small.structure - expected[0]).max() <= 1e-14
    for report, ref in [(small.validate(), expected[1]), (bent.validate(), expected[2]),
                        (skewed.validate(), expected[3])]:
        assert report["ok"] == ref["ok"]
        for name in ("antisymmetry", "jacobi", "killing_ad_invariance"):
            assert report[name] == pytest.approx(ref[name], rel=1e-9, abs=1e-14)


def test_basis_that_is_not_closed_is_rejected(monkeypatch):
    so3 = build_so(3).basis
    with pytest.raises(LieAlgebraError, match="not bracket-closed"):
        liealg.from_basis("half-so3", so3[:2])
    # one commutator per block: only [A, C], in the second block of its
    # row, leaves the span (A and C lie in one su(2) ideal of so(4), B in the other)
    e12, e13, _, _, e24, e34 = build_so(4).basis
    monkeypatch.setattr(liealg, "_BLOCK", 16)
    with pytest.raises(LieAlgebraError, match="not bracket-closed"):
        liealg.from_basis("part-so4", [e12 + e34, e12 - e34, e13 - e24])


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sp5_build_stays_within_its_budget():
    # the dense commutator table and the stored Jacobi product peaked at 29.1 MiB
    mats = [liealg.realify(z) for z in liealg._sp_complex_basis(5)]
    assert traced_peak(lambda: liealg.from_basis("sp(5)", mats)) < 29.1 * 2**20 / 2


def test_so14_validate_stays_within_its_budget():
    # the stored Jacobi product peaked at 20.5 MiB
    so14 = build_so(14)
    assert traced_peak(so14.validate) < 20.5 * 2**20 / 2


def test_dense_jacobi_check_stays_within_its_budget():
    # every bracket and column nonzero (d = 36): the whole Jacobi product
    # peaked at 33.4 MiB, the slabs of one smallest index are O(d^3)
    so9 = build_so(9)
    p = 1e-3 * np.random.default_rng(5).standard_normal(so9.structure.shape)
    bent = LieAlgebra(name="so9~", basis=so9.basis, killing=so9.killing,
                      structure=so9.structure + p - p.transpose(1, 0, 2))
    assert np.count_nonzero(bent.structure) == 36**3 - 36**2
    assert traced_peak(bent.validate) < 33.4 * 2**20 / 3
    assert_matches_reference(bent)


def test_tall_nullspace_forms_no_square_u(flag_d64):
    # the centre of k of flag-D(6,4): a 484 x 22 system, whose full SVD U
    # alone would be 484^2 doubles
    system = flag_d64.k_structure.transpose(1, 2, 0).reshape(-1, flag_d64.dim_k)
    assert system.shape == (484, 22)
    result = []
    peak = traced_peak(lambda: result.append(liealg.nullspace(system)))
    assert peak < 8 * 484 * 484
    (basis,) = result
    assert basis.shape == (1, 22)
    assert np.abs(system @ basis.T).max() < 1e-12
    assert np.abs(basis @ basis.T - 1.0).max() < 1e-12


def test_realify_matches_the_kronecker_sum_bit_for_bit(rng):
    i2, j2 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])
    mats = [z for n in range(1, 5) for z in liealg.u_complex_basis(n)]
    mats += [z for n in range(1, 4) for z in liealg._sp_complex_basis(n)]
    mats += [rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)),
             np.array([[complex(-0.0, 0.0), complex(-1.0, -0.0), complex(2.0, -0.0)]])]
    for z in mats:
        ref = np.kron(z.real, i2) + np.kron(z.imag, j2)
        assert liealg.realify(z).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n,dim", [(8, 28), (10, 45), (14, 91)])
def test_wolf_ambient_algebras_build(n, dim):
    alg = build_so(n)
    assert alg.dim == dim
    assert alg.validate()["ok"]


def test_ideal_of_so12_does_not_form_the_full_svd():
    so12 = build_so(12)
    v = np.random.default_rng(7).standard_normal(so12.dim)
    tracemalloc.start()
    try:
        ideal = ideal_generated_by(so12, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ideal.shape == (66, 66)
    assert peak < 32 * 2**20


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
