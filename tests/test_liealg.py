import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import algebra_from_dense, dense_view
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
from redhom.reductive import decompose
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
    new, ref = alg.validate()["jacobi"], dense_jacobi(dense_view(alg))
    assert abs(new - ref) <= 1e-9 * max(new, ref), (alg.name, new, ref)


def perturbed(alg, rng, size=1e-3):
    """``alg`` with a seeded antisymmetric perturbation of its structure tensor.

    Small algebras get a dense perturbation; above dim 30 a sparse one, which
    also adds nonzero brackets and columns the unperturbed tensor lacks.
    """
    p = size * rng.standard_normal((alg.dim,) * 3)
    if alg.dim > 30:
        p *= rng.random(p.shape) < 2e-3
    p -= p.transpose(1, 0, 2)
    return algebra_from_dense(f"{alg.name}~", alg.basis, dense_view(alg) + p, alg.killing)


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
    alg = algebra_from_dense("bad", np.zeros((3, 1, 1)), c, np.zeros((3, 3)))
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
    alg = algebra_from_dense("bad", np.zeros((d, 1, 1)), c, np.zeros((d, d)))
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
    assert np.abs(dense_view(alg) - ref).max() <= 1e-14
    killing = np.tensordot(ref, ref, ([1, 2], [2, 1]))
    assert np.abs(alg.killing - killing).max() <= 1e-12 * max(1.0, np.abs(killing).max())


def dense_report(alg):
    """Reference: antisymmetry, Jacobi and ad-invariance on the dense tensor."""
    c = dense_view(alg)
    part = c @ alg.killing
    return {"antisymmetry": float(np.abs(c + c.transpose(1, 0, 2)).max()),
            "jacobi": dense_jacobi(c),
            "killing_ad_invariance": float(np.abs(part + part.transpose(0, 2, 1)).max())}


@pytest.mark.parametrize("key,builder", STRUCTURE_BUILDERS, ids=[k for k, _ in STRUCTURE_BUILDERS])
def test_validate_matches_the_dense_report(key, builder):
    alg = builder()
    report, ref = alg.validate(), dense_report(alg)
    assert report["ok"]
    for name, value in ref.items():
        assert abs(report[name] - value) <= 1e-14, name
    # a seeded perturbation of one order of each bracket only: the swapped
    # constants are stored apart, so antisymmetry sees it
    rng = np.random.default_rng(11)
    p = 1e-3 * rng.standard_normal((alg.dim,) * 3) * (rng.random((alg.dim,) * 3) < 0.05)
    p[0, -1, 0] = 1e-3
    bent = algebra_from_dense(f"{key}~", alg.basis, dense_view(alg) + p, alg.killing)
    c = dense_view(bent)
    report = bent.validate()
    assert report["antisymmetry"] == float(np.abs(c + c.transpose(1, 0, 2)).max()) > 1e-6
    assert not report["ok"]


@pytest.mark.parametrize("key", ["su3", "sp2", "g2", "su2+so5"])
def test_results_do_not_depend_on_the_block_budget(key, monkeypatch):
    alg = JACOBI_BUILDERS[key]()
    bent = perturbed(alg, np.random.default_rng(3))
    skewed = dense_view(alg)
    skewed[0, 1] += 1e-3  # neither antisymmetric nor ad-invariant
    skewed = algebra_from_dense("skewed", alg.basis, skewed, alg.killing)
    expected = [dense_view(alg), alg.validate(), bent.validate(), skewed.validate()]
    assert not expected[3]["ok"]
    rng = np.random.default_rng(4)
    a, b, onto = (rng.standard_normal(shape) for shape in
                  ((7, alg.dim), (5, alg.dim), (alg.dim, 3)))
    tables = [alg.brackets(a, b), alg.brackets(a, b, onto)]
    # a space over the first basis vector, and one over random k and m
    # rows, whose every bracket row is far from 0 and has its maximum in
    # one row block
    space = decompose(alg, np.eye(alg.dim)[:1])
    scattered = dataclasses.replace(space, k_basis=rng.standard_normal((3, alg.dim)),
                                    m_basis=rng.standard_normal((alg.dim - 3, alg.dim)))
    reports = [space.validate(), scattered.validate()]
    assert reports[0]["ok"] and not reports[1]["ok"]
    # one commutator per block in from_basis, one first index per
    # antisymmetry and Killing block, one row of A per block of brackets
    # and of ReductiveSpace.validate's bracket rows; the Jacobi check
    # takes no block budget
    monkeypatch.setattr(liealg, "_BLOCK", 64)
    small = liealg.from_basis(alg.name, alg.basis)
    assert np.abs(dense_view(small) - expected[0]).max() <= 1e-14
    for report, ref in [(small.validate(), expected[1]), (bent.validate(), expected[2]),
                        (skewed.validate(), expected[3])]:
        assert report["ok"] == ref["ok"]
        for name in ("antisymmetry", "jacobi", "killing_ad_invariance"):
            assert report[name] == pytest.approx(ref[name], rel=1e-9, abs=1e-14)
    for budget in (64, 1):
        monkeypatch.setattr(liealg, "_BLOCK", budget)
        assert np.array_equal(alg.brackets(a, b), tables[0])
        assert np.array_equal(alg.brackets(a, b, onto), tables[1])
        assert [dataclasses.replace(s).validate() for s in (space, scattered)] == reports


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


def test_so18_validate_stays_within_its_budget():
    # the Jacobi slabs peaked at 10.9 MiB; one product K_m at a time is
    # about 1 MiB
    so18 = build_so(18)
    assert traced_peak(so18.validate) < 10.9 * 2**20 / 4


def test_dense_jacobi_check_stays_within_its_budget():
    # every bracket and column nonzero (d = 36): the whole Jacobi product
    # peaked at 33.4 MiB, the slabs of one smallest index are O(d^3)
    so9 = build_so(9)
    p = 1e-3 * np.random.default_rng(5).standard_normal((36,) * 3)
    bent = algebra_from_dense("so9~", so9.basis, dense_view(so9) + p - p.transpose(1, 0, 2),
                              so9.killing)
    assert bent.structure_c.size == 36**3 - 36**2
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


@pytest.mark.parametrize("key,builder", STRUCTURE_BUILDERS, ids=[k for k, _ in STRUCTURE_BUILDERS])
def test_brackets_match_the_dense_contraction(key, builder):
    alg = builder()
    c = dense_view(alg)
    rng = np.random.default_rng(12)
    a, b, onto = (rng.standard_normal(shape) for shape in
                  ((9, alg.dim), (6, alg.dim), (alg.dim, 4)))
    for got, ref in [(alg.brackets(a, b, onto), np.einsum("pi,qj,ijk,kr->pqr", a, b, c, onto)),
                     (alg.brackets(a, b), np.einsum("pi,qj,ijk->pqk", a, b, c))]:
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_brackets_check_their_widths():
    so3 = build_so(3)
    rows = np.eye(3)
    for a, b in [([[1, 0, 0, 7, 9]], [[0, 1, 0]]), (rows, rows[:, :2]),
                 (rows[0], rows), (rows, np.ones((2, 3, 3)))]:
        with pytest.raises(LieAlgebraError):
            so3.brackets(a, b)
    for onto in (np.ones((4, 2)), np.ones((2, 3)), np.ones(3)):
        with pytest.raises(LieAlgebraError):
            so3.brackets(rows, rows, onto)
    for x in (np.ones(5), np.ones(2), np.ones((1, 3))):
        with pytest.raises(LieAlgebraError):
            so3.ad(x)
        with pytest.raises(LieAlgebraError):
            so3.bracket(x, rows[0])
    assert so3.brackets(rows[:0], rows).shape == (0, 3, 3)
    assert so3.brackets(rows, rows[:0], np.ones((3, 2))).shape == (3, 0, 2)
    assert so3.brackets(rows, rows, np.ones((3, 0))).shape == (3, 3, 0)
    assert np.abs(so3.brackets([[1, 0, 0]], [[0, 1, 0]]) - [[[0, 0, 1]]]).max() < 1e-12


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
    with pytest.raises(LieAlgebraError):  # more rows than dimensions
        gram_schmidt(np.eye(10)[[*range(10), 0]] + 0.1, ip)


def gram_schmidt_loop(vectors, ip):
    """Classical Gram-Schmidt, one row at a time: the reference."""
    out = []
    for row in np.asarray(vectors, dtype=float):
        v = row.copy()
        for u in out:
            v = v - (u @ ip.gram @ v) * u
        nrm = np.sqrt(max(v @ ip.gram @ v, 0.0))
        if nrm < TOL.dependence * max(1.0, np.sqrt(row @ ip.gram @ row)):
            raise LieAlgebraError("gram_schmidt: input vectors are nearly dependent")
        out.append(v / nrm)
    return np.array(out)


@pytest.mark.parametrize("space_id", ["cp3", "sphere-s6", "flag-D(6,4)"])
def test_gram_schmidt_matches_the_row_loop(space_id):
    from redhom.catalog import build_space

    space = build_space(space_id)
    rng = np.random.default_rng(3)
    k = space.k_basis
    mixed = rng.standard_normal((k.shape[0], k.shape[0])) @ k
    complement = liealg.nullspace(k @ space.ip.gram)
    for rows in (k, mixed, complement, complement[::-1]):
        got, want = gram_schmidt(rows, space.ip), gram_schmidt_loop(rows, space.ip)
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got @ space.ip.gram @ got.T - np.eye(len(rows))).max() < 1e-12


def test_gram_schmidt_pivot_is_relative_to_the_row():
    # the same dependence at any scale above 1: pivot 1e-10 * |row| fails
    ip = bprime(build_so(5))
    e = np.eye(10)
    for scale in (1.0, 1e3):
        near = scale * (e[0] + 1e-10 * e[1])
        with pytest.raises(LieAlgebraError):
            gram_schmidt([scale * e[0], near], ip)
        with pytest.raises(LieAlgebraError):
            gram_schmidt_loop([scale * e[0], near], ip)
        assert len(gram_schmidt([scale * e[0], scale * (e[0] + 1e-6 * e[1])], ip)) == 2


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
    for array in (so5.basis, so5.structure_ijk, so5.structure_c, so5.killing, ip.gram):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] += 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        so5.structure_c = so5.structure_c.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ip.gram = ip.gram.copy()
    assert build_so(5) is so5 and so5.validate()["ok"]
    assert catalog.build_space("cp3").validate()["ok"]


def test_direct_sum_block_structure():
    ss = direct_sum(build_su(2), build_su(2))
    assert ss.dim == 6
    # cross brackets vanish
    assert np.abs(dense_view(ss)[:3, 3:, :]).max() < 1e-12
    assert ss.validate()["ok"]
