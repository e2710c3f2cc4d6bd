"""Compact matrix Lie algebras realized over the reals.

Bases, structure constants, Killing forms, stabilizer subalgebras,
Gram-Schmidt and invariant inner products.  Everything here is a pure
function over immutable data; instances can be shared for concurrent
read-only use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

DEFAULT_TOL = 1e-9

# Associative 3-form on R^7: index triples (1-based) and signs.
_G2_FORM = [
    (1, 2, 3, 1.0),
    (1, 4, 5, 1.0),
    (1, 6, 7, 1.0),
    (2, 4, 6, 1.0),
    (2, 5, 7, -1.0),
    (3, 4, 7, -1.0),
    (3, 5, 6, -1.0),
]


class LieAlgebraError(ValueError):
    """Construction or closure failure for a Lie algebra."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def nullspace(a, rtol: float = 1e-10):
    """Orthonormal basis (rows) of the right null space of ``a``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0 or not np.any(a):
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a)
    rank = int((s > s[0] * rtol).sum())
    return vt[rank:]


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional Lie algebra of real square matrices.

    ``basis`` has shape (dim, N, N); ``structure[i, j, k]`` are the
    coefficients of [Z_i, Z_j] in the basis; ``killing[i, j]`` is
    tr(ad Z_i ad Z_j).  Instances are immutable: the dataclass is frozen
    and the arrays are read-only copies, so a write raises ``ValueError``
    instead of corrupting a cached algebra.
    """

    name: str
    basis: np.ndarray
    structure: np.ndarray
    killing: np.ndarray

    def __post_init__(self):
        for attr in ("basis", "structure", "killing"):
            array = _read_only(np.array(getattr(self, attr), dtype=float))
            object.__setattr__(self, attr, array)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def _basis_pinv(self):
        flat = self.basis.reshape(self.dim, -1)
        return np.linalg.pinv(flat)

    def matrix(self, coeffs) -> np.ndarray:
        """Matrix realization of a coefficient vector."""
        return np.tensordot(np.asarray(coeffs, dtype=float), self.basis, axes=1)

    def coefficients(self, mat, tol: float = 1e-8) -> np.ndarray:
        """Coefficient vector of a matrix lying in the span of the basis."""
        mat = np.asarray(mat, dtype=float)
        coeffs = mat.reshape(-1) @ self._basis_pinv
        residual = np.abs(self.matrix(coeffs) - mat).max()
        scale = max(1.0, np.abs(mat).max())
        if residual > tol * scale:
            raise LieAlgebraError(
                f"matrix not in the span of {self.name} (residual {residual:.3e})"
            )
        return coeffs

    def bracket(self, x, y) -> np.ndarray:
        """Coefficients of [X, Y] for coefficient vectors x, y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise LieAlgebraError(
                f"expected coefficient vectors of length {self.dim}"
            )
        return np.einsum("ijk,i,j->k", self.structure, x, y)

    def brackets(self, a, b) -> np.ndarray:
        """Coefficient vectors of [A_i, B_j] for coefficient rows of A and B.

        Shape (len(A), len(B), dim).  Fixed contraction order: A against the
        first structure slot (tensordot), then B against the second (batched
        matmul).  ``@ (ip.gram @ C.T)`` reads it off in an ip-orthonormal basis C.
        """
        return np.asarray(b, dtype=float) @ np.tensordot(
            np.asarray(a, dtype=float), self.structure, (1, 0))

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(X) acting on coefficient vectors."""
        return np.einsum("i,ijk->kj", np.asarray(x, dtype=float), self.structure)

    def validate(self, tol: float = DEFAULT_TOL) -> dict:
        """Residuals of antisymmetry, Jacobi and ad-invariance of the Killing form."""
        c, k = self.structure, self.killing
        antisym = np.abs(c + c.transpose(1, 0, 2)).max() if self.dim else 0.0
        jacobi = 0.0
        for i in range(self.dim):
            term = (
                np.einsum("jm,mkl->jkl", c[i], c)
                + np.einsum("jkm,ml->jkl", c, c[:, i, :])
                + np.einsum("km,mjl->kjl", c[:, i, :], c).transpose(1, 0, 2)
            )
            jacobi = max(jacobi, np.abs(term).max())
        ad_inv = np.einsum("zxm,my->zxy", c, k)
        ad_inv = np.abs(ad_inv + ad_inv.transpose(0, 2, 1)).max() if self.dim else 0.0
        return {
            "antisymmetry": float(antisym),
            "jacobi": float(jacobi),
            "killing_ad_invariance": float(ad_inv),
            "ok": bool(max(antisym, jacobi, ad_inv) < tol),
        }


def from_basis(name: str, mats, tol: float = DEFAULT_TOL, validate: bool = True) -> LieAlgebra:
    """Build a LieAlgebra from a list/array of real matrices.

    Structure constants are solved by least squares; the basis must be
    linearly independent and bracket-closed.
    """
    mats = np.asarray(mats, dtype=float)
    dim = mats.shape[0]
    flat = mats.reshape(dim, -1)
    if np.linalg.matrix_rank(flat, tol=1e-10) != dim:
        raise LieAlgebraError(f"basis of {name} is linearly dependent")
    pinv = np.linalg.pinv(flat)
    comm = np.einsum("iab,jbc->ijac", mats, mats)
    comm = comm - comm.transpose(1, 0, 2, 3)
    structure = comm.reshape(dim, dim, -1) @ pinv
    closure = np.abs(
        structure @ flat - comm.reshape(dim, dim, -1)
    ).max() if dim else 0.0
    if closure > 1e-8 * max(1.0, np.abs(comm).max() if dim else 1.0):
        raise LieAlgebraError(
            f"basis of {name} is not bracket-closed (residual {closure:.3e})"
        )
    structure[np.abs(structure) < tol] = 0.0
    killing = np.einsum("iab,jba->ij", structure, structure)
    alg = LieAlgebra(name=name, basis=mats, structure=structure, killing=killing)
    if validate:
        report = alg.validate(tol=max(tol, 1e-8))
        if not report["ok"]:
            raise LieAlgebraError(f"{name} failed validation: {report}")
    return alg


# ---------------------------------------------------------------------------
# classical families


def _e_skew(n: int, i: int, j: int) -> np.ndarray:
    """E_{i,j} = -D_{i,j} + D_{j,i} (1-based indices)."""
    m = np.zeros((n, n))
    m[i - 1, j - 1] = -1.0
    m[j - 1, i - 1] = 1.0
    return m


def so_pairs(n: int):
    """Lexicographic (i, j) index pairs, i < j, 1-based."""
    return list(combinations(range(1, n + 1), 2))


@lru_cache(maxsize=None)
def build_so(n: int) -> LieAlgebra:
    """so(n) with the basis {E_{i,j} : i < j} in lexicographic order."""
    if n < 2:
        raise LieAlgebraError("so(n) requires n >= 2")
    mats = [_e_skew(n, i, j) for i, j in so_pairs(n)]
    return from_basis(f"so({n})", mats)


def realify(z: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of a complex n x n one, interleaving re/im pairs."""
    i2 = np.eye(2)
    j2 = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.kron(z.real, i2) + np.kron(z.imag, j2)


def _su_complex_basis(n: int):
    """Skew-Hermitian traceless basis: per pair the real then imaginary part."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[i, j], a[j, i] = 1.0, -1.0
            out.append(a)
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = b[j, i] = 1.0j
            out.append(b)
    for k in range(n - 1):
        d = np.zeros((n, n), dtype=complex)
        d[k, k], d[k + 1, k + 1] = 1.0j, -1.0j
        out.append(d)
    return out


def u_complex_basis(n: int):
    """Skew-Hermitian basis of u(n): su(n) basis followed by i*I."""
    return _su_complex_basis(n) + [1.0j * np.eye(n)]


@lru_cache(maxsize=None)
def build_su(n: int) -> LieAlgebra:
    """su(n) realified to 2n x 2n real matrices."""
    if n < 2:
        raise LieAlgebraError("su(n) requires n >= 2")
    return from_basis(f"su({n})", [realify(z) for z in _su_complex_basis(n)])


@lru_cache(maxsize=None)
def build_u(n: int) -> LieAlgebra:
    """u(n) realified to 2n x 2n real matrices; the last basis vector spans the centre."""
    if n < 1:
        raise LieAlgebraError("u(n) requires n >= 1")
    return from_basis(f"u({n})", [realify(z) for z in u_complex_basis(n)])


def _sp_complex_basis(n: int):
    """sp(n) inside u(2n): blocks [[Z1, Z2], [-conj(Z2), conj(Z1)]]."""
    out = []

    def embed(z1, z2):
        top = np.hstack([z1, z2])
        bot = np.hstack([-z2.conj(), z1.conj()])
        return np.vstack([top, bot])

    zero = np.zeros((n, n), dtype=complex)
    for z1 in u_complex_basis(n):
        out.append(embed(z1, zero))
    for i in range(n):
        for j in range(i, n):
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = s[j, i] = 1.0
            out.append(embed(zero, s))
            s = np.zeros((n, n), dtype=complex)
            s[i, j] = s[j, i] = 1.0j
            out.append(embed(zero, s))
    return out


@lru_cache(maxsize=None)
def build_sp(n: int) -> LieAlgebra:
    """sp(n) (compact symplectic) realified to 4n x 4n real matrices."""
    if n < 1:
        raise LieAlgebraError("sp(n) requires n >= 1")
    return from_basis(f"sp({n})", [realify(z) for z in _sp_complex_basis(n)])


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Block-diagonal direct sum of two algebras."""
    na, nb = a.ambient_dim, b.ambient_dim
    mats = []
    for m in a.basis:
        blk = np.zeros((na + nb, na + nb))
        blk[:na, :na] = m
        mats.append(blk)
    for m in b.basis:
        blk = np.zeros((na + nb, na + nb))
        blk[na:, na:] = m
        mats.append(blk)
    return from_basis(name or f"{a.name}+{b.name}", mats)


# ---------------------------------------------------------------------------
# stabilizers and g2


def three_form(coeff_triples=_G2_FORM) -> np.ndarray:
    """Dense antisymmetric (7,7,7) array of the associative 3-form."""
    w = np.zeros((7, 7, 7))
    for i, j, k, val in coeff_triples:
        for (a, b, c), sgn in [
            ((i, j, k), 1.0), ((j, k, i), 1.0), ((k, i, j), 1.0),
            ((j, i, k), -1.0), ((i, k, j), -1.0), ((k, j, i), -1.0),
        ]:
            w[a - 1, b - 1, c - 1] = sgn * val
    return w


def form_action(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Derivative action of a matrix on a 3-form (negative of the pushforward)."""
    return -(
        np.einsum("da,dbc->abc", x, w)
        + np.einsum("db,adc->abc", x, w)
        + np.einsum("dc,abd->abc", x, w)
    )


def stabilizer_subalgebra(a: LieAlgebra, constraint, tol: float = DEFAULT_TOL,
                          name: str = "stabilizer") -> np.ndarray:
    """Solve the linear system constraint(X) = 0 inside a Lie algebra.

    ``constraint`` maps an ambient matrix to a flat residual array and must
    be linear.  Returns coefficient vectors (rows) spanning the solution,
    verified to be bracket-closed.
    """
    cols = [np.asarray(constraint(m), dtype=float).reshape(-1) for m in a.basis]
    system = np.column_stack(cols)
    basis = nullspace(system)
    if basis.shape[0] == 0:
        return basis
    brs = a.brackets(basis, basis)
    leak = np.abs(brs - (brs @ basis.T) @ basis).max(axis=2)
    if leak.max() > max(tol, 1e-8):
        i, j = sorted(np.unravel_index(leak.argmax(), leak.shape))
        raise LieAlgebraError(
            f"{name}: constraint does not cut out a subalgebra "
            f"(bracket of members {i},{j} leaves the span)"
        )
    return basis


def centralizer_constraint(a: LieAlgebra):
    """Constraint selecting matrices commuting with the whole algebra."""
    def constraint(x):
        return np.stack([x @ m - m @ x for m in a.basis])
    return constraint


def vector_annihilator_constraint(v) -> callable:
    """Constraint selecting matrices killing a fixed ambient vector."""
    v = np.asarray(v, dtype=float)

    def constraint(x):
        return x @ v

    return constraint


@lru_cache(maxsize=None)
def build_g2() -> LieAlgebra:
    """g2 as the stabilizer of the associative 3-form inside so(7)."""
    so7 = build_so(7)
    w = three_form()
    triples = list(combinations(range(7), 3))

    def constraint(x):
        xw = form_action(x, w)
        return np.array([xw[t] for t in triples])

    coeffs = stabilizer_subalgebra(so7, constraint, name="g2")
    if coeffs.shape[0] != 14:
        raise LieAlgebraError(
            f"3-form stabilizer has dimension {coeffs.shape[0]}, expected 14 "
            "(check the 3-form convention)"
        )
    mats = np.einsum("ki,iab->kab", coeffs, so7.basis)
    return from_basis("g2", mats)


def ideal_generated_by(a: LieAlgebra, v, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of the smallest ideal containing a coefficient vector."""
    span = np.asarray(v, dtype=float).reshape(1, -1)
    span = span / np.linalg.norm(span)
    while True:
        brs = a.brackets(np.eye(a.dim), span).reshape(-1, a.dim)
        stacked = np.vstack([span, brs])
        u, s, vt = np.linalg.svd(stacked)
        rank = int((s > s[0] * tol).sum())
        if rank == span.shape[0]:
            return vt[:rank]
        span = vt[:rank]


# ---------------------------------------------------------------------------
# inner products


@dataclass(frozen=True)
class InnerProduct:
    """Symmetric positive-definite bilinear form over an algebra basis.

    Immutable: the dataclass is frozen and ``gram`` is a read-only copy.
    """

    gram: np.ndarray
    provenance: str = "custom-diagonal"

    def __post_init__(self):
        object.__setattr__(self, "gram", _read_only(np.array(self.gram, dtype=float)))
        if np.abs(self.gram - self.gram.T).max() > 1e-10:
            raise LieAlgebraError("inner product gram matrix is not symmetric")
        if self.gram.size and np.linalg.eigvalsh(self.gram).min() <= 1e-12:
            raise LieAlgebraError("inner product is not positive definite")

    def pairing(self, x, y) -> float:
        return float(np.asarray(x) @ self.gram @ np.asarray(y))

    def norm(self, x) -> float:
        return float(np.sqrt(max(self.pairing(x, x), 0.0)))


def negative_killing(a: LieAlgebra, center_weight: float | None = None) -> InnerProduct:
    """-K as an inner product; optionally patched on the centre.

    -K vanishes on the centre, so for non-semisimple algebras pass a
    positive ``center_weight`` to add a diagonal block on the central
    basis vectors (which must be basis elements, as in ``build_u``).
    """
    gram = -a.killing.copy()
    central = [
        i for i in range(a.dim)
        if np.abs(a.structure[i]).max() < 1e-12 and np.abs(a.structure[:, i, :]).max() < 1e-12
    ]
    if central and center_weight is None:
        raise LieAlgebraError(
            f"-K is degenerate on the centre of {a.name}; pass center_weight"
        )
    provenance = "negative-killing"
    for i in central:
        gram[i, i] += float(center_weight)
        provenance = "custom-diagonal"
    return InnerProduct(gram=gram, provenance=provenance)


def bprime(a: LieAlgebra) -> InnerProduct:
    """The trace form -(1/2) tr(AB) on a matrix algebra."""
    gram = -0.5 * np.einsum("iab,jba->ij", a.basis, a.basis)
    return InnerProduct(gram=gram, provenance="b-prime")


def gram_schmidt(vectors, ip: InnerProduct, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormalize rows with respect to an inner product.

    Raises on near-dependence (pivot below tolerance).  Already-orthonormal
    input is returned unchanged.
    """
    vectors = np.asarray(vectors, dtype=float)
    out = []
    for row in vectors:
        v = row.copy()
        for u in out:
            v = v - ip.pairing(u, v) * u
        nrm = ip.norm(v)
        if nrm < max(tol, 1e-12) * max(1.0, ip.norm(row)):
            raise LieAlgebraError("gram_schmidt: input vectors are nearly dependent")
        out.append(v / nrm)
    return np.array(out).reshape(len(out), vectors.shape[1] if vectors.size else 0)
