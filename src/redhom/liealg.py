"""Compact matrix Lie algebras realized over the reals.

Bases, structure constants, Killing forms, stabilizer subalgebras,
Gram-Schmidt and invariant inner products.  Everything here is a pure
function over immutable data; instances can be shared for concurrent
read-only use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .tolerances import TOL

_BLOCK = 1 << 16  # entries of one scratch table in an algebra build or check

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


def nullspace(a, rtol: float = TOL.nullspace_rtol):
    """Orthonormal basis (rows) of the right null space of ``a``.

    A tall ``a`` (rows >= cols) takes the thin SVD, whose vt is already
    square, so the rows x rows U is never formed; a wide one needs the full vt.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0 or not np.any(a):
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int((s > s[0] * rtol).sum())
    return vt[rank:]


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional Lie algebra of real square matrices.

    ``basis`` has shape (dim, N, N); ``structure[i, j, k]`` are the
    coefficients of [Z_i, Z_j] in the basis; ``killing[i, j]`` is
    tr(ad Z_i ad Z_j).  Instances are immutable: the dataclass is frozen
    and the arrays are read-only, so a write raises ``ValueError`` instead
    of corrupting a cached algebra; a writeable or borrowed array is
    copied first.
    """

    name: str
    basis: np.ndarray
    structure: np.ndarray
    killing: np.ndarray

    def __post_init__(self):
        for attr in ("basis", "structure", "killing"):
            array = np.asarray(getattr(self, attr), dtype=float)
            if array.flags.writeable or not array.flags.owndata:
                array = _read_only(array.copy())
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

    def coefficients(self, mat) -> np.ndarray:
        """Coefficient vector of a matrix lying in the span of the basis."""
        mat = np.asarray(mat, dtype=float)
        coeffs = mat.reshape(-1) @ self._basis_pinv
        residual = np.abs(self.matrix(coeffs) - mat).max()
        scale = max(1.0, np.abs(mat).max())
        if residual > TOL.span * scale:
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

    def validate(self, tol: float = TOL.valid) -> dict:
        """Residuals of antisymmetry, Jacobi and ad-invariance of the Killing form.

        Antisymmetry and ad-invariance are taken over blocks of the first
        index of at most ``_BLOCK`` entries; see ``_jacobi_residual`` for Jacobi.
        """
        c, k = self.structure, self.killing
        antisym = ad_inv = 0.0
        step = max(1, _BLOCK // max(self.dim, 1) ** 2)
        for i in range(0, self.dim, step):
            part = c[i:i + step]
            antisym = max(antisym, np.abs(part + c[:, i:i + step].transpose(1, 0, 2)).max())
            part = part @ k
            ad_inv = max(ad_inv, np.abs(part + part.transpose(0, 2, 1)).max())
        jacobi = _jacobi_residual(c)
        return {
            "antisymmetry": float(antisym),
            "jacobi": float(jacobi),
            "killing_ad_invariance": float(ad_inv),
            "ok": bool(max(antisym, jacobi, ad_inv) < tol),
        }


def _product(rows: np.ndarray, right: np.ndarray, inner: np.ndarray,
             cols: np.ndarray) -> np.ndarray:
    """``rows[:, inner] @ right[inner][:, cols]``, flattened, with one
    trailing zero that every clipped index past the end reads.

    The columns of ``right`` are gathered a chunk of at most ``_BLOCK``
    entries at a time, so ``right`` is never copied whole.
    """
    lhs = rows[:, inner]
    out = np.zeros(rows.shape[0] * cols.size + 1)
    table = out[:-1].reshape(rows.shape[0], cols.size)
    step = max(1, _BLOCK // max(inner.size, 1))
    for j in range(0, cols.size, step):
        np.matmul(lhs, right[inner[:, None], cols[j:j + step]], out=table[:, j:j + step])
    return out


def _nonzeros(flat: np.ndarray):
    """Indices of the nonzero entries of a ``_product``, ``_BLOCK`` at a time."""
    end = flat.size - 1
    for start in range(0, end, _BLOCK):
        yield start + np.flatnonzero(flat[start:min(start + _BLOCK, end)] != 0)


def _jacobi_residual(c: np.ndarray) -> float:
    """max |[[a,b],e] + [[b,e],a] + [[e,a],b]| over distinct a < b < e.

    With T[(p,q),(r,m)] = sum_l c[p,q,l] c[l,r,m] over the nonzero brackets
    p < q and the nonzero columns (r, m) of c, the Jacobi sum is
    J = T(a,b,e) + T(b,e,a) - T(a,e,b).  Once c is antisymmetric (checked
    beside this) J is alternating, so the sorted triples are the whole
    check, and J can be nonzero only where one of its three terms is.
    T is never stored.  For a block of smallest indices a0 <= a < a1 two
    slabs of it are formed: P, its rows (a, q) over the columns (r, m) with
    r > a0, and Q, its columns (a, m) over the rows (b, e) with b >= a0.
    P holds the first and third terms of every triple (a, b, e) in the
    block and Q the second, so each nonzero of P or Q names a triple whose
    three terms are read back from P and Q.
    Blocks grow while P and Q fit in ``_BLOCK`` entries, and their nonzeros
    are read ``_BLOCK`` at a time.  A block holds at least one a, whose
    slabs are O(d^3) even for a dense c, never the d^4 product; each product
    runs only over the brackets its rows reach, so a sparse c costs little.
    Beside the slabs the call keeps the nonzero bracket rows and c's
    nonzero pattern, and gathers the right operand of each product from c,
    ``_BLOCK`` entries at a time, so no copy of c is made.
    """
    d = c.shape[0]
    nonzero = c != 0
    x, y = np.nonzero(np.triu(nonzero.any(axis=2), 1))
    if not x.size:
        return 0.0
    right, flat = c.reshape(d, d * d), nonzero.reshape(d, d * d)
    cols = np.flatnonzero(flat.any(axis=0))
    col_r, col_m = np.divmod(cols, d)
    # the last bracket row reaching each l: row r0 onwards reaches l iff last[l] >= r0
    pairs = c[x, y]
    reached = pairs != 0
    last = x.size - 1 - reached[::-1].argmax(axis=0)
    last[~reached.any(axis=0)] = -1
    row_start = np.searchsorted(x, np.arange(d + 1)).tolist()
    col_start = np.searchsorted(col_r, np.arange(d + 1)).tolist()
    # rows and columns of T; an absent one maps past the end of every slab
    missing = d ** 4
    row_of = np.full(d * d, missing)
    row_of[x * d + y] = np.arange(x.size)
    col_of = np.full(d * d, missing)
    col_of[cols] = np.arange(cols.size)
    ncols = cols.size

    jacobi, a0 = 0.0, 0
    while a0 < d:
        # grow the block of smallest indices [a0, a1) while its slabs fit;
        # P's columns start at p0, the first with r > a0
        r0, c0, p0, a1 = row_start[a0], col_start[a0], col_start[a0 + 1], a0 + 1
        pcols = ncols - p0
        while a1 < d and ((row_start[a1 + 1] - r0) * pcols
                          + (x.size - r0) * (col_start[a1 + 1] - c0)) <= _BLOCK:
            a1 += 1
        r1, c1 = row_start[a1], col_start[a1]
        nq = c1 - c0
        p = _product(pairs[r0:r1], right, np.flatnonzero(reached[r0:r1].any(axis=0)),
                     cols[p0:])
        reach = np.flatnonzero(flat[:, cols[c0:c1]].any(axis=1) & (last >= r0))
        q = _product(pairs[r0:], right, reach, cols[c0:c1])

        def in_p(a, s, r, m):  # T(a,s,r,m) for a in the block and r > a
            return p.take((row_of[a * d + s] - r0) * pcols + col_of[r * d + m] - p0,
                          mode="clip")

        # nonzeros of P: T(a,s,r,m) with a < r != s, the triple a < min(s,r) < max(s,r)
        for idx in _nonzeros(p):
            i, j = np.divmod(idx, pcols)
            a, s, r, m = x[r0 + i], y[r0 + i], col_r[p0 + j], col_m[p0 + j]
            keep = (r > a) & (r != s)
            idx, a, s, r, m = idx[keep], a[keep], s[keep], r[keep], m[keep]
            jac = p[idx] - in_p(a, r, s, m)
            np.negative(jac, out=jac, where=s > r)
            lo, hi = np.minimum(s, r), np.maximum(s, r)
            jac += q.take((row_of[lo * d + hi] - r0) * nq + col_of[a * d + m] - c0, mode="clip")
            jacobi = max(jacobi, float(np.abs(jac).max(initial=0.0)))

        # nonzeros of Q: T(b,e,a,m) with a < b < e
        for idx in _nonzeros(q):
            i, j = np.divmod(idx, nq)
            b, e, a, m = x[r0 + i], y[r0 + i], col_r[c0 + j], col_m[c0 + j]
            keep = b > a
            idx, b, e, a, m = idx[keep], b[keep], e[keep], a[keep], m[keep]
            jac = in_p(a, b, e, m) + q[idx] - in_p(a, e, b, m)
            jacobi = max(jacobi, float(np.abs(jac).max(initial=0.0)))
        a0 = a1
    return jacobi


def from_basis(name: str, mats) -> LieAlgebra:
    """Build a LieAlgebra from a list/array of real matrices.

    Structure constants are solved by least squares; the basis must be
    linearly independent and bracket-closed.  The commutators [Z_i, Z_j],
    i < j, are formed and read off in blocks of at most ``_BLOCK`` entries
    (part of one row i of the table), with the closure residual and its
    scale kept as running maxima, so the dim^2 N^2 commutator table is
    never stored.  [Z_j, Z_i] is the exact negative of [Z_i, Z_j] and
    [Z_i, Z_i] = 0, so their residuals are the ones already taken.  Small
    constants are zeroed block by block and the Killing form is summed
    over blocks of its columns, so no dim^3 temporary is formed, and the
    algebra takes the arrays built here without copying them.
    """
    mats = _read_only(np.array(mats, dtype=float))
    dim = mats.shape[0]
    flat = mats.reshape(dim, -1)
    if np.linalg.matrix_rank(flat, tol=TOL.independence) != dim:
        raise LieAlgebraError(f"basis of {name} is linearly dependent")
    pinv = np.linalg.pinv(flat)
    structure = np.zeros((dim, dim, dim))
    closure, scale = 0.0, 1.0
    step = max(1, _BLOCK // flat.shape[1])
    for i in range(dim):
        for j in range(i + 1, dim, step):
            part = mats[j:j + step]
            comm = (mats[i] @ part - part @ mats[i]).reshape(part.shape[0], -1)
            coeffs = comm @ pinv
            closure = max(closure, np.abs(coeffs @ flat - comm).max())
            scale = max(scale, np.abs(comm).max())
            coeffs[np.abs(coeffs) < TOL.structure_zero] = 0.0
            structure[i, j:j + step] = coeffs
            # 0 - x rather than -x: a zeroed constant stays +0.0
            structure[j:j + step, i] = 0.0 - coeffs
    if closure > TOL.span * scale:
        raise LieAlgebraError(
            f"basis of {name} is not bracket-closed (residual {closure:.3e})"
        )
    # killing[i, j] = sum_{k,l} c[i,k,l] c[j,l,k], a block of columns j at a
    # time: at most _BLOCK entries, unless that takes more than four blocks,
    # as each block reads the whole structure tensor
    killing = np.empty((dim, dim))
    rows = structure.reshape(dim, -1)
    step = max(1, _BLOCK // max(dim, 1) ** 2, -(-dim // 4))
    for j in range(0, dim, step):
        cols = structure[j:j + step].transpose(2, 1, 0).reshape(dim * dim, -1)
        np.matmul(rows, cols, out=killing[:, j:j + step])
    alg = LieAlgebra(name=name, basis=mats, structure=_read_only(structure),
                     killing=_read_only(killing))
    report = alg.validate()
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
    """Real 2n x 2n matrix of a complex n x n one, interleaving re/im pairs.

    Entry (i, j) becomes the block [[re, -im], [im, re]].  Each block entry
    is formed as re * I + im * J would form it, zero products included, so
    signed zeros match that Kronecker sum bit for bit.
    """
    re, im = z.real, z.imag
    out = np.empty((2 * re.shape[0], 2 * re.shape[1]))
    out[0::2, 0::2] = out[1::2, 1::2] = re + im * 0.0
    out[0::2, 1::2] = re * 0.0 - im
    out[1::2, 0::2] = re * 0.0 + im
    return out


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


def _sp_embed(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """The block [[Z1, Z2], [-conj(Z2), conj(Z1)]] of sp(n) inside u(2n)."""
    return np.block([[z1, z2], [-z2.conj(), z1.conj()]])


def _sp_blocks(n: int):
    """(Z1, Z2) of the sp(n) basis: u(n) in Z1, then symmetric Z2 per pair i <= j."""
    zero = np.zeros((n, n), dtype=complex)
    out = [(z1, zero) for z1 in u_complex_basis(n)]
    for (i, j), value in product(combinations_with_replacement(range(n), 2), (1.0, 1.0j)):
        s = np.zeros((n, n), dtype=complex)
        s[i, j] = s[j, i] = value
        out.append((zero, s))
    return out


def _sp_complex_basis(n: int):
    """sp(n) inside u(2n), one ``_sp_embed`` block per ``_sp_blocks`` pair."""
    return [_sp_embed(z1, z2) for z1, z2 in _sp_blocks(n)]


@lru_cache(maxsize=None)
def build_sp(n: int) -> LieAlgebra:
    """sp(n) (compact symplectic) realified to 4n x 4n real matrices."""
    if n < 1:
        raise LieAlgebraError("sp(n) requires n >= 1")
    return from_basis(f"sp({n})", [realify(z) for z in _sp_complex_basis(n)])


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
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
    return from_basis(f"{a.name}+{b.name}", mats)


# ---------------------------------------------------------------------------
# stabilizers and g2


def three_form() -> np.ndarray:
    """Dense antisymmetric (7,7,7) array of the associative 3-form."""
    w = np.zeros((7, 7, 7))
    for i, j, k, val in _G2_FORM:
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


def stabilizer_subalgebra(a: LieAlgebra, constraint,
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
    if leak.max() > TOL.span:
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
def three_form_stabilizer() -> np.ndarray:
    """so(7) coefficients (read-only rows) of the associative 3-form's stabilizer."""
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
    return _read_only(coeffs)


@lru_cache(maxsize=None)
def build_g2() -> LieAlgebra:
    """g2 as the stabilizer of the associative 3-form inside so(7)."""
    mats = np.einsum("ki,iab->kab", three_form_stabilizer(), build_so(7).basis)
    return from_basis("g2", mats)


def ideal_generated_by(a: LieAlgebra, v) -> np.ndarray:
    """Orthonormal basis of the smallest ideal containing a coefficient vector."""
    span = np.asarray(v, dtype=float).reshape(1, -1)
    span = span / np.linalg.norm(span)
    while True:
        brs = a.brackets(np.eye(a.dim), span).reshape(-1, a.dim)
        stacked = np.vstack([span, brs])
        _, s, vt = np.linalg.svd(stacked, full_matrices=False)
        rank = int((s > s[0] * TOL.ideal_rank).sum())
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
        if np.abs(self.gram - self.gram.T).max() > TOL.gram_symmetry:
            raise LieAlgebraError("inner product gram matrix is not symmetric")
        if self.gram.size and np.linalg.eigvalsh(self.gram).min() <= TOL.gram_positive:
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
        if max(np.abs(a.structure[i]).max(), np.abs(a.structure[:, i, :]).max()) < TOL.central
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


def gram_schmidt(vectors, ip: InnerProduct) -> np.ndarray:
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
        if nrm < TOL.dependence * max(1.0, ip.norm(row)):
            raise LieAlgebraError("gram_schmidt: input vectors are nearly dependent")
        out.append(v / nrm)
    return np.array(out).reshape(len(out), vectors.shape[1] if vectors.size else 0)
