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

# entries of one scratch table in an algebra build, the antisymmetry and Killing
# checks, a space's validate bracket rows or a connection's equivariance
# check, and of all the scratch of one block of a bracket table; the Jacobi
# check is not blocked
_BLOCK = 1 << 16

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


def _max_abs(a: np.ndarray) -> float:
    """max |a| (0 when empty), read off the extremes with no |a| temporary."""
    return float(max(a.max(initial=0.0), -a.min(initial=0.0)))


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

    ``basis`` has shape (dim, N, N).  The structure constants are stored
    as coordinates: column n of ``structure_ijk`` is an index triple
    (i, j, k) and ``structure_c[n]`` the coefficient of Z_k in
    [Z_i, Z_j].  Every nonzero constant is stored, once, so each bracket
    appears in both orders (i, j) and (j, i); no dim^3 array is formed.
    ``killing[i, j]`` is
    tr(ad Z_i ad Z_j).  Instances are immutable: the dataclass is frozen
    and the arrays are read-only, so a write raises ``ValueError`` instead
    of corrupting a cached algebra; a writeable or borrowed array is
    copied first.
    """

    name: str
    basis: np.ndarray
    structure_ijk: np.ndarray    # (3, nnz) indices of the nonzero constants
    structure_c: np.ndarray      # (nnz,) their values
    killing: np.ndarray

    def __post_init__(self):
        for attr, dtype in (("basis", float), ("structure_ijk", np.intp),
                            ("structure_c", float), ("killing", float)):
            array = np.asarray(getattr(self, attr), dtype=dtype)
            if array.flags.writeable or not array.flags.owndata:
                array = _read_only(array.copy())
            object.__setattr__(self, attr, array)
        if self.structure_ijk.shape != (3, self.structure_c.size):
            raise LieAlgebraError(f"structure indices of shape {self.structure_ijk.shape} "
                                  f"for {self.structure_c.size} constants")

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

    @cached_property
    def _first_slot_groups(self) -> tuple:
        """(i, c, cols, layers): the constants ordered by j * dim + k, the
        distinct values ``cols`` of j * dim + k, and per rank r the pair
        (n, g) of ``layers[r]``: the positions n of the r-th constant of
        each column g that has one."""
        i, j, k = self.structure_ijk
        key = j * self.dim + k
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.r_[True, key[1:] != key[:-1]] if key.size else np.zeros(0, dtype=bool)
        group = np.cumsum(first) - 1
        rank = np.arange(key.size) - np.flatnonzero(first)[group]
        layers = [(np.flatnonzero(rank == r), group[rank == r])
                  for r in range(rank.max(initial=-1) + 1)]
        return i[order], self.structure_c[order], key[first], layers

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
        return self.brackets(np.asarray(x, dtype=float)[None],
                             np.asarray(y, dtype=float)[None])[0, 0]

    def brackets(self, a, b, onto=None) -> np.ndarray:
        """out[p, q, r] = sum_k [A_p, B_q]_k onto[k, r] for coefficient rows of A and B.

        Shape (len(A), len(B), onto.shape[1]); without ``onto`` the
        coefficient vectors themselves, shape (len(A), len(B), dim).
        ``onto = ip.gram @ C.T`` reads the brackets off in an ip-orthonormal
        basis C.  Fixed contraction order, one block of rows of A at a time:
        A against the first structure slot, G[p, j, k] = sum_i A[p, i] c[i, j, k],
        summed in order over the constants that share (j, k); then B against
        the second slot (batched matmul); then ``onto``.  A block holds as
        many rows of A as ``_BLOCK`` entries allow for everything it
        allocates: per row the constants' terms, the dim^2 first-slot table
        and len(B) * (dim + width of the output) for the product with B and
        its slab of the output; one row when even that is larger.
        """
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        d = self.dim
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != d or b.shape[1] != d:
            raise LieAlgebraError(f"expected rows of {d} coefficients, "
                                  f"got shapes {a.shape} and {b.shape}")
        if onto is not None:
            onto = np.asarray(onto, dtype=float)
            if onto.ndim != 2 or onto.shape[0] != d:
                raise LieAlgebraError(f"expected a read-off with {d} rows, got shape {onto.shape}")
        out = np.empty((a.shape[0], b.shape[0], d if onto is None else onto.shape[1]))
        per_row = self.structure_c.size + d * d + b.shape[0] * (d + out.shape[2])
        step = max(1, _BLOCK // max(per_row, 1))
        # each first-slot table is a temporary of one statement, so no
        # block's scratch lives on into the next
        for lo in range(0, a.shape[0], step):
            if onto is None:
                np.matmul(b, self._first_slot(a[lo:lo + step]), out=out[lo:lo + step])
            else:
                np.matmul(b @ self._first_slot(a[lo:lo + step]), onto, out=out[lo:lo + step])
        return out

    def _first_slot(self, part: np.ndarray) -> np.ndarray:
        """G[p, j, k] = sum_i A[p, i] c[i, j, k] for a block of rows of A,
        each (j, k) column's constants summed in order, one rank at a time."""
        i, c, cols, layers = self._first_slot_groups
        d = self.dim
        g = np.zeros((part.shape[0], d * d))
        if layers:
            terms = np.ascontiguousarray(part.T)[i]   # c[i,j,k] A[p,i] by constant
            terms *= c[:, None]
            rows = terms[layers[0][0]]
            for pos, col in layers[1:]:
                rows[col] += terms[pos]
            g[:, cols] = rows.T
        return g.reshape(-1, d, d)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(X) acting on coefficient vectors."""
        return self.brackets(np.asarray(x, dtype=float)[None], np.eye(self.dim))[0].T

    def validate(self, tol: float = TOL.valid) -> dict:
        """Residuals of antisymmetry, Jacobi and ad-invariance of the Killing form.

        Antisymmetry pairs every stored constant with its swapped partner.
        Ad-invariance takes (C_i K) + (C_i K)^T over blocks of the first
        index of at most ``_BLOCK`` entries, with the product formed on the
        rows (i, j) that hold a constant.  Jacobi, which holds exactly when
        ad is a representation, is taken one output index at a time over
        the nonzero brackets; see ``_jacobi_residual``.
        """
        (i, j, k), c, d = self.structure_ijk, self.structure_c, self.dim
        # c[i,j,k] + c[j,i,k]: each constant is the first term at its own
        # triple and the second at the swapped one; a triple gets one or two
        keys = np.concatenate(((i * d + j) * d + k, (j * d + i) * d + k))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if keys.size else keys
        sums = np.add.reduceat(np.concatenate((c, c))[order], starts) if keys.size else keys
        antisym = np.abs(sums).max(initial=0.0)
        ad_inv = 0.0
        step = max(1, _BLOCK // max(d, 1) ** 2)
        for first in range(0, d, step):
            at = (i >= first) & (i < first + step)
            rows = min(step, d - first) * d         # rows (i, j) of this block
            pair = (i[at] - first) * d + j[at]
            held = np.zeros(rows, dtype=bool)
            held[pair] = True
            part = np.zeros((rows, d))
            part[pair, k[at]] = c[at]
            part[held] = part[held] @ self.killing
            part = part.reshape(-1, d, d)
            ad_inv = max(ad_inv, _max_abs(part + part.transpose(0, 2, 1)))
        jacobi = _jacobi_residual(self.structure_ijk, c, d)
        return {
            "antisymmetry": float(antisym),
            "jacobi": float(jacobi),
            "killing_ad_invariance": float(ad_inv),
            "ok": bool(max(antisym, jacobi, ad_inv) < tol),
        }


def _jacobi_residual(ijk: np.ndarray, c: np.ndarray, d: int) -> float:
    """max |[[a,b],e] + [[b,e],a] + [[e,a],b]| over distinct a < b < e.

    One output index m at a time: with K_m[(x,y), z] = sum_l c[x,y,l] c[l,z,m]
    over the brackets x < y, the m-th coefficient of the Jacobi sum is
    J = K_m(a,b,e) - K_m(a,e,b) + K_m(b,e,a).  Once c is antisymmetric
    (checked beside this) J is alternating, so the sorted triples are the
    whole check, and J can be nonzero only where one of its three terms is.
    K_m is one dense product whose rows are the brackets x < y that reach
    an l with c[l,:,m] != 0 and whose columns are the z those l reach;
    both operands are scattered from the stored constants, and every other
    entry is 0, read from a trailing zero row and column.  Each nonzero of
    K_m names a triple whose three terms are read back from K_m.  A
    repeated index (b = a or b = e) reads one entry twice, with opposite
    signs, and a row (x, x) that is no bracket, so it adds exactly 0.
    Beside the constants the call holds one K_m and its operands, so a
    sparse c costs little and a dense one O(d^3) at a time.
    """
    i, j, k = ijk
    upper = i < j
    bracket, reach, value = i[upper] * d + j[upper], k[upper], c[upper]  # c[x,y,l], l = reach
    # row and column of K_m and column of its left operand; -1 reads K_m's
    # trailing zero row or column
    row_of, col_of, l_of = np.full(d * d, -1), np.full(d, -1), np.full(d, -1)
    jacobi = 0.0
    for m in np.flatnonzero(np.bincount(k, minlength=d)):
        at = k == m                                  # c[l, z, m] with l = i[at], z = j[at]
        ls = np.flatnonzero(np.bincount(i[at], minlength=d))
        zs = np.flatnonzero(np.bincount(j[at], minlength=d))
        l_of[ls], col_of[zs] = np.arange(ls.size), np.arange(zs.size)
        right = np.zeros((ls.size, zs.size))
        right[l_of[i[at]], col_of[j[at]]] = c[at]
        hit = l_of[reach] >= 0                       # the brackets x < y that reach an l
        held = np.zeros(d * d, dtype=bool)
        held[bracket[hit]] = True
        rows = np.flatnonzero(held)
        row_of[rows] = np.arange(rows.size)
        left = np.zeros((rows.size, ls.size))
        left[row_of[bracket[hit]], l_of[reach[hit]]] = value[hit]
        km = np.zeros((rows.size + 1, zs.size + 1))
        np.matmul(left, right, out=km[:-1, :-1])
        r, s = np.divmod(np.flatnonzero(km), zs.size + 1)
        (p, q), z = np.divmod(rows[r], d), zs[s]
        a, e = np.minimum(p, z), np.maximum(q, z)
        b = p + q + z - a - e
        jac = (km[row_of[a * d + b], col_of[e]] - km[row_of[a * d + e], col_of[b]]
               + km[row_of[b * d + e], col_of[a]])
        jacobi = max(jacobi, float(np.abs(jac).max(initial=0.0)))
        row_of[rows], col_of[zs], l_of[ls] = -1, -1, -1
    return jacobi


def _killing(ijk: np.ndarray, c: np.ndarray, d: int) -> np.ndarray:
    """killing[a, b] = sum_{k,l} c[a,k,l] c[b,l,k] over the stored constants.

    Each constant c[a,k,l] is paired with every c[b,l,k], found by a
    sorted search of the keys (j, k) for its swapped (k, j).
    """
    i, j, k = ijk
    order = np.argsort(j * d + k, kind="stable")
    keys = (j * d + k)[order]
    swapped = k * d + j
    lo = np.searchsorted(keys, swapped, "left")
    counts = np.searchsorted(keys, swapped, "right") - lo
    first = np.repeat(np.arange(c.size), counts)
    # position of each pair inside its run of matching keys
    offset = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts)
    second = order[np.repeat(lo, counts) + offset]
    return np.bincount(i[first] * d + i[second], weights=c[first] * c[second],
                       minlength=d * d).reshape(d, d)


def from_basis(name: str, mats) -> LieAlgebra:
    """Build a LieAlgebra from a list/array of real matrices.

    Structure constants are solved by least squares; the basis must be
    linearly independent and bracket-closed.  The commutators [Z_i, Z_j],
    i < j, are formed and read off in blocks of at most ``_BLOCK`` entries
    (part of one row i of the table), with the closure residual and its
    scale kept as running maxima, so the dim^2 N^2 commutator table is
    never stored.  [Z_j, Z_i] is the exact negative of [Z_i, Z_j] and
    [Z_i, Z_i] = 0, so their residuals are the ones already taken.  Small
    constants are zeroed block by block and only the others are kept, in
    both orders, so no dim^3 array is formed; the Killing form is summed
    over pairs of them (``_killing``).
    """
    mats = _read_only(np.array(mats, dtype=float))
    dim = mats.shape[0]
    flat = mats.reshape(dim, -1)
    if np.linalg.matrix_rank(flat, tol=TOL.independence) != dim:
        raise LieAlgebraError(f"basis of {name} is linearly dependent")
    pinv = np.linalg.pinv(flat)
    none = np.zeros(0, dtype=np.intp)
    found = [(none, none, none, np.zeros(0))]    # (i, j, k, c) of the constants i < j
    closure, scale = 0.0, 1.0
    step = max(1, _BLOCK // flat.shape[1])
    for i in range(dim):
        for j in range(i + 1, dim, step):
            part = mats[j:j + step]
            comm = (mats[i] @ part - part @ mats[i]).reshape(part.shape[0], -1)
            coeffs = comm @ pinv
            closure = max(closure, np.abs(coeffs @ flat - comm).max())
            scale = max(scale, np.abs(comm).max())
            rows, ks = np.nonzero(np.abs(coeffs) >= TOL.structure_zero)
            found.append((np.full(rows.size, i), j + rows, ks, coeffs[rows, ks]))
    if closure > TOL.span * scale:
        raise LieAlgebraError(
            f"basis of {name} is not bracket-closed (residual {closure:.3e})"
        )
    i, j, k, c = (np.concatenate(col) for col in zip(*found))
    # 0 - x rather than -x: the swapped constant is the exact negative
    ijk = _read_only(np.concatenate(((i, j, k), (j, i, k)), axis=1))
    c = _read_only(np.concatenate((c, 0.0 - c)))
    alg = LieAlgebra(name=name, basis=mats, structure_ijk=ijk, structure_c=c,
                     killing=_read_only(_killing(ijk, c, dim)))
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
        brs = a.brackets(span, np.eye(a.dim)).reshape(-1, a.dim)
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


def negative_killing(a: LieAlgebra, center_weight: float | None = None) -> InnerProduct:
    """-K as an inner product; optionally patched on the centre.

    -K vanishes on the centre, so for non-semisimple algebras pass a
    positive ``center_weight`` to add a diagonal block on the central
    basis vectors (which must be basis elements, as in ``build_u``).
    """
    gram = -a.killing.copy()
    # largest constant with i as its first or second index
    i, j, _ = a.structure_ijk
    size = np.abs(a.structure_c)
    largest = np.zeros(a.dim)
    np.maximum.at(largest, i, size)
    np.maximum.at(largest, j, size)
    central = np.flatnonzero(largest < TOL.central)
    if central.size and center_weight is None:
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
    """Orthonormalize rows with respect to an inner product, in order.

    Gram-Schmidt as one factorization: with ip.gram = L L^T, the Householder
    QR (V L)^T = Q R with diag(R) > 0 gives the rows R^{-T} V.  |R_ii| is
    the norm of row i less its projection on the rows before it; below
    ``TOL.dependence`` times max(1, norm of row i) the rows are nearly
    dependent and it raises.  Already-orthonormal input comes back to
    rounding.
    """
    vectors = np.asarray(vectors, dtype=float)
    w = vectors @ np.linalg.cholesky(ip.gram)
    r = np.linalg.qr(w.T, mode="r")
    pivots = np.diagonal(r)
    if len(pivots) < len(vectors) or np.any(
            np.abs(pivots) < TOL.dependence * np.maximum(1.0, np.linalg.norm(w, axis=1))):
        raise LieAlgebraError("gram_schmidt: input vectors are nearly dependent")
    return np.sign(pivots)[:, None] * np.linalg.solve(r.T, vectors)
