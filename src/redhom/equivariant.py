"""Dimension of the space of invariant affine connections.

Solves the infinitesimal equivariance system for bilinear maps
eta: m x m -> m under the isotropy action; the null space dimension is
the number of independent invariant connections.  The system is never
stacked: its Gram matrix is assembled slot by slot, cut into its blocks
on the skew and symmetric maps and diagonalized block by block, and the
certificates apply it by contractions.  Rank decisions use an
explicit gap requirement, since the integer answers are the whole point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .liealg import _BLOCK
from .reductive import ReductiveError, ReductiveSpace
from .tolerances import TOL


# Largest dense equivariance solve hom_dimension will attempt, in bytes.
SOLVE_BUDGET_BYTES = 1 << 30


class RankAmbiguityError(RuntimeError):
    """Singular values do not separate cleanly into kept and discarded."""


class SolveTooLargeError(RuntimeError):
    """The dense equivariance solve would exceed ``SOLVE_BUDGET_BYTES``."""


@dataclass
class EquivariantSolveResult:
    """Null space of the equivariance system for bilinear maps on m."""

    dimension: int
    basis: np.ndarray            # (dimension, n, n, n) coefficient arrays
    skew_dim: int
    sym_dim: int
    singular_values: np.ndarray
    gap: float                   # smallest kept / largest discarded singular value


def _equivariance_operator(space: ReductiveSpace) -> np.ndarray:
    """Stacked Kronecker system rows for all isotropy generators (test oracle)."""
    n = space.dim_m
    eye = np.eye(n)
    blocks = []
    for a in range(space.dim_k):
        ad = space.adk[a]
        block = (
            np.kron(eye, np.kron(eye, ad))
            - np.kron(ad.T, np.kron(eye, eye))
            - np.kron(eye, np.kron(ad.T, eye))
        )
        blocks.append(block)
    if not blocks:
        return np.zeros((0, n**3))
    return np.vstack(blocks)


def _slot_actions(space: ReductiveSpace) -> tuple:
    """The parts L_0, L_1, L_2 of A_a = sum_s L_s[a] acting on slot s of eta[x, y, z].

    The two input slots carry -ad_a^T and the output slot carries ad_a.
    """
    adt = -space.adk.transpose(0, 2, 1)
    return adt, adt, space.adk


def _apply_equivariance(space: ReductiveSpace, eta: np.ndarray) -> np.ndarray:
    """A_a eta for every isotropy generator, shape (dim k, n, n, n), by three contractions."""
    l0, l1, l2 = _slot_actions(space)
    return (np.tensordot(l0, eta, (2, 0))
            + np.tensordot(l1, eta, (2, 1)).transpose(0, 2, 1, 3)
            + np.tensordot(l2, eta, (2, 2)).transpose(0, 2, 3, 1))


def _gram(space: ReductiveSpace) -> np.ndarray:
    """G = sum_a A_a^T A_a as an (n^3, n^3) matrix, without the stacked system.

    G = sum over slot pairs (s, t) of sum_a L_s[a]^T on slot s times L_t[a]
    on slot t, the identity on the other slots.  Each term is an n x n or
    n^2 x n^2 matrix added into a writeable einsum view of G, diagonal in
    the slots the term leaves alone: O(dim k n^4 + n^6) work and no array
    of G's size besides G.  numpy copies an aliased in-place operand, so
    each view takes its term one index of its last slot at a time, which
    keeps that copy to n^4 entries.
    """
    n = space.dim_m
    out, inn = "abc", "def"
    gram = np.zeros((n,) * 6)
    actions = _slot_actions(space)
    for s, t in itertools.product(range(3), repeat=2):
        rest = "".join(out[r] for r in range(3) if r not in (s, t))
        cols = "".join(out[r] if out[r] in rest else inn[r] for r in range(3))
        if s == t:
            term = np.einsum("kji,kjl->il", actions[s], actions[s])
            axes = out[s] + inn[s]
        else:
            term = np.einsum("kji,klm->ijlm", actions[s], actions[t])
            axes = out[s] + inn[s] + out[t] + inn[t]
        view = np.einsum(f"{out}{cols}->{axes}{rest}", gram)
        term = term.reshape(term.shape + (1,) * (len(rest) - 1))
        for r in range(n):
            view[..., r] += term
    return gram.reshape(n**3, n**3)


def _swap_rows(n: int, sign: float) -> tuple:
    """Rows a, b of G and weights c of the basis c (e_a + sign e_b) of the
    sign-eigenspace of the input-slot swap eta[x, y, z] -> eta[y, x, z].

    a = (x, y, z) and b = (y, x, z) over pairs x < y, and x = y too when
    sign = +1; c is 1/sqrt(2), or 1/2 where a = b, so the basis is
    orthonormal.  Ordered by pair, then z.
    """
    x, y = np.triu_indices(n, 1 if sign < 0 else 0)
    z = np.arange(n)
    a = ((x * n + y)[:, None] * n + z).ravel()
    b = ((y * n + x)[:, None] * n + z).ravel()
    c = np.repeat(np.where(x == y, 0.5, np.sqrt(0.5)), n)
    return a, b, c


def _swap_block(gram: np.ndarray, n: int, sign: float) -> np.ndarray:
    """Q^T G Q on the sign-eigenspace of the swap, Q the basis of ``_swap_rows``.

    Entry (i, j) is c_i c_j (G[a_i, a_j] + G[b_i, b_j] + sign G[a_i, b_j]
    + sign G[b_i, a_j]).  It is gathered from G a band of rows at a time,
    with one gather of at most ``_BLOCK`` entries alive, so no other array
    of the block's size is formed.
    """
    a, b, c = _swap_rows(n, sign)
    combine = np.add if sign > 0 else np.subtract
    block = np.empty((a.size, a.size))
    step = max(1, _BLOCK // a.size)
    for i in range(0, a.size, step):
        ra, rb = a[i:i + step, None], b[i:i + step, None]
        band = block[i:i + step]
        band[...] = gram[ra, a]
        band += gram[rb, b]
        combine(band, gram[ra, b], out=band)
        combine(band, gram[rb, a], out=band)
        band *= c[i:i + step, None]
        band *= c
    return block


def solve_bytes(space: ReductiveSpace) -> int:
    """Peak bytes of the swap-block solve, n = dim m, N = n^3.

    G (N x N) is cut into its blocks on Lambda^2(m*) (x) m and Sym^2(m*) (x) m,
    of sizes A = n^2 (n - 1) / 2 and S = n^2 (n + 1) / 2, and freed.  Then
    the skew block is diagonalized beside the symmetric one, and the
    symmetric one alone.  ``np.linalg.eigh`` of a K x K block holds four
    more K x K arrays: LAPACK's copy, the two of divide-and-conquer
    workspace and the eigenvectors.  So the peak is the largest of
    N^2 + A^2 + S^2, S^2 + 5 A^2 and 5 S^2 doubles, 1.5 to 1.63 N^2, plus
    two ``_BLOCK`` bands of gather scratch.  With dim k = 0 the answer is
    the N x N identity.
    """
    n = space.dim_m
    cube = n ** 3
    if not space.dim_k:
        return 8 * cube * cube
    skew, sym = n * n * (n - 1) // 2, n * n * (n + 1) // 2
    return 8 * (max(cube * cube + skew * skew + sym * sym,
                    sym * sym + 5 * skew * skew, 5 * sym * sym) + 2 * _BLOCK)


def hom_dimension(space: ReductiveSpace) -> EquivariantSolveResult:
    """Solve for all isotropy-equivariant bilinear maps m x m -> m.

    The system A_a eta = 0 has dim k * n^3 equations in n^3 unknowns.  Its
    Gram matrix G = sum_a A_a^T A_a commutes with the swap P of the two
    input slots, which both carry -ad^T, so G is block diagonal on the
    skew and symmetric eigenspaces of P.  The two blocks are cut from G, G
    is freed, and each block is diagonalized with ``eigh``; the singular
    values of the system are sqrt(max(lambda, 0)) over both blocks, and
    the null vectors of each block, mapped back to n^3 coordinates, span
    its skew or symmetric invariant maps.

    The rank cut lambda > lambda_max * 1e-7 is made in the squared
    scale, where rounding leaves the zero eigenvalues near eps * lambda_max
    (their square roots near 1e-8 * sigma_max).  The cut is safe because
    ad_a is skew in the orthonormal m-frame, so G = -sum_a A_a^2 is the
    Casimir operator of k on m* (x) m* (x) m: it vanishes on the invariants
    and on each nontrivial isotypic component equals a positive Casimir
    constant, so the kept eigenvalues are bounded away from zero.  The
    skew block is solved first, while lambda_max is only bounded by the
    Frobenius norm of the symmetric block, so its eigenvectors under the
    bounded cut are kept and the exact cut is applied once both spectra
    are known.  The gap is the smallest kept singular value over the
    square root of the largest discarded |lambda|; RankAmbiguityError is
    raised when it is below ``TOL.rank_gap_min``.  SolveTooLargeError is
    raised, before anything is built, when ``solve_bytes`` exceeds
    ``SOLVE_BUDGET_BYTES``.
    """
    n = space.dim_m
    need = solve_bytes(space)
    if need > SOLVE_BUDGET_BYTES:
        raise SolveTooLargeError(
            f"the dense equivariance solve on {space.name} needs "
            f"{need / 2**30:.3g} GiB, over the {SOLVE_BUDGET_BYTES / 2**30:g} GiB budget"
        )
    if space.dim_k == 0:
        basis = np.eye(n**3).reshape(-1, n, n, n)
        return EquivariantSolveResult(n**3, basis, n * n * (n - 1) // 2,
                                      n * n * (n + 1) // 2, np.zeros(0), np.inf)
    gram = _gram(space)
    skew, sym = _swap_block(gram, n, -1.0), _swap_block(gram, n, 1.0)
    del gram
    lam_skew, vecs = np.linalg.eigh(skew)
    del skew
    # lambda_max <= max(the skew one, |sym|_F): keep the skew eigenvectors
    # under that cut, and cut exactly once the symmetric spectrum is known
    bound = max(lam_skew.max(initial=0.0), float(np.linalg.norm(sym)))
    kept = vecs[:, :int((lam_skew <= bound * TOL.hom_rank).sum())].copy()
    del vecs
    lam_sym, vecs = np.linalg.eigh(sym)
    del sym
    lam = np.sort(np.concatenate([lam_skew, lam_sym]))
    cut = lam[-1] * TOL.hom_rank
    s = np.sqrt(np.clip(lam[::-1], 0.0, None))
    rank = int((lam > cut).sum())
    dimension = lam.size - rank
    noise = np.sqrt(np.abs(lam[:dimension]).max()) if dimension else 0.0
    if rank and noise > 0:
        gap = float(s[rank - 1] / noise)
        if gap < TOL.rank_gap_min:
            raise RankAmbiguityError(
                f"indeterminate rank: singular-value gap {gap:.1e} < {TOL.rank_gap_min:.0e}"
            )
    else:
        gap = np.inf
    skew_dim = int((lam_skew <= cut).sum())
    sym_dim = dimension - skew_dim
    basis = np.zeros((dimension, n**3))
    for sign, rows, null in ((-1.0, slice(0, skew_dim), kept[:, :skew_dim]),
                             (1.0, slice(skew_dim, dimension), vecs[:, :sym_dim])):
        a, b, c = _swap_rows(n, sign)
        null = null.T * c
        basis[rows, a] = null
        basis[rows, b] += sign * null
    return EquivariantSolveResult(dimension, basis.reshape(dimension, n, n, n),
                                  skew_dim, sym_dim, s, gap)


def certify_bracket_span(result: EquivariantSolveResult, space: ReductiveSpace) -> dict:
    """Check the m-bracket map solves the system and lies in the solution span."""
    bracket = space.bm.reshape(-1)
    if space.dim_k:
        sys_res = float(np.abs(_apply_equivariance(space, space.bm)).max())
    else:
        sys_res = 0.0
    bound = TOL.bracket_certificate * max(1.0, float(np.abs(bracket).max()))
    if result.dimension:
        flat = result.basis.reshape(result.dimension, -1)
        coeffs, *_ = np.linalg.lstsq(flat.T, bracket, rcond=None)
        proj_res = float(np.abs(flat.T @ coeffs - bracket).max())
    else:
        proj_res = float(np.abs(bracket).max())
    return {
        "system_residual": sys_res,
        "projection_residual": proj_res,
        "ok": bool(sys_res < bound and proj_res < bound),
    }


def _expm_skew(a: np.ndarray) -> np.ndarray:
    """exp(a) for a real skew a, in real arithmetic.

    -a^2 = a^T a is symmetric positive semidefinite and commutes with a; with
    a^T a = V diag(theta^2) V^T, exp(a) = cos(Theta) + sinc(Theta) a for
    Theta = V diag(theta) V^T and sinc(x) = sin(x) / x.
    """
    theta_sq, v = np.linalg.eigh(a.T @ a)
    theta = np.sqrt(np.clip(theta_sq, 0.0, None))
    cos_part = (v * np.cos(theta)) @ v.T
    sinc_part = (v * np.sinc(theta / np.pi)) @ v.T
    return cos_part + sinc_part @ a


def group_spot_check(result: EquivariantSolveResult, space: ReductiveSpace,
                     samples: int = 10, seed: int = 0) -> float:
    """Max equivariance defect under exponentiated isotropy elements.

    Connected isotropy makes the infinitesimal solve sufficient; this
    randomized check guards the implementation itself.  The isotropy
    action must be skew in the orthonormal m-frame (ReductiveError if it
    is not), which lets the exponential come from a real symmetric
    ``eigh``.  The standard-normal draws come from the standard library's
    ``random.Random(seed)``, which keeps ``numpy.random`` (and the OpenSSL
    it loads) out of the process.
    """
    if space.dim_k == 0 or result.dimension == 0:
        return 0.0
    adk = space.adk
    skew_defect = float(np.abs(adk + adk.transpose(0, 2, 1)).max())
    if skew_defect > TOL.isotropy_skew * max(1.0, float(np.abs(adk).max())):
        raise ReductiveError(
            f"isotropy action on {space.name} is not skew in the m-frame "
            f"(defect {skew_defect:.3e})"
        )
    rng = random.Random(seed)

    def normal(size: int) -> np.ndarray:
        return np.array([rng.gauss(0.0, 1.0) for _ in range(size)])

    worst = 0.0
    for _ in range(samples):
        w = normal(space.dim_k)
        w /= np.linalg.norm(w)
        g = _expm_skew(np.tensordot(w, adk, (0, 0)))
        x = normal(space.dim_m)
        y = normal(space.dim_m)
        for eta in result.basis:
            lhs = np.einsum("abc,a,b->c", eta, g @ x, g @ y)
            rhs = g @ np.einsum("abc,a,b->c", eta, x, y)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
