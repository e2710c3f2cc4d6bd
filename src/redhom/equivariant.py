"""Dimension of the space of invariant affine connections.

Solves the infinitesimal equivariance system for bilinear maps
eta: m x m -> m under the isotropy action; the null space dimension is
the number of independent invariant connections.  The system is never
stacked: its Gram matrix is assembled slot by slot and diagonalized, and
the certificates apply it by contractions.  Rank decisions use an
explicit gap requirement, since the integer answers are the whole point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .reductive import ReductiveError, ReductiveSpace


# Largest dense equivariance solve hom_dimension will attempt, in bytes.
SOLVE_BUDGET_BYTES = 1 << 30
# Smallest singular-value gap at which hom_dimension accepts its rank cut.
RANK_GAP_MIN = 1e3


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
    of G's size besides G.
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
        view += term.reshape(term.shape + (1,) * len(rest))
    return gram.reshape(n**3, n**3)


def solve_bytes(space: ReductiveSpace) -> int:
    """Peak bytes of the Gram solve, n = dim m, N = n^3.

    Five N x N float64 arrays: G, and inside ``np.linalg.eigh`` LAPACK's
    copy of G, the two N x N of divide-and-conquer workspace and the
    eigenvectors.  With dim k = 0 the answer is the N x N identity.
    """
    cube = space.dim_m ** 3
    return 8 * cube * cube * (5 if space.dim_k else 1)


def _subspace_rank(vectors: np.ndarray) -> int:
    if vectors.size == 0:
        return 0
    s = np.linalg.svd(vectors, compute_uv=False)
    if s.size == 0 or s[0] < 1e-12:
        return 0
    return int((s > s[0] * 1e-9).sum())


def hom_dimension(space: ReductiveSpace) -> EquivariantSolveResult:
    """Solve for all isotropy-equivariant bilinear maps m x m -> m.

    The system A_a eta = 0 has dim k * n^3 equations in n^3 unknowns.  Its
    Gram matrix G = sum_a A_a^T A_a is diagonalized with ``eigh``; the
    singular values of the system are sqrt(max(lambda, 0)) and the null
    space is spanned by the eigenvectors of the discarded eigenvalues.

    The rank cut lambda > lambda_max * 1e-7 is made in the squared
    scale, where rounding leaves the zero eigenvalues near eps * lambda_max
    (their square roots near 1e-8 * sigma_max).  The cut is safe because
    ad_a is skew in the orthonormal m-frame, so G = -sum_a A_a^2 is the
    Casimir operator of k on m* (x) m* (x) m: it vanishes on the invariants
    and on each nontrivial isotypic component equals a positive Casimir
    constant, so the kept eigenvalues are bounded away from zero.  The gap
    is the smallest kept singular value over the square root of the largest
    discarded |lambda|; RankAmbiguityError is raised when it is below
    ``RANK_GAP_MIN``.  SolveTooLargeError is raised, before anything is built,
    when ``solve_bytes`` exceeds ``SOLVE_BUDGET_BYTES``.
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
    lam, vecs = np.linalg.eigh(_gram(space))
    s = np.sqrt(np.clip(lam[::-1], 0.0, None))
    rank = int((lam > lam[-1] * 1e-7).sum())
    dimension = lam.size - rank
    noise = np.sqrt(np.abs(lam[:dimension]).max()) if dimension else 0.0
    if rank and noise > 0:
        gap = float(s[rank - 1] / noise)
        if gap < RANK_GAP_MIN:
            raise RankAmbiguityError(
                f"indeterminate rank: singular-value gap {gap:.1e} < {RANK_GAP_MIN:.0e}"
            )
    else:
        gap = np.inf
    basis = np.ascontiguousarray(vecs[:, :dimension].T).reshape(dimension, n, n, n)
    if dimension:
        sym = (basis + basis.transpose(0, 2, 1, 3)).reshape(dimension, -1) / 2.0
        skew = (basis - basis.transpose(0, 2, 1, 3)).reshape(dimension, -1) / 2.0
        sym_dim = _subspace_rank(sym)
        skew_dim = _subspace_rank(skew)
    else:
        sym_dim = skew_dim = 0
    if sym_dim + skew_dim != dimension:
        raise RankAmbiguityError(
            f"skew/symmetric split {skew_dim}+{sym_dim} != {dimension}"
        )
    return EquivariantSolveResult(dimension, basis, skew_dim, sym_dim, s, gap)


def certify_bracket_span(result: EquivariantSolveResult, space: ReductiveSpace) -> dict:
    """Check the m-bracket map solves the system and lies in the solution span."""
    bracket = space.bm.reshape(-1)
    if space.dim_k:
        sys_res = float(np.abs(_apply_equivariance(space, space.bm)).max())
    else:
        sys_res = 0.0
    scale = max(1.0, float(np.abs(bracket).max()))
    if result.dimension:
        flat = result.basis.reshape(result.dimension, -1)
        coeffs, *_ = np.linalg.lstsq(flat.T, bracket, rcond=None)
        proj_res = float(np.abs(flat.T @ coeffs - bracket).max())
    else:
        proj_res = float(np.abs(bracket).max())
    return {
        "system_residual": sys_res,
        "projection_residual": proj_res,
        "ok": bool(sys_res < 1e-9 * scale and proj_res < 1e-9 * scale),
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
    if skew_defect > 1e-10 * max(1.0, float(np.abs(adk).max())):
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
