"""Dimension of the space of invariant affine connections.

Solves the infinitesimal equivariance system for bilinear maps
eta: m x m -> m under the isotropy action; the null space dimension is
the number of independent invariant connections.  Rank decisions use
singular values with an explicit gap requirement, since the integer
answers are the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .reductive import MetricSpec, ReductiveSpace, frame_tables


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
    """Stacked linear system rows for all isotropy generators."""
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


def solve_bytes(space: ReductiveSpace) -> int:
    """Bytes of the dense R x n^3 system plus the R x R factor its SVD returns.

    R = dim k * n^3 is the number of rows, n = dim m.
    """
    cube = space.dim_m ** 3
    rows = space.dim_k * cube
    return 8 * rows * (rows + cube)


def _subspace_rank(vectors: np.ndarray, rtol: float = 1e-9) -> int:
    if vectors.size == 0:
        return 0
    s = np.linalg.svd(vectors, compute_uv=False)
    if s.size == 0 or s[0] < 1e-12:
        return 0
    return int((s > s[0] * rtol).sum())


def hom_dimension(space: ReductiveSpace, rank_rtol: float = 1e-7,
                  min_gap: float = 1e3) -> EquivariantSolveResult:
    """Solve for all isotropy-equivariant bilinear maps m x m -> m.

    The system is dense: (dim k * n^2) vector equations in n^3 unknowns.
    Raises RankAmbiguityError when the singular-value gap at the rank
    threshold is below ``min_gap``, and SolveTooLargeError, before
    building anything, when ``solve_bytes`` exceeds ``SOLVE_BUDGET_BYTES``.
    """
    n = space.dim_m
    need = solve_bytes(space)
    if need > SOLVE_BUDGET_BYTES:
        raise SolveTooLargeError(
            f"the dense equivariance solve on {space.name} needs "
            f"{need / 2**30:.3g} GiB, over the {SOLVE_BUDGET_BYTES / 2**30:g} GiB budget"
        )
    system = _equivariance_operator(space)
    if system.shape[0] == 0:
        basis = np.eye(n**3).reshape(-1, n, n, n)
        return EquivariantSolveResult(n**3, basis, n * n * (n - 1) // 2,
                                      n * n * (n + 1) // 2, np.zeros(0), np.inf)
    u, s, vt = np.linalg.svd(system)
    cutoff = s[0] * rank_rtol
    kept = s > cutoff
    rank = int(kept.sum())
    discarded = s[rank:]
    if rank < s.size and discarded.max() > 0:
        gap = float(s[rank - 1] / discarded.max()) if rank else np.inf
        if gap < min_gap:
            raise RankAmbiguityError(
                f"indeterminate rank: singular-value gap {gap:.1e} < {min_gap:.0e}"
            )
    else:
        gap = np.inf
    null = vt[rank:]
    dimension = null.shape[0]
    basis = null.reshape(dimension, n, n, n)
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


def certify_bracket_span(result: EquivariantSolveResult, space: ReductiveSpace,
                         tol: float = 1e-9) -> dict:
    """Check the m-bracket map solves the system and lies in the solution span."""
    system = _equivariance_operator(space)
    bracket = space.bm.reshape(-1)
    if system.shape[0]:
        sys_res = float(np.abs(system @ bracket).max())
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
        "ok": bool(sys_res < tol * scale and proj_res < tol * scale),
    }


def group_spot_check(result: EquivariantSolveResult, space: ReductiveSpace,
                     samples: int = 10, seed: int = 0) -> float:
    """Max equivariance defect under exponentiated isotropy elements.

    Connected isotropy makes the infinitesimal solve sufficient; this
    randomized check guards the implementation itself.
    """
    if space.dim_k == 0 or result.dimension == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        w = rng.standard_normal(space.dim_k)
        w /= np.linalg.norm(w)
        g = expm(np.einsum("a,aij->ij", w, space.adk))
        x = rng.standard_normal(space.dim_m)
        y = rng.standard_normal(space.dim_m)
        for eta in result.basis:
            lhs = np.einsum("abc,a,b->c", eta, g @ x, g @ y)
            rhs = g @ np.einsum("abc,a,b->c", eta, x, y)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
