"""Dimension of the space of invariant affine connections.

Solves the infinitesimal equivariance system for bilinear maps
eta: m x m -> m under the isotropy action; the null space dimension is
the number of independent invariant connections.  The system is never
stacked: an invariant has weight zero under every element of k, so its
Gram matrix is compressed to the zero-weight triples of one generic
isotropy element, an r x r Hermitian matrix gathered slot pair by slot
pair, and the certificates apply it by contractions.  Rank decisions use
an explicit gap requirement, since the integer answers are the whole point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .reductive import ReductiveError, ReductiveSpace
from .tolerances import TOL


# Largest equivariance solve hom_dimension will attempt, in bytes.
SOLVE_BUDGET_BYTES = 1 << 30


class RankAmbiguityError(RuntimeError):
    """Singular values do not separate cleanly into kept and discarded."""


class SolveTooLargeError(RuntimeError):
    """The equivariance solve would exceed ``SOLVE_BUDGET_BYTES``."""


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
    blocks = [np.kron(eye, np.kron(eye, ad)) - np.kron(ad.T, np.eye(n * n))
              - np.kron(eye, np.kron(ad.T, eye)) for ad in space.adk]
    return np.vstack(blocks) if blocks else np.zeros((0, n**3))


def _apply_equivariance(adk: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """A_a eta for each isotropy action ad_a in ``adk``, shape (len(adk), n, n, n),
    by three contractions.

    The two input slots carry -ad_a^T and the output slot carries ad_a.
    """
    adt = -adk.transpose(0, 2, 1)
    return (np.tensordot(adt, eta, (2, 0))
            + np.tensordot(adt, eta, (2, 1)).transpose(0, 2, 1, 3)
            + np.tensordot(adk, eta, (2, 2)).transpose(0, 2, 3, 1))


def _normal(rng: random.Random, size: int) -> np.ndarray:
    """Standard-normal draws from the standard library's ``random.Random``."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(size)])


def _require_skew(space: ReductiveSpace) -> None:
    """Raise ReductiveError unless the isotropy action is skew in the m-frame."""
    adk = space.adk
    skew_defect = float(np.abs(adk + adk.transpose(0, 2, 1)).max())
    if skew_defect > TOL.isotropy_skew * max(1.0, float(np.abs(adk).max())):
        raise ReductiveError(f"isotropy action on {space.name} is not skew in the m-frame "
                             f"(defect {skew_defect:.3e})")


def _zero_weight(space: ReductiveSpace, seed: int) -> tuple:
    """Weight basis E of m (x) C and the zero-weight triples of one isotropy element.

    h = sum_a w_a ad_a for standard-normal w drawn from ``random.Random(seed)``.
    1j h is Hermitian, so ``eigh`` gives real weights mu and a unitary E, and
    E_x (x) E_y (x) E_z has weight mu_x + mu_y + mu_z under h.  Returns E and
    the flat indices (x n + y) n + z, increasing, of the triples whose
    weight is at most ``TOL.weight_zero`` * max(1, max |mu|).
    """
    w = _normal(random.Random(seed), space.dim_k)
    mu, vecs = np.linalg.eigh(1j * np.tensordot(w, space.adk, (0, 0)))
    weight = mu[:, None, None] + mu[:, None] + mu
    bound = TOL.weight_zero * max(1.0, float(np.abs(mu).max()))
    return vecs, np.flatnonzero(np.abs(weight) <= bound)


def _reduced_gram(b: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """G = sum_a A_a^H A_a on the triples (x, y, z), for B_a = E^H ad_a E.

    A_a is B_a on each slot in turn, so G sums over slot pairs (s, t) the
    terms sum_a (B_a on s)^H (B_a on t): C = sum_a B_a^H B_a on one slot
    for s = t, and -B_a on both slots for s != t (B_a is skew-Hermitian),
    twice.  One generator at a time: no array beyond r x r is formed.
    """
    cas = np.einsum("aji,ajk->ik", b.conj(), b)
    ex, ey, ez = (i[:, None] == i for i in (x, y, z))
    gram = (cas[np.ix_(x, x)] * (ey & ez) + cas[np.ix_(y, y)] * (ex & ez)
            + cas[np.ix_(z, z)] * (ex & ey))
    for ba in b:
        bx, by, bz = ba[np.ix_(x, x)], ba[np.ix_(y, y)], ba[np.ix_(z, z)]
        gram -= 2.0 * (bx * by * ez + (bx * ey + by * ex) * bz)
    return gram


def _real_maps(vecs: np.ndarray, codes: np.ndarray, conj: np.ndarray,
               null: np.ndarray) -> np.ndarray:
    """Orthonormal real maps spanning the complex null vectors ``null`` (r x d).

    The system is real, so conjugation, ``conj`` = S (x) S (x) S on the
    triples for S = E^H conj(E), keeps its null space.  [N, iN] +
    conj @ conj([N, iN]) holds twice the real and imaginary parts of the
    null maps; its real Gram has eigenvalues 4 (d times) and 0, and only
    the top d combinations are mapped back through E, one map at a time.
    """
    n, d = vecs.shape[0], null.shape[1]
    both = np.hstack([null, 1j * null])
    both = both + conj @ both.conj()
    lam, rot = np.linalg.eigh((both.conj().T @ both).real)
    coeffs = both @ (rot[:, d:] / np.sqrt(lam[d:]))
    maps = np.empty((d, n, n, n))
    flat = np.zeros(n ** 3, dtype=complex)
    for out, c in zip(maps, coeffs.T):
        flat[codes] = c
        part = (vecs @ flat.reshape(n, n * n)).reshape(n, n, n)
        out[...] = (np.matmul(vecs, part) @ vecs.T).real
    return maps


def solve_bytes(space: ReductiveSpace, r: int, d: int = 0) -> int:
    """Peak bytes of the reduced solve on r zero-weight triples with d maps.

    n = dim m and N = n^3.  The r x r stages (the Gram matrix beside one
    generator's gathers, ``eigh`` with LAPACK's copy, workspace and
    eigenvectors, the conjugation) hold at most 8 r^2 complex entries;
    beside them sit the k x n x n weight-basis action and a few N-sized
    arrays of one mapped-back map.  The basis adds d maps of N doubles.
    With dim k = 0 the answer is the N x N identity.
    """
    n = space.dim_m
    if not space.dim_k:
        return 8 * n ** 6
    return 16 * (8 * r * r + 2 * space.dim_k * n * n + 4 * n ** 3) + 8 * d * n ** 3


def _admit(space: ReductiveSpace, need: int) -> None:
    """Raise SolveTooLargeError when ``need`` bytes exceed ``SOLVE_BUDGET_BYTES``."""
    if need > SOLVE_BUDGET_BYTES:
        raise SolveTooLargeError(
            f"the equivariance solve on {space.name} needs "
            f"{need / 2**30:.3g} GiB, over the {SOLVE_BUDGET_BYTES / 2**30:g} GiB budget"
        )


def hom_dimension(space: ReductiveSpace, seed: int = 0) -> EquivariantSolveResult:
    """Solve for all isotropy-equivariant bilinear maps m x m -> m.

    The system A_a eta = 0 has dim k * n^3 equations in n^3 unknowns.  An
    invariant has weight zero under the generic h of ``_zero_weight``, so it
    lies in the span of the r zero-weight triples, and G = sum_a A_a^H A_a,
    being positive semidefinite, compresses to that span (``_reduced_gram``)
    with the invariants as its null space: the answer does not depend on h
    being regular, only r does.  The rank cut lambda > lambda_max *
    ``TOL.hom_rank`` is safe because ad(k) is skew in the m-frame
    (ReductiveError if not), so G is the Casimir operator of k on
    m* (x) m* (x) m, zero on the invariants and bounded away from zero
    elsewhere.  RankAmbiguityError is raised when the gap, sqrt of the
    smallest kept lambda over sqrt of the largest discarded |lambda|, is
    below ``TOL.rank_gap_min``.  The input-slot swap permutes the triples;
    its -1 and +1 eigenvectors on the null space are the skew and
    symmetric maps.  SolveTooLargeError is raised when ``solve_bytes``
    exceeds ``SOLVE_BUDGET_BYTES``: for the r x r stage once r is known,
    before the Gram matrix is built, and for the basis once the solve
    knows its dimension d, before any map is formed.
    """
    n = space.dim_m
    if space.dim_k == 0:
        _admit(space, solve_bytes(space, 0))
        basis = np.eye(n**3).reshape(-1, n, n, n)
        return EquivariantSolveResult(n**3, basis, n * n * (n - 1) // 2,
                                      n * n * (n + 1) // 2, np.zeros(0), np.inf)
    _require_skew(space)
    vecs, codes = _zero_weight(space, seed)
    _admit(space, solve_bytes(space, codes.size))
    x, y, z = np.unravel_index(codes, (n, n, n))
    lam, null = np.linalg.eigh(_reduced_gram(vecs.conj().T @ space.adk @ vecs, x, y, z))
    cut = lam.max(initial=0.0) * TOL.hom_rank
    s = np.sqrt(np.clip(lam[::-1], 0.0, None))
    rank = int((lam > cut).sum())
    dimension = lam.size - rank
    noise = np.sqrt(np.abs(lam[:dimension]).max()) if dimension else 0.0
    gap = float(s[rank - 1] / noise) if rank and noise > 0 else np.inf
    if gap < TOL.rank_gap_min:
        raise RankAmbiguityError(
            f"indeterminate rank: singular-value gap {gap:.1e} < {TOL.rank_gap_min:.0e}"
        )
    _admit(space, solve_bytes(space, codes.size, dimension))
    null = null[:, :dimension]
    swap, rot = np.linalg.eigh(null.conj().T @ null[np.searchsorted(codes, (y * n + x) * n + z)])
    null = null @ rot
    skew_dim = int((swap < 0).sum())
    pair = (vecs.T @ vecs).conj()
    conj = pair[np.ix_(x, x)] * pair[np.ix_(y, y)] * pair[np.ix_(z, z)]
    basis = np.concatenate([_real_maps(vecs, codes, conj, null[:, :skew_dim]),
                            _real_maps(vecs, codes, conj, null[:, skew_dim:])])
    return EquivariantSolveResult(dimension, basis, skew_dim, dimension - skew_dim, s, gap)


def certify_bracket_span(result: EquivariantSolveResult, space: ReductiveSpace,
                         tol: float = TOL.bracket_certificate) -> dict:
    """Check the m-bracket map solves the system and lies in the solution span.

    Both residuals pass below ``bound`` = tol * max(1, max |bm|).  The
    system residual is taken one generator at a time, so the (dim k, n, n, n)
    defect is never formed.
    """
    bracket = space.bm.reshape(-1)
    sys_res = max((float(np.abs(_apply_equivariance(ad[None], space.bm)).max())
                   for ad in space.adk), default=0.0)
    bound = tol * max(1.0, float(np.abs(bracket).max()))
    if result.dimension:
        flat = result.basis.reshape(result.dimension, -1)
        coeffs, *_ = np.linalg.lstsq(flat.T, bracket, rcond=None)
        proj_res = float(np.abs(flat.T @ coeffs - bracket).max())
    else:
        proj_res = float(np.abs(bracket).max())
    return {
        "system_residual": sys_res,
        "projection_residual": proj_res,
        "bound": bound,
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
    _require_skew(space)
    adk = space.adk
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        w = _normal(rng, space.dim_k)
        w /= np.linalg.norm(w)
        g = _expm_skew(np.tensordot(w, adk, (0, 0)))
        x = _normal(rng, space.dim_m)
        y = _normal(rng, space.dim_m)
        for eta in result.basis:
            lhs = np.einsum("abc,a,b->c", eta, g @ x, g @ y)
            rhs = g @ np.einsum("abc,a,b->c", eta, x, y)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
