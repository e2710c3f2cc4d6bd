"""Invariant connections via their Nomizu maps.

A NomizuMap stores the coefficients L[a,b,c] of Lambda(E_a)E_b over the
metric-orthonormal frame of its space.  Builders cover the canonical
one-parameter family, the two-summand Levi-Civita family and its
s-rescaling, bi-invariant per-ideal families, and the exotic bilinear
maps on u(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liealg import (
    _BLOCK,
    LieAlgebra,
    _read_only,
    build_u,
    negative_killing,
    nullspace,
    realify,
    u_complex_basis,
)
from .reductive import (
    MetricSpec,
    ReductiveSpace,
    check_inclusions,
    frame_bracket,
    frame_k_tables,
    lie_group_space,
    rescale_factors,
    scale_blocks,
    summand_sigma,
)
from .tolerances import TOL


class ConnectionError_(ValueError):
    """Invalid connection construction or check precondition."""


@dataclass(frozen=True)
class NomizuMap:
    """Coefficients of an invariant connection over a metric frame.

    The coefficients are read-only, so the tables cached on the map cannot
    go stale; a writeable or borrowed array is copied first.
    """

    space: ReductiveSpace
    metric: MetricSpec
    coeffs: np.ndarray           # (M, M, M): Lambda(E_a)E_b = sum_c coeffs[a,b,c] E_c

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.flags.writeable or not coeffs.flags.owndata:
            coeffs = _read_only(coeffs.copy())
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @cached_property
    def frame_bracket(self) -> np.ndarray:
        """bm_f of ``frame_bracket(space, metric)``, once per map, read-only."""
        return _read_only(frame_bracket(self.space, self.metric))

    @cached_property
    def swapped_coeffs(self) -> np.ndarray:
        """One contiguous read-only copy of L[b,a,c], shared by the torsion
        and the co-differential, whose contractions read it as a matrix."""
        return _read_only(np.ascontiguousarray(self.coeffs.transpose(1, 0, 2)))

    @cached_property
    def frame_tables(self) -> tuple:
        """``frame_tables(space, metric)`` once per map, read-only; bm_f is
        ``frame_bracket``."""
        k_tables = (_read_only(t) for t in frame_k_tables(self.space, self.metric))
        return (self.frame_bracket, *k_tables)

    @cached_property
    def torsion_table(self) -> np.ndarray:
        """T[a,b,c] = L[a,b,c] - L[b,a,c] - bm_f[a,b,c], once per map, read-only."""
        table = self.coeffs - self.swapped_coeffs
        table -= self.frame_bracket
        return _read_only(table)

    def rescaled(self, metric: MetricSpec) -> "NomizuMap":
        """Same map expressed in the frame of another metric."""
        r = summand_sigma(self.space, metric) / summand_sigma(self.space, self.metric)
        coeffs = scale_blocks(self.space, self.coeffs, rescale_factors(r))
        return NomizuMap(self.space, metric, _read_only(coeffs))


# ---------------------------------------------------------------------------
# builders


def nomizu_alpha(space: ReductiveSpace, alpha: float) -> NomizuMap:
    """The family Lambda(X)Y = ((1 - alpha)/2) [X, Y]_m on the Killing metric.

    alpha = 1 is the canonical connection (zero map), alpha = 0 the
    Levi-Civita connection of the naturally reductive metric.
    """
    metric = MetricSpec.killing(space.nsummands)
    coeffs = _read_only(0.5 * (1.0 - alpha) * space.bm)
    return NomizuMap(space, metric, coeffs)


def _nomizu_gt(space: ReductiveSpace, s: float, t: float) -> NomizuMap:
    """s times the Levi-Civita Nomizu map of g_t, in the g_t frame.

    Over the ip-orthonormal basis the map is blockwise a multiple of the
    m-bracket: (1/2)[X, X']_{m2}, t[X, Y] and (1 - t)[Y, X] for X, X' in
    m1 and Y in m2, and zero on m2 x m2.  Each block is written once, with
    s and the frame rescaling folded into its scalar.
    """
    if len(space.summands) != 2:
        raise ConnectionError_("the g_t family needs exactly two summands")
    incl = check_inclusions(space)
    if not incl["ok"]:
        raise ConnectionError_(f"bracket inclusions violated: {incl}")
    metric = MetricSpec.g_t(t)
    weights = np.zeros((2, 2, 2))        # per summand triple (input, input, output)
    weights[0, 0, 1] = 0.5
    weights[0, 1, :] = t
    weights[1, 0, :] = 1.0 - t
    factors = s * weights * rescale_factors(summand_sigma(space, metric))
    coeffs = _read_only(scale_blocks(space, space.bm, factors))
    return NomizuMap(space, metric, coeffs)


def nomizu_levi_civita_gt(space: ReductiveSpace, t: float) -> NomizuMap:
    """Levi-Civita Nomizu map of the two-summand metric family g_t."""
    return _nomizu_gt(space, 1.0, t)


def nomizu_st(space: ReductiveSpace, s: float, t: float) -> NomizuMap:
    """The two-parameter family s * Lambda_t; s = 0 canonical, s = 1 Levi-Civita."""
    return _nomizu_gt(space, s, t)


def biinvariant_family(space: ReductiveSpace, ideals, alphas) -> NomizuMap:
    """Per-ideal bracket family on a Lie group space (k = 0).

    ``ideals`` are coefficient-vector bases (one array per ideal) jointly
    spanning the algebra; the map is sum_i ((1 - alpha_i)/2) [X_i, Y_i].
    The centre contributes nothing since its brackets vanish.
    """
    if space.dim_k != 0:
        raise ConnectionError_("bi-invariant families live on Lie group spaces")
    alg = space.algebra
    ideals = [np.asarray(b, dtype=float).reshape(-1, alg.dim) for b in ideals]
    if len(ideals) != len(alphas):
        raise ConnectionError_("one alpha per ideal is required")
    stacked = np.vstack(ideals)
    if (stacked.shape[0] != alg.dim
            or np.linalg.matrix_rank(stacked, tol=TOL.independence) != alg.dim):
        raise ConnectionError_("ideals must jointly span the algebra")
    for basis in ideals:
        ker = _ideal_leak(alg, basis)
        if ker > TOL.span:
            raise ConnectionError_(f"non-ideal input (bracket leak {ker:.3e})")
    inv = np.linalg.inv(stacked)
    metric = MetricSpec.killing(space.nsummands)
    m = space.m_basis
    coeffs = np.zeros((space.dim_m,) * 3)
    offset = 0
    for basis, alpha in zip(ideals, alphas):
        rows = slice(offset, offset + basis.shape[0])
        offset += basis.shape[0]
        proj = inv[:, rows] @ basis          # projection onto this ideal
        comp = m @ proj                      # ideal components of the frame vectors
        coeffs += 0.5 * (1.0 - alpha) * (alg.brackets(comp, comp) @ (space.ip.gram @ m.T))
    return NomizuMap(space, metric, coeffs)


def _ideal_leak(alg: LieAlgebra, basis: np.ndarray) -> float:
    """Residual of [g, ideal] outside the ideal span."""
    brs = alg.brackets(np.eye(alg.dim), basis).reshape(-1, alg.dim)
    proj = (brs @ basis.T) @ basis
    return float(np.abs(brs - proj).max()) if brs.size else 0.0


# ---------------------------------------------------------------------------
# pointwise checks


def is_metric(nm: NomizuMap) -> tuple[bool, float]:
    """Whether Lambda(X) is skew for the map's metric; returns (flag, residual)."""
    residual = float(np.abs(nm.coeffs + nm.coeffs.transpose(0, 2, 1)).max())
    return residual < TOL.metric, residual


def satisfies_stc(nm: NomizuMap) -> tuple[bool, float]:
    """Polarized check of Lambda(X)X = 0 over all frame pairs."""
    residual = float(np.abs(nm.coeffs + nm.coeffs.transpose(1, 0, 2)).max())
    return residual < TOL.stc, residual


def equivariance_residual(nm: NomizuMap) -> float:
    """Infinitesimal Ad(k)-equivariance defect of the map.

    Taken over blocks of rows w of k, of at most ``_BLOCK`` defect entries
    and at least one row, so the whole (dim k, m, m, m) defect is never
    formed.
    """
    space = nm.space
    if space.dim_k == 0:
        return 0.0
    _, _, adk_f, _ = nm.frame_tables
    L = nm.coeffs                                # Lambda(E_a)[i,j] = L[a,j,i]
    step = max(1, _BLOCK // nm.dim ** 3)
    worst = 0.0
    for w in range(0, space.dim_k, step):
        ad = adk_f[w:w + step]
        # ad(W) Lambda(X) - Lambda(X) ad(W) - Lambda(ad(W) X), indexed [w,i,a,k]
        defect = np.tensordot(ad, L, (2, 2))
        defect -= np.tensordot(L, ad, (1, 1)).transpose(2, 1, 0, 3)
        defect -= np.tensordot(ad, L, (1, 0)).transpose(0, 3, 1, 2)
        worst = max(worst, float(np.abs(defect, out=defect).max()))
    return worst


def derivation_action(L: np.ndarray, a: np.ndarray) -> np.ndarray:
    """D[z,x,y,d] of Lambda(Z)A(X,Y) - A(Lambda(Z)X,Y) - A(X,Lambda(Z)Y).

    ``L`` holds Nomizu coefficients, ``a`` a 2-form A[x,y,c] on the same frame.
    """
    action = np.negative(np.tensordot(L, a, (2, 0)))
    action += np.tensordot(a, L, (2, 1)).transpose(2, 0, 1, 3)
    action -= np.tensordot(L, a, (2, 1)).transpose(0, 2, 1, 3)
    return action


def derivation_defect(nm: NomizuMap) -> np.ndarray:
    """Leibniz defect D(Z,X,Y) of the map against the m-bracket (k = 0 spaces)."""
    if nm.space.dim_k != 0:
        raise ConnectionError_("derivation checks are for Lie group spaces")
    return derivation_action(nm.coeffs, nm.frame_bracket)


def is_derivation(nm: NomizuMap) -> tuple[bool, float]:
    """Whether every Lambda(Z) is a derivation of the algebra."""
    residual = float(np.abs(derivation_defect(nm)).max())
    return residual < TOL.derivation, residual


# ---------------------------------------------------------------------------
# exotic bilinear maps on u(n)


@dataclass
class BilinearMapOnU:
    """A bilinear map u(n) x u(n) -> u(n) as a coefficient table."""

    algebra: LieAlgebra
    coeffs: np.ndarray           # (d, d, d) over the u(n) basis

    def as_nomizu(self, space: ReductiveSpace) -> NomizuMap:
        """Express the map over the frame of a Lie group space of u(n)."""
        same = (space.algebra is self.algebra
                or np.array_equal(space.algebra.basis, self.algebra.basis))
        if space.dim_k != 0 or not same:
            raise ConnectionError_("expected a Lie group space over the same algebra")
        metric = MetricSpec.killing(space.nsummands)
        s = space.m_basis                        # frame rows over the raw basis
        sinv = np.linalg.inv(s)
        coeffs = np.einsum("ia,jb,abc,cd->ijd", s, s, self.coeffs, sinv)
        return NomizuMap(space, metric, coeffs)


def exotic_un_maps(n: int) -> dict:
    """The symmetric maps eta1, eta2, eta3 and the skew map mu on u(n)."""
    if n < 2:
        raise ConnectionError_("exotic maps need n >= 2")
    alg = build_u(n)
    cb = u_complex_basis(n)
    eye = np.eye(n, dtype=complex)

    def table(fn):
        d = len(cb)
        out = np.zeros((d, d, d))
        for a, x in enumerate(cb):
            for b, y in enumerate(cb):
                out[a, b] = alg.coefficients(realify(fn(x, y)))
        return out

    maps = {
        "eta1": lambda x, y: 1j * (x @ y + y @ x),
        "eta2": lambda x, y: np.trace(x @ y) * 1j * eye,
        "eta3": lambda x, y: np.trace(x) * np.trace(y) * 1j * eye,
        "mu": lambda x, y: 1j * (np.trace(y) * x - np.trace(x) * y),
    }
    return {kind: BilinearMapOnU(alg, table(fn)) for kind, fn in maps.items()}


def combine_bilinear(maps: dict, c1: float, c2: float, c3: float, c: float) -> BilinearMapOnU:
    """Linear combination c1*eta1 + c2*eta2 + c3*eta3 + c*mu."""
    coeffs = (
        c1 * maps["eta1"].coeffs
        + c2 * maps["eta2"].coeffs
        + c3 * maps["eta3"].coeffs
        + c * maps["mu"].coeffs
    )
    return BilinearMapOnU(maps["eta1"].algebra, coeffs)


def linear_combination_stc_rank(n: int, sample_points=None) -> dict:
    """Solution space of eta_c(X, X) = 0 in the weights (c1, c2, c3, c).

    The default sample set (basis vectors and pairwise sums) spans the
    quadratic constraints; the expected solution space is the mu-axis.
    """
    maps = exotic_un_maps(n)
    alg = maps["eta1"].algebra
    d = alg.dim
    if sample_points is None:
        samples = [np.eye(d)[a] for a in range(d)]
        samples += [np.eye(d)[a] + np.eye(d)[b] for a in range(d) for b in range(a + 1, d)]
    else:
        samples = [np.asarray(x, dtype=float) for x in sample_points]
    order = ["eta1", "eta2", "eta3", "mu"]
    rows = []
    for x in samples:
        cols = [np.einsum("abc,a,b->c", maps[k].coeffs, x, x) for k in order]
        rows.append(np.column_stack(cols))
    system = np.vstack(rows)
    basis = nullspace(system, rtol=TOL.stc_rank)
    mu_only = bool(
        basis.shape[0] == 1 and np.abs(basis[0][:3]).max() < TOL.mu_axis
    )
    return {"dimension": int(basis.shape[0]), "basis": basis, "mu_only": mu_only,
            "weights_order": order}


def u_group_space(n: int) -> ReductiveSpace:
    """Lie group space of u(n) with -K patched by a unit centre block."""
    alg = build_u(n)
    ip = negative_killing(alg, center_weight=1.0)
    return lie_group_space(alg, ip=ip, name=f"lie-group(u{n})")
