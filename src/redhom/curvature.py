"""Torsion, curvature, Ricci and scalar curvature of invariant connections.

All tensors are stored over the metric-orthonormal frame of the active
metric (for the two-summand family g_t that is {X_i} united with
{Y_k / sqrt(2t)}).  The trace-of-curvature Ricci is the independent
oracle against which the closed forms are tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .liealg import DEFAULT_TOL
from .reductive import (
    MetricSpec,
    ReductiveSpace,
    ReductiveError,
    casimir,
    frame_sigma,
    frame_tables,
)
from .connections import (
    ConnectionError_,
    NomizuMap,
    lambda_matrices,
    nomizu_alpha,
    nomizu_levi_civita_gt,
)


@dataclass
class Tensor3:
    """Torsion 3-tensor components T[a,b,c] = g(T(E_a,E_b), E_c)."""

    components: np.ndarray
    metric: MetricSpec
    label: str = ""

    def skew_residual(self) -> float:
        """Departure from total skewness (symmetric part in the last two slots)."""
        t = self.components
        return float(np.abs(t + t.transpose(0, 2, 1)).max())

    def is_totally_skew(self, tol: float = DEFAULT_TOL) -> bool:
        return self.skew_residual() < tol

    def norm_squared(self) -> float:
        """Normalized ||T||^2 = (1/6) sum_ij |T(E_i, E_j)|^2."""
        return float(np.einsum("ijc,ijc->", self.components, self.components) / 6.0)


@dataclass
class Tensor31:
    """Curvature components R[a,b,c,d]: R(E_a,E_b)E_c = sum_d R[a,b,c,d] E_d."""

    components: np.ndarray
    metric: MetricSpec
    label: str = ""

    def max_abs(self) -> float:
        return float(np.abs(self.components).max())


@dataclass
class Tensor2:
    """Symmetric (or general) 2-tensor over the frame, with optional scalar."""

    components: np.ndarray
    metric: MetricSpec
    role: str = "ricci"
    scalar: float | None = None
    label: str = ""

    def symmetry_residual(self) -> float:
        return float(np.abs(self.components - self.components.T).max())

    def trace(self) -> float:
        return float(np.trace(self.components))


# ---------------------------------------------------------------------------
# core assembly


def torsion(nm: NomizuMap) -> Tensor3:
    """T(X,Y) = Lambda(X)Y - Lambda(Y)X - [X,Y]_m over the frame."""
    bm_f, _, _, _ = frame_tables(nm.space, nm.metric)
    t = nm.coeffs - nm.coeffs.transpose(1, 0, 2) - bm_f
    return Tensor3(t, nm.metric, label=nm.label)


def curvature(nm: NomizuMap) -> Tensor31:
    """R(X,Y) = [Lambda(X),Lambda(Y)] - Lambda([X,Y]_m) - ad([X,Y]_k)."""
    space = nm.space
    bm_f, bk_f, adk_f, _ = frame_tables(space, nm.metric)
    lam = lambda_matrices(nm)
    rmat = np.einsum("aij,bjk->abik", lam, lam)
    rmat = rmat - rmat.transpose(1, 0, 2, 3)
    rmat = rmat - np.einsum("abc,cik->abik", bm_f, lam)
    if space.dim_k:
        rmat = rmat - np.einsum("abw,wik->abik", bk_f, adk_f)
    return Tensor31(rmat.transpose(0, 1, 3, 2), nm.metric, label=nm.label)


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<A,B>[x,y] = sum_{i,j} A[x,i,j] B[j,y,i]."""
    return np.tensordot(a, b, ([1, 2], [2, 0]))


def ricci_oracle(nm: NomizuMap) -> Tensor2:
    """Ricci by tracing the curvature over the metric-orthonormal frame.

    Ric(X,Y) = sum_i R(X,E_i)E_i . Y for the curvature of ``curvature``,
    R(X,Y) = [Lambda(X),Lambda(Y)] - Lambda([X,Y]_m) - ad([X,Y]_k), with
    the trace index contracted before any m^4 tensor is formed:
    Ric = Lambda.u - <Lambda,Lambda> - <bm_f,Lambda> - <bk_f,adk_f>, where
    u_j = sum_i Lambda[i,j,i] and <A,B>[x,y] = sum_{i,j} A[x,i,j] B[j,y,i].
    """
    bm_f, bk_f, adk_f, _ = frame_tables(nm.space, nm.metric)
    lam = lambda_matrices(nm)
    u = np.einsum("iji->j", lam)
    ric = lam @ u - _pair(lam, lam) - _pair(bm_f, lam)
    if nm.space.dim_k:
        ric = ric - _pair(bk_f, adk_f)
    return Tensor2(ric, nm.metric, role="ricci", scalar=float(np.trace(ric)),
                   label=nm.label)


def nabla_torsion(nm: NomizuMap) -> np.ndarray:
    """(nabla_Z T)(X,Y) components NT[z,x,y,d] from the algebraic formula.

    Invariant tensors differentiate through the map itself:
    (nabla_Z T)(X,Y) = Lambda(Z) T(X,Y) - T(Lambda(Z)X, Y) - T(X, Lambda(Z)Y).
    """
    t3 = torsion(nm).components
    L = nm.coeffs
    return (
        np.einsum("xyc,zcd->zxyd", t3, L)
        - np.einsum("zxc,cyd->zxyd", L, t3)
        - np.einsum("zyc,xcd->zxyd", L, t3)
    )


def codifferential(nm: NomizuMap) -> Tensor2:
    """Co-differential of the torsion: (delta T)(X,Y) = -sum_i (nabla_{E_i}T)(E_i,X,Y).

    The trace of ``nabla_torsion`` is contracted before any m^4 tensor is
    formed: delta T = <v,T> + <L,T> - <T,L> with L = ``nm.coeffs``,
    v_c = sum_i L[i,i,c], <v,T>[x,y] = sum_c v_c T[c,x,y] and
    <A,B>[x,y] = sum_{i,c} A[i,x,c] B[i,c,y].
    """
    t3 = torsion(nm).components
    L = nm.coeffs
    v = np.einsum("iic->c", L)
    dt = (np.tensordot(v, t3, 1) + np.tensordot(L, t3, ([0, 2], [0, 1]))
          - np.tensordot(t3, L, ([0, 2], [0, 1])))
    return Tensor2(dt, nm.metric, role="codifferential", label=nm.label)


# ---------------------------------------------------------------------------
# closed forms


def ricci_alpha_closed(space: ReductiveSpace, alpha: float,
                       q_k: np.ndarray | None = None,
                       check_transvection: bool = True) -> Tensor2:
    """Closed-form Ricci of the canonical family on the naturally reductive metric.

    Ric(X,Y) = ((1-a^2)/4) B(X,Y) + ((1+a^2)/2) A(X,Y) with B the negative
    Killing form and A the Casimir pairing; the scalar curvature is stored
    on the result.  Requires g = m + [m,m].
    """
    if check_transvection:
        stacked = np.vstack([
            space.m_basis,
            space.m_bracket_vectors.reshape(-1, space.algebra.dim),
        ])
        if np.linalg.matrix_rank(stacked, tol=1e-8) != space.algebra.dim:
            raise ReductiveError("g = m + [m,m] fails; closed form not applicable")
    cas = casimir(space, q_k=q_k)
    b = space.b_form
    a = cas.a_gram
    ric = 0.25 * (1.0 - alpha**2) * b + 0.5 * (1.0 + alpha**2) * a
    bracket_sq = float(np.einsum("abc,abc->", space.bm, space.bm))
    scal = 0.25 * (1.0 - alpha**2) * bracket_sq + float(np.trace(a))
    return Tensor2(ric, MetricSpec.killing(space.nsummands), role="ricci",
                   scalar=scal, label=f"alpha={alpha:g}")


def s_tensor(nm: NomizuMap) -> Tensor2:
    """Torsion-square tensor S(X,Y) = sum_i g(T(E_i,X), T(E_i,Y))."""
    t3 = torsion(nm).components
    s = np.einsum("ixc,iyc->xy", t3, t3)
    return Tensor2(s, nm.metric, role="s-tensor", label=nm.label)


def s_tensor_alpha_closed(space: ReductiveSpace, alpha: float,
                          q_k: np.ndarray | None = None) -> Tensor2:
    """Closed form S = a^2 (B - 2A) on the naturally reductive metric."""
    cas = casimir(space, q_k=q_k)
    s = alpha**2 * (space.b_form - 2.0 * cas.a_gram)
    return Tensor2(s, MetricSpec.killing(space.nsummands), role="s-tensor",
                   label=f"alpha={alpha:g}")


def ricci_st_closed(space: ReductiveSpace, s: float, t: float,
                    q_k: np.ndarray | None = None) -> Tensor2:
    """Blockwise closed-form Ricci of the two-summand family nabla^{s,t}.

    Components are returned over the g_t-orthonormal frame; the mixed
    block vanishes identically.  The scalar curvature is stored on the
    result.
    """
    if len(space.summands) != 2:
        raise ReductiveError("the closed form needs exactly two summands")
    metric = MetricSpec.g_t(t)
    s1, s2 = space.summand_slices()
    idx = space.summand_index()
    m1_mask = (idx == 0).astype(float)
    m2_mask = (idx == 1).astype(float)
    cas = casimir(space, q_k=q_k)
    bm = space.bm
    m = space.dim_m
    ric = np.zeros((m, m))

    k1 = 0.5 * (s * s * t - 2.0 * s + 2.0 * s * t)
    k2 = 0.5 * (s * s - s * s * t - s)
    k3 = s * s * t - s * s * t * t - s * t

    # block m1: sum_i <[[X, X_i]_{m2}, X_i], Y> and sum_k <[[X, Y_k], Y_k], Y>
    w1 = np.einsum("xic,c,ciy->xy", bm[s1, s1, :], m2_mask, bm[:, s1, :][:, :, s1])
    w2 = np.einsum("xkc,cky->xy", bm[s1, s2, :], bm[:, s2, :][:, :, s1])
    ric[s1, s1] = k1 * w1 + k2 * w2 + cas.a_gram[s1, s1]

    # block m2: sum_i <[[X, X_i], X_i]_{m2}, Y>
    w3 = np.einsum("xic,c,ciy->xy", bm[s2, s1, :], m1_mask, bm[:, s1, :][:, :, s2])
    ric[s2, s2] = k3 * w3 + cas.a_gram[s2, s2]

    sigma = frame_sigma(space, metric)
    ric = ric / np.outer(sigma, sigma)
    return Tensor2(ric, metric, role="ricci", scalar=float(np.trace(ric)),
                   label=f"s={s:g} t={t:g}")


def _norm_sums(space: ReductiveSpace):
    """Per-vector bracket norm sums (P_j, Q_j over m1; R_l over m2)."""
    s1, s2 = space.summand_slices()
    bm = space.bm
    p = (bm[s1, s1, s2] ** 2).sum(axis=(1, 2))
    q = (bm[s1, s2, :] ** 2).sum(axis=(1, 2))
    r = (bm[s2, s1, :] ** 2).sum(axis=(1, 2))
    return p, q, r


def scalar_st_closed(space: ReductiveSpace, s: float, t: float,
                     q_k: np.ndarray | None = None) -> float:
    """Scalar curvature of nabla^{s,t} from the displayed norm sums."""
    if len(space.summands) != 2:
        raise ReductiveError("the closed form needs exactly two summands")
    sl1, sl2 = space.summand_slices()
    cas = casimir(space, q_k=q_k)
    p, q, _ = _norm_sums(space)
    p, q = float(p.sum()), float(q.sum())
    a1 = float(np.trace(cas.a_gram[sl1, sl1]))
    a2 = float(np.trace(cas.a_gram[sl2, sl2]))
    k1 = 0.5 * (s * s * t - 2.0 * s + 2.0 * s * t)
    coeff_q = s * s - s * s * t - s
    return -k1 * p - coeff_q * q + a1 + a2 / (2.0 * t)


# ---------------------------------------------------------------------------
# torsion type and Jacobians


def _levi_civita_map(space: ReductiveSpace, metric: MetricSpec) -> NomizuMap:
    """Levi-Civita Nomizu map for the metric (two-summand or Killing scaling)."""
    if len(space.summands) == 2:
        t = metric.t
        if t is None:
            raise ConnectionError_("metric is not in the g_t family")
        return nomizu_levi_civita_gt(space, t)
    if any(abs(sc - metric.scales[0]) > 1e-14 for sc in metric.scales):
        raise ConnectionError_("non-uniform metric needs a two-summand space")
    return nomizu_alpha(space, 0.0)


def torsion_type(nm: NomizuMap) -> dict:
    """Norms of the vectorial / skew / Cartan components of A = nabla - nabla^g.

    The difference tensor A(X,Y,Z) = g((Lambda - Lambda^g)(X)Y, Z) is
    projected onto the three orthogonal pieces of the torsion-tensor
    space; returns their Frobenius norms and the components.
    """
    lc = _levi_civita_map(nm.space, nm.metric)
    a = nm.coeffs - lc.coeffs
    n = a.shape[0]
    if n <= 1:
        raise ConnectionError_("torsion type needs dim m >= 2")
    phi = np.einsum("iic->c", a)
    v = phi / (n - 1.0)
    a1 = np.einsum("ab,c->abc", np.eye(n), v) - np.einsum("b,ac->abc", v, np.eye(n))
    rest = a - a1
    a2 = (rest + rest.transpose(1, 2, 0) + rest.transpose(2, 0, 1)) / 3.0
    a3 = rest - a2
    return {
        "vectorial_norm": float(np.linalg.norm(a1)),
        "skew_norm": float(np.linalg.norm(a2)),
        "cartan_norm": float(np.linalg.norm(a3)),
        "components": (a1, a2, a3),
    }


def jacobian_m(space: ReductiveSpace, metric: MetricSpec | None = None) -> dict:
    """Cyclic Jacobian Jac(X,Y,Z) = cyclic-sum [X,[Y,Z]_m]_m over the frame.

    Also reports whether the Jacobian vanishes and whether [m,m] stays in
    m or in k (the Lie-group and symmetric-space ends of the spectrum).
    """
    metric = metric or MetricSpec.killing(space.nsummands)
    bm_f, bk_f, _, _ = frame_tables(space, metric)
    jac = np.einsum("yzc,xcd->xyzd", bm_f, bm_f)
    jac = jac + jac.transpose(1, 2, 0, 3) + jac.transpose(2, 0, 1, 3)
    m_closed = float(np.abs(bk_f).max()) if space.dim_k else 0.0
    m_in_k = float(np.abs(bm_f).max()) if space.dim_m else 0.0
    return {
        "jacobian": jac,
        "max_abs": float(np.abs(jac).max()),
        "is_zero": bool(np.abs(jac).max() < 1e-9),
        "m_bracket_k_residual": m_closed,   # 0 iff [m,m] stays in m
        "m_bracket_m_residual": m_in_k,     # 0 iff [m,m] stays in k
    }


def scalar_relation_residual(nm: NomizuMap, q_k: np.ndarray | None = None) -> float:
    """Residual of Scal = Scal^g - (3/2)||T||^2 for skew-torsion connections."""
    t3 = torsion(nm)
    if not t3.is_totally_skew(tol=1e-7):
        raise ConnectionError_("scalar relation applies to skew torsion only")
    scal = ricci_oracle(nm).scalar
    lc = _levi_civita_map(nm.space, nm.metric)
    scal_g = ricci_oracle(lc).scalar
    return float(abs(scal - (scal_g - 1.5 * t3.norm_squared())))
