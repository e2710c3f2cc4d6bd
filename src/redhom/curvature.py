"""Torsion, curvature, Ricci and scalar curvature of invariant connections.

All tensors are stored over the metric-orthonormal frame of the active
metric (for the two-summand family g_t that is {X_i} united with
{Y_k / sqrt(2t)}).  The trace-of-curvature Ricci is the independent
oracle against which the closed forms are tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reductive import (
    MetricSpec,
    ReductiveSpace,
    ReductiveError,
    casimir,
    frame_sigma,
    summand_sigma,
)
from .connections import (
    ConnectionError_,
    NomizuMap,
    derivation_action,
    nomizu_alpha,
    nomizu_levi_civita_gt,
    satisfies_stc,
)
from .tolerances import TOL


@dataclass
class Tensor3:
    """Torsion 3-tensor components T[a,b,c] = g(T(E_a,E_b), E_c)."""

    components: np.ndarray

    def skew_residual(self) -> float:
        """Departure from total skewness (symmetric part in the last two slots)."""
        t = self.components
        sym = t + t.transpose(0, 2, 1)
        return float(np.abs(sym, out=sym).max())

    def is_totally_skew(self, tol: float = TOL.torsion_skew) -> bool:
        return self.skew_residual() < tol

    def norm_squared(self) -> float:
        """Normalized ||T||^2 = (1/6) sum_ij |T(E_i, E_j)|^2."""
        return float(np.einsum("ijc,ijc->", self.components, self.components) / 6.0)


@dataclass
class Tensor31:
    """Curvature components R[a,b,c,d]: R(E_a,E_b)E_c = sum_d R[a,b,c,d] E_d."""

    components: np.ndarray

    def max_abs(self) -> float:
        return float(np.abs(self.components).max())


@dataclass
class Tensor2:
    """Symmetric (or general) 2-tensor over the frame, with optional scalar."""

    components: np.ndarray
    scalar: float | None = None

    def symmetry_residual(self) -> float:
        return float(np.abs(self.components - self.components.T).max())


# ---------------------------------------------------------------------------
# core assembly


def torsion(nm: NomizuMap) -> Tensor3:
    """T(X,Y) = Lambda(X)Y - Lambda(Y)X - [X,Y]_m over the frame (read-only)."""
    return Tensor3(nm.torsion_table)


def curvature(nm: NomizuMap) -> Tensor31:
    """R(X,Y) = [Lambda(X),Lambda(Y)] - Lambda([X,Y]_m) - ad([X,Y]_k).

    Built in the output layout R[a,b,c,d] from one product table
    P[b,c,a,d] = sum_j L[b,c,j] L[a,j,d] (``tensordot``), whose two
    transposes give [Lambda(E_a),Lambda(E_b)], and one GEMM of the stacked
    m- and k-coefficients of [E_a,E_b] against the stacked Lambda(E_e) and
    ad(k_w) matrices: at most two m^4 arrays at a time.
    """
    bm_f, bk_f, adk_f, _ = nm.frame_tables
    L = nm.coeffs
    m = nm.dim
    prod = np.tensordot(L, L, (2, 1))
    rmat = prod.transpose(2, 0, 1, 3) - prod.transpose(0, 2, 1, 3)
    del prod
    brackets = np.concatenate((bm_f, bk_f), axis=2).reshape(m * m, -1)
    actions = np.concatenate((L, adk_f.transpose(0, 2, 1))).reshape(-1, m * m)
    rmat -= (brackets @ actions).reshape(rmat.shape)
    return Tensor31(rmat)


def _isotropy_term(space: ReductiveSpace, metric: MetricSpec) -> np.ndarray:
    """sum_{i,w} bk_f[x,i,w] adk_f[w,y,i] over the metric frame, from the
    space's ``isotropy_pairs``: (sigma_y / sigma_x) sum_s P[s,x,y] / sigma_s^2."""
    r = summand_sigma(space, metric)
    sigma = frame_sigma(space, metric)
    pairs = space.isotropy_pairs
    weights = 1.0 / (r * r)
    term = (weights @ pairs.reshape(len(r), -1)).reshape(pairs.shape[1:])
    term /= sigma[:, None]
    term *= sigma
    return term


def ricci_oracle(nm: NomizuMap) -> Tensor2:
    """Ricci by tracing the curvature over the metric-orthonormal frame.

    Ric(X,Y) = sum_i R(X,E_i)E_i . Y for the curvature of ``curvature``,
    R(X,Y) = [Lambda(X),Lambda(Y)] - Lambda([X,Y]_m) - ad([X,Y]_k), with
    the trace index contracted before any m^4 tensor is formed:
    Ric = Lambda.u - <Lambda + bm_f,Lambda> - <bk_f,adk_f>, where
    u_j = sum_i Lambda[i,j,i] and <A,B>[x,y] = sum_{i,j} A[x,i,j] B[j,y,i].
    It reads the map's coefficients, its ``frame_bracket`` bm_f, and the
    space's ``isotropy_pairs`` for <bk_f,adk_f>, a table built from ``bk``
    and ``adk`` alone; never the Casimir data or the bracket sums w of the
    closed forms.
    """
    L = nm.coeffs                                # Lambda[a,i,j] = L[a,j,i]
    m = nm.dim
    u = np.einsum("iij->j", L)
    # <Lambda + bm_f,Lambda>[x,y] = sum_{i,j} (L[x,i,j] + bm_f[x,j,i]) L[i,j,y]:
    # one GEMM of the summed (x, (i,j)) rows against L as stored
    left = L + nm.frame_bracket.transpose(0, 2, 1)
    ric = u @ L
    ric -= left.reshape(m, -1) @ L.reshape(-1, m)
    if nm.space.dim_k:
        ric -= _isotropy_term(nm.space, nm.metric)
    return Tensor2(ric, scalar=float(np.trace(ric)))


def nabla_torsion(nm: NomizuMap) -> np.ndarray:
    """(nabla_Z T)(X,Y) components NT[z,x,y,d] from the algebraic formula.

    Invariant tensors differentiate through the map itself:
    (nabla_Z T)(X,Y) = Lambda(Z) T(X,Y) - T(Lambda(Z)X, Y) - T(X, Lambda(Z)Y).
    """
    return derivation_action(nm.coeffs, torsion(nm).components)


def codifferential(nm: NomizuMap) -> Tensor2:
    """Co-differential of the torsion: (delta T)(X,Y) = -sum_i (nabla_{E_i}T)(E_i,X,Y).

    The trace of ``nabla_torsion`` is contracted before any m^4 tensor is
    formed: delta T = <v,T> + <L,T> - <T,L> with L = ``nm.coeffs``,
    v_c = sum_i L[i,i,c], <v,T>[x,y] = sum_c v_c T[c,x,y] and
    <A,B>[x,y] = sum_{i,c} A[i,x,c] B[i,c,y].  Each pairing is one GEMM
    of A[i,x,c] read as (x, (i,c)) rows against B as stored; for A = L
    those rows are the map's ``swapped_coeffs``.  T[b,a,c] = -T[a,b,c]
    holds bit for bit (``ReductiveSpace.bm`` is exactly antisymmetric and
    the frame factors are symmetric in a, b), so the rows of <T,L> are
    -T as stored and no transposed copy is made.
    """
    t3 = nm.torsion_table
    L = nm.coeffs
    m = nm.dim
    v = np.einsum("iic->c", L)
    t_rows = t3.reshape(m, -1)
    dt = (v @ t_rows).reshape(m, m)
    dt += nm.swapped_coeffs.reshape(m, -1) @ t3.reshape(-1, m)
    dt += t_rows @ L.reshape(-1, m)
    return Tensor2(dt)


def verify_stary(nm: NomizuMap) -> float:
    """Residual of the torsion/curvature identity for maps with Lambda(X)X = 0.

    The identity (nabla_Z T)(X,Y) = 2{R(Z,X)Y - Lambda(Y)([Z,X] - Lambda(Z)X)}
    holds on Lie group spaces (k = 0) exactly when the map is a derivation;
    the returned residual is its maximal defect over frame triples.  Both
    sides come from ``nabla_torsion`` and ``curvature``.
    """
    if nm.space.dim_k != 0:
        raise ConnectionError_("the identity is for Lie group spaces")
    ok, res = satisfies_stc(nm)
    if not ok:
        raise ConnectionError_(
            f"the identity presumes Lambda(X)X = 0 (violated by {res:.3e})"
        )
    # Lambda(Y)([Z,X] - Lambda(Z)X) components [z,x,y,d]
    lam_term = np.tensordot(nm.frame_bracket - nm.coeffs, nm.coeffs, (2, 1))
    rhs = curvature(nm).components - lam_term
    rhs *= 2.0
    return float(np.abs(nabla_torsion(nm) - rhs).max())


# ---------------------------------------------------------------------------
# closed forms


def ricci_alpha_closed(space: ReductiveSpace, alpha: float) -> Tensor2:
    """Closed-form Ricci of the canonical family on the naturally reductive metric.

    Ric(X,Y) = ((1-a^2)/4) B(X,Y) + ((1+a^2)/2) A(X,Y) with B the negative
    Killing form and A the Casimir pairing; the scalar curvature is stored
    on the result.  Requires g = m + [m,m], that is, the k-parts of [m,m]
    (the rows of ``bk``) must span k.
    """
    if space.dim_k and np.linalg.matrix_rank(
            space.bk.reshape(-1, space.dim_k), tol=TOL.transvection_rank) != space.dim_k:
        raise ReductiveError("g = m + [m,m] fails; closed form not applicable")
    cas = casimir(space)
    b = space.b_form
    a = cas.a_gram
    ric = 0.25 * (1.0 - alpha**2) * b + 0.5 * (1.0 + alpha**2) * a
    bracket_sq = float(np.einsum("abc,abc->", space.bm, space.bm))
    scal = 0.25 * (1.0 - alpha**2) * bracket_sq + float(np.trace(a))
    return Tensor2(ric, scalar=scal)


def s_tensor(nm: NomizuMap) -> Tensor2:
    """Torsion-square tensor S(X,Y) = sum_i g(T(E_i,X), T(E_i,Y))."""
    t3 = torsion(nm).components
    s = np.einsum("ixc,iyc->xy", t3, t3)
    return Tensor2(s)


def s_tensor_alpha_closed(space: ReductiveSpace, alpha: float) -> Tensor2:
    """Closed form S = a^2 (B - 2A) on the naturally reductive metric."""
    cas = casimir(space)
    s = alpha**2 * (space.b_form - 2.0 * cas.a_gram)
    return Tensor2(s)


def _st_coefficients(space: ReductiveSpace, s: float, t: float) -> tuple:
    """Coefficients (k1, k2, k3) of w1, w2 and w3 in the closed forms of nabla^{s,t}."""
    if len(space.summands) != 2:
        raise ReductiveError("the closed form needs exactly two summands")
    k1 = 0.5 * (s * s * t - 2.0 * s + 2.0 * s * t)
    k2 = 0.5 * (s * s - s * s * t - s)
    k3 = s * s * t - s * s * t * t - s * t
    return k1, k2, k3


def ricci_st_closed(space: ReductiveSpace, s: float, t: float) -> Tensor2:
    """Blockwise closed-form Ricci of the two-summand family nabla^{s,t}.

    Ric = k1 w1 + k2 w2 + A on m1 and k3 w3 + A on m2, with the bracket
    contractions w of ``ReductiveSpace.bracket_sums`` and the Casimir
    pairing A.  Components are returned over the g_t-orthonormal frame;
    the mixed block vanishes identically.  The scalar curvature is stored
    on the result.
    """
    k1, k2, k3 = _st_coefficients(space, s, t)
    metric = MetricSpec.g_t(t)
    s1, s2 = space.summand_slices()
    cas = casimir(space)
    w = space.bracket_sums
    ric = np.zeros((space.dim_m, space.dim_m))
    ric[s1, s1] = k1 * w.w1 + k2 * w.w2 + cas.a_gram[s1, s1]
    ric[s2, s2] = k3 * w.w3 + cas.a_gram[s2, s2]
    sigma = frame_sigma(space, metric)
    ric /= np.outer(sigma, sigma)
    return Tensor2(ric, scalar=float(np.trace(ric)))


def scalar_st_closed(space: ReductiveSpace, s: float, t: float) -> float:
    """Scalar curvature of nabla^{s,t} from the displayed norm sums."""
    k1, k2, _ = _st_coefficients(space, s, t)
    sl1, sl2 = space.summand_slices()
    cas = casimir(space)
    w = space.bracket_sums
    a1 = float(np.trace(cas.a_gram[sl1, sl1]))
    a2 = float(np.trace(cas.a_gram[sl2, sl2]))
    return -k1 * float(w.p.sum()) - 2.0 * k2 * float(w.q.sum()) + a1 + a2 / (2.0 * t)


# ---------------------------------------------------------------------------
# torsion type and Jacobians


def _levi_civita_map(space: ReductiveSpace, metric: MetricSpec) -> NomizuMap:
    """Levi-Civita Nomizu map in the frame of the metric (any two-summand
    metric, or a uniform scale of the Killing metric).

    A two-summand metric (a, b) is a * g_t with t = b / (2a), and scaling a
    metric leaves its Levi-Civita connection unchanged.
    """
    if len(space.summands) == 2:
        a, b = metric.scales
        return nomizu_levi_civita_gt(space, b / (2.0 * a)).rescaled(metric)
    if any(abs(sc - metric.scales[0]) > TOL.uniform_scale for sc in metric.scales):
        raise ConnectionError_("non-uniform metric needs a two-summand space")
    return nomizu_alpha(space, 0.0).rescaled(metric)


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


def jacobian_m(space: ReductiveSpace) -> dict:
    """Cyclic Jacobian Jac(X,Y,Z) = cyclic-sum [X,[Y,Z]_m]_m over the Killing frame.

    Also reports whether the Jacobian vanishes and whether [m,m] stays in
    m or in k (the Lie-group and symmetric-space ends of the spectrum).
    """
    bm, bk = space.bm, space.bk
    jac = np.einsum("yzc,xcd->xyzd", bm, bm)
    jac = jac + jac.transpose(1, 2, 0, 3) + jac.transpose(2, 0, 1, 3)
    m_closed = float(np.abs(bk).max()) if space.dim_k else 0.0
    m_in_k = float(np.abs(bm).max()) if space.dim_m else 0.0
    return {
        "jacobian": jac,
        "max_abs": float(np.abs(jac).max()),
        "is_zero": bool(np.abs(jac).max() < TOL.jacobian),
        "m_bracket_k_residual": m_closed,   # 0 iff [m,m] stays in m
        "m_bracket_m_residual": m_in_k,     # 0 iff [m,m] stays in k
    }


def scalar_relation_residual(nm: NomizuMap) -> float:
    """Residual of Scal = Scal^g - (3/2)||T||^2 for skew-torsion connections."""
    t3 = torsion(nm)
    if not t3.is_totally_skew(tol=TOL.skew_torsion_gate):
        raise ConnectionError_("scalar relation applies to skew torsion only")
    scal = ricci_oracle(nm).scalar
    lc = _levi_civita_map(nm.space, nm.metric)
    scal_g = ricci_oracle(lc).scalar
    return float(abs(scal - (scal_g - 1.5 * t3.norm_squared())))
