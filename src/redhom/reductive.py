"""Reductive decompositions g = k + m, isotropy splits and Casimir data.

A ReductiveSpace stores an algebra together with an orthonormalized
subalgebra basis and complement basis; the complement may carry an
ordered two-summand split.  Immutability is enforced: instances are
frozen, and their bases and cached bracket tables are read-only arrays.
All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .liealg import (
    DEFAULT_TOL,
    InnerProduct,
    LieAlgebra,
    LieAlgebraError,
    _read_only,
    gram_schmidt,
    negative_killing,
    nullspace,
)


class ReductiveError(ValueError):
    """Invalid reductive decomposition or isotropy split."""


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


@dataclass
class MetricSpec:
    """Per-summand positive scales of an invariant metric.

    The metric is sum_i scales[i] * ip restricted to the i-th summand.
    For a two-summand space the family (1, 2t) is the usual one; t = 1/2
    gives the Killing-type metric with all scales equal to 1.
    """

    scales: tuple = (1.0,)

    def __post_init__(self):
        self.scales = tuple(float(s) for s in self.scales)
        if not all(0 < s < np.inf for s in self.scales):
            raise ReductiveError("metric scales must be positive and finite")

    @classmethod
    def killing(cls, nsummands: int = 1) -> "MetricSpec":
        return cls((1.0,) * max(1, nsummands))

    @classmethod
    def g_t(cls, t: float) -> "MetricSpec":
        if not t > 0:
            raise ReductiveError("g_t requires t > 0")
        return cls((1.0, 2.0 * t))

    @property
    def t(self) -> float | None:
        """Parameter t when the scales have the (1, 2t) shape."""
        if len(self.scales) == 2 and abs(self.scales[0] - 1.0) < 1e-14:
            return self.scales[1] / 2.0
        if len(self.scales) == 1:
            return 0.5
        return None


@dataclass(frozen=True)
class ReductiveSpace:
    """Algebra, subalgebra k, ip-orthonormal complement m, optional split.

    Bases and cached bracket tables are read-only copies.
    """

    algebra: LieAlgebra
    ip: InnerProduct
    k_basis: np.ndarray          # (dim k, dim g)
    m_basis: np.ndarray          # (dim m, dim g)
    summands: tuple = ()         # ((start, stop), ...) index ranges into m_basis
    name: str = ""

    def __post_init__(self):
        for attr in ("k_basis", "m_basis"):
            basis = _read_only(np.array(getattr(self, attr), dtype=float))
            object.__setattr__(self, attr, basis)

    @property
    def dim_k(self) -> int:
        return self.k_basis.shape[0]

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[0]

    @property
    def summand_dims(self) -> tuple:
        if not self.summands:
            return (self.dim_m,)
        return tuple(stop - start for start, stop in self.summands)

    @property
    def nsummands(self) -> int:
        return max(1, len(self.summands))

    def summand_slices(self):
        if not self.summands:
            return [slice(0, self.dim_m)]
        return [slice(start, stop) for start, stop in self.summands]

    def summand_index(self) -> np.ndarray:
        """Summand number of each m-basis index."""
        idx = np.zeros(self.dim_m, dtype=int)
        for s, sl in enumerate(self.summand_slices()):
            idx[sl] = s
        return idx

    # -- cached bracket tables (read-only arrays) ---------------------------

    @cached_property
    def m_bracket_vectors(self) -> np.ndarray:
        """[Z_a, Z_b] as algebra coefficient vectors, shape (M, M, dim g)."""
        return _read_only(self.algebra.brackets(self.m_basis, self.m_basis))

    @cached_property
    def bm(self) -> np.ndarray:
        """m-part coefficients of [Z_a, Z_b] over the m-basis."""
        return _read_only(self.m_bracket_vectors @ (self.ip.gram @ self.m_basis.T))

    @cached_property
    def bk(self) -> np.ndarray:
        """k-part coefficients of [Z_a, Z_b] over the k-basis."""
        return _read_only(self.m_bracket_vectors @ (self.ip.gram @ self.k_basis.T))

    @cached_property
    def adk(self) -> np.ndarray:
        """Matrices of ad(k_a) on m: adk[a, c, b] = <[k_a, Z_b], Z_c>."""
        vecs = self.algebra.brackets(self.k_basis, self.m_basis)
        table = (vecs @ (self.ip.gram @ self.m_basis.T)).transpose(0, 2, 1)
        return _read_only(np.ascontiguousarray(table))

    @cached_property
    def k_structure(self) -> np.ndarray:
        """Structure constants of k in its orthonormal basis."""
        vecs = self.algebra.brackets(self.k_basis, self.k_basis)
        return _read_only(vecs @ (self.ip.gram @ self.k_basis.T))

    @cached_property
    def b_form(self) -> np.ndarray:
        """Negative Killing form of g restricted to the m-basis."""
        return _read_only(-(self.m_basis @ self.algebra.killing @ self.m_basis.T))

    def validate(self, tol: float = 1e-8) -> dict:
        """Residuals of the reductive-space invariants."""
        g = self.ip.gram
        k, m = self.k_basis, self.m_basis
        kk = self.algebra.brackets(k, k)
        km = self.algebra.brackets(k, m)
        res = {
            "m_orthonormal": _max_abs(m @ g @ m.T - np.eye(self.dim_m)),
            "k_m_orthogonal": _max_abs(k @ g @ m.T),
            # [k, k] and [k, m] must be rebuilt by their k- and m-parts
            "k_closed": _max_abs(kk - self.k_structure @ k),
            "k_m_in_m": _max_abs(km - self.adk.transpose(0, 2, 1) @ m),
            # [Z_a, Z_b] must decompose exactly into k- and m-parts
            "m_bracket_split": _max_abs(
                self.m_bracket_vectors - self.bm @ m - self.bk @ k),
        }
        res["ok"] = bool(max(res.values()) < tol)
        return res


def decompose(algebra: LieAlgebra, k_basis, ip: InnerProduct | None = None,
              name: str = "", tol: float = DEFAULT_TOL) -> ReductiveSpace:
    """Split g = k + m with m the ip-orthogonal complement of k.

    The k and m bases are orthonormalized against ``ip`` (default -K).
    Raises if k is not a subalgebra or the complement is not ad(k)-stable.
    """
    if ip is None:
        ip = negative_killing(algebra)
    k_basis = np.asarray(k_basis, dtype=float).reshape(-1, algebra.dim)
    if k_basis.shape[0]:
        k_basis = gram_schmidt(k_basis, ip)
        complement = nullspace(k_basis @ ip.gram)
    else:
        complement = np.eye(algebra.dim)
    if complement.shape[0]:
        m_basis = gram_schmidt(complement, ip)
    else:
        m_basis = complement.reshape(0, algebra.dim)
    space = ReductiveSpace(algebra=algebra, ip=ip, k_basis=k_basis,
                           m_basis=m_basis, name=name or algebra.name)
    report = space.validate(tol=max(tol, 1e-8))
    if not report["ok"]:
        bad = {k: v for k, v in report.items() if k != "ok"}
        raise ReductiveError(f"decomposition of {space.name} failed: {bad}")
    return space


def assemble(algebra: LieAlgebra, k_basis, m_basis, ip: InnerProduct,
             summands=(), name: str = "", tol: float = 1e-8) -> ReductiveSpace:
    """Build a space from pinned bases, validating instead of recomputing."""
    space = ReductiveSpace(
        algebra=algebra, ip=ip,
        k_basis=np.asarray(k_basis, dtype=float).reshape(-1, algebra.dim),
        m_basis=np.asarray(m_basis, dtype=float).reshape(-1, algebra.dim),
        summands=tuple(tuple(s) for s in summands), name=name or algebra.name,
    )
    report = space.validate(tol=tol)
    if not report["ok"]:
        bad = {k: v for k, v in report.items() if k != "ok"}
        raise ReductiveError(f"assembled space {space.name} is invalid: {bad}")
    return space


def lie_group_space(algebra: LieAlgebra, ip: InnerProduct | None = None,
                    name: str = "") -> ReductiveSpace:
    """The k = 0 space of a compact Lie group (m = whole algebra)."""
    return decompose(algebra, np.zeros((0, algebra.dim)), ip=ip,
                     name=name or algebra.name)


# ---------------------------------------------------------------------------
# Casimir data


@dataclass
class CasimirData:
    """Casimir operator of the isotropy action and per-summand constants."""

    operator: np.ndarray          # (M, M) over the m-basis
    constants: tuple              # one scalar per summand
    deviation: float              # max departure from blockwise scalar
    a_gram: np.ndarray            # A(Z_i, Z_j) = <C Z_i, Z_j>


def casimir(space: ReductiveSpace, q_k: np.ndarray | None = None) -> CasimirData:
    """Casimir operator on m from dual bases of k with respect to q_k.

    ``q_k`` is a gram matrix over the space's (orthonormalized) k-basis;
    the default is the restriction of the space inner product, i.e. the
    identity.  Constants are mean diagonal entries per summand.
    """
    if q_k is None:
        qinv = np.eye(space.dim_k)
    else:
        q_k = np.asarray(q_k, dtype=float)
        if np.abs(np.linalg.det(q_k)) < 1e-14:
            raise ReductiveError("q_k is degenerate on k")
        qinv = np.linalg.inv(q_k)
    adk = space.adk
    # -qinv rather than a negated product: an empty k gives +0.0, not -0.0
    op = np.tensordot(adk, np.tensordot(-qinv, adk, (1, 0)), ((0, 2), (0, 1)))
    constants = []
    deviation = 0.0
    for sl in space.summand_slices():
        block = op[sl, sl]
        cas = float(np.trace(block) / max(1, block.shape[0]))
        constants.append(cas)
        deviation = max(deviation, float(np.abs(block - cas * np.eye(block.shape[0])).max()))
    # off-summand blocks must vanish
    idx = space.summand_index()
    off = op[idx[:, None] != idx[None, :]]
    if off.size:
        deviation = max(deviation, float(np.abs(off).max()))
    a_gram = op.T.copy()
    return CasimirData(op, tuple(constants), deviation, a_gram)


# ---------------------------------------------------------------------------
# isotropy splitting


def center_of_k(space: ReductiveSpace) -> np.ndarray:
    """Central elements of k as rows of k-coordinates."""
    if space.dim_k == 0:
        return np.zeros((0, 0))
    system = space.k_structure.transpose(1, 2, 0).reshape(-1, space.dim_k)
    return nullspace(system)


def _cluster_eigh(op: np.ndarray, gap: float):
    """Eigenvectors of a symmetric operator grouped by eigenvalue clusters."""
    vals, vecs = np.linalg.eigh(0.5 * (op + op.T))
    blocks = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > gap:
            blocks.append(vecs[:, start:i].T)
            start = i
    return blocks


def _inclusion_residuals(space: ReductiveSpace) -> dict:
    """Residuals of the four two-summand bracket inclusions."""
    if len(space.summands) != 2:
        raise ReductiveError("inclusion check requires exactly two summands")
    s1, s2 = space.summand_slices()
    bm, bk, adk = space.bm, space.bk, space.adk
    res = {}
    # [k, m_i] in m_i
    res["k_mi_in_mi"] = max(_max_abs(adk[:, s2, s1]), _max_abs(adk[:, s1, s2]))
    # [m1, m1] in k + m2
    res["m1_m1_in_k_m2"] = _max_abs(bm[s1, s1, s1])
    # [m1, m2] in m1
    res["m1_m2_in_m1"] = max(_max_abs(bm[s1, s2, s2]), _max_abs(bk[s1, s2, :]))
    # [m2, m2] in k
    res["m2_m2_in_k"] = _max_abs(bm[s2, s2, :])
    return res


def check_inclusions(space: ReductiveSpace, tol: float = 1e-8) -> dict:
    """Per-inclusion residuals and booleans for a two-summand space."""
    res = _inclusion_residuals(space)
    out = {key: {"residual": val, "ok": bool(val < tol)} for key, val in res.items()}
    out["ok"] = bool(all(v["ok"] for v in out.values() if isinstance(v, dict)))
    return out


def split_isotropy(space: ReductiveSpace, gap: float = 1e-6,
                   tol: float = 1e-8) -> ReductiveSpace:
    """Split m into isotropy summands and return a reordered space.

    Eigenspaces of the Casimir operator are refined by the squared action
    of the centre of k (which separates summands with equal Casimir
    constants, e.g. on Killing-Einstein flag spaces).  For two summands
    the order is fixed so that [m2, m2] lies in k.  Raises when the
    spectra do not separate an ad(k)-stable split.
    """
    if space.dim_m == 0:
        raise ReductiveError("cannot split an empty complement")
    operators = [casimir(space).operator]
    for z in center_of_k(space):
        adz = np.einsum("a,aij->ij", z, space.adk)
        operators.append(-adz @ adz)
    blocks = [np.eye(space.dim_m)]
    for op in operators:
        refined = []
        for blk in blocks:
            sub = blk @ op @ blk.T
            for piece in _cluster_eigh(sub, gap):
                refined.append(piece @ blk)
        blocks = refined
    # verify each block is ad(k)-stable
    for blk in blocks:
        if _max_abs(nullspace(blk) @ space.adk @ blk.T) > max(tol, 1e-7):
            raise ReductiveError(
                "isotropy spectra do not separate ad(k)-stable summands; "
                "supply the split explicitly"
            )
    blocks.sort(key=lambda b: -b.shape[0])
    if len(blocks) == 2:
        blocks = _order_two_summands(space, blocks, tol)
    new_m = np.vstack([blk @ space.m_basis for blk in blocks])
    bounds = np.cumsum([0] + [b.shape[0] for b in blocks])
    summands = tuple((int(bounds[i]), int(bounds[i + 1])) for i in range(len(blocks)))
    return ReductiveSpace(algebra=space.algebra, ip=space.ip, k_basis=space.k_basis,
                          m_basis=new_m, summands=summands, name=space.name)


def _order_two_summands(space: ReductiveSpace, blocks, tol: float):
    """Pick the (m1, m2) assignment satisfying the bracket inclusions."""
    best = None
    for order in ([0, 1], [1, 0]):
        m_new = np.vstack([blocks[order[0]] @ space.m_basis,
                           blocks[order[1]] @ space.m_basis])
        d1 = blocks[order[0]].shape[0]
        trial = ReductiveSpace(algebra=space.algebra, ip=space.ip,
                               k_basis=space.k_basis, m_basis=m_new,
                               summands=((0, d1), (d1, space.dim_m)),
                               name=space.name)
        res = _inclusion_residuals(trial)
        worst = max(res.values())
        if best is None or worst < best[0]:
            best = (worst, order)
    if best[0] > max(tol, 1e-7):
        raise ReductiveError(
            f"no summand ordering satisfies the bracket inclusions "
            f"(best residual {best[0]:.3e})"
        )
    return [blocks[i] for i in best[1]]


# ---------------------------------------------------------------------------
# structural identities


def verify_use1(space: ReductiveSpace, q_k: np.ndarray | None = None) -> dict:
    """Residuals of the Casimir trace identities on m.

    Checks A(X,Y) = sum_j q_k([X,Z_j]_k, [Y,Z_j]_k) against the operator
    form, and -K(X,Y) = sum_i <[X,Z_i]_m, [Y,Z_i]_m> + 2A(X,Y), over all
    m-basis pairs.
    """
    cas = casimir(space, q_k=q_k)
    q = np.eye(space.dim_k) if q_k is None else np.asarray(q_k, dtype=float)
    a_sum = np.tensordot(space.bk @ q, space.bk, ((1, 2), (1, 2)))
    m_sum = np.tensordot(space.bm, space.bm, ((1, 2), (1, 2)))
    return {"a_identity": _max_abs(cas.a_gram - a_sum),
            "b_identity": _max_abs(space.b_form - m_sum - 2.0 * cas.a_gram)}


def frame_sigma(space: ReductiveSpace, metric: MetricSpec) -> np.ndarray:
    """Per-m-index scale factors sqrt(scale) of the metric frame."""
    if len(metric.scales) != space.nsummands:
        raise ReductiveError(
            f"metric has {len(metric.scales)} scales for {space.nsummands} summands"
        )
    sigma = np.empty(space.dim_m)
    for s, sl in zip(metric.scales, space.summand_slices()):
        sigma[sl] = np.sqrt(s)
    return sigma


def frame_rescale(table: np.ndarray, r: np.ndarray) -> np.ndarray:
    """table[a, b, c] * r[c] / (r[a] r[b]): a bracket-type table moved to
    the frame whose vectors are the old ones divided by r."""
    inv = 1.0 / r
    return table * inv[:, None, None] * inv[None, :, None] * r


def frame_tables(space: ReductiveSpace, metric: MetricSpec):
    """Bracket tables in the metric-orthonormal frame E_a = Z_a / sigma_a.

    Returns (bm_f, bk_f, adk_f, sigma) where bm_f[a,b,c] are frame
    coefficients of [E_a,E_b]_m, bk_f[a,b,:] the k-coefficients of
    [E_a,E_b]_k, and adk_f[w] the frame matrix of ad(k_w) on m.
    """
    sigma = frame_sigma(space, metric)
    inv = 1.0 / sigma
    bm_f = frame_rescale(space.bm, sigma)
    bk_f = space.bk * np.outer(inv, inv)[:, :, None]
    adk_f = space.adk * np.outer(sigma, inv)
    return bm_f, bk_f, adk_f, sigma
