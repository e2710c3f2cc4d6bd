"""Reductive decompositions g = k + m, isotropy splits and Casimir data.

A ReductiveSpace stores an algebra together with an orthonormalized
subalgebra basis and complement basis; the complement may carry an
ordered two-summand split.  Immutability is enforced: instances are
frozen, and their bases and cached bracket tables are read-only arrays.
All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .liealg import (
    InnerProduct,
    LieAlgebra,
    _read_only,
    gram_schmidt,
    negative_killing,
    nullspace,
)
from .tolerances import TOL


class ReductiveError(ValueError):
    """Invalid reductive decomposition or isotropy split."""


def _max_abs(a: np.ndarray) -> float:
    return float(np.abs(a).max(initial=0.0))


@dataclass(frozen=True)
class MetricSpec:
    """Per-summand positive scales of an invariant metric.

    The metric is sum_i scales[i] * ip restricted to the i-th summand.
    For a two-summand space the family (1, 2t) is the usual one; t = 1/2
    gives the Killing-type metric with all scales equal to 1.  Frozen, as
    the tables cached on a ``NomizuMap`` depend on its metric.
    """

    scales: tuple = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
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
        """[Z_a, Z_b] as algebra coefficient vectors, shape (M, M, dim g).

        The package never caches it: ``bm``, ``bk`` and ``validate`` read
        it when something already did, and otherwise use a transient table.
        """
        return _read_only(self.algebra.brackets(self.m_basis, self.m_basis))

    def _bracket_vectors(self) -> np.ndarray:
        """The cached ``m_bracket_vectors`` if any, else a transient table."""
        vecs = vars(self).get("m_bracket_vectors")
        if vecs is None:
            vecs = self.algebra.brackets(self.m_basis, self.m_basis)
        return vecs

    def _bracket_parts(self, vecs: np.ndarray) -> tuple:
        """(bm, bk) read off the bracket table ``vecs``.

        bm is antisymmetrized, (raw - raw[b,a,c]) / 2, so that
        bm[a,b,c] == -bm[b,a,c] holds bit for bit.
        """
        raw = vecs @ (self.ip.gram @ self.m_basis.T)
        bm = raw - raw.transpose(1, 0, 2)
        bm *= 0.5
        return _read_only(bm), _read_only(vecs @ (self.ip.gram @ self.k_basis.T))

    @cached_property
    def _m_bracket_parts(self) -> tuple:
        """(bm, bk) from one bracket table, ``_bracket_vectors``."""
        return self._bracket_parts(self._bracket_vectors())

    @cached_property
    def bm(self) -> np.ndarray:
        """m-part coefficients of [Z_a, Z_b] over the m-basis, exactly
        antisymmetric in (a, b)."""
        return self._m_bracket_parts[0]

    @cached_property
    def bk(self) -> np.ndarray:
        """k-part coefficients of [Z_a, Z_b] over the k-basis."""
        return self._m_bracket_parts[1]

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

    # -- cached per-space invariants (built on first use, then shared) --------

    @cached_property
    def casimir_data(self) -> "CasimirData":
        """Casimir data of the isotropy action; see ``casimir``."""
        return _casimir_data(self)

    @cached_property
    def inclusion_residuals(self):
        """Read-only residuals of the four two-summand bracket inclusions."""
        return MappingProxyType(_inclusion_residuals(self))

    @cached_property
    def bracket_sums(self) -> "BracketSums":
        """Bracket contractions of the two-summand closed forms."""
        return _bracket_sums(self)

    @cached_property
    def isotropy_pairs(self) -> np.ndarray:
        """Read-only P[s,x,y] = sum_{i in m_s} sum_w bk[x,i,w] adk[w,y,i].

        Shape (nsummands, M, M), from ``bk`` and ``adk`` alone.  In a frame
        E_a = Z_a / sigma_a with sigma constant on each summand, the pairing
        sum_{i,w} bk_f[x,i,w] adk_f[w,y,i] of the frame tables equals
        (sigma_y / sigma_x) sum_s P[s,x,y] / sigma_s^2.
        """
        return _isotropy_pairs(self)

    def validate(self, tol: float = TOL.valid) -> dict:
        """Residuals of the reductive-space invariants.

        The bracket tables of the split row are the cached ones when
        something already read them, else transient: the check leaves no
        M^2 dim g table on a space that may be thrown away, such as the
        unsplit space of a flag build.
        """
        g = self.ip.gram
        k, m = self.k_basis, self.m_basis
        res = {
            "m_orthonormal": _max_abs(m @ g @ m.T - np.eye(self.dim_m)),
            "k_m_orthogonal": _max_abs(k @ g @ m.T),
            # [k, k] and [k, m] must be rebuilt by their k- and m-parts
            "k_closed": _max_abs(self.algebra.brackets(k, k) - self.k_structure @ k),
            "k_m_in_m": _max_abs(self.algebra.brackets(k, m)
                                 - self.adk.transpose(0, 2, 1) @ m),
        }
        # [Z_a, Z_b] must decompose exactly into k- and m-parts: the defect
        # (vecs - bm m) - bk k, formed in one buffer
        vecs = self._bracket_vectors()
        bm, bk = vars(self).get("_m_bracket_parts") or self._bracket_parts(vecs)
        split = bm @ m
        np.subtract(vecs, split, out=split)
        del vecs, bm
        split -= bk @ k
        res["m_bracket_split"] = _max_abs(split)
        res["ok"] = bool(max(res.values()) < tol)
        return res


def decompose(algebra: LieAlgebra, k_basis, ip: InnerProduct | None = None,
              name: str = "") -> ReductiveSpace:
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
    report = space.validate()
    if not report["ok"]:
        bad = {k: v for k, v in report.items() if k != "ok"}
        raise ReductiveError(f"decomposition of {space.name} failed: {bad}")
    return space


def assemble(algebra: LieAlgebra, k_basis, m_basis, ip: InnerProduct,
             summands=(), name: str = "") -> ReductiveSpace:
    """Build a space from pinned bases, validating instead of recomputing."""
    space = ReductiveSpace(
        algebra=algebra, ip=ip,
        k_basis=np.asarray(k_basis, dtype=float).reshape(-1, algebra.dim),
        m_basis=np.asarray(m_basis, dtype=float).reshape(-1, algebra.dim),
        summands=tuple(tuple(s) for s in summands), name=name or algebra.name,
    )
    report = space.validate()
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


@dataclass(frozen=True)
class CasimirData:
    """Casimir operator of the isotropy action and per-summand constants."""

    operator: np.ndarray          # (M, M) over the m-basis, read-only
    constants: tuple              # one scalar per summand
    deviation: float              # max departure from blockwise scalar
    a_gram: np.ndarray            # A(Z_i, Z_j) = <C Z_i, Z_j>, read-only


def casimir(space: ReductiveSpace) -> CasimirData:
    """Casimir operator on m from dual bases of k with respect to ``ip``.

    ``ip`` is the bi-invariant form that defines the normal metric, so the
    k-basis is its own dual basis.  The space computes the data once.
    Constants are mean diagonal entries per summand.
    """
    return space.casimir_data


def _casimir_data(space: ReductiveSpace) -> CasimirData:
    """The Casimir data behind ``ReductiveSpace.casimir_data``."""
    adk = space.adk
    # a negated factor rather than a negated product: an empty k gives +0.0
    op = np.tensordot(adk, np.negative(adk), ((0, 2), (0, 1)))
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
    return CasimirData(_read_only(op), tuple(constants), deviation,
                       _read_only(op.T.copy()))


@dataclass(frozen=True)
class BracketSums:
    """Bracket contractions of a two-summand space m = m1 + m2, read-only.

    Over the ip-orthonormal basis {X_i} of m1 and {Y_k} of m2:
    w1[x,y] = sum_i <[[X_x, X_i]_{m2}, X_i], X_y>,
    w2[x,y] = sum_k <[[X_x, Y_k], Y_k], X_y>,
    w3[x,y] = sum_i <[[Y_x, X_i], X_i]_{m2}, Y_y>, and the per-vector norm
    sums p_j = sum |[X_j, X_i]_{m2}|^2, q_j = sum |[X_j, Y_k]|^2 over m1,
    r_l = sum |[Y_l, X_i]|^2 over m2.
    """

    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    p: np.ndarray
    q: np.ndarray
    r: np.ndarray


def _bracket_sums(space: ReductiveSpace) -> BracketSums:
    """The contractions behind ``ReductiveSpace.bracket_sums``."""
    if len(space.summands) != 2:
        raise ReductiveError("the closed forms need exactly two summands")
    s1, s2 = space.summand_slices()
    bm = space.bm
    sums = (
        np.tensordot(bm[s1, s1, s2], bm[s2, s1, s1], ([1, 2], [1, 0])),
        np.tensordot(bm[s1, s2, :], bm[:, s2, s1], ([1, 2], [1, 0])),
        np.tensordot(bm[s2, s1, s1], bm[s1, s1, s2], ([1, 2], [1, 0])),
        (bm[s1, s1, s2] ** 2).sum(axis=(1, 2)),
        (bm[s1, s2, :] ** 2).sum(axis=(1, 2)),
        (bm[s2, s1, :] ** 2).sum(axis=(1, 2)),
    )
    return BracketSums(*(_read_only(a) for a in sums))


def _isotropy_pairs(space: ReductiveSpace) -> np.ndarray:
    """The per-summand pairings behind ``ReductiveSpace.isotropy_pairs``."""
    bk, adk = space.bk, space.adk
    pairs = [np.tensordot(bk[:, sl], adk[:, :, sl], ([1, 2], [2, 0]))
             for sl in space.summand_slices()]
    return _read_only(np.stack(pairs))


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


def _inclusion_residuals(space: ReductiveSpace, swap: bool = False) -> dict:
    """Residuals of the four two-summand bracket inclusions; with ``swap``
    those of the order (m2, m1), read off the same tables."""
    if len(space.summands) != 2:
        raise ReductiveError("inclusion check requires exactly two summands")
    s1, s2 = space.summand_slices()[::-1] if swap else space.summand_slices()
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


def check_inclusions(space: ReductiveSpace) -> dict:
    """Per-inclusion residuals and booleans for a two-summand space."""
    res = space.inclusion_residuals
    out = {key: {"residual": val, "ok": bool(val < TOL.inclusions)} for key, val in res.items()}
    out["ok"] = bool(all(v["ok"] for v in out.values() if isinstance(v, dict)))
    return out


def split_isotropy(space: ReductiveSpace) -> ReductiveSpace:
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
            for piece in _cluster_eigh(sub, TOL.cluster_gap):
                refined.append(piece @ blk)
        blocks = refined
    # verify each block is ad(k)-stable
    for blk in blocks:
        if _max_abs(nullspace(blk) @ space.adk @ blk.T) > TOL.summand_stable:
            raise ReductiveError(
                "isotropy spectra do not separate ad(k)-stable summands; "
                "supply the split explicitly"
            )
    blocks.sort(key=lambda b: -b.shape[0])
    if len(blocks) == 2:
        blocks = _order_two_summands(space, blocks)
    new_m = np.vstack([blk @ space.m_basis for blk in blocks])
    bounds = np.cumsum([0] + [b.shape[0] for b in blocks])
    summands = tuple((int(bounds[i]), int(bounds[i + 1])) for i in range(len(blocks)))
    return ReductiveSpace(algebra=space.algebra, ip=space.ip, k_basis=space.k_basis,
                          m_basis=new_m, summands=summands, name=space.name)


def _order_two_summands(space: ReductiveSpace, blocks):
    """Pick the (m1, m2) assignment satisfying the bracket inclusions.

    Both orders are scored on the tables of one trial space, the second
    with its summand slices swapped.
    """
    d1 = blocks[0].shape[0]
    trial = ReductiveSpace(algebra=space.algebra, ip=space.ip, k_basis=space.k_basis,
                           m_basis=np.vstack([blk @ space.m_basis for blk in blocks]),
                           summands=((0, d1), (d1, space.dim_m)), name=space.name)
    best = None
    for order in ([0, 1], [1, 0]):
        worst = max(_inclusion_residuals(trial, swap=order[0] == 1).values())
        if best is None or worst < best[0]:
            best = (worst, order)
    if best[0] > TOL.summand_order:
        raise ReductiveError(
            f"no summand ordering satisfies the bracket inclusions "
            f"(best residual {best[0]:.3e})"
        )
    return [blocks[i] for i in best[1]]


# ---------------------------------------------------------------------------
# structural identities


def verify_use1(space: ReductiveSpace) -> dict:
    """Residuals of the Casimir trace identities on m.

    Checks A(X,Y) = sum_j <[X,Z_j]_k, [Y,Z_j]_k> against the operator
    form, and -K(X,Y) = sum_i <[X,Z_i]_m, [Y,Z_i]_m> + 2A(X,Y), over all
    m-basis pairs.
    """
    cas = casimir(space)
    # two buffers, so that both sides are general products: numpy would turn
    # one buffer times its own transpose into a symmetric rank-k update
    a_sum = np.tensordot(space.bk.copy(), space.bk, ((1, 2), (1, 2)))
    m_sum = np.tensordot(space.bm, space.bm, ((1, 2), (1, 2)))
    return {"a_identity": _max_abs(cas.a_gram - a_sum),
            "b_identity": _max_abs(space.b_form - m_sum - 2.0 * cas.a_gram)}


def summand_sigma(space: ReductiveSpace, metric: MetricSpec) -> np.ndarray:
    """Per-summand scale factors sqrt(scale) of the metric frame."""
    if len(metric.scales) != space.nsummands:
        raise ReductiveError(
            f"metric has {len(metric.scales)} scales for {space.nsummands} summands"
        )
    return np.sqrt(metric.scales)


def frame_sigma(space: ReductiveSpace, metric: MetricSpec) -> np.ndarray:
    """Per-m-index scale factors sqrt(scale) of the metric frame."""
    return np.repeat(summand_sigma(space, metric), space.summand_dims)


def rescale_factors(r: np.ndarray) -> np.ndarray:
    """f[a,b,c] = r[c] / (r[a] r[b]) over summand triples: the factor that
    moves a bracket-type table to the frame whose vectors are the old ones
    divided by the per-summand r."""
    return r[None, None, :] / np.multiply.outer(r, r)[:, :, None]


def scale_blocks(space: ReductiveSpace, table: np.ndarray,
                 factors: np.ndarray) -> np.ndarray:
    """table[A,B,C] * factors[a,b,c] on each summand-triple block (A,B,C).

    One pass over the table: the rows of summand a are multiplied at once
    by the (M, M) matrix that spreads factors[a] over the (b, c) blocks.
    """
    dims = space.summand_dims
    spread = np.repeat(np.repeat(factors, dims, axis=1), dims, axis=2)
    out = np.empty_like(table)
    for a, sa in enumerate(space.summand_slices()):
        np.multiply(table[sa], spread[a], out=out[sa])
    return out


def frame_bracket(space: ReductiveSpace, metric: MetricSpec) -> np.ndarray:
    """bm_f[a,b,c]: frame coefficients of [E_a,E_b]_m, E_a = Z_a / sigma_a."""
    return scale_blocks(space, space.bm, rescale_factors(summand_sigma(space, metric)))


def frame_k_tables(space: ReductiveSpace, metric: MetricSpec):
    """(bk_f, adk_f, sigma): the k-part of ``frame_tables`` without bm_f."""
    sigma = frame_sigma(space, metric)
    inv = 1.0 / sigma
    bk_f = space.bk * np.outer(inv, inv)[:, :, None]
    adk_f = space.adk * np.outer(sigma, inv)
    return bk_f, adk_f, sigma


def frame_tables(space: ReductiveSpace, metric: MetricSpec):
    """Bracket tables in the metric-orthonormal frame E_a = Z_a / sigma_a.

    Returns (bm_f, bk_f, adk_f, sigma) where bm_f[a,b,c] are frame
    coefficients of [E_a,E_b]_m, bk_f[a,b,:] the k-coefficients of
    [E_a,E_b]_k, and adk_f[w] the frame matrix of ad(k_w) on m.
    """
    return (frame_bracket(space, metric), *frame_k_tables(space, metric))
