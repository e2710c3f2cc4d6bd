"""Homogeneous Einstein equations for two-summand spaces and the
Einstein-with-skew-torsion condition of the canonical family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .reductive import ReductiveSpace, ReductiveError, casimir, check_inclusions
from .curvature import Tensor2, ricci_alpha_closed, ricci_st_closed


@dataclass
class QuadraticReport:
    """Coefficients, roots and diagnostics of an Einstein quadratic."""

    kind: str                     # "riemannian-t" or "skew-s"
    coefficients: tuple           # (a, b, c) of a x^2 + b x + c = 0
    discriminant: float
    roots: tuple                  # ((value, multiplicity), ...)
    spread: float                 # max deviation over basis-vector choices
    flags: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def root_values(self) -> tuple:
        return tuple(r for r, _ in self.roots)

    @property
    def positive_roots(self) -> tuple:
        return tuple(r for r, _ in self.roots if r > 0)


def solve_quadratic(a: float, b: float, c: float):
    """Real roots with multiplicity; handles the degenerate and linear cases."""
    scale = max(abs(a), abs(b), abs(c), 1.0)
    zero = 1e-10 * scale
    if abs(a) < zero:
        if abs(b) < zero:
            return (), 0.0, abs(c) < zero
        return ((-c / b, 1),), 0.0, False
    disc = b * b - 4.0 * a * c
    if abs(disc) < zero * scale:
        return ((-b / (2.0 * a), 2),), disc, False
    if disc < 0:
        return (), disc, False
    sq = math.sqrt(disc)
    r1, r2 = (-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)
    return tuple(sorted([(r1, 1), (r2, 1)])), disc, False


def _quadratic_sums(space: ReductiveSpace) -> tuple:
    """Mean norm sums P, Q, R, the Casimir and the spread of their per-vector values."""
    if len(space.summands) != 2:
        raise ReductiveError("Einstein quadratics need exactly two summands")
    sums = space.bracket_sums
    p, q, r = sums.p, sums.q, sums.r
    cas = casimir(space)
    spread = float(max(np.ptp(p), np.ptp(q), np.ptp(r), cas.deviation))
    if spread > 1e-7:
        raise ReductiveError(
            f"per-vector coefficient spread {spread:.3e} exceeds tolerance; "
            "summands are not irreducible or the split is wrong"
        )
    return float(p.mean()), float(q.mean()), float(r.mean()), cas, spread


def riemannian_quadratic(space: ReductiveSpace) -> QuadraticReport:
    """Einstein quadratic a t^2 + b t + c = 0 of the metric family g_t.

    Coefficients come from the fixed-vector norm sums
    a = -3P + Q - R, b = 2(P + Cas_1), c = -Cas_2; the report carries the
    spread of the per-vector values as an irreducibility diagnostic.
    """
    pm, qm, rm, cas, spread = _quadratic_sums(space)
    incl = check_inclusions(space)
    if not incl["ok"]:
        raise ReductiveError(f"bracket inclusions violated: {incl}")
    cas1, cas2 = cas.constants
    a = -3.0 * pm + qm - rm
    b = 2.0 * (pm + cas1)
    c = -cas2
    roots, disc, identically = solve_quadratic(a, b, c)
    flags = {
        "killing_root": any(abs(r0 - 0.5) < 1e-8 for r0, _ in roots),
        "kahler_root": any(abs(r0 - 1.0) < 1e-8 for r0, _ in roots),
        "identically_satisfied": identically,
    }
    return QuadraticReport("riemannian-t", (a, b, c), disc, roots, spread, flags,
                           extras={"cas1": cas1, "cas2": cas2, "P": pm, "Q": qm, "R": rm})


def solve_skew_quadratic(c_value: float, delta_cas: float) -> QuadraticReport:
    """Roots of c s^2 - 2 c s - 4(Cas_1 - Cas_2) = 0 with degeneracy handling.

    When c vanishes together with the Casimir difference the equation is
    satisfied by every s; the distinguished pair {0, 2} is reported with
    the flags set accordingly.
    """
    tol = 1e-9
    coeffs = (c_value, -2.0 * c_value, -4.0 * delta_cas)
    disc = 4.0 * c_value * (c_value + 4.0 * delta_cas)
    flags = {"degenerate_c": abs(c_value) < tol, "all_s": False,
             "identically_satisfied": False, "no_real_roots": False}
    if abs(c_value) < tol:
        if abs(delta_cas) < tol:
            flags["all_s"] = True
            flags["identically_satisfied"] = True
            roots = ((0.0, 1), (2.0, 1))
        else:
            flags["no_real_roots"] = True
            roots = ()
        return QuadraticReport("skew-s", coeffs, disc, roots, 0.0, flags,
                               extras={"c": c_value, "delta_cas": delta_cas})
    inner = (c_value + 4.0 * delta_cas) / c_value
    if inner < -tol:
        flags["no_real_roots"] = True
        roots = ()
    elif abs(inner) < tol:
        roots = ((1.0, 2),)
    else:
        sq = math.sqrt(inner)
        roots = tuple(sorted([(1.0 - sq, 1), (1.0 + sq, 1)]))
    return QuadraticReport("skew-s", coeffs, disc, roots, 0.0, flags,
                           extras={"c": c_value, "delta_cas": delta_cas})


def skew_einstein_quadratic(space: ReductiveSpace) -> QuadraticReport:
    """Einstein-with-skew-torsion quadratic in s at the Killing metric."""
    pm, qm, rm, cas, spread = _quadratic_sums(space)
    c_value = pm + qm - rm
    delta_cas = cas.constants[0] - cas.constants[1]
    report = solve_skew_quadratic(c_value, delta_cas)
    report.spread = spread
    report.extras.update({"cas1": cas.constants[0], "cas2": cas.constants[1]})
    return report


# ---------------------------------------------------------------------------
# residual checks


def einstein_defect(ric: Tensor2) -> float:
    """Max deviation of a Ricci tensor from (Scal/n) g over its frame."""
    n = ric.components.shape[0]
    return float(np.abs(ric.components - (ric.scalar / n) * np.eye(n)).max())


def riemannian_root_residual(space: ReductiveSpace, t: float) -> float:
    """Einstein defect of g_t: deviation of the Riemannian Ricci from c*g_t."""
    return einstein_defect(ricci_st_closed(space, 1.0, t))


def skew_root_residual(space: ReductiveSpace, s: float) -> float:
    """Einstein defect of nabla^{s,1/2} against the Killing metric."""
    return einstein_defect(ricci_st_closed(space, s, 0.5))


def nabla_alpha_einstein_residual(space: ReductiveSpace, alpha: float) -> float:
    """Max deviation of Ric^alpha from (Scal/n) g on the Killing metric."""
    return einstein_defect(ricci_alpha_closed(space, alpha))


def thm4_identity_residual(space: ReductiveSpace) -> float:
    """Residual of 2n Cas + sum_{ij} |[Z_i,Z_j]_m|^2 - n = 0 (irreducible case)."""
    if space.nsummands != 1:
        raise ReductiveError("identity applies to isotropy-irreducible spaces")
    cas = casimir(space)
    n = space.dim_m
    bracket_sq = float(np.einsum("abc,abc->", space.bm, space.bm))
    return float(abs(2.0 * n * cas.constants[0] + bracket_sq - n))
