"""Named homogeneous spaces and the three two-summand flag families.

Space ids: "cp3", "sphere-s4", "sphere-s6", "sphere-s7", "berger",
"lie-group(<name>)" and "flag-B(l,p)" / "flag-C(l,p)" / "flag-D(l,p)".
The flag generators also produce the Killing-Einstein parameter tables.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import liealg
from .liealg import (
    bprime,
    build_g2,
    build_so,
    build_sp,
    build_su,
    build_u,
    negative_killing,
    realify,
    so_pairs,
    stabilizer_subalgebra,
    three_form_stabilizer,
    u_complex_basis,
    vector_annihilator_constraint,
)
from .reductive import (
    ReductiveSpace,
    assemble,
    decompose,
    lie_group_space,
    split_isotropy,
)


class CatalogError(ValueError):
    """Unknown space id or invalid family parameters."""


# family: (smallest p, l - largest p); the smallest l is their sum
_RANGES = {"B": (2, 0), "C": (1, 1), "D": (2, 2)}


def family_ps(family: str, ell: int) -> range:
    """The parabolic parameters p that a family accepts at rank l."""
    pmin, gap = _RANGES[family]
    return range(pmin, ell - gap + 1)


@dataclass(frozen=True)
class FamilySpec:
    """Flag family letter with rank and parabolic parameters."""

    family: str
    ell: int
    p: int

    def __post_init__(self):
        fam = self.family.upper()
        object.__setattr__(self, "family", fam)
        if fam not in _RANGES:
            raise CatalogError(f"unknown family {self.family!r}")
        if self.p not in family_ps(fam, self.ell):
            raise CatalogError(
                f"parameters (l={self.ell}, p={self.p}) out of range for family {fam}"
            )


def family_dims(spec: FamilySpec) -> tuple:
    """Dimensions (d1, d2) of the two isotropy summands."""
    ell, p = spec.ell, spec.p
    if spec.family == "C":
        return 4 * p * (ell - p), p * (p + 1)
    return 4 * p * (ell - p) + 2 * p * (spec.family == "B"), p * (p - 1)


def killing_einstein_p(family: str, ell: int) -> int | None:
    """Integer p making the Killing metric Einstein (d1 = 2d2), if any."""
    family = family.upper()
    num = {"B": 2 * (ell + 1), "C": 2 * ell - 1, "D": 2 * ell + 1}.get(family)
    if num is None:
        raise CatalogError(f"unknown family {family!r}")
    if num % 3 != 0:
        return None
    p = num // 3
    return p if p >= 1 else None


def family_name(family: str, ell: int, p: int) -> str:
    """Group quotient label, omitting trivial factors."""
    if family == "C":
        tail = f"xSp({ell - p})" if ell > p else ""
        return f"Sp({ell})/U({p}){tail}"
    n = 2 * ell + (family == "B")
    tail = f"xSO({n - 2 * p})" if n - 2 * p > 1 else ""
    return f"SO({n})/U({p}){tail}"


def family_table(family: str, lmax: int) -> list:
    """Rows (l, p, name, d1, d2, killing_einstein) of every buildable space, l up to lmax."""
    family = family.upper()
    rows = []
    for ell in range(lmax + 1):
        for p in family_ps(family, ell):
            d1, d2 = family_dims(FamilySpec(family, ell, p))
            rows.append({"family": family, "l": ell, "p": p,
                         "name": family_name(family, ell, p), "d1": d1, "d2": d2,
                         "killing_einstein": killing_einstein_p(family, ell) == p})
    return rows


def killing_einstein_table(family: str, lmax: int) -> list:
    """Rows (l, p, name) with an Einstein Killing metric, l up to lmax.

    Rows follow the published series by divisibility alone, which puts p
    in [1, l - 1] for every l of the family; the D-series opening row has
    p = l - 1, outside the strict build range.
    """
    family = family.upper()
    rows = []
    for ell in range(sum(_RANGES[family]), lmax + 1):
        p = killing_einstein_p(family, ell)
        if p is not None:
            rows.append({"family": family, "l": ell, "p": p,
                         "name": family_name(family, ell, p)})
    return rows


# ---------------------------------------------------------------------------
# pinned example spaces


def _so5_vector(pairs, *terms) -> np.ndarray:
    """Coefficient vector over the so(5) basis from (weight, (i, j)) terms."""
    v = np.zeros(len(pairs))
    for weight, ij in terms:
        v[pairs.index(ij)] = weight
    return v


@lru_cache(maxsize=None)
def build_cp3() -> ReductiveSpace:
    """The twistor space of the 4-sphere with its pinned basis.

    k = u(2) spanned by {k1..k4}, m split into a 4-dim and a 2-dim summand,
    everything orthonormal for the trace form B'.
    """
    so5 = build_so(5)
    pairs = so_pairs(5)
    h = np.sqrt(0.5)
    k_basis = [
        _so5_vector(pairs, (1.0, (1, 2))),
        _so5_vector(pairs, (1.0, (3, 4))),
        _so5_vector(pairs, (h, (1, 3)), (-h, (2, 4))),
        _so5_vector(pairs, (h, (1, 4)), (h, (2, 3))),
    ]
    m_basis = [
        _so5_vector(pairs, (1.0, (1, 5))),
        _so5_vector(pairs, (1.0, (2, 5))),
        _so5_vector(pairs, (1.0, (3, 5))),
        _so5_vector(pairs, (1.0, (4, 5))),
        _so5_vector(pairs, (h, (1, 3)), (h, (2, 4))),
        _so5_vector(pairs, (h, (1, 4)), (-h, (2, 3))),
    ]
    return assemble(so5, k_basis, m_basis, bprime(so5),
                    summands=((0, 4), (4, 6)), name="cp3")


@lru_cache(maxsize=None)
def build_sphere_s4() -> ReductiveSpace:
    """The 4-sphere as a symmetric pair inside so(5)."""
    so5 = build_so(5)
    pairs = so_pairs(5)
    k = [np.eye(len(pairs))[idx] for idx, (i, j) in enumerate(pairs) if j <= 4]
    return decompose(so5, np.array(k), ip=negative_killing(so5), name="sphere-s4")


@lru_cache(maxsize=None)
def build_sphere_s7() -> ReductiveSpace:
    """The 7-sphere over the 3-form stabilizer inside so(7)."""
    so7 = build_so(7)
    return decompose(so7, three_form_stabilizer(), ip=negative_killing(so7),
                     name="sphere-s7")


@lru_cache(maxsize=None)
def build_sphere_s6() -> ReductiveSpace:
    """The 6-sphere over the vector stabilizer inside the exceptional algebra."""
    g2 = build_g2()
    k = stabilizer_subalgebra(
        g2, vector_annihilator_constraint(np.eye(7)[:, 0]), name="su3-in-g2"
    )
    if k.shape[0] != 8:
        raise CatalogError("vector stabilizer is not 8-dimensional")
    return decompose(g2, k, ip=negative_killing(g2), name="sphere-s6")


@lru_cache(maxsize=None)
def build_berger() -> ReductiveSpace:
    """The 7-dimensional Berger space over an irreducibly embedded so(3).

    so(3) acts by conjugation on traceless symmetric 3x3 matrices; the
    images of the rotation generators span the subalgebra inside so(5).
    """
    so5 = build_so(5)
    u = [
        (np.diag([1.0, -1.0, 0.0])) / np.sqrt(2.0),
        (np.diag([1.0, 1.0, -2.0])) / np.sqrt(6.0),
    ]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        m = np.zeros((3, 3))
        m[i, j] = m[j, i] = 1.0
        u.append(m / np.sqrt(2.0))
    gens = []
    for i, j in [(1, 2), (1, 3), (2, 3)]:
        l = np.zeros((3, 3))
        l[i - 1, j - 1], l[j - 1, i - 1] = -1.0, 1.0
        rho = np.array([[np.trace(ua @ (l @ ub - ub @ l)) for ub in u] for ua in u])
        gens.append(so5.coefficients(rho))
    return decompose(so5, np.array(gens), ip=negative_killing(so5), name="berger")


_LIE_GROUPS = {
    "su2": lambda: build_su(2),
    "su3": lambda: build_su(3),
    "so3": lambda: build_so(3),
    "sp2": lambda: build_sp(2),
}


@lru_cache(maxsize=None)
def build_lie_group(name: str) -> ReductiveSpace:
    """A compact group as the k = 0 space with the Killing-form metric."""
    key = name.lower()
    if key.startswith("u") and key[1:].isdigit() and int(key[1:]) > 0:
        alg = build_u(int(key[1:]))
        ip = negative_killing(alg, center_weight=1.0)
    elif key in _LIE_GROUPS:
        alg = _LIE_GROUPS[key]()
        ip = negative_killing(alg)
    else:
        raise CatalogError(f"unknown Lie group {name!r}")
    return lie_group_space(alg, ip=ip, name=f"lie-group({key})")


# ---------------------------------------------------------------------------
# flag family builders


def _embed_block(mat: np.ndarray, total: int, offset: int) -> np.ndarray:
    out = np.zeros((total, total), dtype=mat.dtype)
    n = mat.shape[0]
    out[offset:offset + n, offset:offset + n] = mat
    return out


@lru_cache(maxsize=None)
def build_flag(family: str, ell: int, p: int) -> ReductiveSpace:
    """Two-summand flag space of a classical group, split and ordered.

    The unitary factor is realified into the leading block; the orthogonal
    or symplectic factor sits in the trailing block.  The isotropy split
    is found spectrally and validated against the closed-form dimensions.
    """
    spec = FamilySpec(family, ell, p)
    d1, d2 = family_dims(spec)
    if spec.family == "C":
        ambient = build_sp(ell)
        zero = np.zeros((ell, ell), dtype=complex)
        # u(p) as Z1 = diag(A, 0), Z2 = 0, then sp(l - p) in the trailing block
        blocks = [(_embed_block(z, ell, 0), zero) for z in u_complex_basis(p)]
        blocks += [(_embed_block(z1, ell, p), _embed_block(z2, ell, p))
                   for z1, z2 in liealg._sp_blocks(ell - p)]
        k_mats = [realify(liealg._sp_embed(z1, z2)) for z1, z2 in blocks]
    else:
        n = 2 * ell + (spec.family == "B")
        ambient = build_so(n)
        rest = n - 2 * p
        k_mats = [_embed_block(realify(z), n, 0) for z in u_complex_basis(p)]
        k_mats += [_embed_block(liealg._e_skew(rest, i, j), n, 2 * p)
                   for i, j in so_pairs(rest)]
    k_basis = np.array([ambient.coefficients(m) for m in k_mats])
    space = decompose(ambient, k_basis, ip=negative_killing(ambient),
                      name=f"flag-{spec.family}({ell},{p})")
    space = split_isotropy(space)
    if space.summand_dims != (d1, d2):
        raise CatalogError(
            f"flag-{spec.family}({ell},{p}): isotropy split {space.summand_dims} "
            f"does not match the family dimensions {(d1, d2)}"
        )
    return space


# ---------------------------------------------------------------------------
# descriptor registry and id parsing


@dataclass(frozen=True)
class SpaceDescriptor:
    """Catalog entry resolvable to a reductive space.

    ``expected`` is a read-only copy: ``parse_id`` hands out shared entries.
    """

    id: str
    family: str
    params: tuple = ()
    expected: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "expected", MappingProxyType(dict(self.expected)))


_NAMED = {
    "cp3": SpaceDescriptor("cp3", "cp3", expected={"dims": (4, 2)}),
    "sphere-s4": SpaceDescriptor("sphere-s4", "sphere-s4", expected={"dims": (4,)}),
    "sphere-s6": SpaceDescriptor("sphere-s6", "sphere-s6", expected={"dims": (6,)}),
    "sphere-s7": SpaceDescriptor("sphere-s7", "sphere-s7", expected={"dims": (7,)}),
    "berger": SpaceDescriptor("berger", "berger", expected={"dims": (7,)}),
}

_FLAG_RE = re.compile(r"^flag-([BCD])\((\d+),(\d+)\)$")
_GROUP_RE = re.compile(r"^lie-group\((\w+)\)$")


def parse_id(space_id: str) -> SpaceDescriptor:
    """Resolve a space id string to a descriptor."""
    sid = space_id.strip()
    if sid in _NAMED:
        return _NAMED[sid]
    m = _FLAG_RE.match(sid)
    if m:
        fam, ell, p = m.group(1), int(m.group(2)), int(m.group(3))
        spec = FamilySpec(fam, ell, p)
        ke = killing_einstein_p(fam, ell) == p
        return SpaceDescriptor(sid, f"flag-{fam}", (ell, p),
                               expected={"dims": family_dims(spec), "cas_equal": ke})
    m = _GROUP_RE.match(sid)
    if m:
        return SpaceDescriptor(sid, "lie-group", (m.group(1),))
    raise CatalogError(f"unknown space id {space_id!r}")


def build_space(descriptor) -> ReductiveSpace:
    """Build and validate the reductive space of a descriptor or id string."""
    if isinstance(descriptor, str):
        descriptor = parse_id(descriptor)
    builders = {
        "cp3": build_cp3,
        "sphere-s4": build_sphere_s4,
        "sphere-s6": build_sphere_s6,
        "sphere-s7": build_sphere_s7,
        "berger": build_berger,
    }
    if descriptor.family in builders:
        space = builders[descriptor.family]()
    elif descriptor.family.startswith("flag-"):
        space = build_flag(descriptor.family[-1], *descriptor.params)
    elif descriptor.family == "lie-group":
        space = build_lie_group(descriptor.params[0])
    else:
        raise CatalogError(f"no builder for {descriptor.id!r}")
    expected_dims = descriptor.expected.get("dims")
    if expected_dims and space.summand_dims != tuple(expected_dims):
        raise CatalogError(
            f"{descriptor.id}: built dims {space.summand_dims} != expected {expected_dims}"
        )
    return space


def known_ids() -> list:
    """Named catalog ids (the flag and group generators accept parameters)."""
    return sorted(_NAMED) + ["lie-group(su2)", "lie-group(su3)",
                             "flag-B(5,4)", "flag-C(5,3)", "flag-D(6,4)"]
