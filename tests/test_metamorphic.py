"""Answers that do not depend on the choice of orthonormal basis of m.

Each space is assembled again after a seeded random orthogonal change of
its m-basis inside each isotropy summand.  The Hom dimension with its
skew and symmetric counts, the Casimir constants and the Einstein
quadratics are invariants of the space, so they must come out the same.
"""

import numpy as np
import pytest

from redhom import catalog, einstein, reductive
from redhom.equivariant import certify_bracket_span, group_spot_check, hom_dimension
from redhom.tolerances import TOL

SPACES = ["cp3", "sphere-s6", "sphere-s7", "flag-B(2,2)", "flag-C(5,3)"]


def rotated(space: reductive.ReductiveSpace, seed: int) -> reductive.ReductiveSpace:
    """``space`` with its m-basis turned by a random orthogonal matrix in each summand."""
    rng = np.random.default_rng(seed)
    m_basis = space.m_basis.copy()
    for sl in space.summand_slices():
        q, _ = np.linalg.qr(rng.standard_normal((sl.stop - sl.start,) * 2))
        m_basis[sl] = q @ m_basis[sl]
    return reductive.assemble(space.algebra, space.k_basis, m_basis, space.ip,
                              summands=space.summands, name=space.name)


def assert_relatively_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(want).max()))


@pytest.mark.parametrize("space_id", SPACES)
def test_answers_survive_a_rotation_inside_each_summand(space_id):
    space = catalog.build_space(space_id)
    turned = rotated(space, seed=11)
    assert np.abs(turned.m_basis - space.m_basis).max() > 0.1

    res, res_turned = hom_dimension(space), hom_dimension(turned)
    assert ((res_turned.dimension, res_turned.skew_dim, res_turned.sym_dim)
            == (res.dimension, res.skew_dim, res.sym_dim))
    assert res_turned.gap >= TOL.rank_gap_min
    assert certify_bracket_span(res_turned, turned)["ok"]
    assert group_spot_check(res_turned, turned) < TOL.equivariance

    assert_relatively_close(reductive.casimir(turned).constants,
                            reductive.casimir(space).constants)
    if space.nsummands == 2:
        for quadratic in (einstein.riemannian_quadratic, einstein.skew_einstein_quadratic):
            assert_relatively_close(quadratic(turned).coefficients,
                                    quadratic(space).coefficients)
