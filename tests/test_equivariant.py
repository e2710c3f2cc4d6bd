import numpy as np
import pytest

from redhom import catalog
from redhom.equivariant import (
    SOLVE_BUDGET_BYTES,
    RankAmbiguityError,
    SolveTooLargeError,
    certify_bracket_span,
    group_spot_check,
    hom_dimension,
    solve_bytes,
)


def test_s7_one_dimensional(sphere_s7):
    res = hom_dimension(sphere_s7)
    assert res.dimension == 1
    assert res.skew_dim == 1 and res.sym_dim == 0
    assert res.gap >= 1e3


def test_s6_two_dimensional(sphere_s6):
    res = hom_dimension(sphere_s6)
    assert res.dimension == 2
    assert res.skew_dim == 2 and res.sym_dim == 0
    assert res.gap >= 1e3


def test_s4_zero_dimensional(sphere_s4):
    res = hom_dimension(sphere_s4)
    assert res.dimension == 0
    assert res.gap >= 1e3


def test_solutions_satisfy_equivariance(sphere_s6):
    res = hom_dimension(sphere_s6)
    adk = sphere_s6.adk
    for eta in res.basis:
        for a in range(adk.shape[0]):
            ad = adk[a]
            defect = (
                np.einsum("dc,abc->abd", ad, eta)
                - np.einsum("ca,cbd->abd", ad, eta)
                - np.einsum("cb,acd->abd", ad, eta)
            )
            assert np.abs(defect).max() < 1e-9


def test_bracket_certification(sphere_s6, sphere_s7):
    for sp in (sphere_s6, sphere_s7):
        res = hom_dimension(sp)
        cert = certify_bracket_span(res, sp)
        assert cert["ok"], cert


def test_zero_map_trivially_certified(sphere_s4):
    # on the symmetric space the bracket map is itself zero
    res = hom_dimension(sphere_s4)
    cert = certify_bracket_span(res, sphere_s4)
    assert cert["ok"]
    assert np.abs(sphere_s4.bm).max() < 1e-12


def test_group_level_spot_check(sphere_s6, sphere_s7):
    for sp in (sphere_s6, sphere_s7):
        res = hom_dimension(sp)
        assert group_spot_check(res, sp, samples=10, seed=0) < 1e-6


def test_lie_group_case_returns_everything(su2_group):
    res = hom_dimension(su2_group)
    assert res.dimension == 27


def test_oversized_solve_is_refused_before_building(sphere_s7):
    assert solve_bytes(sphere_s7) == 8 * 4802 * (4802 + 343) < SOLVE_BUDGET_BYTES
    # 3.1 GiB of dense system and SVD factor: refused from its size alone
    space = catalog.build_space("flag-B(3,2)")
    with pytest.raises(SolveTooLargeError, match="flag-B"):
        hom_dimension(space)
