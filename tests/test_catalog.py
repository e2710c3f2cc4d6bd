import numpy as np
import pytest

from redhom import catalog
from redhom.catalog import (
    CatalogError,
    FamilySpec,
    build_space,
    family_dims,
    family_name,
    family_table,
    killing_einstein_p,
    killing_einstein_table,
    parse_id,
)
from redhom.reductive import casimir

H = np.sqrt(0.5)

# [e_i, e_j] over (k1..k4, e1..e6); entries follow the twistor bracket table
CP3_TABLE = {
    (0, 1): {0: 1.0},
    (0, 2): {2: H, 8: H},
    (0, 3): {3: H, 9: H},
    (0, 4): {6: -H},
    (0, 5): {7: -H},
    (1, 2): {3: H, 9: -H},
    (1, 3): {2: -H, 8: H},
    (1, 4): {7: -H},
    (1, 5): {6: H},
    (2, 3): {1: 1.0},
    (2, 4): {4: H},
    (2, 5): {5: -H},
    (3, 4): {5: H},
    (3, 5): {4: H},
    (4, 5): {0: -1.0, 1: 1.0},
}


def test_cp3_bracket_table_entrywise(cp3):
    frame = np.vstack([cp3.k_basis, cp3.m_basis])
    for i in range(6):
        for j in range(6):
            coeffs = cp3.algebra.bracket(cp3.m_basis[i], cp3.m_basis[j]) @ frame.T
            expected = np.zeros(10)
            if i < j:
                for idx, val in CP3_TABLE[(i, j)].items():
                    expected[idx] = val
            elif j < i:
                for idx, val in CP3_TABLE[(j, i)].items():
                    expected[idx] = -val
            assert np.abs(coeffs - expected).max() < 1e-12, (i, j)


def test_cp3_restriction_identities(cp3):
    # E_{1,3} restricted to the second summand is H * e5, to k is H * k3
    alg = cp3.algebra
    e13 = np.zeros(10)
    e13[1] = 1.0  # (1,3) is the second lexicographic pair
    m2 = cp3.m_basis[4:]
    k = cp3.k_basis
    m2_part = (e13 @ cp3.ip.gram @ m2.T) @ m2
    k_part = (e13 @ cp3.ip.gram @ k.T) @ k
    assert np.abs(m2_part - H * cp3.m_basis[4]).max() < 1e-12
    assert np.abs(k_part - H * cp3.k_basis[2]).max() < 1e-12


@pytest.mark.parametrize("family,ell,p,d1,d2", [
    ("B", 2, 2, 4, 2),
    ("C", 5, 3, 24, 12),
    ("D", 4, 3 - 1, 4 * 2 * 2, 2),   # D(4,2): d1 = 16, d2 = 2
    ("C", 2, 1, 4, 2),
    ("B", 5, 4, 24, 12),
])
def test_family_dims(family, ell, p, d1, d2):
    assert family_dims(FamilySpec(family, ell, p)) == (d1, d2)


def test_family_spec_ranges():
    with pytest.raises(CatalogError):
        FamilySpec("B", 2, 1)
    with pytest.raises(CatalogError):
        FamilySpec("C", 2, 2)
    with pytest.raises(CatalogError):
        FamilySpec("D", 3, 2)
    with pytest.raises(CatalogError):
        FamilySpec("E", 4, 2)


def test_killing_einstein_p_values():
    assert killing_einstein_p("B", 5) == 4
    assert killing_einstein_p("C", 2) == 1
    assert killing_einstein_p("D", 5) is None
    assert killing_einstein_p("B", 3) is None


def test_killing_einstein_tables_match_published_rows():
    assert [(r["l"], r["p"], r["name"]) for r in killing_einstein_table("B", 10)] == [
        (2, 2, "SO(5)/U(2)"),
        (5, 4, "SO(11)/U(4)xSO(3)"),
        (8, 6, "SO(17)/U(6)xSO(5)"),
    ]
    assert [(r["l"], r["p"], r["name"]) for r in killing_einstein_table("C", 10)] == [
        (2, 1, "Sp(2)/U(1)xSp(1)"),
        (5, 3, "Sp(5)/U(3)xSp(2)"),
        (8, 5, "Sp(8)/U(5)xSp(3)"),
    ]
    assert [(r["l"], r["p"], r["name"]) for r in killing_einstein_table("D", 10)] == [
        (4, 3, "SO(8)/U(3)xSO(2)"),
        (7, 5, "SO(14)/U(5)xSO(4)"),
        (10, 7, "SO(20)/U(7)xSO(6)"),
    ]


@pytest.mark.parametrize("family", ["B", "C", "D"])
def test_family_table_rows_are_the_accepted_parameters(family):
    accepted = []
    for ell in range(11):
        for p in range(ell + 2):
            try:
                FamilySpec(family, ell, p)
            except CatalogError:
                continue
            accepted.append((ell, p))
    assert [(r["l"], r["p"]) for r in family_table(family, 10)] == accepted


def test_family_name_trivial_factors():
    assert family_name("B", 2, 2) == "SO(5)/U(2)"
    assert family_name("C", 2, 2) == "Sp(2)/U(2)"


def test_build_flag_dims_and_casimirs(flag_b54, flag_c53):
    assert flag_b54.summand_dims == (24, 12)
    assert flag_c53.summand_dims == (24, 12)
    for sp in (flag_b54, flag_c53):
        cas = casimir(sp)
        assert abs(cas.constants[0] - cas.constants[1]) < 1e-6
        assert cas.deviation < 1e-8


def test_build_small_flags_match_cp3_dims():
    for fam, ell, p in (("B", 2, 2), ("C", 2, 1)):
        sp = catalog.build_flag(fam, ell, p)
        assert sp.summand_dims == (4, 2)


def test_parse_id_and_build(sphere_s7):
    desc = parse_id("sphere-s7")
    assert build_space(desc) is sphere_s7
    desc = parse_id("flag-C(5,3)")
    assert desc.params == (5, 3)
    assert desc.expected["cas_equal"]
    with pytest.raises(CatalogError):
        parse_id("nope")
    with pytest.raises(CatalogError):
        parse_id("flag-B(2,9)")


def test_build_space_checks_expected_dims(cp3):
    assert build_space("cp3") is cp3
    assert build_space("cp3").summand_dims == (4, 2)


def test_descriptor_expectations_are_read_only(cp3):
    # parse_id hands out the shared registry entry: a write would make every
    # later build_space("cp3") fail its dims check
    with pytest.raises(TypeError):
        parse_id("cp3").expected["dims"] = (5, 1)
    assert parse_id("cp3").expected["dims"] == (4, 2)
    assert build_space("cp3") is cp3


def test_lie_group_ids():
    sp = build_space("lie-group(su2)")
    assert sp.dim_k == 0 and sp.dim_m == 3
    with pytest.raises(CatalogError):
        build_space("lie-group(f4)")


def test_oversized_ambient_algebra_is_refused_from_its_id():
    # the 8 dim^3 byte bound of a bracket table against the 1 GiB budget:
    # so(31), sp(15) and u(22) fit, so(33), sp(16) and u(23) do not
    for sid in ["flag-D(12,8)", "flag-B(15,2)", "flag-C(15,2)", "lie-group(u22)"]:
        assert parse_id(sid).id == sid
    for sid in ["flag-D(20,13)", "flag-B(16,2)", "flag-C(16,2)", "lie-group(u23)",
                "lie-group(U40)"]:
        with pytest.raises(CatalogError, match="bracket table.*GiB"):
            parse_id(sid)
        with pytest.raises(CatalogError, match="bracket table.*GiB"):
            build_space(sid)


def test_known_ids_resolve():
    assert {"flag-B(5,4)", "flag-C(5,3)", "flag-D(6,4)"} <= set(catalog.known_ids())
    for sid in catalog.known_ids():
        desc = parse_id(sid)
        assert desc.id == sid
