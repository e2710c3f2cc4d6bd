import numpy as np
import pytest

from redhom import catalog


@pytest.fixture(scope="session")
def cp3():
    return catalog.build_cp3()


@pytest.fixture(scope="session")
def sphere_s4():
    return catalog.build_sphere_s4()


@pytest.fixture(scope="session")
def sphere_s6():
    return catalog.build_sphere_s6()


@pytest.fixture(scope="session")
def sphere_s7():
    return catalog.build_sphere_s7()


@pytest.fixture(scope="session")
def berger():
    return catalog.build_berger()


@pytest.fixture(scope="session")
def su2_group():
    return catalog.build_lie_group("su2")


@pytest.fixture(scope="session")
def su3_group():
    return catalog.build_lie_group("su3")


@pytest.fixture(scope="session")
def flag_c53():
    return catalog.build_flag("C", 5, 3)


@pytest.fixture(scope="session")
def flag_b54():
    return catalog.build_flag("B", 5, 4)


@pytest.fixture(scope="session")
def flag_d64():
    return catalog.build_flag("D", 6, 4)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def dense_view(alg):
    """The (dim, dim, dim) structure tensor of an algebra's stored constants."""
    structure = np.zeros((alg.dim,) * 3)
    structure[tuple(alg.structure_ijk)] = alg.structure_c
    return structure


def algebra_from_dense(name, basis, structure, killing):
    """A ``LieAlgebra`` holding the nonzeros of a dense structure tensor."""
    from redhom.liealg import LieAlgebra

    ijk = np.nonzero(structure)
    return LieAlgebra(name=name, basis=basis, structure_ijk=np.array(ijk),
                      structure_c=structure[ijk], killing=killing)
