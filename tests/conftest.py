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
