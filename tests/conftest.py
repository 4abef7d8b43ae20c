import pytest

from cayleyac.dehn import measure_quasi_constants
from cayleyac.explorer import build_ball
from cayleyac.extensions import CentralExtension
from cayleyac.finite_ext import FiniteNilExtension, klein_bottle_config, s2222_config
from cayleyac.nil import NilGenSet, NilGroup
from cayleyac.surface import SurfaceGroup
from cayleyac.triangle import TriangleGroup


@pytest.fixture(scope="session")
def surface2():
    return SurfaceGroup(2)


@pytest.fixture(scope="session")
def surface_ball5(surface2):
    return build_ball(surface2, 5)


@pytest.fixture(scope="session")
def surface_quasi(surface2, surface_ball5):
    q4 = measure_quasi_constants(surface2, surface2.dehn, surface_ball5, 4,
                                 samples=200, seed=7)
    q5 = measure_quasi_constants(surface2, surface2.dehn, surface_ball5, 5,
                                 samples=200, seed=7)
    return q4, q5


@pytest.fixture(scope="session")
def triangle237():
    return TriangleGroup(2, 3, 7)


@pytest.fixture(scope="session")
def triangle_ball(triangle237):
    return build_ball(triangle237, 8)


@pytest.fixture(scope="session")
def triangle_dehn(triangle237):
    return triangle237.dehn


@pytest.fixture(scope="session")
def genus2_ext(surface2, surface_quasi):
    _, q5 = surface_quasi
    return CentralExtension(surface2, {surface2.relator: (1,)}, rank=1, quasi=q5)


@pytest.fixture(scope="session")
def ext_ball6(genus2_ext):
    return build_ball(genus2_ext, 6)


@pytest.fixture(scope="session")
def klein():
    return FiniteNilExtension(klein_bottle_config())


@pytest.fixture(scope="session")
def s2222():
    return FiniteNilExtension(s2222_config())


@pytest.fixture(scope="session")
def nil_xy():
    return NilGroup(1, NilGenSet("square", include_z=False))


@pytest.fixture(scope="session")
def nil_xy_ball12(nil_xy):
    return build_ball(nil_xy, 12)


@pytest.fixture(scope="session")
def nil_hex():
    return NilGroup(1, NilGenSet("hexagonal", include_z=False))


@pytest.fixture(scope="session")
def nil_hex_ball12(nil_hex):
    return build_ball(nil_hex, 12)
