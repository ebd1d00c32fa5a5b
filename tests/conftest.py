import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plspines.models import boundary_sphere, named_triangulation
from plspines.partitions import discrete, vertex_partition


@pytest.fixture(scope="session")
def sphere2():
    return boundary_sphere(2)


@pytest.fixture(scope="session")
def sphere3():
    return boundary_sphere(3)


@pytest.fixture(scope="session")
def torus7():
    return named_triangulation("T2_7")


@pytest.fixture(scope="session")
def rp2():
    return named_triangulation("RP2_6")


@pytest.fixture(scope="session")
def equator_partition(sphere2):
    return vertex_partition(sphere2, [["v0", "v1"], ["v2", "v3"]])


@pytest.fixture(scope="session")
def k4_spine(sphere2):
    from plspines.spine import dual_spine

    return dual_spine(sphere2, discrete(sphere2))


@pytest.fixture(scope="session")
def pentachoron_spine(sphere3):
    from plspines.spine import dual_spine

    return dual_spine(sphere3, discrete(sphere3))


@pytest.fixture(scope="session")
def pentachoron_drill_ctx(pentachoron_spine):
    from plspines.drill import prepare

    return prepare(pentachoron_spine)
