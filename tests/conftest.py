import pytest

from t3mcg.mesh import build_surface
from t3mcg.mesh.homology import build_homology
from t3mcg.rep6 import derive_table
from mesh_reference import triangle_local


@pytest.fixture(scope="session")
def mesh8():
    return build_surface(8)


@pytest.fixture(scope="session")
def mesh16():
    return build_surface(16)


@pytest.fixture(scope="session")
def mesh32():
    return build_surface(32)


@pytest.fixture(scope="session")
def homology16(mesh16):
    return build_homology(mesh16)


@pytest.fixture(scope="session")
def homology32(mesh32):
    return build_homology(mesh32)


@pytest.fixture(scope="session")
def table32(homology32):
    return derive_table(homology32)


@pytest.fixture(scope="session")
def frames(request):
    # every triangle's unwrapped reference frame, built once per mesh for the session
    cache = {}

    def of(mesh_name):
        if mesh_name not in cache:
            mesh = request.getfixturevalue(mesh_name)
            cache[mesh_name] = [triangle_local(mesh, tri) for tri in range(len(mesh.triangles))]
        return cache[mesh_name]

    return of
