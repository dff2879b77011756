import numpy as np
import pytest

from mcflow import mesh
from mcflow.curvature import jet_forms
from mcflow.mesh import MeshTopology
from mcflow.scenes import clifford_torus, ellipsoid, icosphere


@pytest.fixture(scope="session")
def icosphere4():
    return icosphere(subdiv=4, r0=1.0)


@pytest.fixture(scope="session")
def icosphere4_forms(icosphere4):
    frames, forms = jet_forms(icosphere4)
    return icosphere4.topology, frames, forms


@pytest.fixture(scope="session")
def clifford64():
    return clifford_torus(1.0, 1.0, resolution=64)


@pytest.fixture(scope="session")
def clifford64_forms(clifford64):
    frames, forms = jet_forms(clifford64)
    return clifford64.topology, frames, forms


@pytest.fixture
def topology_builds(monkeypatch):
    """List that grows by one entry (the vertex count) per MeshTopology built."""
    builds = []
    real_init = MeshTopology.__init__

    def counting_init(self, imm):
        builds.append(imm.num_vertices)
        real_init(self, imm)

    monkeypatch.setattr(MeshTopology, "__init__", counting_init)
    return builds


@pytest.fixture
def stiffness_assemblies(monkeypatch):
    """List that grows by one entry (the vertex count) per stiffness assembled."""
    assemblies = []
    real_assembly = mesh.laplace_beltrami

    def counting_assembly(imm):
        assemblies.append(imm.num_vertices)
        return real_assembly(imm)

    monkeypatch.setattr(mesh, "laplace_beltrami", counting_assembly)
    return assemblies


@pytest.fixture(scope="session")
def ellipsoid3():
    return ellipsoid([1.2, 1.0, 0.9], subdiv=3)


def random_rotation(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
