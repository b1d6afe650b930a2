import dataclasses

import numpy as np
import pytest

from halfscat.geometry import build_profile, mesh_perturbation
from halfscat.lapack import pin_one_thread
from halfscat.scene import build_scene, validate_config
from halfscat.solver import _assemble_blocks


def canonical_config(bc="dirichlet", **overrides):
    cfg = {
        "k": 2.0,
        "bc": bc,
        "seed": 7,
        "profile": {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25},
        "mesh": {"target_h": 0.085},
        "incident": {"type": "plane", "phi": 0.0, "theta": 0.0},
        "farfield_grid": {"n_theta": 10, "n_phi": 10},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="session", autouse=True)
def blas_one_thread():
    """Run every test with its BLAS on one thread, as the CLI runs, so that
    no result depends on whether an in-process CLI call came first: numpy's
    pool, and scipy's, which the test modules have imported by now as a
    reference."""
    pin_one_thread()


@pytest.fixture(scope="session")
def canonical_dirichlet():
    return build_scene(validate_config(canonical_config("dirichlet")))


@pytest.fixture(scope="session")
def canonical_neumann():
    return build_scene(validate_config(canonical_config("neumann")))


@pytest.fixture(scope="session")
def flat_scene():
    cfg = canonical_config(
        profile={"kind": "zero", "R": 1.0},
        mesh={"target_h": 0.18},
    )
    return build_scene(validate_config(cfg))


@pytest.fixture(scope="session")
def piecewise_mesh():
    """A single-peak piecewise-linear surface: no sector symmetry (g = 1)."""
    heights = np.zeros((7, 7))
    heights[3, 3] = 0.2
    profile = build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": heights.tolist()})
    return mesh_perturbation(profile, 0.125)


def dense_matrix(mesh, k, bc):
    """The dense collocation matrix: the one block of the mesh taken without
    its sector symmetry."""
    return _assemble_blocks(dataclasses.replace(mesh, sectors=1), k, bc)[0]


def fd_laplacian(f, x, h=1e-3):
    """6-point finite-difference Laplacian of a scalar field at a point."""
    x = np.asarray(x, dtype=float)
    acc = -6.0 * f(x)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        acc += f(x + e) + f(x - e)
    return acc / h**2


def helmholtz_rel_residual(f, x, k, h=1e-3):
    """|lap f + k^2 f| / (k^2 |f|) via the FD Laplacian oracle."""
    val = f(np.asarray(x, dtype=float))
    return abs(fd_laplacian(f, x, h) + k**2 * val) / (k**2 * abs(val))


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar (complex) field."""
    x = np.asarray(x, dtype=float)
    out = np.empty(3, dtype=complex)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        out[j] = (f(x + e) - f(x - e)) / (2 * h)
    return out
