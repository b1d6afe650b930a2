"""C6 sector symmetry of radial meshes, and the exact interior point-source
solution that measures the solver's true error."""

import numpy as np
import pytest
import scipy.linalg

import halfscat.solver as solver_mod
from conftest import dense_matrix
from halfscat.geometry import build_profile, mesh_perturbation
from halfscat.incident import BoundaryCondition, PlaneWave, PointSource
from halfscat.kernels import GreenKernel, farfield_kernel
from halfscat.solver import LayerDensity, eval_farfield, get_factorization, solve_scattered

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
BUMP = {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}


def _rel_max(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _sector_shift(mesh):
    """Panel p -> the panel that a rotation by one sector carries p onto."""
    orbits = mesh.sector_orbits()
    shift = np.empty(mesh.n_panels, dtype=np.int64)
    shift[orbits] = np.roll(orbits, -1, axis=1)
    return shift


def _dense_density(mesh, inc):
    """The dense path: lu_solve on the full collocation matrix."""
    A = dense_matrix(mesh, inc.k, inc.bc)
    b = solver_mod._right_hand_side(mesh, inc)
    sigma = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
    return LayerDensity(coefficients=sigma, bc=inc.bc, k=inc.k, mesh=mesh)


@pytest.fixture(scope="module")
def bump_mesh():
    return mesh_perturbation(build_profile(BUMP), 0.085)


class TestOrbits:
    @pytest.mark.parametrize("kind", [BUMP, {"kind": "zero", "R": 1.0}])
    @pytest.mark.parametrize("h", [0.25, 0.085])
    def test_permutation_and_rotation(self, kind, h):
        mesh = mesh_perturbation(build_profile(kind), h)
        orbits = mesh.sector_orbits()
        assert mesh.sectors == 6 and orbits.shape == (mesh.n_panels // 6, 6)
        assert np.array_equal(np.sort(orbits.ravel()), np.arange(mesh.n_panels))
        c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        turned = mesh.centroids[orbits] @ turn.T
        assert np.max(np.abs(turned - mesh.centroids[np.roll(orbits, -1, axis=1)])) <= 1e-14

    def test_piecewise_linear_is_not_symmetric(self, piecewise_mesh):
        assert piecewise_mesh.sectors == 1
        assert np.array_equal(piecewise_mesh.sector_orbits()[:, 0],
                              np.arange(piecewise_mesh.n_panels))


class TestSectorBlocks:
    @pytest.mark.parametrize("bc", [D, N])
    def test_dense_matrix_is_shift_invariant(self, bump_mesh, bc):
        A = dense_matrix(bump_mesh, 2.0, bc)
        shift = _sector_shift(bump_mesh)
        assert _rel_max(A[np.ix_(shift, shift)], A) <= 1e-12

    @pytest.mark.parametrize("bc", [D, N])
    def test_blocks_are_the_sector_rows(self, bump_mesh, bc):
        """Every block entry is the dense entry bit for bit."""
        A = dense_matrix(bump_mesh, 2.0, bc)
        orbits = bump_mesh.sector_orbits()
        blocks = solver_mod._assemble_blocks(bump_mesh, 2.0, bc)
        for s in range(6):
            assert np.array_equal(blocks[s], A[np.ix_(orbits[:, 0], orbits[:, s])])

    @pytest.mark.parametrize("bc", [D, N])
    def test_apply_norm_and_condition(self, bump_mesh, bc):
        solver_mod.clear_factorization_cache()
        fact = get_factorization(bump_mesh, 2.0, bc)
        A = dense_matrix(bump_mesh, 2.0, bc)
        re, im = np.random.default_rng(3).normal(size=(2, bump_mesh.n_panels))
        x = re + 1j * im
        assert _rel_max(fact.apply(x), A @ x) <= 1e-12
        assert _rel_max(solver_mod._one_norm(fact.blocks), np.linalg.norm(A, 1)) <= 1e-12
        lu, _ = scipy.linalg.lu_factor(A)
        gecon = scipy.linalg.get_lapack_funcs("gecon", (A,))
        rcond, info = gecon(lu, np.linalg.norm(A, 1), norm="1")
        assert info == 0 and abs(fact.cond_estimate * rcond - 1.0) <= 1e-9
        solver_mod.clear_factorization_cache()

    @pytest.mark.parametrize("bc", [D, N])
    def test_c6_solve_matches_dense(self, bump_mesh, bc):
        grid = solver_mod.DirectionGrid.make(10, 10)
        inc = PlaneWave(phi=0.3, theta=1.0, k=2.0, bc=bc)
        density, _ = solve_scattered(bump_mesh, inc)
        dense = _dense_density(bump_mesh, inc)
        assert _rel_max(density.coefficients, dense.coefficients) <= 1e-12
        assert _rel_max(eval_farfield(density, grid), eval_farfield(dense, grid)) <= 1e-12

    @pytest.mark.parametrize("bc", [D, N])
    def test_piecewise_linear_keeps_the_dense_solve(self, piecewise_mesh, bc):
        inc = PlaneWave(phi=0.2, theta=0.5, k=2.0, bc=bc)
        density, _ = solve_scattered(piecewise_mesh, inc)
        dense = _dense_density(piecewise_mesh, inc)
        assert np.array_equal(density.coefficients, dense.coefficients)


# An interior point source: u = -G(., z) is the exact scattered field of the
# PointSource(z) incident for either boundary condition, and its far field is
# -farfield_kernel(xhat, z).  z lies under the canonical bump's 0.3 apex.
ORACLE_SOURCE = (0.0, 0.0, 0.08)


@pytest.mark.parametrize("scene_name, bound", [
    ("canonical_dirichlet", 1.9e-2),  # 1.8287e-2 measured
    ("canonical_neumann", 2.0e-2),  # 1.9455e-2 measured
])
def test_exact_interior_source_farfield(scene_name, bound, request):
    scene = request.getfixturevalue(scene_name)
    mesh = scene.mesh
    inc = PointSource(z=ORACLE_SOURCE, k=scene.k, bc=scene.bc)
    # the 2h standoff of solve_scattered holds at this mesh size
    assert np.min(np.linalg.norm(mesh.centroids - inc.z, axis=1)) >= 2 * mesh.h
    exact = -farfield_kernel(GreenKernel(k=scene.k, bc=scene.bc), scene.grid.directions, inc.z)
    density, _ = solve_scattered(mesh, inc)
    err = _rel_max(eval_farfield(density, scene.grid), exact)
    dense_err = _rel_max(eval_farfield(_dense_density(mesh, inc), scene.grid), exact)
    assert err <= bound
    assert f"{err:.3g}" == f"{dense_err:.3g}"
