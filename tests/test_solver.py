import numpy as np
import pytest
import scipy.linalg

import halfscat.solver as solver_mod
from conftest import helmholtz_rel_residual
from halfscat.errors import ProximityError, ResonanceError, SolveError
from halfscat.geometry import build_profile, mesh_perturbation
from halfscat.identities import fit_loglog_slope, radiation_residuals
from halfscat.incident import BoundaryCondition, PlaneWave, PointSource
from halfscat.solver import (
    DirectionGrid,
    LayerDensity,
    eval_farfield,
    eval_farfields,
    eval_scattered,
    export_farfield_csv,
    get_factorization,
    solve_scattered,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


@pytest.fixture(scope="module")
def small_bump_mesh():
    prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
    return mesh_perturbation(prof, 0.125)


@pytest.fixture(scope="module")
def flat_mesh():
    return mesh_perturbation(build_profile({"kind": "zero", "R": 1.0}), 0.25)


class TestFlatNull:
    @pytest.mark.parametrize("bc", [D, N])
    def test_zero_profile_zero_everything(self, flat_mesh, bc):
        pw = PlaneWave(phi=0.3, theta=1.0, k=2.0, bc=bc)
        density, report = solve_scattered(flat_mesh, pw)
        assert report.rhs_norm == 0.0
        assert np.max(np.abs(density.coefficients)) == 0.0
        grid = DirectionGrid.make(6, 4)
        pattern = eval_farfield(density, flat_mesh, grid)
        assert np.max(np.abs(pattern.values)) <= 1e-12

    def test_point_source_on_flat_also_null(self, flat_mesh):
        ps = PointSource(z=(0.4, 0.1, 1.0), k=2.0, bc=D)
        density, report = solve_scattered(flat_mesh, ps)
        assert report.rhs_norm == 0.0
        assert np.max(np.abs(density.coefficients)) == 0.0


class TestSolveContract:
    def test_residual_within_tolerance(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, report = solve_scattered(small_bump_mesh, pw)
        assert report.residual_norm <= 1e-10 * report.rhs_norm
        assert report.panel_count == small_bump_mesh.n_panels
        assert report.condition_estimate < 1e8
        assert np.all(np.isfinite(density.coefficients))

    def test_linearity_in_right_hand_side(self, small_bump_mesh):
        pw = PlaneWave(phi=0.2, theta=0.5, k=2.0, bc=D)
        fact = get_factorization(small_bump_mesh, pw.k, pw.bc)
        b = solver_mod._right_hand_side(small_bump_mesh, pw)
        alpha = 0.7 - 1.3j
        s1 = scipy.linalg.lu_solve((fact.lu, fact.piv), b)
        s2 = scipy.linalg.lu_solve((fact.lu, fact.piv), alpha * b)
        assert np.allclose(s2, alpha * s1, rtol=1e-12, atol=1e-14)

    def test_source_too_close_rejected(self, small_bump_mesh):
        ps = PointSource(z=(0.0, 0.0, 0.35), k=2.0, bc=D)  # ~0.05 above the apex
        with pytest.raises(ProximityError, match="2h"):
            solve_scattered(small_bump_mesh, ps)

    def test_determinism_bitwise(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        d1, _ = solve_scattered(small_bump_mesh, pw)
        solver_mod.clear_factorization_cache()
        d2, _ = solve_scattered(small_bump_mesh, pw)
        assert np.array_equal(d1.coefficients, d2.coefficients)

    def test_resonance_guard_diagnostic(self, small_bump_mesh, monkeypatch):
        solver_mod.clear_factorization_cache()
        monkeypatch.setattr(solver_mod, "CONDITION_LIMIT", 1e-2)
        with pytest.raises(ResonanceError, match="resonance"):
            get_factorization(small_bump_mesh, 2.0, N)
        solver_mod.clear_factorization_cache()

    def test_singular_matrix_is_a_resonance(self, small_bump_mesh, monkeypatch):
        n = small_bump_mesh.n_panels
        singular = np.ones((n, n), dtype=complex)  # rank one: exact zero pivots
        with pytest.warns(scipy.linalg.LinAlgWarning, match="exactly zero"):
            lu, _ = scipy.linalg.lu_factor(singular)
        assert solver_mod._condition_estimate(singular, lu) == np.inf
        solver_mod.clear_factorization_cache()
        monkeypatch.setattr(solver_mod, "_assemble_matrix", lambda *args: singular)
        with pytest.raises(ResonanceError, match="inf exceeds"), pytest.warns(
            scipy.linalg.LinAlgWarning
        ):
            get_factorization(small_bump_mesh, 2.0, D)
        assert not solver_mod._FACTOR_CACHE

    def test_cache_holds_one_factorization(self, small_bump_mesh, flat_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        solve_scattered(small_bump_mesh, pw)
        solve_scattered(flat_mesh, pw)
        assert list(solver_mod._FACTOR_CACHE) == [solver_mod._cache_key(flat_mesh, 2.0, D)]
        _, report = solve_scattered(small_bump_mesh, pw)
        assert not report.cache_hit

    @pytest.mark.parametrize("bc", [D, N])
    def test_one_norm_bit_equal_to_numpy(self, small_bump_mesh, bc):
        A = solver_mod._assemble_matrix(small_bump_mesh, 2.0, bc)
        assert solver_mod._one_norm(A) == np.linalg.norm(A, 1)

    def test_condition_estimate_lapack_failure(self, monkeypatch):
        A = np.eye(3, dtype=complex)
        lu, _ = scipy.linalg.lu_factor(A)
        monkeypatch.setattr(
            scipy.linalg, "get_lapack_funcs", lambda *args: lambda lu, anorm, norm: (0.5, -2)
        )
        with pytest.raises(SolveError, match="info=-2"):
            solver_mod._condition_estimate(A, lu)


class TestEvalScattered:
    def test_zero_density_evaluates_to_zero(self, small_bump_mesh):
        density = LayerDensity(
            coefficients=np.zeros(small_bump_mesh.n_panels, dtype=complex),
            bc=D,
            k=2.0,
        )
        val = eval_scattered(density, small_bump_mesh, None, np.array([0.0, 0.0, 2.0]))
        assert val == 0.0

    def test_vanishes_on_plane_beyond_support(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        pts = np.array([[1.8, 0.4, 0.0], [-3.0, 0.2, 0.0], [0.1, 2.4, 0.0]])
        assert np.max(np.abs(eval_scattered(density, small_bump_mesh, pw, pts))) <= 1e-12

    @pytest.mark.parametrize("bc,sign", [(D, -1.0), (N, 1.0)])
    def test_mirrored_evaluation(self, small_bump_mesh, bc, sign):
        pw = PlaneWave(phi=0.4, theta=2.2, k=2.0, bc=bc)
        density, _ = solve_scattered(small_bump_mesh, pw)
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(20, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.2
        pts *= (2.0 / np.linalg.norm(pts, axis=1))[:, None]
        up = eval_scattered(density, small_bump_mesh, pw, pts)
        down = eval_scattered(density, small_bump_mesh, pw, pts * np.array([1, 1, -1]))
        assert np.max(np.abs(down - sign * up)) <= 1e-12

    def test_too_close_to_surface_or_image_rejected(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        with pytest.raises(ProximityError):
            eval_scattered(density, small_bump_mesh, pw, np.array([0.0, 0.0, 0.4]))
        with pytest.raises(ProximityError):  #近 image panels below the plane
            eval_scattered(density, small_bump_mesh, pw, np.array([0.0, 0.0, -0.4]))

    def test_helmholtz_residual_of_representation(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        for x in ([0.4, 0.2, 1.5], [-0.8, 0.3, 2.0]):
            res = helmholtz_rel_residual(
                lambda q: eval_scattered(density, small_bump_mesh, pw, q), np.array(x), 2.0
            )
            assert res <= 1e-4

    def test_radiation_decay_of_solution(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        radii = np.geomspace(10.0, 100.0, 12)
        resid = radiation_residuals(
            lambda pts: eval_scattered(density, small_bump_mesh, pw, pts),
            2.0,
            np.array([0.0, 0.0, 1.0]),
            radii,
        )
        assert -2.2 <= fit_loglog_slope(radii, resid) <= -1.8

    def test_incident_mismatch_rejected(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        other = PlaneWave(phi=0.0, theta=0.0, k=3.0, bc=D)
        with pytest.raises(ValueError, match="does not match"):
            eval_scattered(density, small_bump_mesh, other, np.array([0.0, 0.0, 2.0]))

    def test_density_mesh_mismatch_rejected(self, small_bump_mesh, flat_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        with pytest.raises(ValueError, match="panels"):
            eval_scattered(density, flat_mesh, pw, np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, small_bump_mesh, bad):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        with pytest.raises(ValueError, match="must be finite"):
            eval_scattered(density, small_bump_mesh, pw, np.array([bad, 0.0, 1.0]))
        pts = np.array([[0.0, 0.0, 2.0], [0.0, bad, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            eval_scattered(density, small_bump_mesh, pw, pts)


class TestFarField:
    def test_radial_limit_matches_pattern(self, small_bump_mesh):
        for bc in (D, N):
            pw = PlaneWave(phi=0.3, theta=1.0, k=2.0, bc=bc)
            density, _ = solve_scattered(small_bump_mesh, pw)
            xhat = np.array([0.3, -0.2, 0.9])
            xhat /= np.linalg.norm(xhat)
            r = 1e3
            u = eval_scattered(density, small_bump_mesh, pw, r * xhat)
            ff = eval_farfield(density, small_bump_mesh, DirectionGrid.single(xhat)).values[0]
            assert abs(r * np.exp(-1j * 2.0 * r) * u - ff) / abs(ff) <= 1e-3

    def test_pattern_provenance_and_determinism(self, small_bump_mesh, tmp_path):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        grid = DirectionGrid.make(5, 4)
        p1 = eval_farfield(density, small_bump_mesh, grid, scene_hash="beef07")
        assert p1.mesh_hash == small_bump_mesh.content_hash
        assert p1.mesh_h == small_bump_mesh.h
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_farfield_csv(p1, f1)
        solver_mod.clear_factorization_cache()
        density2, _ = solve_scattered(small_bump_mesh, pw)
        export_farfield_csv(eval_farfield(density2, small_bump_mesh, grid, "beef07"), f2)
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()[0]
        assert "k=2" in header and "bc=dirichlet" in header and "scene=beef07" in header

    def test_batch_input_validation(self, small_bump_mesh, flat_mesh):
        grid = DirectionGrid.make(4, 3)
        with pytest.raises(ValueError, match="at least one density"):
            eval_farfields([], small_bump_mesh, grid)
        dens_d, _ = solve_scattered(small_bump_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D))
        with pytest.raises(ValueError, match="panels"):
            eval_farfields([dens_d], flat_mesh, grid)
        dens_n, _ = solve_scattered(small_bump_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=N))
        with pytest.raises(ValueError, match="share k, formulation"):
            eval_farfields([dens_d, dens_n], small_bump_mesh, grid)
        dens_k, _ = solve_scattered(small_bump_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.5, bc=D))
        with pytest.raises(ValueError, match="share k, formulation"):
            eval_farfields([dens_d, dens_k], small_bump_mesh, grid)


class TestDirectionGrid:
    def test_grid_on_upper_hemisphere(self):
        grid = DirectionGrid.make(8, 5)
        assert grid.size == 40
        assert np.allclose(np.linalg.norm(grid.directions, axis=1), 1.0, atol=1e-14)
        assert np.all(grid.directions[:, 2] > 0)
        assert np.all((0 <= grid.theta) & (grid.theta < 2 * np.pi))
        assert np.all((0 < grid.phi) & (grid.phi < np.pi / 2))

    def test_single_direction_validation(self):
        with pytest.raises(ValueError):
            DirectionGrid.single(np.array([0.0, 0.0, -1.0]))
        for bad in ([0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]):
            with pytest.raises(ValueError, match="nonzero and finite"):
                DirectionGrid.single(np.array(bad))
        g = DirectionGrid.single(np.array([0.0, 0.0, 2.0]))
        assert np.allclose(g.directions[0], [0.0, 0.0, 1.0])

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            DirectionGrid.make(0, 3)
