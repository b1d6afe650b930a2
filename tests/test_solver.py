import dataclasses
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg

import halfscat.kernels as kernels_mod
import halfscat.lapack as lapack_mod
import halfscat.solver as solver_mod
from conftest import dense_matrix, helmholtz_rel_residual
from halfscat import artifacts
from halfscat.errors import MemoryBudgetError, ProximityError, ResonanceError
from halfscat.geometry import build_profile, mesh_perturbation
from halfscat.identities import fit_loglog_slope, radiation_residuals
from halfscat.incident import BoundaryCondition, PlaneWave, PointSource
from halfscat.solver import (
    DirectionGrid,
    LayerDensity,
    eval_farfield,
    eval_farfields,
    eval_scattered,
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
        assert np.max(np.abs(eval_farfield(density, grid))) <= 1e-12

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
        s1 = fact.solve(b)
        s2 = fact.solve(alpha * b)
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
        orbits = small_bump_mesh.sector_orbits()
        m, g = orbits.shape
        singular = np.ones((g, m, m), dtype=complex)  # A of rank one: exact zero pivots
        fact = solver_mod._Factorization.factor(orbits, singular)
        assert solver_mod._condition_estimate(fact) == np.inf
        solver_mod.clear_factorization_cache()
        monkeypatch.setattr(solver_mod, "_assemble_blocks", lambda *args: singular)
        with pytest.raises(ResonanceError, match="inf exceeds"):
            get_factorization(small_bump_mesh, 2.0, D)
        assert not solver_mod._FACTOR_CACHE

    def test_cache_holds_one_factorization(self, small_bump_mesh, flat_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        solve_scattered(small_bump_mesh, pw)
        solve_scattered(flat_mesh, pw)
        assert list(solver_mod._FACTOR_CACHE) == [(flat_mesh, 2.0, D)]
        _, report = solve_scattered(small_bump_mesh, pw)
        assert not report.cache_hit

    def test_cache_is_keyed_by_the_mesh_object(self, small_bump_mesh):
        # same vertices and triangles, no sector symmetry: a different system
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        solve_scattered(small_bump_mesh, pw)
        cached = get_factorization(small_bump_mesh, 2.0, D)
        dense = get_factorization(dataclasses.replace(small_bump_mesh, sectors=1), 2.0, D)
        assert dense is not cached
        assert cached.orbits.shape[1] == 6 and dense.orbits.shape[1] == 1
        # an equal mesh built apart is another key, and every mesh hashes
        twin = dataclasses.replace(small_bump_mesh)
        assert twin != small_bump_mesh and len({twin, small_bump_mesh}) == 2

    @pytest.mark.parametrize("bc", [D, N])
    def test_one_norm_bit_equal_to_numpy(self, small_bump_mesh, bc):
        A = dense_matrix(small_bump_mesh, 2.0, bc)
        assert solver_mod._one_norm(A) == np.linalg.norm(A, 1)

    def test_condition_estimate_non_finite_is_inf(self, monkeypatch):
        identity = np.eye(3, dtype=complex)[None]
        fact = solver_mod._Factorization.factor(np.arange(3)[:, None], identity)
        assert solver_mod._condition_estimate(fact) == 1.0
        monkeypatch.setattr(fact, "solve", lambda b, trans=0: np.full(b.shape, np.nan, complex))
        assert solver_mod._condition_estimate(fact) == np.inf


def test_lapack_rejects_what_it_cannot_pass(monkeypatch):
    """Arrays in another layout or type, a non-finite matrix and an unknown
    trans are refused before any pointer is passed; without numpy's routines
    or scipy, a factorization says which is missing."""
    c_order = np.array([[1, 2], [3, 4]], dtype=complex)
    for bad in (c_order, np.zeros((3, 2), complex, order="F"),
                np.eye(2, dtype=np.complex64, order="F")):
        with pytest.raises(ValueError, match="getrf needs"):
            lapack_mod.getrf(bad)
    with pytest.raises(ValueError, match="infs or NaNs"):
        lapack_mod.getrf(np.full((2, 2), np.nan, complex, order="F"))
    lu, piv = lapack_mod.getrf(np.asfortranarray(c_order))
    assert piv.tolist() == [2, 2]
    with pytest.raises(ValueError, match="int64 pivots"):
        lapack_mod.getrs(lu, piv.astype(np.int32), np.ones(2))
    with pytest.raises(ValueError, match="does not fit"):
        lapack_mod.getrs(lu, piv, np.ones(3))
    with pytest.raises(ValueError, match="trans"):
        lapack_mod.getrs(lu, piv, np.ones(2), trans=3)
    assert np.allclose(c_order @ lapack_mod.getrs(lu, piv, np.ones(2)), 1, rtol=0, atol=1e-15)
    monkeypatch.setattr(lapack_mod, "_routines", lambda: None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(RuntimeError, match="zgetrf_64_ and scipy"):
        lapack_mod.getrf(np.asfortranarray(c_order))


def _onenormest(fact):
    """scipy's estimate of ||A^-1||_1 with one column, through the block
    solves."""
    n = fact.orbits.size
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n),
        matvec=lambda v: fact.solve(v.ravel()),
        rmatvec=lambda v: fact.solve(v.ravel(), trans=2),
        dtype=complex,
    )
    return scipy.sparse.linalg.onenormest(inverse, t=1)


def _cast_radial(radial):
    """The real radial parts (pr, pi, cr, ci, ...) of ``_radial_pair`` as the
    complex (phi, c, phi_img, c_img); phi is None where it is not formed."""
    pr, pi, cr, ci, pr_img, pi_img, cr_img, ci_img = radial
    phi, phi_img = (None, None) if pr is None else (pr + 1j * pi, pr_img + 1j * pi_img)
    return phi, cr + 1j * ci, phi_img, cr_img + 1j * ci_img


def _combined_cast(radial, d, nu_x, nu_y, k):
    """The sound-soft integrand with complex x real products."""
    phi, c, phi_img, c_img = _cast_radial(radial)
    d0, d1, d2, e2 = d
    planar = d0 * nu_y[0] + d1 * nu_y[1]
    dl = -c * (planar + d2 * nu_y[2]) + c_img * (planar - e2 * nu_y[2])
    return dl - 1j * k * (phi - phi_img)


def _adjoint_cast(radial, d, nu_x, nu_y, k):
    """The sound-hard integrand with complex x real products."""
    _, c, _, c_img = _cast_radial(radial)
    d0, d1, d2, e2 = d
    planar = d0 * nu_x[0] + d1 * nu_x[1]
    return c * (planar + d2 * nu_x[2]) + c_img * (planar + e2 * nu_x[2])


def _lu_bytes(fact):
    """The LU bytes and the 1-based int64 pivots of each block."""
    assert all(piv.dtype == np.int64 for _, piv in fact.lus)
    return [(lu.tobytes(), piv.tolist()) for lu, piv in fact.lus]


def test_miss_refused_before_assembly(small_bump_mesh, monkeypatch):
    """A miss whose stored system exceeds the memory budget raises before it
    assembles anything; a hit reads no budget."""
    fact = get_factorization(small_bump_mesh, 2.0, D)
    assert lapack_mod.work_buffer_mb() == 0.0  # an LU has run in this process
    need = solver_mod.system_mb(small_bump_mesh.n_panels, small_bump_mesh.sectors)
    assert need == 32 * 384**2 / 6 / 2**20
    monkeypatch.setattr(solver_mod, "memory_budget_mb", lambda: (need - 0.01, "MemAvailable"))
    monkeypatch.setattr(solver_mod, "_assemble_blocks", None)  # calling it fails the test
    assert get_factorization(small_bump_mesh, 2.0, D) is fact
    with pytest.raises(MemoryBudgetError, match=rf"^the 384-panel system needs {need:.1f} MiB, "
                       r"more than the 0\.7 MiB MemAvailable leaves$"):
        get_factorization(small_bump_mesh, 2.5, D)


@pytest.mark.parametrize("bc", [D, N])
@pytest.mark.parametrize("mesh_name", ["small_bump_mesh", "piecewise_mesh"])
class TestMissPath:
    """The pieces of a factorization miss against the forms they replaced,
    bit for bit, on the sector blocks (bump, g = 6) and on the dense matrix
    (piecewise, g = 1)."""

    @pytest.fixture
    def mesh(self, request, mesh_name):
        return request.getfixturevalue(mesh_name)

    def test_one_norm_chunks(self, mesh, bc, monkeypatch):
        blocks = solver_mod._assemble_blocks(mesh, 2.0, bc)
        col_sums = np.zeros(blocks.shape[-1])
        for row in blocks.reshape(-1, blocks.shape[-1]):
            col_sums += np.abs(row)
        norm = solver_mod._one_norm(blocks)
        assert norm == col_sums.max()
        if mesh.sectors == 1:  # the one block is the dense matrix
            assert norm == np.linalg.norm(blocks[0], 1)
        for rows in (1, 7, blocks.size):
            monkeypatch.setattr(solver_mod, "_ROW_BLOCK", rows)
            assert solver_mod._one_norm(blocks) == norm

    def test_factor_chunks(self, mesh, bc, monkeypatch):
        orbits = mesh.sector_orbits()
        m, g = orbits.shape
        blocks = solver_mod._assemble_blocks(mesh, 2.0, bc)
        F = np.empty(blocks.shape, dtype=complex).transpose(0, 2, 1)
        np.fft.ifft(blocks, axis=0, out=F)
        F *= g
        # scipy numbers the pivots from 0
        ref = [(lu.tobytes(), (piv + 1).tolist()) for lu, piv in
               (scipy.linalg.lu_factor(b, overwrite_a=True) for b in F)]
        assert solver_mod._FFT_ROWS <= 32 and m % 7  # 7 rows leave a ragged last chunk
        for rows in (solver_mod._FFT_ROWS, 7, m + 5):
            monkeypatch.setattr(solver_mod, "_FFT_ROWS", rows)
            assert _lu_bytes(solver_mod._Factorization.factor(orbits, blocks)) == ref

    def test_getrs_solves(self, mesh, bc):
        solver_mod.clear_factorization_cache()
        fact = get_factorization(mesh, 2.0, bc)
        rng = np.random.default_rng(5)
        b = rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels)
        for trans in (0, 2):
            rhs = np.fft.fft(b[fact.orbits], axis=1)
            sol = np.column_stack([
                scipy.linalg.lu_solve((lu, piv - 1), rhs[:, p], trans=trans, check_finite=False)
                for p, (lu, piv) in enumerate(fact.lus)
            ])
            ref = np.empty(mesh.n_panels, dtype=complex)
            ref[fact.orbits] = np.fft.ifft(sol, axis=1)
            assert fact.solve(b, trans=trans).tobytes() == ref.tobytes()

    def test_scipy_fallback(self, mesh, bc, monkeypatch):
        """Where numpy's BLAS exports no zgetrf, ``lapack`` runs the same
        routines through scipy: the same factors, solves and estimate."""
        solver_mod.clear_factorization_cache()
        fact = get_factorization(mesh, 2.0, bc)
        rng = np.random.default_rng(5)
        b = rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels)
        calls = []

        def counted(name):
            routine = getattr(scipy.linalg.lapack, name)
            return lambda *args, **kwargs: calls.append(name) or routine(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(lapack_mod, "_routines", lambda: None)
            for name in ("zgetrf", "zgetrs"):
                patch.setattr(scipy.linalg.lapack, name, counted(name))
            solver_mod.clear_factorization_cache()
            ref = get_factorization(mesh, 2.0, bc)
            solves = [ref.solve(b, trans=trans).tobytes() for trans in (0, 2)]
        assert calls.count("zgetrf") == mesh.sectors and "zgetrs" in calls
        assert _lu_bytes(ref) == _lu_bytes(fact)
        assert solves == [fact.solve(b, trans=trans).tobytes() for trans in (0, 2)]
        assert ref.cond_estimate == fact.cond_estimate
        solver_mod.clear_factorization_cache()

    def test_estimate_is_onenormest(self, mesh, bc):
        solver_mod.clear_factorization_cache()
        fact = get_factorization(mesh, 2.0, bc)
        est = solver_mod._inverse_norm_estimate(fact)
        assert est == _onenormest(fact) and est > 0
        with np.errstate(all="ignore"):
            cond = solver_mod._one_norm(fact.blocks) * _onenormest(fact)
        assert fact.cond_estimate == cond

    def test_real_product_terms(self, mesh, bc, monkeypatch):
        """The integrands without complex x real products give the same
        values; only an entry that is exactly zero (a flat panel seen from a
        flat panel) may change its sign, and the LU factors are unchanged."""
        solver_mod.clear_factorization_cache()
        fact = get_factorization(mesh, 2.0, bc)
        with monkeypatch.context() as patch:
            patch.setitem(kernels_mod._COLLOCATION_TERMS, D, _combined_cast)
            patch.setitem(kernels_mod._COLLOCATION_TERMS, N, _adjoint_cast)
            solver_mod.clear_factorization_cache()
            ref = get_factorization(mesh, 2.0, bc)
        assert np.array_equal(fact.blocks, ref.blocks)
        if mesh.sectors == 6:  # the bump has no flat panel
            assert fact.blocks.tobytes() == ref.blocks.tobytes()
        assert _lu_bytes(fact) == _lu_bytes(ref)
        assert fact.cond_estimate == ref.cond_estimate
        solver_mod.clear_factorization_cache()


@pytest.mark.parametrize("n, g, imag", [
    (1, 1, 1.0), (3, 1, 1.0), (10, 7, 1.0), (40, 256, 1.0), (3, 1, 0.0), (5, 2, 0.0),
])
def test_estimate_is_onenormest_on_random_systems(n, g, imag):
    """Sizes from one unknown to more than a numpy buffer (8192 values),
    where a reduction could change its summation order.  The real systems
    stop on a repeated sign vector (3, 1) and after three steps (5, 2)."""
    rng = np.random.default_rng(n * g)
    blocks = (rng.normal(size=(g, n, n)) + imag * 1j * rng.normal(size=(g, n, n))) / n
    blocks[0] += 2 * np.eye(n)
    fact = solver_mod._Factorization.factor(np.arange(n * g).reshape(n, g), blocks)
    assert solver_mod._inverse_norm_estimate(fact) == _onenormest(fact)


class TestEvalScattered:
    def test_zero_density_evaluates_to_zero(self, small_bump_mesh):
        density = LayerDensity(
            coefficients=np.zeros(small_bump_mesh.n_panels, dtype=complex),
            bc=D,
            k=2.0,
            mesh=small_bump_mesh,
        )
        val = eval_scattered(density, np.array([0.0, 0.0, 2.0]))
        assert val == 0.0

    def test_no_points_evaluate_to_an_empty_array(self, small_bump_mesh):
        for bc in (D, N):
            density = LayerDensity(np.ones(small_bump_mesh.n_panels), bc, 2.0, small_bump_mesh)
            val = eval_scattered(density, np.zeros((0, 3)))
            assert val.shape == (0,) and val.dtype == complex

    def test_vanishes_on_plane_beyond_support(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        pts = np.array([[1.8, 0.4, 0.0], [-3.0, 0.2, 0.0], [0.1, 2.4, 0.0]])
        assert np.max(np.abs(eval_scattered(density, pts))) <= 1e-12

    @pytest.mark.parametrize("bc,sign", [(D, -1.0), (N, 1.0)])
    def test_mirrored_evaluation(self, small_bump_mesh, bc, sign):
        pw = PlaneWave(phi=0.4, theta=2.2, k=2.0, bc=bc)
        density, _ = solve_scattered(small_bump_mesh, pw)
        rng = np.random.default_rng(31)
        pts = rng.normal(size=(20, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.2
        pts *= (2.0 / np.linalg.norm(pts, axis=1))[:, None]
        up = eval_scattered(density, pts)
        down = eval_scattered(density, pts * np.array([1, 1, -1]))
        assert np.max(np.abs(down - sign * up)) <= 1e-12

    def test_too_close_to_surface_or_image_rejected(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        with pytest.raises(ProximityError):
            eval_scattered(density, np.array([0.0, 0.0, 0.4]))
        with pytest.raises(ProximityError):  #近 image panels below the plane
            eval_scattered(density, np.array([0.0, 0.0, -0.4]))

    def test_helmholtz_residual_of_representation(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        for x in ([0.4, 0.2, 1.5], [-0.8, 0.3, 2.0]):
            res = helmholtz_rel_residual(
                lambda q: eval_scattered(density, q), np.array(x), 2.0
            )
            assert res <= 1e-4

    def test_radiation_decay_of_solution(self, small_bump_mesh):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        radii = np.geomspace(10.0, 100.0, 12)
        resid = radiation_residuals(
            lambda pts: eval_scattered(density, pts),
            2.0,
            np.array([0.0, 0.0, 1.0]),
            radii,
        )
        assert -2.2 <= fit_loglog_slope(radii, resid) <= -1.8

    def test_density_mesh_mismatch_rejected(self, small_bump_mesh, flat_mesh):
        """A density is built on its mesh: one coefficient per panel."""
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        assert density.mesh is small_bump_mesh
        assert flat_mesh.n_panels != small_bump_mesh.n_panels
        for coefficients in (density.coefficients, density.coefficients[None, :]):
            with pytest.raises(ValueError, match="panels"):
                dataclasses.replace(density, coefficients=coefficients, mesh=flat_mesh)
        with pytest.raises(ValueError, match="panels"):
            dataclasses.replace(density, coefficients=density.coefficients[None, :])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, small_bump_mesh, bad):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        with pytest.raises(ValueError, match="must be finite"):
            eval_scattered(density, np.array([bad, 0.0, 1.0]))
        pts = np.array([[0.0, 0.0, 2.0], [0.0, bad, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            eval_scattered(density, pts)

    @pytest.mark.parametrize("x", [np.zeros(0), np.zeros(2), np.zeros(4), np.float64(2.0),
                                   np.full((3, 2), 5.0)])
    def test_points_without_three_coordinates_rejected(self, small_bump_mesh, x):
        density = LayerDensity(np.ones(small_bump_mesh.n_panels), D, 2.0, small_bump_mesh)
        with pytest.raises(ValueError, match="must have 3 coordinates"):
            eval_scattered(density, x)


class TestFarField:
    def test_radial_limit_matches_pattern(self, small_bump_mesh):
        for bc in (D, N):
            pw = PlaneWave(phi=0.3, theta=1.0, k=2.0, bc=bc)
            density, _ = solve_scattered(small_bump_mesh, pw)
            xhat = np.array([0.3, -0.2, 0.9])
            xhat /= np.linalg.norm(xhat)
            r = 1e3
            u = eval_scattered(density, r * xhat)
            ff = eval_farfield(density, DirectionGrid.single(xhat))[0]
            assert abs(r * np.exp(-1j * 2.0 * r) * u - ff) / abs(ff) <= 1e-3

    def test_pattern_provenance_and_determinism(self, small_bump_mesh, tmp_path):
        pw = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
        density, _ = solve_scattered(small_bump_mesh, pw)
        grid = DirectionGrid.make(5, 4)
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        artifacts.write_farfields([density], grid, eval_farfields([density], grid), [f1], "beef07")
        solver_mod.clear_factorization_cache()
        density2, _ = solve_scattered(small_bump_mesh, pw)
        artifacts.write_farfields([density2], grid, eval_farfields([density2], grid), [f2],
                                  "beef07")
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()[0]
        assert header == f"# k=2 bc=dirichlet mesh_h={small_bump_mesh.h:.17g} scene=beef07"

    def test_batch_input_validation(self, small_bump_mesh, flat_mesh):
        grid = DirectionGrid.make(4, 3)
        with pytest.raises(ValueError, match="at least one density"):
            eval_farfields([], grid)
        dens_d, _ = solve_scattered(small_bump_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D))
        dens_flat, _ = solve_scattered(flat_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D))
        with pytest.raises(ValueError, match="share one mesh"):
            eval_farfields([dens_d, dens_flat], grid)
        dens_n, _ = solve_scattered(small_bump_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=N))
        with pytest.raises(ValueError, match="share k, formulation"):
            eval_farfields([dens_d, dens_n], grid)
        dens_k, _ = solve_scattered(small_bump_mesh, PlaneWave(phi=0.0, theta=0.0, k=2.5, bc=D))
        with pytest.raises(ValueError, match="share k, formulation"):
            eval_farfields([dens_d, dens_k], grid)

    def test_densities_on_twin_meshes_refused(self, canonical_dirichlet):
        """Two meshes of one profile and target h have equal panel counts but
        are two meshes: their densities do not mix."""
        profile, grid = canonical_dirichlet.profile, canonical_dirichlet.grid
        mesh_a, mesh_b = (mesh_perturbation(profile, 0.085) for _ in range(2))
        assert mesh_a.n_panels == mesh_b.n_panels == 864 and mesh_a is not mesh_b
        inc = canonical_dirichlet.incidents[0]
        dens_a, dens_b = (solve_scattered(mesh, inc)[0] for mesh in (mesh_a, mesh_b))
        with pytest.raises(ValueError, match="share one mesh"):
            eval_farfields([dens_a, dens_b], grid)
        assert eval_farfields([dens_b, dens_b], grid).shape == (2, grid.size)

    def test_patterns_are_rows_of_one_array(self, small_bump_mesh):
        """eval_farfields returns one read-only (densities, directions) array,
        whose rows are eval_farfield of each density.  Not bit for bit: numpy
        forms the one-density product as a matrix-vector product and three
        densities as a matrix product, whose sums OpenBLAS rounds differently
        (by at most 1.7e-15 of the largest value on this mesh)."""
        grid = DirectionGrid.make(7, 5)
        waves = [PlaneWave(phi=phi, theta=1.0, k=2.0, bc=D) for phi in (0.0, 0.4, 0.9)]
        densities = [solve_scattered(small_bump_mesh, wave)[0] for wave in waves]
        values = eval_farfields(densities, grid)
        assert values.shape == (3, grid.size) and values.dtype == complex
        assert not values.flags.writeable
        for row, density in zip(values, densities):
            one = eval_farfield(density, grid)
            assert not one.flags.writeable
            assert np.max(np.abs(row - one)) <= 1e-14 * np.max(np.abs(one))


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
        for bad in ((2.5, 3), (3, 2.5), (True, 3), (3.0, 3)):
            with pytest.raises(ValueError, match="must be integers"):
                DirectionGrid.make(*bad)
