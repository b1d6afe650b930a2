import numpy as np
import pytest

from halfscat import artifacts
from halfscat.errors import InverseCrimeError, ProximityError
from halfscat.geometry import build_profile
from halfscat.incident import BoundaryCondition, PlaneWave
from halfscat.inverse import (
    InversionConfig,
    ProfileParams,
    blow_up_indicator,
    forward_map,
    invert_profile,
    residual_separation,
)
from halfscat.solver import DirectionGrid

D = BoundaryCondition.DIRICHLET
PW = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=D)
GRID = DirectionGrid.make(10, 10)


def make_data(truth, incidents, target_h, seed=613, noise_level=0.01):
    clean = forward_map(truth, incidents, GRID, target_h)
    rng = np.random.default_rng(seed)
    rms = noise_level * np.sqrt(np.mean(np.abs(clean) ** 2))
    noise = rms * (
        rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
    ) / np.sqrt(2.0)
    return clean + noise


class TestProfileParams:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match="bounds"):
            ProfileParams(
                kind="bump_hw",
                values=np.array([-0.1, 0.3]),
                lower=np.array([0.0, 0.05]),
                upper=np.array([0.8, 0.8]),
            )
        with pytest.raises(ValueError):
            ProfileParams.heights([-0.05, 0, 0, 0, 0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ProfileParams.bump(np.nan, 0.25),
            lambda: ProfileParams.bump(0.3, 0.25, R=np.nan),
            lambda: ProfileParams.heights([np.nan] * 5),
            lambda: ProfileParams(
                kind="bump_hw",
                values=np.array([0.3, 0.25]),
                lower=np.array([-np.inf, 0.05]),
                upper=np.array([np.inf, 0.8]),
            ),
        ],
        ids=["bump_height", "bump_radius", "heights", "infinite_bounds"],
    )
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_to_profile_roundtrip(self):
        params = ProfileParams.bump(0.3, 0.25)
        prof = params.to_profile()
        assert prof.kind == "gaussian_bump"
        assert prof.height(np.array([0.0, 0.0])) == pytest.approx(0.3)
        pl = ProfileParams.heights([0.4, 0.1, 0.1, 0.1, 0.1]).to_profile()
        assert pl.kind == "piecewise_linear"
        assert pl.height(np.array([0.0, 0.0])) == pytest.approx(0.4)

    def test_clipping(self):
        params = ProfileParams.bump(0.3, 0.25)
        clipped = params.clipped(np.array([5.0, 0.01]))
        assert clipped.values[0] == params.upper[0]
        assert clipped.values[1] == params.lower[1]


class TestForwardMap:
    def test_zero_params_zero_vector(self):
        flat = ProfileParams.bump(0.0, 0.25)
        out = forward_map(flat, [PW], GRID, 0.25)
        assert out.shape == (100,)
        assert np.max(np.abs(out)) == 0.0

    def test_output_length(self):
        incs = [PW, PlaneWave(phi=0.4, theta=1.0, k=2.0, bc=D)]
        out = forward_map(ProfileParams.bump(0.2, 0.3), incs, DirectionGrid.make(5, 4), 0.25)
        assert out.shape == (2 * 20,)


class TestBlowUpIndicator:
    def test_zero_profile_identically_zero(self, flat_scene):
        z3 = np.linspace(1.5, 0.6, 6)
        samples = np.column_stack([np.zeros(6), np.zeros(6), z3])
        ind = blow_up_indicator(flat_scene, samples)
        assert np.max(ind.values) == 0.0

    def test_descent_toward_apex(self, canonical_dirichlet):
        scene = canonical_dirichlet
        bottom = scene.profile.peak_height + 3 * scene.mesh.h
        z3 = np.linspace(1.5, bottom, 8)
        ind = blow_up_indicator(scene, np.column_stack([np.zeros(8), np.zeros(8), z3]))
        tail = ind.values[-5:]
        assert np.all(np.diff(tail) > 0)
        assert ind.values[-1] / ind.values[0] >= 10.0

    def test_far_line_stays_flat(self, canonical_dirichlet):
        scene = canonical_dirichlet
        bottom = scene.profile.peak_height + 3 * scene.mesh.h
        z3 = np.linspace(1.5, bottom, 8)
        ind = blow_up_indicator(scene, np.column_stack([np.full(8, 3.0), np.zeros(8), z3]))
        assert ind.values[-1] / ind.values[0] <= 2.0

    def test_flat_part_bounded_by_far_ring(self, canonical_dirichlet):
        scene = canonical_dirichlet
        height = 0.8
        flat_pts = np.array([[r, 0.0, height] for r in (2.0, 2.5, 3.0)])
        ring_ang = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        ring = np.column_stack(
            [3.0 * np.cos(ring_ang), 3.0 * np.sin(ring_ang), np.full(8, height)]
        )
        flat_vals = blow_up_indicator(scene, flat_pts).values
        ring_vals = blow_up_indicator(scene, ring).values
        assert np.all(flat_vals <= 10.0 * np.median(ring_vals))

    def test_below_surface_rejected(self, canonical_dirichlet):
        with pytest.raises(ProximityError, match="below"):
            blow_up_indicator(canonical_dirichlet, np.array([[0.0, 0.0, -0.5]]))


@pytest.mark.parametrize("h", [0.0, -0.07, np.nan])
def test_data_target_h_must_be_positive(h):
    with pytest.raises(ValueError, match="data_target_h"):
        InversionConfig(data_target_h=h)


@pytest.mark.parametrize("field", ["max_iterations", "target_h"])
def test_iterations_and_target_h_must_be_positive(field):
    with pytest.raises(ValueError, match=f"{field} must be "):
        InversionConfig(**{field: 0})


class TestInvertProfile:
    def test_init_at_truth_is_fixed_point(self):
        # data generated on the inversion mesh itself (data_target_h omitted) so
        # the residual vanishes identically and the zero update is accepted
        truth = ProfileParams.bump(0.3, 0.25)
        data = forward_map(truth, [PW], GRID, 0.1)
        cfg = InversionConfig(target_h=0.1)
        recovered, report = invert_profile(data, [PW], GRID, cfg, truth)
        assert np.array_equal(recovered.values, truth.values)
        assert report.iterations == 0
        assert report.stop_reason == "step_tolerance"

    def test_inverse_crime_guard(self):
        truth = ProfileParams.bump(0.3, 0.25)
        data = make_data(truth, [PW], target_h=0.1)
        cfg = InversionConfig(target_h=0.1, data_target_h=0.1)
        with pytest.raises(InverseCrimeError, match="same mesh discretization"):
            invert_profile(data, [PW], GRID, cfg, ProfileParams.bump(0.15, 0.4))

    def test_inverse_crime_guard_compares_ring_counts(self):
        # target_h 0.1 and 0.105 both grid the unit disc with 10 rings
        cfg = InversionConfig(target_h=0.1, data_target_h=0.105)
        with pytest.raises(InverseCrimeError, match="10 rings"):
            invert_profile(np.zeros(GRID.size, dtype=complex), [PW], GRID, cfg,
                           ProfileParams.bump(0.15, 0.4))

    def test_bump_recovery_within_tolerance(self):
        truth = ProfileParams.bump(0.3, 0.25)
        data = make_data(truth, [PW], target_h=0.085)
        cfg = InversionConfig(target_h=0.1, data_target_h=0.085)
        recovered, report = invert_profile(data, [PW], GRID, cfg, ProfileParams.bump(0.15, 0.4))
        rel = np.abs(recovered.values - truth.values) / truth.values
        assert np.max(rel) <= 0.05
        assert np.all(np.diff(report.objective_trace) <= 0)

    def test_piecewise_linear_residual_near_noise_floor(self):
        truth = ProfileParams.bump(0.3, 0.25)
        data = make_data(truth, [PW], target_h=0.085)
        floor = 0.01 * np.linalg.norm(data)
        cfg = InversionConfig(target_h=0.1, data_target_h=0.085, max_iterations=10)
        recovered, _ = invert_profile(
            data, [PW], GRID, cfg, ProfileParams.heights([0.05] * 5)
        )
        resid = np.linalg.norm(forward_map(recovered, [PW], GRID, 0.1) - data)
        assert resid <= 3.0 * floor

    def test_incident_order_invariance(self):
        truth = ProfileParams.bump(0.3, 0.25)
        incs = [PW, PlaneWave(phi=0.5, theta=0.0, k=2.0, bc=D)]
        data = make_data(truth, incs, target_h=0.085)
        cfg = InversionConfig(target_h=0.1, data_target_h=0.085, max_iterations=4)
        rec_fwd, _ = invert_profile(data, incs, GRID, cfg, ProfileParams.bump(0.15, 0.4))
        data_rev = np.concatenate([data[100:], data[:100]])
        rec_rev, _ = invert_profile(
            data_rev, incs[::-1], GRID, cfg, ProfileParams.bump(0.15, 0.4)
        )
        assert np.allclose(rec_fwd.values, rec_rev.values, rtol=1e-9)

    def test_more_directions_do_not_hurt(self):
        # 1-direction data is a prefix of the 4-direction data (shared noise)
        truth = ProfileParams.bump(0.3, 0.25)
        init = ProfileParams.bump(0.15, 0.4)
        dirs4 = [PW] + [
            PlaneWave(phi=0.5, theta=t, k=2.0, bc=D) for t in (0.0, np.pi / 2, np.pi)
        ]
        data4 = make_data(truth, dirs4, target_h=0.085, seed=606)
        errs = []
        for incs, data in ((dirs4[:1], data4[:100]), (dirs4, data4)):
            cfg = InversionConfig(target_h=0.1, data_target_h=0.085)
            rec, _ = invert_profile(data, incs, GRID, cfg, init)
            errs.append(np.linalg.norm(rec.values - truth.values) / np.linalg.norm(truth.values))
        assert errs[1] <= errs[0]

    def test_data_length_validation(self):
        cfg = InversionConfig(target_h=0.1)
        with pytest.raises(ValueError, match="data length"):
            invert_profile(np.zeros(7), [PW], GRID, cfg, ProfileParams.bump(0.1, 0.3))

    def test_trace_export_schema(self, tmp_path):
        truth = ProfileParams.bump(0.3, 0.25)
        data = forward_map(truth, [PW], GRID, 0.125)
        _, report = invert_profile(data, [PW], GRID, InversionConfig(target_h=0.125), truth)
        path = tmp_path / "trace.csv"
        artifacts.write_inversion_trace(report, path, "feed42")
        lines = path.read_text().splitlines()
        assert lines[0] == "# scene=feed42"
        assert lines[1] == "iter,objective,p0,p1"
        assert lines[2].startswith("0,")


class TestResidualSeparation:
    @staticmethod
    def pyramid(apex, m=9):
        g = np.zeros((m, m))
        g[m // 2, m // 2] = apex
        return build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": g.tolist()})

    def test_identical_profiles_indistinguishable(self):
        sep = residual_separation(self.pyramid(0.5), self.pyramid(0.5), PW, GRID, 0.1)
        assert sep <= 1e-10

    def test_pyramid_heights_distinguishable(self):
        # 1% noise floor on the relative scale is 0.01; demand 10x that
        sep = residual_separation(self.pyramid(0.5), self.pyramid(0.4), PW, GRID, 0.1)
        assert sep >= 10 * 0.01

    def test_rotated_asymmetric_pyramid(self):
        g = np.zeros((9, 9))
        g[4, 4] = 0.5
        g[5, 4] = 0.3
        prof_a = build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": g.tolist()})
        prof_b = build_profile(
            {"kind": "piecewise_linear", "R": 1.0, "heights": np.rot90(g).tolist()}
        )
        inc = PlaneWave(phi=0.4, theta=0.7, k=2.0, bc=D)
        sep = residual_separation(prof_a, prof_b, inc, GRID, 0.1)
        assert sep > 0.0

    def test_accepts_params_and_profiles(self):
        sep = residual_separation(
            ProfileParams.bump(0.3, 0.25), ProfileParams.bump(0.2, 0.25), PW, GRID, 0.125
        )
        assert sep > 0.0
