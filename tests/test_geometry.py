import dataclasses

import numpy as np
import pytest

import halfscat.geometry as geometry_mod
from halfscat import artifacts
from halfscat.errors import DippingProfileError, SceneConfigError
from halfscat.geometry import (
    SurfaceProfile,
    build_profile,
    mesh_perturbation,
    ring_count,
)


def pyramid_heights(apex=0.5, m=9):
    g = np.zeros((m, m))
    g[m // 2, m // 2] = apex
    return g.tolist()


class TestBuildProfile:
    def test_zero_profile(self):
        prof = build_profile({"kind": "zero", "R": 1.0})
        assert prof.max_slope == 0.0
        pts = np.array([[0.0, 0.0], [0.5, 0.2], [2.0, 0.0]])
        assert np.all(prof.height(pts) == 0.0)

    def test_gaussian_bump_values(self):
        prof = build_profile(
            {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}
        )
        assert prof.height(np.array([0.0, 0.0])) == pytest.approx(0.3, abs=0.0)
        # exactly zero on and outside the support rim
        assert prof.height(np.array([1.0, 0.0])) == 0.0
        assert prof.height(np.array([0.0, -1.0])) == 0.0
        assert prof.height(np.array([1.7, 0.4])) == 0.0

    def test_pyramid_max_slope_brute_force(self):
        # independent oracle: rebuild every facet's plane from its three node
        # heights with a linear solve and take the steepest gradient
        prof = build_profile(
            {"kind": "piecewise_linear", "R": 1.0, "heights": pyramid_heights()}
        )
        xs = prof.node_xs
        h = np.asarray(prof.heights)
        worst = 0.0
        for i in range(8):
            for j in range(8):
                a = (xs[i], xs[j], h[i, j])
                b = (xs[i + 1], xs[j], h[i + 1, j])
                c = (xs[i + 1], xs[j + 1], h[i + 1, j + 1])
                d = (xs[i], xs[j + 1], h[i, j + 1])
                facets = ((a, b, c), (a, c, d)) if (i + j) % 2 == 0 else ((a, b, d), (b, c, d))
                for p0, p1, p2 in facets:
                    A = np.array([[p0[0], p0[1], 1.0], [p1[0], p1[1], 1.0], [p2[0], p2[1], 1.0]])
                    gx, gy, _ = np.linalg.solve(A, np.array([p0[2], p1[2], p2[2]]))
                    worst = max(worst, float(np.hypot(gx, gy)))
        assert prof.max_slope == pytest.approx(worst, rel=1e-12)
        # apex height over one node spacing (2R/8 = 0.25)
        assert worst == pytest.approx(0.5 / 0.25, rel=1e-12)

    def test_pl_interpolation_matches_nodes(self):
        prof = build_profile(
            {"kind": "piecewise_linear", "R": 1.0, "heights": pyramid_heights()}
        )
        assert prof.height(np.array([0.0, 0.0])) == pytest.approx(0.5)
        # halfway along the axis toward a zero node
        assert prof.height(np.array([0.125, 0.0])) == pytest.approx(0.25)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SceneConfigError, match="profile.R"):
            build_profile({"kind": "zero", "R": -1.0})
        with pytest.raises(SceneConfigError, match="kind"):
            build_profile({"kind": "paraboloid", "R": 1.0})
        with pytest.raises(SceneConfigError, match="unknown key"):
            build_profile({"kind": "zero", "R": 1.0, "amplitude": 0.1})
        heights = pyramid_heights()
        heights[0][3] = 0.2  # boundary ring must stay flat
        with pytest.raises(SceneConfigError, match="boundary-ring"):
            build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": heights})
        heights = pyramid_heights()
        heights[4][4] = float("nan")
        with pytest.raises(SceneConfigError, match="NaN"):
            build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": heights})
        for value in (float("inf"), -float("inf")):
            heights[4][4] = value
            with pytest.raises(SceneConfigError, match="profile.heights.*infinite"):
                build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": heights})

    @pytest.mark.parametrize("field", ["R", "amplitude", "width"])
    @pytest.mark.parametrize("value", ["0.3", None, [0.3], True])
    def test_rejects_non_numeric_scalars(self, field, value):
        spec = {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}
        spec[field] = value
        with pytest.raises(SceneConfigError, match=f"profile.{field}"):
            build_profile(spec)

    def test_dip_rejected(self):
        spec = {"kind": "gaussian_bump", "R": 1.0, "amplitude": -0.2, "width": 0.25}
        with pytest.raises(DippingProfileError):
            build_profile(spec)
        heights = np.array(pyramid_heights())
        heights[4, 4] = -0.1
        with pytest.raises(DippingProfileError):
            build_profile({"kind": "piecewise_linear", "R": 1.0, "heights": heights.tolist()})
        with pytest.raises(SceneConfigError, match="profile.allow_dip: unknown key"):
            build_profile({**spec, "allow_dip": True})

    def test_nonzero_node_too_close_to_rim(self):
        heights = np.zeros((9, 9))
        heights[1][4] = 0.1  # inside the boundary ring but support leaks past R
        with pytest.raises(SceneConfigError, match="support rim"):
            build_profile(
                {"kind": "piecewise_linear", "R": 1.0, "heights": heights.tolist()}
            )


class TestMesh:
    def test_flat_mesh_normals_exact(self):
        mesh = mesh_perturbation(build_profile({"kind": "zero", "R": 1.0}), 0.25)
        assert np.all(mesh.normals == np.array([0.0, 0.0, 1.0]))
        assert np.all(mesh.vertices[:, 2] == 0.0)

    def test_flat_mesh_area_is_inscribed_polygon(self):
        # the triangulation covers the inscribed polygon of the outer ring
        # exactly; pi R^2 is the continuum limit from below
        mesh = mesh_perturbation(build_profile({"kind": "zero", "R": 1.0}), 0.25)
        m = 6 * mesh.n_rings
        polygon = 0.5 * m * np.sin(2 * np.pi / m)
        assert mesh.total_area == pytest.approx(polygon, rel=1e-12)
        assert mesh.total_area < np.pi

    def test_bump_mesh_area_exceeds_disc(self):
        prof = build_profile(
            {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}
        )
        flat = mesh_perturbation(build_profile({"kind": "zero", "R": 1.0}), 0.1)
        bump = mesh_perturbation(prof, 0.1)
        assert bump.total_area >= np.pi
        assert bump.total_area > flat.total_area

    def test_refinement_quadruples_panels(self):
        prof = build_profile({"kind": "zero", "R": 1.0})
        n1 = mesh_perturbation(prof, 0.25).n_panels
        n2 = mesh_perturbation(prof, 0.125).n_panels
        assert 3.5 <= n2 / n1 <= 4.5

    def test_vertices_on_graph_and_rim_flat(self):
        prof = build_profile(
            {"kind": "piecewise_linear", "R": 1.0, "heights": pyramid_heights()}
        )
        mesh = mesh_perturbation(prof, 0.1)
        expected = prof.height(mesh.vertices[:, :2])
        rim = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]) >= 1.0 - 1e-12
        assert np.all(mesh.vertices[rim, 2] == 0.0)
        inner = ~rim
        assert np.array_equal(mesh.vertices[inner, 2], expected[inner])

    def test_area_refinement_converges(self):
        prof = build_profile(
            {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}
        )
        areas = [mesh_perturbation(prof, h).total_area for h in (0.25, 0.125, 0.0625)]
        gaps = np.abs(np.diff(areas))
        assert gaps[1] < gaps[0]

    def test_mesh_validation(self):
        prof = build_profile({"kind": "zero", "R": 1.0})
        with pytest.raises(ValueError, match="target_h"):
            mesh_perturbation(prof, 0.3)  # > R/4
        with pytest.raises(ValueError, match="target_h"):
            mesh_perturbation(prof, 0.0)

    def test_dipping_profile_not_meshed(self):
        """A profile built without ``build_profile`` is checked where it is
        meshed: no vertex may lie below the ground plane."""
        heights = np.zeros((9, 9))
        heights[4, 4] = -0.1
        dipped = [
            SurfaceProfile(kind="gaussian_bump", support_radius=1.0, amplitude=-0.2, width=0.25),
            SurfaceProfile(kind="piecewise_linear", support_radius=1.0, heights=heights,
                           node_xs=np.linspace(-1.0, 1.0, 9)),
        ]
        for prof in dipped:
            with pytest.raises(DippingProfileError):
                mesh_perturbation(prof, 0.1)

    def test_ring_count_identifies_grid(self):
        flat = build_profile({"kind": "zero", "R": 1.0})
        bump = build_profile(
            {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}
        )
        m1 = mesh_perturbation(flat, 0.125)
        m2 = mesh_perturbation(bump, 0.125)
        m3 = mesh_perturbation(bump, 0.25)
        # same discretization rule on different surfaces
        assert m1.n_rings == m2.n_rings == ring_count(1.0, 0.125)
        assert not np.array_equal(m1.vertices, m2.vertices)
        assert m2.n_rings != m3.n_rings == ring_count(1.0, 0.25)

    @pytest.mark.parametrize("spec", [
        {"kind": "gaussian_bump", "R": 1.0, "width": 0.25},
        {"kind": "piecewise_linear", "R": 1.0},
    ])
    def test_topology_is_shared_per_ring_count(self, spec):
        def profile(height):
            if spec["kind"] == "gaussian_bump":
                return build_profile({**spec, "amplitude": height})
            return build_profile({**spec, "heights": pyramid_heights(height)})

        a = mesh_perturbation(profile(0.3), 0.125)
        b = mesh_perturbation(profile(0.2), 0.125)
        topo = a.topology()
        key = (ring_count(1.0, 0.125), 1 if spec["kind"] == "piecewise_linear" else 6)
        assert list(geometry_mod._TOPOLOGY_CACHE) == [key] == [(a.n_rings, a.sectors)]
        assert b.topology() is topo and b.sector_orbits() is topo.orbits
        assert a.triangles is b.triangles is topo.triangles
        assert not np.array_equal(a.vertices, b.vertices)
        fresh = geometry_mod._build_topology(*key)
        for field in dataclasses.fields(topo):
            cached, built = getattr(topo, field.name), getattr(fresh, field.name)
            assert not cached.flags.writeable
            assert cached.dtype == built.dtype and cached.shape == built.shape
            assert cached.tobytes() == built.tobytes(), field.name
        planar, tris = geometry_mod._disc_grid(a.n_rings)
        assert np.array_equal(topo.planar, planar) and np.array_equal(topo.triangles, tris)
        # a miss evicts the entry: one ring count is held at a time
        c = mesh_perturbation(profile(0.3), 0.25)
        assert list(geometry_mod._TOPOLOGY_CACHE) == [(c.n_rings, c.sectors)]
        assert a.topology() is not topo

    def test_export_csv(self, tmp_path):
        mesh = mesh_perturbation(build_profile({"kind": "zero", "R": 1.0}), 0.25)
        path = tmp_path / "mesh.csv"
        artifacts.write_mesh(mesh, path, "cafe01")
        lines = path.read_text().splitlines()
        assert lines[0] == "# scene=cafe01"
        header = lines[1].split(",")
        assert header[:2] == ["panel_id", "v1x"] and header[-1] == "nz"
        assert len(lines) == 2 + mesh.n_panels

