import json

import numpy as np
import pytest

import halfscat.solver as solver_mod
from halfscat.identities import (
    check_extension,
    check_kernel_radiation_decay,
    check_mixed_reciprocity,
    check_point_symmetry,
    check_radiation_decay,
    check_reflected_farfield,
    relative_error,
)
from halfscat.incident import BoundaryCondition
from halfscat.solver import LayerDensity, solve_scattered
from halfscat.suites import (
    extension_samples,
    reflected_farfield_triples,
    run_identities,
    symmetry_pairs,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


class TestMixedReciprocity:
    def test_zero_profile_trivial(self, flat_scene):
        rep = check_mixed_reciprocity(
            flat_scene, np.array([0.0, 0.0, -1.0]), np.array([0.5, 0.0, 1.5])
        )
        assert rep.lhs == 0.0 and rep.rhs == 0.0
        assert rep.rel_err == 0.0  # floored denominator keeps 0/0 well defined

    def test_canonical_dirichlet(self, canonical_dirichlet):
        rep = check_mixed_reciprocity(
            canonical_dirichlet, np.array([0.0, 0.0, -1.0]), np.array([0.5, 0.0, 1.5])
        )
        assert rep.rel_err <= 2e-2
        assert rep.abs_err == abs(rep.lhs - rep.rhs)

    def test_canonical_neumann(self, canonical_neumann):
        rep = check_mixed_reciprocity(
            canonical_neumann, np.array([0.0, 0.0, -1.0]), np.array([0.5, 0.0, 1.5])
        )
        assert rep.rel_err <= 2e-2

    def test_report_serialization(self, canonical_dirichlet):
        rep = check_mixed_reciprocity(
            canonical_dirichlet, np.array([0.0, 0.0, -1.0]), np.array([0.5, 0.0, 1.5])
        )
        record = json.loads(rep.to_json_line())
        assert set(record) == {
            "name", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_err", "rel_err", "scene_hash",
        }
        assert record["scene_hash"] == canonical_dirichlet.scene_hash

    def test_deterministic(self, canonical_dirichlet):
        d = np.array([0.0, 0.0, -1.0])
        z = np.array([0.5, 0.0, 1.5])
        r1 = check_mixed_reciprocity(canonical_dirichlet, d, z)
        r2 = check_mixed_reciprocity(canonical_dirichlet, d, z)
        assert r1.lhs == r2.lhs and r1.rhs == r2.rhs


class TestPointSymmetry:
    @pytest.mark.parametrize("scene_name", ["canonical_dirichlet", "canonical_neumann"])
    def test_spec_pair(self, scene_name, request):
        scene = request.getfixturevalue(scene_name)
        rep = check_point_symmetry(
            scene, np.array([0.6, 0.0, 1.2]), np.array([-0.4, 0.3, 1.8])
        )
        assert rep.rel_err <= 2e-2

    def test_low_points_over_rim(self, canonical_dirichlet):
        # both points below the apex height, echoing the mirrored-region layout
        rep = check_point_symmetry(
            canonical_dirichlet, np.array([1.35, 0.0, 0.25]), np.array([-1.4, 0.2, 0.25])
        )
        assert rep.rel_err <= 2e-2

    def test_random_pair_suite(self, canonical_dirichlet):
        for x, y in symmetry_pairs(canonical_dirichlet):
            rep = check_point_symmetry(canonical_dirichlet, x, y)
            assert rep.rel_err <= 2e-2


class TestReflectedFarField:
    def test_spec_instance(self):
        # k=1, z=(0,0,1), d=(0,0,-1): both sides equal -e^{ik d.z'} = -e^{i}
        rep = check_reflected_farfield(
            np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]), 1.0, D
        )
        assert rep.rel_err <= 1e-12
        assert rep.lhs == pytest.approx(-np.exp(1j), abs=1e-15)

    def test_bc_flip_changes_only_sign(self):
        z = np.array([0.3, -0.4, 0.8])
        d = np.array([0.2, 0.1, -0.97])
        d /= np.linalg.norm(d)
        rd = check_reflected_farfield(z, d, 2.0, D)
        rn = check_reflected_farfield(z, d, 2.0, N)
        assert rd.lhs == pytest.approx(-rn.lhs, abs=1e-15)
        assert rd.rhs == pytest.approx(-rn.rhs, abs=1e-15)

    def test_source_on_plane(self):
        rep = check_reflected_farfield(
            np.array([0.7, 0.2, 0.0]), np.array([0.1, -0.3, -0.94]), 1.7, D
        )
        assert rep.rel_err <= 1e-12

    def test_random_triples_both_bcs(self):
        for bc in (D, N):
            worst = 0.0
            for z, d, k in reflected_farfield_triples(seed=7, n=100):
                worst = max(worst, check_reflected_farfield(z, d, k, bc).rel_err)
            assert worst <= 1e-12


class TestExtension:
    @pytest.mark.parametrize(
        "scene_name", ["canonical_dirichlet", "canonical_neumann"]
    )
    def test_mirror_extension_exact(self, scene_name, request):
        scene = request.getfixturevalue(scene_name)
        density, _ = solve_scattered(scene.mesh, scene.incidents[0])
        rep = check_extension(density, scene.mesh, extension_samples(scene), scene.scene_hash)
        assert rep.abs_err <= 1e-12

    def test_zero_density(self, canonical_dirichlet):
        mesh = canonical_dirichlet.mesh
        density = LayerDensity(
            coefficients=np.zeros(mesh.n_panels, dtype=complex),
            bc=D,
            k=2.0,
        )
        rep = check_extension(density, mesh, extension_samples(canonical_dirichlet))
        assert rep.abs_err == 0.0


class TestRadiationDecay:
    def test_solved_scene_slope(self, canonical_dirichlet):
        scene = canonical_dirichlet
        density, _ = solve_scattered(scene.mesh, scene.incidents[0])
        rep = check_radiation_decay(
            density, scene.mesh, scene.incidents[0], np.array([0.0, 0.0, 1.0])
        )
        assert not rep.vacuous
        assert -2.2 <= rep.slope <= -1.8
        assert rep.radii[0] == pytest.approx(10.0) and rep.radii[-1] == pytest.approx(100.0)

    def test_bare_kernel_slope(self):
        rep = check_kernel_radiation_decay(
            2.0, D, np.array([0.3, -0.2, 0.5]), np.array([0.0, 0.0, 1.0])
        )
        assert -2.2 <= rep.slope <= -1.8

    def test_zero_density_vacuous(self, canonical_dirichlet):
        mesh = canonical_dirichlet.mesh
        density = LayerDensity(
            coefficients=np.zeros(mesh.n_panels, dtype=complex),
            bc=D,
            k=2.0,
        )
        rep = check_radiation_decay(density, mesh, None, np.array([0.0, 0.0, 1.0]))
        assert rep.vacuous
        assert json.loads(rep.to_json_line())["vacuous"] is True


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 0.0) == 1.0


def test_identity_suite_factors_each_mesh_once(flat_scene, monkeypatch):
    """The h/2 check runs after every scene-mesh solve, so the one cached
    factorization is built once per mesh; its result still comes fourth."""
    assembled = []
    assemble = solver_mod._assemble_matrix

    def counting(mesh, *args):
        assembled.append(mesh.n_panels)
        return assemble(mesh, *args)

    solver_mod.clear_factorization_cache()
    monkeypatch.setattr(solver_mod, "_assemble_matrix", counting)
    results, reports = run_identities(flat_scene)
    assert len(assembled) == 2
    assert results[3].name == "mixed_reciprocity_monotone"
    assert reports[3].name == "mixed_reciprocity"
