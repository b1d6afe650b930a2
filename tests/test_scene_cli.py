import dataclasses
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import halfscat.solver as solver_mod
from conftest import canonical_config
from halfscat.cli import main
from halfscat.errors import DippingProfileError, SceneConfigError
from halfscat.geometry import build_profile
from halfscat.incident import PlaneWave, PointSource
from halfscat.kernels import farfield_matrix
from halfscat.scene import build_scene, load_config, validate_config
from halfscat.solver import eval_farfield, solve_scattered
from halfscat.suites import DEFAULT_TOLERANCES, at_least, at_most, refine_scene, within


BUMP = {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}
GRID = {"kind": "piecewise_linear", "R": 1.0}
PEAK_7 = [[1 if (i, j) == (3, 3) else 0 for j in range(7)] for i in range(7)]
PEAK_7_FLOAT = [[float(v) for v in row] for row in PEAK_7]
CANONICAL_YAML = Path(__file__).resolve().parents[1] / "configs" / "canonical.yaml"


class TestConfigValidation:
    def test_canonical_parses(self):
        cfg = validate_config(canonical_config())
        assert cfg.k == 2.0 and cfg.bc == "dirichlet"
        assert len(cfg.incidents) == 1
        assert cfg.scene_hash

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(SceneConfigError, match="wavenumber"):
            validate_config(canonical_config(wavenumber=2.0))
        bad = canonical_config()
        bad["mesh"]["merge_h"] = 0.1
        with pytest.raises(SceneConfigError, match="mesh.merge_h"):
            validate_config(bad)
        bad = canonical_config()
        bad["farfield_grid"]["n_psi"] = 3
        with pytest.raises(SceneConfigError, match="farfield_grid.n_psi"):
            validate_config(bad)

    def test_missing_and_typed_fields(self):
        cfg = canonical_config()
        del cfg["k"]
        with pytest.raises(SceneConfigError, match="k: missing"):
            validate_config(cfg)
        with pytest.raises(SceneConfigError, match="bc"):
            validate_config(canonical_config(bc="robin"))
        with pytest.raises(SceneConfigError, match="k"):
            validate_config(canonical_config(k="two"))
        cfg = canonical_config()
        cfg["incident"] = {"type": "plane", "phi": 0.0}
        with pytest.raises(SceneConfigError, match="incident.theta"):
            validate_config(cfg)

    def test_incident_exclusivity(self):
        cfg = canonical_config()
        cfg["incidents"] = [cfg["incident"]]
        with pytest.raises(SceneConfigError, match="not both"):
            validate_config(cfg)

    def test_hash_semantics(self):
        h1 = validate_config(canonical_config()).scene_hash
        h2 = validate_config(canonical_config()).scene_hash
        assert h1 == h2
        h3 = validate_config(canonical_config(k=2.5)).scene_hash
        assert h3 != h1
        # output location is not scene content
        h4 = validate_config(canonical_config(output_dir="elsewhere")).scene_hash
        assert h4 == h1

    @pytest.mark.parametrize(
        "profile, expected",
        [
            ("bump", "profile"),
            ({"kind": "paraboloid", "R": 1.0}, "profile.kind"),
            ({"kind": "zero", "R": 1.0, "amplitude": 0.1}, "profile.amplitude"),
            ({"kind": "zero", "R": 1.0, "allow_dip": True}, "profile.allow_dip"),
            ({"kind": "gaussian_bump", "R": 1.0, "width": 0.25}, "profile.amplitude"),
            ({"kind": "piecewise_linear", "R": 1.0}, "profile.heights"),
        ]
        + [
            ({**BUMP, name: value}, f"profile.{name}")
            for name in ("R", "amplitude", "width")
            for value in ("0.3", None, [0.3], True)
        ]
        + [
            ({**GRID, "heights": [[0, 0, 0], [0, "a", 0], [0, 0, 0]]}, "profile.heights"),
            ({**GRID, "heights": [[0, 0, 0], [0, 0], [0, 0, 0]]}, "profile.heights"),
            ({**GRID, "heights": [[0, 0], [0, 0]]}, "profile.heights"),
            ({**GRID, "heights": [[0, 0, 0], [0, "0.2", 0], [0, 0, 0]]}, "profile.heights"),
            ({**GRID, "heights": [[0, 0, 0], [0, True, 0], [0, 0, 0]]}, "profile.heights"),
            ({**BUMP, "allow_dip": "no"}, "profile.allow_dip"),
            ({**BUMP, "allow_dip": 1}, "profile.allow_dip"),
            ({**BUMP, "allow_dip": None}, "profile.allow_dip"),
        ],
    )
    def test_one_profile_schema(self, profile, expected):
        with pytest.raises(SceneConfigError) as at_load:
            validate_config(canonical_config(profile=profile))
        with pytest.raises(SceneConfigError) as at_build:
            build_profile(profile)
        assert at_load.value.field == at_build.value.field == expected
        assert str(at_load.value) == str(at_build.value)

    def test_dip_rejected_at_build_not_at_load(self):
        cfg = validate_config(canonical_config(profile={**BUMP, "amplitude": -0.2}))
        with pytest.raises(DippingProfileError):
            build_scene(cfg)

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({}, "26278647f0ac"),
            ({"bc": "neumann"}, "627f8995ed49"),
            ({"profile": {"kind": "piecewise_linear", "R": 2, "heights": PEAK_7}}, "354dea33e382"),
            # heights hash as written: float nodes differ from integer ones
            (
                {"profile": {"kind": "piecewise_linear", "R": 2.0, "heights": PEAK_7_FLOAT}},
                "3d58af7dd2c2",
            ),
        ],
    )
    def test_scene_hash_pinned(self, overrides, expected):
        assert validate_config(canonical_config(**overrides)).scene_hash == expected

    def test_canonical_file_hash_pinned(self):
        assert load_config(CANONICAL_YAML).scene_hash == "26278647f0ac"

    def test_negative_regularization_rejected(self):
        with pytest.raises(SceneConfigError) as exc:
            validate_config(canonical_config(invert={"regularization": -1.0}))
        assert exc.value.field == "invert.regularization"
        for value in (0.0, 2.5, None):
            cfg = validate_config(canonical_config(invert={"regularization": value}))
            assert cfg.invert["regularization"] == value

    def test_yaml_whitespace_irrelevant_to_hash(self, tmp_path):
        base = canonical_config()
        f1 = tmp_path / "a.yaml"
        f2 = tmp_path / "b.yaml"
        f1.write_text(yaml.safe_dump(base))
        f2.write_text(yaml.safe_dump(base, default_flow_style=True))
        assert load_config(f1).scene_hash == load_config(f2).scene_hash

    def test_point_source_must_be_above_surface(self):
        cfg = canonical_config(incident={"type": "point", "z": [0.0, 0.0, 0.1]})
        with pytest.raises(SceneConfigError, match="above the surface"):
            build_scene(validate_config(cfg))

    def test_build_scene_objects(self):
        cfg = canonical_config(
            incidents=[
                {"type": "plane", "phi": 0.0, "theta": 0.0},
                {"type": "point", "z": [0.5, 0.0, 1.5]},
            ]
        )
        del cfg["incident"]
        scene = build_scene(validate_config(cfg))
        assert isinstance(scene.incidents[0], PlaneWave)
        assert isinstance(scene.incidents[1], PointSource)
        assert scene.grid.size == 100
        assert scene.mesh.n_panels == 864


def write_config(tmp_path, cfg, name="scene.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.fixture()
def flat_config(tmp_path):
    cfg = canonical_config(
        profile={"kind": "zero", "R": 1.0},
        mesh={"target_h": 0.18},
    )
    return write_config(tmp_path, cfg)


class TestCli:
    def test_dry_run(self, flat_config, capsys, tmp_path):
        code = main(["forward", "--config", flat_config, "--out", str(tmp_path / "o"),
                     "--dry-run"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run" in out and "scene_hash" in out
        panels = build_scene(load_config(flat_config)).mesh.n_panels
        assert f"dense_system_mb: {round(32 * panels**2 / 2**20, 1)}" in out
        assert "lipschitz_constant: 0.0\n" in out
        assert not (tmp_path / "o").exists()
        bump = write_config(tmp_path, canonical_config(), name="bump.yaml")
        assert main(["forward", "--config", bump, "--dry-run"]) == 0
        slope = build_scene(load_config(bump)).profile.max_slope
        assert slope > 0 and f"lipschitz_constant: {slope}\n" in capsys.readouterr().out
        # identities factors the h/2 mesh too, so that system sets the size
        assert main(["identities", "--config", flat_config, "--dry-run"]) == 0
        out = capsys.readouterr().out
        fine = refine_scene(build_scene(load_config(flat_config))).mesh.n_panels
        assert fine > panels and f"dense_system_mb: {round(32 * fine**2 / 2**20, 1)}\n" in out
        coarse_data = write_config(tmp_path, canonical_config(invert={"data_target_h": 0.5}),
                                   name="coarse_data.yaml")
        assert main(["invert", "--config", coarse_data, "--dry-run"]) == 2
        assert "target_h=0.5 too coarse" in capsys.readouterr().err
        # the dry run refuses a scene the invert experiment cannot use, as the run does
        assert main(["invert", "--config", flat_config, "--dry-run"]) == 2
        dry_err = capsys.readouterr().err
        assert dry_err == ("error: invalid config: profile.kind: invert experiment needs a "
                           "gaussian_bump scene\n")
        assert main(["invert", "--config", flat_config, "--out", str(tmp_path / "inv")]) == 2
        assert capsys.readouterr().err == dry_err

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, canonical_config(bc="robin"))
        code = main(["forward", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bc" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["forward", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    def test_forward_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, canonical_config(mesh={"target_h": 0.125}))
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        for name in ("farfield_000.csv", "density_000.csv", "mesh.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            assert b1 == (tmp_path / "r2" / name).read_bytes()
            assert b1.startswith(b"#")  # provenance header with the scene hash

    def test_identities_zero_scene_trivially_passes(self, flat_config, tmp_path, capsys):
        code = main(["identities", "--config", flat_config, "--out", str(tmp_path / "id")])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        lines = (tmp_path / "id" / "identities.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert any(r.get("name") == "mixed_reciprocity" for r in records)

    def test_threads_numerically_identical(self, flat_config, tmp_path, capsys):
        assert main(["identities", "--config", flat_config, "--out", str(tmp_path / "t1"),
                     "--threads", "1"]) == 0
        assert main(["identities", "--config", flat_config, "--out", str(tmp_path / "t2"),
                     "--threads", "3"]) == 0
        b1 = (tmp_path / "t1" / "identities.jsonl").read_bytes()
        assert b1 == (tmp_path / "t2" / "identities.jsonl").read_bytes()

    def test_threads_flag_starts_no_thread(self, flat_config, tmp_path, capsys, monkeypatch):
        def refuse(thread):
            raise RuntimeError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["identities", "--config", flat_config, "--out", str(tmp_path / "o"),
                     "--threads", "3"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_tolerance_scale_loosens_indicator(self, tmp_path, capsys):
        # at target_h = 0.1 the blow-up ratio is ~8.2: below the default 10,
        # inside the bound once the tolerances are scaled by 1.3
        cfg = write_config(tmp_path, canonical_config(mesh={"target_h": 0.1}))
        code = main(["indicator", "--config", cfg, "--out", str(tmp_path / "i1")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        code = main(["indicator", "--config", cfg, "--out", str(tmp_path / "i2"),
                     "--tolerance-scale", "1.3"])
        assert code == 0
        header = (tmp_path / "i2" / "indicator_descend.csv").read_text().splitlines()[0]
        assert header.startswith("# scene=")

    def test_invert_refuses_matching_meshes(self, tmp_path, capsys):
        cfg = canonical_config(mesh={"target_h": 0.125})
        cfg["invert"] = {"init": [0.15, 0.4], "data_target_h": 0.125, "noise_level": 0.01}
        path = write_config(tmp_path, cfg)
        code = main(["invert", "--config", path, "--out", str(tmp_path / "inv")])
        assert code == 2
        assert "same mesh discretization" in capsys.readouterr().err

    def test_forward_multiple_incidents(self, tmp_path, capsys, monkeypatch):
        cfg = canonical_config(mesh={"target_h": 0.18})
        cfg["incidents"] = [
            {"type": "plane", "phi": 0.0, "theta": 0.0},
            {"type": "point", "z": [0.5, 0.0, 1.5]},
        ]
        del cfg["incident"]
        path = write_config(tmp_path, cfg)
        built_rows = []

        def counting_farfield_matrix(kern, xhat, *args, **kwargs):
            built_rows.append(len(xhat))
            return farfield_matrix(kern, xhat, *args, **kwargs)

        monkeypatch.setattr(solver_mod, "farfield_matrix", counting_farfield_matrix)
        assert main(["forward", "--config", path, "--out", str(tmp_path / "multi")]) == 0
        scene = build_scene(validate_config(cfg))
        # one operator for both incidents: every direction's row built once
        assert built_rows == [scene.grid.size]
        for i, inc in enumerate(scene.incidents):
            assert (tmp_path / "multi" / f"density_{i:03d}.csv").exists()
            lines = (tmp_path / "multi" / f"farfield_{i:03d}.csv").read_text().splitlines()
            rows = np.array([line.split(",") for line in lines[2:]], dtype=float)
            density, _ = solve_scattered(scene.mesh, inc)
            expect = eval_farfield(density, scene.mesh, scene.grid).values
            got = rows[:, 2] + 1j * rows[:, 3]
            assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_solve_report_cache_and_timings(self, tmp_path, capsys):
        cfg = canonical_config(profile={"kind": "zero", "R": 1.0}, mesh={"target_h": 0.18})
        cfg["incidents"] = [
            {"type": "plane", "phi": 0.0, "theta": 0.0},
            {"type": "point", "z": [0.5, 0.0, 1.5]},
        ]
        del cfg["incident"]
        path = write_config(tmp_path, cfg)
        solver_mod.clear_factorization_cache()
        assert main(["forward", "--config", path, "--out", str(tmp_path / "o")]) == 0
        solves = json.loads((tmp_path / "o" / "solve_report.json").read_text())["solves"]
        assert [s["cache_hit"] for s in solves] == [False, True]
        assert solves[0]["assembly_time_s"] > 0 and solves[0]["factor_time_s"] > 0
        assert solves[1]["assembly_time_s"] == solves[1]["factor_time_s"] == 0.0

    def test_indicator_config_overrides(self, tmp_path, capsys):
        cfg = canonical_config(mesh={"target_h": 0.1})
        cfg["indicator"] = {"n_samples": 6, "top": 1.2, "far_factor": 4.0}
        path = write_config(tmp_path, cfg)
        main(["indicator", "--config", path, "--out", str(tmp_path / "ind")])
        lines = (tmp_path / "ind" / "indicator_descend.csv").read_text().splitlines()
        assert lines[1] == "x,y,z,I"
        assert len(lines) == 2 + 6  # hash line + header + samples
        far = (tmp_path / "ind" / "indicator_offline.csv").read_text().splitlines()
        assert far[2].startswith("4,")  # far line at far_factor * R

    def test_identities_with_point_source_incident(self, tmp_path, capsys):
        cfg = canonical_config(
            mesh={"target_h": 0.18},
            incident={"type": "point", "z": [0.4, 0.0, 1.4]},
        )
        path = write_config(tmp_path, cfg)
        code = main(["identities", "--config", path, "--out", str(tmp_path / "pid")])
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_convergence_subcommand(self, tmp_path, capsys):
        cfg = canonical_config(mesh={"target_h": 0.18})
        cfg["farfield_grid"] = {"n_theta": 6, "n_phi": 5}
        path = write_config(tmp_path, cfg)
        code = main(["convergence", "--config", path, "--out", str(tmp_path / "cv")])
        assert code == 0
        payload = json.loads((tmp_path / "cv" / "convergence.json").read_text())
        assert payload["passed"] and payload["value"] <= 5e-2

    def test_forward_density_schema(self, flat_config, tmp_path, capsys):
        assert main(["forward", "--config", flat_config, "--out", str(tmp_path / "f")]) == 0
        lines = (tmp_path / "f" / "density_000.csv").read_text().splitlines()
        assert lines[0].startswith("# scene=")
        assert lines[1] == "panel_id,re,im"

    def test_maxwell_subcommand(self, flat_config, tmp_path, capsys):
        code = main(["maxwell", "--config", flat_config, "--out", str(tmp_path / "mx")])
        assert code == 0
        lines = (tmp_path / "mx" / "maxwell.jsonl").read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["passed"] for line in lines)

    def test_out_dir_resolution(self, flat_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HALFSCAT_OUT", str(tmp_path / "env_out"))
        assert main(["maxwell", "--config", flat_config]) == 0
        assert (tmp_path / "env_out" / "maxwell.jsonl").exists()
        # explicit flag wins over the environment
        assert main(["maxwell", "--config", flat_config, "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "maxwell.jsonl").exists()

    def test_tolerance_breach_prints_the_compared_bound(self, tmp_path, capsys):
        code = main(["maxwell", "--config", str(CANONICAL_YAML), "--out", str(tmp_path / "mx"),
                     "--tolerance-scale", "1e-9"])
        assert code == 1
        lines = [re.fullmatch(r"\[(PASS|FAIL)\] \w+: (\S+) \((.*)\)", line)
                 for line in capsys.readouterr().out.splitlines()[:-1]]
        assert [m.group(3) for m in lines] == [
            "relative tangential residual <= 1e-21 at 200 plane samples",
            "E and H reflection residuals <= 1e-21 relative",
            "curl-system FD residual <= 1e-14",
            "divergence FD residual <= 1e-14",
            "|H x x - r E| log-log slope <= -1",
        ]
        for m in lines:
            bound = float(re.search(r"<= (\S+)", m.group(3)).group(1))
            assert (m.group(1) == "PASS") == (float(m.group(2)) <= bound)

    def test_bad_flags(self, flat_config, capsys):
        assert main(["maxwell", "--config", flat_config, "--threads", "0"]) == 2
        for scale in ("0", "inf", "nan"):
            assert main(["maxwell", "--config", flat_config, "--tolerance-scale", scale]) == 2


class TestSuiteHelpers:
    def test_tolerances_scaled_field_by_field(self):
        expected = {
            "mixed_reciprocity": 4e-2,
            "point_symmetry": 4e-2,
            "reflected_farfield": 2e-12,
            "extension": 2e-12,
            "decay_slope_center": -2.0,
            "decay_slope_halfwidth": 0.4,
            "pec": 2e-12,
            "reflection": 2e-12,
            "maxwell_fd": 2e-5,
            "sm_slope_margin": 0.4,
            "indicator_ratio": 5.0,
            "offline_ratio": 4.0,
            "invert_param_rel": 0.1,
            "convergence": 0.1,
        }
        assert dataclasses.asdict(DEFAULT_TOLERANCES.scaled(2.0)) == expected
        assert DEFAULT_TOLERANCES.scaled(1.0) is DEFAULT_TOLERANCES

    def test_check_helpers_print_the_compared_bound(self):
        nan = float("nan")
        for helper, template in ((at_most, "x <= {:g} here"), (at_least, "x >= {:.3e}")):
            at_bound = helper("c", 0.25, 0.25, template)
            assert at_bound.passed and at_bound.requirement == template.format(0.25)
            assert not helper("c", nan, 0.25, template).passed
        assert not at_most("c", 0.3, 0.25, "{}").passed
        assert not at_least("c", 0.2, 0.25, "{}").passed
        for edge in (-2.2, -1.8):
            res = within("slope", edge, -2.2, -1.8)
            assert res.passed and res.requirement == "slope in [-2.2, -1.8]"
        assert not within("slope", -1.7, -2.2, -1.8).passed
        assert not within("slope", nan, -2.2, -1.8).passed

    def test_refined_scene_metadata(self, flat_scene):
        fine = refine_scene(flat_scene)
        assert fine.scene_hash == flat_scene.scene_hash
        assert fine.mesh.content_hash != flat_scene.mesh.content_hash
        assert fine.mesh.h < flat_scene.mesh.h
