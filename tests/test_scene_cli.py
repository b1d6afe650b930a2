import ctypes
import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

import halfscat
import halfscat.cli as cli_mod
import halfscat.geometry as geometry_mod
import halfscat.inverse as inverse_mod
import halfscat.scene as scene_mod
import halfscat.solver as solver_mod
import halfscat.suites as suites_mod
import halfscat.util as util_mod
from conftest import canonical_config
from halfscat.cli import main
from halfscat.errors import DippingProfileError, SceneConfigError
from halfscat.geometry import build_profile
from halfscat.incident import PlaneWave, PointSource
from halfscat.kernels import farfield_matrix
from halfscat.scene import build_scene, load_config, validate_config
from halfscat.solver import eval_farfield, solve_scattered
from halfscat.suites import at_least, at_most, refine_scene, within


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
            ({}, "129e7b9d95e3"),
            ({"bc": "neumann"}, "de32b2ffd1ed"),
            ({"profile": {"kind": "piecewise_linear", "R": 2, "heights": PEAK_7}}, "74ec6e61ff8e"),
            # heights hash as written: float nodes differ from integer ones
            (
                {"profile": {"kind": "piecewise_linear", "R": 2.0, "heights": PEAK_7_FLOAT}},
                "9a7dabdf1861",
            ),
        ],
        ids=["canonical", "neumann", "piecewise-int-heights", "piecewise-float-heights"],
    )
    def test_scene_hash_pinned(self, overrides, expected):
        assert validate_config(canonical_config(**overrides)).scene_hash == expected

    def test_canonical_file_hash_pinned(self):
        assert load_config(CANONICAL_YAML).scene_hash == "129e7b9d95e3"

    def test_negative_noise_level_rejected(self):
        # a negative noise level would flip the noise's sign under a new hash
        with pytest.raises(SceneConfigError) as exc:
            validate_config(canonical_config(invert={"noise_level": -0.5}))
        assert exc.value.field == "invert.noise_level"
        for value in (0.0, 0.5):
            cfg = validate_config(canonical_config(invert={"noise_level": value}))
            assert cfg.invert["noise_level"] == value

    def test_yaml_whitespace_irrelevant_to_hash(self, tmp_path):
        base = canonical_config()
        f1 = tmp_path / "a.yaml"
        f2 = tmp_path / "b.yaml"
        f1.write_text(yaml.safe_dump(base))
        f2.write_text(yaml.safe_dump(base, default_flow_style=True))
        assert load_config(f1).scene_hash == load_config(f2).scene_hash

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_builds_the_same_scene(self, tmp_path, monkeypatch):
        """libyaml's parser gives the dicts and scene hashes of the
        pure-Python one, on the canonical scene and on 32 incidents."""
        assert scene_mod._YAML_LOADER is yaml.CSafeLoader
        phi, theta, x, y, z = np.random.default_rng(32).uniform(
            [-1.2, 0.0, -0.5, -0.5, 1.2], [1.2, 2 * np.pi, 0.5, 0.5, 2.0], (32, 5)).T.tolist()
        cfg = canonical_config(incidents=[
            *({"type": "plane", "phi": phi[i], "theta": theta[i]} for i in range(24)),
            *({"type": "point", "z": [x[i], y[i], z[i]]} for i in range(24, 32)),
        ])
        del cfg["incident"]
        for path in (CANONICAL_YAML, Path(write_config(tmp_path, cfg))):
            text = path.read_text()
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
            hashes = []
            for loader in (yaml.CSafeLoader, yaml.SafeLoader):
                monkeypatch.setattr(scene_mod, "_YAML_LOADER", loader)
                hashes.append(load_config(path).scene_hash)
            assert hashes[0] == hashes[1]
        assert len(load_config(path).incidents) == 32

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
        # a flat disc is C6-symmetric: six blocks of (n/6)^2 entries and their LUs
        assert f"dense_system_mb: {round(32 * panels**2 / 6 / 2**20, 1)}\n" in out
        assert "symmetry_sectors: 6\n" in out
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
        assert fine > panels and f"dense_system_mb: {round(32 * fine**2 / 6 / 2**20, 1)}\n" in out
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

    @pytest.mark.parametrize("verb, field, profile, target_h", [
        pytest.param("invert", "profile.amplitude", {**BUMP, "amplitude": 0.0}, 0.25,
                     id="invert-profile.amplitude"),
        pytest.param("indicator", "profile", {**BUMP, "amplitude": 0.0}, 0.25,
                     id="indicator-profile"),
        pytest.param("indicator", "profile", {"kind": "zero", "R": 1.0}, 0.25,
                     id="indicator-zero"),
        pytest.param("indicator", "profile", {**GRID, "heights": [[0.0] * 7] * 7}, 0.125,
                     id="indicator-piecewise_linear"),
    ])
    def test_flat_bump_refused(self, tmp_path, capsys, verb, field, profile, target_h):
        """A surface of height 0 scatters nothing: the inversion's Gauss-Newton
        system is singular and the indicator's ratios are 0/0.  Both verbs
        refuse it as an input error, in the dry run as in the run, which
        writes nothing."""
        path = write_config(tmp_path, canonical_config(profile=profile,
                                                       mesh={"target_h": target_h}))
        assert main([verb, "--config", path, "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid config: {field}: ") and "flat" in err
        assert main([verb, "--config", path, "--out", str(tmp_path / verb)]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / verb).exists()

    @pytest.mark.parametrize("data_target_h", [0.07, 0.1])
    def test_dry_run_meshes_only_the_scene(self, tmp_path, capsys, monkeypatch, data_target_h):
        """Every verb's plan sizes its largest system from ring counts, so the
        scene's mesh is the only one built, and the sizes are those of the
        meshes the run factors: h/2 for identities and convergence, the
        larger of the scene and data meshes for invert."""
        path = write_config(tmp_path, canonical_config(invert={"data_target_h": data_target_h}))
        scene = build_scene(load_config(path))
        panels = scene.mesh.n_panels
        fine = refine_scene(scene).mesh.n_panels
        data = geometry_mod.mesh_perturbation(scene.profile, data_target_h).n_panels
        expected = {"forward": (panels, 6), "identities": (fine, 6), "maxwell": (0, 1),
                    "indicator": (panels, 6), "invert": (max(panels, data), 6),
                    "convergence": (fine, 6)}
        calls = []

        def counted(profile, target_h):
            calls.append(target_h)
            return geometry_mod.mesh_perturbation(profile, target_h)

        for module in (scene_mod, suites_mod, inverse_mod, cli_mod):
            if hasattr(module, "mesh_perturbation"):
                monkeypatch.setattr(module, "mesh_perturbation", counted)
        for verb, (n, g) in expected.items():
            calls.clear()
            assert main([verb, "--config", path, "--dry-run"]) == 0
            out = capsys.readouterr().out
            assert calls == [0.085], verb
            assert f"dense_system_mb: {round(32 * n**2 / g / 2**20, 1)}\n" in out, verb
            assert f"symmetry_sectors: {g}\n" in out, verb

    def test_cli_imports_no_scipy(self, flat_config, tmp_path):
        """A solve factors through numpy's LAPACK, so scipy stays unloaded;
        invert on the flat scene exits 2 after loading every suite."""
        src = str(Path(halfscat.__file__).resolve().parents[1])
        probe = ("import sys; from halfscat.cli import main; code = main(sys.argv[1:]); "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
                 "sys.exit(code)")
        for verb, extra, code in (("forward", [], 0), ("invert", [], 2),
                                  ("identities", ["--dry-run"], 0)):
            run = subprocess.run(
                [sys.executable, "-c", probe, verb, "--config", flat_config,
                 "--out", str(tmp_path / verb), *extra],
                env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
                capture_output=True, text=True,
            )
            assert run.returncode == code, (verb, run.stderr)
            assert run.stdout.splitlines()[-1] == "[]", verb

    def test_dry_run_imports_no_numpy_ma(self, flat_config, tmp_path):
        """Meshing finds the near pairs without np.unique, whose lazy import
        of numpy.ma costs every run about 15 ms."""
        src = str(Path(halfscat.__file__).resolve().parents[1])
        probe = ("import sys; from halfscat.cli import main; code = main(sys.argv[1:]); "
                 "print('numpy.ma' in sys.modules); sys.exit(code)")
        run = subprocess.run(
            [sys.executable, "-c", probe, "forward", "--config", flat_config, "--dry-run"],
            env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"

    def test_dry_run_sizes_the_stored_system(self, tmp_path, capsys, monkeypatch):
        """A piecewise-linear scene keeps the dense system; the memory lines
        follow the memory budget and are left out where it cannot be read."""
        grid = write_config(tmp_path, canonical_config(profile={**GRID, "heights": PEAK_7}))
        assert main(["forward", "--config", grid, "--dry-run"]) == 0
        out = capsys.readouterr().out
        panels = build_scene(load_config(grid)).mesh.n_panels
        assert f"dense_system_mb: {round(32 * panels**2 / 2**20, 1)}\n" in out
        assert "symmetry_sectors: 1\n" in out
        monkeypatch.setattr(cli_mod, "memory_budget_mb", lambda: (1.0, "MemAvailable"))
        assert main(["forward", "--config", grid, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "memory_budget_mb: 1.0\n" in out and "memory_bound: MemAvailable\n" in out
        assert "system_fits_in_memory: false\n" in out
        # it fits when the stored system and, before the first LU, OpenBLAS's
        # work buffer do, as get_factorization checks
        stored = solver_mod.system_mb(panels, 1)
        monkeypatch.setattr(cli_mod, "memory_budget_mb", lambda: (stored + 16, "MemAvailable"))
        for buffer_mb, fits in ((32.0, "false"), (0.0, "true")):
            monkeypatch.setattr(cli_mod, "work_buffer_mb", lambda: buffer_mb)
            assert main(["forward", "--config", grid, "--dry-run"]) == 0
            assert f"system_fits_in_memory: {fits}\n" in capsys.readouterr().out
        monkeypatch.setattr(cli_mod, "memory_budget_mb", lambda: None)
        assert main(["forward", "--config", grid, "--dry-run"]) == 0
        assert "memory_budget_mb" not in capsys.readouterr().out

    # The child imports the CLI, then lowers its own RLIMIT_AS to its VmSize
    # plus the MiB of its first argument.  Nothing here can take more than
    # the limit from the machine.
    _RLIMIT_CHILD = """if True:
        import resource, sys
        from halfscat.cli import main
        from halfscat.util import memory_budget_mb
        with open("/proc/self/status", encoding="ascii") as fh:
            vm = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
        headroom = int(sys.argv[1]) * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (vm * 2**10 + headroom, resource.RLIM_INFINITY))
        print("budget", *memory_budget_mb(), flush=True)
        sys.exit(main(sys.argv[2:]))
    """

    def _run_under_rlimit(self, tmp_path, mib, verb, config, *args):
        src = str(Path(halfscat.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-c", self._RLIMIT_CHILD, str(mib), verb, "--config", config,
             "--out", str(tmp_path / "out"), *args],
            env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, capture_output=True, text=True,
            timeout=120,
        )

    # 24 MiB is room for meshing the 3456-panel h/2 scene, not for its 61 MiB
    # system
    def _run_h2_forward(self, tmp_path, *args):
        config = write_config(tmp_path, canonical_config(mesh={"target_h": 0.0425}))
        return self._run_under_rlimit(tmp_path, 24, "forward", config, *args)

    def test_memory_budget_follows_rlimit_as(self, tmp_path):
        run = self._run_h2_forward(tmp_path, "--dry-run")
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        _, budget, bound = lines[0].split(" ", 2)
        assert bound == "RLIMIT_AS" and 20 < float(budget) <= 24
        assert "  memory_bound: RLIMIT_AS" in lines
        assert "  dense_system_mb: 60.8" in lines
        assert "  system_fits_in_memory: false" in lines

    def _assert_refused(self, run, panels):
        """Exit 2 before assembly, without a traceback, with a message that
        names what the system needs, the budget and its bound."""
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr and "OpenBLAS" not in run.stderr + run.stdout
        need = solver_mod.system_mb(panels, 6) + 32
        match = re.fullmatch(
            rf"error: out of memory: the {panels}-panel system needs {need:.1f} MiB, more than "
            r"the (\d+\.\d) MiB RLIMIT_AS leaves\n", run.stderr)
        assert match, run.stderr
        budget = float(run.stdout.split()[1])
        assert float(match[1]) < need and float(match[1]) <= budget

    def test_out_of_memory_exits_2(self, tmp_path):
        """A system that does not fit is refused before it is allocated, and
        before the run writes its first artifact."""
        self._assert_refused(self._run_h2_forward(tmp_path), 3456)
        assert not (tmp_path / "out").exists()

    # too little for the first system and OpenBLAS's 32 MiB work buffer:
    # unless refused, the canonical identities run exits 1, at 8 MiB with a
    # traceback from numpy's lazy fft import, at 16 and 32 MiB from OpenBLAS
    # when it cannot map its work buffer at the first LU
    @pytest.mark.parametrize("mib", [8, 16, 32])
    def test_refused_before_the_first_lu(self, tmp_path, mib):
        config = write_config(tmp_path, canonical_config())
        self._assert_refused(self._run_under_rlimit(tmp_path, mib, "identities", config), 864)
        assert not (tmp_path / "out").exists()

    def test_memory_budget_takes_the_smallest_bound(self, monkeypatch):
        monkeypatch.setattr(util_mod, "_cgroup_headroom_bytes", lambda: 3 * 2**20)
        assert util_mod.memory_budget_mb() == (3.0, "cgroup memory.max")

    def test_memory_error_exits_2(self, flat_config, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "_dispatch", exhausted)
        assert main(["forward", "--config", flat_config, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: out of memory: allocation failed")

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, canonical_config(bc="robin"))
        code = main(["forward", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bc" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["forward", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    def test_config_directory_exit_2(self, tmp_path, capsys):
        assert main(["forward", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {tmp_path}: ")

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(yaml.safe_dump(canonical_config()).encode() + b"# caf\xe9\n")
        assert main(["forward", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")

    def test_config_not_yaml_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("k: 2.0\nprofile: {kind: zero\n")
        assert main(["forward", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: not parseable YAML: ")
        assert ": :" not in err
        path.write_text("- k\n- bc\n")
        assert main(["forward", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: invalid config: config root must be a mapping\n"

    def test_pure_python_yaml_loader_keeps_the_read_errors(self, tmp_path, capsys, monkeypatch):
        """Where PyYAML has no libyaml, the same two inputs exit 2 the same way."""
        monkeypatch.setattr(scene_mod, "_YAML_LOADER", yaml.SafeLoader)
        self.test_config_not_utf8_exit_2(tmp_path, capsys)
        self.test_config_not_yaml_exit_2(tmp_path, capsys)

    def test_out_is_a_file_exit_2(self, flat_config, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["maxwell", "--config", flat_config, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_text() == ""

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
        assert_stamped(tmp_path / "id", out)

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

    def test_indicator_breach_exits_1(self, tmp_path, capsys):
        # at target_h = 0.1 the blow-up ratio is ~8.2, below the bound 10
        cfg = write_config(tmp_path, canonical_config(mesh={"target_h": 0.1}))
        code = main(["indicator", "--config", cfg, "--out", str(tmp_path / "i1")])
        assert code == 1
        assert "[FAIL] indicator_blowup_ratio: " in capsys.readouterr().out

    def test_invert_refuses_matching_meshes(self, tmp_path, capsys, monkeypatch):
        """Data meshed with the inversion's ring count (the inverse crime) are
        refused as an input error before any solve, in the dry run as in the
        run, which writes nothing."""
        cfg = canonical_config(mesh={"target_h": 0.125})
        cfg["invert"] = {"init": [0.15, 0.4], "data_target_h": 0.125, "noise_level": 0.01}
        path = write_config(tmp_path, cfg)
        monkeypatch.setattr(suites_mod, "forward_map", None)  # synthesizing the data fails
        assert main(["invert", "--config", path, "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: invert.data_target_h: ")
        assert "same mesh discretization (8 rings)" in err
        code = main(["invert", "--config", path, "--out", str(tmp_path / "inv")])
        assert code == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "inv").exists()

    def test_invalid_scene_exit_2(self, tmp_path, capsys):
        """A config that validates but describes no scene (a point source
        under the bump) exits 2, in the dry run as in the run."""
        path = write_config(tmp_path, canonical_config(incident={"type": "point",
                                                                 "z": [0.0, 0.0, 0.1]}))
        assert main(["forward", "--config", path, "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: invalid scene: incidents[0].z: point source must lie above "
                       "the surface\n")
        assert main(["forward", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "o").exists()

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
        # one operator for both incidents: every direction's row built once,
        # piece by piece
        pieces = solver_mod._eval_pieces(scene.mesh, scene.grid.size)
        assert built_rows == [p.stop - p.start for p in pieces]
        assert sum(built_rows) == scene.grid.size
        for i, inc in enumerate(scene.incidents):
            assert (tmp_path / "multi" / f"density_{i:03d}.csv").exists()
            lines = (tmp_path / "multi" / f"farfield_{i:03d}.csv").read_text().splitlines()
            rows = np.array([line.split(",") for line in lines[2:]], dtype=float)
            density, _ = solve_scattered(scene.mesh, inc)
            expect = eval_farfield(density, scene.grid)
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
        assert_stamped(tmp_path / "o", capsys.readouterr().out)
        solves = json.loads((tmp_path / "o" / "solve_report.json").read_text())["solves"]
        assert [s["cache_hit"] for s in solves] == [False, True]
        assert solves[0]["assembly_time_s"] > 0 and solves[0]["factor_time_s"] > 0
        assert solves[1]["assembly_time_s"] == solves[1]["factor_time_s"] == 0.0

    def test_indicator_settings_are_constants(self, tmp_path, capsys):
        """The dipole, the indicator lines and the Gauss-Newton settings are
        constants of the code: a scene file that sets one is refused."""
        removed = [
            ({"maxwell": {"y": [0.2, -0.1, 0.8], "p": [1.0, -2.0, 0.5]}}, "maxwell"),
            ({"indicator": {"n_samples": 8, "top": 1.5, "far_factor": 3.0}}, "indicator"),
            ({"invert": {"max_iterations": 25}}, "invert.max_iterations"),
            ({"invert": {"fd_step": 1e-5}}, "invert.fd_step"),
            ({"invert": {"regularization": None}}, "invert.regularization"),
        ]
        for override, field in removed:
            cfg = canonical_config(**override)
            with pytest.raises(SceneConfigError) as exc:
                validate_config(cfg)
            assert exc.value.field == field
            path = write_config(tmp_path, cfg, name="removed.yaml")
            assert main(["indicator", "--config", path, "--dry-run"]) == 2
            assert capsys.readouterr().err == f"error: invalid config: {field}: unknown key\n"
        path = write_config(tmp_path, canonical_config(mesh={"target_h": 0.1}))
        main(["indicator", "--config", path, "--out", str(tmp_path / "ind")])
        lines = (tmp_path / "ind" / "indicator_descend.csv").read_text().splitlines()
        assert lines[1] == "x,y,z,I"
        assert len(lines) == 2 + 8  # hash line + header + samples
        assert float(lines[2].split(",")[2]) == 1.5  # the descent starts at the top
        far = (tmp_path / "ind" / "indicator_offline.csv").read_text().splitlines()
        assert len(far) == 2 + 8
        assert float(far[2].split(",")[0]) == 3.0  # far line at 3 R, R = 1

    @pytest.mark.xfail(strict=True, reason="sound-hard blow-up ratio 8.31 is below the bound 10")
    def test_indicator_sound_hard_canonical(self, tmp_path, capsys):
        cfg = yaml.safe_load(CANONICAL_YAML.read_text())
        cfg["bc"] = "neumann"
        path = write_config(tmp_path, cfg)
        assert main(["indicator", "--config", path, "--out", str(tmp_path / "ind")]) == 0

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
        assert_stamped(tmp_path / "cv", capsys.readouterr().out)
        payload = json.loads((tmp_path / "cv" / "convergence.json").read_text())
        assert payload["passed"] and payload["value"] <= 5e-2

    def test_invert_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, canonical_config(mesh={"target_h": 0.18},
                                                       invert={"data_target_h": 0.125}))
        assert main(["invert", "--config", path, "--out", str(tmp_path / "inv")]) == 0
        assert_stamped(tmp_path / "inv", capsys.readouterr().out)
        result = json.loads((tmp_path / "inv" / "inversion_result.json").read_text())
        assert len(result["recovered"]) == 2 and result["iterations"] >= 1

    def test_forward_density_schema(self, flat_config, tmp_path, capsys):
        assert main(["forward", "--config", flat_config, "--out", str(tmp_path / "f")]) == 0
        lines = (tmp_path / "f" / "density_000.csv").read_text().splitlines()
        assert lines[0].startswith("# scene=")
        assert lines[1] == "panel_id,re,im"

    def test_maxwell_subcommand(self, flat_config, tmp_path, capsys):
        code = main(["maxwell", "--config", flat_config, "--out", str(tmp_path / "mx")])
        assert code == 0
        assert_stamped(tmp_path / "mx", capsys.readouterr().out)
        lines = (tmp_path / "mx" / "maxwell.jsonl").read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["passed"] for line in lines)

    def test_out_dir_resolution(self, flat_config, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["maxwell", "--config", flat_config]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["halfscat_out", "scene.yaml"]
        assert (tmp_path / "halfscat_out" / "maxwell.jsonl").exists()
        assert main(["maxwell", "--config", flat_config, "--out", "flag"]) == 0
        assert (tmp_path / "flag" / "maxwell.jsonl").exists()

    def test_tolerance_breach_prints_the_compared_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(suites_mod, "TOLERANCES", dataclasses.replace(
            suites_mod.TOLERANCES, pec=1e-21, reflection=1e-21, maxwell_fd=1e-14,
            sm_slope_margin=2e-10))
        code = main(["maxwell", "--config", str(CANONICAL_YAML), "--out", str(tmp_path / "mx")])
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
        # the suite bounds are fixed: no option scales them
        with pytest.raises(SystemExit) as exc:
            main(["maxwell", "--config", flat_config, "--tolerance-scale", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance-scale" in capsys.readouterr().err

    def test_removed_scene_keys_exit_2(self, tmp_path, capsys):
        """The output directory and a dipping profile are not scene settings:
        a file that sets either is refused with the field named."""
        removed = [
            (canonical_config(output_dir="elsewhere"), "output_dir"),
            (canonical_config(profile={**BUMP, "allow_dip": True}), "profile.allow_dip"),
        ]
        for cfg, field in removed:
            path = write_config(tmp_path, cfg, name="removed.yaml")
            assert main(["forward", "--config", path, "--dry-run"]) == 2
            assert capsys.readouterr().err == f"error: invalid config: {field}: unknown key\n"

    def test_blas_environment_leaves_output_bytes(self, tmp_path):
        """OPENBLAS_NUM_THREADS sizes the pool numpy loads, which runs the
        products and the LUs, and the pool of scipy's fallback, which runs
        the LUs where numpy's BLAS exports none (forced here).  The CLI pins
        both to one thread, so the output bytes depend on neither the
        environment nor the path."""
        cfg = write_config(tmp_path, canonical_config(mesh={"target_h": 0.18}))
        src = str(Path(halfscat.__file__).resolve().parents[1])
        fallback = ("import sys, halfscat.cli, halfscat.lapack; "
                    "halfscat.lapack._routines = lambda: None; "
                    "sys.exit(halfscat.cli.main(sys.argv[1:]))")
        runs = [(path, threads) for path in ("ctypes", "scipy") for threads in ("1", "2")]
        for path, threads in runs:
            entry = ["-m", "halfscat.cli"] if path == "ctypes" else ["-c", fallback]
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            for verb in ("identities", "forward"):
                subprocess.run([sys.executable, *entry, verb, "--config", cfg,
                                "--out", str(tmp_path / f"{verb}-{path}-{threads}")],
                               env=env, cwd=tmp_path, check=True, capture_output=True)
        for name in ("identities/identities.jsonl", "forward/farfield_000.csv",
                     "forward/density_000.csv"):
            verb, file = name.split("/")
            one = (tmp_path / f"{verb}-ctypes-1" / file).read_bytes()
            for path, threads in runs[1:]:
                run_bytes = (tmp_path / f"{verb}-{path}-{threads}" / file).read_bytes()
                assert one == run_bytes, (name, path, threads)

    def test_main_pins_blas_threads(self, flat_config, capsys, monkeypatch):
        """main sets every OpenBLAS runtime mapped into this process, numpy's
        and the scipy the tests import, to one thread, also where
        /proc/self/maps cannot be read."""
        runtimes = _blas_thread_controls()
        if not runtimes:
            pytest.skip("no OpenBLAS runtime mapped into this process")
        real_open = open

        def open_without_proc(file, *args, **kwargs):
            if str(file) == "/proc/self/maps":
                raise OSError("/proc/self/maps cannot be read")
            return real_open(file, *args, **kwargs)

        for proc_readable in (True, False):
            for _, set_threads in runtimes:
                set_threads(2)
            with monkeypatch.context() as patch:
                if not proc_readable:
                    patch.setattr("builtins.open", open_without_proc)
                assert main(["forward", "--config", flat_config, "--dry-run"]) == 0
            threads = [get_threads() for get_threads, _ in runtimes]
            assert threads == [1] * len(runtimes), proc_readable


def assert_stamped(out_dir: Path, stdout: str) -> None:
    """Every JSON artifact of a CLI run carries the scene hash the run
    printed: the first key of a .json file, the last key of each .jsonl
    record."""
    stamp = ("scene_hash", re.search(r"^scene (\w+): ", stdout, re.MULTILINE).group(1))
    paths = sorted(out_dir.glob("*.json*"))
    assert paths
    for path in paths:
        text = path.read_text()
        if path.suffix == ".jsonl":
            for line in text.splitlines():
                assert list(json.loads(line).items())[-1] == stamp, (path.name, line)
        else:
            assert next(iter(json.loads(text).items())) == stamp, path.name


def _blas_thread_controls():
    """(get, set) thread-count functions of every OpenBLAS runtime mapped
    into this process, found apart from the package: by the library paths
    in /proc/self/maps and the setter names of the numpy and scipy wheels'
    builds and of a plain OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    controls = []
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                get_threads = getattr(lib, name.replace("_set_", "_get_"))
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return controls


class TestSuiteHelpers:
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
        assert fine.mesh.n_rings == 2 * flat_scene.mesh.n_rings
        assert fine.mesh.h < flat_scene.mesh.h
