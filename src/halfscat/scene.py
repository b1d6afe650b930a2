"""Scene configuration: strict parsing, validation, hashing, object building.

A scene file is a single YAML document.  Unknown keys are rejected with the
offending field path so tolerance-name typos cannot silently pass.  The scene
hash covers every validated field except the output directory, so editing any
physics-relevant value changes the hash embedded in artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import SceneConfigError
from .geometry import PanelMesh, SurfaceProfile, build_profile, mesh_perturbation
from .incident import IncidentWave, PlaneWave, PointSource
from .kernels import BoundaryCondition
from .solver import DirectionGrid
from .util import content_hash

_TOP_KEYS = {
    "k",
    "bc",
    "seed",
    "profile",
    "mesh",
    "incident",
    "incidents",
    "farfield_grid",
    "output_dir",
    "maxwell",
    "indicator",
    "invert",
}


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise SceneConfigError(f"{where}.{key}" if where else key, "missing required key")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set[str], where: str):
    unknown = set(cfg) - allowed
    if unknown:
        key = sorted(unknown)[0]
        raise SceneConfigError(f"{where}.{key}" if where else key, "unknown key")


def _as_float(value, where: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneConfigError(where, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise SceneConfigError(where, "must be finite")
    if positive and value <= 0:
        raise SceneConfigError(where, f"must be > 0, got {value!r}")
    return value


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneConfigError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SceneConfigError(where, f"must be >= {minimum}, got {value}")
    return value


def _as_vec3(value, where: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SceneConfigError(where, f"expected [x, y, z], got {value!r}")
    return [_as_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


@dataclass(frozen=True)
class SceneConfig:
    """Validated scene description with defaults applied and a content hash."""

    k: float
    bc: str
    seed: int
    profile: dict
    mesh: dict
    incidents: tuple[dict, ...]
    farfield_grid: dict
    output_dir: str | None
    maxwell: dict
    indicator: dict
    invert: dict
    scene_hash: str = field(compare=False, default="")


def _validate_incident(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise SceneConfigError(where, f"expected a mapping, got {spec!r}")
    kind = spec.get("type")
    if kind == "plane":
        _check_keys(spec, {"type", "phi", "theta"}, where)
        return {
            "type": "plane",
            "phi": _as_float(_require(spec, "phi", where), f"{where}.phi"),
            "theta": _as_float(_require(spec, "theta", where), f"{where}.theta"),
        }
    if kind == "point":
        _check_keys(spec, {"type", "z"}, where)
        return {"type": "point", "z": _as_vec3(_require(spec, "z", where), f"{where}.z")}
    raise SceneConfigError(f"{where}.type", f"expected 'plane' or 'point', got {kind!r}")


def _validate_profile(spec, where: str = "profile") -> dict:
    if not isinstance(spec, dict):
        raise SceneConfigError(where, f"expected a mapping, got {spec!r}")
    kind = spec.get("kind")
    out = {"kind": kind, "R": _as_float(_require(spec, "R", where), f"{where}.R", positive=True)}
    if kind == "zero":
        _check_keys(spec, {"kind", "R"}, where)
    elif kind == "gaussian_bump":
        _check_keys(spec, {"kind", "R", "amplitude", "width", "allow_dip"}, where)
        out["amplitude"] = _as_float(_require(spec, "amplitude", where), f"{where}.amplitude")
        out["width"] = _as_float(_require(spec, "width", where), f"{where}.width", positive=True)
    elif kind == "piecewise_linear":
        _check_keys(spec, {"kind", "R", "heights", "allow_dip"}, where)
        out["heights"] = _require(spec, "heights", where)
    else:
        raise SceneConfigError(
            f"{where}.kind",
            f"expected zero | gaussian_bump | piecewise_linear, got {kind!r}",
        )
    if spec.get("allow_dip"):
        out["allow_dip"] = True
    return out


def validate_config(raw: dict) -> SceneConfig:
    if not isinstance(raw, dict):
        raise SceneConfigError("", "config root must be a mapping")
    _check_keys(raw, _TOP_KEYS, "")

    k = _as_float(_require(raw, "k", ""), "k", positive=True)
    bc = _require(raw, "bc", "")
    if bc not in ("dirichlet", "neumann"):
        raise SceneConfigError("bc", f"expected 'dirichlet' or 'neumann', got {bc!r}")
    seed = _as_int(raw.get("seed", 0), "seed", minimum=0)

    profile = _validate_profile(_require(raw, "profile", ""))

    mesh_spec = _require(raw, "mesh", "")
    if not isinstance(mesh_spec, dict):
        raise SceneConfigError("mesh", "expected a mapping")
    _check_keys(mesh_spec, {"target_h"}, "mesh")
    mesh = {"target_h": _as_float(_require(mesh_spec, "target_h", "mesh"), "mesh.target_h", True)}

    if "incident" in raw and "incidents" in raw:
        raise SceneConfigError("incidents", "give either 'incident' or 'incidents', not both")
    if "incidents" in raw:
        entries = raw["incidents"]
        if not isinstance(entries, list) or not entries:
            raise SceneConfigError("incidents", "expected a non-empty list")
        incidents = tuple(
            _validate_incident(e, f"incidents[{i}]") for i, e in enumerate(entries)
        )
    else:
        incidents = (_validate_incident(_require(raw, "incident", ""), "incident"),)

    grid_spec = _require(raw, "farfield_grid", "")
    if not isinstance(grid_spec, dict):
        raise SceneConfigError("farfield_grid", "expected a mapping")
    _check_keys(grid_spec, {"n_theta", "n_phi"}, "farfield_grid")
    grid = {
        "n_theta": _as_int(_require(grid_spec, "n_theta", "farfield_grid"),
                           "farfield_grid.n_theta", 1),
        "n_phi": _as_int(_require(grid_spec, "n_phi", "farfield_grid"),
                         "farfield_grid.n_phi", 1),
    }

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise SceneConfigError("output_dir", "expected a string path")

    maxwell = raw.get("maxwell", {})
    if not isinstance(maxwell, dict):
        raise SceneConfigError("maxwell", "expected a mapping")
    _check_keys(maxwell, {"y", "p"}, "maxwell")
    maxwell = {
        "y": _as_vec3(maxwell.get("y", [0.2, -0.1, 0.8]), "maxwell.y"),
        "p": _as_vec3(maxwell.get("p", [1.0, -2.0, 0.5]), "maxwell.p"),
    }
    if maxwell["y"][2] <= 0:
        raise SceneConfigError("maxwell.y", "dipole must sit above the ground plane")

    indicator = raw.get("indicator", {})
    if not isinstance(indicator, dict):
        raise SceneConfigError("indicator", "expected a mapping")
    _check_keys(indicator, {"n_samples", "top", "far_factor"}, "indicator")
    indicator = {
        "n_samples": _as_int(indicator.get("n_samples", 8), "indicator.n_samples", 2),
        "top": _as_float(indicator.get("top", 1.5), "indicator.top", positive=True),
        "far_factor": _as_float(indicator.get("far_factor", 3.0), "indicator.far_factor", True),
    }

    invert = raw.get("invert", {})
    if not isinstance(invert, dict):
        raise SceneConfigError("invert", "expected a mapping")
    _check_keys(
        invert,
        {"init", "data_target_h", "noise_level", "max_iterations", "fd_step", "regularization"},
        "invert",
    )
    init = invert.get("init", [0.15, 0.4])
    if not isinstance(init, (list, tuple)) or len(init) != 2:
        raise SceneConfigError("invert.init", f"expected [height, width], got {init!r}")
    invert = {
        "init": [_as_float(v, f"invert.init[{i}]") for i, v in enumerate(init)],
        "data_target_h": _as_float(invert.get("data_target_h", 0.07), "invert.data_target_h", True),
        "noise_level": _as_float(invert.get("noise_level", 0.01), "invert.noise_level"),
        "max_iterations": _as_int(invert.get("max_iterations", 25), "invert.max_iterations", 1),
        "fd_step": _as_float(invert.get("fd_step", 1e-5), "invert.fd_step", positive=True),
        "regularization": None
        if invert.get("regularization") is None
        else _as_float(invert["regularization"], "invert.regularization"),
    }

    hashed = {
        "k": k,
        "bc": bc,
        "seed": seed,
        "profile": profile,
        "mesh": mesh,
        "incidents": list(incidents),
        "farfield_grid": grid,
        "maxwell": maxwell,
        "indicator": indicator,
        "invert": invert,
    }
    return SceneConfig(
        k=k,
        bc=bc,
        seed=seed,
        profile=profile,
        mesh=mesh,
        incidents=incidents,
        farfield_grid=grid,
        output_dir=output_dir,
        maxwell=maxwell,
        indicator=indicator,
        invert=invert,
        scene_hash=content_hash(hashed),
    )


def load_config(path) -> SceneConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SceneConfigError("", f"not parseable YAML: {exc}") from exc
    return validate_config(raw)


@dataclass(frozen=True)
class Scene:
    """Built scene: profile, mesh and incident-wave objects ready for solves."""

    config: SceneConfig
    profile: SurfaceProfile
    mesh: PanelMesh
    k: float
    bc: BoundaryCondition
    incidents: tuple[IncidentWave, ...]
    grid: DirectionGrid
    seed: int

    @property
    def scene_hash(self) -> str:
        return self.config.scene_hash

    @property
    def metadata(self) -> dict:
        return {
            "scene_hash": self.scene_hash,
            "k": self.k,
            "bc": self.bc.value,
            "mesh_h": self.mesh.h,
            "mesh_hash": self.mesh.content_hash,
        }


def _build_incident(spec: dict, k: float, bc: BoundaryCondition, profile: SurfaceProfile,
                    where: str) -> IncidentWave:
    if spec["type"] == "plane":
        try:
            return PlaneWave(phi=spec["phi"], theta=spec["theta"], k=k, bc=bc)
        except ValueError as exc:
            raise SceneConfigError(where, str(exc)) from exc
    z = np.asarray(spec["z"], dtype=float)
    if z[2] <= float(profile.height(z[:2])):
        raise SceneConfigError(f"{where}.z", "point source must lie above the surface")
    return PointSource(z=z, k=k, bc=bc)


def build_scene(cfg: SceneConfig) -> Scene:
    profile = build_profile(cfg.profile)
    mesh = mesh_perturbation(profile, cfg.mesh["target_h"])
    bc = BoundaryCondition(cfg.bc)
    incidents = tuple(
        _build_incident(spec, cfg.k, bc, profile, f"incidents[{i}]")
        for i, spec in enumerate(cfg.incidents)
    )
    grid = DirectionGrid.make(cfg.farfield_grid["n_theta"], cfg.farfield_grid["n_phi"])
    return Scene(
        config=cfg,
        profile=profile,
        mesh=mesh,
        k=cfg.k,
        bc=bc,
        incidents=incidents,
        grid=grid,
        seed=cfg.seed,
    )
