"""Scene configuration: strict parsing, validation, hashing, object building.

A scene file is a single YAML document.  Unknown keys are rejected with the
offending field path so tolerance-name typos cannot silently pass.  The field
checks live in ``util`` and the profile schema in ``geometry.validate_profile``,
which ``build_profile`` applies again.  The scene hash covers every validated
field except the output directory, so editing any physics-relevant value
changes the hash embedded in artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from .errors import SceneConfigError
from .geometry import PanelMesh, SurfaceProfile, build_profile, mesh_perturbation, validate_profile
from .incident import IncidentWave, PlaneWave, PointSource
from .kernels import BoundaryCondition
from .solver import DirectionGrid
from .util import as_float, as_int, as_mapping, as_vec3, check_keys, content_hash, require

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
    spec = as_mapping(spec, where)
    kind = spec.get("type")
    if kind == "plane":
        check_keys(spec, {"type", "phi", "theta"}, where)
        return {
            "type": "plane",
            "phi": as_float(require(spec, "phi", where), f"{where}.phi"),
            "theta": as_float(require(spec, "theta", where), f"{where}.theta"),
        }
    if kind == "point":
        check_keys(spec, {"type", "z"}, where)
        return {"type": "point", "z": as_vec3(require(spec, "z", where), f"{where}.z")}
    raise SceneConfigError(f"{where}.type", f"expected 'plane' or 'point', got {kind!r}")


def _section(raw: dict, key: str, allowed: set[str], required: bool = False) -> dict:
    """Top-level mapping ``key`` (``{}`` when optional and absent), keys among ``allowed``."""
    return as_mapping(require(raw, key, "") if required else raw.get(key, {}), key, allowed)


def validate_config(raw: dict) -> SceneConfig:
    if not isinstance(raw, dict):
        raise SceneConfigError("", "config root must be a mapping")
    check_keys(raw, _TOP_KEYS, "")

    k = as_float(require(raw, "k", ""), "k", positive=True)
    bc = require(raw, "bc", "")
    if bc not in ("dirichlet", "neumann"):
        raise SceneConfigError("bc", f"expected 'dirichlet' or 'neumann', got {bc!r}")
    seed = as_int(raw.get("seed", 0), "seed", minimum=0)

    profile = validate_profile(require(raw, "profile", ""))

    mesh = _section(raw, "mesh", {"target_h"}, required=True)
    mesh = {"target_h": as_float(require(mesh, "target_h", "mesh"), "mesh.target_h", True)}

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
        incidents = (_validate_incident(require(raw, "incident", ""), "incident"),)

    grid = _section(raw, "farfield_grid", {"n_theta", "n_phi"}, required=True)
    grid = {
        name: as_int(require(grid, name, "farfield_grid"), f"farfield_grid.{name}", 1)
        for name in ("n_theta", "n_phi")
    }

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise SceneConfigError("output_dir", "expected a string path")

    maxwell = _section(raw, "maxwell", {"y", "p"})
    maxwell = {
        "y": as_vec3(maxwell.get("y", [0.2, -0.1, 0.8]), "maxwell.y"),
        "p": as_vec3(maxwell.get("p", [1.0, -2.0, 0.5]), "maxwell.p"),
    }
    if maxwell["y"][2] <= 0:
        raise SceneConfigError("maxwell.y", "dipole must sit above the ground plane")

    indicator = _section(raw, "indicator", {"n_samples", "top", "far_factor"})
    indicator = {
        "n_samples": as_int(indicator.get("n_samples", 8), "indicator.n_samples", 2),
        "top": as_float(indicator.get("top", 1.5), "indicator.top", positive=True),
        "far_factor": as_float(indicator.get("far_factor", 3.0), "indicator.far_factor", True),
    }

    invert = _section(
        raw,
        "invert",
        {"init", "data_target_h", "noise_level", "max_iterations", "fd_step", "regularization"},
    )
    init = invert.get("init", [0.15, 0.4])
    if not isinstance(init, (list, tuple)) or len(init) != 2:
        raise SceneConfigError("invert.init", f"expected [height, width], got {init!r}")
    regularization = invert.get("regularization")
    if regularization is not None:
        regularization = as_float(regularization, "invert.regularization")
        if regularization < 0:
            raise SceneConfigError("invert.regularization", f"must be >= 0, got {regularization!r}")
    invert = {
        "init": [as_float(v, f"invert.init[{i}]") for i, v in enumerate(init)],
        "data_target_h": as_float(invert.get("data_target_h", 0.07), "invert.data_target_h", True),
        "noise_level": as_float(invert.get("noise_level", 0.01), "invert.noise_level"),
        "max_iterations": as_int(invert.get("max_iterations", 25), "invert.max_iterations", 1),
        "fd_step": as_float(invert.get("fd_step", 1e-5), "invert.fd_step", positive=True),
        "regularization": regularization,
    }

    cfg = SceneConfig(
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
    )
    hashed = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    del hashed["output_dir"], hashed["scene_hash"]
    return replace(cfg, scene_hash=content_hash(hashed))


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
