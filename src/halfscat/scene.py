"""Scene configuration: strict parsing, validation, hashing, object building.

A scene file is a single YAML document.  Unknown keys are rejected with the
offending field path so tolerance-name typos cannot silently pass.  The field
checks live in ``util`` and the profile schema in ``geometry.validate_profile``,
which ``build_profile`` applies again.  The scene hash covers every validated
field, so editing any value changes the hash embedded in artifacts.
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

    invert = _section(raw, "invert", {"init", "data_target_h", "noise_level"})
    init = invert.get("init", [0.15, 0.4])
    if not isinstance(init, (list, tuple)) or len(init) != 2:
        raise SceneConfigError("invert.init", f"expected [height, width], got {init!r}")
    noise_level = as_float(invert.get("noise_level", 0.01), "invert.noise_level")
    if noise_level < 0:
        raise SceneConfigError("invert.noise_level", f"must be >= 0, got {noise_level!r}")
    invert = {
        "init": [as_float(v, f"invert.init[{i}]") for i, v in enumerate(init)],
        "data_target_h": as_float(invert.get("data_target_h", 0.07), "invert.data_target_h", True),
        "noise_level": noise_level,
    }

    cfg = SceneConfig(
        k=k,
        bc=bc,
        seed=seed,
        profile=profile,
        mesh=mesh,
        incidents=incidents,
        farfield_grid=grid,
        invert=invert,
    )
    hashed = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    del hashed["scene_hash"]
    return replace(cfg, scene_hash=content_hash(hashed))


# libyaml's parser, where PyYAML was built with it, reads a scene about seven
# times faster than the pure-Python one and builds the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> SceneConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
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
