"""The benchmark's workloads: the scene each one feeds the CLI, the verb it
runs, and the output gate its operations must pass.

Every scene is written here rather than read from ``configs/`` so that a
change to the example configs cannot change what the benchmark measures.
The canonical scene below equals ``configs/canonical.yaml``.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

CANONICAL = {
    "k": 2.0,
    "bc": "dirichlet",
    "seed": 7,
    "profile": {"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25},
    "mesh": {"target_h": 0.085},
    "incident": {"type": "plane", "phi": 0.0, "theta": 0.0},
    "farfield_grid": {"n_theta": 10, "n_phi": 10},
    "invert": {"init": [0.15, 0.4], "data_target_h": 0.07, "noise_level": 0.01},
}

# forward-many draws its incidents from a fixed pool whose far fields are in
# the reference, so the output gate holds for every benchmark seed.
FORWARD_PLANE_WAVES = 24
FORWARD_POINT_SOURCES = 8
FORWARD_GRID = {"n_theta": 40, "n_phi": 20}
POOL_PLANE_WAVES = 32
POOL_POINT_SOURCES = 12

FARFIELD_RTOL = 1e-9  # per pattern, relative to the reference max-norm
INVERT_RTOL = 1e-6  # per recovered parameter
IDENTITY_RTOL = 1e-9  # lhs / rhs of each identity record
SLOPE_ATOL = 1e-6  # decay slopes


def canonical(**overrides) -> dict:
    cfg = copy.deepcopy(CANONICAL)
    cfg.update(overrides)
    return cfg


def write_scene(cfg: dict, path: Path) -> None:
    # safe_dump writes floats so that PyYAML reads back the same double
    path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")


# ---------------------------------------------------------------------------
# forward-many incident pool

def make_pool(pool_seed: int) -> dict:
    """Plane waves with |phi| < 1.2 and point sources 1.2 to 2.0 above the
    disc, drawn once; the reference stores the drawn values."""
    rng = random.Random(pool_seed)
    planes = [
        {"type": "plane", "phi": rng.uniform(-1.2, 1.2), "theta": rng.uniform(0.0, 2 * math.pi)}
        for _ in range(POOL_PLANE_WAVES)
    ]
    points = []
    for _ in range(POOL_POINT_SOURCES):
        ang = rng.uniform(0.0, 2 * math.pi)
        rad = 0.8 * math.sqrt(rng.random())
        points.append(
            {"type": "point", "z": [rad * math.cos(ang), rad * math.sin(ang), rng.uniform(1.2, 2.0)]}
        )
    return {"pool_seed": pool_seed, "incidents": planes + points}


def forward_selection(seed: int) -> list[int]:
    """Pool indices of the forward-many incidents for a benchmark seed: 24 of
    the plane waves and 8 of the point sources, in a seeded order."""
    rng = random.Random(seed)
    planes = rng.sample(range(POOL_PLANE_WAVES), FORWARD_PLANE_WAVES)
    points = rng.sample(
        range(POOL_PLANE_WAVES, POOL_PLANE_WAVES + POOL_POINT_SOURCES), FORWARD_POINT_SOURCES
    )
    return planes + points


def forward_scene(incidents: list[dict]) -> dict:
    cfg = canonical(incidents=incidents, farfield_grid=dict(FORWARD_GRID))
    del cfg["incident"]
    return cfg


def read_farfield_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) columns and complex values of one far-field CSV."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    data = np.array(rows[1:], dtype=float)
    return data[:, :2], data[:, 2] + 1j * data[:, 3]


# ---------------------------------------------------------------------------
# workloads and gates

@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    threads: int  # requested --threads; capped at nproc when run

    def scene(self, seed: int) -> dict:
        if self.name == "forward-many":
            pool = load_json("forward_pool.json")["incidents"]
            return forward_scene([pool[i] for i in forward_selection(seed)])
        if self.name == "invert-neumann":
            return canonical(bc="neumann")
        return canonical()

    def gate(self, out_dir: Path, seed: int) -> str | None:
        """None when the operation's outputs match the reference, else why not."""
        if self.verb == "forward":
            return _gate_forward(out_dir, forward_selection(seed))
        if self.verb == "invert":
            return _gate_invert(out_dir)
        return _gate_identities(out_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identities", "identities", 1),
        Workload("invert-neumann", "invert", 1),
        Workload("forward-many", "forward", 1),
        Workload("identities-threads", "identities", 2),
    )
}


def load_json(name: str):
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def _gate_forward(out_dir: Path, selection: list[int]) -> str | None:
    ref = np.load(REFERENCE_DIR / "forward_pool.npy")
    ref_grid = np.array(load_json("forward_pool.json")["grid"])
    for i, pool_index in enumerate(selection):
        path = out_dir / f"farfield_{i:03d}.csv"
        if not path.exists():
            return f"missing {path.name}"
        grid, values = read_farfield_csv(path)
        if grid.shape != ref_grid.shape or np.max(np.abs(grid - ref_grid)) > 1e-12:
            return f"{path.name}: direction grid differs from the reference"
        expect = ref[pool_index]
        err = np.max(np.abs(values - expect)) / np.max(np.abs(expect))
        if not err <= FARFIELD_RTOL:
            return f"{path.name}: far field off the reference by {err:.3e} (max-norm relative)"
    return None


def _gate_invert(out_dir: Path) -> str | None:
    ref = load_json("invert_neumann.json")
    try:
        got = json.loads((out_dir / "inversion_result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"inversion_result.json unreadable: {exc}"
    if got["iterations"] != ref["iterations"]:
        return f"{got['iterations']} Gauss-Newton iterations, reference {ref['iterations']}"
    rel = np.abs(np.subtract(got["recovered"], ref["recovered"])) / np.abs(ref["recovered"])
    if not np.max(rel) <= INVERT_RTOL:
        return f"recovered {got['recovered']} off the reference by {np.max(rel):.3e} relative"
    return None


def _gate_identities(out_dir: Path) -> str | None:
    ref = load_json("identities.json")
    try:
        lines = (out_dir / "identities.jsonl").read_text(encoding="utf-8").splitlines()
        got = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        return f"identities.jsonl unreadable: {exc}"
    if [g["name"] for g in got] != [r["name"] for r in ref]:
        return "identities.jsonl records differ from the reference"
    for g, r in zip(got, ref):
        if "slope" in r:
            if not abs(g["slope"] - r["slope"]) <= SLOPE_ATOL:
                return f"{r['name']}: slope {g['slope']} against reference {r['slope']}"
            continue
        scale = max(abs(complex(r["lhs_re"], r["lhs_im"])), abs(complex(r["rhs_re"], r["rhs_im"])))
        for side in ("lhs", "rhs"):
            diff = abs(complex(g[f"{side}_re"], g[f"{side}_im"]) - complex(r[f"{side}_re"], r[f"{side}_im"]))
            if not diff <= IDENTITY_RTOL * scale:
                return f"{r['name']}: {side} off the reference by {diff:.3e}"
    return None
