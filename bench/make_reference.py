"""Regenerate ``bench/reference`` from the halfscat sources in this checkout.

    python3 bench/make_reference.py

The reference holds what the output gates compare against: the far fields
of the whole forward-many incident pool on the 40 x 20 grid, the
invert-neumann result and the identities records.  It was generated at the
commit that introduced the benchmark; regenerate it only when a change is
meant to alter these outputs, and say so with that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
POOL_SEED = 1812
WORK = ROOT / ".bench_work" / "reference"


def _cli(verb: str, scene: dict, name: str) -> Path:
    from halfscat.cli import main

    out = WORK / name
    out.mkdir(parents=True)
    workloads.write_scene(scene, WORK / f"{name}.yaml")
    code = main([verb, "--config", str(WORK / f"{name}.yaml"), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"{verb} on {name} exited {code}")
    return out


def _dump(name: str, payload) -> None:
    path = workloads.REFERENCE_DIR / name
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)

    pool = workloads.make_pool(POOL_SEED)
    out = _cli("forward", workloads.forward_scene(pool["incidents"]), "forward-pool")
    fields = []
    for i in range(len(pool["incidents"])):
        grid, values = workloads.read_farfield_csv(out / f"farfield_{i:03d}.csv")
        fields.append(values)
    pool["grid"] = grid.tolist()
    _dump("forward_pool.json", pool)
    np.save(workloads.REFERENCE_DIR / "forward_pool.npy", np.array(fields))

    out = _cli("invert", workloads.canonical(bc="neumann"), "invert-neumann")
    result = json.loads((out / "inversion_result.json").read_text(encoding="utf-8"))
    _dump("invert_neumann.json", {k: result[k] for k in ("scene_hash", "recovered", "iterations")})

    out = _cli("identities", workloads.canonical(), "identities")
    lines = (out / "identities.jsonl").read_text(encoding="utf-8").splitlines()
    _dump("identities.json", [json.loads(line) for line in lines])

    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
