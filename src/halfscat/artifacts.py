"""Every file the command line writes, each stamped with the scene hash.

A CSV table is one ``# ...scene=<hash>`` comment line ending in ``\\n``, then
the header and one row per entry of its equal-length columns, each ending in
``\\r\\n``.  Integer columns print as integers, text columns as they are and
every other column with ``%.17g``.  A JSON record holds the scene hash as a
key.  This module is the only one that opens a file for writing, and it
makes a file's directory when it opens the file, so a run that fails before
its first artifact leaves no output directory.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .geometry import PanelMesh
from .inverse import IndicatorMap, InversionReport
from .solver import DirectionGrid, LayerDensity


def _open(path, newline=None):
    """``path`` opened for writing as UTF-8, its directory made first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline=newline, encoding="utf-8")


def _write_table(path, comment: str, header: list[str], columns) -> None:
    columns = [np.asarray(c) for c in columns]
    row = ",".join(_row_format(c) for c in columns)
    values = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    with _open(path, newline="") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\r\n")
        fh.write((row + "\r\n") * len(columns[0]) % values)


def _row_format(column: np.ndarray) -> str:
    if np.issubdtype(column.dtype, np.integer):
        return "%d"
    return "%s" if column.dtype.kind == "U" else "%.17g"


def write_mesh(mesh: PanelMesh, path, scene_hash: str) -> None:
    """Panel table: panel_id, v1x..v3z, cx, cy, cz, area, nx, ny, nz."""
    header = (["panel_id"] + [f"v{i}{c}" for i in (1, 2, 3) for c in "xyz"]
              + ["cx", "cy", "cz", "area", "nx", "ny", "nz"])
    pv = mesh.panel_vertices().reshape(mesh.n_panels, 9)
    _write_table(path, f"scene={scene_hash}", header, [
        np.arange(mesh.n_panels), *pv.T, *mesh.centroids.T, mesh.areas, *mesh.normals.T])


def write_farfields(densities: list[LayerDensity], grid: DirectionGrid, values: np.ndarray,
                    paths: list, scene_hash: str) -> None:
    """One table per density: a provenance comment (the density's k,
    formulation and mesh h), then theta, phi, re, im rows of its far field,
    row i of the (len(densities), grid.size) ``values`` that ``eval_farfields``
    returns.  theta and phi are formatted once, as ``_write_table`` formats a
    float column, and each table copies the text."""
    if np.shape(values) != (len(densities), grid.size):
        raise ValueError(f"far fields of shape {np.shape(values)} for {len(densities)} "
                         f"densities on a grid of {grid.size} directions")
    if len(paths) != len(densities):
        raise ValueError(f"{len(paths)} paths for {len(densities)} far fields")
    theta, phi = (np.array(["%.17g" % v for v in c.tolist()]) for c in (grid.theta, grid.phi))
    for density, row, path in zip(densities, values, paths):
        comment = (f"k={density.k:.17g} bc={density.bc.value} mesh_h={density.mesh.h:.17g} "
                   f"scene={scene_hash}")
        _write_table(path, comment, ["theta", "phi", "re", "im"],
                     [theta, phi, row.real, row.imag])


def write_density(density: LayerDensity, path, scene_hash: str) -> None:
    c = density.coefficients
    _write_table(path, f"scene={scene_hash}", ["panel_id", "re", "im"],
                 [np.arange(c.size), c.real, c.imag])


def write_indicator(indicator: IndicatorMap, path, scene_hash: str) -> None:
    _write_table(path, f"scene={scene_hash}", ["x", "y", "z", "I"],
                 [*indicator.points.T, indicator.values])


def write_inversion_trace(report: InversionReport, path, scene_hash: str) -> None:
    params = report.params_trace
    _write_table(path, f"scene={scene_hash}",
                 ["iter", "objective"] + [f"p{i}" for i in range(params.shape[1])],
                 [np.arange(len(report.objective_trace)), report.objective_trace, *params.T])


def write_json(payload: dict, path, scene_hash: str) -> None:
    """One JSON object, the scene hash its first key."""
    with _open(path) as fh:
        json.dump({"scene_hash": scene_hash, **payload}, fh, indent=2)


def write_jsonl(records, path, scene_hash: str) -> None:
    """One JSON object per line, the scene hash the last key of each."""
    with _open(path) as fh:
        for record in records:
            fh.write(json.dumps({**record, "scene_hash": scene_hash}) + "\n")
