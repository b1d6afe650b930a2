"""Exact bytes of the five CSV tables on tiny hand-built inputs, and the
rule that ``artifacts`` is the one module that writes files.

Each table is a ``# ...scene=<hash>`` comment line ending in ``\\n``, then a
header and rows ending in ``\\r\\n``; integer columns print as integers and
every other column with ``%.17g`` (so ``-0.0`` prints as ``-0`` and a
subnormal keeps all 17 digits).
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from halfscat import artifacts
from halfscat.geometry import PanelMesh
from halfscat.incident import BoundaryCondition
from halfscat.inverse import IndicatorMap, InversionReport
from halfscat.solver import DirectionGrid, LayerDensity

SUB = 5e-324  # smallest subnormal double


def _mesh(n_panels, h):
    """n_panels copies of one triangle; the tables read only the panel
    count and h."""
    return PanelMesh(
        vertices=np.eye(3),
        triangles=np.tile([0, 1, 2], (n_panels, 1)),
        centroids=np.full((n_panels, 3), 1 / 3),
        areas=np.full(n_panels, 0.5),
        normals=np.tile([0.0, 0.0, 1.0], (n_panels, 1)),
        h=h,
        n_rings=1,
        support_radius=1.0,
    )


def test_farfield_bytes(tmp_path):
    grid = DirectionGrid(
        directions=np.zeros((2, 3)), theta=np.array([0.0, 1.5]), phi=np.array([SUB, 0.25])
    )
    density = LayerDensity(np.zeros(1), BoundaryCondition.NEUMANN, 2.5, _mesh(1, 0.125))
    values = np.array([[complex(-0.0, 1 / 3), complex(1e300, -SUB)]])
    path = tmp_path / "f.csv"
    for wrong in (values[0], values[:, :1], np.vstack([values, values])):
        with pytest.raises(ValueError, match="on a grid of 2 directions"):
            artifacts.write_farfields([density], grid, wrong, [path], "")
    assert not path.exists()
    artifacts.write_farfields([density], grid, values, [path], "")
    assert path.read_bytes() == (
        b"# k=2.5 bc=neumann mesh_h=0.125 scene=\n"
        b"theta,phi,re,im\r\n"
        b"0,4.9406564584124654e-324,-0,0.33333333333333331\r\n"
        b"1.5,0.25,1.0000000000000001e+300,-4.9406564584124654e-324\r\n"
    )


@pytest.fixture(scope="module")
def density():
    coeffs = np.array([complex(-0.0, SUB), complex(0.1, -2.0), 3.0])
    return LayerDensity(coeffs, BoundaryCondition.DIRICHLET, 2.0, _mesh(3, 0.25))


@pytest.mark.parametrize("scene_hash, comment", [("", b"# scene=\n"), ("ab12", b"# scene=ab12\n")])
def test_density_bytes(tmp_path, density, scene_hash, comment):
    path = tmp_path / "d.csv"
    artifacts.write_density(density, path, scene_hash)
    assert path.read_bytes() == comment + (
        b"panel_id,re,im\r\n"
        b"0,-0,4.9406564584124654e-324\r\n"
        b"1,0.10000000000000001,-2\r\n"
        b"2,3,0\r\n"
    )


def test_mesh_bytes(tmp_path):
    mesh = PanelMesh(
        vertices=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, -0.0], [0.0, 0.5, SUB]]),
        triangles=np.array([[0, 1, 2]]),
        centroids=np.array([[1 / 3, 1 / 6, 0.0]]),
        areas=np.array([0.25]),
        normals=np.array([[-0.0, 0.0, 1.0]]),
        h=0.5,
        n_rings=1,
        support_radius=1.0,
    )
    path = tmp_path / "m.csv"
    artifacts.write_mesh(mesh, path, "")
    assert path.read_bytes() == (
        b"# scene=\n"
        b"panel_id,v1x,v1y,v1z,v2x,v2y,v2z,v3x,v3y,v3z,cx,cy,cz,area,nx,ny,nz\r\n"
        b"0,0,0,0,1,0,-0,0,0.5,4.9406564584124654e-324,"
        b"0.33333333333333331,0.16666666666666666,0,0.25,-0,0,1\r\n"
    )


def test_indicator_bytes(tmp_path):
    indicator = IndicatorMap(
        points=np.array([[0.0, -0.0, 0.2], [SUB, 1e-5, 2.0]]), values=np.array([1 / 7, 12.0])
    )
    path = tmp_path / "i.csv"
    artifacts.write_indicator(indicator, path, "")
    assert path.read_bytes() == (
        b"# scene=\n"
        b"x,y,z,I\r\n"
        b"0,-0,0.20000000000000001,0.14285714285714285\r\n"
        b"4.9406564584124654e-324,1.0000000000000001e-05,2,12\r\n"
    )


@pytest.mark.parametrize("scene_hash, comment", [("feed42", b"# scene=feed42\n")])
def test_inversion_trace_bytes(tmp_path, scene_hash, comment):
    report = InversionReport(
        iterations=1,
        objective_trace=np.array([0.5, SUB]),
        params_trace=np.array([[0.15, 0.4], [-0.0, 1e20]]),
        stop_reason="converged",
        regularization=1e-4,
    )
    path = tmp_path / "t.csv"
    artifacts.write_inversion_trace(report, path, scene_hash)
    assert path.read_bytes() == comment + (
        b"iter,objective,p0,p1\r\n"
        b"0,0.5,0.14999999999999999,0.40000000000000002\r\n"
        b"1,4.9406564584124654e-324,-0,1e+20\r\n"
    )


def test_farfields_one_table_per_density(tmp_path):
    """Three densities write three tables, each the bytes of a one-density
    call on its row; values of another shape, or another number of paths,
    are refused before any file is written."""
    grid = DirectionGrid.make(3, 2)
    mesh = _mesh(2, 0.25)
    densities = [LayerDensity(np.zeros(2), BoundaryCondition.DIRICHLET, k, mesh)
                 for k in (1.0, 2.0, 2.5)]
    values = np.random.default_rng(3).normal(size=(3, grid.size, 2)) @ [1, 1j]
    paths = [tmp_path / f"farfield_{i:03d}.csv" for i in range(3)]
    artifacts.write_farfields(densities, grid, values, paths, "c0ffee")
    for i, (density, path) in enumerate(zip(densities, paths)):
        one = tmp_path / f"one_{i}.csv"
        artifacts.write_farfields([density], grid, values[i:i + 1], [one], "c0ffee")
        assert path.read_bytes() == one.read_bytes()
        assert path.read_bytes().startswith(f"# k={density.k:.17g} bc=dirichlet ".encode())
    refused = tmp_path / "refused"
    for wrong in (values[:2], values[:, :-1], values[0]):
        with pytest.raises(ValueError, match="on a grid of 6 directions"):
            artifacts.write_farfields(densities, grid, wrong, [refused] * 3, "c0ffee")
    for n in (2, 4):
        with pytest.raises(ValueError, match=f"{n} paths for 3 far fields"):
            artifacts.write_farfields(densities, grid, values, [refused] * n, "c0ffee")
    assert not refused.exists()


def _file_writes(path):
    """Lines that call ``open`` in a write mode (or a mode that is not a
    constant), ``write_text`` or ``write_bytes``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            # open(file, mode) and Path.open(mode)
            modes = [*node.args[1 if isinstance(func, ast.Name) else 0:][:1],
                     *(kw.value for kw in node.keywords if kw.arg == "mode")]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes):
                lines.append(node.lineno)
    return lines


def test_only_artifacts_writes_files():
    sources = sorted(Path(artifacts.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {p.name: lines for p in sources if (lines := _file_writes(p))}
    assert found.keys() == {"artifacts.py"}
