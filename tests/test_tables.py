"""Exact bytes of the five CSV tables on tiny hand-built inputs.

Each table is an optional ``# ...`` comment line ending in ``\\n``, then a
header and rows ending in ``\\r\\n``; integer columns print as integers and
every other column with ``%.17g`` (so ``-0.0`` prints as ``-0`` and a
subnormal keeps all 17 digits).
"""

import numpy as np
import pytest

from halfscat.geometry import PanelMesh, export_mesh_csv
from halfscat.incident import BoundaryCondition
from halfscat.inverse import (
    IndicatorMap,
    InversionReport,
    export_indicator_csv,
    export_inversion_trace_csv,
)
from halfscat.solver import DirectionGrid, LayerDensity, export_density_csv, export_farfield_csv

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
    values = np.array([complex(-0.0, 1 / 3), complex(1e300, -SUB)])
    path = tmp_path / "f.csv"
    for wrong in (values[:1], values[None, :]):
        with pytest.raises(ValueError, match="on a grid of 2 directions"):
            export_farfield_csv(density, grid, wrong, path)
    export_farfield_csv(density, grid, values, path)
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


@pytest.mark.parametrize(
    "scene_hash, comment", [(None, b""), ("", b"# scene=\n"), ("ab12", b"# scene=ab12\n")]
)
def test_density_bytes(tmp_path, density, scene_hash, comment):
    path = tmp_path / "d.csv"
    export_density_csv(density, path, scene_hash=scene_hash)
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
    export_mesh_csv(mesh, path, scene_hash="")
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
    export_indicator_csv(indicator, path, scene_hash="")
    assert path.read_bytes() == (
        b"# scene=\n"
        b"x,y,z,I\r\n"
        b"0,-0,0.20000000000000001,0.14285714285714285\r\n"
        b"4.9406564584124654e-324,1.0000000000000001e-05,2,12\r\n"
    )


@pytest.mark.parametrize("scene_hash, comment", [(None, b""), ("feed42", b"# scene=feed42\n")])
def test_inversion_trace_bytes(tmp_path, scene_hash, comment):
    report = InversionReport(
        iterations=1,
        objective_trace=np.array([0.5, SUB]),
        params_trace=np.array([[0.15, 0.4], [-0.0, 1e20]]),
        stop_reason="converged",
        regularization=1e-4,
    )
    path = tmp_path / "t.csv"
    export_inversion_trace_csv(report, path, scene_hash=scene_hash)
    assert path.read_bytes() == comment + (
        b"iter,objective,p0,p1\r\n"
        b"0,0.5,0.14999999999999999,0.40000000000000002\r\n"
        b"1,4.9406564584124654e-324,-0,1e+20\r\n"
    )
