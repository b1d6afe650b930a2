"""Boundary-integral solver on the perturbed disc with half-space kernels.

Because the image kernels satisfy the ground-plane condition exactly, the
integral equation lives on the perturbed panels alone.  Sound-soft surfaces
use the combined double-minus-i*eta*single layer ansatz (eta = k), collocated
at panel centroids through the jump relation; sound-hard surfaces use a
single-layer ansatz with the even-image kernel and the normal-derivative
jump.  Far interactions use one-point centroid quadrature; self and adjacent
panels are integrated by three levels of geometric subdivision toward the
singular point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ProximityError, ResonanceError, SolveError
from .geometry import PanelMesh
from .incident import IncidentWave, PlaneWave, PointSource, eval_pair, grad_pair
from .kernels import (
    MIRROR,
    BoundaryCondition,
    GreenKernel,
    collocation,
    collocation_tiles,
    farfield_matrix,
    representation,
)
from .util import scene_comment, write_table

SOLVE_RESIDUAL_RTOL = 1e-10
CONDITION_LIMIT = 1e8
GRADED_LEVELS = 3
GRADED_LEAVES = 3 * (2 * GRADED_LEVELS + 1)  # leaves per near panel
_ROW_BLOCK = 128


@dataclass(frozen=True)
class LayerDensity:
    """Complex panel coefficients of the boundary ansatz; the boundary
    condition fixes the formulation (and k its coupling)."""

    coefficients: np.ndarray
    bc: BoundaryCondition
    k: float

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex)
        if not np.all(np.isfinite(coeff)):
            raise ValueError("layer density has non-finite entries")
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)


@dataclass(frozen=True)
class SolveReport:
    panel_count: int
    condition_estimate: float
    residual_norm: float
    rhs_norm: float
    wall_time_s: float
    cache_hit: bool
    assembly_time_s: float  # 0.0 on a cache hit, as is factor_time_s
    factor_time_s: float


@dataclass(frozen=True)
class DirectionGrid:
    """Upper-hemisphere observation directions, polar angle measured from +e3."""

    directions: np.ndarray  # (N, 3), all with positive third component
    theta: np.ndarray  # azimuth in [0, 2*pi)
    phi: np.ndarray  # polar angle in (0, pi/2)

    @classmethod
    def make(cls, n_theta: int, n_phi: int) -> "DirectionGrid":
        if n_theta < 1 or n_phi < 1:
            raise ValueError("direction grid needs n_theta >= 1 and n_phi >= 1")
        phis = (np.arange(n_phi) + 0.5) * (np.pi / 2) / n_phi
        thetas = np.arange(n_theta) * 2 * np.pi / n_theta
        tt, pp = np.meshgrid(thetas, phis, indexing="xy")
        tt = tt.ravel()
        pp = pp.ravel()
        dirs = np.column_stack(
            [np.sin(pp) * np.cos(tt), np.sin(pp) * np.sin(tt), np.cos(pp)]
        )
        for a in (dirs, tt, pp):
            a.setflags(write=False)
        return cls(directions=dirs, theta=tt, phi=pp)

    @classmethod
    def single(cls, direction) -> "DirectionGrid":
        d = np.asarray(direction, dtype=float).reshape(3)
        norm = np.linalg.norm(d)
        if not (np.isfinite(norm) and norm > 0):
            raise ValueError(f"far-field direction must be nonzero and finite, got {d.tolist()}")
        d = d / norm
        if d[2] <= 0:
            raise ValueError("far-field directions must lie in the upper hemisphere")
        theta = np.array([np.arctan2(d[1], d[0]) % (2 * np.pi)])
        phi = np.array([np.arccos(np.clip(d[2], -1.0, 1.0))])
        return cls(directions=d[None, :], theta=theta, phi=phi)

    @property
    def size(self) -> int:
        return self.directions.shape[0]


@dataclass(frozen=True)
class FarFieldPattern:
    """Far-field samples of the scattered wave on the upper hemisphere."""

    grid: DirectionGrid
    values: np.ndarray
    k: float
    bc: BoundaryCondition
    mesh_h: float
    mesh_hash: str
    scene_hash: str = ""

    @property
    def directions(self) -> np.ndarray:
        return self.grid.directions


# ---------------------------------------------------------------------------
# graded quadrature toward the singular point

def _dot(u, v):
    """u . v over the first axis of (3, ...) arrays, summed in index order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _closest_points_on_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Closest point of each triangle (a, b, c) to each p; vectorized version
    of Ericson's region classification.  Inputs and result are (3, N)
    component arrays."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = p - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = p - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def _safe_div(num, den):
        return num / np.where(den != 0.0, den, 1.0)

    with np.errstate(invalid="ignore", divide="ignore"):
        t_ab = _safe_div(d1, d1 - d3)
        t_ac = _safe_div(d2, d2 - d6)
        t_bc = _safe_div(d4 - d3, (d4 - d3) + (d5 - d6))
        denom = _safe_div(np.ones_like(va), va + vb + vc)
        interior = a + ab * (vb * denom) + ac * (vc * denom)

    out = interior
    m6 = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    out = np.where(m6, b + (c - b) * t_bc, out)
    m5 = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    out = np.where(m5, a + ac * t_ac, out)
    m4 = (d6 >= 0) & (d5 <= d6)
    out = np.where(m4, c, out)
    m3 = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    out = np.where(m3, a + ab * t_ab, out)
    m2 = (d3 >= 0) & (d4 <= d3)
    out = np.where(m2, b, out)
    m1 = (d1 <= 0) & (d2 <= 0)
    out = np.where(m1, a, out)
    return out


def _graded_leaves(verts: np.ndarray, p: np.ndarray, levels: int = GRADED_LEVELS):
    """Subdivide panels toward their singular points: connect p to the three
    corners, then refine each corner triangle geometrically toward p.

    verts: (3, 3, N) panel corner points, indexed [corner, component, panel];
    p: (3, N) singular points.  Returns leaf centroids (3, N, L), one
    contiguous (N, L) array per component, and areas (N, L).  The leaves tile
    each panel exactly (degenerate corners, when p sits on an edge, simply
    carry zero area); panel j's leaves run fan by fan, the fan of corner ia
    toward corner ia + 1 holding two leaves per level and the last one at p."""
    n = p.shape[-1]
    per_fan = 2 * levels + 1
    # leaf corners, indexed [leaf corner, component, fan, leaf in fan, panel]
    t = np.empty((3, 3, 3, per_fan, n))
    pc = p[:, None, :]
    a_prev = verts.transpose(1, 0, 2)
    b_prev = verts[[1, 2, 0]].transpose(1, 0, 2)
    for m in range(levels):
        a_next = pc + 0.5 * (a_prev - pc)
        b_next = pc + 0.5 * (b_prev - pc)
        t[:, :, :, 2 * m] = a_prev, b_prev, b_next
        t[:, :, :, 2 * m + 1] = a_prev, b_next, a_next
        a_prev, b_prev = a_next, b_next
    t[0, :, :, -1] = pc
    t[1:, :, :, -1] = a_prev, b_prev
    t0, t1, t2 = t.reshape(3, 3, 3 * per_fan, n)
    cents = (t0 + t1 + t2) / 3.0
    u = t1 - t0
    v = t2 - t0
    # u x v written out as np.cross forms it, its norm as np.linalg.norm sums
    c0 = u[1] * v[2] - u[2] * v[1]
    c1 = u[2] * v[0] - u[0] * v[2]
    c2 = u[0] * v[1] - u[1] * v[0]
    areas = 0.5 * np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    return np.ascontiguousarray(cents.transpose(0, 2, 1)), np.ascontiguousarray(areas.T)


def _vertex_adjacency(mesh: PanelMesh) -> np.ndarray:
    """Pairs (i, j) of panels sharing at least one vertex, i collocating on j,
    as a (P, 2) int array in lexicographic order."""
    tris = mesh.triangles
    n = tris.shape[0]
    order = np.argsort(tris.ravel(), kind="stable")
    panels = order // 3  # every panel's corners, listed vertex by vertex
    vertex = tris.ravel()[order]
    counts = np.bincount(vertex)
    group = counts[vertex]  # panels at the vertex of each listed corner
    start = np.repeat((np.cumsum(counts) - counts)[vertex], group)
    # each listed panel against every panel listed at the same vertex
    within = np.arange(start.size) - np.repeat(np.cumsum(group) - group, group)
    keys = np.unique(np.repeat(panels, group) * n + panels[start + within])
    return np.stack(np.divmod(keys, n), axis=1)


# ---------------------------------------------------------------------------
# assembly, factorization cache, solves

@dataclass
class _Factorization:
    matrix: np.ndarray
    lu: np.ndarray
    piv: np.ndarray
    cond_estimate: float
    assembly_time_s: float
    factor_time_s: float  # lu_factor and the gecon condition estimate


# At most one entry, so memory is bounded by the largest system a run
# factors.  Not locked: the package starts no threads.
_FACTOR_CACHE: dict[tuple, _Factorization] = {}


def clear_factorization_cache() -> None:
    _FACTOR_CACHE.clear()


def _assemble_matrix(mesh: PanelMesh, k: float, bc: BoundaryCondition) -> np.ndarray:
    """The collocation matrix, built in pieces of about _ROW_BLOCK**2
    integrand entries: the far block in square tiles, then the self and
    vertex-adjacent panels in chunks of pairs, by graded subdivision toward
    the point of the source panel closest to the collocation point."""
    n = mesh.n_panels
    areas = mesh.areas

    A = np.empty((n, n), dtype=complex)
    for rows, cols, vals in collocation_tiles(bc, mesh.centroids, mesh.normals, k, _ROW_BLOCK):
        np.multiply(vals, areas[cols], out=A[rows, cols])

    cents = np.ascontiguousarray(mesh.centroids.T)
    normals = np.ascontiguousarray(mesh.normals.T)
    corners = np.ascontiguousarray(mesh.panel_vertices().transpose(1, 2, 0))
    pairs = _vertex_adjacency(mesh)
    chunk = max(1, _ROW_BLOCK * _ROW_BLOCK // GRADED_LEAVES)
    for lo in range(0, len(pairs), chunk):
        rows, cols = pairs[lo:lo + chunk].T
        x = cents[:, rows]
        tri = corners[:, :, cols]
        p_sing = _closest_points_on_triangles(x, tri[0], tri[1], tri[2])
        leaf_cents, leaf_areas = _graded_leaves(tri, p_sing)
        vals = collocation(
            bc, x[:, :, None], normals[:, rows, None], leaf_cents, normals[:, cols, None], k
        )
        A[rows, cols] = np.sum(vals * leaf_areas, axis=1)

    jump = 0.5 if bc is BoundaryCondition.DIRICHLET else -0.5
    A[np.arange(n), np.arange(n)] += jump
    return A


def _one_norm(A: np.ndarray) -> float:
    """``np.linalg.norm(A, 1)`` bit for bit, without its ``n x n`` ``|A|``
    temporary: the column sums of ``|A|`` accumulate row by row, the order in
    which numpy reduces over the first axis."""
    col_sums = np.zeros(A.shape[1])
    for row in A:
        col_sums += np.abs(row)
    return float(col_sums.max())


def _condition_estimate(A: np.ndarray, lu: np.ndarray) -> float:
    """LAPACK gecon 1-norm estimate from the LU factors; inf for an exactly
    singular matrix, so the resonance check rejects it."""
    gecon = scipy.linalg.get_lapack_funcs("gecon", (A,))
    rcond, info = gecon(lu, _one_norm(A), norm="1")
    if info != 0:
        raise SolveError(f"LAPACK gecon failed with info={info}")
    return float(1.0 / rcond) if rcond > 0 else np.inf


def _cache_key(mesh: PanelMesh, k: float, bc: BoundaryCondition) -> tuple:
    return (mesh.content_hash, float(k), bc.value)


def get_factorization(mesh: PanelMesh, k: float, bc: BoundaryCondition) -> _Factorization:
    """Assemble and factorize (or fetch from the cache) the collocation system
    for this mesh/wavenumber/boundary condition.  A miss drops the cached
    factorization first, so the old and new systems are never held together."""
    key = _cache_key(mesh, k, bc)
    fact = _FACTOR_CACHE.get(key)
    if fact is not None:
        return fact

    _FACTOR_CACHE.clear()
    t0 = time.perf_counter()
    A = _assemble_matrix(mesh, k, bc)
    t1 = time.perf_counter()
    lu, piv = scipy.linalg.lu_factor(A)
    cond = _condition_estimate(A, lu)
    fact = _Factorization(
        matrix=A,
        lu=lu,
        piv=piv,
        cond_estimate=cond,
        assembly_time_s=t1 - t0,
        factor_time_s=time.perf_counter() - t1,
    )
    if cond > CONDITION_LIMIT:
        if bc is BoundaryCondition.NEUMANN:
            raise ResonanceError(
                f"condition estimate {cond:.2e} exceeds {CONDITION_LIMIT:.0e}: the "
                "single-layer sound-hard formulation is near a spurious interior "
                "resonance of the perturbation; move the wavenumber"
            )
        raise ResonanceError(
            f"condition estimate {cond:.2e} exceeds {CONDITION_LIMIT:.0e} for the "
            "combined-field system"
        )
    _FACTOR_CACHE[key] = fact
    return fact


def _right_hand_side(mesh: PanelMesh, inc: IncidentWave) -> np.ndarray:
    if inc.bc is BoundaryCondition.DIRICHLET:
        return -eval_pair(inc, mesh.centroids)
    return -np.sum(grad_pair(inc, mesh.centroids) * mesh.normals, axis=-1)


def solve_scattered(mesh: PanelMesh, inc: IncidentWave) -> tuple[LayerDensity, SolveReport]:
    """Solve the collocation system for the scattered-field density.

    Point sources must keep a 2h standoff from the surface panels.  The last
    factorization is cached by (mesh, k, bc), so consecutive solves on one
    scene only pay for the right-hand side and the triangular solves.
    """
    if isinstance(inc, PointSource):
        dist = np.min(np.linalg.norm(mesh.centroids - inc.z, axis=1))
        if dist < 2.0 * mesh.h:
            raise ProximityError(
                f"point source at distance {dist:.3g} from the surface; "
                f"need at least 2h = {2 * mesh.h:.3g}"
            )
    t0 = time.perf_counter()
    cache_hit = _cache_key(mesh, inc.k, inc.bc) in _FACTOR_CACHE
    fact = get_factorization(mesh, inc.k, inc.bc)
    b = _right_hand_side(mesh, inc)
    sigma = scipy.linalg.lu_solve((fact.lu, fact.piv), b)
    rhs_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(fact.matrix @ sigma - b))
    if rhs_norm > 0 and residual > SOLVE_RESIDUAL_RTOL * rhs_norm:
        raise SolveError(
            f"linear solve residual {residual:.3e} exceeds "
            f"{SOLVE_RESIDUAL_RTOL:g} * ||rhs|| = {SOLVE_RESIDUAL_RTOL * rhs_norm:.3e}"
        )
    density = LayerDensity(coefficients=sigma, bc=inc.bc, k=inc.k)
    report = SolveReport(
        panel_count=mesh.n_panels,
        condition_estimate=fact.cond_estimate,
        residual_norm=residual,
        rhs_norm=rhs_norm,
        wall_time_s=time.perf_counter() - t0,
        cache_hit=cache_hit,
        assembly_time_s=0.0 if cache_hit else fact.assembly_time_s,
        factor_time_s=0.0 if cache_hit else fact.factor_time_s,
    )
    return density, report


def _check_density_matches(density: LayerDensity, mesh: PanelMesh) -> None:
    if density.coefficients.shape[0] != mesh.n_panels:
        raise ValueError(
            f"density carries {density.coefficients.shape[0]} coefficients "
            f"but the mesh has {mesh.n_panels} panels"
        )


def _check_eval_distance(mesh: PanelMesh, pts: np.ndarray) -> None:
    d_direct = np.linalg.norm(pts[:, None, :] - mesh.centroids[None, :, :], axis=-1)
    d_image = np.linalg.norm(pts[:, None, :] - (mesh.centroids * MIRROR)[None, :, :], axis=-1)
    dist = min(d_direct.min(), d_image.min())
    if dist < 2.0 * mesh.h:
        raise ProximityError(
            f"evaluation point at distance {dist:.3g} from the surface or its "
            f"image; the one-point representation quadrature needs 2h = {2 * mesh.h:.3g}"
        )


def eval_scattered(
    density: LayerDensity, mesh: PanelMesh, inc: IncidentWave, x: np.ndarray
) -> np.ndarray:
    """Evaluate the layer-potential representation at points x (off-surface).

    The kernel is defined on both sides of the ground plane, so mirrored
    evaluation points are legitimate; they are what the extension checks use.
    """
    if inc is not None:
        if (inc.k, inc.bc) != (density.k, density.bc):
            raise ValueError("incident wave does not match the density's k or formulation")
    _check_density_matches(density, mesh)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x.reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")
    _check_eval_distance(mesh, pts)
    vals = representation(density.bc, pts[:, None, :], mesh.centroids[None, :, :],
                          mesh.normals[None, :, :], density.k)
    out = (vals * mesh.areas) @ density.coefficients
    return out[0] if single else out


def eval_farfields(
    densities: list[LayerDensity],
    mesh: PanelMesh,
    grid: DirectionGrid,
    scene_hash: str = "",
) -> list[FarFieldPattern]:
    """Far-field patterns of several densities on one mesh and grid.

    The far-field operator depends only on the mesh, k, the boundary
    condition and the grid, so it is built once, _ROW_BLOCK directions at a
    time, and each block is applied to all densities in one product."""
    if not densities:
        raise ValueError("eval_farfields needs at least one density")
    for density in densities:
        _check_density_matches(density, mesh)
    first = densities[0]
    if any((d.k, d.bc) != (first.k, first.bc) for d in densities):
        raise ValueError("densities must share k, formulation and eta")
    kern = GreenKernel(k=first.k, bc=first.bc)
    normals = mesh.normals if first.bc is BoundaryCondition.DIRICHLET else None
    sigma = np.column_stack([d.coefficients for d in densities])
    dirs = grid.directions
    values = np.empty((len(densities), grid.size), dtype=complex)
    for lo in range(0, grid.size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, grid.size)
        F = farfield_matrix(kern, dirs[lo:hi], mesh.centroids, mesh.areas, normals)
        values[:, lo:hi] = (F @ sigma).T
    values.setflags(write=False)
    return [
        FarFieldPattern(
            grid=grid,
            values=row,
            k=first.k,
            bc=first.bc,
            mesh_h=mesh.h,
            mesh_hash=mesh.content_hash,
            scene_hash=scene_hash,
        )
        for row in values
    ]


def eval_farfield(
    density: LayerDensity,
    mesh: PanelMesh,
    grid: DirectionGrid,
    scene_hash: str = "",
) -> FarFieldPattern:
    """Far-field pattern of the representation on a hemisphere grid."""
    return eval_farfields([density], mesh, grid, scene_hash)[0]


def export_farfield_csv(pattern: FarFieldPattern, path) -> None:
    """CSV with a provenance header line, then theta, phi, re, im rows."""
    write_table(
        path,
        f"k={pattern.k:.17g} bc={pattern.bc.value} mesh_h={pattern.mesh_h:.17g} "
        f"scene={pattern.scene_hash}",
        ["theta", "phi", "re", "im"],
        [pattern.grid.theta, pattern.grid.phi, pattern.values.real, pattern.values.imag],
    )


def export_density_csv(density: LayerDensity, path, scene_hash: str | None = None) -> None:
    c = density.coefficients
    write_table(path, scene_comment(scene_hash), ["panel_id", "re", "im"],
                [np.arange(c.size), c.real, c.imag])
