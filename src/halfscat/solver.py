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
# numpy imports its fft module, and maps its library, on first use; imported
# here, a short memory cannot fail the first factorization with an ImportError
import numpy.fft

from . import lapack
from .errors import MemoryBudgetError, ProximityError, ResonanceError, SolveError
from .geometry import PanelMesh
from .incident import IncidentWave, PointSource, eval_pair, grad_pair
from .kernels import (
    BoundaryCondition,
    GreenKernel,
    _displacements,
    _lengths,
    collocation,
    collocation_tiles,
    farfield_matrix,
    representation,
)
from .util import even_slices, memory_budget_mb

SOLVE_RESIDUAL_RTOL = 1e-10
CONDITION_LIMIT = 1e8
GRADED_LEVELS = 3
GRADED_LEAVES = 3 * (2 * GRADED_LEVELS + 1)  # leaves per near panel
_ROW_BLOCK = 128
_FFT_ROWS = 32  # block rows per sector-axis transform in _Factorization.factor
_ESTIMATE_STEPS = 5  # onenormest's itmax


@dataclass(frozen=True, eq=False)
class LayerDensity:
    """Complex coefficients of the boundary ansatz, one per panel of ``mesh``;
    the boundary condition fixes the formulation (and k its coupling).  The
    density is the whole representation, so no evaluator takes a mesh.
    Densities compare by identity, as meshes do."""

    coefficients: np.ndarray
    bc: BoundaryCondition
    k: float
    mesh: PanelMesh

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex)
        if coeff.shape != (self.mesh.n_panels,):
            raise ValueError(f"density carries coefficients of shape {coeff.shape} "
                             f"but the mesh has {self.mesh.n_panels} panels")
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
        if any(isinstance(n, bool) or not isinstance(n, int) for n in (n_theta, n_phi)):
            raise ValueError(f"direction grid counts must be integers, got {n_theta!r}, {n_phi!r}")
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


# ---------------------------------------------------------------------------
# graded quadrature toward the singular point

def _dot(u, v):
    """u . v over the first axis of (3, ...) arrays, summed in index order."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _closest_points_on_triangles(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Closest point of each triangle (a, b, c) to each p; vectorized version
    of Ericson's region classification.  Inputs and result are (3, N)
    component arrays.  Each region's point is computed only for the pairs
    that region decides."""
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

    left = np.ones(p.shape[1], dtype=bool)  # pairs no region has decided yet

    def decided(holds):
        """The pairs a region decides: those where it holds and no earlier
        region did."""
        i = np.flatnonzero(holds & left)
        left[i] = False
        return i

    def _safe_div(num, den):
        return num / np.where(den != 0.0, den, 1.0)

    # Voronoi regions in Ericson's test order: corner a, corner b, edge ab,
    # corner c, edge ac, edge bc, then the interior
    out = np.empty_like(p)
    with np.errstate(invalid="ignore", divide="ignore"):
        i = decided((d1 <= 0) & (d2 <= 0))
        out[:, i] = a[:, i]
        i = decided((d3 >= 0) & (d4 <= d3))
        out[:, i] = b[:, i]
        i = decided((vc <= 0) & (d1 >= 0) & (d3 <= 0))
        out[:, i] = a[:, i] + ab[:, i] * _safe_div(d1[i], d1[i] - d3[i])
        i = decided((d6 >= 0) & (d5 <= d6))
        out[:, i] = c[:, i]
        i = decided((vb <= 0) & (d2 >= 0) & (d6 <= 0))
        out[:, i] = a[:, i] + ac[:, i] * _safe_div(d2[i], d2[i] - d6[i])
        d43 = d4 - d3
        d56 = d5 - d6
        i = decided((va <= 0) & (d43 >= 0) & (d56 >= 0))
        out[:, i] = b[:, i] + (c[:, i] - b[:, i]) * _safe_div(d43[i], d43[i] + d56[i])
        i = np.flatnonzero(left)
        denom = _safe_div(1.0, va[i] + vb[i] + vc[i])
        out[:, i] = a[:, i] + ab[:, i] * (vb[i] * denom) + ac[:, i] * (vc[i] * denom)
    return out


def _graded_leaves(verts: np.ndarray, p: np.ndarray):
    """Subdivide panels toward their singular points: connect p to the three
    corners, then refine each corner triangle geometrically toward p.

    verts: (3, 3, N) panel corner points, indexed [corner, component, panel];
    p: (3, N) singular points.  Returns leaf centroids (3, N, L), one
    contiguous (N, L) array per component, and areas (N, L).  The leaves tile
    each panel exactly (degenerate corners, when p sits on an edge, simply
    carry zero area); panel j's leaves run fan by fan, the fan of corner ia
    toward corner ia + 1 holding two leaves per level and the last one at p."""
    n = p.shape[-1]
    per_fan = 2 * GRADED_LEVELS + 1
    # the fans' corners at each level, indexed [component, panel, fan]
    pc = p[:, :, None]
    a = [np.ascontiguousarray(verts.transpose(1, 2, 0))]
    b = [np.ascontiguousarray(verts[[1, 2, 0]].transpose(1, 2, 0))]
    for _ in range(GRADED_LEVELS):
        a.append(pc + 0.5 * (a[-1] - pc))
        b.append(pc + 0.5 * (b[-1] - pc))
    leaves = [corners for m in range(GRADED_LEVELS)
              for corners in ((a[m], b[m], b[m + 1]), (a[m], b[m + 1], a[m + 1]))]
    leaves.append((pc, a[-1], b[-1]))
    # each leaf's centroid and area, written straight into the final layout
    cents = np.empty((3, n, 3, per_fan))
    areas = np.empty((n, 3, per_fan))
    for j, (t0, t1, t2) in enumerate(leaves):
        c = t0 + t1
        c += t2
        np.divide(c, 3.0, out=cents[..., j])
        u = t1 - t0
        v = t2 - t0
        # u x v written out as np.cross forms it, its norm as np.linalg.norm sums
        c0 = u[1] * v[2] - u[2] * v[1]
        c1 = u[2] * v[0] - u[0] * v[2]
        c2 = u[0] * v[1] - u[1] * v[0]
        np.multiply(0.5, np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), out=areas[..., j])
    return cents.reshape(3, n, 3 * per_fan), areas.reshape(n, 3 * per_fan)


# ---------------------------------------------------------------------------
# assembly, factorization cache, solves

@dataclass
class _Factorization:
    """The collocation system A of a mesh whose panels fall into g sector
    orbits O (``PanelMesh.sector_orbits``), stored as the g real-space
    blocks B_s[a, b] = A[O[a, 0], O[b, s]] and the LU factors of their
    sector-Fourier transforms B^_p = sum_s w^(ps) B_s, w = e^(2 pi i / g).

    A commutes with the rotation by one sector, so A[O[a, r], O[b, r + s]] =
    B_s[a, b] and A is block-diagonal in the sector-Fourier basis.  With
    g = 1 the one block is the dense matrix and its LU is A's.  Each LU is
    factored in place, so a solve holds the blocks and their factors only."""

    orbits: np.ndarray  # (m, g) panel indices, m = n / g
    blocks: np.ndarray  # (g, m, m)
    lus: list  # lapack.getrf of each B^_p: its LU in place and its pivots
    cond_estimate: float = np.inf
    assembly_time_s: float = 0.0
    factor_time_s: float = 0.0  # the block LUs and the condition estimate

    @classmethod
    def factor(cls, orbits: np.ndarray, blocks: np.ndarray) -> "_Factorization":
        g, m = blocks.shape[:2]
        # Fortran-ordered blocks, which getrf overwrites with their LUs; the
        # sector-axis transform goes through a C-ordered temporary of
        # _FFT_ROWS rows, which is cheaper than writing it strided
        F = np.empty(blocks.shape, dtype=complex).transpose(0, 2, 1)
        for lo in range(0, m, _FFT_ROWS):
            rows = np.fft.ifft(blocks[:, lo:lo + _FFT_ROWS], axis=0)
            rows *= g
            F[:, lo:lo + _FFT_ROWS] = rows
        return cls(orbits, blocks, [lapack.getrf(b) for b in F])

    def solve(self, b: np.ndarray, trans: int = 0) -> np.ndarray:
        """A^-1 b, or (A^H)^-1 b with trans=2.  The right-hand side goes to
        the sector-Fourier basis as fft(b[O]) / g and the solution comes back
        as x[O] = g ifft(X^); the factors g cancel, so neither is applied.
        A^H has the same basis, with the blocks B^_p^H.  Each block solve is
        one LAPACK getrs call on that block's factors."""
        rhs = np.fft.fft(b[self.orbits], axis=1)
        sol = np.column_stack([
            lapack.getrs(lu, piv, rhs[:, p], trans) for p, (lu, piv) in enumerate(self.lus)
        ])
        x = np.empty(self.orbits.size, dtype=complex)
        x[self.orbits] = np.fft.ifft(sol, axis=1)
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x from the real-space blocks, (A x)[O[a, r]] = sum_s B_s x[O[., r + s]];
        independent of the LU factors, so it checks the solve."""
        xs = x[self.orbits]
        y = np.empty(self.orbits.size, dtype=complex)
        y[self.orbits] = sum(B @ np.roll(xs, -s, axis=1) for s, B in enumerate(self.blocks))
        return y


# At most one entry, so memory is bounded by the largest system a run
# factors.  Keyed by the mesh object, which compares by identity.  Not
# locked: the package starts no Python thread, and the OpenBLAS pools that
# run the LUs and solves never touch Python objects.
_FACTOR_CACHE: dict[tuple, _Factorization] = {}


def clear_factorization_cache() -> None:
    _FACTOR_CACHE.clear()


def _assemble_blocks(mesh: PanelMesh, k: float, bc: BoundaryCondition) -> np.ndarray:
    """The real-space blocks B_s of ``_Factorization``, (g, m, m), from the
    rows of sector 0 alone (with g = 1 the one block is the dense matrix),
    built in pieces of at most about _ROW_BLOCK**2 integrand entries, cut
    evenly (``even_slices``): the far entries in ``collocation_tiles``, then
    the self and vertex-adjacent pairs (i, j) by graded subdivision toward
    the point of panel j closest to the centroid of i."""
    topo = mesh.topology()
    orbits = topo.orbits
    m, g = orbits.shape
    cents = np.ascontiguousarray(mesh.centroids.T)
    normals = np.ascontiguousarray(mesh.normals.T)

    B = np.empty((g, m, m), dtype=complex)
    for s in range(g):
        cols = orbits[:, s]
        for i, j, vals in collocation_tiles(bc, cents, normals, orbits[:, 0], cols, k, _ROW_BLOCK):
            np.multiply(vals, mesh.areas[cols[j]], out=B[s, i, j])

    corners = np.ascontiguousarray(mesh.panel_vertices().transpose(1, 2, 0))
    near_rows, near_cols = topo.near_pairs.T
    # elementwise, so one call on every near pair gives each chunk's points
    near_sing = _closest_points_on_triangles(cents[:, near_rows], *corners[:, :, near_cols])
    chunk = max(1, _ROW_BLOCK * _ROW_BLOCK // GRADED_LEAVES)
    for piece in even_slices(len(topo.near_pairs), chunk):
        rows, cols = near_rows[piece], near_cols[piece]
        x = cents[:, rows]
        tri = corners[:, :, cols]
        leaf_cents, leaf_areas = _graded_leaves(tri, near_sing[:, piece])
        vals = collocation(
            bc, x[:, :, None], normals[:, rows, None], leaf_cents, normals[:, cols, None], k
        )
        B[tuple(topo.near_slots[:, piece])] = np.sum(vals * leaf_areas, axis=1)

    B[0, np.arange(m), np.arange(m)] += 0.5 if bc is BoundaryCondition.DIRICHLET else -0.5
    return B


def _one_norm(blocks: np.ndarray) -> float:
    """The 1-norm of the system ``blocks`` stores, without an ``n x n``
    ``|A|`` temporary: column b of every sector's column sums to
    sum_s sum_a |B_s[a, b]|, which accumulates row by row.  For a 2-D
    matrix that is the order in which numpy reduces over the first axis, so
    the result is ``np.linalg.norm(A, 1)`` bit for bit; numpy takes that
    order here too, on _ROW_BLOCK rows at a time below the running sums."""
    rows = blocks.reshape(-1, blocks.shape[-1])
    acc = np.zeros((_ROW_BLOCK + 1, rows.shape[1]))  # running sums, then |rows|
    for lo in range(0, len(rows), _ROW_BLOCK):
        chunk = rows[lo:lo + _ROW_BLOCK]
        np.abs(chunk, out=acc[1:len(chunk) + 1])
        acc[0] = acc[:len(chunk) + 1].sum(axis=0)
    return float(acc[0].max())


def _inverse_norm_estimate(fact: _Factorization) -> float:
    """Lower estimate of ||A^-1||_1 by Higham and Tisseur's block 1-norm
    estimator (SIAM J. Matrix Anal. Appl. 21, 2000, Algorithm 2.4) with one
    column and at most _ESTIMATE_STEPS steps, through block solves and their
    adjoints.  It takes the steps of ``scipy.sparse.linalg.onenormest(t=1)``
    in the same order, so the estimate is the same float; with one column the
    start vector is constant and no step draws a random number."""
    n = fact.orbits.size
    x = np.ones(n) / float(n)
    sign_old = np.zeros(n)
    est_old = 0
    best = None  # from the second step on, x is the unit vector e_best
    for step in range(1, _ESTIMATE_STEPS + 2):
        y = fact.solve(x)
        est = np.sum(np.abs(y))
        if step >= 2 and est <= est_old:
            return est_old
        est_old = est
        if step > _ESTIMATE_STEPS:
            break
        sign = y.copy()
        sign[sign == 0] = 1
        sign /= np.abs(sign)
        if np.dot(sign, sign_old) == n:  # the sign vector repeats
            break
        z = np.abs(fact.solve(sign, trans=2))
        # Python's max, as scipy takes it: numpy's differs where z holds a NaN
        if step >= 2 and max(z) == z[best]:
            break
        best = np.argsort(z)[-1]  # scipy's argsort(h)[::-1][0]; argmax can pick another tie
        x = np.zeros(n)
        x[best] = 1
        sign_old = sign
    return est


def _condition_estimate(fact: _Factorization) -> float:
    """1-norm condition estimate: the exact ||A||_1 times the estimate of
    ||A^-1||_1 (``_inverse_norm_estimate``, deterministic).  inf for an
    exactly singular system, or a non-finite estimate, so the resonance check
    rejects it."""
    if any(not np.all(np.diagonal(lu)) for lu, _ in fact.lus):
        return np.inf
    with np.errstate(all="ignore"):
        cond = _one_norm(fact.blocks) * _inverse_norm_estimate(fact)
    return float(cond) if np.isfinite(cond) else np.inf


def _cache_key(mesh: PanelMesh, k: float, bc: BoundaryCondition) -> tuple:
    return (mesh, float(k), bc)


def system_mb(panels: int, sectors: int) -> float:
    """MiB that ``_Factorization`` stores for a mesh of this many panels
    and sectors: the g blocks of (n/g)^2 complex entries and their LU
    factors, 32 n^2 / g bytes."""
    return 32 * panels**2 / sectors / 2**20


def get_factorization(mesh: PanelMesh, k: float, bc: BoundaryCondition) -> _Factorization:
    """Assemble and factorize (or fetch from the cache) the collocation system
    for this mesh/wavenumber/boundary condition.  A miss drops the cached
    factorization first, so the old and new systems are never held together.

    Before assembly, a miss raises ``MemoryBudgetError`` when the stored
    system, plus the BLAS work buffer until the process's first LU, exceeds
    ``memory_budget_mb()``.  Else it maps that buffer first, so that numpy,
    not OpenBLAS, fails when the budget is short by less than assembly's
    temporaries."""
    key = _cache_key(mesh, k, bc)
    if key in _FACTOR_CACHE:
        return _FACTOR_CACHE[key]

    _FACTOR_CACHE.clear()
    need = system_mb(mesh.n_panels, mesh.sectors) + lapack.work_buffer_mb()
    budget = memory_budget_mb()
    if budget is not None and need > budget[0]:
        raise MemoryBudgetError(f"the {mesh.n_panels}-panel system needs {need:.1f} MiB, "
                                f"more than the {budget[0]:.1f} MiB {budget[1]} leaves")
    lapack.map_work_buffer()
    t0 = time.perf_counter()
    blocks = _assemble_blocks(mesh, k, bc)
    t1 = time.perf_counter()
    fact = _Factorization.factor(mesh.sector_orbits(), blocks)
    cond = fact.cond_estimate = _condition_estimate(fact)
    fact.assembly_time_s = t1 - t0
    fact.factor_time_s = time.perf_counter() - t1
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
        dist = _eval_distance(mesh, inc.z[None, :], [slice(0, 1)])
        if dist < 2.0 * mesh.h:
            raise ProximityError(
                f"point source at distance {dist:.3g} from the surface; "
                f"need at least 2h = {2 * mesh.h:.3g}"
            )
    t0 = time.perf_counter()
    cache_hit = _cache_key(mesh, inc.k, inc.bc) in _FACTOR_CACHE
    fact = get_factorization(mesh, inc.k, inc.bc)
    b = _right_hand_side(mesh, inc)
    sigma = fact.solve(b)
    rhs_norm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(fact.apply(sigma) - b))
    if rhs_norm > 0 and residual > SOLVE_RESIDUAL_RTOL * rhs_norm:
        raise SolveError(
            f"linear solve residual {residual:.3e} exceeds "
            f"{SOLVE_RESIDUAL_RTOL:g} * ||rhs|| = {SOLVE_RESIDUAL_RTOL * rhs_norm:.3e}"
        )
    density = LayerDensity(coefficients=sigma, bc=inc.bc, k=inc.k, mesh=mesh)
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


def _eval_pieces(mesh: PanelMesh, count: int) -> list[slice]:
    """``even_slices`` of ``count`` points or directions whose pieces hold at
    most _ROW_BLOCK**2 point-panel pairs, the entry budget of assembly's
    tiles and near chunks, so an evaluator's temporaries do not grow with
    the point count."""
    return even_slices(count, max(1, _ROW_BLOCK**2 // mesh.n_panels))


def _eval_distance(mesh: PanelMesh, pts: np.ndarray, pieces: list[slice]) -> float:
    """Distance from the points to the nearest panel centroid or mirror image
    of one, |x - y| and |x - y'| as the kernels form them (``_lengths``),
    which is np.linalg.norm's bit for bit."""
    cents = mesh.centroids.T[:, None, :]
    nearest = np.inf
    for piece in pieces:
        for r in _lengths(_displacements(pts[piece].T[:, :, None], cents)):
            nearest = min(nearest, r.min(initial=np.inf))
    return float(nearest)


def eval_scattered(density: LayerDensity, x: np.ndarray) -> np.ndarray:
    """Evaluate the layer-potential representation at points x (off-surface);
    the density carries its mesh, k and the formulation.  The points are taken
    in pieces of at most _ROW_BLOCK**2 point-panel pairs (``_eval_pieces``).

    The kernel is defined on both sides of the ground plane, so mirrored
    evaluation points are legitimate; they are what the extension checks use.
    """
    mesh = density.mesh
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (3,):
        raise ValueError(f"evaluation points must have 3 coordinates, got shape {x.shape}")
    single = x.ndim == 1
    pts = x.reshape(-1, 3)
    if not np.isfinite(pts).all():
        raise ValueError("evaluation points must be finite")
    pieces = _eval_pieces(mesh, len(pts))
    dist = _eval_distance(mesh, pts, pieces)
    if dist < 2.0 * mesh.h:
        raise ProximityError(
            f"evaluation point at distance {dist:.3g} from the surface or its "
            f"image; the one-point representation quadrature needs 2h = {2 * mesh.h:.3g}"
        )
    out = np.empty(len(pts), dtype=complex)
    for piece in pieces:
        vals = representation(density.bc, pts[piece, None, :], mesh.centroids[None, :, :],
                              mesh.normals[None, :, :], density.k)
        vals *= mesh.areas
        out[piece] = vals @ density.coefficients
    return out[0] if single else out


def eval_farfields(densities: list[LayerDensity], grid: DirectionGrid) -> np.ndarray:
    """Far-field patterns of densities that share one mesh object, k and
    formulation, on one grid: a read-only (len(densities), grid.size) array,
    row i the pattern of densities[i].

    The far-field operator depends only on the mesh, k, the boundary
    condition and the grid, so it is built once, in pieces of at most
    _ROW_BLOCK**2 direction-panel pairs (``_eval_pieces``), and each piece is
    applied to all densities in one product."""
    if not densities:
        raise ValueError("eval_farfields needs at least one density")
    first = densities[0]
    mesh = first.mesh
    for d in densities:
        if d.mesh is not mesh:
            raise ValueError("densities must share one mesh object")
        if (d.k, d.bc) != (first.k, first.bc):
            raise ValueError(f"densities must share k, formulation: k={first.k!r}, "
                             f"bc={first.bc.value} against k={d.k!r}, bc={d.bc.value}")
    kern = GreenKernel(k=first.k, bc=first.bc)
    normals = mesh.normals if first.bc is BoundaryCondition.DIRICHLET else None
    sigma = np.column_stack([d.coefficients for d in densities])
    dirs = grid.directions
    values = np.empty((len(densities), grid.size), dtype=complex)
    for piece in _eval_pieces(mesh, grid.size):
        F = farfield_matrix(kern, dirs[piece], mesh.centroids, mesh.areas, normals)
        values[:, piece] = (F @ sigma).T
    values.setflags(write=False)
    return values


def eval_farfield(density: LayerDensity, grid: DirectionGrid) -> np.ndarray:
    """Far-field pattern of the representation on a hemisphere grid: one
    row of ``eval_farfields``."""
    return eval_farfields([density], grid)[0]

