"""Locally perturbed ground-plane geometry: height profiles and panel meshes.

The scattering surface is the graph ``x3 = f(x1, x2)`` of a Lipschitz height
function supported in the disc ``|x~| <= R``; outside that disc the surface is
the flat ground plane ``x3 = 0``.  Only the perturbed disc is ever meshed: the
half-space kernels satisfy the boundary condition on the flat part exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DippingProfileError, SceneConfigError
from .util import as_float, as_mapping, check_keys, require

PROFILE_KINDS = ("zero", "gaussian_bump", "piecewise_linear")


@dataclass(frozen=True)
class SurfaceProfile:
    """Height function of the perturbation, zero outside the disc of radius R.

    ``heights``/``node_xs`` are only populated for the piecewise-linear kind
    (square node grid over ``[-R, R]^2``, cells split along the lower-left to
    upper-right diagonal).  ``max_slope`` is the maximum facet slope for
    piecewise-linear profiles and the maximum radial derivative otherwise.
    """

    kind: str
    support_radius: float
    amplitude: float = 0.0
    width: float = 0.0
    heights: np.ndarray | None = None
    node_xs: np.ndarray | None = None
    max_slope: float = field(default=0.0, compare=False)

    @property
    def peak_height(self) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "gaussian_bump":
            return max(self.amplitude, 0.0)
        return float(np.max(self.heights))

    def height(self, xy: np.ndarray) -> np.ndarray:
        """Evaluate f at points ``xy`` of shape (..., 2)."""
        xy = np.asarray(xy, dtype=float)
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        R = self.support_radius
        if self.kind == "zero":
            return np.zeros(xy.shape[:-1])
        if self.kind == "gaussian_bump":
            s2 = 2.0 * self.width**2
            floor = math.exp(-(R**2) / s2)
            vals = self.amplitude * (np.exp(-r2 / s2) - floor) / (1.0 - floor)
            return np.where(r2 < R**2, vals, 0.0)
        return self._interp_linear(xy)

    def _interp_linear(self, xy: np.ndarray) -> np.ndarray:
        # union-jack split: cells alternate their diagonal with the parity of
        # i+j, so a lone peaked node yields facets of slope height/spacing
        xs = self.node_xs
        h = self.heights
        delta = xs[1] - xs[0]
        m = xs.size
        u = (xy[..., 0] - xs[0]) / delta
        v = (xy[..., 1] - xs[0]) / delta
        inside = (u >= 0) & (u <= m - 1) & (v >= 0) & (v <= m - 1)
        i = np.clip(np.floor(u).astype(int), 0, m - 2)
        j = np.clip(np.floor(v).astype(int), 0, m - 2)
        lu = np.clip(u - i, 0.0, 1.0)
        lv = np.clip(v - j, 0.0, 1.0)
        hA = h[i, j]
        hB = h[i + 1, j]
        hC = h[i + 1, j + 1]
        hD = h[i, j + 1]
        even = (i + j) % 2 == 0
        even_vals = np.where(
            lu >= lv,
            hA + (hB - hA) * lu + (hC - hB) * lv,
            hA + (hC - hD) * lu + (hD - hA) * lv,
        )
        odd_vals = np.where(
            lu + lv <= 1.0,
            hA + (hB - hA) * lu + (hD - hA) * lv,
            hC + (hD - hC) * (1.0 - lu) + (hB - hC) * (1.0 - lv),
        )
        vals = np.where(even, even_vals, odd_vals)
        r2 = xy[..., 0] ** 2 + xy[..., 1] ** 2
        return np.where(inside & (r2 < self.support_radius**2), vals, 0.0)


def _pl_max_slope(node_xs: np.ndarray, heights: np.ndarray) -> float:
    # brute force over both facets of every cell, honoring the union-jack split
    delta = node_xs[1] - node_xs[0]
    hA = heights[:-1, :-1]
    hB = heights[1:, :-1]
    hC = heights[1:, 1:]
    hD = heights[:-1, 1:]
    m = heights.shape[0] - 1
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    even = (ii + jj) % 2 == 0
    g1 = np.where(even, np.hypot(hB - hA, hC - hB), np.hypot(hB - hA, hD - hA)) / delta
    g2 = np.where(even, np.hypot(hC - hD, hD - hA), np.hypot(hC - hD, hC - hB)) / delta
    return float(max(g1.max(), g2.max()))


def _gaussian_max_slope(a: float, sigma: float, R: float) -> float:
    floor = math.exp(-(R**2) / (2 * sigma**2))
    r = np.linspace(0.0, R, 4097)
    slope = abs(a) * (r / sigma**2) * np.exp(-(r**2) / (2 * sigma**2)) / (1.0 - floor)
    return float(slope.max())


def validate_profile(spec) -> dict:
    """The profile schema, checked both when a scene config loads and when a
    profile is built.

    ``spec`` keys: ``kind`` plus ``R`` (> 0); ``gaussian_bump`` takes
    ``amplitude`` and ``width`` (> 0); ``piecewise_linear`` takes ``heights``
    (square list/array of at least 3 x 3 numbers, the node heights on the
    grid over ``[-R, R]^2``).  Returns the canonical description that the
    scene hash covers: ``R``, ``amplitude`` and ``width`` as floats,
    ``heights`` as given.
    """
    where = "profile"
    spec = as_mapping(spec, where)
    kind = spec.get("kind")
    out = {"kind": kind, "R": as_float(require(spec, "R", where), f"{where}.R", positive=True)}
    if kind == "zero":
        check_keys(spec, {"kind", "R"}, where)
    elif kind == "gaussian_bump":
        check_keys(spec, {"kind", "R", "amplitude", "width"}, where)
        out["amplitude"] = as_float(require(spec, "amplitude", where), f"{where}.amplitude")
        out["width"] = as_float(require(spec, "width", where), f"{where}.width", positive=True)
    elif kind == "piecewise_linear":
        check_keys(spec, {"kind", "R", "heights"}, where)
        out["heights"] = require(spec, "heights", where)
        _height_grid(out["heights"])
    else:
        kinds = " | ".join(PROFILE_KINDS)
        raise SceneConfigError(f"{where}.kind", f"expected {kinds}, got {kind!r}")
    return out


def _height_grid(value) -> np.ndarray:
    """``heights`` as a square float array of at least 3 x 3 nodes, each an
    ``int`` or ``float`` (not a bool or a string), as ``as_float`` asks of
    the profile's scalars."""
    rows = value.tolist() if isinstance(value, np.ndarray) else value
    if not (
        isinstance(rows, (list, tuple))
        and all(isinstance(row, (list, tuple)) for row in rows)
        and len({len(row) for row in rows}) <= 1
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for row in rows for v in row
        )
    ):
        raise SceneConfigError(
            "profile.heights", f"expected a square grid of numbers, got {value!r}"
        )
    heights = np.array(rows, dtype=float)
    if heights.ndim != 2 or heights.shape[0] != heights.shape[1] or heights.shape[0] < 3:
        raise SceneConfigError(
            "profile.heights", f"square node grid of size >= 3 required, got shape {heights.shape}"
        )
    return heights


def build_profile(spec: dict) -> SurfaceProfile:
    """Validate a profile description (``validate_profile``) and build the
    height function.  A negative height, which no solver path accepts, is a
    ``DippingProfileError``.
    """
    spec = validate_profile(spec)
    kind, R = spec["kind"], spec["R"]

    if kind == "zero":
        return SurfaceProfile(kind="zero", support_radius=R, max_slope=0.0)

    if kind == "gaussian_bump":
        a, sigma = spec["amplitude"], spec["width"]
        if a < 0:
            raise DippingProfileError("gaussian_bump amplitude < 0 dips below the ground plane")
        return SurfaceProfile(
            kind="gaussian_bump",
            support_radius=R,
            amplitude=a,
            width=sigma,
            max_slope=_gaussian_max_slope(a, sigma, R),
        )

    heights = _height_grid(spec["heights"])
    if not np.isfinite(heights).all():
        raise SceneConfigError("profile.heights", "NaN or infinite height")
    m = heights.shape[0]
    boundary = np.concatenate([heights[0], heights[-1], heights[:, 0], heights[:, -1]])
    if np.any(boundary != 0.0):
        raise SceneConfigError("profile.heights", "boundary-ring heights must all be zero")
    if np.any(heights < 0):
        raise DippingProfileError("negative node heights dip below the ground plane")
    node_xs = np.linspace(-R, R, m)
    # compact support: a nonzero node whose support cells touch |x~| >= R would
    # push f outside the disc, so keep nonzero nodes a cell diagonal inside
    delta = node_xs[1] - node_xs[0]
    nx, ny = np.meshgrid(node_xs, node_xs, indexing="ij")
    rnode = np.hypot(nx, ny)
    bad = (heights != 0.0) & (rnode > R - math.sqrt(2.0) * delta)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SceneConfigError(
            "profile.heights",
            f"node ({i},{j}) at |x~|={rnode[i, j]:.4g} is nonzero but too close to the "
            f"support rim |x~|={R:g}; nonzero nodes must satisfy |x~| <= R - sqrt(2)*spacing",
        )
    heights.setflags(write=False)
    node_xs.setflags(write=False)
    return SurfaceProfile(
        kind="piecewise_linear",
        support_radius=R,
        heights=heights,
        node_xs=node_xs,
        max_slope=_pl_max_slope(node_xs, heights),
    )


@dataclass(frozen=True, eq=False)
class PanelMesh:
    """Flat-triangle mesh of the perturbed disc, lifted to the graph of f.

    ``vertices``/``triangles`` give the structured ring triangulation;
    centroids, areas and upward unit normals are per panel.  ``sectors`` is
    the order of the rotation group the mesh is invariant under: 6 for a
    radial profile on the ring grid, else 1.  Meshes compare by identity.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    centroids: np.ndarray
    areas: np.ndarray
    normals: np.ndarray
    h: float
    n_rings: int
    support_radius: float
    sectors: int = 1

    @property
    def n_panels(self) -> int:
        return self.triangles.shape[0]

    def topology(self) -> "RingTopology":
        """The profile-free part of the mesh (``ring_topology``), shared by
        every mesh of this ring count and sector count."""
        return ring_topology(self.n_rings, self.sectors)

    def sector_orbits(self) -> np.ndarray:
        """(n_panels / sectors, sectors) panel indices: row a lists panel
        O[a, 0] of sector 0 and its images under the rotations by
        2 pi s / sectors, so O[a, s + 1] is O[a, s] turned by one sector."""
        return self.topology().orbits

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    def panel_vertices(self) -> np.ndarray:
        """(n_panels, 3, 3) array of the three corner points of each panel."""
        return self.vertices[self.triangles]


def _disc_grid(n: int):
    """Ring triangulation of the unit disc: center vertex plus rings of 6*i
    vertices; 6*n^2 triangles total, all oriented counterclockwise."""
    verts = [(0.0, 0.0)]
    for i in range(1, n + 1):
        cnt = 6 * i
        ang = 2.0 * np.pi * np.arange(cnt) / cnt
        r = i / n
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    verts = np.array(verts)

    def start(i):
        return 1 + 3 * i * (i - 1)

    tris = []
    for j in range(6):
        tris.append((0, start(1) + j, start(1) + (j + 1) % 6))
    for i in range(2, n + 1):
        no, ni = 6 * i, 6 * (i - 1)
        for s in range(6):
            outer = [start(i) + (s * i + t) % no for t in range(i + 1)]
            inner = [start(i - 1) + (s * (i - 1) + t) % ni for t in range(i)]
            for t in range(i):
                tris.append((outer[t], outer[t + 1], inner[t]))
            for t in range(i - 1):
                tris.append((inner[t], outer[t + 1], inner[t + 1]))
    return verts, np.array(tris, dtype=np.int64)


def _sector_orbits(n: int, g: int) -> np.ndarray:
    """``PanelMesh.sector_orbits`` of the n-ring grid with g sectors (1 or 6).

    ``_disc_grid`` stores ring i (from 1) at panels 6 (i - 1)^2 on, sector
    by sector, 2 i - 1 panels each, so O[., s] = 6 (i - 1)^2 + s (2 i - 1) + t.
    """
    if g == 1:
        return np.arange(6 * n * n)[:, None]
    ring = np.arange(1, n + 1)
    i = np.repeat(ring, 2 * ring - 1)  # the ring of each panel of sector 0
    # (i - 1)^2 panels of sector 0 lie in the rings before ring i
    t = np.arange(i.size) - (i - 1) ** 2
    return (6 * (i - 1) ** 2 + t)[:, None] + np.arange(6) * (2 * i - 1)[:, None]


def _adjacent_pairs(tris: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pairs (i, j) of panels sharing at least one vertex, i one of ``rows``,
    as a (P, 2) int array in lexicographic order."""
    n = tris.shape[0]
    flat = tris.ravel()
    panels = np.argsort(flat, kind="stable") // 3  # every panel, listed vertex by vertex
    counts = np.bincount(flat)
    first = np.cumsum(counts) - counts  # where each vertex's panels start in that list
    corner = tris[rows].ravel()  # the corners of each row panel
    group = counts[corner]  # panels at each of those corners
    start = np.repeat(first[corner], group)
    within = np.arange(start.size) - np.repeat(np.cumsum(group) - group, group)
    keys = np.sort(np.repeat(np.repeat(rows, 3), group) * n + panels[start + within])
    # np.unique would do, but it imports numpy.ma, about 15 ms of every run
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.stack(np.divmod(keys, n), axis=1)


@dataclass(frozen=True)
class RingTopology:
    """What every mesh of the n-ring disc grid with g sectors shares,
    whatever its profile: the unit-disc vertices and triangles, the sector
    orbits O, and the near pairs that assembly integrates by subdivision.

    ``near_pairs`` are the vertex-adjacent pairs (i, j) with i in sector 0,
    in lexicographic order (every pair when g = 1); ``near_slots`` holds,
    for each, the entry (s, a_i, a_j) of the sector blocks it fills, where
    panel p = O[a_p, s_p] and s = s_j.  All arrays are read-only."""

    planar: np.ndarray  # (1 + 3 n (n + 1), 2)
    triangles: np.ndarray  # (6 n^2, 3)
    orbits: np.ndarray  # (6 n^2 / g, g)
    near_pairs: np.ndarray  # (P, 2)
    near_slots: np.ndarray  # (3, P)


def _build_topology(n: int, g: int) -> RingTopology:
    planar, tris = _disc_grid(n)
    orbits = _sector_orbits(n, g)
    # panel p is O[a, s] with a, s = divmod(place[p], g)
    place = np.empty(tris.shape[0], dtype=np.int64)
    place[orbits.ravel()] = np.arange(tris.shape[0])
    pairs = _adjacent_pairs(tris, orbits[:, 0])
    a, s = np.divmod(place[pairs[:, 1]], g)
    slots = np.stack([s, place[pairs[:, 0]] // g, a])
    for arr in (planar, tris, orbits, pairs, slots):
        arr.setflags(write=False)
    return RingTopology(planar, tris, orbits, pairs, slots)


# At most one entry, evicted on a miss, so memory stays bounded by one ring
# count: a run meshes one ring count after another (an inversion meshes every
# iterate at the same one).
_TOPOLOGY_CACHE: dict[tuple[int, int], RingTopology] = {}


def ring_topology(n_rings: int, sectors: int) -> RingTopology:
    """The ``RingTopology`` of the n_rings grid with this many sectors, built
    on the first call for that pair and cached."""
    key = (n_rings, sectors)
    if key not in _TOPOLOGY_CACHE:
        _TOPOLOGY_CACHE.clear()
        _TOPOLOGY_CACHE[key] = _build_topology(n_rings, sectors)
    return _TOPOLOGY_CACHE[key]


def ring_count(R: float, target_h: float) -> int:
    """Rings of the disc grid of radius R at panel size ~ target_h (its mesh
    has 6 rings^2 panels); the inverse-crime guard compares this for the data
    and inversion meshes.  Raises unless 0 < target_h <= R / 4."""
    if not (target_h > 0):
        raise ValueError(f"target_h must be > 0, got {target_h!r}")
    if target_h > R / 4:
        raise ValueError(f"target_h={target_h:g} too coarse; need target_h <= R/4 = {R / 4:g}")
    return math.ceil(R / target_h)


def mesh_perturbation(profile: SurfaceProfile, target_h: float) -> PanelMesh:
    """Triangulate the disc |x~| <= R with panels of size ~ target_h and lift
    the vertices onto the graph of the profile.  Rim vertices keep x3 = 0
    exactly; all normals point up into the propagation domain."""
    R = profile.support_radius
    n = ring_count(R, target_h)
    # the union-jack grid of a piecewise-linear profile is not C6-invariant
    sectors = 1 if profile.kind == "piecewise_linear" else 6
    topo = ring_topology(n, sectors)
    tris = topo.triangles
    verts2d = topo.planar * R
    z = profile.height(verts2d)
    z[1 + 3 * n * (n - 1):] = 0.0  # rim ring: exactly on the ground plane
    if np.any(z < 0):
        raise DippingProfileError(
            "the surface dips below the ground plane; the image-kernel solver "
            "paths are invalid there and refuse to mesh it"
        )
    vertices = np.column_stack([verts2d, z])

    p = vertices[tris]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    cross = np.cross(e1, e2)
    norms = np.linalg.norm(cross, axis=1)
    areas = 0.5 * norms
    normals = cross / norms[:, None]
    # CCW construction makes every normal point up already; flipping would
    # indicate an inverted panel, which the f>=0 validation excludes
    if np.any(normals[:, 2] <= 0):
        raise DippingProfileError("panel with non-upward normal; profile is not a valid graph")
    centroids = p.mean(axis=1)

    for arr in (vertices, centroids, areas, normals):
        arr.setflags(write=False)
    return PanelMesh(
        vertices=vertices,
        triangles=tris,
        centroids=centroids,
        areas=areas,
        normals=normals,
        h=R / n,
        n_rings=n,
        support_radius=R,
        sectors=sectors,
    )

