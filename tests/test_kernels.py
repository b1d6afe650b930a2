import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import halfscat.kernels as kernels_mod
import halfscat.solver as solver_mod
from conftest import dense_matrix, fd_gradient, helmholtz_rel_residual
from halfscat.errors import SingularityError
from halfscat.geometry import build_profile, mesh_perturbation
from halfscat.identities import fit_loglog_slope, radiation_residuals
from halfscat.kernels import (
    BoundaryCondition,
    GreenKernel,
    eval_G,
    farfield_kernel,
    farfield_kernel_grad_y,
    farfield_matrix,
    grad_G_x,
    grad_G_y,
    unit_phase,
)
from halfscat.solver import (
    _ROW_BLOCK,
    GRADED_LEAVES,
    DirectionGrid,
    LayerDensity,
    _assemble_blocks,
    _closest_points_on_triangles,
    _graded_leaves,
    eval_farfields,
    eval_scattered,
)
from halfscat.util import even_slices

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
KD = GreenKernel(k=1.0, bc=D)


def _farfield_matrix(kern, xhat, y):
    """farfield_matrix on the row-stacked points, with unit weights."""
    y = np.atleast_2d(y)
    return farfield_matrix(kern, np.atleast_2d(xhat), y, np.ones(len(y)))


class TestEvalG:
    def test_dirichlet_vanishes_for_on_plane_argument(self):
        y = np.array([0.3, -0.2, 0.9])
        xs = np.array([[0.5, 0.1, 0.0], [-2.0, 1.0, 0.0]])
        assert np.max(np.abs(eval_G(KD, xs, y))) == 0.0
        # also when the source point sits on the plane
        assert eval_G(KD, np.array([0.5, 0.1, 1.0]), np.array([1.0, 0.0, 0.0])) == 0.0

    def test_frozen_axis_value(self):
        val = eval_G(KD, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 2.0]))
        assert val == pytest.approx(0.06925625794773968 + 0.06321880887497495j, abs=1e-16)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(21)
        for bc in (D, N):
            kern = GreenKernel(k=2.0, bc=bc)
            for _ in range(8):
                x, y = rng.normal(size=(2, 3))
                x[2] = abs(x[2]) + 0.1
                y[2] = abs(y[2]) + 0.1
                assert eval_G(kern, x, y) == pytest.approx(eval_G(kern, y, x), rel=1e-13)

    def test_mirror_anti_symmetry(self):
        rng = np.random.default_rng(22)
        y = np.array([0.2, 0.4, 0.7])
        for _ in range(8):
            x = rng.normal(size=3)
            x[2] = abs(x[2]) + 0.3
            xm = x * np.array([1.0, 1.0, -1.0])
            vd = eval_G(GreenKernel(k=2.0, bc=D), x, y)
            assert eval_G(GreenKernel(k=2.0, bc=D), xm, y) == pytest.approx(-vd, abs=1e-13 * abs(vd))
            vn = eval_G(GreenKernel(k=2.0, bc=N), x, y)
            assert eval_G(GreenKernel(k=2.0, bc=N), xm, y) == pytest.approx(vn, abs=1e-13 * abs(vn))

    def test_coincident_points_rejected(self):
        with pytest.raises(SingularityError):
            eval_G(KD, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(SingularityError, match="image"):
            eval_G(KD, np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "evaluator",
        [eval_G, grad_G_x, grad_G_y, farfield_kernel, farfield_kernel_grad_y, _farfield_matrix],
    )
    def test_non_finite_points_rejected(self, evaluator):
        kern = GreenKernel(k=2.0, bc=D)
        good = np.array([0.0, 0.0, 0.5])
        for bad in ([np.nan, 0.0, 1.0], [0.0, np.inf, 1.0], [0.0, 0.0, -np.inf]):
            with pytest.raises(ValueError, match="finite"):
                evaluator(kern, np.array(bad), good)
            with pytest.raises(ValueError, match="finite"):
                evaluator(kern, good, np.array(bad))
        with pytest.raises(ValueError, match="finite"):
            evaluator(kern, np.array([[0.3, 0.1, 1.0], [np.nan, 0.0, 1.0]]), good)

    def test_helmholtz_residual_in_x(self):
        kern = GreenKernel(k=2.0, bc=D)
        y = np.array([0.1, -0.3, 0.6])
        for x in ([0.8, 0.4, 1.5], [-1.0, 0.2, 0.4]):
            res = helmholtz_rel_residual(lambda q: eval_G(kern, q, y), np.array(x), kern.k)
            assert res <= 1e-4

    def test_radiation_decay_slope(self):
        # |d_r G - ikG| decays like 1/r^2 over r in [10, 100]
        kern = GreenKernel(k=2.0, bc=D)
        y = np.array([0.3, -0.2, 0.5])
        xhat = np.array([0.1, 0.2, 0.97])
        xhat /= np.linalg.norm(xhat)
        radii = np.geomspace(10.0, 100.0, 12)
        resid = radiation_residuals(lambda pts: eval_G(kern, pts, y), kern.k, xhat, radii)
        assert -2.2 <= fit_loglog_slope(radii, resid) <= -1.8


class TestGradients:
    def test_grad_y_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for bc in (D, N):
            kern = GreenKernel(k=2.0, bc=bc)
            x = np.array([0.5, -0.1, 1.2])
            for _ in range(4):
                y = rng.normal(size=3) * 0.5 + np.array([0, 0, 2.5])
                g = grad_G_y(kern, x, y)
                g_fd = fd_gradient(lambda q: eval_G(kern, x, q), y)
                assert np.max(np.abs(g - g_fd)) <= 1e-7 * np.max(np.abs(g))

    def test_grad_x_matches_finite_differences(self):
        kern = GreenKernel(k=2.0, bc=N)
        y = np.array([0.2, 0.3, 0.8])
        x = np.array([-0.7, 0.4, 1.6])
        g = grad_G_x(kern, x, y)
        g_fd = fd_gradient(lambda q: eval_G(kern, q, y), x)
        assert np.max(np.abs(g - g_fd)) <= 1e-7 * np.max(np.abs(g))

    def test_dirichlet_grad_y_vanishes_for_x_on_plane(self):
        # G(x, .) is identically zero when x lies on the plane
        kern = GreenKernel(k=2.0, bc=D)
        g = grad_G_y(kern, np.array([0.7, -0.5, 0.0]), np.array([0.1, 0.2, 0.9]))
        assert np.max(np.abs(g)) == 0.0

    def test_neumann_normal_x_derivative_vanishes_on_plane(self):
        kern = GreenKernel(k=2.0, bc=N)
        g = grad_G_x(kern, np.array([0.7, -0.5, 0.0]), np.array([0.1, 0.2, 0.9]))
        assert abs(g[2]) == 0.0


class TestFarFieldKernel:
    def test_vertical_axis_closed_form(self):
        # Dirichlet, xhat = e3, y = (0,0,h): -i sin(kh) / (2 pi)
        k = 2.0
        kern = GreenKernel(k=k, bc=D)
        h = 0.37
        val = farfield_kernel(kern, np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, h]))
        assert val == pytest.approx(-1j * np.sin(k * h) / (2 * np.pi), abs=1e-16)

    def test_vanishes_for_source_on_plane(self):
        kern = GreenKernel(k=2.0, bc=D)
        val = farfield_kernel(kern, np.array([0.0, 0.6, 0.8]), np.array([0.4, -1.0, 0.0]))
        assert val == 0.0

    def test_radial_limit_oracle(self):
        # |x| e^{-ik|x|} G(x, y) approaches the far-field kernel along the ray
        for bc in (D, N):
            kern = GreenKernel(k=2.0, bc=bc)
            y = np.array([0.3, -0.2, 0.5])
            xhat = np.array([0.25, 0.1, 0.96])
            xhat /= np.linalg.norm(xhat)
            r = 1e3
            lim = r * np.exp(-1j * kern.k * r) * eval_G(kern, r * xhat, y)
            ff = farfield_kernel(kern, xhat, y)
            assert abs(lim - ff) / abs(ff) <= 1e-3

    def test_grad_y_finite_differences(self):
        for bc in (D, N):
            kern = GreenKernel(k=2.0, bc=bc)
            xhat = np.array([0.3, -0.2, 0.93])
            xhat /= np.linalg.norm(xhat)
            y = np.array([0.4, 0.2, 0.6])
            g = farfield_kernel_grad_y(kern, xhat, y)
            g_fd = fd_gradient(lambda q: farfield_kernel(kern, xhat, q), y)
            assert np.max(np.abs(g - g_fd)) <= 1e-7 * np.max(np.abs(g))

    def test_dirichlet_tangential_grad_vanishes_for_y_on_plane(self):
        kern = GreenKernel(k=2.0, bc=D)
        xhat = np.array([0.3, -0.2, 0.93])
        xhat /= np.linalg.norm(xhat)
        g = farfield_kernel_grad_y(kern, xhat, np.array([0.7, 0.1, 0.0]))
        assert np.max(np.abs(g[:2])) == 0.0
        assert abs(g[2]) > 0.0

    def test_grad_radial_limit_oracle(self):
        # r e^{-ikr} nu . grad_y G converges to nu . far-field gradient kernel
        kern = GreenKernel(k=2.0, bc=D)
        y = np.array([0.3, -0.2, 0.5])
        nu = np.array([0.1, 0.2, 0.97])
        nu /= np.linalg.norm(nu)
        xhat = np.array([-0.2, 0.4, 0.89])
        xhat /= np.linalg.norm(xhat)
        r = 1e3
        lim = r * np.exp(-1j * kern.k * r) * (grad_G_y(kern, r * xhat, y) @ nu)
        ff = farfield_kernel_grad_y(kern, xhat, y) @ nu
        assert abs(lim - ff) / abs(ff) <= 1e-3


def _pointwise_farfield_matrix(kern, xhat, y, weights, normals=None, eta=0.0):
    """Reference for farfield_matrix from the pointwise far-field kernels."""
    xh = xhat[:, None, :]
    yy = y[None, :, :]
    vals = farfield_kernel(kern, xh, yy)
    if normals is not None:
        grad = farfield_kernel_grad_y(kern, xh, yy)
        vals = np.sum(grad * normals[None, :, :], axis=-1) - 1j * eta * vals
    return vals * weights


def _rel_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestFarFieldMatrix:
    grid = DirectionGrid.make(40, 20)  # more directions than one row block

    @pytest.fixture(scope="class")
    def sources(self):
        rng = np.random.default_rng(24)
        y = rng.uniform(-1.0, 1.0, size=(60, 3))
        y[:, 2] = rng.uniform(0.0, 0.5, size=60)
        nu = rng.normal(size=(60, 3))
        nu /= np.linalg.norm(nu, axis=1, keepdims=True)
        return y, nu, rng.uniform(0.01, 0.02, size=60)

    @pytest.mark.parametrize("bc", [D, N])
    @pytest.mark.parametrize("combined", [False, True])
    def test_matches_pointwise_kernels(self, sources, bc, combined):
        y, nu, w = sources
        kern = GreenKernel(k=2.0, bc=bc)
        normals = nu if combined else None
        assert self.grid.size > _ROW_BLOCK
        F = farfield_matrix(kern, self.grid.directions, y, w, normals)
        ref = _pointwise_farfield_matrix(kern, self.grid.directions, y, w, normals, eta=2.0)
        assert F.shape == (self.grid.size, y.shape[0])
        assert _rel_max(F, ref) <= 1e-13

    @pytest.mark.parametrize("bc", [D, N])
    @pytest.mark.parametrize("combined", [False, True])
    def test_real_parts_are_the_complex_form(self, sources, bc, combined):
        """The real cosines and sines give the values of the complex form
        through unit_phase, complex products and all."""
        y, nu, w = sources
        k = 2.0
        xhat = self.grid.directions
        ref = []
        for xh in (xhat, xhat * kernels_mod.MIRROR):
            ph = unit_phase(-k * (xh @ y.T))
            if combined:
                ph *= k * (xh @ nu.T) + k
                ph *= -1j
            ref.append(ph)
        ref = (ref[0] + bc.image_sign * ref[1]) * (w / (4.0 * np.pi))
        F = farfield_matrix(GreenKernel(k=k, bc=bc), xhat, y, w, nu if combined else None)
        assert np.array_equal(F, ref)

    def test_image_sign_for_sources_on_plane(self):
        # y = y' on the plane: the odd image cancels the direct term, the even
        # image doubles it
        xhat = self.grid.directions
        y = np.array([[0.4, -0.3, 0.0], [-0.2, 0.1, 0.0]])
        w = np.array([0.5, 2.0])
        direct = np.exp(-2.0j * (xhat @ y.T)) * w / (4 * np.pi)
        F_d = farfield_matrix(GreenKernel(k=2.0, bc=D), xhat, y, w)
        F_n = farfield_matrix(GreenKernel(k=2.0, bc=N), xhat, y, w)
        assert np.max(np.abs(F_d)) == 0.0
        assert _rel_max(F_n, 2.0 * direct) <= 1e-14

    @pytest.mark.parametrize("bc", [D, N])
    def test_blocked_patterns_match_pointwise_sum(self, bc):
        mesh = mesh_perturbation(
            build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25}),
            0.25,
        )
        rng = np.random.default_rng(25)
        eta = 2.0 if bc is D else 0.0
        densities = [
            LayerDensity(
                coefficients=rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels),
                bc=bc,
                k=2.0,
                mesh=mesh,
            )
            for _ in range(3)
        ]
        normals = mesh.normals if bc is D else None
        ref = _pointwise_farfield_matrix(
            GreenKernel(k=2.0, bc=bc), self.grid.directions, mesh.centroids, mesh.areas,
            normals, eta,
        )
        for pattern, density in zip(eval_farfields(densities, self.grid), densities):
            assert _rel_max(pattern, ref @ density.coefficients) <= 1e-13
            assert pattern.flags.c_contiguous and not pattern.flags.writeable

    # traced peak of this call with the directions in pieces of at most
    # _ROW_BLOCK**2 direction-panel pairs: 911 184 bytes sound-soft, 910 680
    # sound-hard (numpy 2.4.6); 6 232 256 and 6 231 752 in blocks of
    # _ROW_BLOCK directions
    @pytest.mark.parametrize("bc, bound", [(D, 956_744), (N, 956_214)])
    def test_memory_bound(self, canonical_mesh, bc, bound):
        """The far-field operator of the 864-panel canonical mesh at 800
        directions, built piece by piece, peaks within 5 % of that value."""
        density = LayerDensity(coefficients=np.ones(canonical_mesh.n_panels, complex), bc=bc, k=2.0,
                               mesh=canonical_mesh)
        assert canonical_mesh.n_panels == 864 and self.grid.size == 800
        eval_farfields([density], self.grid)  # fills the mesh's cached arrays
        tracemalloc.start()
        try:
            eval_farfields([density], self.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


@pytest.fixture(scope="module")
def small_bump_mesh():
    prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
    return mesh_perturbation(prof, 0.125)


@pytest.fixture(scope="module")
def canonical_mesh():
    prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
    return mesh_perturbation(prof, 0.085)


@pytest.fixture(scope="module")
def refined_mesh():
    """The canonical mesh at h/2, 3456 panels."""
    prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
    return mesh_perturbation(prof, 0.0425)


def _adjacency(mesh):
    """Every vertex-adjacent pair (i, j): the near pairs of the mesh taken
    without its sector symmetry."""
    return dataclasses.replace(mesh, sectors=1).topology().near_pairs


def _reference_adjacency(mesh):
    """Vertex adjacency from panel sets, as sorted (i, j) tuples."""
    v2p = {}
    tris = mesh.triangles
    for t in range(tris.shape[0]):
        for v in tris[t]:
            v2p.setdefault(int(v), []).append(t)
    pairs = set()
    for t in range(tris.shape[0]):
        for v in tris[t]:
            pairs.update((t, u) for u in v2p[int(v)])
    return sorted(pairs)


def _reference_closest_points(p, a, b, c):
    """Ericson's closest point on triangles, on (N, 3) arrays."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.sum(ab * ap, axis=-1)
    d2 = np.sum(ac * ap, axis=-1)
    bp = p - b
    d3 = np.sum(ab * bp, axis=-1)
    d4 = np.sum(ac * bp, axis=-1)
    cp = p - c
    d5 = np.sum(ab * cp, axis=-1)
    d6 = np.sum(ac * cp, axis=-1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def _safe_div(num, den):
        return num / np.where(den != 0.0, den, 1.0)

    with np.errstate(invalid="ignore", divide="ignore"):
        t_ab = _safe_div(d1, d1 - d3)[..., None]
        t_ac = _safe_div(d2, d2 - d6)[..., None]
        t_bc = _safe_div(d4 - d3, (d4 - d3) + (d5 - d6))[..., None]
        denom = _safe_div(np.ones_like(va), va + vb + vc)[..., None]
        interior = a + ab * (vb[..., None] * denom) + ac * (vc[..., None] * denom)

    out = interior
    m6 = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    out = np.where(m6[..., None], b + (c - b) * t_bc, out)
    m5 = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    out = np.where(m5[..., None], a + ac * t_ac, out)
    m4 = (d6 >= 0) & (d5 <= d6)
    out = np.where(m4[..., None], c, out)
    m3 = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    out = np.where(m3[..., None], a + ab * t_ab, out)
    m2 = (d3 >= 0) & (d4 <= d3)
    out = np.where(m2[..., None], b, out)
    m1 = (d1 <= 0) & (d2 <= 0)
    out = np.where(m1[..., None], a, out)
    return out


def _select_closest_points(p, a, b, c):
    """Ericson's closest point on (3, N) component arrays, every region's
    candidate built for every pair and picked by np.select; also returns
    the deciding region of each pair (0-5 in test order, 6 the interior)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = solver_mod._dot(ab, ap)
    d2 = solver_mod._dot(ac, ap)
    bp = p - b
    d3 = solver_mod._dot(ab, bp)
    d4 = solver_mod._dot(ac, bp)
    cp = p - c
    d5 = solver_mod._dot(ab, cp)
    d6 = solver_mod._dot(ac, cp)
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

    regions = [
        ((d1 <= 0) & (d2 <= 0), a),
        ((d3 >= 0) & (d4 <= d3), b),
        ((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + ab * t_ab),
        ((d6 >= 0) & (d5 <= d6), c),
        ((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + ac * t_ac),
        ((va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0), b + (c - b) * t_bc),
    ]
    holds = [m for m, _ in regions]
    return (np.select(holds, [v for _, v in regions], interior),
            np.select(holds, range(6), 6))


def _reference_leaves(verts, p, levels=3):
    """Graded leaves with np.cross and np.linalg.norm: verts (N, 3, 3),
    p (N, 3); centroids (N, L, 3) and areas (N, L)."""
    cents, areas = [], []

    def push(t0, t1, t2):
        cents.append((t0 + t1 + t2) / 3.0)
        areas.append(0.5 * np.linalg.norm(np.cross(t1 - t0, t2 - t0), axis=-1))

    for ia, ib in ((0, 1), (1, 2), (2, 0)):
        a_prev, b_prev = verts[:, ia], verts[:, ib]
        for _ in range(levels):
            a_next = p + 0.5 * (a_prev - p)
            b_next = p + 0.5 * (b_prev - p)
            push(a_prev, b_prev, b_next)
            push(a_prev, b_next, a_next)
            a_prev, b_prev = a_next, b_next
        push(p, a_prev, b_prev)
    return np.stack(cents, axis=1), np.stack(areas, axis=1)


class TestNearGeometry:
    """The component-form near-block geometry against the (N, 3) forms it
    replaced, bit for bit."""

    @pytest.fixture(params=["small_bump_mesh", "canonical_mesh"])
    def mesh(self, request):
        return request.getfixturevalue(request.param)

    def test_adjacency(self, mesh):
        pairs = _adjacency(mesh)
        assert pairs.shape == (len(pairs), 2)
        assert np.array_equal(pairs, np.array(_reference_adjacency(mesh)))

    def test_closest_points_and_leaves(self, mesh):
        rows, cols = _adjacency(mesh).T
        x = mesh.centroids[rows]
        pv = mesh.panel_vertices()[cols]
        p_ref = _reference_closest_points(x, pv[:, 0], pv[:, 1], pv[:, 2])
        corners = np.ascontiguousarray(pv.transpose(1, 2, 0))
        p = _closest_points_on_triangles(x.T, corners[0], corners[1], corners[2])
        assert np.array_equal(p.T, p_ref)

        cents_ref, areas_ref = _reference_leaves(pv, p_ref)
        cents, areas = _graded_leaves(corners, p)
        assert cents.shape == (3, len(rows), GRADED_LEAVES) and cents[0].flags.c_contiguous
        assert np.array_equal(np.moveaxis(cents, 0, -1), cents_ref)
        assert np.array_equal(areas, areas_ref)

    def test_closest_points_on_random_triangles(self):
        """Against every candidate picked by np.select, bit for bit, on
        200 000 random triangles that every region decides for some pairs:
        degenerate ones, where the divisions by zero are guarded, and ones
        on an integer grid, where the test order decides the ties."""
        rng = np.random.default_rng(3)
        p, a, b, c = rng.normal(size=(4, 3, 200_000))
        k = 1000
        b[:, :k] = a[:, :k]  # a repeated corner
        c[:, k:2 * k] = a[:, k:2 * k] + 2.0 * (b[:, k:2 * k] - a[:, k:2 * k])  # collinear
        b[:, 2 * k:3 * k] = c[:, 2 * k:3 * k] = a[:, 2 * k:3 * k]  # a point
        p[:, 3 * k:4 * k] = b[:, 3 * k:4 * k]  # p on a corner
        # half on small integer coordinates, where region boundaries tie exactly
        p[:, 100_000:], a[:, 100_000:], b[:, 100_000:], c[:, 100_000:] = rng.integers(
            -2, 3, size=(4, 3, 100_000))
        ref, region = _select_closest_points(p, a, b, c)
        assert np.bincount(region, minlength=7).min() > 0
        assert _closest_points_on_triangles(p, a, b, c).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bc", [D, N])
    @pytest.mark.parametrize("mesh_name", ["canonical_mesh", "refined_mesh"])
    def test_near_block_against_select(self, request, mesh_name, bc, monkeypatch):
        """The near block of the 864- and 3456-panel canonical meshes with
        the np.select closest points, bit for bit."""
        mesh = request.getfixturevalue(mesh_name)
        near = tuple(mesh.topology().near_slots)
        monkeypatch.setattr(solver_mod, "collocation_tiles", lambda *args: iter(()))
        block = _assemble_blocks(mesh, 2.0, bc)[near]
        monkeypatch.setattr(solver_mod, "_closest_points_on_triangles",
                            lambda p, a, b, c: _select_closest_points(p, a, b, c)[0])
        assert block.tobytes() == _assemble_blocks(mesh, 2.0, bc)[near].tobytes()


@pytest.mark.parametrize("mesh_name", ["small_bump_mesh", "piecewise_mesh"])
def test_near_pairs_are_the_sector_0_rows_of_the_adjacency(request, mesh_name):
    """The near pairs of the sector-0 rows, built directly, against the full
    adjacency filtered to those rows; each lands in its sector-block slot."""
    mesh = request.getfixturevalue(mesh_name)
    topo = mesh.topology()
    rows0 = set(mesh.sector_orbits()[:, 0].tolist())
    ref = np.array([pair for pair in _reference_adjacency(mesh) if pair[0] in rows0])
    assert topo.near_pairs.dtype == np.int64 and np.array_equal(topo.near_pairs, ref)
    s, a_i, a_j = topo.near_slots
    assert np.array_equal(topo.orbits[a_i, 0], topo.near_pairs[:, 0])
    assert np.array_equal(topo.orbits[a_j, s], topo.near_pairs[:, 1])


@pytest.mark.parametrize("n, budget, lengths", [
    (144, 128, [72, 72]),  # the sector blocks of the canonical mesh
    (576, 128, [115, 115, 115, 115, 116]),
    (1777, 780, [592, 592, 593]),  # its near pairs, in chunks of 128**2 // 21
    (128, 128, [128]),
    (10, 3, [2, 3, 2, 3]),
    (1, 7, [1]),
])
def test_even_slices(n, budget, lengths):
    """The fewest pieces of at most ``budget``, as equal as can be, that
    cover the range once and in order."""
    pieces = even_slices(n, budget)
    assert [s.stop - s.start for s in pieces] == lengths
    assert np.array_equal(np.concatenate([np.arange(n)[s] for s in pieces]), np.arange(n))


def _public_integrand(kern, x, y, nu_y, eta):
    """Combined (sound-soft) or single-layer (sound-hard) potential kernel
    from the guarded public evaluators."""
    if kern.bc is D:
        return np.sum(grad_G_y(kern, x, y) * nu_y, axis=-1) - 1j * eta * eval_G(kern, x, y)
    return eval_G(kern, x, y)


class TestHotPath:
    """What assembly and the representation formula run, against the public
    kernels."""

    @pytest.mark.parametrize("bc", [D, N])
    def test_far_matrix_entries(self, small_bump_mesh, bc):
        mesh = small_bump_mesh
        eta = 2.0 if bc is D else 0.0
        A = dense_matrix(mesh, 2.0, bc)
        far = np.ones(A.shape, dtype=bool)
        far[tuple(_adjacency(mesh).T)] = False
        i, j = np.nonzero(far)
        kern = GreenKernel(k=2.0, bc=bc)
        x, y = mesh.centroids[i], mesh.centroids[j]
        if bc is D:
            ref = _public_integrand(kern, x, y, mesh.normals[j], eta)
        else:
            ref = np.sum(mesh.normals[i] * grad_G_x(kern, x, y), axis=-1)
        assert _rel_max(A[i, j], ref * mesh.areas[j]) <= 1e-13

    @pytest.mark.parametrize("bc", [D, N])
    def test_tile_edge_invariance(self, small_bump_mesh, piecewise_mesh, bc, monkeypatch):
        """Ragged tiles, diagonal tiles and mirrored tiles give the same bytes
        in every block as the default tiling, on the sector strip (g = 6) and
        on the dense matrix (g = 1), including a single tile larger than the
        matrix; so do near-block chunks of a few pairs, ragged ones and a
        single one holding every pair of the sector-0 rows."""
        for mesh in (small_bump_mesh, piecewise_mesh):
            ref = _assemble_blocks(mesh, 2.0, bc)
            n_pairs = len(mesh.topology().near_pairs)
            chunks = [max(1, b * b // GRADED_LEAVES) for b in (7, 256, mesh.n_panels + 5)]
            assert chunks[0] < 5 and chunks[-1] >= n_pairs
            assert any(n_pairs % c for c in chunks[:-1])
            for block in (7, 256, mesh.n_panels + 5):
                with monkeypatch.context() as patch:
                    patch.setattr(solver_mod, "_ROW_BLOCK", block)
                    B = _assemble_blocks(mesh, 2.0, bc)
                assert [b.tobytes() for b in B] == [b.tobytes() for b in ref]

    @pytest.mark.parametrize("bc", [D, N])
    def test_representation(self, small_bump_mesh, bc):
        mesh = small_bump_mesh
        rng = np.random.default_rng(26)
        eta = 2.0 if bc is D else 0.0
        density = LayerDensity(
            coefficients=rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels),
            bc=bc,
            k=2.0,
            mesh=mesh,
        )
        # above the plane, and one point below it
        pts = np.array([[0.3, -0.2, 1.5], [1.5, 0.4, 0.8], [-0.6, 0.9, -1.2]])
        kern = GreenKernel(k=2.0, bc=bc)
        vals = _public_integrand(
            kern, pts[:, None, :], mesh.centroids[None, :, :], mesh.normals[None, :, :], eta
        )
        ref = (vals * mesh.areas) @ density.coefficients
        assert _rel_max(eval_scattered(density, pts), ref) <= 1e-13


class TestEvaluatorPieces:
    """eval_scattered and eval_farfields take their points and directions in
    pieces of at most _ROW_BLOCK**2 point-panel pairs."""

    @staticmethod
    def _points(count):
        rng = np.random.default_rng(40)
        pts = rng.normal(size=(count, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 1.0  # at least 1 above the plane, beyond 2h
        return pts

    # traced peak of this call: 2 356 368 bytes sound-soft, 2 237 536
    # sound-hard (numpy 2.4.6); 12 445 640 and 11 752 856 with all points in
    # one piece
    @pytest.mark.parametrize("bc, bound", [(D, 2_474_187), (N, 2_349_413)])
    def test_scattered_memory_bound(self, canonical_mesh, bc, bound):
        """The layer potential of the 864-panel canonical mesh at 100 points
        peaks within 5 % of that value."""
        density = LayerDensity(np.ones(canonical_mesh.n_panels, complex), bc=bc, k=2.0,
                               mesh=canonical_mesh)
        pts = self._points(100)
        eval_scattered(density, pts)  # fills the mesh's cached arrays
        tracemalloc.start()
        try:
            eval_scattered(density, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_distance_is_norms(self, canonical_mesh):
        """The distance check's nearest distance, piece by piece, is that of
        np.linalg.norm on all points at once, bit for bit."""
        mesh = canonical_mesh
        rng = np.random.default_rng(42)
        pts = rng.uniform(-1.2, 1.2, size=(500, 3))  # above, near and below the surface
        assert len(solver_mod._eval_pieces(mesh, len(pts))) > 1
        images = mesh.centroids * kernels_mod.MIRROR
        for sub in [pts] + [pts[i:i + 1] for i in range(0, len(pts), 10)]:
            ref = min(np.linalg.norm(sub[:, None, :] - mesh.centroids, axis=-1).min(),
                      np.linalg.norm(sub[:, None, :] - images, axis=-1).min())
            got = solver_mod._eval_distance(mesh, sub, solver_mod._eval_pieces(mesh, len(sub)))
            assert got == ref

    @pytest.mark.parametrize("target_h", [0.085, 0.07])  # 864 and 1350 panels
    @pytest.mark.parametrize("bc", [D, N])
    def test_pieces_match_one_piece(self, monkeypatch, bc, target_h):
        """The pieces give the values of one piece over all points.  The
        potential matches bit for bit.  The far field matches within one ulp
        of its largest value: when the panel count is not a multiple of 4
        (1350), OpenBLAS rounds some entries of the (rows, 3) x (3, n) phase
        products differently with the piece's row count (8e-18 and 3e-17
        relative at most, seen on 800 directions)."""
        prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
        mesh = mesh_perturbation(prof, target_h)
        rng = np.random.default_rng(41)
        densities = [
            LayerDensity(rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels),
                         bc=bc, k=2.0, mesh=mesh)
            for _ in range(3)
        ]
        grid = TestFarFieldMatrix.grid
        pts = self._points(300)
        assert len(solver_mod._eval_pieces(mesh, len(pts))) > 1
        assert len(solver_mod._eval_pieces(mesh, grid.size)) > 1
        pieces = (eval_scattered(densities[0], pts), eval_farfields(densities, grid))
        monkeypatch.setattr(solver_mod, "_ROW_BLOCK", 10**6)
        assert len(solver_mod._eval_pieces(mesh, len(pts))) == 1
        whole = (eval_scattered(densities[0], pts), eval_farfields(densities, grid))
        assert pieces[0].tobytes() == whole[0].tobytes()
        for a, b in zip(pieces[1], whole[1]):
            assert np.max(np.abs(a - b)) <= np.finfo(float).eps * np.max(np.abs(b))


class TestUnitPhase:
    def test_matches_complex_exp(self, canonical_mesh):
        rng = np.random.default_rng(27)
        special = np.array([0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 2 * np.pi])
        # k|x - y| and k|x - y'| over one far tile of the canonical collocation matrix
        c = canonical_mesh.centroids.T
        d = kernels_mod._displacements(c[:, :128, None], c[:, None, 128:256])
        tile = 2.0 * np.concatenate([r.ravel() for r in kernels_mod._lengths(d)])
        samples = [rng.uniform(-b, b, 200_000) for b in (4.0, 30.0, 1e3, 1e6)]
        theta = np.concatenate([special, tile, *samples])
        assert np.max(np.abs(unit_phase(theta) - np.exp(1j * theta))) <= 2.0**-51

    @pytest.mark.parametrize("theta", [1.25, -3, np.float64(0.5), np.array(2.0)])
    def test_scalar_input_gives_a_scalar(self, theta):
        val = unit_phase(theta)
        assert type(val) is np.complex128
        assert abs(val - np.exp(1j * float(theta))) <= 2.0**-51

    def test_shape_and_dtype(self):
        theta = np.linspace(-7.0, 7.0, 24).reshape(2, 3, 4)
        for arg in (theta, theta.astype(np.float32), theta[:, ::2, ::-1], theta.T, theta[:0]):
            out = unit_phase(arg)
            assert out.shape == arg.shape and out.dtype == np.complex128
            assert np.all(np.abs(out - np.exp(1j * arg.astype(float))) <= 2.0**-51)

    def test_does_not_write_to_its_argument(self):
        theta = np.random.default_rng(28).uniform(-50.0, 50.0, (64, 64))
        before = theta.copy()
        unit_phase(theta)
        assert theta.tobytes() == before.tobytes()
        theta.setflags(write=False)
        assert np.array_equal(unit_phase(theta), unit_phase(before))


class TestRadial:
    """The real radial kernel against Phi = e^{ikr} / (4 pi r) and its
    radial factor c = (ik - 1/r) Phi / r, both in complex arithmetic."""

    r = np.geomspace(1e-3, 1e3, 20_001)
    # relative to |Phi| and |c|: 16 units of roundoff; on 200 001 radii the
    # largest gaps are 6.3e-16 for Phi and 9.2e-16 for c, with numpy's
    # AVX-512 tan and with its scalar one
    rel = 2.0**-49

    @pytest.mark.parametrize("k", [0.5, 2.0, 64.0])
    def test_matches_complex_forms(self, k):
        pr, pi, cr, ci = kernels_mod._radial(self.r, k, True)
        phi = np.exp(1j * k * self.r) / (4 * np.pi * self.r)
        c = (1j * k - 1 / self.r) * phi / self.r
        for re, im, ref in ((pr, pi, phi), (cr, ci, c)):
            assert re.dtype == im.dtype == np.float64
            assert re.flags.c_contiguous and im.flags.c_contiguous
            assert np.max(np.abs(re + 1j * im - ref) / np.abs(ref)) <= self.rel

    def test_c_alone_has_the_same_bits(self):
        for k in (0.5, 2.0, 64.0):
            with_phi = kernels_mod._radial(self.r, k, True)
            pr, pi, cr, ci = kernels_mod._radial(self.r, k, False)
            assert pr is None and pi is None
            assert cr.tobytes() == with_phi[2].tobytes() and ci.tobytes() == with_phi[3].tobytes()

    def test_does_not_write_r(self):
        r = np.random.default_rng(29).uniform(1e-3, 10.0, (64, 64))
        before = r.copy()
        parts = kernels_mod._radial(r, 2.0, True)
        assert r.tobytes() == before.tobytes()
        r.setflags(write=False)
        again = kernels_mod._radial(r, 2.0, True)
        assert [p.tobytes() for p in again] == [p.tobytes() for p in parts]

    def test_public_free_space_is_the_radial_kernel(self):
        pr, pi, cr, ci = kernels_mod._radial(self.r, 2.0, True)
        phi, c = kernels_mod.free_space(self.r, 2.0)
        assert np.array_equal(phi, pr + 1j * pi) and np.array_equal(c, cr + 1j * ci)
        phi0, c0 = kernels_mod.free_space(self.r[7], 2.0)
        assert type(phi0) is type(c0) is np.complex128
        assert (phi0, c0) == (phi[7], c[7])


def _complex_exponentials(path):
    """Lines of np.exp calls whose argument holds a complex constant, outside
    kernels.unit_phase."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = set()
    if path.name == "kernels.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "unit_phase":
                exempt.update(id(n) for n in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "exp"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and id(node) not in exempt
        and any(
            isinstance(c, ast.Constant) and isinstance(c.value, complex)
            for arg in [*node.args, *(kw.value for kw in node.keywords)]
            for c in ast.walk(arg)
        )
    ]


def test_no_complex_exp_outside_unit_phase():
    sources = sorted(Path(kernels_mod.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    found = {p.name: lines for p in sources if (lines := _complex_exponentials(p))}
    assert found == {}


def test_kernel_requires_positive_wavenumber():
    with pytest.raises(ValueError):
        GreenKernel(k=0.0, bc=D)
