import numpy as np
import pytest

import halfscat.solver as solver_mod
from conftest import fd_gradient, helmholtz_rel_residual
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
)
from halfscat.solver import (
    _ROW_BLOCK,
    GRADED_LEAVES,
    DirectionGrid,
    LayerDensity,
    _assemble_matrix,
    _closest_points_on_triangles,
    _graded_leaves,
    _vertex_adjacency,
    eval_farfields,
    eval_scattered,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN
KD = GreenKernel(k=1.0, bc=D)


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

    @pytest.mark.parametrize("evaluator", [eval_G, grad_G_x, grad_G_y])
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
            )
            for _ in range(3)
        ]
        normals = mesh.normals if bc is D else None
        ref = _pointwise_farfield_matrix(
            GreenKernel(k=2.0, bc=bc), self.grid.directions, mesh.centroids, mesh.areas,
            normals, eta,
        )
        for pattern, density in zip(eval_farfields(densities, mesh, self.grid), densities):
            assert _rel_max(pattern.values, ref @ density.coefficients) <= 1e-13
            assert pattern.values.flags.c_contiguous and not pattern.values.flags.writeable


@pytest.fixture(scope="module")
def small_bump_mesh():
    prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
    return mesh_perturbation(prof, 0.125)


@pytest.fixture(scope="module")
def canonical_mesh():
    prof = build_profile({"kind": "gaussian_bump", "R": 1.0, "amplitude": 0.3, "width": 0.25})
    return mesh_perturbation(prof, 0.085)


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
        pairs = _vertex_adjacency(mesh)
        assert pairs.shape == (len(pairs), 2)
        assert np.array_equal(pairs, np.array(_reference_adjacency(mesh)))

    def test_closest_points_and_leaves(self, mesh):
        rows, cols = _vertex_adjacency(mesh).T
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
        A = _assemble_matrix(mesh, 2.0, bc)
        far = np.ones(A.shape, dtype=bool)
        far[tuple(np.array(_vertex_adjacency(mesh)).T)] = False
        i, j = np.nonzero(far)
        kern = GreenKernel(k=2.0, bc=bc)
        x, y = mesh.centroids[i], mesh.centroids[j]
        if bc is D:
            ref = _public_integrand(kern, x, y, mesh.normals[j], eta)
        else:
            ref = np.sum(mesh.normals[i] * grad_G_x(kern, x, y), axis=-1)
        assert _rel_max(A[i, j], ref * mesh.areas[j]) <= 1e-13

    @pytest.mark.parametrize("bc", [D, N])
    def test_tile_edge_invariance(self, small_bump_mesh, bc, monkeypatch):
        """Ragged tiles, diagonal tiles and mirrored tiles give the same bytes
        as the default tiling, including a single tile larger than the matrix;
        so do near-block chunks of a few pairs, ragged ones and a single one
        holding every pair."""
        mesh = small_bump_mesh
        ref = _assemble_matrix(mesh, 2.0, bc)
        n_pairs = len(_vertex_adjacency(mesh))
        chunks = [max(1, b * b // GRADED_LEAVES) for b in (7, 256, mesh.n_panels + 5)]
        assert chunks[0] < 5 and chunks[-1] >= n_pairs
        assert any(n_pairs % c for c in chunks[:-1])
        for block in (7, 256, mesh.n_panels + 5):
            monkeypatch.setattr(solver_mod, "_ROW_BLOCK", block)
            A = _assemble_matrix(mesh, 2.0, bc)
            assert A.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bc", [D, N])
    def test_representation(self, small_bump_mesh, bc):
        mesh = small_bump_mesh
        rng = np.random.default_rng(26)
        eta = 2.0 if bc is D else 0.0
        density = LayerDensity(
            coefficients=rng.normal(size=mesh.n_panels) + 1j * rng.normal(size=mesh.n_panels),
            bc=bc,
            k=2.0,
        )
        # above the plane, and one point below it
        pts = np.array([[0.3, -0.2, 1.5], [1.5, 0.4, 0.8], [-0.6, 0.9, -1.2]])
        kern = GreenKernel(k=2.0, bc=bc)
        vals = _public_integrand(
            kern, pts[:, None, :], mesh.centroids[None, :, :], mesh.normals[None, :, :], eta
        )
        ref = (vals * mesh.areas) @ density.coefficients
        assert _rel_max(eval_scattered(density, mesh, None, pts), ref) <= 1e-13


def test_kernel_requires_positive_wavenumber():
    with pytest.raises(ValueError):
        GreenKernel(k=0.0, bc=D)
