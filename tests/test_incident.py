import numpy as np
import pytest

from conftest import fd_gradient, helmholtz_rel_residual
from halfscat.errors import SingularityError
from halfscat.incident import (
    BoundaryCondition,
    PlaneWave,
    PointSource,
    eval_plane_pair,
    eval_point_pair,
    grad_plane_pair,
    grad_point_pair,
)

D = BoundaryCondition.DIRICHLET
N = BoundaryCondition.NEUMANN


class TestPlaneWaveConstruction:
    def test_direction_derived_from_angles(self):
        w = PlaneWave(phi=0.7, theta=2.1, k=2.0, bc=D)
        assert np.linalg.norm(w.d) == pytest.approx(1.0, abs=1e-15)
        assert w.d[2] < 0
        assert w.d_spec[2] == -w.d[2]
        assert np.allclose(w.d[:2], w.d_spec[:2])
        # gamma = cos(phi) in (0, 1]
        assert 0 < -w.d[2] <= 1.0

    def test_angle_validation(self):
        PlaneWave(phi=0.0, theta=0.0, k=1.0, bc=D)  # theta = 0 accepted as limit
        with pytest.raises(ValueError):
            PlaneWave(phi=np.pi / 2, theta=0.0, k=1.0, bc=D)
        with pytest.raises(ValueError):
            PlaneWave(phi=0.0, theta=-0.1, k=1.0, bc=D)
        with pytest.raises(ValueError):
            PlaneWave(phi=0.0, theta=0.0, k=-2.0, bc=D)

    def test_point_source_validation(self):
        PointSource(z=(0.0, 0.0, 0.5), k=1.0, bc=D)
        with pytest.raises(ValueError):
            PointSource(z=(0.0, 0.0, 0.0), k=1.0, bc=D)
        with pytest.raises(ValueError):
            PointSource(z=(0.0, 0.0, 1.0), k=0.0, bc=D)
        for z in [(np.nan, 0.0, 1.0), (0.0, -np.inf, 1.0), (0.0, 0.0, np.nan), (0.0, 0.0, np.inf)]:
            with pytest.raises(ValueError, match="finite coordinates"):
                PointSource(z=z, k=2.0, bc=D)


class TestPlanePair:
    def test_dirichlet_vanishes_on_plane(self):
        w = PlaneWave(phi=0.4, theta=1.3, k=2.0, bc=D)
        pts = np.array([[0.3, -0.8, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.max(np.abs(eval_plane_pair(w, pts))) == 0.0

    def test_tilted_facet_closed_form(self):
        # on any point the pair equals e^{ik(a x1 + b x2)} (e^{-ik g x3} - e^{ik g x3})
        w = PlaneWave(phi=0.6, theta=0.9, k=2.0, bc=D)
        alpha, beta = w.d[0], w.d[1]
        gamma = -w.d[2]
        for x1, x2 in ((0.2, -0.5), (1.1, 0.7)):
            x3 = 0.5 * x1 - 0.3 * x2 + 0.4  # a tilted facet
            x = np.array([x1, x2, x3])
            expected = np.exp(1j * 2.0 * (alpha * x1 + beta * x2)) * (
                np.exp(-1j * 2.0 * gamma * x3) - np.exp(1j * 2.0 * gamma * x3)
            )
            assert eval_plane_pair(w, x) == pytest.approx(expected, rel=1e-14)

    def test_neumann_axis_value(self):
        # k=2, d=(0,0,-1), x=(0,0,0.5): e^{-i} + e^{i} = 2 cos(1)
        w = PlaneWave(phi=0.0, theta=0.0, k=2.0, bc=N)
        val = eval_plane_pair(w, np.array([0.0, 0.0, 0.5]))
        assert val == pytest.approx(2.0 * np.cos(1.0), abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for bc in (D, N):
            w = PlaneWave(phi=0.5, theta=4.0, k=2.0, bc=bc)
            for _ in range(5):
                x = rng.normal(size=3)
                g = grad_plane_pair(w, x)
                g_fd = fd_gradient(lambda q: eval_plane_pair(w, q), x)
                assert np.max(np.abs(g - g_fd)) <= 1e-7 * np.max(np.abs(g))

    def test_neumann_normal_derivative_vanishes_on_plane(self):
        w = PlaneWave(phi=0.5, theta=2.0, k=3.0, bc=N)
        pts = np.array([[0.4, 0.1, 0.0], [-1.2, 2.0, 0.0]])
        grads = grad_plane_pair(w, pts)
        assert np.max(np.abs(grads[:, 2])) == 0.0

    def test_facet_normal_derivative_closed_form(self):
        # ik e^{ik(a x1 + b x2)} [e^{-ik g x3}(d.nu) + e^{ik g x3}(d'.nu)]
        A, B, C = 0.4, -0.2, 0.3
        nu = np.array([-A, -B, 1.0]) / np.sqrt(A**2 + B**2 + 1.0)
        w = PlaneWave(phi=0.55, theta=5.2, k=2.0, bc=N)
        alpha, beta = w.d[0], w.d[1]
        gamma = -w.d[2]
        x1, x2 = 0.7, -0.4
        x = np.array([x1, x2, A * x1 + B * x2 + C])
        lhs = grad_plane_pair(w, x) @ nu
        rhs = (
            1j
            * w.k
            * np.exp(1j * w.k * (alpha * x1 + beta * x2))
            * (
                np.exp(-1j * w.k * gamma * x[2]) * (w.d @ nu)
                + np.exp(1j * w.k * gamma * x[2]) * (w.d_spec @ nu)
            )
        )
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_helmholtz_residual(self):
        rng = np.random.default_rng(6)
        for bc in (D, N):
            w = PlaneWave(phi=0.3, theta=1.0, k=2.0, bc=bc)
            for _ in range(3):
                x = rng.normal(size=3) + np.array([0.0, 0.0, 1.5])
                res = helmholtz_rel_residual(lambda q: eval_plane_pair(w, q), x, w.k)
                assert res <= 1e-4


class TestPointPair:
    def test_dirichlet_vanishes_on_plane(self):
        w = PointSource(z=(0.4, -0.2, 1.3), k=2.0, bc=D)
        pts = np.array([[0.3, -0.8, 0.0], [5.0, 1.0, 0.0]])
        assert np.max(np.abs(eval_point_pair(w, pts))) == 0.0

    def test_frozen_axis_value(self):
        # k=1, z=(0,0,2), x=(0,0,1), Dirichlet: e^{i}/(4 pi) - e^{3i}/(12 pi),
        # frozen from a 50-digit evaluation
        w = PointSource(z=(0.0, 0.0, 2.0), k=1.0, bc=D)
        val = eval_point_pair(w, np.array([0.0, 0.0, 1.0]))
        assert val == pytest.approx(0.06925625794773968 + 0.06321880887497495j, abs=1e-16)

    def test_neumann_normal_derivative_vanishes_on_plane(self):
        w = PointSource(z=(0.4, -0.2, 1.3), k=2.0, bc=N)
        grads = grad_point_pair(w, np.array([[0.5, 0.2, 0.0], [-2.0, 0.3, 0.0]]))
        assert np.max(np.abs(grads[:, 2])) == 0.0

    def test_dirichlet_tangential_gradient_vanishes_on_plane(self):
        w = PointSource(z=(0.4, -0.2, 1.3), k=2.0, bc=D)
        grads = grad_point_pair(w, np.array([[0.5, 0.2, 0.0], [-2.0, 0.3, 0.0]]))
        assert np.max(np.abs(grads[:, :2])) == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for bc in (D, N):
            w = PointSource(z=(0.1, 0.2, 0.8), k=2.0, bc=bc)
            for _ in range(5):
                x = rng.normal(size=3) + np.array([0, 0, 2.5])
                g = grad_point_pair(w, x)
                g_fd = fd_gradient(lambda q: eval_point_pair(w, q), x)
                assert np.max(np.abs(g - g_fd)) <= 1e-7 * np.max(np.abs(g))

    def test_singularity_guards(self):
        w = PointSource(z=(0.0, 0.0, 1.0), k=2.0, bc=D)
        with pytest.raises(SingularityError, match="source"):
            eval_point_pair(w, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(SingularityError, match="image"):
            eval_point_pair(w, np.array([0.0, 0.0, -1.0]))
        with pytest.raises(SingularityError):
            grad_point_pair(w, np.array([0.0, 0.0, 1.0 + 1e-13]))

    def test_non_finite_evaluation_point_rejected(self):
        w = PointSource(z=np.array([0.0, 0.0, 0.5]), k=2.0, bc=D)
        for evaluate in (eval_point_pair, grad_point_pair):
            with pytest.raises(ValueError, match="finite"):
                evaluate(w, np.array([np.nan, 0.0, 1.0]))

    def test_leading_singularity_magnitude(self):
        # gradient ~ 1/(4 pi r^2) as x -> z
        w = PointSource(z=(0.0, 0.0, 1.0), k=2.0, bc=D)
        r = 1e-4
        g = grad_point_pair(w, np.array([r, 0.0, 1.0]))
        assert np.linalg.norm(g) * 4 * np.pi * r**2 == pytest.approx(1.0, rel=1e-2)

    def test_helmholtz_residual(self):
        rng = np.random.default_rng(8)
        for bc in (D, N):
            w = PointSource(z=(0.3, 0.1, 1.1), k=2.0, bc=bc)
            for _ in range(3):
                x = rng.normal(size=3) * 0.5 + np.array([1.5, 0.0, 2.0])
                res = helmholtz_rel_residual(lambda q: eval_point_pair(w, q), x, w.k)
                assert res <= 1e-4

    def test_exchange_symmetry(self):
        # the pair is symmetric in source and evaluation point
        rng = np.random.default_rng(9)
        for bc in (D, N):
            for _ in range(5):
                a = rng.normal(size=3)
                b = rng.normal(size=3)
                a[2] = abs(a[2]) + 0.2
                b[2] = abs(b[2]) + 0.2
                va = eval_point_pair(PointSource(z=a, k=2.0, bc=bc), b)
                vb = eval_point_pair(PointSource(z=b, k=2.0, bc=bc), a)
                assert va == pytest.approx(vb, rel=1e-13)
