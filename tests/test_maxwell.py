import numpy as np
import pytest

import halfscat.maxwell as maxwell_mod
import halfscat.suites as suites_mod
from halfscat.errors import SingularityError
from halfscat.kernels import free_space
from halfscat.maxwell import (
    DipoleSource,
    check_reflection_principle,
    check_silver_muller,
    eval_dipole,
    eval_image_field,
    eval_total_field,
    maxwell_fd_residuals,
    pec_residual,
)
from halfscat.suites import run_maxwell

SRC = DipoleSource(y=(0.2, -0.1, 0.8), p=(1.0, -2.0, 0.5), k=2.0)


def _EH(evaluate):
    """E and H of an evaluator stacked as (2, 3), the field the FD oracle takes."""
    def field(q):
        sample = evaluate(q)
        return np.array([sample.E, sample.H])
    return field


def _sample_points(rng, n, avoid, min_dist=0.35):
    pts = []
    while len(pts) < n:
        x = rng.normal(size=3) * 1.5
        x[2] = abs(x[2]) + 0.3
        if all(np.linalg.norm(x - a) > min_dist for a in avoid):
            pts.append(x)
    return pts


class TestDipoleFields:
    def test_maxwell_system_fd_oracle(self):
        rng = np.random.default_rng(41)
        field = _EH(lambda q: eval_dipole(SRC, q))
        for x in _sample_points(rng, 8, [SRC.y]):
            r1, r2, _, _ = maxwell_fd_residuals(field, x, SRC.k)
            assert r1 <= 1e-5 and r2 <= 1e-5

    def test_H_is_curl_of_vector_potential(self):
        # independent oracle: curl(p Phi) = (grad Phi) x p with the gradient
        # taken by central differences
        rng = np.random.default_rng(42)

        def phi(q):
            r = np.linalg.norm(q - SRC.y)
            return np.exp(1j * SRC.k * r) / (4 * np.pi * r)

        h = 1e-4 / SRC.k
        for x in _sample_points(rng, 5, [SRC.y]):
            H = eval_dipole(SRC, x).H
            g = np.empty(3, dtype=complex)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                g[j] = (phi(x + e) - phi(x - e)) / (2 * h)
            fd = np.cross(g, SRC.p)
            assert np.max(np.abs(H - fd)) <= 1e-5 * np.max(np.abs(H))

    def test_H_closed_form_against_gradient_formula(self):
        # H must equal grad Phi x p with the analytic kernel gradient
        rng = np.random.default_rng(43)
        for x in _sample_points(rng, 5, [SRC.y]):
            _, c = free_space(np.linalg.norm(x - SRC.y), SRC.k)
            expected = np.cross(c * (x - SRC.y), SRC.p)
            assert np.allclose(eval_dipole(SRC, x).H, expected, rtol=1e-13)

    def test_far_zone_inverse_distance_decay(self):
        xhat = np.array([0.2, 0.3, 0.93])
        xhat /= np.linalg.norm(xhat)
        r = 1e3 / SRC.k
        e1 = np.linalg.norm(eval_dipole(SRC, SRC.y + r * xhat).E)
        e2 = np.linalg.norm(eval_dipole(SRC, SRC.y + 2 * r * xhat).E)
        assert 0.45 <= e2 / e1 <= 0.55

    def test_divergence_free(self):
        rng = np.random.default_rng(44)
        field = _EH(lambda q: eval_dipole(SRC, q))
        for x in _sample_points(rng, 5, [SRC.y]):
            _, _, div_E, div_H = maxwell_fd_residuals(field, x, SRC.k)
            assert div_E <= 1e-5 and div_H <= 1e-5

    def test_validation_and_singularity(self):
        with pytest.raises(ValueError):
            DipoleSource(y=(0, 0, -0.5), p=(1, 0, 0), k=2.0)
        with pytest.raises(ValueError):
            DipoleSource(y=(0, 0, 0.5), p=(0, 0, 0), k=2.0)
        with pytest.raises(SingularityError):
            eval_dipole(SRC, SRC.y)


class TestImageField:
    def test_pec_condition_on_ground_plane(self):
        rng = np.random.default_rng(45)
        ang = rng.uniform(0, 2 * np.pi, 200)
        rad = 3 * np.sqrt(rng.uniform(0, 1, 200))
        pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), np.zeros(200)])
        assert pec_residual(SRC, pts) <= 1e-12

    def test_image_field_satisfies_maxwell(self):
        rng = np.random.default_rng(46)
        field = _EH(lambda q: eval_image_field(SRC, q))
        image_point = SRC.y * np.array([1, 1, -1])
        for x in _sample_points(rng, 5, [SRC.y, image_point]):
            r1, r2, _, _ = maxwell_fd_residuals(field, x, SRC.k)
            assert r1 <= 1e-5 and r2 <= 1e-5

    def test_pec_residual_sees_off_plane_points(self):
        # the tangential field vanishes on x3 = 0 only, not at x3 = 0.3
        src = DipoleSource(y=(0.0, 0.0, 0.7), p=(1.0, 0.0, 0.0), k=2.0)
        rng = np.random.default_rng(47)
        ang = rng.uniform(0, 2 * np.pi, 100)
        rad = 2 * np.sqrt(rng.uniform(0, 1, 100))
        off_plane = np.column_stack([rad * np.cos(ang), rad * np.sin(ang), np.full(100, 0.3)])
        assert pec_residual(src, off_plane) > 1e-2

    def test_field_linearity_in_polarization(self):
        src2 = DipoleSource(y=SRC.y, p=2.0 * SRC.p, k=SRC.k)
        x = np.array([0.7, 0.4, 1.3])
        s1 = eval_total_field(SRC, x)
        s2 = eval_total_field(src2, x)
        assert np.allclose(s2.E, 2.0 * s1.E, rtol=1e-13)
        assert np.allclose(s2.H, 2.0 * s1.H, rtol=1e-13)


class TestReflectionPrinciple:
    def test_symmetric_pairs_residual(self):
        rng = np.random.default_rng(48)
        samples = np.array(_sample_points(rng, 100, [SRC.y, SRC.y * np.array([1, 1, -1])]))
        rep = check_reflection_principle(SRC, samples)
        assert rep.max_E_residual <= 1e-12 * rep.field_scale
        assert rep.max_H_residual <= 1e-12 * rep.field_scale
        assert rep.n_pairs == 100

    def test_singularity_pairing(self):
        # the total field blows up at the dipole point and at its image
        ref = eval_total_field(SRC, np.array([0.0, 0.0, 10.0 / SRC.k]))
        far_scale = np.linalg.norm(ref.E)
        for target in (SRC.y, SRC.y * np.array([1, 1, -1])):
            near = eval_total_field(SRC, target + np.array([1e-3, 0, 0]))
            assert np.linalg.norm(near.E) > 1e6 * far_scale

    def test_polarization_orientation_irrelevant(self):
        rng = np.random.default_rng(49)
        samples = np.array(_sample_points(rng, 30, [SRC.y, SRC.y * np.array([1, 1, -1])]))
        for p in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)):
            src = DipoleSource(y=SRC.y, p=p, k=SRC.k)
            rep = check_reflection_principle(src, samples)
            assert rep.max_E_residual <= 1e-12 * rep.field_scale

    def test_duality_swap(self):
        # (E, H) -> (H, -E) maps one curl equation onto the other
        rng = np.random.default_rng(50)
        total = _EH(lambda q: eval_total_field(SRC, q))

        def dual(q):
            E, H = total(q)
            return np.array([H, -E])

        for x in _sample_points(rng, 4, [SRC.y, SRC.y * np.array([1, 1, -1])]):
            r1, r2, _, _ = maxwell_fd_residuals(dual, x, SRC.k)
            assert r1 <= 1e-5 and r2 <= 1e-5


class TestSilverMuller:
    def test_vertical_ray_slopes(self):
        rep = check_silver_muller(SRC, np.array([0.0, 0.0, 1.0]))
        assert rep.slope_residual <= -0.8
        assert -1.2 <= rep.slope_E <= -0.8
        assert rep.radii[0] == pytest.approx(10.0 / SRC.k)
        assert rep.radii[-1] == pytest.approx(100.0 / SRC.k)

    def test_wavenumber_doubling_leaves_slopes(self):
        # low dipole keeps the observation ray clear of interference nulls
        y = (0.08217701239287256, -0.13812797174167782, 0.2163894095744779)
        p = (0.16021416297716448, -0.818128926665578, 0.5522648652001644)
        xhat = np.array([0.6482544530329389, 0.47082011540113455, 0.5984100459188729])
        slopes = []
        for k in (2.0, 4.0):
            rep = check_silver_muller(DipoleSource(y=y, p=p, k=k), xhat)
            assert rep.slope_residual <= -0.8
            assert -1.2 <= rep.slope_E <= -0.8
            slopes.append((rep.slope_residual, rep.slope_E))
        assert abs(slopes[0][0] - slopes[1][0]) <= 0.1
        assert abs(slopes[0][1] - slopes[1][1]) <= 0.1

    def test_downward_ray_rejected(self):
        with pytest.raises(ValueError):
            check_silver_muller(SRC, np.array([0.0, 0.0, -1.0]))


class TestMaxwellSuite:
    def test_each_probe_stencil_is_evaluated_once(self, canonical_dirichlet, monkeypatch):
        """run_maxwell evaluates the total field once for the plane samples,
        twice for the reflection pairs, once for the Silver-Mueller ray and
        7 times at each of its 20 probe points: the centre and six stencil
        points give both curl residuals and both divergences."""
        calls = []

        def counted(*args):
            calls.append(args)
            return eval_total_field(*args)

        monkeypatch.setattr(maxwell_mod, "eval_total_field", counted)
        monkeypatch.setattr(suites_mod, "eval_total_field", counted)
        results = run_maxwell(canonical_dirichlet)
        assert all(r.passed for r in results)
        assert len(calls) == 4 + 20 * 7
