"""Numerical certificates for the structural identities of the model.

Each check compares two independently computed quantities (two separate
forward solves, or a solve against a closed form), so agreement is a genuine
physical statement about the discretization rather than an algebraic
tautology of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .incident import PlaneWave, PointSource
from .kernels import MIRROR, BoundaryCondition, GreenKernel, eval_G, unit_phase
from .solver import (
    DirectionGrid,
    LayerDensity,
    eval_farfield,
    eval_scattered,
    solve_scattered,
)

REL_ERR_FLOOR = 1e-300
DECAY_RADII = 12  # samples of every radiation-decay fit, log-spaced over a decade


def relative_error(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), REL_ERR_FLOOR)


@dataclass(frozen=True)
class IdentityReport:
    name: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float

    def record(self) -> dict:
        return {
            "name": self.name,
            "lhs_re": self.lhs.real,
            "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real,
            "rhs_im": self.rhs.imag,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
        }


@dataclass(frozen=True)
class SlopeReport:
    name: str
    slope: float
    radii: np.ndarray
    residuals: np.ndarray
    vacuous: bool

    def record(self) -> dict:
        return {
            "name": self.name,
            "slope": self.slope,
            "r_min": float(self.radii[0]),
            "r_max": float(self.radii[-1]),
            "vacuous": self.vacuous,
        }


def _report(name, lhs, rhs) -> IdentityReport:
    lhs = complex(lhs)
    rhs = complex(rhs)
    return IdentityReport(name=name, lhs=lhs, rhs=rhs, abs_err=abs(lhs - rhs),
                          rel_err=relative_error(lhs, rhs))


def check_mixed_reciprocity(scene, d: np.ndarray, z: np.ndarray) -> IdentityReport:
    """4*pi times the point-source far field at -d against the plane-wave
    scattered field at the source point; two independent solves."""
    d = np.asarray(d, dtype=float)
    z = np.asarray(z, dtype=float)
    pw = _plane_wave_from_direction(d, scene.k, scene.bc)
    dens_pw, _ = solve_scattered(scene.mesh, pw)
    rhs = eval_scattered(dens_pw, z)

    ps = PointSource(z=z, k=scene.k, bc=scene.bc)
    dens_ps, _ = solve_scattered(scene.mesh, ps)
    lhs = 4 * np.pi * eval_farfield(dens_ps, DirectionGrid.single(-d))[0]
    return _report("mixed_reciprocity", lhs, rhs)


def check_point_symmetry(scene, x: np.ndarray, y: np.ndarray) -> IdentityReport:
    """Scattered field at x due to a source at y against the role-swapped
    evaluation; two independent solves."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    src_y = PointSource(z=y, k=scene.k, bc=scene.bc)
    dens_y, _ = solve_scattered(scene.mesh, src_y)
    lhs = eval_scattered(dens_y, x)

    src_x = PointSource(z=x, k=scene.k, bc=scene.bc)
    dens_x, _ = solve_scattered(scene.mesh, src_x)
    rhs = eval_scattered(dens_x, y)
    return _report("point_symmetry", lhs, rhs)


def check_reflected_farfield(
    z: np.ndarray, d: np.ndarray, k: float, bc: BoundaryCondition
) -> IdentityReport:
    """Closed-form identity for the reflected wave alone: 4*pi times the image
    source's far-field coefficient at -d equals the reflected plane wave at z.
    No solve; the two sides come from different closed forms."""
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    s = bc.image_sign
    z_img = z * MIRROR
    # far-field coefficient of s*Phi(x, z') observed at direction -d
    lhs = 4 * np.pi * s * unit_phase(-k * np.dot(-d, z_img)) / (4 * np.pi)
    # reflected plane wave evaluated at the source position
    d_spec = d * MIRROR
    rhs = s * unit_phase(k * np.dot(d_spec, z))
    return _report("reflected_farfield", lhs, rhs)


def check_extension(density: LayerDensity, samples: np.ndarray) -> IdentityReport:
    """Evaluate the representation above and below the plane at mirrored
    sample pairs; the odd (sound-soft) or even (sound-hard) extension, as
    ``density.bc`` says, makes the two agree up to sign.  Reports the worst
    pair; abs_err is the max residual over all samples."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    if not len(samples):
        raise ValueError("the extension check needs at least one sample point")
    up = eval_scattered(density, samples)
    down = eval_scattered(density, samples * MIRROR)
    expected = -up if density.bc is BoundaryCondition.DIRICHLET else up
    resid = np.abs(down - expected)
    worst = int(np.argmax(resid))
    rep = _report("extension", down[worst], expected[worst])
    return replace(rep, abs_err=float(resid.max()))


def radiation_residuals(field, k: float, xhat: np.ndarray, radii: np.ndarray):
    """|d_r u - i k u| along the ray r*xhat, radial derivative by central
    differences."""
    step = 1e-3
    xhat = np.asarray(xhat, dtype=float)
    xhat = xhat / np.linalg.norm(xhat)
    pts = radii[:, None] * xhat
    u0 = field(pts)
    up = field((radii + step)[:, None] * xhat)
    um = field((radii - step)[:, None] * xhat)
    return np.abs((up - um) / (2 * step) - 1j * k * u0)


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def check_radiation_decay(density: LayerDensity, xhat: np.ndarray) -> SlopeReport:
    """Sommerfeld-residual decay of the solved field along a ray: least-squares
    log-log slope over DECAY_RADII radii in [10R, 100R]; the far-field
    expansion forces an exponent of -2."""
    R = density.mesh.support_radius
    radii = np.geomspace(10 * R, 100 * R, DECAY_RADII)
    resid = radiation_residuals(lambda pts: eval_scattered(density, pts), density.k, xhat, radii)
    vacuous = bool(np.all(resid == 0.0))
    return SlopeReport(
        name="radiation_decay",
        slope=0.0 if vacuous else fit_loglog_slope(radii, resid),
        radii=radii,
        residuals=resid,
        vacuous=vacuous,
    )


def check_kernel_radiation_decay(
    k: float, bc: BoundaryCondition, y: np.ndarray, xhat: np.ndarray
) -> SlopeReport:
    """Same decay fit for the bare image kernel with a fixed source point."""
    kern = GreenKernel(k=k, bc=bc)
    radii = np.geomspace(10.0, 100.0, DECAY_RADII)
    resid = radiation_residuals(lambda pts: eval_G(kern, pts, y), k, xhat, radii)
    return SlopeReport(
        name="kernel_radiation_decay",
        slope=fit_loglog_slope(radii, resid),
        radii=radii,
        residuals=resid,
        vacuous=False,
    )


def _plane_wave_from_direction(d: np.ndarray, k: float, bc: BoundaryCondition) -> PlaneWave:
    """Recover the incidence angles of a unit downward direction."""
    d = np.asarray(d, dtype=float)
    nrm = np.linalg.norm(d)
    if not np.isclose(nrm, 1.0, atol=1e-12):
        raise ValueError(f"incident direction must be a unit vector, got |d|={nrm!r}")
    if d[2] >= 0:
        raise ValueError("incident direction must point downward (d3 < 0)")
    gamma = -d[2]
    sin_phi = float(np.hypot(d[0], d[1]))
    phi = float(np.arctan2(sin_phi, gamma))
    theta = float(np.arctan2(d[1], d[0]) % (2 * np.pi)) if sin_phi > 0 else 0.0
    return PlaneWave(phi=phi, theta=theta, k=k, bc=bc)
