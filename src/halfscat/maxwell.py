"""Electric-dipole fields over the perfectly conducting ground plane, by images.

The dipole pair (incident plus reflected) satisfies the perfectly conducting
condition on ``x3 = 0`` by construction; the checks here certify the
reflection principle, the tangential-field condition, the time-harmonic
curl equations and zero divergence (against central differences: each probe
point's stencil is evaluated once and serves both curl equations and both
divergences), and Silver-Mueller decay, all with closed-form fields and no
boundary-integral machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError
from .identities import DECAY_RADII, fit_loglog_slope
from .kernels import MIRROR, SINGULARITY_GUARD, free_space


@dataclass(frozen=True)
class DipoleSource:
    """Electric dipole: position y above the plane, polarization p, wavenumber k.

    The magnetic field is curl[p Phi(x,y)]; the electric field is (i/k) times
    its curl.
    """

    y: np.ndarray
    p: np.ndarray
    k: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).reshape(3)
        p = np.asarray(self.p, dtype=float).reshape(3)
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"wavenumber must be finite and > 0, got {self.k!r}")
        if not y[2] > 0:
            raise ValueError(f"dipole must sit above the ground plane, got y3={y[2]!r}")
        if np.linalg.norm(p) == 0.0 or not np.all(np.isfinite(p)):
            raise ValueError("polarization must be a nonzero finite vector")
        y.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class EMSample:
    E: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.E)) and np.all(np.isfinite(self.H))):
            raise ValueError("non-finite electromagnetic field sample")


def _dipole_EH(x: np.ndarray, y: np.ndarray, p: np.ndarray, k: float):
    """Closed-form dipole fields at points x of shape (..., 3):
    H = Phi'(r) rhat x p,
    E = (i/k) [k^2 Phi p + Phi'' (rhat.p) rhat + (Phi'/r)(p - (rhat.p) rhat)].
    """
    diff = np.asarray(x, float) - y
    r = np.linalg.norm(diff, axis=-1)
    if np.min(r) < SINGULARITY_GUARD:
        raise SingularityError(f"evaluation point coincides with the dipole at y={y.tolist()}")
    rhat = diff / r[..., None]
    phi, c = free_space(r, k)  # c = Phi'(r) / r
    dphi = c * r
    d2phi = (-(k**2) - 2j * k / r + 2.0 / r**2) * phi
    rp = rhat @ p
    H = dphi[..., None] * np.cross(rhat, np.broadcast_to(p, rhat.shape))
    E = (1j / k) * (
        (k**2) * phi[..., None] * p
        + d2phi[..., None] * rp[..., None] * rhat
        + c[..., None] * (p - rp[..., None] * rhat)
    )
    return E, H


def eval_dipole(src: DipoleSource, x: np.ndarray) -> EMSample:
    """Fields of the free dipole at x (closed form, no differencing)."""
    E, H = _dipole_EH(x, src.y, src.p, src.k)
    return EMSample(E=E, H=H)


def eval_image_field(src: DipoleSource, x: np.ndarray) -> EMSample:
    """Reflected companion making the pair perfectly conducting on the ground
    plane: E_re(x) = -M E_in(Mx), H_re(x) = +M H_in(Mx), with M the reflection
    ``v * MIRROR`` in x3 = 0."""
    E, H = _dipole_EH(np.asarray(x, dtype=float) * MIRROR, src.y, src.p, src.k)
    return EMSample(E=-(E * MIRROR), H=H * MIRROR)


def eval_total_field(src: DipoleSource, x: np.ndarray) -> EMSample:
    inc = eval_dipole(src, x)
    ref = eval_image_field(src, x)
    return EMSample(E=inc.E + ref.E, H=inc.H + ref.H)


@dataclass(frozen=True)
class ReflectionReport:
    max_E_residual: float
    max_H_residual: float
    field_scale: float
    n_pairs: int


def check_reflection_principle(src: DipoleSource, samples: np.ndarray) -> ReflectionReport:
    """Residuals of E(x) + M E(Mx) and H(x) - M H(Mx) for the total field over
    sample points paired with their mirror images; zero is forced by the image
    construction, so this guards the implementation."""
    samples = np.asarray(samples, dtype=float).reshape(-1, 3)
    tot = eval_total_field(src, samples)
    tot_m = eval_total_field(src, samples * MIRROR)
    res_E = tot.E + tot_m.E * MIRROR
    res_H = tot.H - tot_m.H * MIRROR
    scale = float(np.max(np.linalg.norm(tot.E, axis=-1)) + np.max(np.linalg.norm(tot.H, axis=-1)))
    return ReflectionReport(
        max_E_residual=float(np.max(np.linalg.norm(res_E, axis=-1))),
        max_H_residual=float(np.max(np.linalg.norm(res_H, axis=-1))),
        field_scale=scale,
        n_pairs=samples.shape[0],
    )


def pec_residual(src: DipoleSource, samples_on_plane: np.ndarray) -> float:
    """max |nu x (E_in + E_re)| over samples on the ground plane, nu = e3,
    relative to the local field magnitude."""
    pts = np.asarray(samples_on_plane, dtype=float).reshape(-1, 3)
    tot = eval_total_field(src, pts)
    tangential = np.cross(np.broadcast_to([0.0, 0.0, 1.0], tot.E.shape), tot.E)
    scale = np.maximum(np.linalg.norm(tot.E, axis=-1), 1e-300)
    return float(np.max(np.linalg.norm(tangential, axis=-1) / scale))


@dataclass(frozen=True)
class SilverMullerReport:
    slope_residual: float
    slope_E: float
    radii: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)


def check_silver_muller(src: DipoleSource, xhat: np.ndarray) -> SilverMullerReport:
    """Decay of |H x x - r E| for the radiating total field along the ray
    r*xhat, r in [10, 100]/k; an outgoing field gives a slope near -1."""
    xhat = np.asarray(xhat, dtype=float)
    xhat = xhat / np.linalg.norm(xhat)
    if xhat[2] <= 0:
        raise ValueError("Silver-Mueller ray must point into the upper half space")
    radii = np.geomspace(10.0 / src.k, 100.0 / src.k, DECAY_RADII)
    pts = radii[:, None] * xhat
    tot = eval_total_field(src, pts)
    sm = np.cross(tot.H, pts) - radii[:, None] * tot.E
    resid = np.linalg.norm(sm, axis=-1)
    e_mag = np.linalg.norm(tot.E, axis=-1)
    return SilverMullerReport(
        slope_residual=fit_loglog_slope(radii, resid),
        slope_E=fit_loglog_slope(radii, e_mag),
        radii=radii,
        residuals=resid,
    )


# ---------------------------------------------------------------------------
# finite-difference oracle (step 1e-4/k, central differences)

def maxwell_fd_residuals(field, x: np.ndarray, k: float):
    """Relative residuals of curl E - ikH and curl H + ikE, and the
    divergences of E and H, at x, for a callable returning E and H stacked
    as ``(2, 3)``.  All four read the Jacobian ``J[f, i, j] = d F_i / d x_j``
    of one six-point central-difference stencil and are scaled by k times
    the field magnitude at x."""
    x = np.asarray(x, dtype=float)
    h = 1e-4 / k
    J = np.stack([(field(x + e) - field(x - e)) / (2 * h) for e in h * np.eye(3)], axis=-1)
    E, H = field(x)
    scale = k * max(np.linalg.norm(E), np.linalg.norm(H), 1e-300)
    curl_E, curl_H = np.stack([J[:, 2, 1] - J[:, 1, 2], J[:, 0, 2] - J[:, 2, 0],
                               J[:, 1, 0] - J[:, 0, 1]], axis=-1)
    div_E, div_H = J[:, 0, 0] + J[:, 1, 1] + J[:, 2, 2]
    return (float(np.linalg.norm(curl_E - 1j * k * H) / scale),
            float(np.linalg.norm(curl_H + 1j * k * E) / scale),
            float(abs(div_E) / scale), float(abs(div_H) / scale))
