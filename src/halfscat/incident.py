"""Incident fields over the ground plane and their reflected companions.

A plane wave from above pairs with its Snell reflection, a point source with
its image source; the pair satisfies the boundary condition on the unperturbed
plane exactly (it vanishes there for sound-soft, its normal derivative
vanishes for sound-hard).  All evaluators are closed-form, vectorized over
trailing-axis-3 point arrays, and carry analytic gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import BoundaryCondition, GreenKernel, eval_G, grad_G_x, unit_phase


@dataclass(frozen=True)
class PlaneWave:
    """Downward plane wave described by its incidence angles.

    The direction is derived: d = (sin(phi)cos(theta), sin(phi)sin(theta),
    -cos(phi)), which is a unit vector in the lower hemisphere for
    phi in (-pi/2, pi/2).  ``d_spec`` is the specular direction with the
    third component flipped.
    """

    phi: float
    theta: float
    k: float
    bc: BoundaryCondition
    d: np.ndarray = field(init=False, repr=False, compare=False)
    d_spec: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"wavenumber must be finite and > 0, got {self.k!r}")
        if not (-math.pi / 2 < self.phi < math.pi / 2):
            raise ValueError(f"incidence angle phi must lie in (-pi/2, pi/2), got {self.phi!r}")
        if not (0.0 <= self.theta < 2 * math.pi):
            raise ValueError(f"azimuth theta must lie in [0, 2*pi), got {self.theta!r}")
        alpha = math.sin(self.phi) * math.cos(self.theta)
        beta = math.sin(self.phi) * math.sin(self.theta)
        gamma = math.cos(self.phi)
        d = np.array([alpha, beta, -gamma])
        d_spec = np.array([alpha, beta, gamma])
        d.setflags(write=False)
        d_spec.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "d_spec", d_spec)


@dataclass(frozen=True)
class PointSource:
    """Monopole source at a point strictly above the ground plane."""

    z: np.ndarray
    k: float
    bc: BoundaryCondition

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).reshape(3)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"wavenumber must be finite and > 0, got {self.k!r}")
        if not np.all(np.isfinite(z)):
            raise ValueError(f"point source must have finite coordinates, got {z.tolist()}")
        if not z[2] > 0:
            raise ValueError(f"point source must lie above the ground plane, got z3={z[2]!r}")


IncidentWave = PlaneWave | PointSource


def eval_plane_pair(w: PlaneWave, x: np.ndarray) -> np.ndarray:
    """Incident plus reflected plane wave at x:
    e^{ik(a x1 + b x2)} (e^{-ik g x3} -/+ e^{ik g x3})."""
    x = np.asarray(x, dtype=float)
    s = w.bc.image_sign
    return unit_phase(w.k * (x @ w.d)) + s * unit_phase(w.k * (x @ w.d_spec))


def grad_plane_pair(w: PlaneWave, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of the plane-wave pair; its normal component on a
    tilted facet is ik e^{ik(a x1 + b x2)} [e^{-ik g x3}(d.nu) -/+
    e^{ik g x3}(d'.nu)]."""
    x = np.asarray(x, dtype=float)
    s = w.bc.image_sign
    inc = (1j * w.k) * unit_phase(w.k * (x @ w.d))
    ref = (1j * w.k) * s * unit_phase(w.k * (x @ w.d_spec))
    return inc[..., None] * w.d + ref[..., None] * w.d_spec


def eval_point_pair(w: PointSource, x: np.ndarray) -> np.ndarray:
    """Point source plus image source: the image kernel G(x, z) = Phi(x,z) -/+ Phi(x,z')."""
    return eval_G(GreenKernel(k=w.k, bc=w.bc), x, w.z)


def grad_point_pair(w: PointSource, x: np.ndarray) -> np.ndarray:
    """Analytic x-gradient of the point-source pair."""
    return grad_G_x(GreenKernel(k=w.k, bc=w.bc), x, w.z)


def eval_pair(w: IncidentWave, x: np.ndarray) -> np.ndarray:
    """Dispatch on the wave variant."""
    if isinstance(w, PlaneWave):
        return eval_plane_pair(w, x)
    return eval_point_pair(w, x)


def grad_pair(w: IncidentWave, x: np.ndarray) -> np.ndarray:
    if isinstance(w, PlaneWave):
        return grad_plane_pair(w, x)
    return grad_point_pair(w, x)
