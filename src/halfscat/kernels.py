"""Half-space Green's kernels by the method of images, with far-field limits.

The kernel is the point-source pair G(x,y) = Phi(x,y) -/+ Phi(x,y') with
y' the mirror of y in the ground plane, so it vanishes (sound-soft) or has
vanishing normal derivative (sound-hard) whenever either argument lies on
the plane.  It is defined for all x away from {y, y'}, including below the
plane, which is what lets the reflection-extension checks evaluate layer
potentials there directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .incident import (
    SINGULARITY_GUARD,
    BoundaryCondition,
    fundamental_solution,
    grad_x_fundamental,
)

_MIRROR = np.array([1.0, 1.0, -1.0])


@dataclass(frozen=True)
class GreenKernel:
    k: float
    bc: BoundaryCondition

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"wavenumber must be finite and > 0, got {self.k!r}")


def _guard(x: np.ndarray, y: np.ndarray, y_img: np.ndarray) -> None:
    if np.min(np.linalg.norm(x - y, axis=-1)) < SINGULARITY_GUARD:
        raise SingularityError("evaluation point coincides with the source point y")
    if np.min(np.linalg.norm(x - y_img, axis=-1)) < SINGULARITY_GUARD:
        raise SingularityError("evaluation point coincides with the image source y'")


def eval_G(kern: GreenKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(x, y) = Phi(x,y) -/+ Phi(x,y'); broadcasts over (..., 3) inputs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_img = y * _MIRROR
    _guard(x, y, y_img)
    s = kern.bc.image_sign
    return fundamental_solution(x, y, kern.k) + s * fundamental_solution(x, y_img, kern.k)


def grad_G_y(kern: GreenKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of G in the source argument (double-layer kernel before the
    normal contraction)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_img = y * _MIRROR
    _guard(x, y, y_img)
    s = kern.bc.image_sign
    return -grad_x_fundamental(x, y, kern.k) - s * grad_x_fundamental(x, y_img, kern.k) * _MIRROR


def grad_G_x(kern: GreenKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of G in the evaluation argument (adjoint double-layer kernel)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_img = y * _MIRROR
    _guard(x, y, y_img)
    s = kern.bc.image_sign
    return grad_x_fundamental(x, y, kern.k) + s * grad_x_fundamental(x, y_img, kern.k)


def farfield_kernel(kern: GreenKernel, xhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient of e^{ik|x|}/|x| in G(x, y) as |x| -> infinity along the
    upper-hemisphere direction xhat:  (e^{-ik xhat.y} -/+ e^{-ik xhat.y'}) / 4pi."""
    xhat = np.asarray(xhat, dtype=float)
    y = np.asarray(y, dtype=float)
    s = kern.bc.image_sign
    k = kern.k
    ph = np.exp(-1j * k * np.sum(xhat * y, axis=-1))
    ph_img = np.exp(-1j * k * np.sum(xhat * (y * _MIRROR), axis=-1))
    return (ph + s * ph_img) / (4.0 * np.pi)


def farfield_kernel_grad_y(kern: GreenKernel, xhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y-gradient of the far-field kernel (far field of the double layer)."""
    xhat = np.asarray(xhat, dtype=float)
    y = np.asarray(y, dtype=float)
    s = kern.bc.image_sign
    k = kern.k
    ph = np.exp(-1j * k * np.sum(xhat * y, axis=-1))
    ph_img = np.exp(-1j * k * np.sum(xhat * (y * _MIRROR), axis=-1))
    coef = -1j * k / (4.0 * np.pi)
    return coef * (ph[..., None] * xhat + s * ph_img[..., None] * (xhat * _MIRROR))


def farfield_matrix(
    kern: GreenKernel,
    xhat: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    normals: np.ndarray | None = None,
    eta: float = 0.0,
) -> np.ndarray:
    """Far-field operator from source points y (n, 3) to directions xhat (N, 3),
    with the quadrature weights (n,) folded into the columns.

    Without normals the entries are farfield_kernel(xhat_i, y_j) * w_j (single
    layer); with normals they are the combined layer
    (nu_j . farfield_kernel_grad_y - i eta farfield_kernel)(xhat_i, y_j) * w_j.
    Since xhat.y' = (M xhat).y, the phases and the normal contractions are
    GEMMs, and each entry costs two complex exponentials."""
    xhat = np.asarray(xhat, dtype=float)
    y = np.asarray(y, dtype=float)
    s = kern.bc.image_sign
    k = kern.k
    xhat_img = xhat * _MIRROR
    ph = np.exp(-1j * k * (xhat @ y.T))
    ph_img = np.exp(-1j * k * (xhat_img @ y.T))
    if normals is not None:
        nu_t = np.asarray(normals, dtype=float).T
        ph *= -1j * (k * (xhat @ nu_t) + eta)
        ph_img *= -1j * (k * (xhat_img @ nu_t) + eta)
    ph_img *= s
    ph += ph_img
    ph *= np.asarray(weights, dtype=float) / (4.0 * np.pi)
    return ph
