"""Half-space Green's kernels by the method of images, with far-field limits.

The kernel is the point-source pair G(x,y) = Phi(x,y) -/+ Phi(x,y') with
y' the mirror of y in the ground plane, so it vanishes (sound-soft) or has
vanishing normal derivative (sound-hard) whenever either argument lies on
the plane.  It is defined for all x away from {y, y'}, including below the
plane, which is what lets the reflection-extension checks evaluate layer
potentials there directly.

This module is the one implementation of that kernel: the guarded pointwise
evaluators, the unguarded integrands that assembly and the representation
formula run, and the far-field limits all build on ``free_space``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError

MIRROR = np.array([1.0, 1.0, -1.0])  # y' = y * MIRROR, the mirror in x3 = 0
SINGULARITY_GUARD = 1e-12


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @property
    def image_sign(self) -> float:
        """Sign of the image/reflected term: -1 sound-soft, +1 sound-hard."""
        return -1.0 if self is BoundaryCondition.DIRICHLET else 1.0


@dataclass(frozen=True)
class GreenKernel:
    k: float
    bc: BoundaryCondition

    def __post_init__(self):
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError(f"wavenumber must be finite and > 0, got {self.k!r}")


def unit_phase(theta):
    """e^{i theta} for real theta, from t = tan(theta / 2):
    cos theta = (1 - t)(1 + t) / (1 + t^2) and sin theta = 2t / (1 + t^2).

    numpy runs float64 tan through a vectorised loop but complex exp through
    a scalar one, so this costs about a quarter of np.exp(1j * theta).  It
    matches that within 2**-51 in absolute value; its last bits follow
    numpy's SIMD dispatch of tan, so they depend on the CPU.  theta is not
    written to; the one temporary is t, and the rest is formed in place in
    the real and imaginary parts of the result."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    t = np.multiply(theta, 0.5, out=np.empty(theta.shape))
    np.tan(t, out=t)
    re, im = out.real, out.imag
    np.subtract(1.0, t, out=re)
    np.add(1.0, t, out=im)
    re *= im
    np.multiply(t, t, out=im)
    im += 1.0
    re /= im
    np.divide(t, im, out=im)
    im *= 2.0
    return out if out.ndim else out[()]


def free_space(r, k: float):
    """Outgoing free-space kernel Phi = e^{ikr} / (4 pi r) at distance r, and
    its radial factor c = Phi'(r) / r, so that grad_x Phi(x, y) = c (x - y)."""
    # a complex divided by a real equals it times the real's reciprocal, bit
    # for bit, so the divisions become in-place products
    inv_r = 1.0 / r
    phi = unit_phase(k * r)
    phi *= 1.0 / (4.0 * np.pi * r)
    c = (1j * k - inv_r) * phi
    c *= inv_r
    return phi, c


def _components(a):
    """The three components of a (..., 3) array, as views."""
    a = np.asarray(a, dtype=float)
    return a[..., 0], a[..., 1], a[..., 2]


def _displacements(x, y):
    """x - y as three real arrays d0, d1, d2, and e2 = x3 + y3, the third
    component of x - y' (its first two are d0, d1); x and y are given as
    their three components (``_components``, or the rows of a (3, ...) array).

    Each length-3 sum over these components is written out in index order,
    which is the order np.sum takes over a last axis of length 3, so the
    bits match the (..., 3) form without building its temporaries."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return x0 - y0, x1 - y1, x2 - y2, x2 + y2


def _lengths(d):
    """|x - y| and |x - y'| from the components of _displacements."""
    d0, d1, d2, e2 = d
    planar = d0 * d0 + d1 * d1
    return np.sqrt(planar + d2 * d2), np.sqrt(planar + e2 * e2)


def _finite(x, y):
    """x and y as float arrays; raises unless every coordinate of both is
    finite.  x is an evaluation point or a far-field direction, y a source."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("evaluation points, directions and source points must be finite")
    return x, y


def _checked_pair(x, y, k: float):
    """Displacement components with (Phi, c) at y and at y'; raises when x or
    y is not finite or x meets either point."""
    x, y = _finite(x, y)
    d = _displacements(_components(x), _components(y))
    r, r_img = _lengths(d)
    if np.min(r) < SINGULARITY_GUARD:
        raise SingularityError("evaluation point coincides with the source point y")
    if np.min(r_img) < SINGULARITY_GUARD:
        raise SingularityError("evaluation point coincides with the image source y'")
    return d, free_space(r, k), free_space(r_img, k)


def _radial_pair(d, k: float):
    """(Phi, c, Phi', c') at |x - y| and |x - y'| without the guard:
    coincident pairs yield finite garbage that the caller must overwrite."""
    r, r_img = _lengths(d)
    np.maximum(r, 1e-30, out=r)
    np.maximum(r_img, 1e-30, out=r_img)
    return (*free_space(r, k), *free_space(r_img, k))


def eval_G(kern: GreenKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(x, y) = Phi(x,y) -/+ Phi(x,y'); broadcasts over (..., 3) inputs."""
    _, (phi, _), (phi_img, _) = _checked_pair(x, y, kern.k)
    return phi + kern.bc.image_sign * phi_img


def _vectors(d):
    """x - y and x - y' as (..., 3) arrays, for the gradients."""
    d0, d1, d2, e2 = d
    return np.stack([d0, d1, d2], axis=-1), np.stack([d0, d1, e2], axis=-1)


def grad_G_y(kern: GreenKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of G in the source argument (double-layer kernel before the
    normal contraction)."""
    d, (_, c), (_, c_img) = _checked_pair(x, y, kern.k)
    dx, dxi = _vectors(d)
    return -(c[..., None] * dx) - kern.bc.image_sign * (c_img[..., None] * dxi) * MIRROR


def grad_G_x(kern: GreenKernel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of G in the evaluation argument (adjoint double-layer kernel)."""
    d, (_, c), (_, c_img) = _checked_pair(x, y, kern.k)
    dx, dxi = _vectors(d)
    return c[..., None] * dx + kern.bc.image_sign * (c_img[..., None] * dxi)


# Unguarded integrands for collocation points x and source points y.  Points
# and normals come as their three components, each a broadcasting array: the
# rows of a (3, ...) array, or ``_components`` of a (..., 3) one.  The
# integrands contract the normals into the radial factors, so no complex
# (..., 3) gradient is formed.  The *_terms forms take the radial factors and
# displacement components already computed.

def _combine(op, c, u, c_img, v):
    """op(c u, c_img v) for complex c, c_img and real u, v (op np.add or
    np.subtract), formed part by part with real products instead of casting
    u and v to complex.  The values are those of the cast form; an entry that
    is exactly zero may carry the other sign."""
    out = np.empty(np.broadcast_shapes(c.shape, u.shape), dtype=complex)
    op(c.real * u, c_img.real * v, out=out.real)
    op(c.imag * u, c_img.imag * v, out=out.imag)
    return out


def _combined_terms(radial, d, nu_x, nu_y, k):
    phi, c, phi_img, c_img = radial
    d0, d1, d2, e2 = d
    planar = d0 * nu_y[0] + d1 * nu_y[1]
    # grad_y G = -grad_x Phi(x,y) + M grad_x Phi(x,y') for the odd kernel
    out = _combine(np.subtract, c_img, planar - e2 * nu_y[2], c, planar + d2 * nu_y[2])
    # minus i k (phi - phi_img), part by part
    q = phi - phi_img
    out.real += k * q.imag
    out.imag -= k * q.real
    return out


def _adjoint_terms(radial, d, nu_x, nu_y, k):
    _, c, _, c_img = radial
    d0, d1, d2, e2 = d
    planar = d0 * nu_x[0] + d1 * nu_x[1]
    return _combine(np.add, c, planar + d2 * nu_x[2], c_img, planar + e2 * nu_x[2])


_COLLOCATION_TERMS = {
    BoundaryCondition.DIRICHLET: _combined_terms,
    BoundaryCondition.NEUMANN: _adjoint_terms,
}


def collocation(bc: BoundaryCondition, x, nu_x, y, nu_y, k):
    """Collocation integrand: the combined kernel [nu_y . grad_y G - i k G]
    of the odd kernel (sound-soft, coupling eta = k), or the adjoint double
    layer nu_x . grad_x G of the even kernel (sound-hard).  Every argument is
    given by its three components; the sound-soft form does not read nu_x."""
    d = _displacements(x, y)
    return _COLLOCATION_TERMS[bc](_radial_pair(d, k), d, nu_x, nu_y, k)


def collocation_tiles(bc: BoundaryCondition, points, normals, rows, cols, k, block: int):
    """Collocation integrands with x running over the panels ``rows`` and y
    over the panels ``cols``, given ``points`` and ``normals`` as (3, n)
    components, as (i, j, values) tiles of edge ``block`` that cover the
    len(rows) x len(cols) matrix once; i and j are slices of rows and cols.

    |x - y| and x3 + y3 are bitwise symmetric in (x, y), so when rows and
    cols are the same panels the radial factors of tile (J, I) are those of
    tile (I, J) transposed: they are computed on the tiles I <= J only, which
    halves the unit phases.  The mirror tile recomputes only its
    displacements and normal contractions, so every value equals
    ``collocation``'s bit for bit."""
    terms = _COLLOCATION_TERMS[bc]
    shared = np.array_equal(rows, cols)
    x, nu_x = points[:, rows], normals[:, rows]
    y, nu_y = points[:, cols], normals[:, cols]
    for lo in range(0, len(rows), block):
        i = slice(lo, lo + block)
        for lo_j in range(lo if shared else 0, len(cols), block):
            j = slice(lo_j, lo_j + block)
            d = _displacements(x[:, i, None], y[:, None, j])
            radial = _radial_pair(d, k)
            yield i, j, terms(radial, d, nu_x[:, i, None], nu_y[:, None, j], k)
            if shared and lo_j > lo:
                d = _displacements(x[:, j, None], y[:, None, i])
                radial = tuple(f.T for f in radial)
                yield j, i, terms(radial, d, nu_x[:, j, None], nu_y[:, None, i], k)


def representation(bc: BoundaryCondition, x, y, nu_y, k):
    """Potential integrand of the ansatz at off-surface points x, all
    arguments (..., 3) arrays: the combined kernel of the odd kernel
    (sound-soft), or the single layer, the even kernel G (sound-hard)."""
    d = _displacements(_components(x), _components(y))
    radial = _radial_pair(d, k)
    if bc is BoundaryCondition.NEUMANN:
        phi, _, phi_img, _ = radial
        return phi + phi_img
    return _combined_terms(radial, d, None, _components(nu_y), k)


def _farfield_phases(kern: GreenKernel, xhat, y):
    """xhat with the phases e^{-ik xhat.y} and e^{-ik xhat.y'}."""
    xhat, y = _finite(xhat, y)
    ph = unit_phase(-kern.k * np.sum(xhat * y, axis=-1))
    ph_img = unit_phase(-kern.k * np.sum(xhat * (y * MIRROR), axis=-1))
    return xhat, ph, ph_img


def farfield_kernel(kern: GreenKernel, xhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficient of e^{ik|x|}/|x| in G(x, y) as |x| -> infinity along the
    upper-hemisphere direction xhat:  (e^{-ik xhat.y} -/+ e^{-ik xhat.y'}) / 4pi."""
    _, ph, ph_img = _farfield_phases(kern, xhat, y)
    return (ph + kern.bc.image_sign * ph_img) / (4.0 * np.pi)


def farfield_kernel_grad_y(kern: GreenKernel, xhat: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y-gradient of the far-field kernel (far field of the double layer)."""
    xhat, ph, ph_img = _farfield_phases(kern, xhat, y)
    s = kern.bc.image_sign
    coef = -1j * kern.k / (4.0 * np.pi)
    return coef * (ph[..., None] * xhat + s * ph_img[..., None] * (xhat * MIRROR))


def farfield_matrix(
    kern: GreenKernel,
    xhat: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """Far-field operator from source points y (n, 3) to directions xhat (N, 3),
    with the quadrature weights (n,) folded into the columns.

    Without normals the entries are farfield_kernel(xhat_i, y_j) * w_j (single
    layer); with normals they are the combined layer
    (nu_j . farfield_kernel_grad_y - i k farfield_kernel)(xhat_i, y_j) * w_j.
    Since xhat.y' = (M xhat).y, the phases and the normal contractions are
    GEMMs, and each entry costs two unit phases."""
    xhat, y = _finite(xhat, y)
    s = kern.bc.image_sign
    k = kern.k
    xhat_img = xhat * MIRROR
    ph = unit_phase(-k * (xhat @ y.T))
    ph_img = unit_phase(-k * (xhat_img @ y.T))
    if normals is not None:
        # times -i (k xhat.nu + k), through a real temporary
        nu_t = np.asarray(normals, dtype=float).T
        for p, xh in ((ph, xhat), (ph_img, xhat_img)):
            w = xh @ nu_t
            w *= k
            w += k
            p *= w
            p *= -1j
    ph_img *= s
    ph += ph_img
    ph *= np.asarray(weights, dtype=float) / (4.0 * np.pi)
    return ph
