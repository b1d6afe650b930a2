"""Half-space Green's kernels by the method of images, with far-field limits.

The kernel is the point-source pair G(x,y) = Phi(x,y) -/+ Phi(x,y') with
y' the mirror of y in the ground plane, so it vanishes (sound-soft) or has
vanishing normal derivative (sound-hard) whenever either argument lies on
the plane.  It is defined for all x away from {y, y'}, including below the
plane, which is what lets the reflection-extension checks evaluate layer
potentials there directly.

This module is the one implementation of that kernel, and ``_half_angle``
forms every e^{i theta} in it.  The unguarded integrands that assembly and
the representation formula run take the real and imaginary parts of Phi and
Phi'/r from ``_radial``; ``free_space``, under the guarded pointwise
evaluators, and ``unit_phase`` are complex wrappers of the same arithmetic,
and the far-field operator forms its phases as real parts too.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .util import even_slices

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


def _half_angle(h):
    """cos theta and sin theta, unnormalised, from the half angles
    h = theta / 2 and t = tan(h): the numerators (1 - t)(1 + t) and 2t and
    their common denominator 1 + t^2, as contiguous float arrays.  h is a
    float array of at least one dimension that the caller owns: it is
    overwritten, and returned as the sine numerator.

    numpy runs float64 tan through a vectorised loop but complex exp through
    a scalar one, so every e^{i theta} of the package is formed here.  The
    last bits of np.tan follow numpy's SIMD dispatch, so they depend on the
    CPU."""
    t = np.tan(h, out=h)
    q = np.add(1.0, t)
    cos = np.subtract(1.0, t)
    cos *= q
    np.multiply(t, t, out=q)
    q += 1.0
    t *= 2.0
    return cos, t, q


def _complex(re, im, shape):
    """re + i im as one new complex array of the given shape, a complex
    scalar for shape ()."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out.reshape(shape)[()]


def unit_phase(theta):
    """e^{i theta} for real theta, (cos + i sin) / q from ``_half_angle``.

    It costs about a quarter of np.exp(1j * theta) and matches it within
    2**-51 in absolute value; theta is not written to."""
    theta = np.asarray(theta, dtype=float)
    cos, sin, q = _half_angle(np.multiply(np.atleast_1d(theta), 0.5))
    cos /= q
    sin /= q
    return _complex(cos, sin, theta.shape)


def _radial(r, k: float, need_phi: bool):
    """Re and Im of the outgoing free-space kernel Phi = e^{ikr} / (4 pi r)
    and of its radial factor c = Phi'(r) / r, so that grad_x Phi(x, y) =
    c (x - y), as new contiguous float arrays (pr, pi, cr, ci); pr and pi
    are None unless need_phi.  r, an array of at least one dimension, is not
    written.

    With e^{ikr} = (cos + i sin) / q from ``_half_angle``, Phi = (cos +
    i sin) / D with D = 4 pi r q, and c = (ik - 1/r) Phi / r =
    (-(cos + kr sin) + i (kr cos - sin)) / (D r^2): real arithmetic, in
    place, and c has the same bits whether or not Phi is formed."""
    cos, sin, den = _half_angle(np.multiply(r, 0.5 * k))
    den *= r
    den *= 4.0 * np.pi
    pr = pi = None
    if need_phi:
        pr = np.divide(cos, den)
        pi = np.divide(sin, den)
    den *= r
    den *= r
    kr = np.multiply(r, k)
    ci = np.multiply(kr, cos)
    ci -= sin
    ci /= den
    np.multiply(kr, sin, out=kr)
    kr += cos
    kr /= den
    return pr, pi, np.negative(kr, out=kr), ci


def free_space(r, k: float):
    """Outgoing free-space kernel Phi = e^{ikr} / (4 pi r) at distance r, and
    its radial factor c = Phi'(r) / r, so that grad_x Phi(x, y) = c (x - y):
    ``_radial`` as complex values."""
    r = np.asarray(r, dtype=float)
    pr, pi, cr, ci = _radial(np.atleast_1d(r), k, True)
    return _complex(pr, pi, r.shape), _complex(cr, ci, r.shape)


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
    """|x - y| and |x - y'| from the components of _displacements.  They are
    formed in place, since numpy elides no temporary of a tile-sized array,
    and are arrays, 0-d for single points."""
    d0, d1, d2, e2 = d
    planar, r, r_img = (np.empty(np.shape(d0)) for _ in range(3))
    np.multiply(d0, d0, out=planar)
    np.multiply(d1, d1, out=r_img)
    planar += r_img
    for z, length in ((d2, r), (e2, r_img)):
        np.multiply(z, z, out=length)
        length += planar
        np.sqrt(length, out=length)
    return r, r_img


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


def _radial_pair(d, k: float, need_phi: bool):
    """``_radial`` at |x - y| and then at |x - y'|, one flat tuple (pr, pi,
    cr, ci, pr', pi', cr', ci'), without the guard: coincident pairs yield
    finite garbage that the caller must overwrite."""
    r, r_img = _lengths(d)
    np.maximum(r, 1e-30, out=r)
    np.maximum(r_img, 1e-30, out=r_img)
    return (*_radial(r, k, need_phi), *_radial(r_img, k, need_phi))


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
# integrands contract the normals into the real and imaginary parts of the
# radial factors (``_radial_pair``), so neither a complex (..., 3) gradient
# nor a complex temporary is formed, and write each part of their complex
# result once.  The values are those of the complex x real products; an
# entry that is exactly zero may carry the other sign.  They never write to
# the radial factors, which a mirror tile of ``collocation_tiles`` shares.

def _combined_terms(radial, d, nu_x, nu_y, k):
    pr, pi, cr, ci, pr_img, pi_img, cr_img, ci_img = radial
    d0, d1, d2, e2 = d
    planar = d0 * nu_y[0]
    b = d1 * nu_y[1]
    planar += b
    u = d2 * nu_y[2]
    u += planar
    np.multiply(e2, nu_y[2], out=b)
    planar -= b
    # grad_y G = -grad_x Phi(x,y) + M grad_x Phi(x,y') for the odd kernel,
    # then minus i k (phi - phi_img)
    out = np.empty(u.shape, dtype=complex)
    a = cr_img * planar
    np.multiply(cr, u, out=b)
    a -= b
    np.subtract(pi, pi_img, out=b)
    b *= k
    np.add(a, b, out=out.real)
    np.multiply(ci_img, planar, out=a)
    np.multiply(ci, u, out=b)
    a -= b
    np.subtract(pr, pr_img, out=b)
    b *= k
    np.subtract(a, b, out=out.imag)
    return out


def _adjoint_terms(radial, d, nu_x, nu_y, k):
    _, _, cr, ci, _, _, cr_img, ci_img = radial
    d0, d1, d2, e2 = d
    planar = d0 * nu_x[0]
    b = d1 * nu_x[1]
    planar += b
    u = d2 * nu_x[2]
    u += planar
    np.multiply(e2, nu_x[2], out=b)
    planar += b
    out = np.empty(u.shape, dtype=complex)
    a = cr * u
    np.multiply(cr_img, planar, out=b)
    np.add(a, b, out=out.real)
    u *= ci
    planar *= ci_img
    np.add(u, planar, out=out.imag)
    return out


_COLLOCATION_TERMS = {
    BoundaryCondition.DIRICHLET: _combined_terms,
    BoundaryCondition.NEUMANN: _adjoint_terms,
}


def _needs_phi(bc: BoundaryCondition) -> bool:
    """The sound-soft integrand reads Phi; the sound-hard one only c."""
    return bc is BoundaryCondition.DIRICHLET


def collocation(bc: BoundaryCondition, x, nu_x, y, nu_y, k):
    """Collocation integrand: the combined kernel [nu_y . grad_y G - i k G]
    of the odd kernel (sound-soft, coupling eta = k), or the adjoint double
    layer nu_x . grad_x G of the even kernel (sound-hard).  Every argument is
    given by its three components; the sound-soft form does not read nu_x."""
    d = _displacements(x, y)
    return _COLLOCATION_TERMS[bc](_radial_pair(d, k, _needs_phi(bc)), d, nu_x, nu_y, k)


def collocation_tiles(bc: BoundaryCondition, points, normals, rows, cols, k, block: int):
    """Collocation integrands with x running over the panels ``rows`` and y
    over the panels ``cols``, given ``points`` and ``normals`` as (3, n)
    components, as (i, j, values) tiles that cover the len(rows) x len(cols)
    matrix once; i and j are slices of rows and cols, which are cut into the
    fewest equal pieces of at most ``block`` panels (``even_slices``).

    |x - y| and x3 + y3 are bitwise symmetric in (x, y), so when rows and
    cols are the same panels the radial factors of tile (J, I) are those of
    tile (I, J) transposed: they are computed on the tiles I <= J only, which
    halves the unit phases.  The mirror tile recomputes only its
    displacements and normal contractions, so every value equals
    ``collocation``'s bit for bit."""
    terms = _COLLOCATION_TERMS[bc]
    need_phi = _needs_phi(bc)
    shared = np.array_equal(rows, cols)
    x, nu_x = points[:, rows], normals[:, rows]
    y, nu_y = points[:, cols], normals[:, cols]
    row_pieces = even_slices(len(rows), block)
    col_pieces = row_pieces if shared else even_slices(len(cols), block)
    for a, i in enumerate(row_pieces):
        for b in range(a if shared else 0, len(col_pieces)):
            j = col_pieces[b]
            d = _displacements(x[:, i, None], y[:, None, j])
            radial = _radial_pair(d, k, need_phi)
            yield i, j, terms(radial, d, nu_x[:, i, None], nu_y[:, None, j], k)
            if shared and b > a:
                d = _displacements(x[:, j, None], y[:, None, i])
                radial = tuple(f if f is None else f.T for f in radial)
                yield j, i, terms(radial, d, nu_x[:, j, None], nu_y[:, None, i], k)


def representation(bc: BoundaryCondition, x, y, nu_y, k):
    """Potential integrand of the ansatz at off-surface points x, all
    arguments (..., 3) arrays: the combined kernel of the odd kernel
    (sound-soft), or the single layer, the even kernel G (sound-hard)."""
    d = _displacements(_components(x), _components(y))
    radial = _radial_pair(d, k, True)
    if bc is BoundaryCondition.NEUMANN:
        pr, pi, _, _, pr_img, pi_img, _, _ = radial
        return _complex(pr + pr_img, pi + pi_img, pr.shape)
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
    GEMMs; each entry costs two tangents (``_half_angle``), and its real and
    imaginary parts are formed as real arrays, with no complex temporary."""
    xhat, y = _finite(xhat, y)
    k = kern.k
    nu_t = None if normals is None else np.asarray(normals, dtype=float).T

    def phase(xh):
        """Re and Im of e^{-ik xh.y}, times -i (k xh.nu + k) with normals."""
        half = xh @ y.T
        half *= -0.5 * k
        cos, sin, q = _half_angle(half)
        cos /= q
        sin /= q
        if nu_t is None:
            return cos, sin
        del q
        a = xh @ nu_t
        a *= k
        a += k
        sin *= a
        cos *= a
        return sin, np.negative(cos, out=cos)

    # the direct term goes straight into the result, so that at most five
    # real (N, n) arrays are held at once
    out = np.empty((len(xhat), len(y)), dtype=complex)
    out.real, out.imag = phase(xhat)
    w = np.asarray(weights, dtype=float) / (4.0 * np.pi)
    for part, dest in zip(phase(xhat * MIRROR), (out.real, out.imag)):
        part *= kern.bc.image_sign
        np.add(dest, part, out=part)
        np.multiply(part, w, out=dest)
    return out
