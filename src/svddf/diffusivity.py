"""Gaussian-smoothed gradients and the regularised diffusion coefficient.

The nonlinearity is a(g) = (epsilon + g^2)^((p-2)/2) evaluated on the
magnitude of the Gaussian-smoothed image gradient.  The coefficient is
sampled at the midpoint of every edge between two adjacent pixels, which is
what the conservative five-point stencil needs.  For p in [1, 2] the
exponent is non-positive, so every coefficient lies in (0, epsilon^((p-2)/2)].
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .grid import MIN_SIZE, ImageGrid, _as_float

# the widest kernel: grad_gaussian pads the image by the radius on every side and each entry of
# its passes is a dot product over every tap, whatever the image size, so memory and time grow with it
MAX_RADIUS = 256


@dataclass(frozen=True)
class GaussianKernel:
    """Sampled Gaussian and derivative-of-Gaussian taps, formed from the variance ``sigma`` alone.

    The taps of exp(-x^2 / (2*sigma)) are sampled at integer offsets in
    [-radius, radius], radius = ceil(3*sqrt(sigma)), three standard
    deviations.  ``g`` is renormalised to unit sum after truncation, ``dg`` is
    t/sigma times ``g``.  Each tap is formed from t^2 and t alone, so ``g`` is
    mirror-even and ``dg`` mirror-odd to the bit: correlating with them is
    convolving with ``g`` and ``-dg``, and no direction of the lattice is
    preferred.  Both are read-only, since every run under a config reads its
    one kernel.  The 2-D kernels outer(dg, g), outer(g, dg) are never formed.

    A sigma that is not positive and finite, whose radius exceeds MAX_RADIUS
    (sigma above about 7282), or whose derivative taps t/sigma overflow,
    raises ParameterError.
    """

    sigma: float
    g: np.ndarray = field(init=False, repr=False, compare=False)
    dg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = _as_float(self.sigma)  # an int or Fraction past the float range is inf, refused below
        if not (sigma > 0):
            raise ParameterError(f"sigma must be positive, got {sigma}")
        if sigma == math.inf:
            raise ParameterError(f"sigma must be finite, got {sigma}")
        radius = math.ceil(3.0 * math.sqrt(sigma))
        if radius / float(sigma) == math.inf:  # the largest |t| / sigma
            raise ParameterError(f"sigma = {sigma} is too small: the derivative taps t/sigma overflow")
        if radius > MAX_RADIUS:
            raise ParameterError(f"sigma = {sigma:g} is too large: radius {radius:g} needs {2 * radius + 1:g} "
                                 f"taps, more than the {2 * MAX_RADIUS + 1} of radius {MAX_RADIUS}")
        t = np.arange(-radius, radius + 1, dtype=np.float64)
        g = np.exp(-(t**2) / (2.0 * sigma))
        g /= g.sum()
        # correlation taps: response to a unit ramp is sum(t * dg) ~ 1
        dg = t / sigma * g
        for name, taps in (("g", g), ("dg", dg)):
            taps.flags.writeable = False
            object.__setattr__(self, name, taps)
        object.__setattr__(self, "sigma", float(sigma))

    @property
    def radius(self) -> int:
        return (len(self.g) - 1) // 2


def _correlate_columns(a, taps):
    """Valid-mode correlation of each column of ``a`` with ``taps``: ``len(taps) - 1`` fewer rows.

    One ``np.correlate`` runs down the flat column-stacked buffer, so entry q
    is the sum of ``taps[t] * flat[q + t]`` over t.  Full mode puts entry q at
    ``k + q`` (``k = len(taps) - 1``): past the first ``k`` there is one entry
    per element of ``a``, so the result takes ``a``'s shape without a copy,
    and the last ``k`` rows, which mix two columns, are dropped.
    """
    k = len(taps) - 1
    flat = np.correlate(a.ravel(order="F"), taps, "full")[k:]
    return flat.reshape(a.shape, order="F")[: a.shape[0] - k]


def _pad_symmetric(px: np.ndarray, r: int) -> np.ndarray:
    """``np.pad(px, r, mode="symmetric")``, column-major, by slice copies.

    Each border is filled outward one block of up to an image width at a
    time, each block the mirror image of the one inside it, so a border wider
    than the image is mirrored repeatedly, as ``np.pad`` does.
    """
    m, n = px.shape
    pad = np.empty((m + 2 * r, n + 2 * r), order="F")
    pad[r : m + r, r : n + r] = px
    # the rows of the interior columns, then whole columns: the rows of the transpose
    for a, size in ((pad[:, r : n + r], m), (pad.T, n)):
        for b in range(r, 0, -size):
            w = min(size, b)
            a[b - w : b] = a[b : b + w][::-1]
        for b in range(r + size, a.shape[0], size):
            w = min(size, a.shape[0] - b)
            a[b : b + w] = a[b - w : b][::-1]
    return pad


def grad_gaussian(u: ImageGrid, kernel: GaussianKernel):
    """Smoothed gradient components (d/di, d/dj) under symmetric padding, column-major.

    Correlating with the derivative-of-Gaussian taps differentiates the
    Gaussian-smoothed image on the unit lattice, so a unit-slope ramp reports
    slope ~1; mirror padding matches the flow's zero-flux boundary.
    One pass along the rows gives the smoothed and the differentiated rows;
    a pass down the columns of each finishes its component.
    """
    # the rows of the padded image are the columns of the transposed pad
    pad = _pad_symmetric(u.pixels.T, kernel.radius)
    smooth_j, diff_j = (_correlate_columns(pad, taps).T for taps in (kernel.g, kernel.dg))
    gx = _correlate_columns(smooth_j, kernel.dg)
    gy = _correlate_columns(diff_j, kernel.g)
    return np.asfortranarray(gx), np.asfortranarray(gy)


def _midpoint_coefficients(gx, gy, shift, epsilon, expo):
    """(epsilon + |mean of the gradient at flat q, q + shift|^2)^expo; last ``shift`` entries unset.

    0.25 * ((a0 + a1)^2 + (b0 + b1)^2) equals (0.5 * (a0 + a1))^2 +
    (0.5 * (b0 + b1))^2 exactly: scaling by a power of two does not round.
    """
    coeff = np.empty(gx.shape, order="F")
    mag2 = coeff.ravel(order="F")[:-shift]
    gx, gy = gx.ravel(order="F"), gy.ravel(order="F")
    np.add(gx[:-shift], gx[shift:], out=mag2)
    np.square(mag2, out=mag2)
    sq = np.add(gy[:-shift], gy[shift:])
    np.square(sq, out=sq)
    mag2 += sq
    mag2 *= 0.25
    mag2 += epsilon
    np.power(mag2, expo, out=mag2)
    return coeff


def constant_diffusivity(p: float) -> bool:
    """True when the coefficient is 1 for every image: (p-2)/2 = 0 and x**0 == 1 for every x."""
    return p == 2.0


def diffusivity_half(u: ImageGrid, epsilon: float, p: float, kernel: GaussianKernel):
    """The pair (ai, aj) of a = (epsilon + |smoothed gradient|^2)^((p-2)/2) at the edge midpoints.

    ``ai[i, j]`` sits at (i+1/2, j), between pixels (i, j) and (i+1, j);
    ``aj[i, j]`` sits at (i, j+1/2), between (i, j) and (i, j+1).  Midpoint
    gradient components are the mean of the two adjacent node values,
    mirroring the midpoint averaging used for the image itself.  Both arrays
    come read-only, in the layout of ``SparseOperator.ci``/``cj``.
    """
    if not (epsilon > 0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p}")
    if min(u.shape) < MIN_SIZE:  # a pixel needs a neighbour along each axis
        raise DimensionError(f"operation needs a grid of at least {MIN_SIZE}x{MIN_SIZE}, got {u.shape}")
    m = u.shape[0]
    # the gradients of a huge image stay finite (the taps' absolute sums are at most about 1), but
    # its squared midpoint sums overflow to inf and give the correct limit a -> 0 for p < 2,
    # and a = 1 for p = 2 (x**0 is 1 for inf and nan); keep that path silent
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = grad_gaussian(u, kernel)
        expo = (p - 2.0) / 2.0
        # shifts of 1 pair row neighbours, shifts of m column neighbours
        a_i, a_j = (_midpoint_coefficients(gx, gy, s, epsilon, expo) for s in (1, m))
    # the flat pairs across the border: last row and next column's first row, last column and none
    a_i[-1] = 0.0
    a_j[:, -1] = 0.0
    a_i.flags.writeable = a_j.flags.writeable = False
    return a_i, a_j

