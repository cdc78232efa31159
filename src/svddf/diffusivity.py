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

from .errors import ParameterError
from .grid import ImageGrid


@dataclass(frozen=True)
class GaussianKernel:
    """Sampled Gaussian and derivative-of-Gaussian taps, formed from the variance ``sigma`` alone.

    The taps of exp(-x^2 / (2*sigma)) are sampled at integer offsets in
    [-radius, radius], radius = ceil(3*sqrt(sigma)), three standard
    deviations.  ``g`` is renormalised to unit sum after truncation, ``dg`` is
    t/sigma times ``g``, so ``g`` is mirror-even and ``dg`` mirror-odd to the
    bit; both are read-only, since every run under a config reads its one
    kernel.  The 2-D kernels outer(dg, g), outer(g, dg) are never formed.

    A sigma that is not positive and finite, whose taps numpy cannot index or
    allocate, or whose derivative taps t/sigma overflow, raises ParameterError.
    """

    sigma: float
    g: np.ndarray = field(init=False, repr=False, compare=False)
    dg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = self.sigma
        if not (sigma > 0):
            raise ParameterError(f"sigma must be positive, got {sigma}")
        if sigma == math.inf:
            raise ParameterError(f"sigma must be finite, got {sigma}")
        radius = math.ceil(3.0 * math.sqrt(sigma))
        if radius / float(sigma) == math.inf:  # the largest |t| / sigma
            raise ParameterError(f"sigma = {sigma} is too small: the derivative taps t/sigma overflow")
        try:
            t = np.arange(-radius, radius + 1, dtype=np.float64)
        except (ValueError, MemoryError):  # more taps than numpy can index or allocate
            raise ParameterError(f"sigma = {sigma:g} is too large: radius {radius:g} needs {2 * radius + 1:g} "
                                 "taps, more than numpy can allocate") from None
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


def make_kernel(sigma: float) -> GaussianKernel:
    """``GaussianKernel(sigma)``: the taps of G_sigma and its derivative."""
    return GaussianKernel(sigma)


@dataclass(frozen=True)
class DiffusivityField:
    """Diffusion coefficients at the edge midpoints between adjacent pixels.

    ``ai[i, j]`` sits at (i+1/2, j), between pixels (i, j) and (i+1, j);
    ``aj[i, j]`` sits at (i, j+1/2), between (i, j) and (i, j+1).  Both are
    rows x cols and column-major, the layout of ``SparseOperator.ci``/``cj``:
    with no midpoints across the border, the last row of ``ai`` and the last
    column of ``aj`` are 0.0.
    """

    ai: np.ndarray
    aj: np.ndarray

    @property
    def rows(self) -> int:
        return self.ai.shape[0]

    @property
    def cols(self) -> int:
        return self.ai.shape[1]

    def coefficient_arrays(self):
        """The interior midpoints: views without the zero border row and column."""
        return (self.ai[:-1], self.aj[:, :-1])


def _paired_pass(src, axis, size, taps, even, out, tmp):
    """``out`` = correlation of ``src`` with ``taps`` along ``axis``, ``size`` outputs.

    ``src`` extends ``(len(taps) - 1) // 2`` samples (padding or valid-mode margin) past each end.
    The taps are even (``taps[r+t] == taps[r-t]``) or odd (``taps[r+t] ==
    -taps[r-t]``, zero centre), so offsets t and -t share one multiply.
    """
    r = (taps.shape[0] - 1) // 2
    # along axis 1, work on the transposes: the same elements, windows taken along axis 0
    s, o, w = (src, out, tmp) if axis == 0 else (src.T, out.T, tmp.T)
    if even:
        np.multiply(s[r : r + size], taps[r], out=o)
        combine, first = np.add, 1
    else:
        np.subtract(s[r + 1 : r + 1 + size], s[r - 1 : r - 1 + size], out=o)
        o *= taps[r + 1]
        combine, first = np.subtract, 2
    for t in range(first, r + 1):
        combine(s[r + t : r + t + size], s[r - t : r - t + size], out=w)
        w *= taps[r + t]
        o += w
    return out


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
    a pass down the flat buffer of each finishes its component.
    """
    r = kernel.radius
    m, n = u.shape
    pad = _pad_symmetric(u.pixels, r)
    smooth_j, diff_j, tmp, col = (np.empty((m + 2 * r, n), order="F") for _ in range(4))
    _paired_pass(pad, 1, n, kernel.g, True, smooth_j, tmp)
    _paired_pass(pad, 1, n, kernel.dg, False, diff_j, tmp)
    size = smooth_j.size - 2 * r
    grads = []
    for src, taps, even in ((smooth_j, kernel.dg, False), (diff_j, kernel.g, True)):
        # down the flat column-stacked buffer: entry q is centred on entry q + r;
        # the last 2r rows of each column mix two columns and are dropped
        out, work = (a.ravel(order="F")[:size] for a in (col, tmp))
        _paired_pass(src.ravel(order="F"), 0, size, taps, even, out, work)
        grads.append(col[:m].copy(order="F"))
    return tuple(grads)


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


def diffusivity_half(u: ImageGrid, epsilon: float, p: float, kernel: GaussianKernel) -> DiffusivityField:
    """Evaluate a = (epsilon + |smoothed gradient|^2)^((p-2)/2) at interior edge midpoints.

    Midpoint gradient components are the mean of the two adjacent node
    values, mirroring the midpoint averaging used for the image itself.
    The coefficients come in the stencil's layout (see DiffusivityField).
    """
    if not (epsilon > 0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p}")
    u.require_min_size()
    m = u.shape[0]
    # huge gradients overflow to inf and give the correct limit a -> 0
    # for p < 2, and a = 1 for p = 2 (x**0 is 1 for inf and nan); keep that path silent
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = grad_gaussian(u, kernel)
        expo = (p - 2.0) / 2.0
        # shifts of 1 pair row neighbours, shifts of m column neighbours
        a_i, a_j = (_midpoint_coefficients(gx, gy, s, epsilon, expo) for s in (1, m))
    # the flat pairs across the border: last row and next column's first row, last column and none
    a_i[-1] = 0.0
    a_j[:, -1] = 0.0
    return DiffusivityField(a_i, a_j)

