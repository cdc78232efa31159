"""Gaussian-smoothed gradients and the regularised diffusion coefficient.

The nonlinearity is a(g) = (epsilon + g^2)^((p-2)/2) evaluated on the
magnitude of the Gaussian-smoothed image gradient.  The coefficient is
sampled at the midpoint of every edge between two adjacent pixels, which is
what the conservative five-point stencil needs.  For p in [1, 2] the
exponent is non-positive, so every coefficient lies in (0, epsilon^((p-2)/2)].
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .grid import ImageGrid


@dataclass(frozen=True)
class GaussianKernel:
    """Sampled Gaussian and derivative-of-Gaussian tap vectors.

    ``sigma`` is the variance of the kernel exp(-x^2 / (2*sigma)); taps are
    sampled at integer offsets in [-radius, radius].  The base kernel is
    renormalised to unit sum after truncation, the derivative taps are
    t/sigma times the base taps.  The 2-D kernels outer(dg, g), outer(g, dg) are never formed.
    """

    sigma: float
    radius: int
    g: np.ndarray
    dg: np.ndarray

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if self.radius < math.ceil(3.0 * math.sqrt(self.sigma)):
            raise ParameterError(
                f"radius {self.radius} below 3*sqrt(sigma) = {3.0 * math.sqrt(self.sigma):.3f}"
            )
        # _paired_pass shares one multiply between offsets t and -t
        if not np.array_equal(self.g, self.g[::-1]):
            raise ParameterError("g must be mirror-even")
        if not np.array_equal(self.dg, -self.dg[::-1]):
            raise ParameterError("dg must be mirror-odd")


def make_kernel(sigma: float = 1.0, radius: int | None = None) -> GaussianKernel:
    if not (sigma > 0):
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = math.ceil(3.0 * math.sqrt(sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(t**2) / (2.0 * sigma))
    g /= g.sum()
    # correlation taps: response to a unit ramp is sum(t * dg) ~ 1
    dg = t / sigma * g
    return GaussianKernel(sigma=float(sigma), radius=int(radius), g=g, dg=dg)


@lru_cache(maxsize=32)
def _cached_kernel(sigma: float) -> GaussianKernel:
    return make_kernel(sigma)


@dataclass(frozen=True)
class DiffusivityField:
    """Diffusion coefficients at the edge midpoints between adjacent pixels.

    ``ai[i, j]`` sits at (i+1/2, j), between pixels (i, j) and (i+1, j), so
    it has shape (rows-1, cols); ``aj[i, j]`` sits at (i, j+1/2), between
    (i, j) and (i, j+1), shape (rows, cols-1).  This is the layout of
    ``SparseOperator.ci``/``cj``; there are no midpoints on the border.
    """

    ai: np.ndarray
    aj: np.ndarray
    epsilon: float
    exponent_p: float

    @property
    def rows(self) -> int:
        return self.aj.shape[0]

    @property
    def cols(self) -> int:
        return self.ai.shape[1]

    def coefficient_arrays(self):
        return (self.ai, self.aj)

    def upper_bound(self) -> float:
        """Largest value any coefficient can take: epsilon^((p-2)/2)."""
        return float(self.epsilon ** ((self.exponent_p - 2.0) / 2.0))


def _paired_pass(src, axis, size, taps, even, out, tmp):
    """``out`` = correlation of ``src`` with ``taps`` along ``axis``, ``size`` outputs.

    ``src`` extends ``(len(taps) - 1) // 2`` samples (padding or valid-mode margin) past each end.
    The taps are even (``taps[r+t] == taps[r-t]``) or odd (``taps[r+t] ==
    -taps[r-t]``, zero centre), so offsets t and -t share one multiply.
    """
    r = (taps.shape[0] - 1) // 2

    def window(t):
        return src[r + t : r + t + size] if axis == 0 else src[:, r + t : r + t + size]

    combine = np.add if even else np.subtract
    if even:
        np.multiply(window(0), taps[r], out=out)
    else:
        combine(window(1), window(-1), out=out)
        out *= taps[r + 1]
    for t in range(1 if even else 2, r + 1):
        combine(window(t), window(-t), out=tmp)
        tmp *= taps[r + t]
        out += tmp
    return out


def grad_gaussian(u: ImageGrid, kernel: GaussianKernel):
    """Smoothed gradient components (d/di, d/dj) under symmetric padding.

    Correlating with the derivative-of-Gaussian taps differentiates the
    Gaussian-smoothed image; symmetric (mirror) padding keeps the result
    consistent with the zero-flux boundary of the flow.  Output is divided
    by the grid spacing so a unit-slope ramp reports slope ~1.  One pass
    along the rows gives both the smoothed and the differentiated rows; a
    pass down the columns finishes each component.
    """
    r = kernel.radius
    m, n = u.shape
    pad = np.pad(u.pixels, r, mode="symmetric")
    # the row pass runs along the contiguous axis; the column pass then
    # shifts whole rows
    smooth_j, diff_j, tmp = (np.empty((m + 2 * r, n)) for _ in range(3))
    _paired_pass(pad, 1, n, kernel.g, True, smooth_j, tmp)
    _paired_pass(pad, 1, n, kernel.dg, False, diff_j, tmp)
    tmp = tmp[:m]
    gx = _paired_pass(smooth_j, 0, m, kernel.dg, False, np.empty((m, n)), tmp)
    gy = _paired_pass(diff_j, 0, m, kernel.g, True, np.empty((m, n)), tmp)
    gx /= u.spacing
    gy /= u.spacing
    return gx, gy


def _midpoint_coefficients(a0, a1, b0, b1, epsilon, expo):
    """(epsilon + |mean of the two gradient samples|^2)^expo, computed in place.

    0.25 * ((a0 + a1)^2 + (b0 + b1)^2) equals (0.5 * (a0 + a1))^2 +
    (0.5 * (b0 + b1))^2 exactly: scaling by a power of two does not round.
    """
    mag2 = np.add(a0, a1)
    np.square(mag2, out=mag2)
    sq = np.add(b0, b1)
    np.square(sq, out=sq)
    mag2 += sq
    mag2 *= 0.25
    mag2 += epsilon
    return np.power(mag2, expo, out=mag2)


def diffusivity_half(u: ImageGrid, epsilon: float, p: float, kernel: GaussianKernel) -> DiffusivityField:
    """Evaluate a = (epsilon + |smoothed gradient|^2)^((p-2)/2) at interior edge midpoints.

    Midpoint gradient components are the mean of the two adjacent node
    values, mirroring the midpoint averaging used for the image itself.
    p = 2 gives a = 1 exactly (x**0 == 1 for every x), without a gradient.
    """
    if not (epsilon > 0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p}")
    u.require_min_size(2)
    m, n = u.shape
    if p == 2.0:
        a_i, a_j = np.ones((m - 1, n)), np.ones((m, n - 1))
    else:
        # huge gradients overflow to inf and give the correct limit a -> 0
        # for p < 2; keep that path silent
        with np.errstate(over="ignore", invalid="ignore"):
            gx, gy = grad_gaussian(u, kernel)
            expo = (p - 2.0) / 2.0
            # midpoints between rows i and i+1: shape (M-1, N)
            a_i = _midpoint_coefficients(gx[:-1], gx[1:], gy[:-1], gy[1:], epsilon, expo)
            # midpoints between columns j and j+1: shape (M, N-1)
            a_j = _midpoint_coefficients(gx[:, :-1], gx[:, 1:], gy[:, :-1], gy[:, 1:], epsilon, expo)
    return DiffusivityField(ai=a_i, aj=a_j, epsilon=float(epsilon), exponent_p=float(p))


@dataclass(frozen=True)
class BoundsReport:
    min_coefficient: float
    max_coefficient: float
    lower_bound: float
    upper_bound: float
    passed: bool


def check_bounds(field: DiffusivityField, u0_h1_norm: float, c: float) -> BoundsReport:
    """Check epsilon^((p-2)/2) >= a >= (epsilon + (c*||u0||_H1)^2)^((p-2)/2) pointwise."""
    expo = (field.exponent_p - 2.0) / 2.0
    upper = field.epsilon**expo
    lower = (field.epsilon + (c * u0_h1_norm) ** 2) ** expo
    lo = min(float(a.min()) for a in field.coefficient_arrays())
    hi = max(float(a.max()) for a in field.coefficient_arrays())
    passed = (hi <= upper + 1e-14) and (lo >= lower - 1e-14)
    return BoundsReport(lo, hi, lower, upper, passed)


def h1_norm(u: ImageGrid) -> float:
    """Discrete H1 norm: sqrt(h^2 * (sum u^2 + sum |grad u|^2)) with central differences."""
    gx, gy = np.gradient(u.pixels, u.spacing)
    h2 = u.spacing**2
    return float(np.sqrt(h2 * (np.sum(u.pixels**2) + np.sum(gx**2) + np.sum(gy**2))))
