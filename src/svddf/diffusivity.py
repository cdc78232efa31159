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
    t/sigma times the base taps (odd, zero-sum by construction).
    """

    sigma: float
    radius: int
    g: np.ndarray
    dg: np.ndarray
    dkx: np.ndarray
    dky: np.ndarray

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if self.radius < math.ceil(3.0 * math.sqrt(self.sigma)):
            raise ParameterError(
                f"radius {self.radius} below 3*sqrt(sigma) = {3.0 * math.sqrt(self.sigma):.3f}"
            )
        for name in ("dkx", "dky"):
            total = abs(float(getattr(self, name).sum()))
            if total > 1e-12:
                raise ParameterError(f"{name} must sum to zero, got {total:.3e}")


def make_kernel(sigma: float = 1.0, radius: int | None = None) -> GaussianKernel:
    if not (sigma > 0):
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = math.ceil(3.0 * math.sqrt(sigma))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-(t**2) / (2.0 * sigma))
    g /= g.sum()
    dg = t / sigma * g
    # correlation taps: response to a unit ramp is sum(t * dg) ~ 1
    dkx = np.outer(dg, g)
    dky = np.outer(g, dg)
    return GaussianKernel(sigma=float(sigma), radius=int(radius), g=g, dg=dg, dkx=dkx, dky=dky)


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

    rows: int
    cols: int
    ai: np.ndarray
    aj: np.ndarray
    epsilon: float
    exponent_p: float

    def coefficient_arrays(self):
        return (self.ai, self.aj)

    def upper_bound(self) -> float:
        """Largest value any coefficient can take: epsilon^((p-2)/2)."""
        return float(self.epsilon ** ((self.exponent_p - 2.0) / 2.0))


def _sep_correlate_same(img, k0, k1):
    """Correlate with taps k0 along rows and k1 along columns, mirror-padded."""
    r0 = (k0.shape[0] - 1) // 2
    r1 = (k1.shape[0] - 1) // 2
    m, n = img.shape
    pad = np.pad(img, ((r0, r0), (r1, r1)), mode="symmetric")
    tmp = np.zeros((m, n + 2 * r1))
    for t in range(k0.shape[0]):
        tmp += k0[t] * pad[t : t + m, :]
    out = np.zeros((m, n))
    for t in range(k1.shape[0]):
        out += k1[t] * tmp[:, t : t + n]
    return out


def grad_gaussian(u: ImageGrid, kernel: GaussianKernel):
    """Smoothed gradient components (d/di, d/dj) under symmetric padding.

    Correlating with the derivative-of-Gaussian taps differentiates the
    Gaussian-smoothed image; symmetric (mirror) padding keeps the result
    consistent with the zero-flux boundary of the flow.  Output is divided
    by the grid spacing so a unit-slope ramp reports slope ~1.
    """
    px = u.pixels
    gx = _sep_correlate_same(px, kernel.dg, kernel.g) / u.spacing
    gy = _sep_correlate_same(px, kernel.g, kernel.dg) / u.spacing
    return gx, gy


def diffusivity_half(u: ImageGrid, epsilon: float, p: float, kernel: GaussianKernel) -> DiffusivityField:
    """Evaluate a = (epsilon + |smoothed gradient|^2)^((p-2)/2) at interior edge midpoints.

    Midpoint gradient components are the mean of the two adjacent node
    values, mirroring the midpoint averaging used for the image itself.
    """
    if not (epsilon > 0):
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not (1.0 <= p <= 2.0):
        raise ParameterError(f"p must lie in [1, 2], got {p}")
    u.require_min_size(2)
    # huge gradients overflow to inf and give the correct limit a -> 0 for
    # p < 2; keep that path silent
    with np.errstate(over="ignore", invalid="ignore"):
        gx, gy = grad_gaussian(u, kernel)
        expo = (p - 2.0) / 2.0
        # midpoints between rows i and i+1: shape (M-1, N)
        mag2_i = (0.5 * (gx[:-1] + gx[1:])) ** 2 + (0.5 * (gy[:-1] + gy[1:])) ** 2
        a_i = (epsilon + mag2_i) ** expo
        # midpoints between columns j and j+1: shape (M, N-1)
        mag2_j = (0.5 * (gx[:, :-1] + gx[:, 1:])) ** 2 + (0.5 * (gy[:, :-1] + gy[:, 1:])) ** 2
        a_j = (epsilon + mag2_j) ** expo

    m, n = u.shape
    return DiffusivityField(rows=m, cols=n, ai=a_i, aj=a_j, epsilon=float(epsilon), exponent_p=float(p))


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
