"""Terminating-time rules for the denoising iteration.

Three rules are provided: a frequency-domain threshold on the relative
change of high-frequency energy per step, a Morozov-style discrepancy
principle against the noisy data, and an a-priori time horizon T(delta).
A fourth pseudo-rule runs until the step budget is exhausted.
"""

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .grid import ImageGrid, _relative_distance


def default_band_threshold(rows: int, cols: int) -> int:
    """Band threshold floor(0.6 * (M + N - 1)): 60% of the anti-diagonal index range."""
    return int(math.floor(0.6 * (rows + cols - 1)))


@dataclass(frozen=True)
class RdeStop:
    """Stop once the relative change of high-frequency energy drops below tolerance.

    ``n0``, a non-negative integer, overrides the band threshold explicitly;
    by default it is ``default_band_threshold``.
    """

    tolerance: float
    n0: int | None = None

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise ParameterError(f"tolerance must be positive, got {self.tolerance}")
        if self.n0 is not None:
            try:
                operator.index(self.n0)
            except TypeError:
                raise ParameterError(f"n0 must be an integer, got {self.n0!r}") from None
            if self.n0 < 0:
                raise ParameterError(f"n0 must be non-negative, got {self.n0}")

    def band_threshold(self, rows: int, cols: int) -> int:
        """The threshold on a rows x cols image; an explicit n0 above its largest index sum raises."""
        if self.n0 is None:
            return default_band_threshold(rows, cols)
        if self.n0 > rows + cols - 2:
            raise ParameterError(f"n0 = {self.n0} leaves the band empty: the largest index sum "
                                 f"of a {rows} x {cols} image is {rows + cols - 2}")
        return self.n0


@dataclass(frozen=True)
class DiscrepancyStop:
    """Stop at the first step whose relative distance to the data reaches delta."""

    delta: float

    def __post_init__(self):
        _check_delta(self.delta)


@dataclass(frozen=True)
class AprioriStop:
    """Stop at the first step whose accumulated time reaches T(delta)."""

    c1: float
    c2: float
    gamma: float
    delta: float

    def __post_init__(self):
        self.horizon()  # a_priori_T validates c1, c2, gamma and delta

    def horizon(self) -> float:
        return a_priori_T(self.delta, self.c1, self.c2, self.gamma)


@dataclass(frozen=True)
class MaxStepsOnly:
    """No early termination; the step budget alone ends the run."""


StoppingRule = RdeStop | DiscrepancyStop | AprioriStop | MaxStepsOnly


@functools.lru_cache(maxsize=8)
def _band_weights(m: int, n: int, n0: int) -> np.ndarray:
    """Read-only weights of the (m, n//2 + 1) half spectrum of a real image.

    Half-spectrum entry (i, j) stands for full-spectrum entries (i, j) and,
    by conjugate symmetry, its mirror (-i mod m, n - j) of equal magnitude.
    The weight counts each of the two that lies in the band i + j >= n0.
    Columns j = 0 and, for even n, j = n/2 are their own mirror columns and
    are counted once.
    """
    i = np.arange(m)[:, None]
    j = np.arange(n // 2 + 1)
    weights = (i + j >= n0).astype(np.float64)
    mirrored = slice(1, (n + 1) // 2)
    weights[:, mirrored] += (-i % m) + (n - j[mirrored]) >= n0
    weights.flags.writeable = False
    return weights


def high_freq_energy(u: ImageGrid | np.ndarray, n0: int) -> float:
    """Sum of squared DFT magnitudes over index pairs with i + j >= n0.

    Unnormalised forward transform, 0-based indices, no frequency
    centering.  n0 = 0 therefore returns M*N times the squared pixel norm
    (Parseval); n0 beyond the largest index sum gives an empty band and 0.
    The sum runs over the real-input half spectrum with mirror weights.
    """
    px = u.pixels if isinstance(u, ImageGrid) else np.asarray(u, dtype=np.float64)
    if n0 < 0:
        raise ParameterError(f"n0 must be non-negative, got {n0}")
    m, n = px.shape
    if n0 > (m - 1) + (n - 1):
        return 0.0
    half = np.fft.rfft2(px)
    power = np.square(half.real)
    power += np.square(half.imag)
    return float(np.vdot(_band_weights(m, n, n0), power))


def _rde_change(energy: float, prev: float) -> float:
    """|energy - prev| / prev, or 0.0 when the previous band energy is exactly 0.0."""
    if prev == 0.0:
        return 0.0
    return abs(energy - prev) / prev


def rde(u_k: ImageGrid, u_km1: ImageGrid, n0: int) -> float:
    """Relative change of high-frequency energy between consecutive iterates.

    A zero previous-step energy is a degenerate signal; it is reported as
    0.0 so that any threshold treats it as "stop".
    """
    if u_k.shape != u_km1.shape:
        raise DimensionError(f"shape mismatch: {u_k.shape} vs {u_km1.shape}")
    prev = high_freq_energy(u_km1, n0)
    cur = high_freq_energy(u_k, n0)
    return _rde_change(cur, prev)


@dataclass(frozen=True)
class DiscrepancyResult:
    sigma: float
    chi: float


def discrepancy(
    u_k: np.ndarray, u0: np.ndarray, delta: float, u0_norm: float | None = None
) -> DiscrepancyResult:
    """Tolerability ratio sigma = ||u - u0|| / ||u0|| and its excess over delta.

    ``u0_norm`` is ||u0||, for a caller that evaluates many iterates against the same data.
    """
    sigma = _relative_distance(u_k, u0, u0_norm, "noisy data")
    return DiscrepancyResult(sigma=sigma, chi=sigma - delta)


def _check_delta(delta: float) -> None:
    if delta < 0:
        raise ParameterError(f"delta must be non-negative, got {delta}")
    if not math.isfinite(delta):
        raise ParameterError(f"delta must be finite, got {delta}")


def a_priori_T(delta: float, c1: float, c2: float, gamma: float) -> float:
    """Terminating time T = c1 * ln(1 + c2 * delta^gamma); T(0) = 0.  A T that is not finite raises."""
    if not (c1 > 0 and c2 > 0 and gamma > 0):
        raise ParameterError("c1, c2 and gamma must be positive")
    _check_delta(delta)
    try:
        horizon = c1 * math.log1p(c2 * delta**gamma)
    except OverflowError:
        horizon = math.inf
    if not math.isfinite(horizon):
        raise ParameterError(f"T(delta) is not finite for delta={delta}, c1={c1}, c2={c2}, gamma={gamma}")
    return float(horizon)
