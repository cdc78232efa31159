"""Image lattice, column stacking, synthetic fixtures and the noise model.

An image lives on the M x N pixel lattice: neighbours are one unit apart.
Intensities are plain float64 and are normalised to [0, 1] when ingested
from files; in-memory operations may step outside that range (noise can
push values slightly above 1).
"""

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionError, ParameterError

KINDS = ("piecewise-constant", "ramp", "disk")
MIN_SIZE = 2


@dataclass(frozen=True)
class ImageGrid:
    """Immutable M x N real-valued image on the unit lattice, holding its own copy of the pixels."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.array(self.pixels, dtype=np.float64, order="C")
        if px.ndim != 2:
            raise DimensionError(f"pixels must be 2-D, got ndim={px.ndim}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise DimensionError(f"grid must be at least 1x1, got {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ParameterError("pixels contain non-finite values")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @classmethod
    def of_finite(cls, pixels: np.ndarray) -> "ImageGrid":
        """Wrap a 2-D float64 array known to be finite, as it is: no scan, no copy.

        The memory order of ``pixels`` is kept (a column-major view stays
        column-major), and the grid is read-only through ``pixels``.  For
        callers that formed the array themselves and checked it when they did.
        """
        px = pixels.view()
        px.setflags(write=False)
        grid = object.__new__(cls)
        object.__setattr__(grid, "pixels", px)
        return grid

    @property
    def shape(self):
        return self.pixels.shape


@dataclass(frozen=True)
class NoiseSpec:
    """Relative level and seed of the multiplicative uniform noise model; the seed is a non-negative integer."""

    delta: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ParameterError(f"delta must lie in [0, 1), got {self.delta}")
        try:
            operator.index(self.seed)
        except TypeError:
            raise ParameterError(f"seed must be an integer, got {self.seed!r}") from None
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


def vec(grid: ImageGrid) -> np.ndarray:
    """Stack the columns of the image into a length-MN vector.

    Column-major order: entry q = j*M + i (0-based) holds pixel (i, j), so
    the first M entries are the first column top to bottom.
    """
    return grid.pixels.flatten(order="F")


def array(values: np.ndarray, rows: int, cols: int) -> ImageGrid:
    """Inverse of :func:`vec`: rebuild the M x N image from a stacked vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size != rows * cols:
        raise DimensionError(f"expected a flat vector of length {rows * cols}, got shape {v.shape}")
    return ImageGrid(v.reshape((rows, cols), order="F"))


def add_noise(clean: ImageGrid, spec: NoiseSpec) -> ImageGrid:
    """Multiply each pixel by an independent factor uniform in [1-delta, 1+delta].

    Deterministic for a fixed seed; the elementwise bound
    ``|noisy - clean| <= delta * |clean|`` always holds.
    """
    rng = np.random.default_rng(spec.seed)
    factor = 1.0 + spec.delta * (2.0 * rng.random(clean.shape) - 1.0)
    return ImageGrid(clean.pixels * factor)


def synth_image(kind: str, rows: int, cols: int) -> ImageGrid:
    """Deterministic test image with known edges.

    ``piecewise-constant``: left half 0.25, right half 0.75.
    ``ramp``: u(i, j) = j / (cols - 1).
    ``disk``: indicator of the centred disk of radius min(rows, cols) / 4.
    """
    if rows < MIN_SIZE or cols < MIN_SIZE:
        raise DimensionError(f"synthetic images need at least {MIN_SIZE}x{MIN_SIZE}, got {rows}x{cols}")
    if kind == "piecewise-constant":
        px = np.full((rows, cols), 0.25)
        px[:, cols // 2 :] = 0.75
    elif kind == "ramp":
        px = np.tile(np.arange(cols, dtype=np.float64) / (cols - 1), (rows, 1))
    elif kind == "disk":
        ci, cj = (rows - 1) / 2.0, (cols - 1) / 2.0
        radius = min(rows, cols) / 4.0
        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        px = ((ii - ci) ** 2 + (jj - cj) ** 2 <= radius**2).astype(np.float64)
    else:
        raise ParameterError(f"unknown synthetic image kind {kind!r}; choose from {KINDS}")
    return ImageGrid(px)


def _as_float(value):
    """``float(value)`` of a real number, or +-inf past the float range; any other value comes back unchanged."""
    try:
        return float(value) if isinstance(value, numbers.Real) else value
    except OverflowError:  # an int or Fraction beyond 1.8e308
        return float("inf") if value > 0 else float("-inf")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over all entries, summed by einsum: a BLAS dot's last bits follow its thread count."""
    axes = list(range(a.ndim))
    return float(np.einsum(a, axes, b, axes, []))


def _reference_norm(ref, ref_name: str, ref_norm: float | None = None) -> float:
    """||ref||_2 over all entries, or ``ref_norm`` if the caller holds it; a zero norm, no ratio's divisor, raises."""
    denom = np.sqrt(_dot(ref, ref)) if ref_norm is None else ref_norm
    if denom == 0.0:
        raise DegenerateInputError(f"{ref_name} has zero norm")
    return denom


def _relative_distance(u, ref, ref_norm: float | None = None, ref_name: str = "reference vector") -> float:
    """||u - ref||_2 / ||ref||_2 of equal-length flat views; ``ref_norm`` is ||ref||_2 if the caller holds it."""
    u = np.asarray(u, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    if u.shape != ref.shape:
        raise DimensionError(f"length mismatch: {u.shape} vs {ref.shape}")
    diff = u - ref
    return float(np.sqrt(_dot(diff, diff)) / _reference_norm(ref, ref_name, ref_norm))


def rel_l2(u: np.ndarray, ref: np.ndarray) -> float:
    """Relative Euclidean distance ||u - ref||_2 / ||ref||_2."""
    return _relative_distance(u, ref)
