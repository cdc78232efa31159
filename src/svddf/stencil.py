"""Five-point conservative stencil operator and its spectral bound.

The divergence-form operator div(a grad u) with zero-flux boundaries acts
on the column-stacked grid as a symmetric MN x MN matrix F with
non-negative off-diagonal couplings a/h^2 and row sums that vanish by
construction (couplings across the boundary are dropped from both the
off-diagonal and the diagonal).  All eigenvalues are therefore real and
non-positive.

F is never assembled: ``apply`` forms F @ u as differences of edge fluxes
on the pixel array.  For inspection, ``to_dense`` forms the matrix with
``apply`` and ``dump_coo`` writes the stored couplings.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diffusivity import DiffusivityField
from .errors import DimensionError, ParameterError

DENSE_LIMIT = 4096  # the largest dimension spectrum_check forms densely: a 64 x 64 grid


@dataclass(frozen=True)
class SparseOperator:
    """Matrix-free symmetric five-point stencil on a rows x cols grid.

    ``ci[i, j]`` couples pixels (i, j) and (i+1, j), ``cj[i, j]`` couples
    (i, j) and (i, j+1); both carry the 1/h^2 factor and have the layout of
    ``DiffusivityField``, zero across the border.  On the column-stacked
    vector they couple q with q+1 and with q+rows, so a nonzero there would
    couple the ends of adjacent columns; it is rejected.  The shape, the
    diagonal and the spectral bound are read from these couplings, which
    are not changed once the operator is built.
    """

    ci: np.ndarray
    cj: np.ndarray

    def __post_init__(self):
        if self.ci.ndim != 2 or self.ci.shape != self.cj.shape:
            raise ParameterError(f"couplings ci {self.ci.shape} and cj {self.cj.shape} must be one 2-D shape")
        if np.count_nonzero(self.ci[-1]) or np.count_nonzero(self.cj[:, -1]):
            raise ParameterError("couplings across the border (last row of ci, last column of cj) must be 0")

    @property
    def rows(self) -> int:
        return self.ci.shape[0]

    @property
    def cols(self) -> int:
        return self.ci.shape[1]

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def _flat_couplings(self):
        return self.ci.ravel(order="F")[:-1], self.cj.ravel(order="F")[: -self.rows]

    @property
    def diagonal(self) -> np.ndarray:
        """Column-stacked main diagonal: minus the sum of each pixel's couplings."""
        diag = np.zeros(self.dim)
        # west, east, north, south: the summation order fixes the diagonal's bits
        for c, shift in zip(self._flat_couplings(), (1, self.rows)):
            diag[shift:] -= c
            diag[:-shift] -= c
        return diag

    @cached_property
    def _lambda_max(self) -> float:
        return float(2.0 * np.max(np.abs(self.diagonal)))


def assemble(field: DiffusivityField, spacing: float | None = None) -> SparseOperator:
    """Build F from midpoint coefficients: couplings a/h^2, h = field.spacing (= ``spacing`` if given)."""
    if spacing not in (None, field.spacing):
        raise ParameterError(f"spacing {spacing} differs from the field's spacing {field.spacing}")
    inv_h2 = 1.0 / field.spacing**2
    # column-major like the column-stacked vectors ``apply`` shifts
    ci = np.multiply(field.ai, inv_h2, order="F")
    cj = np.multiply(field.aj, inv_h2, order="F")
    return SparseOperator(ci, cj)


def apply(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """F @ x as the divergence of the edge fluxes c * (difference of x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.dim,):
        raise DimensionError(f"vector of shape {x.shape} does not match operator dim {op.dim}")
    out = np.zeros(x.shape)
    for c, shift in zip(op._flat_couplings(), (1, op.rows)):
        f = np.subtract(x[shift:], x[:-shift])
        f *= c
        out[shift:] -= f
        out[:-shift] += f
    return out


def lambda_max(op: SparseOperator) -> float:
    """Gershgorin upper bound on the largest eigenvalue of -F.

    The diagonal is formed here from the couplings, so the row sums of F
    vanish: every Gershgorin disc has centre diag_q <= 0 and radius
    |diag_q|, and the spectrum of -F lies in [0, 2 * max|diag|].  The top
    eigenvalue is at least the largest diagonal entry of -F (Rayleigh
    quotient of a unit vector), so the bound is within a factor 2 of it.
    It is formed on the first call for ``op`` and kept on it.
    """
    return op._lambda_max


@dataclass(frozen=True)
class SpectrumReport:
    max_eigenvalue: float
    min_eigenvalue: float
    passed: bool


def spectrum_check(op: SparseOperator) -> SpectrumReport:
    """Dense symmetric eigensolve; passes iff every eigenvalue of F <= 1e-10."""
    if op.dim > DENSE_LIMIT:
        raise DimensionError(f"dense diagnostic refused for dim {op.dim} > {DENSE_LIMIT}")
    w = np.linalg.eigvalsh(to_dense(op))
    return SpectrumReport(float(w[-1]), float(w[0]), bool(w[-1] <= 1e-10))


def to_dense(op: SparseOperator) -> np.ndarray:
    """The MN x MN matrix F, exactly symmetric and column-major: column q is ``apply`` of unit vector q."""
    dense = np.empty((op.dim, op.dim), order="F")
    unit = np.zeros(op.dim)
    for q in range(op.dim):
        unit[q] = 1.0
        dense[:, q] = apply(op, unit)
        unit[q] = 0.0
    return dense


def dump_coo(op: SparseOperator, stream) -> None:
    """Write one "row col value" line per stencil entry (0-based indices) to an open text stream.

    Rows ascend, and within a row the columns ascend: north, west, centre,
    east, south neighbour.
    """
    m, n = op.rows, op.cols
    diag = op.diagonal
    for q in range(op.dim):
        i, j = q % m, q // m
        if j > 0:
            stream.write(f"{q} {q - m} {op.cj[i, j - 1]:.17g}\n")
        if i > 0:
            stream.write(f"{q} {q - 1} {op.ci[i - 1, j]:.17g}\n")
        stream.write(f"{q} {q} {diag[q]:.17g}\n")
        if i < m - 1:
            stream.write(f"{q} {q + 1} {op.ci[i, j]:.17g}\n")
        if j < n - 1:
            stream.write(f"{q} {q + m} {op.cj[i, j]:.17g}\n")
