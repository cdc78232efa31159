"""Five-point conservative stencil operator and its spectral bound.

The divergence-form operator div(a grad u) with zero-flux boundaries acts
on the column-stacked grid as a symmetric MN x MN matrix F with
non-negative off-diagonal couplings a and row sums that vanish by
construction (couplings across the boundary are dropped from both the
off-diagonal and the diagonal).  All eigenvalues are therefore real and
non-positive.

F is never assembled: ``apply`` forms F @ u as differences of edge fluxes
on the pixel array.  For inspection, ``to_dense`` forms the matrix with
``apply``.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class SparseOperator:
    """Matrix-free symmetric five-point stencil on a rows x cols grid.

    ``ci[i, j]`` couples pixels (i, j) and (i+1, j), ``cj[i, j]`` couples
    (i, j) and (i, j+1).  Both are rows x cols, column-major as
    ``diffusivity_half`` forms them, and 0.0 across the border: the last row
    of ``ci`` and the last column of ``cj``.  On the column-stacked vector
    they couple q with q+1 and with q+rows, so a nonzero there would couple
    the ends of adjacent columns; it is rejected.  The grid shape
    (``ci.shape``), the dimension (``ci.size``), the diagonal and the
    spectral bound are read from these couplings.  They are the caller's
    arrays, not copies, and must not be written afterwards; those
    ``diffusivity_half`` forms are read-only.
    """

    ci: np.ndarray
    cj: np.ndarray

    def __post_init__(self):
        if self.ci.ndim != 2 or self.ci.shape != self.cj.shape:
            raise ParameterError(f"couplings ci {self.ci.shape} and cj {self.cj.shape} must be one 2-D shape")
        if np.count_nonzero(self.ci[-1]) or np.count_nonzero(self.cj[:, -1]):
            raise ParameterError("couplings across the border (last row of ci, last column of cj) must be 0")

    def _flat_couplings(self):
        """Each coupling on the column-stacked vector with its shift: 1 down a column, rows across."""
        rows = self.ci.shape[0]
        return (self.ci.ravel(order="F")[:-1], 1), (self.cj.ravel(order="F")[:-rows], rows)

    @property
    def diagonal(self) -> np.ndarray:
        """Column-stacked main diagonal: minus the sum of each pixel's couplings."""
        diag = np.zeros(self.ci.size)
        # west, east, north, south: the summation order fixes the diagonal's bits
        for c, shift in self._flat_couplings():
            diag[shift:] -= c
            diag[:-shift] -= c
        return diag

    @cached_property
    def _lambda_max(self) -> float:
        return float(2.0 * np.max(np.abs(self.diagonal)))


def assemble(couplings) -> SparseOperator:
    """Build F on the pair (ai, aj) that ``diffusivity_half`` returns, sharing its read-only arrays."""
    return SparseOperator(*couplings)


def apply(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """F @ x as the divergence of the edge fluxes c * (difference of x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.ci.size,):
        raise DimensionError(f"vector of shape {x.shape} does not match operator dim {op.ci.size}")
    out = np.zeros(x.shape)
    for c, shift in op._flat_couplings():
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


def to_dense(op: SparseOperator) -> np.ndarray:
    """The MN x MN matrix F, exactly symmetric and column-major: column q is ``apply`` of unit vector q."""
    n = op.ci.size
    dense = np.empty((n, n), order="F")
    unit = np.zeros(n)
    for q in range(n):
        unit[q] = 1.0
        dense[:, q] = apply(op, unit)
        unit[q] = 0.0
    return dense

