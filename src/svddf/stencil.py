"""Five-point conservative stencil operator and its spectral bound.

The divergence-form operator div(a grad u) with zero-flux boundaries acts
on the column-stacked grid as a symmetric MN x MN matrix F with
non-negative off-diagonal couplings a/h^2 and row sums that vanish by
construction (couplings across the boundary are dropped from both the
off-diagonal and the diagonal).  All eigenvalues are therefore real and
non-positive.

F is never assembled: ``apply`` forms F @ u as differences of edge fluxes
on the pixel array.  ``to_dense`` and ``dump_coo`` rebuild the matrix for
inspection.
"""

from dataclasses import dataclass

import numpy as np

from .diffusivity import DiffusivityField
from .errors import DimensionError, ParameterError

@dataclass(frozen=True)
class SparseOperator:
    """Matrix-free symmetric five-point stencil on a rows x cols grid.

    ``ci[i, j]`` couples pixels (i, j) and (i+1, j), ``cj[i, j]`` couples
    (i, j) and (i, j+1); both already carry the 1/h^2 factor.  The shape
    and the diagonal are read from these couplings.
    """

    ci: np.ndarray
    cj: np.ndarray

    @property
    def rows(self) -> int:
        return self.cj.shape[0]

    @property
    def cols(self) -> int:
        return self.ci.shape[1]

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    @property
    def diagonal(self) -> np.ndarray:
        """Column-stacked main diagonal: minus the sum of each pixel's couplings."""
        # west, east, north, south: the summation order fixes the diagonal's bits
        diag = np.zeros((self.rows, self.cols), order="F")
        diag[1:] -= self.ci
        diag[:-1] -= self.ci
        diag[:, 1:] -= self.cj
        diag[:, :-1] -= self.cj
        return diag.ravel(order="F")


def assemble(field: DiffusivityField, spacing: float) -> SparseOperator:
    """Build F from midpoint coefficients: the couplings a/h^2."""
    if not (spacing > 0):
        raise ParameterError(f"spacing must be positive, got {spacing}")
    inv_h2 = 1.0 / spacing**2
    # column-major like the column-stacked vectors ``apply`` reshapes
    ci = np.multiply(field.ai, inv_h2, order="F")
    cj = np.multiply(field.aj, inv_h2, order="F")
    return SparseOperator(ci, cj)


def apply(op: SparseOperator, x: np.ndarray) -> np.ndarray:
    """F @ x as the divergence of the edge fluxes c * (difference of x)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.dim,):
        raise DimensionError(f"vector of shape {x.shape} does not match operator dim {op.dim}")
    u = x.reshape((op.rows, op.cols), order="F")
    out = np.zeros_like(u)
    f = op.ci * (u[1:] - u[:-1])
    out[1:] -= f
    out[:-1] += f
    f = op.cj * (u[:, 1:] - u[:, :-1])
    out[:, 1:] -= f
    out[:, :-1] += f
    return out.ravel(order="F")


def lambda_max(op: SparseOperator) -> float:
    """Gershgorin upper bound on the largest eigenvalue of -F.

    The diagonal is formed here from the couplings, so the row sums of F
    vanish: every Gershgorin disc has centre diag_q <= 0 and radius
    |diag_q|, and the spectrum of -F lies in [0, 2 * max|diag|].  The top
    eigenvalue is at least the largest diagonal entry of -F (Rayleigh
    quotient of a unit vector), so the bound is within a factor 2 of it.
    """
    return float(2.0 * np.max(np.abs(op.diagonal)))


@dataclass(frozen=True)
class SpectrumReport:
    max_eigenvalue: float
    min_eigenvalue: float
    passed: bool


def spectrum_check(op: SparseOperator, dense_limit: int = 4096) -> SpectrumReport:
    """Dense symmetric eigensolve; passes iff every eigenvalue of F <= 1e-10."""
    if op.dim > dense_limit:
        raise DimensionError(f"dense diagnostic refused for dim {op.dim} > {dense_limit}")
    w = np.linalg.eigvalsh(to_dense(op))
    return SpectrumReport(float(w[-1]), float(w[0]), bool(w[-1] <= 1e-10))


def to_dense(op: SparseOperator) -> np.ndarray:
    """The MN x MN matrix F, exactly symmetric."""
    dense = np.diag(op.diagonal)
    q = np.arange(op.dim).reshape((op.rows, op.cols), order="F")
    for a, b, c in ((q[:-1], q[1:], op.ci), (q[:, :-1], q[:, 1:], op.cj)):
        dense[a, b] = c
        dense[b, a] = c
    return dense


def dump_coo(op: SparseOperator, target) -> None:
    """Write one "row col value" line per stencil entry (0-based indices).

    Rows ascend, and within a row the columns ascend: north, west, centre,
    east, south neighbour.
    """
    m, n = op.rows, op.cols
    diag = op.diagonal

    def _write(fh):
        for q in range(op.dim):
            i, j = q % m, q // m
            if j > 0:
                fh.write(f"{q} {q - m} {op.cj[i, j - 1]:.17g}\n")
            if i > 0:
                fh.write(f"{q} {q - 1} {op.ci[i - 1, j]:.17g}\n")
            fh.write(f"{q} {q} {diag[q]:.17g}\n")
            if i < m - 1:
                fh.write(f"{q} {q + 1} {op.ci[i, j]:.17g}\n")
            if j < n - 1:
                fh.write(f"{q} {q + m} {op.cj[i, j]:.17g}\n")

    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="ascii") as fh:
            _write(fh)
    else:
        _write(target)
