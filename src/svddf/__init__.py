"""p-Laplacian damped-flow image denoising.

A regularised p-Laplacian diffusion driven as a damped second-order flow,
integrated with a damped Stormer-Verlet scheme under spectral step-size
control, with a-priori, frequency-domain and discrepancy stopping rules and
SSIM-based evaluation against a first-order diffusion baseline.
"""

import types

from .diffusivity import (
    GaussianKernel,
    diffusivity_half,
    grad_gaussian,
)
from .errors import (
    DegenerateInputError,
    DimensionError,
    DivergenceError,
    FormatError,
    ParameterError,
    SvddfError,
)
from .flow import (
    FlowState,
    SolverConfig,
    TrajectoryLog,
    TrajectoryRecord,
    energies,
    initial_state,
    run_first_order,
    run_svddf,
    sv_step,
)
from .grid import ImageGrid, NoiseSpec, add_noise, array, rel_l2, synth_image, vec
from .metrics import EvalReport, evaluate, ssim
from .pgm import read_pgm, write_pgm
from .stencil import (
    SparseOperator,
    apply,
    assemble,
    lambda_max,
    to_dense,
)
from .stopping import (
    AprioriStop,
    DiscrepancyStop,
    DiscrepancyResult,
    MaxStepsOnly,
    RdeStop,
    StoppingRule,
    a_priori_T,
    discrepancy,
    high_freq_energy,
    rde,
)

__version__ = "0.1.0"

# the public API is the names imported above, listed once
__all__ = sorted(
    name
    for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, types.ModuleType))
)
