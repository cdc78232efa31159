import importlib
import runpy
from pathlib import Path

import svddf

# the public API, sorted and one name a line, so adding or removing a name shows in the diff
PUBLIC_NAMES = [
    "AprioriStop",
    "DegenerateInputError",
    "DiffusivityField",
    "DimensionError",
    "DiscrepancyResult",
    "DiscrepancyStop",
    "DivergenceError",
    "EvalReport",
    "FlowState",
    "FormatError",
    "GaussianKernel",
    "ImageGrid",
    "MaxStepsOnly",
    "NoiseSpec",
    "ParameterError",
    "RdeStop",
    "SolverConfig",
    "SparseOperator",
    "StoppingRule",
    "SvddfError",
    "TrajectoryLog",
    "TrajectoryRecord",
    "a_priori_T",
    "add_noise",
    "apply",
    "array",
    "assemble",
    "diffusivity_half",
    "discrepancy",
    "energies",
    "evaluate",
    "grad_gaussian",
    "high_freq_energy",
    "initial_state",
    "lambda_max",
    "rde",
    "read_pgm",
    "rel_l2",
    "run_first_order",
    "run_svddf",
    "ssim",
    "sv_step",
    "synth_image",
    "to_dense",
    "vec",
    "write_pgm",
]


def test_public_names_are_pinned():
    assert svddf.__all__ == PUBLIC_NAMES


def test_every_traced_layer_resolves():
    # the benchmark's tracer wraps these module attributes and counts a missing one as an absent layer with 0 calls
    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))["LAYERS"]
    missing = [(module, attr) for _, module, attr in layers if not hasattr(importlib.import_module(module), attr)]
    assert layers and missing == []
