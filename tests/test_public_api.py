import importlib
import runpy
from pathlib import Path

import pytest

import svddf

# the public API, sorted and one name a line, so adding or removing a name shows in the diff
PUBLIC_NAMES = [
    "AprioriStop",
    "DegenerateInputError",
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


# what a user can read on each public type: its fields, and the properties and methods it defines itself
PUBLIC_ATTRIBUTES = {
    "DivergenceError": ["partial_log"],
    "EvalReport": ["improved", "rel_err_denoised", "ssim_denoised", "ssim_noisy"],
    "FlowState": ["F_prev", "Fu", "k", "t", "u", "v"],
    "GaussianKernel": ["dg", "g", "radius", "sigma"],
    "ImageGrid": ["of_finite", "pixels", "shape"],
    "SolverConfig": ["dt", "epsilon", "eta", "exponent_p", "kernel", "max_steps", "sigma", "stopping"],
    "SparseOperator": ["ci", "cj", "diagonal"],
    "TrajectoryLog": ["records", "steps", "stopped_by", "to_csv"],
    "TrajectoryRecord": ["dt", "kinetic", "lambda_max", "potential", "rde", "sigma", "step", "t", "vnorm"],
}


def _instances():
    """One instance of each type in ``PUBLIC_ATTRIBUTES``, from a two-step run on a 12 x 12 disk."""
    clean = svddf.synth_image("disk", 12, 12)
    noisy = svddf.add_noise(clean, svddf.NoiseSpec(delta=0.2, seed=1))
    config = svddf.SolverConfig(dt=0.1, max_steps=2)
    state = svddf.initial_state(noisy, config)
    out, log = svddf.run_svddf(noisy, config)
    return {
        "DivergenceError": svddf.DivergenceError("diverged"),
        "EvalReport": svddf.evaluate(clean, noisy, out),
        "FlowState": state,
        "GaussianKernel": config.kernel,
        "ImageGrid": out,
        "SolverConfig": config,
        "SparseOperator": state.F_prev,
        "TrajectoryLog": log,
        "TrajectoryRecord": log.records[0],
    }


@pytest.mark.parametrize("name", sorted(PUBLIC_ATTRIBUTES))
def test_public_type_exposes_its_pinned_attributes(name):
    obj = _instances()[name]
    # what every object, or every exception, has from Python's own base classes is not the type's
    inherited = {attr for base in type(obj).__mro__ if base.__module__ == "builtins" for attr in dir(base)}
    assert type(obj) is getattr(svddf, name)
    exposed = sorted(attr for attr in dir(obj) if not attr.startswith("_") and attr not in inherited)
    assert exposed == PUBLIC_ATTRIBUTES[name]


def test_every_traced_layer_resolves():
    # the benchmark's tracer wraps these module attributes and counts a missing one as an absent layer with 0 calls
    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))["LAYERS"]
    missing = [(module, attr) for _, module, attr in layers if not hasattr(importlib.import_module(module), attr)]
    assert layers and missing == []


@pytest.mark.parametrize("dt, bound_calls", [("auto", 5), ("0.15", 0)])
def test_every_traced_layer_is_called(tmp_path, monkeypatch, dt, bound_calls):
    # a traced name that a refactor leaves imported but unused would resolve and still read 0 calls
    clean = svddf.ImageGrid(0.25 + 0.5 * svddf.synth_image("disk", 24, 24).pixels)
    noisy = svddf.add_noise(clean, svddf.NoiseSpec(delta=0.4, seed=9))
    paths = [tmp_path / "disk.pgm", tmp_path / "disk_noisy.pgm"]
    for grid, path in zip((clean, noisy), paths):
        svddf.write_pgm(grid, path)
    layers = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "tracer.py"))["LAYERS"]
    calls = dict.fromkeys((name for name, _, _ in layers), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, module, attr in layers:
        target = importlib.import_module(module)
        monkeypatch.setattr(target, attr, counting(name, getattr(target, attr)))
    steps = 5
    argv = ["denoise", str(paths[1]), "--clean", str(paths[0]), "--p", "1", "--dt", dt]
    argv += ["--stop", "none", "--max-steps", str(steps), "--out", str(tmp_path / "run")]
    assert importlib.import_module("svddf.cli").main(argv) == 0
    per_step = ("flow.sv_step", "diffusivity.diffusivity_half", "stencil.assemble", "flow.energies", "stopping.discrepancy")
    expected = dict.fromkeys(per_step, steps)
    expected.update(dict.fromkeys(("stopping.high_freq_energy", "stencil.apply.step"), steps + 1))
    expected.update(dict.fromkeys(("cli.main", "flow.run_svddf", "pgm.write_pgm", "metrics.evaluate"), 1))
    expected.update({"pgm.read_pgm": 2, "stencil.lambda_max": bound_calls, "stencil.apply.bound": 0})
    assert calls == expected
