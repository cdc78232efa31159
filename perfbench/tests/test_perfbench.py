"""Tests of the benchmark itself: tiny runs, the tracer and the output checker.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH_NAMES = {
    "end_to_end": set(run.END_TO_END_UNITS),
    "per_layer": set(run.PER_LAYER_UNITS),
}


# each tiny variant keeps the workload's settings and stop reason, on a
# smaller grid and, where the step budget stops the run, with fewer steps
TINY = {
    "heavyball-disk128": {"size": 32, "max_steps": "40"},
    "auto-apriori-disk256": {"size": 48},
    "sweep-disk64": {"size": 48, "max_steps": "60"},
}


def tiny(name):
    """The named workload shrunk so that one sample takes well under a second."""
    w, spec = run.WORKLOADS[name], TINY[name]
    flags = list(w.flags)
    if "max_steps" in spec:
        flags[flags.index("--max-steps") + 1] = spec["max_steps"]
    return dataclasses.replace(w, size=spec["size"], flags=tuple(flags))


@pytest.fixture
def quick_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_is_correct(name, tmp_path, quick_setup):
    result = run.run_workload(tiny(name), seed=3, seconds=0, trace=False,
                              out_root=tmp_path)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_SAMPLES * run.WORKLOADS[name].ops
    assert set(result["metrics"]) == BENCH_NAMES["end_to_end"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_traced_run_reports_every_layer(name, tmp_path, quick_setup):
    w = tiny(name)
    result = run.run_workload(w, seed=3, seconds=0, trace=True, out_root=tmp_path)
    assert result["problems"] == []
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == BENCH_NAMES["per_layer"]
    assert metrics["trace.absent"] == 0
    assert metrics["flow.steps"] > 0
    bound_calls = metrics["stencil.lambda_max.calls"]
    assert (bound_calls > 0) == w.dt_auto
    assert (metrics["stencil.apply.bound.calls"] > 0) == w.dt_auto
    assert (Path(result["run_dir"]) / "spans.jsonl").is_file()


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == BENCH_NAMES["end_to_end"]
    assert {m["name"] for m in spec["per_layer"]} == BENCH_NAMES["per_layer"]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}[m["name"]]


@pytest.fixture
def fake_program(monkeypatch):
    """A module whose ``outer`` calls ``inner`` through a global lookup."""
    mod = types.ModuleType("fake_program")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    return mod


def test_tracer_reports_missing_layers_as_absent(fake_program):
    layers = (
        ("fake.outer", "fake_program", "outer"),
        ("fake.gone", "fake_program", "no_such_function"),
        ("fake.nomodule", "no_such_module_for_tracing", "f"),
    )
    t = tracer.Tracer(layers)
    t.install()
    try:
        assert fake_program.outer(1) == 4
    finally:
        t.uninstall()
    assert t.absent == ["fake.gone", "fake.nomodule"]
    calls, self_s = tracer.summarize(t.spans, [name for name, _, _ in layers])
    assert calls == {"fake.outer": 1, "fake.gone": 0, "fake.nomodule": 0}
    assert self_s["fake.gone"] == 0.0


def test_tracer_self_time_excludes_wrapped_children(fake_program, tmp_path):
    ticks = iter(range(100))
    layers = (("fake.outer", "fake_program", "outer"), ("fake.inner", "fake_program", "inner"))
    t = tracer.Tracer(layers, clock=lambda: float(next(ticks)))
    t.install()
    fake_program.outer(1)
    t.uninstall()
    assert fake_program.inner.__name__ == "inner" and not hasattr(fake_program.inner, "__wrapped__")
    # outer 0..5 wraps inner 1..2 and 3..4: one tick of each inner, three of outer
    path = tmp_path / "spans.jsonl"
    t.write(path)
    header, spans = tracer.read_spans(path)
    assert header["absent"] == []
    calls, self_s = tracer.summarize(spans, ["fake.outer", "fake.inner"])
    assert calls == {"fake.outer": 1, "fake.inner": 2}
    assert self_s == {"fake.outer": 3.0, "fake.inner": 2.0}
    assert [s[3] for s in spans] == [-1, 0, 0]


def _valid_denoise_output(out_dir: Path, clean, steps=3):
    out_dir.mkdir(exist_ok=True)
    check.write_pgm16(out_dir / "x_denoised.pgm", clean)
    rows = ["step,t,dt,lambda_max,vnorm,rde,sigma,kinetic,potential"]
    rows += [f"{k},{0.1 * k},0.1,nan,1,0.5,0.1,1,2" for k in range(1, steps + 1)]
    (out_dir / "x_trajectory.csv").write_text("\n".join(rows) + "\n")
    score = check.ssim(check.read_pgm(out_dir / "x_denoised.pgm"), clean)
    (out_dir / "x_metrics.csv").write_text(
        "image_id,p,eta,steps,ssim_noisy,ssim_denoised,rel_err\n"
        f"x,1,300,{steps},0.1,{score},0.1\n"
    )
    return f"stopped by rde after {steps} steps\n"


def test_checker_accepts_then_rejects_corrupted_denoise(tmp_path):
    clean = check.disk_image(32)
    noisy = check.noisy_image(clean, 1)
    stdout = _valid_denoise_output(tmp_path, clean)
    problems, info = check.check_denoise(tmp_path, "x", 0, stdout, "rde", False, clean, noisy)
    assert problems == [] and info["steps"] == 3 and info["ssim"] > 0.99
    assert (info["ops"], info["failed_ops"]) == (1, 0)

    wrong_stop = stdout.replace("rde", "max-steps")
    problems, info = check.check_denoise(tmp_path, "x", 0, wrong_stop, "rde", False, clean, noisy)
    assert any("expected rde" in p for p in problems) and info["failed_ops"] == 1

    problems, _ = check.check_denoise(tmp_path, "x", 1, stdout, "rde", False, clean, noisy)
    assert problems == ["exit code 1"]

    csv_path = tmp_path / "x_trajectory.csv"
    csv_path.write_text(csv_path.read_text().replace("0.5,0.1,1,2\n3", "nan,0.1,1,2\n3"))
    problems, _ = check.check_denoise(tmp_path, "x", 0, stdout, "rde", False, clean, noisy)
    assert any("non-finite rde" in p for p in problems)

    # fixed-dt runs log NaN as lambda_max; spectral-bound runs must not
    _valid_denoise_output(tmp_path, clean)
    problems, _ = check.check_denoise(tmp_path, "x", 0, stdout, "rde", True, clean, noisy)
    assert any("lambda_max" in p for p in problems)

    check.write_pgm16(tmp_path / "x_denoised.pgm", np.random.default_rng(0).random(clean.shape))
    problems, _ = check.check_denoise(tmp_path, "x", 0, stdout, "rde", False, clean, noisy)
    assert any("no SSIM gain" in p for p in problems)

    denoised = tmp_path / "x_denoised.pgm"
    denoised.write_bytes(denoised.read_bytes()[:100])
    problems, _ = check.check_denoise(tmp_path, "x", 0, stdout, "rde", False, clean, noisy)
    assert any("unreadable denoised PGM" in p for p in problems)


def test_checker_counts_each_sweep_cell_as_an_op(tmp_path):
    clean = check.disk_image(64)
    noisy = check.noisy_image(clean, 1)
    assert check.ssim(noisy, clean) < 0.5
    ps, etas, gain = (1.0, 2.0), (0.001, 300.0), (300.0,)
    values = {(1.0, 0.001): 0.01, (1.0, 300.0): 0.6, (2.0, 0.001): 0.7, (2.0, 300.0): 0.8}
    stdout = "".join(f"p={p:g} eta={e:g}: ssim={v:.4f} (7 steps)\n" for (p, e), v in values.items())
    table = "p\\eta,0.001,300\n1,0.01,0.6\n2,0.7,0.8\n"

    def checked(table=table, stdout=stdout, rc=0):
        (tmp_path / "sweep.csv").write_text(table)
        return check.check_sweep(tmp_path, rc, stdout, ps, etas, gain, clean, noisy)

    # the eta=0.001 cell below the noisy SSIM passes: it is not a gain cell
    problems, info = checked()
    assert problems == [] and info["steps"] == 28 and math.isclose(info["ssim"], 0.5275)
    assert (info["ops"], info["failed_ops"]) == (4, 0)

    problems, info = checked(table.replace("0.7", "nan"))
    assert problems == ["p=2 eta=0.001: non-finite or out-of-range cell 'nan'"]
    assert info["failed_ops"] == 1

    problems, info = checked(table.replace("0.8", "0.80007"))
    assert problems == ["p=2 eta=300: table 0.8001 != stdout 0.8000"]
    assert info["failed_ops"] == 1

    problems, info = checked(stdout=stdout.replace("p=1 eta=300: ssim=0.6000 (7 steps)\n", ""))
    assert problems == ["p=1 eta=300: no ssim line on stdout"] and info["failed_ops"] == 1

    problems, info = checked(table.replace("0.6", "0.1"), stdout.replace("0.6000", "0.1000"))
    assert len(problems) == 1 and "p=1 eta=300: no SSIM gain" in problems[0]
    assert info["failed_ops"] == 1

    problems, info = checked(rc=1)
    assert problems == ["exit code 1"] and info["failed_ops"] == 4

    problems, info = checked(table.replace("\n2,0.7,0.8", ""))
    assert problems == ["sweep rows do not match the p list"] and info["failed_ops"] == 4


def test_independent_ssim_matches_the_program(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(run.ROOT) / "src"))
    svddf = pytest.importorskip("svddf")
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=(40, 33)), rng.uniform(size=(40, 33))
    assert math.isclose(check.ssim(x, y), svddf.ssim(svddf.ImageGrid(x), svddf.ImageGrid(y)),
                        rel_tol=1e-12)
