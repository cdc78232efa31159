#!/usr/bin/env python3
"""End-to-end benchmark of the svddf CLI, with an optional traced run.

Run from the repository root:

    python3 perfbench/run.py --workload heavyball-disk128 --seed 1 --seconds 20 --trace 0

Every sample is a fresh single-threaded Python process that imports
``svddf`` from ``src/`` and calls ``svddf.cli.main`` in-process on PGM
inputs this script generates from ``--seed``.  Samples repeat until
``--seconds`` is used (at least two samples; with ``--trace 1``, at least
one untraced/traced pair).  Each sample's outputs are checked.  An
operation is one denoise or one sweep cell; ``attempted`` and ``failed``
count operations, and ``error_rate`` is their ratio.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import child
import tracer

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(child.__file__).resolve()
OUT_ROOT = ROOT / ".perfbench-out"
# set-up is timed in every sample and in this many processes of its own
# before each unit of samples, so that its median spans the whole run
SETUP_REPEATS = 4
MIN_SAMPLES = 2
# a run must end within 180 s; no child may start a wait past this
DEADLINE_S = 165.0
PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "ssim": "ratio"}


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    verb: str  # "denoise" or "sweep"
    flags: tuple
    stop: str = ""  # the stop reason a denoise run must report
    ps: tuple = ()
    etas: tuple = ()
    gain_etas: tuple = ()  # sweep cells with these etas must beat the noisy SSIM

    @property
    def ops(self) -> int:
        return len(self.ps) * len(self.etas) if self.verb == "sweep" else 1

    @property
    def dt_auto(self) -> bool:
        return self.flags[self.flags.index("--dt") + 1] == "auto"

    def argv(self, noisy: Path, clean: Path, out: Path) -> list:
        argv = [self.verb, str(noisy), "--clean", str(clean), "--out", str(out)]
        if self.verb == "sweep":
            argv += ["--ps", ",".join(f"{p:g}" for p in self.ps),
                     "--etas", ",".join(f"{e:g}" for e in self.etas)]
        return argv + list(self.flags)


WORKLOADS = {
    w.name: w
    for w in (
        # criterion-8 settings: long, strongly damped, fixed dt, no spectral
        # bound.  The step budget ends the run before rde fires (after 2363
        # steps or more on the seeds tried), so its work does not vary with
        # the seed; rde is still evaluated on every step.
        Workload("heavyball-disk128", 128, "denoise",
                 ("--p", "1", "--eta", "300", "--dt", "0.15", "--stop", "rde",
                  "--tol", "1e-4", "--max-steps", "2000"), stop="max-steps"),
        # short run on a rough image, dominated by the power-iteration bound;
        # its stencil is the only one larger than L2
        Workload("auto-apriori-disk256", 256, "denoise",
                 ("--p", "1", "--eta", "2", "--dt", "auto", "--stop", "a-priori",
                  "--c1", "30", "--c2", "1", "--gamma", "1", "--delta", "0.54"),
                 stop="a-priori"),
        # README table grid: many short runs on small arrays, per-call
        # overhead.  Every cell runs the same fixed budget (rde would stop the
        # eta=0.001 cells after a seed-dependent 53-500 steps); those cells
        # end below the noisy SSIM
        Workload("sweep-disk64", 64, "sweep",
                 ("--dt", "0.15", "--stop", "none", "--max-steps", "300"),
                 ps=(1.0, 1.5, 2.0), etas=(0.001, 1.0, 100.0, 300.0),
                 gain_etas=(1.0, 100.0, 300.0)),
    )
}

PER_LAYER_UNITS = {
    f"{name}.{kind}": unit
    for name, _, _ in tracer.LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
} | {
    "stencil.lambda_max.iterations": "count",
    "stencil.lambda_max.fallbacks": "count",
    "stencil.lambda_max.converged_ratio": "ratio",
    "flow.steps": "count",
    "trace.overhead_pct": "%",
    "trace.absent": "count",
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable svddf; no result can be reported."""


class Runner:
    """Spawns the measured child processes of one benchmark run."""

    def __init__(self, run_dir: Path, inputs: list, started: float):
        self.run_dir = run_dir
        self.inputs = inputs
        self.started = started
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PINNED_THREADS)
        self.env.pop("PYTHONPATH", None)
        # bytecode is cached as for an installed package, so set-up does not
        # depend on whether the caller's environment disables caching
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.jobs = 0

    def spawn(self, argv=None, trace=False, out_dir=None) -> dict:
        self.jobs += 1
        job_path = self.run_dir / f"job{self.jobs}.json"
        job = {
            "src": str(ROOT / "src"),
            "inputs": [str(p) for p in self.inputs],
            "argv": argv,
            "trace": trace,
            "result": str(self.run_dir / f"result{self.jobs}.json"),
            "spans": str(out_dir / "spans.jsonl") if out_dir else None,
        }
        job_path.write_text(json.dumps(job))
        budget = DEADLINE_S - (time.monotonic() - self.started)
        if budget <= 0:
            return {"rc": "timeout"}
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(job_path)], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            return {"rc": "timeout"}
        if proc.returncode == child.EXIT_NO_PROGRAM:
            raise ProgramMissing(proc.stderr.strip())
        if proc.returncode != 0:
            return {"rc": f"child exit {proc.returncode}", "stderr": proc.stderr}
        result = json.loads(Path(job["result"]).read_text())
        os.remove(job_path)
        os.remove(job["result"])
        return result


def make_inputs(size: int, seed: int, run_dir: Path):
    clean = check.disk_image(size)
    noisy = check.noisy_image(clean, seed)
    paths = [run_dir / "disk_noisy.pgm", run_dir / "disk.pgm"]
    for path, img in zip(paths, (noisy, clean)):
        check.write_pgm16(path, img)
    # the program sees the quantised files, so score against what it reads
    return paths, check.read_pgm(paths[1]), check.read_pgm(paths[0])


def check_sample(w: Workload, sample: dict, out_dir: Path, clean, noisy):
    if "wall_s" not in sample:
        info = {"steps": 0, "ssim": 0.0, "ops": w.ops, "failed_ops": w.ops}
        return [f"sample did not run: {sample.get('rc')}"], info
    if w.verb == "sweep":
        return check.check_sweep(out_dir, sample["rc"], sample["stdout"], w.ps, w.etas,
                                 w.gain_etas, clean, noisy)
    return check.check_denoise(out_dir, "disk_noisy", sample["rc"], sample["stdout"],
                               w.stop, w.dt_auto, clean, noisy)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out_root: Path = OUT_ROOT):
    started = time.monotonic()
    run_dir = out_root / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs, clean, noisy = make_inputs(w.size, seed, run_dir)
    runner = Runner(run_dir, inputs, started)

    # the first import compiles bytecode and fills the file cache; users
    # pay that once, so it is not timed
    warm = runner.spawn()

    setups = []
    samples = []
    problems = []
    reference_hashes = None
    t_first = time.monotonic()
    while True:
        units = [(False, True), (True, False)][len(samples) // 2 % 2] if trace else (False,)
        if not trace:
            setups += [runner.spawn() for _ in range(SETUP_REPEATS)]
        for traced in units:
            out_dir = run_dir / f"sample{len(samples)}"
            out_dir.mkdir()
            sample = runner.spawn(w.argv(inputs[0], inputs[1], out_dir), traced, out_dir)
            sample_problems, info = check_sample(w, sample, out_dir, clean, noisy)
            # problems found from here on concern the whole sample: all its ops fail
            whole = []
            if traced and "wall_s" in sample:
                header, spans = tracer.read_spans(out_dir / "spans.jsonl")
                sample.update(trace_header=header, spans=spans)
                steps = sum(s[0] == "flow.sv_step" for s in spans)
                if "flow.sv_step" not in header["absent"] and steps != info["steps"]:
                    whole.append(f"traced {steps} steps, outputs show {info['steps']}")
                shutil.move(out_dir / "spans.jsonl", run_dir / "spans.jsonl")
            hashes = check.output_hashes(out_dir)
            if reference_hashes is None:
                reference_hashes = hashes
            elif hashes != reference_hashes:
                whole.append("outputs differ from the first sample's")
            shutil.rmtree(out_dir)
            if whole:
                sample_problems += whole
                info["failed_ops"] = info["ops"]
            sample.update(info, traced=traced, problems=sample_problems)
            samples.append(sample)
            problems += [f"sample {len(samples) - 1}: {p}" for p in sample_problems]
        elapsed = time.monotonic() - t_first
        per_unit = elapsed / (len(samples) // len(units))
        if len(samples) >= MIN_SAMPLES and elapsed + per_unit > seconds:
            break
        if time.monotonic() - started + per_unit > DEADLINE_S:
            break

    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed_ops"] for s in samples)
    metrics = (per_layer_metrics(samples) if trace else end_to_end_metrics(samples, setups))
    return {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "samples": [{k: sample.get(k) for k in ("traced", "wall_s", "steps", "ssim", "peak_rss_mb")}
                    for sample in samples],
        "setup_s": [setup.get("setup_s") for setup in setups],
        "machine": machine_block(w, seed, inputs, warm),
        "run_dir": str(run_dir),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _median_low(values):
    """A measured value, never the mean of two, so counts stay whole."""
    return statistics.median_low(values) if values else 0


def end_to_end_metrics(samples, setups) -> dict:
    ran = [s for s in samples if "wall_s" in s]
    values = {
        "wall_s": _median([s["wall_s"] for s in ran]),
        "steps_per_s": _median([s["steps"] / s["wall_s"] for s in ran]),
        "setup_s": _median([s["setup_s"] for s in setups + ran if "setup_s" in s]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in ran]),
        "ssim": _median([s["ssim"] for s in ran]),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(samples) -> dict:
    names = [name for name, _, _ in tracer.LAYERS]
    traced = [s for s in samples if s["traced"] and "spans" in s]
    plain = [s["wall_s"] for s in samples if not s["traced"] and "wall_s" in s]
    summaries = [tracer.summarize(s["spans"], names) for s in traced]
    values = {}
    for name in names:
        values[f"{name}.calls"] = _median_low([calls[name] for calls, _ in summaries])
        values[f"{name}.self_s"] = _median_low([self_s[name] for _, self_s in summaries])
    bound_calls = values[f"{tracer.BOUND_LAYER}.calls"]
    fallbacks = _median_low([s["trace_header"]["bound_fallbacks"] for s in traced])
    values["stencil.lambda_max.iterations"] = _median_low(
        [s["trace_header"]["bound_iterations"] for s in traced])
    values["stencil.lambda_max.fallbacks"] = fallbacks
    values["stencil.lambda_max.converged_ratio"] = (
        (bound_calls - fallbacks) / bound_calls if bound_calls else 0.0)
    values["flow.steps"] = values["flow.sv_step.calls"]
    untraced_wall = _median_low(plain)
    traced_wall = _median_low([s["wall_s"] for s in traced])
    values["trace.overhead_pct"] = (
        100.0 * (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0)
    values["trace.absent"] = len(traced[0]["trace_header"]["absent"]) if traced else 0
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_block(w: Workload, seed: int, inputs, setup: dict) -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type").strip()
        if kind in ("Data", "Unified"):
            caches[f"L{_read(index / 'level').strip()}"] = _read(index / "size").strip()
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    m = n = w.size
    nnz = m * n + 2 * ((m - 1) * n + m * (n - 1))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "using_numba": setup.get("using_numba"),
        "thread_pinning": PINNED_THREADS,
        "seed": seed,
        "inputs": {p.name: check.sha256(p) for p in inputs},
        # computed from the grid size, not measured
        "computed_bytes": {
            "image_float64": 8 * m * n,
            "csr_stencil": nnz * 16 + (m * n + 1) * 8 + m * n * 8,
        },
    }


def print_report(result) -> None:
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{len(result['samples'])} samples, {result['attempted']} ops, "
          f"{result['failed']} failed, error_rate {result['error_rate']:g} (failed/attempted ops)")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print("machine " + json.dumps(result["machine"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "svddf" / "__init__.py").is_file():
        print(f"error: no svddf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    Path(result["run_dir"], "result.json").write_text(json.dumps(result, indent=1))
    print_report(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
