"""Command-line front end: add-noise, denoise, sweep and metrics verbs.

Exit codes: 0 on success, 1 on numerical failure (divergence), 2 on usage
or I/O errors.  Flags override values from an optional plain key=value
config file (--config); every output is deterministic for a fixed seed.
"""

import argparse
import ctypes
import dataclasses
import math
import sys
from pathlib import Path

from .errors import DivergenceError, SvddfError
from .flow import SolverConfig, run_first_order, run_svddf
from .grid import ImageGrid, NoiseSpec, add_noise
from .metrics import EVAL_CSV_HEADER, SsimConfig, evaluate, report_csv_row, ssim
from .pgm import read_pgm, write_pgm
from .stopping import AprioriStop, DiscrepancyStop, MaxStepsOnly, RdeStop

# glibc mallopt parameters and the values main sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 64 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20

_STOP_CHOICES = ("rde", "discrepancy", "a-priori", "none")
_METHOD_CHOICES = ("svddf", "first-order")

_DEFAULTS = {
    "p": 1.0,
    "eta": 2.0,
    "epsilon": 1e-2,
    "sigma": 1.0,
    "dt": "auto",
    "safety": 0.9,
    "dt_max": None,
    "max_steps": 500,
    "stop": "rde",
    "tol": 1e-4,
    "n0": None,
    "rde_literal_n0": False,
    "delta": 0.1,
    "c1": 1.0,
    "c2": 1.0,
    "gamma": 1.0,
    "seed": 0,
    "method": "svddf",
}


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SvddfError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise SvddfError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val.strip()
    return values


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true"):
        return True
    if text.lower() in ("0", "false"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _one_of(choices):
    """Cast that accepts exactly the strings in ``choices``, as argparse does for the flag."""

    def cast(text):
        if text not in choices:
            raise ValueError(f"expected one of {choices}, got {text!r}")
        return text

    return cast


def _cast(key, text, cast):
    """``cast(text)``, with a malformed value reported as a usage error naming ``key``."""
    try:
        return cast(text)
    except ValueError:
        raise SvddfError(f"invalid value for {key}: {text!r}") from None


def _resolve(args, key, cast):
    """Flag if given, else config-file entry, else built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in args._config_values:
        return _cast(key, args._config_values[key], cast)
    return _DEFAULTS[key]


def _add_solver_flags(sub):
    sub.add_argument("--config", help="plain key=value config file; flags override it")
    sub.add_argument("--p", type=float, dest="p", help="diffusion exponent in [1, 2]")
    sub.add_argument("--eta", type=float, help="damping parameter")
    sub.add_argument("--epsilon", type=float, help="diffusivity regularisation")
    sub.add_argument("--sigma", type=float, help="Gaussian smoothing variance")
    sub.add_argument("--dt", help="'auto' for the spectral rule or a fixed step length")
    sub.add_argument("--safety", type=float, help="multiplier on the spectral step bound")
    sub.add_argument("--dt-max", type=float, dest="dt_max", help="cap on the auto step length")
    sub.add_argument("--max-steps", type=int, dest="max_steps", help="step budget")
    sub.add_argument("--stop", choices=_STOP_CHOICES)
    sub.add_argument("--tol", type=float, help="tolerance of the rde rule")
    sub.add_argument("--delta", type=float, help="noise level for stopping rules")
    sub.add_argument("--c1", type=float, help="a-priori rule constant")
    sub.add_argument("--c2", type=float, help="a-priori rule constant")
    sub.add_argument("--gamma", type=float, help="a-priori rule exponent")
    sub.add_argument("--n0", type=int, help="explicit high-frequency band threshold")
    sub.add_argument(
        "--rde-literal-n0",
        action="store_true",
        default=None,
        help="use the literal floor(0.6 N^2) band threshold (degenerate on most sizes)",
    )
    sub.add_argument("--method", choices=_METHOD_CHOICES)


def _build_stopping(args):
    stop = _resolve(args, "stop", _one_of(_STOP_CHOICES))
    if stop == "rde":
        return RdeStop(
            tolerance=float(_resolve(args, "tol", float)),
            n0=_resolve(args, "n0", int),
            literal_formula=bool(_resolve(args, "rde_literal_n0", _parse_bool)),
        )
    if stop == "discrepancy":
        return DiscrepancyStop(delta=float(_resolve(args, "delta", float)))
    if stop == "a-priori":
        return AprioriStop(
            c1=float(_resolve(args, "c1", float)),
            c2=float(_resolve(args, "c2", float)),
            gamma=float(_resolve(args, "gamma", float)),
            delta=float(_resolve(args, "delta", float)),
        )
    return MaxStepsOnly()


def _build_config(args) -> SolverConfig:
    dt = str(_resolve(args, "dt", str))
    if dt == "auto":
        dt_rule, dt_fixed = "theorem", None
    else:
        dt_rule, dt_fixed = "fixed", _cast("dt", dt, float)
    return SolverConfig(
        exponent_p=float(_resolve(args, "p", float)),
        eta=float(_resolve(args, "eta", float)),
        epsilon=float(_resolve(args, "epsilon", float)),
        sigma=float(_resolve(args, "sigma", float)),
        dt_rule=dt_rule,
        dt_fixed=dt_fixed,
        safety=float(_resolve(args, "safety", float)),
        dt_max=_resolve(args, "dt_max", float),
        max_steps=int(_resolve(args, "max_steps", int)),
        stopping=_build_stopping(args),
    )


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"input file not found: {p}")
    return p


def _cmd_add_noise(args) -> int:
    src = _require_file(args.input)
    delta = float(_resolve(args, "delta", float))
    seed = int(_resolve(args, "seed", int))
    clean = read_pgm(src)
    noisy = add_noise(clean, NoiseSpec(delta=delta, seed=seed))
    out = _out_dir(args)
    stem = src.stem
    write_pgm(noisy, out / f"{stem}_noisy.pgm")
    (out / f"{stem}_noisy.txt").write_text(f"delta={delta:.17g}\nseed={seed}\n")
    print(f"wrote {out / f'{stem}_noisy.pgm'} (delta={delta:g}, seed={seed})")
    return 0


def _run_method(noisy: ImageGrid, config: SolverConfig, method: str):
    if method == "svddf" and config.dt_rule == "theorem" and config.safety * config.eta > 2.0:
        print(
            f"warning: --dt auto with safety*eta = {config.safety * config.eta:g} > 2 can be "
            "unstable; see README 'Stability of the spectral step rule'",
            file=sys.stderr,
        )
    runner = run_svddf if method == "svddf" else run_first_order
    return runner(noisy, config)


def _cmd_denoise(args) -> int:
    src = _require_file(args.input)
    clean_path = _require_file(args.clean) if args.clean else None
    config = _build_config(args)
    method = _resolve(args, "method", _one_of(_METHOD_CHOICES))
    noisy = read_pgm(src)
    out = _out_dir(args)
    stem = src.stem
    csv_path = out / f"{stem}_trajectory.csv"
    try:
        denoised, log = _run_method(noisy, config, method)
    except DivergenceError as err:
        if err.partial_log is not None:
            err.partial_log.to_csv(csv_path)
        print(f"error: {err}", file=sys.stderr)
        return 1
    write_pgm(denoised, out / f"{stem}_denoised.pgm")
    log.to_csv(csv_path)
    print(f"stopped by {log.stopped_by} after {log.final_step()} steps")
    if clean_path is not None:
        clean = read_pgm(clean_path)
        report = evaluate(clean, noisy, denoised)
        print(
            f"ssim noisy={report.ssim_noisy:.4f} denoised={report.ssim_denoised:.4f} "
            f"rel_err={report.rel_err_denoised:.4f} improved={report.improved}"
        )
        metrics_path = out / f"{stem}_metrics.csv"
        row = report_csv_row(stem, config.exponent_p, config.eta, log.final_step(), report)
        metrics_path.write_text(EVAL_CSV_HEADER + "\n" + row + "\n")
    return 0


def _parse_list(key: str, text: str):
    return [_cast(key, tok, float) for tok in text.split(",") if tok.strip() != ""]


def _dedupe(values, label):
    seen, out = set(), []
    for v in values:
        if v in seen:
            print(f"warning: duplicate {label} value {v:g} ignored", file=sys.stderr)
            continue
        seen.add(v)
        out.append(v)
    return out


def _cmd_sweep(args) -> int:
    src = _require_file(args.input)
    clean_path = _require_file(args.clean)
    etas = _dedupe(_parse_list("etas", args.etas), "eta")
    ps = _dedupe(_parse_list("ps", args.ps), "p")
    if not etas or not ps:
        raise SvddfError("eta and p lists must be non-empty")
    noisy = read_pgm(src)
    clean = read_pgm(clean_path)
    base = _build_config(args)
    method = _resolve(args, "method", _one_of(_METHOD_CHOICES))
    out = _out_dir(args)

    lines = ["p\\eta," + ",".join(f"{e:g}" for e in etas)]
    for p in ps:
        cells = []
        for eta in etas:
            config = dataclasses.replace(base, exponent_p=p, eta=eta)
            try:
                denoised, log = _run_method(noisy, config, method)
                value = ssim(denoised, clean)
                print(f"p={p:g} eta={eta:g}: ssim={value:.4f} ({log.final_step()} steps)")
            except SvddfError as err:
                value = math.nan
                print(f"p={p:g} eta={eta:g}: failed ({err})", file=sys.stderr)
            cells.append(f"{value:.17g}")
        lines.append(f"{p:g}," + ",".join(cells))
    sweep_path = out / "sweep.csv"
    sweep_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {sweep_path}")
    return 0


def _cmd_metrics(args) -> int:
    clean = read_pgm(_require_file(args.clean))
    noisy = read_pgm(_require_file(args.noisy))
    denoised = read_pgm(_require_file(args.denoised))
    report = evaluate(clean, noisy, denoised, SsimConfig())
    row = report_csv_row(Path(args.denoised).stem, float("nan"), float("nan"), 0, report)
    print(EVAL_CSV_HEADER)
    print(row)
    if args.out:
        out = _out_dir(args)
        (out / "metrics.csv").write_text(EVAL_CSV_HEADER + "\n" + row + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svddf",
        description="p-Laplacian damped-flow image denoising (PGM in, PGM + CSV out)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_noise = subs.add_parser("add-noise", help="apply multiplicative uniform noise")
    p_noise.add_argument("input", help="clean PGM image")
    p_noise.add_argument("--delta", type=float, help="relative noise level in [0, 1)")
    p_noise.add_argument("--seed", type=int, help="generator seed")
    p_noise.add_argument("--config")
    p_noise.add_argument("--out", help="output directory")
    p_noise.set_defaults(func=_cmd_add_noise)

    p_den = subs.add_parser("denoise", help="run a denoising flow")
    p_den.add_argument("input", help="noisy PGM image")
    p_den.add_argument("--clean", help="clean reference for metrics")
    p_den.add_argument("--out", help="output directory")
    _add_solver_flags(p_den)
    p_den.set_defaults(func=_cmd_denoise)

    p_sweep = subs.add_parser("sweep", help="grid of (p, eta) runs, SSIM table out")
    p_sweep.add_argument("input", help="noisy PGM image")
    p_sweep.add_argument("--clean", required=True, help="clean reference")
    p_sweep.add_argument("--etas", required=True, help="comma-separated damping values")
    p_sweep.add_argument("--ps", required=True, help="comma-separated exponents")
    p_sweep.add_argument("--out", help="output directory")
    _add_solver_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_met = subs.add_parser("metrics", help="evaluate a denoised image against references")
    p_met.add_argument("--clean", required=True)
    p_met.add_argument("--noisy", required=True)
    p_met.add_argument("--denoised", required=True)
    p_met.add_argument("--out", help="optional directory for metrics.csv")
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def _keep_freed_arrays_on_heap() -> None:
    """Stop glibc from returning freed image arrays to the kernel between steps.

    Every step frees and reallocates dozens of image-sized arrays.  Under
    glibc's dynamic defaults an array of at least 128 KiB (a 128 x 128
    float64 image) may be served by a fresh mmap, or the heap top trimmed,
    so a varying share of them costs fresh page faults on every step.  A
    fixed mmap threshold of 64 MiB and trim threshold of 256 MiB keep them
    on the heap.  Nothing happens where the C library has no mallopt; if
    glibc refuses the mmap threshold, the trim threshold is left alone too,
    since setting either one turns the dynamic thresholds off.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_arrays_on_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args._config_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
        return args.func(args)
    except (FileNotFoundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SvddfError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
