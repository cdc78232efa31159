"""Command-line front end: add-noise, denoise, sweep and metrics verbs.

Exit codes: 0 on success, 1 on numerical failure (divergence), 2 on usage
or I/O errors.  Flags override values from an optional plain key=value
config file (--config), which the flags' own types parse; every output is
deterministic for a fixed seed.
"""

import argparse
import ctypes
import math
import sys
from dataclasses import fields
from pathlib import Path

from .errors import DivergenceError, SvddfError
from .flow import SolverConfig, run_first_order, run_svddf, step_at_bound
from .grid import ImageGrid, NoiseSpec, add_noise
from .metrics import EVAL_CSV_HEADER, check_evaluate_inputs, check_ssim_inputs, evaluate, report_csv_row, ssim
from .pgm import read_pgm, write_pgm
from .stopping import AprioriStop, DiscrepancyStop, MaxStepsOnly, RdeStop

# glibc mallopt parameters and the values main sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 64 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


def _dt_value(text: str):
    """``'auto'`` for the spectral rule, else a fixed step length."""
    return text if text == "auto" else float(text)


def _config_default(name: str) -> str:
    """The default of ``SolverConfig``'s field ``name`` as text, which its flag parses back to that value exactly."""
    return str(next(f.default for f in fields(SolverConfig) if f.name == name))


# Every option a config file may set, declared once as key: (cast, default,
# help).  Its flag is --key with '-' for '_'; a tuple cast lists the accepted
# strings.  A default is a string parsed by the flag's type, like a config
# value; a solver value's is SolverConfig's.
_OPTIONS = {
    "p": (float, _config_default("exponent_p"), "diffusion exponent in [1, 2]"),
    "eta": (float, _config_default("eta"), "damping parameter"),
    "epsilon": (float, _config_default("epsilon"), "diffusivity regularisation"),
    "sigma": (float, _config_default("sigma"), "Gaussian smoothing variance"),
    "dt": (_dt_value, _config_default("dt"), "'auto' for the spectral rule or a fixed step length"),
    "max_steps": (int, _config_default("max_steps"), "step budget"),
    "stop": (("rde", "discrepancy", "a-priori", "none"), "rde", "stopping rule"),
    "tol": (float, "1e-4", "tolerance of the rde rule"),
    "delta": (float, "0.1", "relative noise level"),
    "c1": (float, "1", "a-priori rule constant"),
    "c2": (float, "1", "a-priori rule constant"),
    "gamma": (float, "1", "a-priori rule exponent"),
    "method": (("svddf", "first-order"), "svddf", "flow to run"),
    "seed": (int, "0", "generator seed"),
}
_NOISE_KEYS = ("delta", "seed")
_SOLVER_KEYS = tuple(key for key in _OPTIONS if key != "seed")
# each sweep cell takes its p and eta from --ps and --etas
_SWEEP_KEYS = tuple(key for key in _SOLVER_KEYS if key not in ("p", "eta"))


def _flag_type(key: str, cast):
    """argparse type: ``cast(text)``, or ``text`` if it is one of a tuple ``cast``.

    A malformed value is an error naming ``key``, whether it came from the
    command line or, as the verb's default, from a config file.
    """
    choices = cast if isinstance(cast, tuple) else None
    listed = f" (choose from {', '.join(map(repr, choices))})" if choices else ""

    def parse(text):
        try:
            if choices is None:
                return cast(text)
            if text in choices:
                return text
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"invalid value for {key}: {text!r}{listed}")

    return parse


def _add_options(sub, keys) -> None:
    sub.add_argument("--config", help="plain key=value config file; flags override it")
    for key in keys:
        cast, default, text = _OPTIONS[key]
        sub.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=_flag_type(key, cast),
            choices=cast if isinstance(cast, tuple) else None,
            default=default,
            help=text,
        )


def _read_config_file(path: str, command: str, keys) -> dict:
    """``key=value`` lines of ``path``; each key must be in ``keys``, the options of ``command``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SvddfError(f"{path}: not UTF-8 text: byte 0x{err.object[err.start]:02x} at offset {err.start}") from None
    values = {}
    # a byte-order mark is not part of the first key; utf-8-sig would shift the offsets above by 3
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SvddfError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise SvddfError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        values[key] = val.strip()
    return values


def _build_stopping(args):
    if args.stop == "rde":
        return RdeStop(tolerance=args.tol)
    if args.stop == "discrepancy":
        return DiscrepancyStop(delta=args.delta)
    if args.stop == "a-priori":
        return AprioriStop(c1=args.c1, c2=args.c2, gamma=args.gamma, delta=args.delta)
    return MaxStepsOnly()


def _build_config(args, p: float, eta: float) -> SolverConfig:
    return SolverConfig(
        exponent_p=p,
        eta=eta,
        epsilon=args.epsilon,
        sigma=args.sigma,
        dt=args.dt,
        max_steps=args.max_steps,
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
    delta, seed = args.delta, args.seed
    clean = read_pgm(src)
    noisy = add_noise(clean, NoiseSpec(delta=delta, seed=seed))
    out = _out_dir(args)
    stem = src.stem
    write_pgm(noisy, out / f"{stem}_noisy.pgm")
    (out / f"{stem}_noisy.txt").write_text(f"delta={delta:.17g}\nseed={seed}\n")
    print(f"wrote {out / f'{stem}_noisy.pgm'} (delta={delta:g}, seed={seed})")
    return 0


def _check_run(config: SolverConfig, method: str) -> None:
    """Warn of an unstable step or an a-priori stop at step 1; a theorem step of 0.0 or inf raises ``ParameterError``.

    Called before any run starts, so a refusal leaves nothing on disk.
    """
    dt, limit = step_at_bound(config, second_order=method == "svddf")
    if dt > limit:
        print(
            f"warning: where lambda_max reaches its bound on any image, --dt {config.dt} steps {dt!r} > "
            f"{limit!r}, the stable limit of {method} (p={config.exponent_p:g}, eta={config.eta:g}, epsilon="
            f"{config.epsilon:g}); see README 'Stability of the spectral step rule'",
            file=sys.stderr,
        )
    stop = config.stopping
    if isinstance(stop, AprioriStop) and stop.fired(math.nan, math.nan, dt):
        print(
            f"warning: the a-priori horizon T(delta) = {stop.horizon!r} is within the first step, which "
            f"--dt {config.dt} makes {dt!r} under {method}: the run stops after step 1",
            file=sys.stderr,
        )


def _run_method(noisy: ImageGrid, config: SolverConfig, method: str, keep_trajectory: bool = True):
    runner = run_svddf if method == "svddf" else run_first_order
    return runner(noisy, config, keep_trajectory=keep_trajectory)


def _cmd_denoise(args) -> int:
    src = _require_file(args.input)
    clean_path = _require_file(args.clean) if args.clean else None
    config = _build_config(args, args.p, args.eta)
    noisy = read_pgm(src)
    clean = None
    if clean_path is not None:
        clean = read_pgm(clean_path)
        check_evaluate_inputs(clean, noisy)  # a pair the report cannot score is refused before step 1
    _check_run(config, args.method)
    stem = src.stem
    csv_name = f"{stem}_trajectory.csv"
    try:
        denoised, log = _run_method(noisy, config, args.method)
    except DivergenceError as err:
        if err.partial_log is not None:
            err.partial_log.to_csv(_out_dir(args) / csv_name)
        print(f"error: {err}", file=sys.stderr)
        return 1
    out = _out_dir(args)
    write_pgm(denoised, out / f"{stem}_denoised.pgm")
    log.to_csv(out / csv_name)
    print(f"stopped by {log.stopped_by} after {log.steps} steps")
    if clean is not None:
        report = evaluate(clean, noisy, denoised)
        print(
            f"ssim noisy={report.ssim_noisy:.4f} denoised={report.ssim_denoised:.4f} "
            f"rel_err={report.rel_err_denoised:.4f} improved={report.improved}"
        )
        metrics_path = out / f"{stem}_metrics.csv"
        row = report_csv_row(stem, config.exponent_p, config.eta, log.steps, report)
        metrics_path.write_text(EVAL_CSV_HEADER + "\n" + row + "\n")
    return 0


def _dedupe(values, label):
    """The first of the ``values`` that print alike as ``f"{v:g}"``, the label every output names a cell by."""
    seen, out = set(), []
    for v in values:
        name = f"{v:g}"
        if name in seen:
            print(f"warning: duplicate {label} value {name} ignored", file=sys.stderr)
            continue
        seen.add(name)
        out.append(v)
    return out


def _cmd_sweep(args) -> int:
    src = _require_file(args.input)
    clean_path = _require_file(args.clean)
    etas = _dedupe(args.etas, "eta")
    ps = _dedupe(args.ps, "p")
    if not etas or not ps:
        raise SvddfError("eta and p lists must be non-empty")
    noisy = read_pgm(src)
    clean = read_pgm(clean_path)
    check_ssim_inputs(noisy, clean)
    # every cell's settings are checked before any cell runs
    configs = {(p, eta): _build_config(args, p, eta) for p in ps for eta in etas}
    for config in configs.values():
        _check_run(config, args.method)

    lines = ["p\\eta," + ",".join(f"{e:g}" for e in etas)]
    for p in ps:
        cells = []
        for eta in etas:
            config = configs[p, eta]
            try:
                # the table reports SSIM and the step count; no trajectory is written
                denoised, log = _run_method(noisy, config, args.method, keep_trajectory=False)
                value = ssim(denoised, clean)
                print(f"p={p:g} eta={eta:g}: ssim={value:.4f} ({log.steps} steps)")
            except DivergenceError as err:  # the cell's flow or its SSIM diverged
                value = math.nan
                print(f"p={p:g} eta={eta:g}: failed ({err})", file=sys.stderr)
            cells.append(f"{value:.17g}")
        lines.append(f"{p:g}," + ",".join(cells))
    sweep_path = _out_dir(args) / "sweep.csv"
    sweep_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {sweep_path}")
    return 0


def _cmd_metrics(args) -> int:
    clean = read_pgm(_require_file(args.clean))
    noisy = read_pgm(_require_file(args.noisy))
    denoised = read_pgm(_require_file(args.denoised))
    report = evaluate(clean, noisy, denoised)
    row = report_csv_row(Path(args.denoised).stem, float("nan"), float("nan"), 0, report)
    print(EVAL_CSV_HEADER)
    print(row)
    if args.out:
        out = _out_dir(args)
        (out / "metrics.csv").write_text(EVAL_CSV_HEADER + "\n" + row + "\n")
    return 0


def _float_list(key: str):
    """argparse type: comma-separated floats, a malformed one reported as for ``key``."""
    parse = _flag_type(key, float)
    return lambda text: [parse(tok) for tok in text.split(",") if tok.strip() != ""]


def build_parser():
    """The ``svddf`` parser and its verb parsers by name."""
    parser = argparse.ArgumentParser(
        prog="svddf",
        description="p-Laplacian damped-flow image denoising (PGM in, PGM + CSV out)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # no verb takes abbreviated flags: one could land on another option, as sweep's --p on --ps
    p_noise = subs.add_parser("add-noise", help="apply multiplicative uniform noise", allow_abbrev=False)
    p_noise.add_argument("input", help="clean PGM image")
    p_noise.add_argument("--out", help="output directory")
    _add_options(p_noise, _NOISE_KEYS)
    p_noise.set_defaults(func=_cmd_add_noise)

    p_den = subs.add_parser("denoise", help="run a denoising flow", allow_abbrev=False)
    p_den.add_argument("input", help="noisy PGM image")
    p_den.add_argument("--clean", help="clean reference for metrics")
    p_den.add_argument("--out", help="output directory")
    _add_options(p_den, _SOLVER_KEYS)
    p_den.set_defaults(func=_cmd_denoise)

    p_sweep = subs.add_parser("sweep", help="grid of (p, eta) runs, SSIM table out", allow_abbrev=False)
    p_sweep.add_argument("input", help="noisy PGM image")
    p_sweep.add_argument("--clean", required=True, help="clean reference")
    p_sweep.add_argument(
        "--etas", required=True, type=_float_list("etas"), help="comma-separated damping values"
    )
    p_sweep.add_argument("--ps", required=True, type=_float_list("ps"), help="comma-separated exponents")
    p_sweep.add_argument("--out", help="output directory")
    _add_options(p_sweep, _SWEEP_KEYS)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_met = subs.add_parser("metrics", help="evaluate a denoised image against references", allow_abbrev=False)
    p_met.add_argument("--clean", required=True)
    p_met.add_argument("--noisy", required=True)
    p_met.add_argument("--denoised", required=True)
    p_met.add_argument("--out", help="optional directory for metrics.csv")
    p_met.set_defaults(func=_cmd_metrics)
    return parser, subs.choices


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


def _parse_args(argv):
    """Parse ``argv``; the values of a --config file become the verb's defaults.

    argparse applies a flag's type to a string default that the command line
    leaves alone, so a config value is parsed, and rejected, as its flag
    would be.  With a config file, argv is parsed again once those defaults
    are set.
    """
    parser, verbs = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # the keys of this verb's options: its parser sets an attribute for each
        keys = _OPTIONS.keys() & vars(args).keys()
        verbs[args.command].set_defaults(**_read_config_file(args.config, args.command, keys))
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    _keep_freed_arrays_on_heap()
    try:
        args = _parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as err:
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
