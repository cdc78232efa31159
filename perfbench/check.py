"""Benchmark inputs and output checks, written independently of ``svddf``.

The benchmark process never imports the program: it makes its own inputs
(the remapped disk with multiplicative uniform noise), reads the PGM and
CSV files the program writes, and scores them with its own SSIM.  Each
check returns a list of problems and the facts it read, among them how
many operations the run made (one denoise, or one per sweep cell) and how
many of them failed.
"""

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NOISE_AMPLITUDE = 0.54
# the program writes 8-bit PGM; its own SSIM is taken before that rounding
SSIM_AGREEMENT = 0.01
_STOP_LINE = re.compile(r"^stopped by (\S+) after (\d+) steps$", re.MULTILINE)
_CELL_LINE = re.compile(r"^p=(\S+) eta=(\S+): ssim=(\S+) \((\d+) steps\)$", re.MULTILINE)
# per-step columns of the trajectory CSV that must be finite on every row
_FINITE_COLUMNS = ("t", "dt", "vnorm", "rde", "sigma", "kinetic", "potential")


def disk_image(n: int) -> np.ndarray:
    """Centred disk of radius n/4 remapped to 0.25 outside, 0.75 inside."""
    c, r = (n - 1) / 2.0, n / 4.0
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return 0.25 + 0.5 * ((i - c) ** 2 + (j - c) ** 2 <= r * r)


def noisy_image(clean: np.ndarray, seed: int) -> np.ndarray:
    """Multiply each pixel by a factor uniform in [1 - a, 1 + a], a = 0.54."""
    rng = np.random.default_rng(seed)
    return clean * (1.0 + NOISE_AMPLITUDE * (2.0 * rng.random(clean.shape) - 1.0))


def write_pgm16(path: Path, img: np.ndarray) -> None:
    """16-bit binary PGM; values are clipped to [0, 1] as any PGM must be."""
    rows, cols = img.shape
    payload = np.rint(np.clip(img, 0.0, 1.0) * 65535).astype(">u2").tobytes()
    Path(path).write_bytes(f"P5\n{cols} {rows}\n65535\n".encode("ascii") + payload)


def read_pgm(path: Path) -> np.ndarray:
    """Read a binary PGM with the plain ``P5\\n<W> <H>\\n<maxval>\\n`` header."""
    magic, dims, maxval, payload = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    cols, rows = (int(tok) for tok in dims.split())
    maxval = int(maxval)
    dtype = ">u2" if maxval > 255 else np.uint8
    raw = np.frombuffer(payload, dtype=dtype, count=rows * cols)
    return raw.reshape(rows, cols).astype(np.float64) / maxval


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean SSIM over valid 11x11 Gaussian (sigma 1.5) windows, k1 0.01, k2 0.03."""
    t = np.arange(-5, 6, dtype=np.float64)
    w = np.exp(-(t**2) / 4.5)
    w /= w.sum()

    def mean(a):
        a = sliding_window_view(a, 11, axis=0) @ w
        return sliding_window_view(a, 11, axis=1) @ w

    mx, my = mean(x), mean(y)
    vx, vy, cxy = mean(x * x) - mx**2, mean(y * y) - my**2, mean(x * y) - mx * my
    c1, c2 = 0.01**2, 0.03**2
    smap = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx**2 + my**2 + c1) * (vx + vy + c2))
    return float(smap.mean())


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_hashes(out_dir: Path) -> dict:
    """SHA-256 of every file the program wrote, for the byte-identity check."""
    return {p.name: sha256(p) for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_trajectory(path: Path, steps: int, dt_auto: bool) -> list:
    """Rows 1..steps in order, every logged quantity finite.

    ``lambda_max`` is only logged under the spectral (auto) step rule; a
    fixed step writes NaN there.
    """
    if not Path(path).is_file():
        return [f"missing trajectory CSV {Path(path).name}"]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [r.get("step") for r in rows] != [str(k) for k in range(1, steps + 1)]:
        problems.append(f"trajectory steps are not 1..{steps}")
    columns = _FINITE_COLUMNS + (("lambda_max",) if dt_auto else ())
    for r in rows:
        bad = [c for c in columns if not _finite(r.get(c) or "")]
        if bad:
            problems.append(f"non-finite {','.join(bad)} at step {r.get('step')}")
            break
    return problems


def check_denoise(out_dir: Path, stem: str, rc, stdout: str, expect_stop: str,
                  dt_auto: bool, clean: np.ndarray, noisy: np.ndarray):
    """Problems with one ``denoise`` run, which is one operation, and the facts
    read from its outputs."""
    info = {"steps": 0, "ssim": 0.0, "ops": 1, "failed_ops": 1}
    if rc != 0:
        return [f"exit code {rc}"], info
    found = _STOP_LINE.findall(stdout)
    if len(found) != 1:
        return ["no 'stopped by' line on stdout"], info
    reason, steps = found[0][0], int(found[0][1])
    info["steps"] = steps
    problems = []
    if reason != expect_stop:
        problems.append(f"stopped by {reason}, expected {expect_stop}")
    out_dir = Path(out_dir)
    problems += check_trajectory(out_dir / f"{stem}_trajectory.csv", steps, dt_auto)
    denoised_path = out_dir / f"{stem}_denoised.pgm"
    if not denoised_path.is_file():
        return problems + ["missing denoised PGM"], info
    try:
        denoised = read_pgm(denoised_path)
    except ValueError as err:
        return problems + [f"unreadable denoised PGM: {err}"], info
    if denoised.shape != clean.shape:
        return problems + [f"denoised shape {denoised.shape} != {clean.shape}"], info
    info["ssim"] = ssim(denoised, clean)
    noisy_ssim = ssim(noisy, clean)
    if not info["ssim"] > noisy_ssim:
        problems.append(f"no SSIM gain: {info['ssim']:.4f} <= noisy {noisy_ssim:.4f}")
    metrics_path = out_dir / f"{stem}_metrics.csv"
    if not metrics_path.is_file():
        return problems + ["missing metrics CSV"], info
    with open(metrics_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    reported = float(rows[0]["ssim_denoised"]) if len(rows) == 1 else math.nan
    if not abs(reported - info["ssim"]) <= SSIM_AGREEMENT:
        problems.append(f"program SSIM {reported} disagrees with {info['ssim']:.4f}")
    info["failed_ops"] = int(bool(problems))
    return problems, info


def check_sweep(out_dir: Path, rc, stdout: str, ps, etas, gain_etas,
                clean: np.ndarray, noisy: np.ndarray):
    """Problems with one ``sweep`` run and the facts read from its outputs.

    Each (p, eta) cell is one operation.  A cell fails if its table entry is
    not finite and in [-1, 1], if stdout has no ``ssim=`` line for it, if
    the table and stdout disagree to the 4 decimals stdout prints, or if a
    cell with eta in ``gain_etas`` does not beat the noisy input's SSIM.  A
    problem with the run as a whole (exit code, missing or misshapen table)
    fails every cell.  ``info["ssim"]`` is the mean of the cells that pass,
    all of the table on a correct run: the figure the program reports, since
    the benchmark has no denoised image to score.
    """
    cells = len(ps) * len(etas)
    info = {"steps": 0, "ssim": 0.0, "ops": cells, "failed_ops": cells}
    if rc != 0:
        return [f"exit code {rc}"], info
    path = Path(out_dir) / "sweep.csv"
    if not path.is_file():
        return ["missing sweep.csv"], info
    lines = path.read_text().splitlines()
    header = "p\\eta," + ",".join(f"{e:g}" for e in etas)
    if not lines or lines[0] != header:
        return [f"sweep header {lines[:1]} != {header!r}"], info
    body = [line.split(",") for line in lines[1:]]
    if [row[0] for row in body] != [f"{p:g}" for p in ps]:
        return ["sweep rows do not match the p list"], info
    if any(len(row) != len(etas) + 1 for row in body):
        return ["sweep rows have the wrong number of cells"], info

    printed = {(p, e): (value, int(steps)) for p, e, value, steps in _CELL_LINE.findall(stdout)}
    noisy_ssim = ssim(noisy, clean)
    problems, values = [], []
    for p, row in zip(ps, body):
        for eta, text in zip(etas, row[1:]):
            cell = f"p={p:g} eta={eta:g}"
            if not (_finite(text) and -1.0 <= float(text) <= 1.0):
                problems.append(f"{cell}: non-finite or out-of-range cell {text!r}")
                continue
            value = float(text)
            if (f"{p:g}", f"{eta:g}") not in printed:
                problems.append(f"{cell}: no ssim line on stdout")
                continue
            shown, steps = printed[(f"{p:g}", f"{eta:g}")]
            info["steps"] += steps
            if f"{value:.4f}" != shown:
                problems.append(f"{cell}: table {value:.4f} != stdout {shown}")
            elif eta in gain_etas and not value > noisy_ssim:
                problems.append(f"{cell}: no SSIM gain: {value:.4f} <= noisy {noisy_ssim:.4f}")
            else:
                values.append(value)
    info["failed_ops"] = cells - len(values)
    if values:
        info["ssim"] = float(np.mean(values))
    return problems, info
