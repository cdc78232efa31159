"""Structural-similarity evaluation of denoising results.

SSIM is the standard windowed form of Wang et al. (IEEE TIP 2004): local
means, variances and covariance under an 11x11 Gaussian window of standard
deviation 1.5, stabilisers C1 = (K1*L)^2 and C2 = (K2*L)^2 with K1 = 0.01,
K2 = 0.03 and the dynamic range L = 1, and the mean taken over valid window
positions only (no padding), so results are reproducible to the letter.
"""

from dataclasses import dataclass

import numpy as np

from .diffusivity import _paired_pass
from .errors import DimensionError, DivergenceError, ParameterError
from .grid import ImageGrid, rel_l2, vec

# the constants of Wang et al.; no caller varies them
WINDOW = 11
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03
DYNAMIC_RANGE = 1.0


def _window_taps() -> np.ndarray:
    r = (WINDOW - 1) // 2
    t = np.arange(-r, r + 1, dtype=np.float64)
    w = np.exp(-(t**2) / (2.0 * WINDOW_SIGMA**2))
    w /= w.sum()
    w.flags.writeable = False
    return w


_TAPS = _window_taps()
_C1 = (K1 * DYNAMIC_RANGE) ** 2
_C2 = (K2 * DYNAMIC_RANGE) ** 2


def _local_mean(img: np.ndarray) -> np.ndarray:
    """Window means over valid positions: the taps along both axes."""
    r = (WINDOW - 1) // 2
    m, n = img.shape[0] - 2 * r, img.shape[1] - 2 * r
    # valid mode: the image's margins stand in for padding; contiguous scratch is faster
    first = (m, img.shape[1])
    down = _paired_pass(img, 0, m, _TAPS, True, np.empty(first), np.empty(first))
    return _paired_pass(down, 1, n, _TAPS, True, np.empty((m, n)), np.empty((m, n)))


def ssim(u: ImageGrid, ref: ImageGrid) -> float:
    """Mean local SSIM between two images of equal shape.

    Raises DivergenceError when the score is not finite: an image holds
    values so large that the local moments overflow.
    """
    if u.shape != ref.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {ref.shape}")
    if u.rows < WINDOW or u.cols < WINDOW:
        raise ParameterError(f"image {u.shape} smaller than the {WINDOW}x{WINDOW} window")
    x, y = u.pixels, ref.pixels
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu_x = _local_mean(x)
        mu_y = _local_mean(y)
        var_x = _local_mean(x * x) - mu_x**2
        var_y = _local_mean(y * y) - mu_y**2
        cov = _local_mean(x * y) - mu_x * mu_y
        ssim_map = ((2.0 * mu_x * mu_y + _C1) * (2.0 * cov + _C2)) / (
            (mu_x**2 + mu_y**2 + _C1) * (var_x + var_y + _C2)
        )
        value = float(ssim_map.mean())
    if not np.isfinite(value):
        raise DivergenceError(f"SSIM is not finite: the local moments of the {u.rows}x{u.cols} image overflow")
    return value


@dataclass(frozen=True)
class EvalReport:
    ssim_noisy: float
    ssim_denoised: float
    rel_err_denoised: float
    improved: bool


def evaluate(clean: ImageGrid, noisy: ImageGrid, denoised: ImageGrid) -> EvalReport:
    """SSIM of both the noisy input and the result against clean, and the result's relative error."""
    if not (clean.shape == noisy.shape == denoised.shape):
        raise DimensionError(
            f"shape mismatch: clean {clean.shape}, noisy {noisy.shape}, denoised {denoised.shape}"
        )
    s_noisy = ssim(noisy, clean)
    s_den = ssim(denoised, clean)
    return EvalReport(
        ssim_noisy=s_noisy,
        ssim_denoised=s_den,
        rel_err_denoised=rel_l2(vec(denoised), vec(clean)),
        improved=s_den > s_noisy,
    )


def report_csv_row(image_id: str, p: float, eta: float, steps: int, report: EvalReport) -> str:
    """Row matching the header image_id,p,eta,steps,ssim_noisy,ssim_denoised,rel_err."""
    return (
        f"{image_id},{p:.17g},{eta:.17g},{steps},"
        f"{report.ssim_noisy:.17g},{report.ssim_denoised:.17g},{report.rel_err_denoised:.17g}"
    )


EVAL_CSV_HEADER = "image_id,p,eta,steps,ssim_noisy,ssim_denoised,rel_err"
