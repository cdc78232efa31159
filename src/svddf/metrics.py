"""Structural-similarity evaluation of denoising results.

SSIM is the standard windowed form of Wang et al. (IEEE TIP 2004): local
means, variances and covariance under an 11x11 Gaussian window of standard
deviation 1.5, stabilisers C1 = (K1*L)^2 and C2 = (K2*L)^2 with K1 = 0.01,
K2 = 0.03 and the dynamic range L = 1, and the mean taken over valid window
positions only (no padding), so results are reproducible to the letter.
"""

from dataclasses import dataclass

import numpy as np

from .diffusivity import GaussianKernel, _correlate_columns
from .errors import DimensionError, DivergenceError, ParameterError
from .grid import ImageGrid, _reference_norm, rel_l2, vec

# the constants of Wang et al.; no caller varies them
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03
DYNAMIC_RANGE = 1.0

# the window's taps: variance 2.25, truncated at radius ceil(3 * 1.5) = 5 and renormalised
_KERNEL = GaussianKernel(WINDOW_SIGMA**2)
WINDOW = len(_KERNEL.g)  # 11
_C1 = (K1 * DYNAMIC_RANGE) ** 2
_C2 = (K2 * DYNAMIC_RANGE) ** 2


def _local_mean(img: np.ndarray) -> np.ndarray:
    """Window means over valid positions: the taps down the columns, then along the rows."""
    # valid mode: the image's margins stand in for padding
    return _correlate_columns(_correlate_columns(img, _KERNEL.g).T, _KERNEL.g).T


def check_ssim_inputs(u: ImageGrid, ref: ImageGrid) -> None:
    """Refuse a pair :func:`ssim` cannot score: unequal shapes, or smaller than the window."""
    if u.shape != ref.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {ref.shape}")
    if min(u.shape) < WINDOW:
        raise ParameterError(f"image {u.shape} smaller than the {WINDOW}x{WINDOW} window")


def check_evaluate_inputs(clean: ImageGrid, noisy: ImageGrid) -> None:
    """Refuse what :func:`evaluate` cannot score: a pair :func:`ssim` refuses, or a clean image of zero norm."""
    check_ssim_inputs(noisy, clean)
    _reference_norm(clean.pixels, "clean image")


def ssim(u: ImageGrid, ref: ImageGrid) -> float:
    """Mean local SSIM between two images of equal shape, at least WINDOW x WINDOW.

    Raises DivergenceError when the score is not finite: an image holds
    values so large that the local moments overflow.
    """
    check_ssim_inputs(u, ref)
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
        raise DivergenceError(f"SSIM is not finite: the local moments of the {u.shape[0]}x{u.shape[1]} image overflow")
    return value


@dataclass(frozen=True)
class EvalReport:
    ssim_noisy: float
    ssim_denoised: float
    rel_err_denoised: float
    improved: bool


def evaluate(clean: ImageGrid, noisy: ImageGrid, denoised: ImageGrid) -> EvalReport:
    """SSIM of both the noisy input and the result against clean, and the result's relative error.

    Unequal shapes raise DimensionError; then what :func:`check_evaluate_inputs`
    refuses is refused before any score is formed.
    """
    if not (clean.shape == noisy.shape == denoised.shape):
        raise DimensionError(
            f"shape mismatch: clean {clean.shape}, noisy {noisy.shape}, denoised {denoised.shape}"
        )
    check_evaluate_inputs(clean, noisy)
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
