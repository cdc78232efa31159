"""Structural-similarity evaluation of denoising results.

SSIM follows the standard windowed form: 11x11 Gaussian-weighted local
means, variances and covariance, stabilisers C1 = (k1*L)^2 and
C2 = (k2*L)^2, and the mean taken over valid window positions only (no
padding), so results are reproducible to the letter.
"""

from dataclasses import dataclass

import numpy as np

from .diffusivity import _paired_pass
from .errors import DimensionError, ParameterError
from .grid import ImageGrid, rel_l2, vec


@dataclass(frozen=True)
class SsimConfig:
    window: int = 11
    window_sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ParameterError(f"window must be odd and >= 3, got {self.window}")
        if not (self.k1 > 0 and self.k2 > 0):
            raise ParameterError("k1 and k2 must be positive")
        if not (self.window_sigma > 0 and self.dynamic_range > 0):
            raise ParameterError("window_sigma and dynamic_range must be positive")

    def taps(self) -> np.ndarray:
        r = (self.window - 1) // 2
        t = np.arange(-r, r + 1, dtype=np.float64)
        w = np.exp(-(t**2) / (2.0 * self.window_sigma**2))
        return w / w.sum()


def _local_mean(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Weighted window means over valid positions: taps along both axes."""
    r = (taps.shape[0] - 1) // 2
    m, n = img.shape[0] - 2 * r, img.shape[1] - 2 * r
    # valid mode: the image's margins stand in for padding; contiguous scratch is faster
    first = (m, img.shape[1])
    down = _paired_pass(img, 0, m, taps, True, np.empty(first), np.empty(first))
    return _paired_pass(down, 1, n, taps, True, np.empty((m, n)), np.empty((m, n)))


def ssim(u: ImageGrid, ref: ImageGrid, cfg: SsimConfig = SsimConfig()) -> float:
    """Mean local SSIM between two images of equal shape."""
    if u.shape != ref.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {ref.shape}")
    if u.rows < cfg.window or u.cols < cfg.window:
        raise ParameterError(f"image {u.shape} smaller than the {cfg.window}x{cfg.window} window")
    x, y = u.pixels, ref.pixels
    w = cfg.taps()
    mu_x = _local_mean(x, w)
    mu_y = _local_mean(y, w)
    var_x = _local_mean(x * x, w) - mu_x**2
    var_y = _local_mean(y * y, w) - mu_y**2
    cov = _local_mean(x * y, w) - mu_x * mu_y
    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    ssim_map = ((2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)) / (
        (mu_x**2 + mu_y**2 + c1) * (var_x + var_y + c2)
    )
    return float(ssim_map.mean())


@dataclass(frozen=True)
class EvalReport:
    ssim_noisy: float
    ssim_denoised: float
    rel_err_noisy: float
    rel_err_denoised: float
    improved: bool


def evaluate(
    clean: ImageGrid,
    noisy: ImageGrid,
    denoised: ImageGrid,
    cfg: SsimConfig = SsimConfig(),
) -> EvalReport:
    """SSIM and relative error of both the noisy input and the result against clean."""
    if not (clean.shape == noisy.shape == denoised.shape):
        raise DimensionError(
            f"shape mismatch: clean {clean.shape}, noisy {noisy.shape}, denoised {denoised.shape}"
        )
    s_noisy = ssim(noisy, clean, cfg)
    s_den = ssim(denoised, clean, cfg)
    return EvalReport(
        ssim_noisy=s_noisy,
        ssim_denoised=s_den,
        rel_err_noisy=rel_l2(vec(noisy), vec(clean)),
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
