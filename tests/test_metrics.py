import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svddf
from svddf import ImageGrid, evaluate, rel_l2, ssim, vec
from svddf.metrics import DYNAMIC_RANGE, K1, K2, WINDOW, WINDOW_SIGMA

from conftest import random_grid
from oracles import ssim_reference


class TestSsim:
    def test_identical_images(self, rng):
        g = random_grid(rng, 16, 16)
        assert ssim(g, g) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        a = random_grid(rng, 14, 18)
        b = random_grid(rng, 14, 18)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_constant_pair_closed_form(self):
        a = ImageGrid(np.full((16, 16), 0.5))
        b = ImageGrid(np.full((16, 16), 0.75))
        c1 = (K1 * DYNAMIC_RANGE) ** 2
        c2 = (K2 * DYNAMIC_RANGE) ** 2
        expected = ((2 * 0.5 * 0.75 + c1) * c2) / ((0.25 + 0.5625 + c1) * c2)
        assert ssim(a, b) == pytest.approx(expected, rel=1e-12)

    def test_matches_windowed_reference(self, rng):
        a = random_grid(rng, 16, 14)
        b = random_grid(rng, 16, 14)
        ref = ssim_reference(a.pixels, b.pixels, WINDOW, WINDOW_SIGMA, K1, K2, DYNAMIC_RANGE)
        assert ssim(a, b) == pytest.approx(ref, abs=1e-10)

    def test_bounded(self, rng):
        for _ in range(5):
            a = random_grid(rng, 13, 13)
            b = random_grid(rng, 13, 13)
            val = ssim(a, b)
            assert -1.0 <= val <= 1.0

    def test_shift_of_identical_images_is_exactly_invariant(self, rng):
        a = random_grid(rng, 16, 16, lo=0.2, hi=0.6)
        base = ssim(a, a)
        shifted = ssim(ImageGrid(a.pixels + 0.1), ImageGrid(a.pixels + 0.1))
        assert abs(shifted - base) < 1e-9

    def test_shift_both_images_changes_little(self, rng):
        # the luminance term is only shift invariant where local means agree,
        # so distinct images move slightly with a common offset
        a = random_grid(rng, 16, 16, lo=0.2, hi=0.6)
        b = random_grid(rng, 16, 16, lo=0.2, hi=0.6)
        base = ssim(a, b)
        shifted = ssim(ImageGrid(a.pixels + 0.1), ImageGrid(b.pixels + 0.1))
        assert abs(shifted - base) < 0.05

    def test_dimension_errors(self, rng):
        a = random_grid(rng, 16, 16)
        with pytest.raises(svddf.DimensionError):
            ssim(a, random_grid(rng, 16, 15))
        with pytest.raises(svddf.ParameterError):
            ssim(random_grid(rng, 8, 8), random_grid(rng, 8, 8))  # smaller than window

    def test_overflowing_moments_raise_divergence(self, rng):
        # finite pixels whose squares overflow, scored without a RuntimeWarning
        huge = ImageGrid(rng.uniform(-1.0, 1.0, size=(16, 16)) * 1e200)
        with pytest.raises(svddf.DivergenceError, match="SSIM is not finite"):
            ssim(huge, random_grid(rng, 16, 16))
        with pytest.raises(svddf.DivergenceError):
            evaluate(random_grid(rng, 16, 16), random_grid(rng, 16, 16), huge)


class TestEvaluate:
    def test_perfect_denoising(self, rng):
        clean = random_grid(rng, 16, 16)
        noisy = random_grid(rng, 16, 16)
        rep = evaluate(clean, noisy, clean)
        assert rep.ssim_denoised == pytest.approx(1.0, abs=1e-12)
        assert rep.rel_err_denoised == 0.0
        assert rep.improved

    def test_identity_denoiser_not_improved(self, rng):
        clean = random_grid(rng, 16, 16)
        noisy = random_grid(rng, 16, 16)
        rep = evaluate(clean, noisy, noisy)
        assert rep.ssim_noisy == rep.ssim_denoised
        assert not rep.improved

    def test_csv_row_format(self, rng):
        clean = random_grid(rng, 16, 16)
        rep = evaluate(clean, clean, clean)
        row = svddf.metrics.report_csv_row("img", 1.0, 300.0, 42, rep)
        fields = row.split(",")
        assert fields[0] == "img"
        assert fields[3] == "42"
        assert float(fields[5]) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self, rng):
        clean, noisy = random_grid(rng, 16, 16), random_grid(rng, 16, 16)
        with pytest.raises(svddf.DimensionError) as err:
            evaluate(clean, noisy, random_grid(rng, 16, 15))
        assert str(err.value) == "shape mismatch: clean (16, 16), noisy (16, 16), denoised (16, 15)"


def test_rel_l2_triangle_consistency(rng):
    for _ in range(10):
        u = rng.standard_normal(40)
        v = rng.standard_normal(40)
        w = rng.standard_normal(40)
        lhs = rel_l2(u, w)
        rhs = (np.linalg.norm(u - v) + np.linalg.norm(v - w)) / np.linalg.norm(w)
        assert lhs <= rhs + 1e-12


def test_cross_check_against_skimage(rng):
    skimage = pytest.importorskip("skimage.metrics")
    a = random_grid(rng, 32, 32)
    b = random_grid(rng, 32, 32)
    ours = ssim(a, b)
    theirs = skimage.structural_similarity(
        a.pixels,
        b.pixels,
        win_size=11,
        gaussian_weights=True,
        sigma=1.5,
        use_sample_covariance=False,
        data_range=1.0,
    )
    # border handling differs (they pad and crop); expect close agreement
    assert ours == pytest.approx(theirs, abs=5e-3)


# from one valid window position up to 20 x 20
_shapes = st.tuples(st.integers(WINDOW, 20), st.integers(WINDOW, 20))


@given(shape=_shapes, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_ssim_matches_windowed_reference_over_windows_and_shapes(shape, seed):
    rng = np.random.default_rng(seed)
    a = random_grid(rng, *shape)
    b = random_grid(rng, *shape)
    ref = ssim_reference(a.pixels, b.pixels, WINDOW, WINDOW_SIGMA, K1, K2, DYNAMIC_RANGE)
    assert ssim(a, b) == pytest.approx(ref, abs=1e-10)


class TestPinnedBits:
    """Exact SSIM floats, recorded from the windowed implementation; any change to its arithmetic shows here."""

    def test_ssim_16x14_pair(self):
        rng = np.random.default_rng(20260101)
        a = ImageGrid(rng.uniform(size=(16, 14)))
        b = ImageGrid(rng.uniform(size=(16, 14)))
        assert ssim(a, b) == float.fromhex("-0x1.ab2621126ecd5p-5")
        assert ssim(b, a) == float.fromhex("-0x1.ab2621126ecd5p-5")

    def test_ssim_64x64_pair(self):
        rng = np.random.default_rng(20260102)
        ref = ImageGrid(rng.uniform(size=(64, 64)))
        u = ImageGrid(np.clip(ref.pixels + 0.1 * rng.standard_normal((64, 64)), 0.0, 1.0))
        assert ssim(u, ref) == float.fromhex("0x1.e58889e8f6c69p-1")

    def test_evaluate_fields(self):
        clean = ImageGrid(0.25 + 0.5 * svddf.synth_image("disk", 24, 24).pixels)
        noisy = svddf.add_noise(clean, svddf.NoiseSpec(0.3, seed=4))
        denoised = ImageGrid(0.5 * (noisy.pixels + clean.pixels))
        rep = evaluate(clean, noisy, denoised)
        assert rep.ssim_noisy == float.fromhex("0x1.9886afb8d3b59p-1")
        assert rep.ssim_denoised == float.fromhex("0x1.d0b53ff8a18a2p-1")
        assert rep.rel_err_denoised == float.fromhex("0x1.691ab88473338p-4")
        assert rep.improved
