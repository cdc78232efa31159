import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svddf
from svddf import GaussianKernel, ImageGrid, diffusivity_half, grad_gaussian
from svddf.diffusivity import MAX_RADIUS, _pad_symmetric

from conftest import random_grid
from oracles import dense_correlate_symmetric, halfpoint_diffusivity


class TestKernel:
    def test_default_radius(self):
        k = GaussianKernel(1.0)
        assert k.radius == 3
        assert GaussianKernel(4.0).radius == 6

    def test_derivative_kernels_sum_to_zero(self):
        for sigma in (0.5, 1.0, 2.5):
            k = GaussianKernel(sigma)
            assert abs(k.dg.sum()) <= 1e-12

    def test_base_kernel_normalised(self):
        assert GaussianKernel(1.7).g.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_non_positive_sigma_rejected(self, sigma):
        with pytest.raises(svddf.ParameterError) as err:
            GaussianKernel(sigma)
        assert str(err.value) == f"sigma must be positive, got {sigma}"

    def test_infinite_sigma_rejected(self):
        # refused before ceil(3 * sqrt(sigma)) is formed: the radius of inf has no integer value
        with pytest.raises(svddf.ParameterError) as err:
            GaussianKernel(math.inf)
        assert str(err.value) == "sigma must be finite, got inf"

    @pytest.mark.parametrize("make", [GaussianKernel, lambda sigma: svddf.SolverConfig(sigma=sigma)])
    def test_int_sigma_past_the_float_range_rejected(self, make):
        # math.sqrt cannot take 10**400; it reads as inf
        with pytest.raises(svddf.ParameterError) as err:
            make(10**400)
        assert str(err.value) == "sigma must be finite, got inf"

    @pytest.mark.parametrize("sigma", [1e-320, 5.5e-309])
    def test_sigma_whose_derivative_taps_overflow_rejected(self, sigma):
        # radius 1: the taps t/sigma = +-1/sigma overflow to inf, and inf * 0 would be nan
        with pytest.raises(svddf.ParameterError) as err:
            GaussianKernel(sigma)
        assert str(err.value) == f"sigma = {sigma} is too small: the derivative taps t/sigma overflow"

    def test_smallest_sigma_with_finite_taps_accepted(self):
        k = GaussianKernel(6e-309)
        assert k.g.tolist() == [0.0, 1.0, 0.0]
        assert np.isfinite(k.dg).all()

    def test_widest_kernel_has_radius_max_radius(self):
        # (256 / 3)**2 = 7281.78 is the largest sigma of radius 256; past it the padding and every pass
        # would grow with sigma whatever the image size (at 1e8 a 2x2 image padded to 60002 x 60002)
        assert GaussianKernel(7281.7).radius == MAX_RADIUS == 256
        with pytest.raises(svddf.ParameterError) as err:
            GaussianKernel(7281.8)
        assert str(err.value) == "sigma = 7281.8 is too large: radius 257 needs 515 taps, more than the 513 of radius 256"

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.7, 4.0])
    def test_radius_is_read_from_the_taps(self, sigma):
        k = GaussianKernel(sigma)
        assert k.radius == (len(k.g) - 1) // 2 == (len(k.dg) - 1) // 2

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.7, 4.0])
    def test_taps_are_mirror_even_and_odd_to_the_bit(self, sigma):
        # each tap is formed from t^2 and t alone, so correlating with g and dg is
        # convolving with g and -dg: the lattice has no preferred direction
        k = GaussianKernel(sigma)
        assert np.array_equal(k.g, k.g[::-1]) and np.array_equal(k.dg, -k.dg[::-1])

    def test_a_kernel_is_its_sigma(self):
        k = GaussianKernel(1.0)
        assert [f.name for f in dataclasses.fields(GaussianKernel) if f.init] == ["sigma"]
        assert k == GaussianKernel(1.0) and hash(k) == hash(GaussianKernel(1.0))
        assert k != GaussianKernel(4.0)
        wider = dataclasses.replace(k, sigma=4.0)
        assert wider.radius == 6
        assert np.array_equal(wider.g, GaussianKernel(4.0).g) and np.array_equal(wider.dg, GaussianKernel(4.0).dg)
        with pytest.raises(TypeError):
            GaussianKernel(1.0, k.g, k.dg)

    @pytest.mark.parametrize("args", [("1",), ()])
    def test_sigma_must_be_a_given_number(self, args):
        with pytest.raises(TypeError):
            GaussianKernel(*args)


class TestGradGaussian:
    def test_constant_image_zero_gradient(self):
        g = ImageGrid(np.full((10, 12), 0.37))
        gx, gy = grad_gaussian(g, GaussianKernel(1.0))
        assert np.max(np.abs(gx)) <= 1e-12
        assert np.max(np.abs(gy)) <= 1e-12

    def test_ramp_interior_slope(self):
        m, n = 12, 16
        px = np.tile(np.arange(n, dtype=np.float64), (m, 1))
        g = ImageGrid(px)
        k = GaussianKernel(1.0)
        gx, gy = grad_gaussian(g, k)
        r = k.radius
        # truncation shaves a little mass off the tails, so the slope is ~1
        assert np.allclose(gy[:, r : n - r], 1.0, atol=0.01)
        assert np.max(np.abs(gx)) <= 1e-10

    def test_matches_dense_convolution_oracle(self, rng):
        g = random_grid(rng, 9, 11)
        k = GaussianKernel(1.0)
        gx, gy = grad_gaussian(g, k)
        assert np.max(np.abs(gx - dense_correlate_symmetric(g.pixels, np.outer(k.dg, k.g)))) <= 1e-10
        assert np.max(np.abs(gy - dense_correlate_symmetric(g.pixels, np.outer(k.g, k.dg)))) <= 1e-10

    def test_linearity(self, rng):
        a = random_grid(rng, 8, 8)
        b = random_grid(rng, 8, 8)
        k = GaussianKernel(1.0)
        combo = ImageGrid(2.0 * a.pixels + 3.0 * b.pixels)
        gx_c, gy_c = grad_gaussian(combo, k)
        gx_a, gy_a = grad_gaussian(a, k)
        gx_b, gy_b = grad_gaussian(b, k)
        assert np.max(np.abs(gx_c - 2 * gx_a - 3 * gx_b)) <= 1e-12
        assert np.max(np.abs(gy_c - 2 * gy_a - 3 * gy_b)) <= 1e-12


def test_pad_symmetric_is_np_pad_bit_for_bit():
    # every grid up to 13 x 13 and every r up to 20, so r > rows and r > cols
    # (the repeated reflections the benchmark never reaches) are covered
    rng = np.random.default_rng(7)
    for m in range(1, 14):
        for n in range(1, 14):
            px = rng.standard_normal((m, n))
            px[0, 0] = -0.0
            for src in (np.ascontiguousarray(px), np.asfortranarray(px)):
                for r in range(21):
                    got, want = _pad_symmetric(src, r), np.pad(src, r, mode="symmetric")
                    assert got.flags.f_contiguous, (m, n, r)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (m, n, r)


class TestDiffusivityHalf:
    def test_constant_image_hits_upper_bound(self):
        g = ImageGrid(np.full((8, 8), 0.5))
        for p in (1.0, 1.3, 2.0):
            ai, aj = diffusivity_half(g, 1e-2, p, GaussianKernel(1.0))
            for arr in (ai[:-1], aj[:, :-1]):
                assert np.allclose(arr, (1e-2) ** ((p - 2) / 2), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_row_and_column_major_input_give_same_column_major_bits(self, rng, p):
        px = rng.uniform(size=(9, 7))
        k = GaussianKernel(1.0)
        row_major = diffusivity_half(ImageGrid(px), 1e-2, p, k)
        col_major = diffusivity_half(ImageGrid.of_finite(np.asfortranarray(px)), 1e-2, p, k)
        # both come in the stencil's layout: full-grid, column-major, zero border
        for a, b in zip(row_major, col_major):
            assert a.shape == b.shape == px.shape
            assert a.flags.f_contiguous and b.flags.f_contiguous
            assert np.array_equal(a, b)

    def test_p2_collapses_to_one(self, rng):
        # the second image's smoothed gradients stay finite (the taps' absolute sums are at most about 1),
        # but their squared midpoint sums overflow to inf: a = 0 exactly for p = 1, silently
        huge = ImageGrid(1e308 * rng.uniform(-1.0, 1.0, size=(8, 8)))
        assert np.isfinite(np.concatenate(grad_gaussian(huge, GaussianKernel(1.0)))).all()
        ai, aj = diffusivity_half(huge, 1e-2, 1.0, GaussianKernel(1.0))
        assert np.all(ai[:-1] == 0.0) and np.all(aj[:, :-1] == 0.0)
        for g in (random_grid(rng, 8, 8), huge):
            ai, aj = diffusivity_half(g, 1e-2, 2.0, GaussianKernel(1.0))
            for arr in (ai[:-1], aj[:, :-1]):
                assert np.array_equal(arr, np.ones_like(arr))

    def test_matches_scalar_oracle(self, rng):
        g = random_grid(rng, 8, 8)
        k = GaussianKernel(1.0)
        ai, aj = diffusivity_half(g, 1e-2, 1.0, k)
        ai, aj = ai[:-1], aj[:, :-1]
        w, e, n, s = halfpoint_diffusivity(g.pixels, 1e-2, 1.0, k.g, k.dg)
        # each interior edge is the east/south midpoint of one pixel and the
        # west/north midpoint of its neighbour
        assert np.max(np.abs(ai - e[:-1])) <= 1e-12
        assert np.max(np.abs(ai - w[1:])) <= 1e-12
        assert np.max(np.abs(aj - s[:, :-1])) <= 1e-12
        assert np.max(np.abs(aj - n[:, 1:])) <= 1e-12

    def test_upper_bound_over_p_range(self, rng):
        g = random_grid(rng, 10, 10)
        for p in np.linspace(1.0, 2.0, 7):
            ai, aj = diffusivity_half(g, 1e-2, p, GaussianKernel(1.0))
            bound = 1e-2 ** ((p - 2.0) / 2.0)
            for arr in (ai[:-1], aj[:, :-1]):
                assert arr.max() <= bound + 1e-14
                assert arr.min() > 0.0

    def test_monotone_in_gradient_magnitude(self):
        # steeper ramp -> larger smoothed gradient -> smaller coefficient (p < 2)
        k = GaussianKernel(1.0)
        shallow = ImageGrid(np.tile(0.2 * np.arange(12), (12, 1)))
        steep = ImageGrid(np.tile(0.8 * np.arange(12), (12, 1)))
        a_sh = diffusivity_half(shallow, 1e-2, 1.0, k)[1][6, 5]
        a_st = diffusivity_half(steep, 1e-2, 1.0, k)[1][6, 5]
        assert a_st < a_sh

    def test_parameter_validation(self, rng):
        g = random_grid(rng, 6, 6)
        k = GaussianKernel(1.0)
        with pytest.raises(svddf.ParameterError):
            diffusivity_half(g, 0.0, 1.0, k)
        with pytest.raises(svddf.ParameterError):
            diffusivity_half(g, 1e-2, 2.5, k)


def test_separable_matches_dense_on_16x16(rng):
    g = random_grid(rng, 16, 16)
    k = GaussianKernel(2.0)
    gx, gy = grad_gaussian(g, k)
    assert np.max(np.abs(gx - dense_correlate_symmetric(g.pixels, np.outer(k.dg, k.g)))) <= 1e-10
    assert np.max(np.abs(gy - dense_correlate_symmetric(g.pixels, np.outer(k.g, k.dg)))) <= 1e-10


@given(
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    sigma=st.sampled_from([0.5, 1.0, 2.5, 9.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_correlation_passes_match_dense_oracle(shape, sigma, seed):
    # sigma = 2.5 has radius 5, wider than the narrowest grids, and sigma = 9 radius 9,
    # wider than every grid drawn, so the mirror padding reflects more than once;
    # its 19 taps are summed by BLAS dot products, the 7 and 11 of the others in order
    g = random_grid(np.random.default_rng(seed), *shape)
    k = GaussianKernel(sigma)
    gx, gy = grad_gaussian(g, k)
    assert np.max(np.abs(gx - dense_correlate_symmetric(g.pixels, np.outer(k.dg, k.g)))) <= 1e-10
    assert np.max(np.abs(gy - dense_correlate_symmetric(g.pixels, np.outer(k.g, k.dg)))) <= 1e-10
