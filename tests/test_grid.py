import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svddf
from svddf import ImageGrid, NoiseSpec, add_noise, array, rel_l2, synth_image, vec


class TestVecArray:
    def test_column_stacking_2x2(self):
        g = ImageGrid(np.array([[1.0, 3.0], [2.0, 4.0]]))
        # [[a, b], [c, d]] stacks to (a, c, b, d)
        assert vec(g).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_single_column_is_identity(self):
        g = ImageGrid(np.arange(5.0).reshape(5, 1))
        assert vec(g).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_round_trip_exhaustive_small_shapes(self, rng):
        for m in range(2, 33):
            for n in range(2, 33):
                px = rng.standard_normal((m, n))
                g = ImageGrid(px)
                back = array(vec(g), m, n)
                assert np.array_equal(back.pixels, g.pixels)

    def test_vec_of_array_round_trip(self, rng):
        v = rng.standard_normal(8 * 8)
        assert np.array_equal(vec(array(v, 8, 8)), v)

    def test_zero_vector(self):
        g = array(np.zeros(12), 3, 4)
        assert not g.pixels.any()

    def test_length_mismatch(self):
        with pytest.raises(svddf.DimensionError):
            array(np.zeros(7), 2, 4)

    @given(m=st.integers(2, 9), n=st.integers(2, 9), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, m, n, seed):
        px = np.random.default_rng(seed).standard_normal((m, n))
        assert np.array_equal(array(vec(ImageGrid(px)), m, n).pixels, px)


class TestImageGrid:
    def test_rejects_non_finite(self):
        with pytest.raises(svddf.ParameterError):
            ImageGrid(np.array([[1.0, np.nan], [0.0, 0.0]]))

    # every image is on the unit lattice: no grid step, 1 and 0.5 included, is a parameter
    # of an image or of the stencil's coupling pair, nor are the steps whose h^2 or 1/h^2 overflows
    @pytest.mark.parametrize("make", [
        lambda h: ImageGrid(np.zeros((8, 8)), spacing=h),
        lambda h: svddf.SparseOperator(np.zeros((8, 8)), np.zeros((8, 8)), h),
    ], ids=["ImageGrid", "SparseOperator"])
    @pytest.mark.parametrize("h", [1.0, 0.5, 0.0, -1.0, 1e-200, 1e300, 1e-160, np.inf])
    def test_rejects_bad_spacing(self, make, h):
        with pytest.raises(TypeError):
            make(h)

    def test_pixels_are_read_only(self):
        g = ImageGrid(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            g.pixels[0, 0] = 1.0

    def test_holds_its_own_copy_of_the_pixels(self):
        a = np.zeros((3, 3))
        g = ImageGrid(a)
        a[0, 0] = 1.0  # the caller's array stays writable
        assert g.pixels[0, 0] == 0.0
        assert not np.shares_memory(a, g.pixels)

    def test_min_size_gate(self, monkeypatch):
        # the stencil refuses a grid without a neighbour along each axis before it forms a gradient
        monkeypatch.setattr(svddf.diffusivity, "grad_gaussian", None)
        for shape in [(1, 4), (4, 1)]:
            with pytest.raises(svddf.DimensionError) as err:
                svddf.diffusivity_half(ImageGrid(np.zeros(shape)), 1e-2, 1.5, svddf.GaussianKernel(1.0))
            assert str(err.value) == f"operation needs a grid of at least 2x2, got {shape}"

    @pytest.mark.parametrize(
        "shape, message",
        [((2, 3, 4), "pixels must be 2-D, got ndim=3"), ((0, 4), "grid must be at least 1x1, got (0, 4)")],
    )
    def test_rejects_shape(self, shape, message):
        with pytest.raises(svddf.DimensionError) as err:
            ImageGrid(np.zeros(shape))
        assert str(err.value) == message

    def test_of_finite_wraps_column_major_view_without_copy(self, rng):
        u = rng.standard_normal(12)
        view = u.reshape((3, 4), order="F")
        g = ImageGrid.of_finite(view)
        assert np.shares_memory(g.pixels, u)
        assert g.pixels.flags.f_contiguous and not g.pixels.flags.c_contiguous
        assert g.shape == (3, 4)
        assert np.array_equal(g.pixels, ImageGrid(view).pixels)
        with pytest.raises(ValueError):
            g.pixels[0, 0] = 1.0
        u[0] = 7.0  # the source stays writable


class TestAddNoise:
    def test_zero_delta_is_identity(self, rng):
        g = ImageGrid(rng.uniform(size=(6, 6)))
        assert np.array_equal(add_noise(g, NoiseSpec(delta=0.0, seed=3)).pixels, g.pixels)

    def test_deterministic_for_fixed_seed(self, rng):
        g = ImageGrid(rng.uniform(size=(9, 7)))
        a = add_noise(g, NoiseSpec(delta=0.4, seed=99))
        b = add_noise(g, NoiseSpec(delta=0.4, seed=99))
        assert np.array_equal(a.pixels, b.pixels)

    def test_matches_generator_recipe(self):
        g = ImageGrid(np.full((4, 5), 0.5))
        noisy = add_noise(g, NoiseSpec(delta=0.3, seed=2024))
        u = np.random.default_rng(2024).random((4, 5))
        expected = 0.5 * (1.0 + 0.3 * (2.0 * u - 1.0))
        assert np.array_equal(noisy.pixels, expected)

    def test_negative_delta_rejected(self):
        with pytest.raises(svddf.ParameterError):
            NoiseSpec(delta=-0.1)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
    ])
    def test_seed_rejected_with_its_message(self, seed, message):
        with pytest.raises(svddf.ParameterError) as err:
            NoiseSpec(0.1, seed)
        assert str(err.value) == message

    def test_numpy_integer_seed_is_the_same_seed(self):
        g = ImageGrid(np.full((4, 5), 0.5))
        assert np.array_equal(add_noise(g, NoiseSpec(0.3, np.int64(7))).pixels, add_noise(g, NoiseSpec(0.3, 7)).pixels)

    @given(delta=st.floats(0.0, 0.99), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_elementwise_bound(self, delta, seed):
        g = ImageGrid(np.linspace(0.0, 1.0, 24).reshape(4, 6))
        noisy = add_noise(g, NoiseSpec(delta=delta, seed=seed))
        assert np.all(np.abs(noisy.pixels - g.pixels) <= delta * np.abs(g.pixels) + 1e-15)


class TestSynthImage:
    def test_piecewise_constant_blocks(self):
        g = synth_image("piecewise-constant", 16, 16)
        assert np.all(g.pixels[:, :8] == 0.25)
        assert np.all(g.pixels[:, 8:] == 0.75)

    def test_ramp(self):
        g = synth_image("ramp", 5, 9)
        expected = np.tile(np.arange(9) / 8.0, (5, 1))
        assert np.array_equal(g.pixels, expected)

    def test_disk_is_indicator(self):
        g = synth_image("disk", 32, 32)
        assert set(np.unique(g.pixels)) == {0.0, 1.0}
        # centre inside, corner outside
        assert g.pixels[15, 15] == 1.0
        assert g.pixels[0, 0] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(svddf.ParameterError):
            synth_image("stripes", 8, 8)

    @pytest.mark.parametrize("rows, cols", [(1, 5), (5, 1)])
    def test_below_2x2_rejected(self, rows, cols):
        with pytest.raises(svddf.DimensionError) as err:
            synth_image("disk", rows, cols)
        assert str(err.value) == f"synthetic images need at least 2x2, got {rows}x{cols}"


class TestRelL2:
    def test_identical(self, rng):
        v = rng.standard_normal(20)
        assert rel_l2(v, v) == 0.0

    def test_double(self, rng):
        v = rng.standard_normal(20)
        assert rel_l2(2.0 * v, v) == pytest.approx(1.0, abs=1e-14)

    def test_against_double_loop_sum(self, rng):
        u = rng.standard_normal(50)
        ref = rng.standard_normal(50)
        num = sum((a - b) ** 2 for a, b in zip(u, ref))
        den = sum(b**2 for b in ref)
        assert rel_l2(u, ref) == pytest.approx(np.sqrt(num / den), abs=1e-12)

    def test_zero_reference(self):
        with pytest.raises(svddf.DegenerateInputError):
            rel_l2(np.ones(4), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(svddf.DimensionError) as err:
            rel_l2(np.ones(3), np.ones(4))
        assert str(err.value) == "length mismatch: (3,) vs (4,)"
