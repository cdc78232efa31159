"""The flat column-stacked kernels against their 2-D windowed formulation.

The gradient's column pass, the midpoint coefficients, ``apply`` and the
diagonal take every row neighbour as a shift of the flat column-major
buffer.  Each must give the bits of the 2-D windows in ``oracles``, on
thin, odd and non-square grids alike; the logged potential, which reads
``apply``'s product, must be the dense quadratic form on the same grids.
A whole run on the transposed image, where the shifts by 1 and by rows
trade places, must end at the transpose of the run on the image.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svddf import (
    GaussianKernel,
    ImageGrid,
    SolverConfig,
    apply,
    assemble,
    diffusivity_half,
    energies,
    grad_gaussian,
    initial_state,
    lambda_max,
    run_first_order,
    run_svddf,
    sv_step,
    to_dense,
)
from svddf.flow import _first_order_step

from oracles import (
    windowed_apply,
    windowed_diagonal,
    windowed_gradient,
    windowed_midpoints,
)

# thin grids (2 x N, M x 2) have no interior row or column; odd and
# non-square sizes put the column boundary at every offset of a shift
_grids = given(
    shape=st.one_of(
        st.tuples(st.just(2), st.integers(2, 11)),
        st.tuples(st.integers(2, 11), st.just(2)),
        st.tuples(st.integers(2, 17), st.integers(2, 17)),
    ),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    sigma=st.sampled_from([0.5, 1.0, 2.5]),
    column_major=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _image(shape, column_major, seed):
    px = np.random.default_rng(seed).uniform(size=shape)
    if column_major:
        return ImageGrid.of_finite(np.asfortranarray(px))
    return ImageGrid(px)


@_grids
@settings(max_examples=80, deadline=None)
def test_flat_kernels_give_the_windowed_bits(shape, p, sigma, column_major, seed):
    image = _image(shape, column_major, seed)
    k = GaussianKernel(sigma)
    ref_gx, ref_gy = windowed_gradient(image.pixels, k.g, k.dg)
    gx, gy = grad_gaussian(image, k)
    assert np.array_equal(gx, ref_gx) and np.array_equal(gy, ref_gy)

    ai, aj = diffusivity_half(image, 1e-2, p, k)
    ref_ai, ref_aj = windowed_midpoints(ref_gx, ref_gy, 1e-2, p)
    assert np.array_equal(ai[:-1], ref_ai) and np.array_equal(aj[:, :-1], ref_aj)

    op = assemble((ai, aj))
    assert np.array_equal(op.ci[:-1], ref_ai) and np.array_equal(op.cj[:, :-1], ref_aj)
    x = np.random.default_rng(seed + 1).standard_normal(op.ci.size)
    assert np.array_equal(apply(op, x), windowed_apply(ref_ai, ref_aj, x))
    assert np.array_equal(op.diagonal, windowed_diagonal(ref_ai, ref_aj))


@_grids
@settings(max_examples=60, deadline=None)
def test_border_couplings_are_zero_and_apply_is_the_dense_product(shape, p, sigma, column_major, seed):
    image = _image(shape, column_major, seed)
    ai, aj = diffusivity_half(image, 1e-2, p, GaussianKernel(sigma))
    op = assemble((ai, aj))
    for full in (ai, aj, op.ci, op.cj):
        assert full.shape == image.shape and full.flags.f_contiguous and not full.flags.writeable
    for border in (ai[-1], aj[:, -1], op.ci[-1], op.cj[:, -1]):
        assert np.all(border == 0.0)
    dense = to_dense(op)
    x = np.random.default_rng(seed + 1).standard_normal(op.ci.size)
    scale = np.abs(dense) @ np.abs(x)
    assert np.max(np.abs(apply(op, x) - dense @ x)) <= 1e-12 * np.max(scale)
    assert lambda_max(op) == 2.0 * np.max(np.abs(np.diag(dense)))


@_grids
@settings(max_examples=60, deadline=None)
def test_potential_is_the_dense_quadratic_form(shape, p, sigma, column_major, seed):
    config = SolverConfig(exponent_p=p, sigma=sigma, eta=1.0, dt=0.01)
    start = initial_state(_image(shape, column_major, seed), config)
    states = [start]
    for step in (sv_step, _first_order_step):
        # two steps in, the state's stencil was reassembled from an iterate (p < 2), and
        # its Fu was stored by sv_step or is formed on read for the first-order flow
        states.append(step(step(start, config), config))
    for state in states:
        _, potential = energies(state)
        u = state.u
        expected = -0.5 * (u @ to_dense(state.F_prev) @ u)
        assert abs(potential - expected) <= 1e-12 * (u @ u) * lambda_max(state.F_prev)


# stable settings only: an unstable step amplifies the last-bit difference between the two layouts
_ISOTROPY_RUNS = [
    (run_svddf, 1.0, "auto"),
    (run_svddf, 300.0, 0.15),
    (run_svddf, 2.0, 0.2),
    (run_first_order, 1.0, "auto"),
]


@pytest.mark.parametrize("runner,eta,dt", _ISOTROPY_RUNS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("shape", [(16, 16), (12, 20), (33, 18)])
def test_transposed_image_runs_to_the_transposed_result(shape, p, runner, eta, dt):
    # the transpose swaps the flat shifts by 1 and by rows, so the two runs hold each shift to the other
    px = np.random.default_rng(3).uniform(size=shape)
    config = SolverConfig(exponent_p=p, eta=eta, dt=dt, max_steps=200)
    out, _ = runner(ImageGrid(px), config, keep_trajectory=False)
    out_t, _ = runner(ImageGrid(px.T), config, keep_trajectory=False)
    assert np.max(np.abs(out_t.pixels - out.pixels.T)) <= 1e-13 * np.max(np.abs(out.pixels))
