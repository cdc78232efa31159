"""The flat column-stacked kernels against their 2-D windowed formulation.

The gradient's column pass, the midpoint coefficients, ``apply`` and the
diagonal take every row neighbour as a shift of the flat column-major
buffer.  Each must give the bits of the 2-D windows in ``oracles``, on
thin, odd and non-square grids alike; the logged potential, which reads
``apply``'s product, must be the dense quadratic form on the same grids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svddf import (
    ImageGrid,
    SolverConfig,
    apply,
    assemble,
    diffusivity_half,
    energies,
    grad_gaussian,
    initial_state,
    lambda_max,
    make_kernel,
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
    h=st.sampled_from([1.0, 0.5, 0.7, 3.0]),
    sigma=st.sampled_from([0.5, 1.0, 2.5]),
    column_major=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _image(shape, h, column_major, seed):
    px = np.random.default_rng(seed).uniform(size=shape)
    if column_major:
        return ImageGrid.of_finite(np.asfortranarray(px), h)
    return ImageGrid(px, spacing=h)


@_grids
@settings(max_examples=80, deadline=None)
def test_flat_kernels_give_the_windowed_bits(shape, p, h, sigma, column_major, seed):
    image = _image(shape, h, column_major, seed)
    k = make_kernel(sigma)
    ref_gx, ref_gy = windowed_gradient(image.pixels, h, k.g, k.dg)
    gx, gy = grad_gaussian(image, k)
    assert np.array_equal(gx, ref_gx) and np.array_equal(gy, ref_gy)

    fld = diffusivity_half(image, 1e-2, p, k)
    ref_ai, ref_aj = windowed_midpoints(ref_gx, ref_gy, 1e-2, p)
    assert np.array_equal(fld.ai[:-1], ref_ai) and np.array_equal(fld.aj[:, :-1], ref_aj)

    op = assemble(fld)
    inv_h2 = 1.0 / h**2
    ref_ci, ref_cj = ref_ai * inv_h2, ref_aj * inv_h2
    assert np.array_equal(op.ci[:-1], ref_ci) and np.array_equal(op.cj[:, :-1], ref_cj)
    x = np.random.default_rng(seed + 1).standard_normal(op.dim)
    assert np.array_equal(apply(op, x), windowed_apply(ref_ci, ref_cj, x))
    assert np.array_equal(op.diagonal, windowed_diagonal(ref_ci, ref_cj))


@_grids
@settings(max_examples=60, deadline=None)
def test_border_couplings_are_zero_and_apply_is_the_dense_product(shape, p, h, sigma, column_major, seed):
    image = _image(shape, h, column_major, seed)
    fld = diffusivity_half(image, 1e-2, p, make_kernel(sigma))
    op = assemble(fld)
    for full in (fld.ai, fld.aj, op.ci, op.cj):
        assert full.shape == image.shape and full.flags.f_contiguous
    for border in (fld.ai[-1], fld.aj[:, -1], op.ci[-1], op.cj[:, -1]):
        assert np.all(border == 0.0)
    dense = to_dense(op)
    x = np.random.default_rng(seed + 1).standard_normal(op.dim)
    scale = np.abs(dense) @ np.abs(x)
    assert np.max(np.abs(apply(op, x) - dense @ x)) <= 1e-12 * np.max(scale)
    assert lambda_max(op) == 2.0 * np.max(np.abs(np.diag(dense)))


@_grids
@settings(max_examples=60, deadline=None)
def test_potential_is_the_dense_quadratic_form(shape, p, h, sigma, column_major, seed):
    config = SolverConfig(exponent_p=p, sigma=sigma, eta=1.0, dt_rule="fixed", dt_fixed=0.01)
    start = initial_state(_image(shape, h, column_major, seed), config)
    states = [start]
    for step in (sv_step, _first_order_step):
        # two steps in, the state's stencil was reassembled from an iterate (p < 2), and
        # its Fu was stored by sv_step or is formed on read for the first-order flow
        states.append(step(step(start, config), config))
    for state in states:
        _, potential = energies(state)
        u = state.u
        expected = -0.5 * h**2 * (u @ to_dense(state.F_prev) @ u)
        assert abs(potential - expected) <= 1e-12 * h**2 * (u @ u) * lambda_max(state.F_prev)
