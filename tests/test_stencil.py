import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svddf
from svddf import (
    ImageGrid,
    apply,
    assemble,
    diffusivity_half,
    lambda_max,
    make_kernel,
    spectrum_check,
    to_dense,
    vec,
)

from conftest import random_field
from oracles import dense_stencil


def unit_field(rows, cols, h=1.0):
    g = ImageGrid(np.full((rows, cols), 0.5), spacing=h)
    return diffusivity_half(g, 1e-2, 2.0, make_kernel(1.0))


class TestAssemble:
    def test_interior_row_is_five_point_laplacian(self):
        h = 0.5
        op = assemble(unit_field(5, 5, h))
        dense = to_dense(op)
        q = 2 * 5 + 2  # centre pixel (2, 2)
        row = dense[q]
        assert row[q] == pytest.approx(-4.0 / h**2)
        for r in (q - 1, q + 1, q - 5, q + 5):
            assert row[r] == pytest.approx(1.0 / h**2)
        assert np.count_nonzero(row) == 5

    def test_corner_row(self):
        op = assemble(unit_field(4, 4), 1.0)
        dense = to_dense(op)
        assert dense[0, 0] == pytest.approx(-2.0)
        assert sorted(np.nonzero(dense[0])[0].tolist()) == [0, 1, 4]

    def test_matches_dense_oracle_random_field(self, rng):
        from oracles import dense_stencil

        fld = random_field(rng, 6, 6, spacing=0.7)
        op = assemble(fld)
        dense = to_dense(op)
        assert np.max(np.abs(dense - dense_stencil(fld, 0.7))) <= 1e-13

    def test_spacing_comes_from_the_field(self, rng):
        fld = random_field(rng, 6, 5, spacing=0.5)
        assert fld.spacing == 0.5
        op = assemble(fld)
        assert np.array_equal(op.ci, 4.0 * fld.ai) and np.array_equal(op.cj, 4.0 * fld.aj)
        assert np.array_equal(assemble(fld, 0.5).ci, op.ci)
        # h other than the one the gradient was divided by
        with pytest.raises(svddf.ParameterError):
            assemble(fld, 1.0)

    def test_symmetry_exact(self, rng):
        dense = to_dense(assemble(random_field(rng, 7, 5), 1.0))
        assert np.array_equal(dense, dense.T)

    def test_zero_row_sums(self, rng):
        op = assemble(random_field(rng, 8, 6), 1.0)
        assert np.max(np.abs(apply(op, np.ones(op.dim)))) <= 1e-12

    def test_sign_pattern_and_dominance(self, rng):
        op = assemble(random_field(rng, 6, 7), 1.0)
        dense = to_dense(op)
        diag = np.diag(dense)
        off = dense - np.diag(diag)
        assert np.all(diag <= 0)
        assert np.all(off >= 0)
        assert np.all(np.abs(diag) >= off.sum(axis=1) - 1e-12)


def _single_entry(index, value=1.0):
    a = np.zeros((3, 3), order="F")
    a[index] = value
    return a


class TestCouplingChecks:
    def test_assembled_operators_pass(self, rng):
        op = assemble(random_field(rng, 5, 4))
        assert svddf.SparseOperator(op.ci, op.cj).dim == 20

    @pytest.mark.parametrize(
        "ci,cj",
        [
            # every coupling 1.0: the last pixel of each column would couple to the next column's first
            (np.ones((3, 3), order="F"), np.ones((3, 3), order="F")),
            (_single_entry((2, 1)), np.zeros((3, 3))),
            (np.zeros((3, 3)), _single_entry((1, 2))),
            (_single_entry((2, 0), np.nan), np.zeros((3, 3))),
        ],
        ids=["all-ones", "ci-last-row", "cj-last-column", "nan-in-ci-last-row"],
    )
    def test_couplings_across_the_border_rejected(self, ci, cj):
        with pytest.raises(svddf.ParameterError, match="across the border"):
            svddf.SparseOperator(ci, cj)

    @pytest.mark.parametrize("ci,cj", [(np.zeros((3, 3)), np.zeros((3, 4))), (np.zeros(9), np.zeros(9))])
    def test_couplings_of_other_shapes_rejected(self, ci, cj):
        with pytest.raises(svddf.ParameterError, match="one 2-D shape"):
            svddf.SparseOperator(ci, cj)


class TestApply:
    def test_annihilates_constants(self, rng):
        op = assemble(random_field(rng, 9, 4, spacing=2.0))
        assert np.max(np.abs(apply(op, np.full(op.dim, 3.3)))) <= 1e-11

    def test_unit_vectors_match_dense_columns(self, rng):
        op = assemble(random_field(rng, 5, 5), 1.0)
        dense = to_dense(op)
        for q in (0, 7, 24):
            e = np.zeros(op.dim)
            e[q] = 1.0
            assert np.max(np.abs(apply(op, e) - dense[:, q])) <= 1e-14

    def test_linearity(self, rng):
        op = assemble(random_field(rng, 6, 6), 1.0)
        x = rng.standard_normal(op.dim)
        y = rng.standard_normal(op.dim)
        lhs = apply(op, 2.0 * x + 0.5 * y)
        rhs = 2.0 * apply(op, x) + 0.5 * apply(op, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_dimension_mismatch(self, rng):
        op = assemble(random_field(rng, 4, 4), 1.0)
        with pytest.raises(svddf.DimensionError):
            apply(op, np.ones(op.dim + 1))


class TestSpectrumCheck:
    def test_p2_8x8_spectrum_in_range(self):
        rep = spectrum_check(assemble(unit_field(8, 8), 1.0))
        assert rep.passed
        assert rep.min_eigenvalue >= -8.0 - 1e-12
        assert rep.max_eigenvalue <= 1e-10

    def test_2x2_unit_field_eigenvalues(self):
        rep = spectrum_check(assemble(unit_field(2, 2), 1.0))
        w = np.linalg.eigvalsh(to_dense(assemble(unit_field(2, 2), 1.0)))
        assert np.allclose(w, [-4.0, -2.0, -2.0, 0.0], atol=1e-12)
        assert rep.passed

    def test_refuses_large_matrices(self, rng):
        op = assemble(random_field(rng, 65, 65), 1.0)
        with pytest.raises(svddf.DimensionError):
            spectrum_check(op)

    def test_random_fields_non_positive(self, rng):
        for _ in range(5):
            rep = spectrum_check(assemble(random_field(rng, 6, 6, p=1.0), 1.0))
            assert rep.passed


def test_coo_dump_round_trip(rng):
    op = assemble(random_field(rng, 4, 4), 1.0)
    buf = io.StringIO()
    svddf.dump_coo(op, buf)
    rebuilt = np.zeros((op.dim, op.dim))
    for line in buf.getvalue().splitlines():
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
    assert np.array_equal(rebuilt, to_dense(op))


def test_apply_used_in_runner_matches_grid_laplacian(rng):
    # p = 2 stencil acting on a vec'd image equals the 5-point Laplacian with
    # mirrored ghosts applied in image space
    g = ImageGrid(rng.uniform(size=(6, 6)))
    op = assemble(unit_field(6, 6), 1.0)
    got = apply(op, vec(g)).reshape((6, 6), order="F")
    px = np.pad(g.pixels, 1, mode="edge")
    lap = px[:-2, 1:-1] + px[2:, 1:-1] + px[1:-1, :-2] + px[1:-1, 2:] - 4.0 * g.pixels
    assert np.max(np.abs(got - lap)) <= 1e-12


# thin grids (2 x N, M x 2, 2 x 2) have rows or columns with no interior pixel
_operator_cases = given(
    shape=st.one_of(
        st.tuples(st.just(2), st.integers(2, 9)),
        st.tuples(st.integers(2, 9), st.just(2)),
        st.tuples(st.integers(2, 9), st.integers(2, 9)),
    ),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    h=st.floats(0.25, 4.0),
    seed=st.integers(0, 2**32 - 1),
)


def _case(shape, p, h, seed):
    """Random field, its operator, and two random vectors."""
    rng = np.random.default_rng(seed)
    fld = random_field(rng, *shape, p=p, spacing=h)
    op = assemble(fld)
    x, y = rng.standard_normal((2, op.dim))
    return fld, op, x, y


class TestOperatorProperties:
    """Rounding in each entry of F @ x scales with np.abs(F) @ np.abs(x)."""

    @_operator_cases
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_oracle(self, shape, p, h, seed):
        fld, op, x, _ = _case(shape, p, h, seed)
        dense = dense_stencil(fld, h)
        scale = np.abs(dense) @ np.abs(x)
        assert np.max(np.abs(apply(op, x) - dense @ x)) <= 1e-12 * np.max(scale)

    @_operator_cases
    @settings(max_examples=60, deadline=None)
    def test_conserves_mean(self, shape, p, h, seed):
        fld, op, x, _ = _case(shape, p, h, seed)
        scale = np.abs(dense_stencil(fld, h)) @ np.abs(x)
        assert abs(apply(op, x).sum()) <= 1e-12 * scale.sum()

    @_operator_cases
    @settings(max_examples=60, deadline=None)
    def test_self_adjoint(self, shape, p, h, seed):
        fld, op, x, y = _case(shape, p, h, seed)
        scale = np.abs(y) @ np.abs(dense_stencil(fld, h)) @ np.abs(x)
        assert abs(y @ apply(op, x) - x @ apply(op, y)) <= 1e-12 * scale

    @_operator_cases
    @settings(max_examples=60, deadline=None)
    def test_dense_view_exactly_symmetric(self, shape, p, h, seed):
        _, op, _, _ = _case(shape, p, h, seed)
        dense = to_dense(op)
        assert np.array_equal(dense, dense.T)


class TestLambdaMax:
    def test_laplacian_16x16_is_eight(self):
        # unit couplings: interior diagonal -4, so the bound is exactly 2 * 4
        assert lambda_max(assemble(unit_field(16, 16), 1.0)) == 8.0

    @_operator_cases
    @settings(max_examples=60, deadline=None)
    def test_bound_brackets_dense_eigensolve(self, shape, p, h, seed):
        _, op, _, _ = _case(shape, p, h, seed)
        bound = lambda_max(op)
        true_top = np.linalg.eigvalsh(-to_dense(op))[-1]
        tol = 1e-12 * bound
        assert np.max(np.abs(op.diagonal)) <= true_top + tol
        assert true_top <= bound + tol

    def test_gershgorin_dominates(self, rng):
        for _ in range(5):
            op = assemble(random_field(rng, 5, 8), 1.0)
            true_top = -np.linalg.eigvalsh(to_dense(op))[0]
            assert lambda_max(op) >= true_top - 1e-10
