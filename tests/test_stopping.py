import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svddf
from svddf import (
    AprioriStop,
    DiscrepancyStop,
    ImageGrid,
    MaxStepsOnly,
    RdeStop,
    SolverConfig,
    a_priori_T,
    add_noise,
    discrepancy,
    high_freq_energy,
    rde,
    rel_l2,
    run_svddf,
    synth_image,
    vec,
)

from conftest import random_grid
from oracles import naive_dft_energy


class TestHighFreqEnergy:
    def test_parseval_at_zero_threshold(self, rng):
        g = random_grid(rng, 8, 8)
        total = high_freq_energy(g, 0)
        assert total == pytest.approx(64 * np.sum(g.pixels**2), rel=1e-12)

    def test_constant_image_has_dc_only(self):
        g = ImageGrid(np.full((8, 8), 0.7))
        assert high_freq_energy(g, 1) <= 1e-10 * high_freq_energy(g, 0)

    def test_matches_naive_dft(self, rng):
        g = random_grid(rng, 8, 8)
        for n0 in (0, 3, 9, 14):
            ours = high_freq_energy(g, n0)
            ref = naive_dft_energy(g.pixels, n0)
            assert ours == pytest.approx(ref, rel=1e-9)

    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_half_spectrum_matches_naive_dft_on_every_band(self, shape, seed):
        # odd and even widths: the mirror weights differ in the last column
        px = np.random.default_rng(seed).uniform(size=shape)
        m, n = shape
        for n0 in range(m + n):
            assert high_freq_energy(px, n0) == pytest.approx(naive_dft_energy(px, n0), rel=1e-9)

    def test_band_beyond_range_is_empty(self, rng):
        g = random_grid(rng, 6, 6)
        assert high_freq_energy(g, 11) == 0.0
        assert high_freq_energy(g, 50) == 0.0

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(svddf.ParameterError):
            high_freq_energy(random_grid(rng, 4, 4), -1)


class TestRde:
    def test_identical_iterates(self, rng):
        g = random_grid(rng, 8, 8)
        assert rde(g, g, 4) == 0.0

    def test_doubling_energy_gives_one(self, rng):
        g = random_grid(rng, 8, 8)
        doubled = ImageGrid(np.sqrt(2.0) * g.pixels)
        assert rde(doubled, g, 0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_previous_energy_reports_stop_signal(self):
        zero = ImageGrid(np.zeros((6, 6)))
        bumpy = ImageGrid(np.eye(6))
        assert rde(bumpy, zero, 1) == 0.0

    def test_scale_invariance(self, rng):
        a = random_grid(rng, 8, 8)
        b = random_grid(rng, 8, 8)
        scaled = rde(ImageGrid(3.7 * a.pixels), ImageGrid(3.7 * b.pixels), 5)
        assert scaled == pytest.approx(rde(a, b, 5), rel=1e-12)

    def test_default_band_threshold(self):
        rule = RdeStop(tolerance=1e-4)
        assert rule.band_threshold(128, 128) == int(0.6 * 255)
        assert rule.band_threshold(16, 32) == int(0.6 * 47)
        explicit = RdeStop(tolerance=1e-4, n0=7)
        assert explicit.band_threshold(64, 64) == 7

    def test_zero_tolerance_rejected(self):
        with pytest.raises(svddf.ParameterError) as err:
            RdeStop(tolerance=0)
        assert str(err.value) == "tolerance must be positive, got 0"

    @pytest.mark.parametrize("n0, message", [
        (-1, "n0 must be non-negative, got -1"),
        (2.5, "n0 must be an integer, got 2.5"),
        ("7", "n0 must be an integer, got '7'"),
    ])
    def test_rule_rejects_n0(self, n0, message):
        with pytest.raises(svddf.ParameterError) as err:
            RdeStop(tolerance=1e-4, n0=n0)
        assert str(err.value) == message

    @pytest.mark.parametrize("runner", [run_svddf, svddf.run_first_order])
    @pytest.mark.parametrize("rows, cols", [(6, 6), (4, 9)])
    def test_n0_with_an_empty_band_rejected(self, rng, runner, rows, cols):
        # n0 = rows + cols - 2 keeps one frequency, the largest index sum, in the band
        largest = rows + cols - 2
        g = random_grid(rng, rows, cols)
        configs = [SolverConfig(dt_rule="fixed", dt_fixed=0.01, max_steps=3, stopping=RdeStop(tolerance=1e-9, n0=n0))
                   for n0 in (largest, largest + 1)]
        assert runner(g, configs[0])[1].final_step() == 3
        with pytest.raises(svddf.ParameterError) as err:
            runner(g, configs[1])
        assert str(err.value) == (
            f"n0 = {largest + 1} leaves the band empty: the largest index sum of a {rows} x {cols} image is {largest}"
        )

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(svddf.DimensionError) as err:
            rde(random_grid(rng, 4, 4), random_grid(rng, 4, 5), 2)
        assert str(err.value) == "shape mismatch: (4, 4) vs (4, 5)"


class TestDiscrepancy:
    def test_at_start_chi_is_minus_delta(self, rng):
        u0 = rng.uniform(size=36)
        res = discrepancy(u0, u0, 0.25)
        assert res.sigma == 0.0
        assert res.chi == -0.25

    def test_scaled_vector_fires_exactly_at_delta(self, rng):
        u0 = rng.uniform(size=36) + 0.5
        res = discrepancy((1.0 + 0.2) * u0, u0, 0.2)
        assert res.sigma == pytest.approx(0.2, rel=1e-12)
        assert res.chi == pytest.approx(0.0, abs=1e-12)
        # the rule fires on chi = sigma - delta >= 0, a sharp threshold
        assert discrepancy((1.0 + 0.2) * u0, u0, 0.2 - 1e-9).chi >= 0.0
        assert discrepancy((1.0 + 0.2) * u0, u0, 0.2 + 1e-9).chi < 0.0

    def test_zero_data_rejected(self):
        with pytest.raises(svddf.DegenerateInputError):
            discrepancy(np.ones(4), np.zeros(4), 0.1)

    def test_given_zero_data_norm_rejected(self):
        with pytest.raises(svddf.DegenerateInputError):
            discrepancy(np.ones(4), np.zeros(4), 0.1, u0_norm=0.0)

    @pytest.mark.parametrize("size", [1, 3])
    def test_length_mismatch_rejected(self, size):
        # a length-1 iterate would broadcast against the data
        with pytest.raises(svddf.DimensionError) as err:
            discrepancy(np.ones(size), np.full(4, 2.0), 0.1)
        assert str(err.value) == f"length mismatch: ({size},) vs (4,)"

    @given(
        size=st.integers(1, 50),
        other=st.integers(1, 50),
        spread=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_sigma_is_rel_l2(self, size, other, spread, seed):
        # one relative distance serves both: the same bits, and the same error for mismatched lengths
        rng = np.random.default_rng(seed)
        u0 = rng.standard_normal(size)
        u = u0 + spread * rng.standard_normal(size)
        expected = rel_l2(u, u0)
        assert discrepancy(u, u0, 0.1).sigma == expected
        assert discrepancy(u, u0, 0.1, u0_norm=float(np.linalg.norm(u0))).sigma == expected
        if other != size:
            w = rng.standard_normal(other)
            with pytest.raises(svddf.DimensionError) as from_rel_l2:
                rel_l2(w, u0)
            with pytest.raises(svddf.DimensionError) as from_discrepancy:
                discrepancy(w, u0, 0.1)
            assert str(from_discrepancy.value) == str(from_rel_l2.value) == f"length mismatch: ({other},) vs ({size},)"

    def test_given_data_norm_gives_same_bits(self, rng):
        u0 = rng.uniform(size=50)
        u = u0 + 0.1 * rng.standard_normal(50)
        given = discrepancy(u, u0, 0.1, u0_norm=float(np.linalg.norm(u0)))
        assert given == discrepancy(u, u0, 0.1)

    @pytest.mark.parametrize("delta, message", [
        (-0.1, "delta must be non-negative, got -0.1"),
        (np.nan, "delta must be finite, got nan"),
        (np.inf, "delta must be finite, got inf"),
    ])
    def test_rule_rejects_delta(self, delta, message):
        with pytest.raises(svddf.ParameterError) as err:
            DiscrepancyStop(delta=delta)
        assert str(err.value) == message

    def test_fires_at_finite_step_on_noisy_disk(self):
        clean = synth_image("disk", 32, 32)
        noisy = add_noise(clean, svddf.NoiseSpec(delta=0.3, seed=5))
        cfg = SolverConfig(
            eta=2.0, exponent_p=1.0, max_steps=2000, stopping=DiscrepancyStop(delta=0.3)
        )
        out, log = run_svddf(noisy, cfg)
        assert log.stopped_by == "discrepancy"
        assert 1 <= log.final_step() < 2000
        # first crossing: all earlier sigmas below delta, final at or above
        sigmas = [r.sigma for r in log.records]
        assert all(s < 0.3 for s in sigmas[:-1])
        assert sigmas[-1] >= 0.3


class TestAprioriT:
    def test_zero_noise_means_zero_horizon(self):
        assert a_priori_T(0.0, 1.0, 1.0, 1.0) == 0.0

    def test_log_identity(self):
        assert a_priori_T(np.e - 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    @given(
        d1=st.floats(0.001, 0.9),
        d2=st.floats(0.001, 0.9),
        c1=st.floats(0.1, 10.0),
        c2=st.floats(0.1, 10.0),
        gamma=st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_delta(self, d1, d2, c1, c2, gamma):
        lo, hi = sorted((d1, d2))
        assert a_priori_T(lo, c1, c2, gamma) <= a_priori_T(hi, c1, c2, gamma)

    def test_invalid_parameters(self):
        with pytest.raises(svddf.ParameterError):
            a_priori_T(0.1, -1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "params, message",
        [
            ((0.0, 1.0, 1.0, 0.1), "c1, c2 and gamma must be positive"),
            ((1.0, -1.0, 1.0, 0.1), "c1, c2 and gamma must be positive"),
            ((1.0, 1.0, 0.0, 0.1), "c1, c2 and gamma must be positive"),
            ((1.0, 1.0, 1.0, -0.1), "delta must be non-negative, got -0.1"),
            ((1.0, 1.0, 1.0, np.inf), "delta must be finite, got inf"),
            ((1.0, 1.0, 1.0, np.nan), "delta must be finite, got nan"),
            # a horizon no run can reach: delta**gamma overflows, or T does
            ((1.0, 1.0, 400.0, 10.0), "T(delta) is not finite for delta=10.0, c1=1.0, c2=1.0, gamma=400.0"),
            ((1.0, 1e200, 1.0, 1e200), "T(delta) is not finite for delta=1e+200, c1=1.0, c2=1e+200, gamma=1.0"),
        ],
    )
    def test_rule_rejects_what_the_horizon_rejects(self, params, message):
        c1, c2, gamma, delta = params
        for make in (lambda: AprioriStop(c1, c2, gamma, delta), lambda: a_priori_T(delta, c1, c2, gamma)):
            with pytest.raises(svddf.ParameterError) as err:
                make()
            assert str(err.value) == message

    def test_runner_stops_at_horizon(self, rng):
        g = random_grid(rng, 10, 10)
        rule = AprioriStop(c1=1.0, c2=1.0, gamma=1.0, delta=np.e - 1.0)  # T = 1.0
        cfg = SolverConfig(
            eta=2.0,
            exponent_p=1.0,
            dt_rule="fixed",
            dt_fixed=0.15,
            max_steps=100,
            stopping=rule,
        )
        _, log = run_svddf(g, cfg)
        assert log.stopped_by == "a-priori"
        assert log.final_step() == 7  # first step with t = 0.15 * k >= 1.0

    def test_max_steps_only_runs_budget(self, rng):
        g = random_grid(rng, 8, 8)
        cfg = SolverConfig(
            eta=2.0, dt_rule="fixed", dt_fixed=0.1, max_steps=12, stopping=MaxStepsOnly()
        )
        _, log = run_svddf(g, cfg)
        assert log.final_step() == 12
        assert log.stopped_by == "max-steps"


def test_rde_matches_runner_column(rng):
    g = random_grid(rng, 12, 12)
    cfg = SolverConfig(eta=2.0, exponent_p=1.0, max_steps=4, stopping=MaxStepsOnly())
    out, log = run_svddf(g, cfg)
    # recompute the logged rde of step 2 from scratch via the public op
    from svddf.flow import initial_state, sv_step

    state = initial_state(g, cfg)
    states = [state]
    for _ in range(2):
        state = sv_step(state, cfg)
        states.append(state)
    n0 = RdeStop(tolerance=1.0).band_threshold(12, 12)
    u1 = svddf.array(states[1].u, 12, 12)
    u2 = svddf.array(states[2].u, 12, 12)
    assert log.records[1].rde == pytest.approx(rde(u2, u1, n0), rel=1e-12)
