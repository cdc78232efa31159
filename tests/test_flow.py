import numpy as np
import pytest

import svddf
from svddf import (
    ImageGrid,
    MaxStepsOnly,
    RdeStop,
    SolverConfig,
    apply,
    array,
    diffusivity_half,
    energies,
    initial_state,
    make_kernel,
    run_first_order,
    run_svddf,
    step_size,
    sv_step,
    to_dense,
    vec,
)
from svddf.flow import _first_order_step

from conftest import random_grid
from oracles import damped_oscillator, dense_A, dense_B, dense_stencil, mode_amplification_formula


def fixed_cfg(dt, steps=10, **kw):
    kw.setdefault("eta", 1.5)
    kw.setdefault("exponent_p", 1.0)
    return SolverConfig(dt_rule="fixed", dt_fixed=dt, max_steps=steps, stopping=MaxStepsOnly(), **kw)


class TestStepSize:
    def test_theorem_formula(self):
        cfg = SolverConfig(eta=300.0, safety=1.0)
        assert step_size(8.0, cfg) == pytest.approx(300.0 / np.sqrt(8.0), rel=1e-15)
        assert step_size(8.0, cfg) == pytest.approx(106.066, rel=1e-4)

    def test_safety_scales_linearly(self):
        full = step_size(4.0, SolverConfig(eta=10.0, safety=1.0))
        half = step_size(4.0, SolverConfig(eta=10.0, safety=0.5))
        assert half == pytest.approx(0.5 * full, rel=1e-15)

    def test_zero_bound_requires_dt_max(self):
        with pytest.raises(svddf.ParameterError):
            step_size(0.0, SolverConfig(eta=1.0))
        assert step_size(0.0, SolverConfig(eta=1.0, dt_max=0.125)) == 0.125

    def test_fixed_rule(self):
        assert step_size(8.0, fixed_cfg(0.07)) == 0.07

    @pytest.mark.parametrize("dt_max", [-0.1, 0.0, float("nan")])
    def test_non_positive_dt_max_rejected(self, dt_max):
        with pytest.raises(svddf.ParameterError, match="dt_max must be positive"):
            SolverConfig(dt_max=dt_max)


class TestSvStep:
    def test_constant_image_is_fixed_point(self):
        g = ImageGrid(np.full((8, 8), 0.6))
        cfg = fixed_cfg(0.2)
        state = initial_state(g, cfg)
        for _ in range(5):
            state = sv_step(state, cfg)
        assert np.max(np.abs(state.u - 0.6)) <= 1e-13
        assert np.max(np.abs(state.v)) <= 1e-13

    def test_single_step_matches_hand_formula(self, rng):
        g = random_grid(rng, 6, 6)
        cfg = fixed_cfg(0.3, eta=2.0)
        state = initial_state(g, cfg)
        F0 = to_dense(state.F_prev)
        new = sv_step(state, cfg)
        u0 = vec(g)
        v_half = (0.15 * (F0 @ u0)) / (1.0 + 0.5 * 2.0 * 0.3)
        u1 = u0 + 0.3 * v_half
        assert np.max(np.abs(new.u - u1)) <= 1e-13
        # second half-kick damps with the midpoint velocity, F fresh from u0
        v1 = v_half + 0.15 * (F0 @ u1 - 2.0 * v_half)
        assert np.max(np.abs(new.v - v1)) <= 1e-13

    def test_five_steps_match_dense_two_factor_iteration(self, rng):
        g = random_grid(rng, 8, 8)
        cfg = SolverConfig(eta=1.5, exponent_p=1.0, max_steps=5, stopping=MaxStepsOnly())
        state = initial_state(g, cfg)
        kern = cfg.kernel()

        n = 64
        z = np.concatenate([vec(g), np.zeros(n)])
        F_prev = dense_stencil(diffusivity_half(g, cfg.epsilon, cfg.exponent_p, kern), 1.0)
        for k in range(5):
            state = sv_step(state, cfg)
            dt = state.last_dt
            u_pre = z[:n]
            if k == 0:
                F_new = F_prev
            else:
                grid_pre = array(u_pre, 8, 8)
                F_new = dense_stencil(
                    diffusivity_half(grid_pre, cfg.epsilon, cfg.exponent_p, kern), 1.0
                )
            z = dense_B(F_new, cfg.eta, dt) @ (dense_A(F_prev, cfg.eta, dt) @ z)
            F_prev = F_new
            assert np.max(np.abs(state.u - z[:n])) <= 1e-10
            assert np.max(np.abs(state.v - z[n:])) <= 1e-10

    def test_mean_conserved(self, rng):
        g = random_grid(rng, 10, 10)
        cfg = fixed_cfg(0.15, steps=200, eta=2.0)
        out, _ = run_svddf(g, cfg)
        assert abs(out.pixels.mean() - g.pixels.mean()) <= 1e-10

    def test_clean_input_barely_moves_under_loose_stopping(self):
        clean = svddf.synth_image("piecewise-constant", 16, 16)
        cfg = SolverConfig(
            eta=2.0, exponent_p=1.0, max_steps=50, stopping=RdeStop(tolerance=1e-2)
        )
        out, log = run_svddf(clean, cfg)
        assert log.final_step() < 50
        assert svddf.rel_l2(vec(out), vec(clean)) <= 0.05

    def test_divergence_raises_with_partial_log(self):
        # linear stencil (p = 2): the oversized spectral step at eta = 300
        # amplifies the top modes without nonlinear saturation
        g = svddf.synth_image("disk", 12, 12)
        cfg = SolverConfig(eta=300.0, exponent_p=2.0, max_steps=3000, stopping=MaxStepsOnly())
        with pytest.raises(svddf.DivergenceError) as err:
            run_svddf(g, cfg)
        assert err.value.partial_log is not None
        assert len(err.value.partial_log) >= 1


class TestSpacing:
    @pytest.mark.parametrize("runner", [run_svddf, run_first_order])
    def test_flow_reads_the_image_spacing(self, rng, runner):
        px = random_grid(rng, 10, 9).pixels
        cfg = SolverConfig(exponent_p=1.5, max_steps=5, dt_max=0.05, stopping=MaxStepsOnly())
        fine, _ = runner(ImageGrid(px, spacing=0.5), cfg)
        unit, _ = runner(ImageGrid(px, spacing=1.0), cfg)
        assert fine.spacing == 0.5
        assert unit.spacing == 1.0
        assert not np.array_equal(fine.pixels, unit.pixels)

    def test_stencil_scales_with_inverse_square_spacing(self, rng):
        px = random_grid(rng, 7, 8).pixels
        cfg = SolverConfig(exponent_p=2.0)
        fine = initial_state(ImageGrid(px, spacing=0.5), cfg).F_prev
        unit = initial_state(ImageGrid(px, spacing=1.0), cfg).F_prev
        assert np.array_equal(fine.ci, 4.0 * unit.ci)
        assert np.array_equal(fine.cj, 4.0 * unit.cj)


class TestCarriedProduct:
    def test_carried_product_is_current_after_25_steps(self, rng):
        g = random_grid(rng, 10, 12)
        cfg = fixed_cfg(0.15, eta=2.0, exponent_p=1.0)
        state = initial_state(g, cfg)
        for _ in range(25):
            state = sv_step(state, cfg)
        assert np.array_equal(state.Fu, apply(state.F_prev, state.u))

    def test_first_order_step_leaves_no_stale_product(self, rng):
        g = random_grid(rng, 9, 9)
        cfg = fixed_cfg(0.1, exponent_p=1.0)
        # an sv_step leaves a product to carry; the baseline must not reuse it
        state = sv_step(initial_state(g, cfg), cfg)
        for _ in range(5):
            state = _first_order_step(state, cfg)
            assert state.Fu is None or np.array_equal(state.Fu, apply(state.F_prev, state.u))


class TestModeDynamics:
    @staticmethod
    def cosine_mode_grid(m_pixels, mode_index, cols=2):
        i = np.arange(m_pixels)
        mode = np.cos(np.pi * mode_index * (i + 0.5) / m_pixels)
        return ImageGrid(np.tile(mode[:, None], (1, cols)))

    def test_amplification_formula_matches_dense_eigenvalues(self, rng):
        fld = diffusivity_half(random_grid(rng, 6, 6), 1e-2, 2.0, make_kernel(1.0))
        F = dense_stencil(fld, 1.0)
        lams = -np.linalg.eigvalsh(F)
        eta, dt = 1.5, 0.4
        dense_eigs = np.linalg.eigvals(dense_A(F, eta, dt))
        formula = []
        for lam in lams:
            formula.extend(mode_amplification_formula(lam, eta, dt))
        formula = np.array(formula)
        unmatched = np.ones(len(formula), dtype=bool)
        worst = 0.0
        for z in dense_eigs:
            d = np.where(unmatched, np.abs(formula - z), np.inf)
            pick = int(np.argmin(d))
            worst = max(worst, d[pick])
            unmatched[pick] = False
        assert worst <= 1e-8

    @pytest.mark.parametrize("mode_index,eta", [(4, 0.3), (7, 0.8)])
    def test_second_order_in_time(self, mode_index, eta):
        m = 32
        lam = 4.0 * np.sin(np.pi * mode_index / (2 * m)) ** 2
        u0 = self.cosine_mode_grid(m, mode_index)
        T = 20.0
        errs = []
        for dt in (0.25, 0.125):
            steps = int(round(T / dt))
            cfg = fixed_cfg(dt, steps=steps, eta=eta, exponent_p=2.0)
            out, _ = run_svddf(u0, cfg)
            exact = damped_oscillator(lam, eta, T)
            errs.append(np.max(np.abs(out.pixels - exact * u0.pixels)))
        assert 3.2 <= errs[0] / errs[1] <= 4.8


class TestStability:
    def test_composite_map_contractive_at_stable_damping(self, rng):
        # eta = 2 keeps the spectral step rule inside the true stability
        # region dt <= 2 / sqrt(lambda_max); the two-factor map must then be
        # non-expansive in spectral radius
        fld = diffusivity_half(random_grid(rng, 6, 6), 1e-2, 1.0, make_kernel(1.0))
        F = dense_stencil(fld, 1.0)
        lam_top = float(-np.linalg.eigvalsh(F)[0])
        eta = 2.0
        dt = 0.9 * eta / np.sqrt(lam_top)
        BA = dense_B(F, eta, dt) @ dense_A(F, eta, dt)
        radius = float(np.max(np.abs(np.linalg.eigvals(BA))))
        assert radius <= 1.0 + 1e-10
        # spectral norm may exceed 1 for the non-normal map; report only
        print(f"spectral norm of the one-step map: {np.linalg.norm(BA, ord=2):.6f}")

    def test_trajectory_norm_monotone_at_stable_damping(self, rng):
        g = random_grid(rng, 16, 16)
        cfg = SolverConfig(eta=2.0, exponent_p=2.0, max_steps=300, stopping=MaxStepsOnly())
        state = initial_state(g, cfg)
        prev = np.hypot(np.linalg.norm(state.u), np.linalg.norm(state.v))
        for _ in range(300):
            state = sv_step(state, cfg)
            cur = np.hypot(np.linalg.norm(state.u), np.linalg.norm(state.v))
            assert cur <= prev * (1.0 + 1e-9)
            prev = cur


class TestEnergies:
    def test_constant_state(self):
        g = ImageGrid(np.full((6, 7), 0.4), spacing=0.5)
        cfg = fixed_cfg(0.1, exponent_p=1.5)
        state = initial_state(g, cfg)
        kinetic, potential = energies(state, cfg)
        assert kinetic == 0.0
        expected = 0.5**2 * 42 * cfg.epsilon ** (1.5 / 2.0) / 1.5
        assert potential == pytest.approx(expected, rel=1e-12)

    def test_doubling_velocity_quadruples_kinetic(self, rng):
        g = random_grid(rng, 6, 6)
        cfg = fixed_cfg(0.1)
        state = initial_state(g, cfg)
        state2 = sv_step(state, cfg)
        k1, _ = energies(state2, cfg)
        from dataclasses import replace

        k2, _ = energies(replace(state2, v=2.0 * state2.v), cfg)
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    def test_linear_total_energy_nonincreasing(self, rng):
        # p = 2: quadratic potential 1/2 u^T (-F) u plus kinetic energy must
        # decay along the damped trajectory for small steps
        g = random_grid(rng, 8, 8)
        cfg = fixed_cfg(0.02, steps=300, eta=1.0, exponent_p=2.0)
        state = initial_state(g, cfg)
        F = to_dense(state.F_prev)

        def total(s):
            return 0.5 * float(s.v @ s.v) + 0.5 * float(s.u @ (-F) @ s.u)

        prev = total(state)
        for _ in range(300):
            state = sv_step(state, cfg)
            cur = total(state)
            assert cur <= prev + 1e-8 * max(prev, 1.0)
            prev = cur


class TestFirstOrder:
    def test_constant_fixed_point(self):
        g = ImageGrid(np.full((6, 6), 0.3))
        out, log = run_first_order(g, fixed_cfg(0.2, steps=20))
        assert np.max(np.abs(out.pixels - 0.3)) <= 1e-12
        assert log.final_step() == 20

    def test_single_step_against_matrix_exponential(self, rng):
        from scipy.linalg import expm

        g = random_grid(rng, 8, 8)
        dt = 0.05
        cfg = fixed_cfg(dt, steps=1, eta=1.0, exponent_p=2.0)
        out, _ = run_first_order(g, cfg)
        state = initial_state(g, cfg)
        F = to_dense(state.F_prev)
        exact = expm(dt * F) @ vec(g)
        err = np.max(np.abs(vec(out) - exact))
        curvature = np.max(np.abs(F @ (F @ vec(g)))) * dt**2 / 2.0
        assert err <= 1.2 * curvature

    def test_mean_conserved_every_step(self, rng):
        g = random_grid(rng, 9, 9)
        cfg = SolverConfig(eta=1.0, exponent_p=1.0, max_steps=50, stopping=MaxStepsOnly())
        state = initial_state(g, cfg)
        m0 = state.u.mean()
        for _ in range(50):
            state = _first_order_step(state, cfg)
            assert abs(state.u.mean() - m0) <= 1e-10

    def test_spectral_rule_uses_explicit_euler_bound(self, rng):
        g = random_grid(rng, 8, 8)
        cfg = SolverConfig(eta=5.0, exponent_p=2.0, safety=0.5, max_steps=1, stopping=MaxStepsOnly())
        _, log = run_first_order(g, cfg)
        lam = log.records[0].lambda_max
        assert log.records[0].dt == pytest.approx(0.5 * 2.0 / lam, rel=1e-12)


class TestTrajectoryLog:
    def test_csv_layout(self, rng, tmp_path):
        g = random_grid(rng, 8, 8)
        out, log = run_svddf(g, fixed_cfg(0.1, steps=3))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,t,dt,lambda_max,vnorm,rde,sigma,kinetic,potential"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 0.1

    def test_rde_rule_stops_immediately_with_huge_tolerance(self, rng):
        g = random_grid(rng, 8, 8)
        cfg = SolverConfig(
            eta=2.0,
            exponent_p=1.0,
            max_steps=50,
            stopping=RdeStop(tolerance=1e6),
        )
        _, log = run_svddf(g, cfg)
        assert log.stopped_by == "rde"
        assert log.final_step() == 1
