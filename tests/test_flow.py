import csv
import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import svddf
from svddf import (
    AprioriStop,
    DiscrepancyStop,
    FlowState,
    ImageGrid,
    MaxStepsOnly,
    RdeStop,
    SolverConfig,
    SparseOperator,
    apply,
    array,
    diffusivity_half,
    energies,
    initial_state,
    lambda_max,
    make_kernel,
    run_first_order,
    run_svddf,
    sv_step,
    to_dense,
    vec,
)
from svddf.flow import _first_order_step, _record, step_at_bound

from conftest import random_grid
from oracles import (
    damped_oscillator,
    dense_A,
    dense_B,
    dense_stencil,
    heavy_ball_flow,
    mode_amplification_formula,
    p2_modal_flow,
    reassembling_flow,
)


def fixed_cfg(dt, steps=10, **kw):
    kw.setdefault("eta", 1.5)
    kw.setdefault("exponent_p", 1.0)
    return SolverConfig(dt=dt, max_steps=steps, stopping=MaxStepsOnly(), **kw)


# each flow's step and whether it is the first-order baseline
STEPPERS = {"svddf": (sv_step, False), "first-order": (_first_order_step, True)}


def one_step(method, config, coupling=1.0):
    """The state after one ``method`` step from k = 0 on a 3 x 3 grid of equal couplings.

    The centre pixel has four couplings, so lambda_max is 8 * ``coupling``; at k = 0 both flows step with this stencil.
    """
    ci, cj = np.full((2, 3, 3), coupling)
    ci[-1] = 0.0
    cj[:, -1] = 0.0
    op = SparseOperator(ci, cj)
    state = FlowState(u=np.linspace(0.0, 1.0, 9), v=np.zeros(9), k=0, t=0.0, F_prev=op)
    return STEPPERS[method][0](state, config)


class TestStepSize:
    """Each check runs both flows; the step length is read from the state the step returns."""

    def test_theorem_formula(self):
        # the bound lam = 8 * epsilon^((p-2)/2) is 8 at p = 2 and 80 at (p, epsilon) = (1, 1e-2) and (1.5, 1e-4)
        for p, epsilon, lam in ((2.0, 1e-2, 8.0), (1.0, 1e-2, 80.0), (1.5, 1e-4, 80.0)):
            cfg = SolverConfig(exponent_p=p, epsilon=epsilon, eta=300.0)
            # 0.9 * eta / sqrt(lam) for the damped flow, 0.9 times explicit Euler's 2 / lam for the baseline
            expected = {"svddf": 0.9 * 300.0 / np.sqrt(lam), "first-order": 0.9 * 2.0 / lam}
            for method in STEPPERS:
                # the step is the config's, whatever the stencil it is taken on
                for coupling in (1.0, 0.5):
                    dt = one_step(method, cfg, coupling).last_dt
                    assert dt == pytest.approx(expected[method], rel=1e-15)

    def test_zero_stencil_never_moves(self):
        # the bound the step is taken at is never zero, so all-zero couplings take the config's step and stand still
        for method in STEPPERS:
            for config in (SolverConfig(eta=1.0), fixed_cfg(0.125)):
                new = one_step(method, config, 0.0)
                assert new.last_dt == step_at_bound(config, second_order=method == "svddf")[0]
                assert np.array_equal(new.u, np.linspace(0.0, 1.0, 9))
                assert not new.v.any()

    # an eta of 5e-324 makes the damped flow's theorem step underflow: a run that never moves is refused.
    # The baseline's 0.9 * 2 / lam cannot underflow.
    @pytest.mark.parametrize("runner, setting", [(run_svddf, {"eta": 5e-324})], ids=["svddf"])
    def test_zero_theorem_step_rejected(self, rng, runner, setting):
        u0 = random_grid(rng, 8, 8)
        config = SolverConfig(max_steps=5, **setting)
        with pytest.raises(svddf.ParameterError, match=r"^the theorem rule's step underflows to 0\.0 at spectral bound"):
            runner(u0, config)
        with pytest.raises(svddf.ParameterError) as err:
            step_at_bound(config, second_order=runner is run_svddf)
        assert str(err.value) == (
            f"the theorem rule's step underflows to 0.0 at spectral bound 80.0 "
            f"(eta={config.eta!r}); set a fixed dt"
        )
        _, log = runner(u0, dataclasses.replace(config, dt=0.1))
        assert [r.dt for r in log.records] == [0.1] * 5

    @pytest.mark.parametrize("epsilon", [5e-324, 1.7976931348623157e308])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_bound_at_extreme_epsilon_gives_a_step(self, p, epsilon):
        # 8 * epsilon^((p-2)/2) is at least about 6e-154 for every finite epsilon > 0: never zero, never inf
        config = SolverConfig(exponent_p=p, epsilon=epsilon)
        for second_order in (True, False):
            dt, limit = step_at_bound(config, second_order)
            assert 0.0 < dt < math.inf and 0.0 < limit < math.inf

    def test_tiny_positive_bound_sets_the_step(self, rng):
        # at epsilon = 1e30 every coupling is near 1e-15: the bound is tiny but not zero, so the theorem rule steps.
        # At epsilon = 1e-2 the stencils' bounds vary from step to step; the step does not.
        u0 = random_grid(rng, 8, 8)
        for epsilon in (1e30, 1e-2):
            config = SolverConfig(eta=2.0, epsilon=epsilon, max_steps=3)
            lam = 8.0 * epsilon**-0.5
            for runner in (run_svddf, run_first_order):
                # every step of an auto run is the step the CLI checks
                dt, _ = step_at_bound(config, second_order=runner is run_svddf)
                _, log = runner(u0, config)
                assert [r.dt for r in log.records] == [dt] * 3
                for rec in log.records:
                    assert 0.0 < rec.lambda_max <= lam * (1.0 + 1e-15)

    def test_fixed_rule(self, rng):
        for runner in (run_svddf, run_first_order):
            _, log = runner(random_grid(rng, 6, 6), fixed_cfg(0.07, steps=3))
            assert [r.dt for r in log.records] == [0.07] * 3
            # a fixed step forms no bound
            assert all(math.isnan(r.lambda_max) for r in log.records)

    # the theorem rule takes no step cap: a config that sets one is refused, not ignored
    @pytest.mark.parametrize("dt_max", [-0.1, 0.0, float("nan")])
    def test_non_positive_dt_max_rejected(self, dt_max):
        with pytest.raises(TypeError, match="unexpected keyword argument 'dt_max'"):
            SolverConfig(dt_max=dt_max)

    def test_dt_max_rejected_under_fixed_rule(self):
        with pytest.raises(TypeError, match="unexpected keyword argument 'dt_max'"):
            SolverConfig(dt=0.15, dt_max=0.01)


# one case per check a SolverConfig makes when built (sigma's are GaussianKernel's): the field, failing settings, message
CONFIG_REJECTIONS = [
    ("exponent_p", {"exponent_p": 0.5}, "p must lie in [1, 2], got 0.5"),
    ("exponent_p", {"exponent_p": 2.5}, "p must lie in [1, 2], got 2.5"),
    ("exponent_p", {"exponent_p": math.nan}, "p must lie in [1, 2], got nan"),
    ("eta", {"eta": 0.0}, "eta must be positive, got 0.0"),
    ("eta", {"eta": math.nan}, "eta must be positive, got nan"),
    ("epsilon", {"epsilon": -1e-3}, "epsilon must be positive, got -0.001"),
    ("sigma", {"sigma": 0.0}, "sigma must be positive, got 0.0"),
    ("sigma", {"sigma": 1e-320}, "sigma = 1e-320 is too small: the derivative taps t/sigma overflow"),
    ("dt", {"dt": "theorem"}, "dt must be 'auto' or a positive finite step length, got 'theorem'"),
    ("dt", {"dt": None}, "dt must be 'auto' or a positive finite step length, got None"),
    ("dt", {"dt": 0.0}, "dt must be 'auto' or a positive finite step length, got 0.0"),
    ("dt", {"dt": -0.1}, "dt must be 'auto' or a positive finite step length, got -0.1"),
    ("max_steps", {"max_steps": 0}, "max_steps must be at least 1, got 0"),
    ("eta", {"eta": math.inf}, "eta must be finite, got inf"),
    ("epsilon", {"epsilon": math.inf}, "epsilon must be finite, got inf"),
    ("sigma", {"sigma": math.inf}, "sigma must be finite, got inf"),
    (
        "sigma",
        {"sigma": 1e300},
        "sigma = 1e+300 is too large: radius 3e+150 needs 6e+150 taps, more than numpy can allocate",
    ),
    ("dt", {"dt": math.inf}, "dt must be 'auto' or a positive finite step length, got inf"),
    ("dt", {"dt": math.nan}, "dt must be 'auto' or a positive finite step length, got nan"),
    ("max_steps", {"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
    ("max_steps", {"max_steps": "9"}, "max_steps must be an integer, got '9'"),
    (
        "stopping",
        {"stopping": "rde"},
        "stopping must be RdeStop, DiscrepancyStop, AprioriStop or MaxStepsOnly, got 'rde'",
    ),
]


class TestConfigRejections:
    @pytest.mark.parametrize(
        "settings, message", [case[1:] for case in CONFIG_REJECTIONS], ids=[case[0] for case in CONFIG_REJECTIONS]
    )
    def test_rejected_with_its_message(self, settings, message):
        with pytest.raises(svddf.ParameterError) as err:
            SolverConfig(**settings)
        assert str(err.value) == message

    def test_cases_cover_every_field(self):
        assert {case[0] for case in CONFIG_REJECTIONS} == {f.name for f in dataclasses.fields(SolverConfig)}

    def test_config_owns_its_kernel(self):
        cfg = SolverConfig(sigma=2.0)
        assert cfg.kernel() is cfg.kernel()
        assert np.array_equal(cfg.kernel().dg, make_kernel(2.0).dg)
        # no kernel is shared between configs, and a replaced sigma forms its own taps
        assert SolverConfig(sigma=2.0).kernel() is not cfg.kernel()
        assert dataclasses.replace(cfg, sigma=0.5).kernel().sigma == 0.5

    def test_config_taps_are_read_only(self):
        # every run under a config reads its taps, so none may write them
        kern = SolverConfig().kernel()
        for taps in (kern.g, kern.dg):
            with pytest.raises(ValueError):
                taps[0] = 1.0

    @pytest.mark.parametrize("steps", [3, np.int64(3), np.uint8(3)])
    def test_integer_step_budgets_accepted(self, rng, steps):
        _, log = run_svddf(random_grid(rng, 6, 6), fixed_cfg(0.1, steps=steps))
        assert log.final_step() == 3


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
            assert np.array_equal(state.Fu, apply(state.F_prev, state.u))

    def test_product_is_not_a_settable_field(self):
        assert "Fu" not in {f.name for f in dataclasses.fields(FlowState)}

    @pytest.mark.parametrize("replaced", ["u", "F_prev"])
    def test_replaced_state_steps_like_one_built_fresh(self, rng, replaced):
        cfg = SolverConfig(exponent_p=1.5, eta=1.5, max_steps=3, stopping=MaxStepsOnly())
        state = initial_state(random_grid(rng, 8, 9), cfg)
        for _ in range(2):
            state = sv_step(state, cfg)
        changes = {"u": 1.01 * state.u, "F_prev": initial_state(random_grid(rng, 8, 9), cfg).F_prev}
        state = dataclasses.replace(state, **{replaced: changes[replaced]})
        fresh = FlowState(u=state.u, v=state.v, k=state.k, t=state.t, F_prev=state.F_prev)
        stepped, expected = sv_step(state, cfg), sv_step(fresh, cfg)
        for name in ("u", "v", "Fu"):
            assert np.array_equal(getattr(stepped, name), getattr(expected, name))
        assert (stepped.t, stepped.last_dt) == (expected.t, expected.last_dt)


class TestStencilReuse:
    """For p = 2 the coefficients are 1 for every image, so the startup stencil is kept for the run."""

    @pytest.mark.parametrize("method", sorted(STEPPERS))
    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("dt", [0.02, "auto"], ids=["fixed", "theorem"])
    def test_steps_match_a_loop_that_reassembles_every_step(self, rng, method, p, dt):
        g = random_grid(rng, 7, 9)
        step, first_order = STEPPERS[method]
        cfg = SolverConfig(exponent_p=p, eta=1.5, dt=dt, max_steps=12, stopping=MaxStepsOnly())
        state = initial_state(g, cfg)
        for _ in range(cfg.max_steps):
            state = step(state, cfg)
        u, v = reassembling_flow(g, cfg, cfg.max_steps, first_order)
        assert np.array_equal(state.u, u)
        assert np.array_equal(state.v, v)

    @pytest.mark.parametrize("runner", [run_svddf, run_first_order])
    @pytest.mark.parametrize("p,assembled", [(2.0, 1), (1.5, 20)])
    def test_assemble_calls_per_run(self, rng, monkeypatch, runner, p, assembled):
        calls = []
        real = svddf.flow.assemble

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(svddf.flow, "assemble", counting)
        _, log = runner(random_grid(rng, 6, 8), fixed_cfg(0.02, steps=20, exponent_p=p))
        assert log.final_step() == 20
        # otherwise once at start-up and once per step after the first
        assert len(calls) == assembled

    @pytest.mark.parametrize("runner", [run_svddf, run_first_order])
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_bound_formed_once_per_operator(self, rng, monkeypatch, runner, p):
        ops, diagonals = [], []
        real_bound, real_diagonal = svddf.flow.lambda_max, svddf.SparseOperator.diagonal

        def recording(op):
            ops.append(op)  # a reference, as id() values are reused once an operator is freed
            return real_bound(op)

        def counting(op):
            diagonals.append(op)
            return real_diagonal.fget(op)

        monkeypatch.setattr(svddf.flow, "lambda_max", recording)
        monkeypatch.setattr(svddf.SparseOperator, "diagonal", property(counting))
        cfg = SolverConfig(exponent_p=p, eta=1.5, max_steps=20, stopping=MaxStepsOnly())
        _, log = runner(random_grid(rng, 6, 8), cfg)
        assert log.final_step() == len(ops) == 20
        distinct = {id(op) for op in ops}  # stable while ``ops`` holds the operators
        assert len(diagonals) == len(distinct)
        assert {id(op) for op in diagonals} == distinct
        if p == 2.0:
            assert len(distinct) == 1


class TestHeavyBall:
    """At a fixed step the damped Stormer-Verlet flow is Polyak's heavy ball; every run has one step."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("eta, dt", [(300.0, 0.15), (10.0, 0.2), (2.0, "auto")])
    def test_run_matches_the_two_term_recursion(self, p, eta, dt):
        noisy = noisy_disk(64, seed=1)
        cfg = SolverConfig(exponent_p=p, eta=eta, dt=dt, max_steps=300, stopping=MaxStepsOnly())
        out, log = run_svddf(noisy, cfg, keep_trajectory=False)
        assert log.final_step() == 300
        expected = heavy_ball_flow(noisy, cfg, 300)
        assert np.max(np.abs(vec(out) - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestModalOracle:
    """At p = 2 a fixed-step run is, per DCT mode, README's 2x2 map raised to the number of steps."""

    @pytest.mark.parametrize("shape", [(128, 128), (40, 72)])
    @pytest.mark.parametrize("eta, dt", [(1.0, 0.3), (10.0, 0.2), (300.0, 0.15), (10.0, 0.9)])
    def test_p2_run_matches_the_modal_oracle(self, rng, shape, eta, dt):
        # (10, 0.9) puts dt^2 * lam_top above 4: its top modes grow, and the oracle gives that growth
        steps = 60
        u0 = random_grid(rng, *shape)
        cfg = SolverConfig(exponent_p=2.0, eta=eta, dt=dt, max_steps=steps, stopping=MaxStepsOnly())
        out, log = run_svddf(u0, cfg)
        u, v = p2_modal_flow(u0.pixels, eta, dt, steps)
        assert log.final_step() == steps
        assert np.linalg.norm(out.pixels - u) <= 1e-12 * np.linalg.norm(u)
        assert abs(log.records[-1].vnorm - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


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

    @staticmethod
    def stencil(shape, coupling=1.0):
        """The p = 2 stencil on ``shape`` with every interior coupling equal to ``coupling``."""
        F = initial_state(ImageGrid(np.zeros(shape)), SolverConfig(exponent_p=2.0)).F_prev
        return SparseOperator(coupling * F.ci, coupling * F.cj)

    @staticmethod
    def one_step_matrix(F, cfg):
        """The matrix of sv_step on (u, v) for p = 2 and stencil ``F``, one column per stepped unit vector."""
        n = F.dim
        columns = []
        for e in np.eye(2 * n):
            # k = 1: past the start-up step, so the step takes its stencil from the reuse rule
            state = sv_step(FlowState(u=e[:n], v=e[n:], k=1, t=0.0, F_prev=F), cfg)
            columns.append(np.concatenate([state.u, state.v]))
        return np.array(columns).T

    # couplings 2 and 0.5 scale lambda_max, so the step is checked off the unit stencil's values too
    @pytest.mark.parametrize("shape,coupling", [((2, 2), 1.0), ((3, 5), 2.0), ((8, 8), 1.0), ((8, 4), 0.5)])
    @pytest.mark.parametrize("eta", [0.001, 1.0, 10.0, 300.0])
    def test_program_step_non_expansive_when_dt2_lambda_at_most_4(self, shape, coupling, eta):
        # dt^2 * lambda_top <= 4 for every eta (README, Jury analysis); lambda_max
        # bounds lambda_top from above, so dt = 0.9 * 2 / sqrt(lambda_max) qualifies
        F = self.stencil(shape, coupling)
        dt = 0.9 * 2.0 / np.sqrt(lambda_max(F))
        cfg = SolverConfig(exponent_p=2.0, eta=eta, dt=dt)
        M = self.one_step_matrix(F, cfg)
        assert np.max(np.abs(np.linalg.eigvals(M))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("shape", [(3, 5), (8, 8)])
    def test_program_step_expands_under_theorem_rule_at_eta_10(self, shape):
        # dt = 0.9 * eta / sqrt(lambda_max) puts dt^2 * lambda_top far above 4 at eta = 10
        cfg = SolverConfig(exponent_p=2.0, eta=10.0, dt="auto")
        F = self.stencil(shape)
        M = self.one_step_matrix(F, cfg)
        assert M.shape == (2 * F.dim, 2 * F.dim)
        assert np.max(np.abs(np.linalg.eigvals(M))) > 1.0


class TestEnergies:
    def test_constant_state(self):
        g = ImageGrid(np.full((6, 7), 0.4))
        cfg = fixed_cfg(0.1, exponent_p=1.5)
        state = initial_state(g, cfg)
        kinetic, potential = energies(state)
        assert kinetic == 0.0
        # F u is zero for a constant image, and the potential is +0, not -0
        assert math.copysign(1.0, potential) == 1.0 and potential == 0.0

    def test_doubling_velocity_quadruples_kinetic(self, rng):
        g = random_grid(rng, 6, 6)
        cfg = fixed_cfg(0.1)
        state = initial_state(g, cfg)
        state2 = sv_step(state, cfg)
        k1, _ = energies(state2)
        k2, _ = energies(dataclasses.replace(state2, v=2.0 * state2.v))
        assert k2 == pytest.approx(4.0 * k1, rel=1e-12)

    @pytest.mark.parametrize("dt", [0.02, 0.15, 0.5])
    @pytest.mark.parametrize("eta", [1.0, 10.0, 300.0])
    def test_logged_p2_energy_never_rises(self, eta, dt):
        # the logged kinetic + potential is the energy of the operator the
        # flow steps with, which the damped scheme dissipates for p = 2
        clean = ImageGrid(0.25 + 0.5 * svddf.synth_image("disk", 32, 32).pixels)
        noisy = svddf.add_noise(clean, svddf.NoiseSpec(delta=0.54, seed=7))
        _, log = run_svddf(noisy, fixed_cfg(dt, steps=300, eta=eta, exponent_p=2.0))
        total = [r.kinetic + r.potential for r in log.records]
        assert len(total) == 300
        rises = [k for k in range(1, 300) if total[k] > total[k - 1] + 1e-12 * abs(total[k - 1])]
        assert rises == []

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
        cfg = SolverConfig(eta=5.0, exponent_p=2.0, max_steps=1, stopping=MaxStepsOnly())
        _, log = run_first_order(g, cfg)
        lam = log.records[0].lambda_max
        assert log.records[0].dt == pytest.approx(0.9 * 2.0 / lam, rel=1e-12)

    def test_divergence_raises_with_partial_log(self, rng):
        # p = 2 and dt = 1: explicit Euler amplifies the top modes by up to |1 - 8| per step
        g = random_grid(rng, 6, 6)
        with pytest.raises(svddf.DivergenceError) as err:
            run_first_order(g, fixed_cfg(1.0, steps=1000, exponent_p=2.0))
        step, log = err.value.step, err.value.partial_log
        assert str(err.value) == f"non-finite iterate at step {step}"
        assert 0 < step < 1000
        assert log.final_step() == len(log) == step
        assert [r.step for r in log.records] == list(range(1, step + 1))


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

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("runner", [run_svddf, run_first_order])
    @pytest.mark.parametrize("n", [8, 9])
    def test_constant_image_band_energy_is_degenerate(self, n, runner, keep):
        # the band energy of a constant image is exactly 0.0, so the first relative change reads 0.0
        cfg = SolverConfig(dt=0.1, max_steps=50, stopping=RdeStop(tolerance=1e-6))
        _, log = runner(ImageGrid(np.full((n, n), 0.6)), cfg, keep_trajectory=keep)
        assert (log.stopped_by, log.final_step()) == ("rde", 1)
        assert [r.rde for r in log.records] == ([0.0] if keep else [])

    def test_noisy_image_band_energy_is_not_degenerate(self):
        cfg = SolverConfig(dt=0.15, max_steps=120, stopping=RdeStop(tolerance=1e-2))
        _, log = run_svddf(noisy_disk(), cfg)
        assert log.final_step() > 1
        assert all(r.rde > 0.0 for r in log.records)


STOP_RULES = [
    RdeStop(tolerance=5e-2),
    DiscrepancyStop(delta=0.2),
    AprioriStop(c1=5.0, c2=1.0, gamma=1.0, delta=0.3),
    MaxStepsOnly(),
]


def noisy_disk(n=16, seed=3):
    clean = ImageGrid(0.25 + 0.5 * svddf.synth_image("disk", n, n).pixels)
    return svddf.add_noise(clean, svddf.NoiseSpec(delta=0.4, seed=seed))


def replayed_stop(rule, csv_path):
    """(step, reason) at which ``rule`` stops a run, from the trajectory CSV of a longer run."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if rule.fired(float(row["rde"]), float(row["sigma"]), float(row["t"])):
            return int(row["step"]), rule.reason
    return int(rows[-1]["step"]), "max-steps"


class TestWithoutTrajectory:
    # first-order at dt 0.02, within its explicit bound 2 / lambda = 0.025 at p = 1
    @pytest.mark.parametrize("runner, dt", [(run_svddf, 0.15), (run_first_order, 0.02)])
    @pytest.mark.parametrize("rule", STOP_RULES, ids=lambda r: type(r).__name__)
    def test_same_image_and_stop_as_the_full_log(self, runner, dt, rule, tmp_path):
        noisy = noisy_disk()
        stops = set()
        for p, eta in ((1.0, 0.001), (1.0, 2.0), (1.5, 100.0), (2.0, 1.0)):
            cfg = SolverConfig(exponent_p=p, eta=eta, dt=dt,
                               max_steps=120, stopping=rule)
            full_out, full = runner(noisy, cfg)
            lean_out, lean = runner(noisy, cfg, keep_trajectory=False)
            assert np.array_equal(lean_out.pixels, full_out.pixels)
            assert lean.final_step() == full.final_step() == full.records[-1].step
            assert lean.stopped_by == full.stopped_by
            assert len(lean) == 0 and len(full) == full.final_step()
            stops.add(full.final_step())
            # the rule's own test over a budget-only run's CSV gives the step and reason it stopped at
            _, budget = runner(noisy, dataclasses.replace(cfg, stopping=MaxStepsOnly()))
            budget.to_csv(tmp_path / "trajectory.csv")
            assert replayed_stop(rule, tmp_path / "trajectory.csv") == (full.final_step(), full.stopped_by)
        if isinstance(rule, (RdeStop, DiscrepancyStop)):
            assert len(stops) > 1  # the cells stop at different steps

    def test_divergence_keeps_the_stop_step_without_records(self):
        g = svddf.synth_image("disk", 12, 12)
        cfg = SolverConfig(eta=300.0, exponent_p=2.0, max_steps=3000, stopping=MaxStepsOnly())
        logs = []
        for keep in (True, False):
            with pytest.raises(svddf.DivergenceError) as err:
                run_svddf(g, cfg, keep_trajectory=keep)
            logs.append(err.value.partial_log)
        assert logs[1].final_step() == logs[0].final_step() == len(logs[0]) >= 1
        assert len(logs[1]) == 0

    @pytest.mark.parametrize("keep", [True, False])
    @pytest.mark.parametrize("rule", STOP_RULES, ids=lambda r: type(r).__name__)
    def test_zero_data_rejected_before_the_first_step(self, keep, rule):
        cfg = SolverConfig(dt=0.1, max_steps=5, stopping=rule)
        with pytest.raises(svddf.DegenerateInputError):
            run_svddf(ImageGrid(np.zeros((6, 6))), cfg, keep_trajectory=keep)

    def test_log_columns_share_one_velocity_product(self, rng, monkeypatch):
        g = random_grid(rng, 9, 7)
        cfg = fixed_cfg(0.1, steps=4)
        state = initial_state(g, cfg)
        for _ in range(4):
            state = sv_step(state, cfg)
        products = []

        def counted(*args):
            products.append(args)
            return apply(*args)

        monkeypatch.setattr(svddf.flow, "apply", counted)
        record = _record(state, 0.0, 0.0, auto=False)
        # the potential reads the product sv_step stored; the log forms none
        assert products == []
        assert record.vnorm == math.sqrt(2.0 * record.kinetic)
        assert (record.kinetic, record.potential) == energies(state)


def _traced_layers():
    """``(module, attribute)`` of every layer in perfbench's tracer, read from its ``LAYERS``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for _, module, attr in tracer.LAYERS]


@pytest.mark.parametrize("module, attr", _traced_layers())
def test_benchmark_traced_layer_exists(module, attr):
    # perfbench's tracer wraps these module attributes by name; without one a
    # layer reads as absent with zero calls instead of failing
    assert callable(getattr(importlib.import_module(module), attr))
