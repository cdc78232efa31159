"""The run contract, drawn whole: valid settings end in a finite image or a typed error, and the log says why."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svddf import (
    AprioriStop,
    DiscrepancyStop,
    DivergenceError,
    ImageGrid,
    MaxStepsOnly,
    ParameterError,
    RdeStop,
    SolverConfig,
    run_first_order,
    run_svddf,
    vec,
)
from svddf.flow import step_at_bound

from oracles import heavy_ball_flow, replayed_stop

# positive finite floats, with a moderate band drawn as often as the whole range
_positive = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
)
_delta = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_rules = st.one_of(
    st.tuples(st.just(RdeStop), st.fixed_dictionaries({"tolerance": st.one_of(st.floats(1e-6, 1.0), _positive)})),
    st.tuples(st.just(DiscrepancyStop), st.fixed_dictionaries({"delta": st.one_of(st.floats(0.0, 1.0), _delta)})),
    st.tuples(
        st.just(AprioriStop),
        st.fixed_dictionaries({"c1": _positive, "c2": _positive, "gamma": _positive, "delta": _delta}),
    ),
    st.tuples(st.just(MaxStepsOnly), st.just({})),
)
RUNNERS = {"svddf": run_svddf, "first-order": run_first_order}


def read_rows(rule, log):
    """(rde, sigma, t, step) of each kept record, nan in each of rde and sigma that ``rule.reads`` does not name."""
    return [(r.rde if rule.reads == "rde" else math.nan, r.sigma if rule.reads == "sigma" else math.nan, r.t, r.step)
            for r in log.records]


def outcome(runner, noisy, config, keep_trajectory):
    """The image and log of a run, or the DivergenceError or ParameterError it raised."""
    try:
        return runner(noisy, config, keep_trajectory=keep_trajectory)
    except (DivergenceError, ParameterError) as err:
        return err


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 12), st.integers(2, 12)),
    seed=st.integers(0, 2**32 - 1),
    p=st.floats(1.0, 2.0),
    eta=_positive,
    epsilon=_positive,
    sigma=_positive,
    dt=st.one_of(st.just("auto"), st.floats(1e-3, 2.0), _positive),
    rule=_rules,
    method=st.sampled_from(sorted(RUNNERS)),
    max_steps=st.integers(1, 40),
)
def test_a_run_ends_finite_or_typed_and_its_log_says_why(shape, seed, p, eta, epsilon, sigma, dt, rule, method,
                                                        max_steps):
    noisy = ImageGrid(np.random.default_rng(seed).uniform(size=shape))
    try:
        stopping = rule[0](**rule[1])
        config = SolverConfig(exponent_p=p, eta=eta, epsilon=epsilon, sigma=sigma, dt=dt, max_steps=max_steps,
                              stopping=stopping)
    except ParameterError:
        return
    full = outcome(RUNNERS[method], noisy, config, True)
    lean = outcome(RUNNERS[method], noisy, config, False)
    assert type(full) is type(lean)
    if isinstance(full, ParameterError):
        return
    second_order = method == "svddf"
    if isinstance(full, DivergenceError):
        # the same step diverges without a trajectory, and the rule fired at no step before it
        assert full.step == lean.step
        log = full.partial_log
        assert log.steps == lean.partial_log.steps == len(log)
        assert replayed_stop(stopping, read_rows(stopping, log)) == (len(log), MaxStepsOnly.reason)
    else:
        (out, log), (lean_out, lean_log) = full, lean
        assert np.isfinite(out.pixels).all()
        assert np.array_equal(lean_out.pixels, out.pixels)
        assert (lean_log.stopped_by, lean_log.steps) == (log.stopped_by, log.steps)
        assert replayed_stop(stopping, read_rows(stopping, log)) == (log.steps, log.stopped_by)
        assert len(lean_log) == 0 and 1 <= log.steps <= max_steps
        assert log.stopped_by != MaxStepsOnly.reason or log.steps == max_steps
    step, limit = step_at_bound(config, second_order)
    assert all(r.dt == step for r in log.records)
    if second_order and dt != "auto" and step <= limit and not isinstance(full, DivergenceError):
        expected = heavy_ball_flow(noisy, config, log.steps)
        assert np.max(np.abs(vec(out) - expected)) <= 1e-12 * np.max(np.abs(expected))
