"""The run contract, drawn whole: valid settings end in a finite image or a typed error, and the log says why.

Before any run, every numeric setting is either built or refused with ParameterError.
"""

import math
from fractions import Fraction
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from svddf import (
    AprioriStop,
    DiscrepancyStop,
    DivergenceError,
    GaussianKernel,
    ImageGrid,
    MaxStepsOnly,
    NoiseSpec,
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
        assert str(full) == str(lean)
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


# a number as a caller may write it: any float (nan, +-inf and subnormals too), an int up to +-10**400, or a
# Fraction, the last two of which can lie past the float range or round to 0.0
_reals = st.one_of(
    st.floats(),
    st.integers(-10**400, 10**400),
    st.builds(Fraction, st.integers(-10**400, 10**400), st.integers(1, 10**400)),
)
# each numeric setting, built with the drawn value and defaults elsewhere: (build, where the float it stores is read)
_SETTINGS = {
    "SolverConfig.exponent_p": (lambda x: SolverConfig(exponent_p=x), attrgetter("exponent_p")),
    "SolverConfig.eta": (lambda x: SolverConfig(eta=x), attrgetter("eta")),
    "SolverConfig.epsilon": (lambda x: SolverConfig(epsilon=x), attrgetter("epsilon")),
    "SolverConfig.sigma": (lambda x: SolverConfig(sigma=x), attrgetter("sigma")),
    "SolverConfig.dt": (lambda x: SolverConfig(dt=x), attrgetter("dt")),
    "GaussianKernel": (GaussianKernel, attrgetter("sigma")),
    "RdeStop": (RdeStop, None),
    "DiscrepancyStop": (DiscrepancyStop, None),
    "AprioriStop.c1": (lambda x: AprioriStop(c1=x, c2=1.0, gamma=1.0, delta=0.1), None),
    "AprioriStop.c2": (lambda x: AprioriStop(c1=1.0, c2=x, gamma=1.0, delta=0.1), None),
    "AprioriStop.gamma": (lambda x: AprioriStop(c1=1.0, c2=1.0, gamma=x, delta=0.1), None),
    "AprioriStop.delta": (lambda x: AprioriStop(c1=1.0, c2=1.0, gamma=1.0, delta=x), None),
    "NoiseSpec": (NoiseSpec, None),
}


@settings(max_examples=300, deadline=None)
@given(setting=st.sampled_from(sorted(_SETTINGS)), value=_reals)
def test_a_setting_is_built_or_refused_with_parameter_error(setting, value):
    build, stored = _SETTINGS[setting]
    try:
        built = build(value)
    except ParameterError:
        return
    if stored is not None:
        # converted once, when it is built: every later use reads the same float
        assert type(stored(built)) is float and stored(built) == float(value)
    if isinstance(built, SolverConfig):
        # the config holds the sigma its kernel was formed from, the one the run uses
        assert built.sigma == built.kernel.sigma
