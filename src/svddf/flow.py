"""Damped second-order image flow and its first-order baseline.

The evolution u_tt + eta * u_t = div(a(u) grad u) is advanced with a
damped Stormer-Verlet scheme: an implicit half-kick on the velocity, a
full drift, reassembly of the stencil from the pre-drift iterate, then an
explicit half-kick that damps with the midpoint velocity:

    v_half = (v + dt/2 * F_prev @ u) / (1 + eta * dt / 2)
    u_new  = u + dt * v_half
    v_new  = v_half + dt/2 * (F_new @ u_new - eta * v_half)

The baseline drops the inertial term and steps u_new = u + dt * F @ u
explicitly.  Both runners share the stopping rules and emit a per-step
trajectory log, or, on request, only the reason and step they stopped at.
"""

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .diffusivity import _cached_kernel, constant_diffusivity, diffusivity_half
from .errors import DegenerateInputError, DivergenceError, ParameterError
from .grid import ImageGrid, array, vec
from .stencil import SparseOperator, apply, assemble, lambda_max
from .stopping import (
    AprioriStop,
    DiscrepancyStop,
    MaxStepsOnly,
    RdeStop,
    StoppingRule,
    _rde_change,
    default_band_threshold,
    discrepancy,
    high_freq_energy,
)

_TINY_LAMBDA = 1e-14


@dataclass(frozen=True)
class SolverConfig:
    """Parameter bundle for both flows.

    ``dt_rule`` is either ``"theorem"`` (dt = safety * eta / sqrt(lambda_max)
    for the second-order flow, safety * 2 / lambda_max for the baseline) or
    ``"fixed"`` (dt = dt_fixed).  ``dt_max`` caps the theorem rule and is
    required when the spectral bound degenerates to zero.  Each of
    ``dt_fixed`` and ``dt_max`` is rejected under the other rule.  Every
    float setting must be finite, ``max_steps`` an integer and ``stopping``
    one of the four rules.
    """

    exponent_p: float = 1.0
    eta: float = 2.0
    epsilon: float = 1e-2
    sigma: float = 1.0
    dt_rule: str = "theorem"
    dt_fixed: float | None = None
    safety: float = 0.9
    dt_max: float | None = None
    max_steps: int = 500
    stopping: StoppingRule = field(default_factory=MaxStepsOnly)

    def __post_init__(self):
        if not (1.0 <= self.exponent_p <= 2.0):
            raise ParameterError(f"p must lie in [1, 2], got {self.exponent_p}")
        if not (self.eta > 0):
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if not (self.epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.sigma > 0):
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if not (0.0 < self.safety <= 1.0):
            raise ParameterError(f"safety must lie in (0, 1], got {self.safety}")
        if self.dt_rule not in ("theorem", "fixed"):
            raise ParameterError(f"dt_rule must be 'theorem' or 'fixed', got {self.dt_rule!r}")
        if self.dt_rule == "fixed" and not (self.dt_fixed and self.dt_fixed > 0):
            raise ParameterError("dt_rule 'fixed' needs a positive dt_fixed")
        if self.dt_rule == "fixed" and self.dt_max is not None:
            raise ParameterError("dt_max caps the theorem rule and has no effect under dt_rule 'fixed'")
        if self.dt_rule == "theorem" and self.dt_fixed is not None:
            raise ParameterError("dt_fixed has no effect under dt_rule 'theorem'")
        if self.dt_max is not None and not (self.dt_max > 0):
            raise ParameterError(f"dt_max must be positive, got {self.dt_max}")
        for name in ("eta", "epsilon", "sigma", "dt_fixed", "dt_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value}")
        try:
            operator.index(self.max_steps)
        except TypeError:
            raise ParameterError(f"max_steps must be an integer, got {self.max_steps!r}") from None
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be at least 1, got {self.max_steps}")
        if not isinstance(self.stopping, StoppingRule):
            raise ParameterError(
                f"stopping must be RdeStop, DiscrepancyStop, AprioriStop or MaxStepsOnly, got {self.stopping!r}"
            )
        self.kernel()  # a sigma whose taps numpy cannot form is refused here, before any run

    def kernel(self):
        return _cached_kernel(self.sigma)


@dataclass(frozen=True)
class FlowState:
    """Stacked iterate (u, v) plus the stencil assembled from the previous iterate.

    The grid shape is the stencil's; ``spacing`` is the input image's grid step h.
    ``Fu`` is ``F_prev @ u``, formed on first read unless the step that made
    the state formed it already.
    """

    u: np.ndarray
    v: np.ndarray
    k: int
    t: float
    F_prev: SparseOperator
    spacing: float
    last_dt: float = float("nan")
    last_lambda: float = float("nan")

    @cached_property
    def Fu(self) -> np.ndarray:
        return apply(self.F_prev, self.u)


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    t: float
    dt: float
    lambda_max: float
    vnorm: float
    rde: float
    sigma: float
    kinetic: float
    potential: float


# one CSV column per record field, in field order: the step as its digits, each float round-trip exact
CSV_HEADER = ",".join(f.name for f in fields(TrajectoryRecord))
_CSV_ROW = ",".join("{}" if f.type is int else "{:.17g}" for f in fields(TrajectoryRecord)) + "\n"
_csv_values = operator.attrgetter(*CSV_HEADER.split(","))


class TrajectoryLog:
    """Per-step records of a run plus the reason and step it stopped at.

    A run that keeps no trajectory leaves ``records`` empty; ``stopped_by``
    and ``final_step()`` are set either way.  ``degenerate_rde`` is set
    when the band energy was evaluated and its previous value was zero.
    """

    def __init__(self):
        self.records: list[TrajectoryRecord] = []
        self.stopped_by: str = "max-steps"
        self.degenerate_rde: bool = False
        self.steps: int = 0

    def __len__(self):
        return len(self.records)

    def final_step(self) -> int:
        return self.steps

    def to_csv(self, path) -> None:
        """Write the records to the file at ``path``: a CSV_HEADER line, then one line per step."""
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.records:
                fh.write(_CSV_ROW.format(*_csv_values(r)))


def _assemble_from(u: np.ndarray, shape, spacing: float, config: SolverConfig) -> SparseOperator:
    """Stencil of the finite stacked iterate ``u``, computed column-major throughout.

    The image is the column-major view of ``u``, wrapped without a copy or
    a finiteness scan, so the coefficients come out in the stencil's layout.
    """
    image = ImageGrid.of_finite(u.reshape(shape, order="F"), spacing)
    fld = diffusivity_half(image, config.epsilon, config.exponent_p, config.kernel())
    return assemble(fld)


def initial_state(u0: ImageGrid, config: SolverConfig) -> FlowState:
    """State at k = 0: v = 0 and the startup stencil assembled from u0."""
    u = vec(u0)
    F0 = _assemble_from(u, u0.shape, u0.spacing, config)  # rejects grids below 2 x 2
    return FlowState(u=u, v=np.zeros_like(u), k=0, t=0.0, F_prev=F0, spacing=u0.spacing)


def _reassemble(state: FlowState, config: SolverConfig) -> SparseOperator:
    """Stencil of the state's iterate ``u``; ``u`` was checked finite when it was formed.

    That is the carried stencil at k = 0, which was assembled from this same
    ``u``, and at every k when the diffusivity is constant.
    """
    if state.k == 0 or constant_diffusivity(config.exponent_p):
        return state.F_prev
    return _assemble_from(state.u, (state.F_prev.rows, state.F_prev.cols), state.spacing, config)


def _step_length(F: SparseOperator, config: SolverConfig, stable_dt) -> tuple[float, float]:
    """Step length and spectral bound ``(dt, lam)`` under the configured rule (see SolverConfig).

    The fixed rule forms no bound (nan); the theorem rule caps ``stable_dt(lambda_max(F))`` by dt_max.
    """
    if config.dt_rule == "fixed":
        return float(config.dt_fixed), float("nan")
    lam = lambda_max(F)
    if lam < _TINY_LAMBDA:
        if config.dt_max is None:
            raise ParameterError("spectral bound is zero and no dt_max is configured")
        return float(config.dt_max), lam
    dt = stable_dt(lam)
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    return float(dt), lam


def sv_step(state: FlowState, config: SolverConfig) -> FlowState:
    """One damped Stormer-Verlet step; returns the new state carrying its stencil.

    The closing half-kick's ``F_new @ u_new`` is the next state's ``Fu``,
    so it is stored there: one stencil product per step.
    """
    dt, lam = _step_length(state.F_prev, config, lambda lam: config.safety * config.eta / np.sqrt(lam))

    u, v = state.u, state.v
    # transient infs on a diverging run are caught below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        v_half = (v + 0.5 * dt * state.Fu) / (1.0 + 0.5 * config.eta * dt)
        u_new = u + dt * v_half
        if not np.isfinite(u_new).all():
            raise DivergenceError(f"non-finite iterate at step {state.k}", step=state.k)
        F_new = _reassemble(state, config)
        Fu_new = apply(F_new, u_new)
        v_new = v_half + 0.5 * dt * (Fu_new - config.eta * v_half)
    if not np.isfinite(v_new).all():
        raise DivergenceError(f"non-finite velocity at step {state.k}", step=state.k)
    new = FlowState(u=u_new, v=v_new, k=state.k + 1, t=state.t + dt, F_prev=F_new, spacing=state.spacing,
                    last_dt=dt, last_lambda=lam)
    object.__setattr__(new, "Fu", Fu_new)  # fills the cache, as the first read of ``Fu`` would
    return new


def energies(state: FlowState, vv: float | None = None) -> tuple[float, float]:
    """Kinetic and potential energy, h^2/2 * v.v and -h^2/2 * u.(F_prev u), of the state.

    ``vv`` is v @ v when the caller has formed it.  The potential reads the
    state's ``Fu``, which ``sv_step`` stores, so an SV-DDF state forms no
    stencil product here; a first-order state forms F_k u_{k+1} on first read.
    """
    h2 = state.spacing**2
    with np.errstate(over="ignore", invalid="ignore"):
        if vv is None:
            vv = float(state.v @ state.v)
        # 0.0 - x: a constant image, whose F u is zero, logs +0, not -0
        return 0.5 * h2 * vv, 0.5 * h2 * float(0.0 - state.u @ state.Fu)


def _record(state: FlowState, rde_val: float, sig: float) -> TrajectoryRecord:
    with np.errstate(over="ignore", invalid="ignore"):
        vv = float(state.v @ state.v)
        # np.linalg.norm(v) is exactly sqrt(v @ v)
        vnorm = float(np.sqrt(vv))
    kinetic, potential = energies(state, vv)
    return TrajectoryRecord(
        step=state.k,
        t=state.t,
        dt=state.last_dt,
        lambda_max=state.last_lambda,
        vnorm=vnorm,
        rde=rde_val,
        sigma=sig,
        kinetic=kinetic,
        potential=potential,
    )


def _run(u0: ImageGrid, config: SolverConfig, advance, keep_trajectory: bool):
    """Step with ``advance`` until the configured rule fires; returns the image and its log.

    With ``keep_trajectory`` every step appends a full record.  Without it
    only the rule's own quantity is formed: the band energy for rde, sigma
    for the discrepancy rule, t for the a-priori rule, nothing for max-steps.
    """
    state = initial_state(u0, config)
    rule = config.stopping
    log = TrajectoryLog()
    data = state.u  # vec(u0), the noisy data the discrepancy is measured against
    data_norm = float(np.linalg.norm(data))
    if data_norm == 0.0:
        raise DegenerateInputError("noisy data has zero norm")
    with_rde = keep_trajectory or isinstance(rule, RdeStop)
    with_sigma = keep_trajectory or isinstance(rule, DiscrepancyStop)
    if with_rde:
        band = rule.band_threshold if isinstance(rule, RdeStop) else default_band_threshold
        n0 = band(*u0.shape)
        prev_energy = high_freq_energy(u0.pixels, n0)
    horizon = rule.horizon() if isinstance(rule, AprioriStop) else None
    try:
        for _ in range(config.max_steps):
            state = advance(state, config)
            rde_val = sig = float("nan")
            with np.errstate(over="ignore", invalid="ignore"):
                if with_rde:
                    energy = high_freq_energy(state.u.reshape(u0.shape, order="F"), n0)
                    if prev_energy == 0.0:
                        log.degenerate_rde = True
                    rde_val = _rde_change(energy, prev_energy)
                    prev_energy = energy
                if with_sigma:
                    sig = discrepancy(state.u, data, 0.0, u0_norm=data_norm).sigma
            if keep_trajectory:
                log.records.append(_record(state, rde_val, sig))
            log.steps = state.k
            reason = None
            if isinstance(rule, RdeStop) and rde_val < rule.tolerance:
                reason = "rde"
            elif isinstance(rule, DiscrepancyStop) and sig - rule.delta >= 0.0:
                reason = "discrepancy"
            elif isinstance(rule, AprioriStop) and state.t >= horizon:
                reason = "a-priori"
            if reason is not None:
                log.stopped_by = reason
                break
    except DivergenceError as err:
        err.partial_log = log
        raise
    return array(state.u, state.F_prev.rows, state.F_prev.cols, spacing=state.spacing), log


def run_svddf(
    u0: ImageGrid, config: SolverConfig, *, keep_trajectory: bool = True
) -> tuple[ImageGrid, TrajectoryLog]:
    """Iterate the damped Stormer-Verlet flow until the stopping rule fires.

    ``keep_trajectory=False`` keeps no per-step records; see :func:`_run`.
    """
    return _run(u0, config, sv_step, keep_trajectory)


def _first_order_step(state: FlowState, config: SolverConfig) -> FlowState:
    """Explicit step of the first-order flow u_t = div(a(u) grad u)."""
    F = _reassemble(state, config)
    # classical explicit-Euler stability for a symmetric negative operator
    dt, lam = _step_length(F, config, lambda lam: config.safety * 2.0 / lam)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = apply(F, state.u)
        u_new = state.u + dt * rate
    if not np.isfinite(u_new).all():
        raise DivergenceError(f"non-finite iterate at step {state.k}", step=state.k)
    # v: the finite-difference rate, logged as the velocity proxy
    return FlowState(u=u_new, v=rate, k=state.k + 1, t=state.t + dt, F_prev=F, spacing=state.spacing,
                     last_dt=dt, last_lambda=lam)


def run_first_order(
    u0: ImageGrid, config: SolverConfig, *, keep_trajectory: bool = True
) -> tuple[ImageGrid, TrajectoryLog]:
    """Iterate the first-order baseline flow with the same stopping machinery.

    ``keep_trajectory`` as for :func:`run_svddf`.
    """
    return _run(u0, config, _first_order_step, keep_trajectory)
