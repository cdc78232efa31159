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
import numbers
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .diffusivity import GaussianKernel, constant_diffusivity, diffusivity_half, make_kernel
from .errors import DivergenceError, ParameterError
from .grid import ImageGrid, _dot, _reference_norm, array, vec
from .stencil import SparseOperator, apply, assemble, lambda_max
from .stopping import (
    MaxStepsOnly,
    StoppingRule,
    _rde_change,
    default_band_threshold,
    discrepancy,
    high_freq_energy,
)


SAFETY = 0.9  # the fraction of the spectral step bound that the theorem rule takes


@dataclass(frozen=True)
class SolverConfig:
    """Parameter bundle for both flows.

    ``dt`` is ``"auto"``, the theorem rule, or a positive finite fixed step
    length.  The theorem rule takes one step length for the whole run, worked
    out from the config alone at the bound lam = 8 * epsilon^((p-2)/2) that no
    image's ``lambda_max`` exceeds: dt = SAFETY * eta / sqrt(lam) for the
    second-order flow, SAFETY * 2 / lam for the baseline (see ``step_at_bound``).
    It has no step where that step underflows to zero.  Every float setting
    must be finite, ``max_steps`` an integer and ``stopping`` one of the four
    rules.
    """

    exponent_p: float = 1.0
    eta: float = 2.0
    epsilon: float = 1e-2
    sigma: float = 1.0
    dt: float | str = "auto"
    max_steps: int = 500
    stopping: StoppingRule = field(default_factory=MaxStepsOnly)

    def __post_init__(self):
        if not (1.0 <= self.exponent_p <= 2.0):
            raise ParameterError(f"p must lie in [1, 2], got {self.exponent_p}")
        if not (self.eta > 0):
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if not (self.epsilon > 0):
            raise ParameterError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.dt == "auto" or isinstance(self.dt, numbers.Real) and 0.0 < self.dt < math.inf):
            raise ParameterError(f"dt must be 'auto' or a positive finite step length, got {self.dt!r}")
        for name in ("eta", "epsilon"):
            value = getattr(self, name)
            if not math.isfinite(value):
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
        self._kernel  # GaussianKernel(sigma) checks sigma here, before any run

    @cached_property
    def _kernel(self) -> GaussianKernel:
        return make_kernel(self.sigma)

    def kernel(self) -> GaussianKernel:
        return self._kernel


@dataclass(frozen=True)
class FlowState:
    """Stacked iterate (u, v) plus the stencil assembled from the previous iterate.

    The grid shape is the stencil's.  ``Fu`` is ``F_prev @ u``, formed on
    first read unless the step that made the state formed it already.
    """

    u: np.ndarray
    v: np.ndarray
    k: int
    t: float
    F_prev: SparseOperator
    last_dt: float = float("nan")

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
    and ``final_step()`` are set either way.
    """

    def __init__(self):
        self.records: list[TrajectoryRecord] = []
        self.stopped_by: str = MaxStepsOnly.reason
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


def _assemble_from(u: np.ndarray, shape, config: SolverConfig) -> SparseOperator:
    """Stencil of the finite stacked iterate ``u``, computed column-major throughout.

    The image is the column-major view of ``u``, wrapped without a copy or
    a finiteness scan, so the coefficients come out in the stencil's layout.
    """
    image = ImageGrid.of_finite(u.reshape(shape, order="F"))
    fld = diffusivity_half(image, config.epsilon, config.exponent_p, config.kernel())
    return assemble(fld)


def initial_state(u0: ImageGrid, config: SolverConfig) -> FlowState:
    """State at k = 0: v = 0 and the startup stencil assembled from u0."""
    u = vec(u0)
    F0 = _assemble_from(u, u0.shape, config)  # rejects grids below 2 x 2
    return FlowState(u=u, v=np.zeros_like(u), k=0, t=0.0, F_prev=F0)


def _reassemble(state: FlowState, config: SolverConfig) -> SparseOperator:
    """Stencil of the state's iterate ``u``; ``u`` was checked finite when it was formed.

    That is the carried stencil at k = 0, which was assembled from this same
    ``u``, and at every k when the diffusivity is constant.
    """
    if state.k == 0 or constant_diffusivity(config.exponent_p):
        return state.F_prev
    return _assemble_from(state.u, (state.F_prev.rows, state.F_prev.cols), config)


def _spectral_bound(config: SolverConfig) -> float:
    """lam = 8 * epsilon^((p-2)/2): no coefficient exceeds epsilon^((p-2)/2), so no image's ``lambda_max`` does."""
    return 8.0 * config.epsilon ** ((config.exponent_p - 2.0) / 2.0)


def _rule_step(config: SolverConfig, second_order: bool) -> float:
    """Step length under the configured rule (see SolverConfig): the same for every step of a run."""
    if config.dt != "auto":
        return float(config.dt)
    lam = _spectral_bound(config)
    dt = float(SAFETY * config.eta / math.sqrt(lam) if second_order else SAFETY * 2.0 / lam)
    if dt == 0.0:
        raise ParameterError(
            f"the theorem rule's step underflows to 0.0 at spectral bound {lam!r} "
            f"(eta={config.eta!r}); set a fixed dt"
        )
    return dt


def step_at_bound(config: SolverConfig, second_order: bool = True) -> tuple[float, float]:
    """The run's step and the largest stable step where ``lambda_max`` peaks, ``(dt, limit)``.

    No image's ``lambda_max`` exceeds lam = 8 * epsilon^((p-2)/2), which is at
    least about 6e-154 for every finite epsilon > 0 and p in [1, 2].  A frozen
    stencil is stable for dt <= 2 / sqrt(lam), or dt <= 2 / lam under explicit
    Euler, so ``dt > limit`` exactly when some image can step unstably.
    """
    lam = _spectral_bound(config)
    limit = 2.0 / math.sqrt(lam) if second_order else 2.0 / lam
    return _rule_step(config, second_order), limit


def sv_step(state: FlowState, config: SolverConfig) -> FlowState:
    """One damped Stormer-Verlet step; returns the new state carrying its stencil.

    The closing half-kick's ``F_new @ u_new`` is the next state's ``Fu``,
    so it is stored there: one stencil product per step.
    """
    dt = _rule_step(config, second_order=True)

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
    new = FlowState(u=u_new, v=v_new, k=state.k + 1, t=state.t + dt, F_prev=F_new, last_dt=dt)
    object.__setattr__(new, "Fu", Fu_new)  # fills the cache, as the first read of ``Fu`` would
    return new


def energies(state: FlowState) -> tuple[float, float]:
    """Kinetic and potential energy, v.v / 2 and -u.(F_prev u) / 2, of the state.

    The potential reads the state's ``Fu``: ``sv_step`` stores it, a first-order state forms it on first read.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # 0.0 - x: a constant image, whose F u is zero, logs +0, not -0
        return 0.5 * _dot(state.v, state.v), 0.5 * (0.0 - _dot(state.u, state.Fu))


def _record(state: FlowState, rde_val: float, sig: float, auto: bool) -> TrajectoryRecord:
    """The state's log row; under ``auto`` it logs the Gershgorin bound of the row's own stencil."""
    kinetic, potential = energies(state)
    return TrajectoryRecord(
        step=state.k,
        t=state.t,
        dt=state.last_dt,
        lambda_max=lambda_max(state.F_prev) if auto else float("nan"),
        vnorm=math.sqrt(2.0 * kinetic),  # sqrt(v.v) to the bit unless v.v is subnormal
        rde=rde_val,
        sigma=sig,
        kinetic=kinetic,
        potential=potential,
    )


def _run(u0: ImageGrid, config: SolverConfig, advance, keep_trajectory: bool):
    """Step with ``advance`` until the configured rule fires; returns the image and its log.

    With ``keep_trajectory`` every step appends a full record.  Without it
    only the quantity the rule reads (``rule.reads``) is formed.  Each step
    ends with the one stop test ``rule.fired``.
    """
    state = initial_state(u0, config)
    rule = config.stopping
    log = TrajectoryLog()
    data = state.u  # vec(u0), the noisy data the discrepancy is measured against
    data_norm = float(_reference_norm(data, "noisy data"))
    with_rde = keep_trajectory or rule.reads == "rde"
    with_sigma = keep_trajectory or rule.reads == "sigma"
    if with_rde:
        n0 = default_band_threshold(*u0.shape)
        prev_energy = high_freq_energy(u0.pixels, n0)
    try:
        for _ in range(config.max_steps):
            state = advance(state, config)
            rde_val = sig = float("nan")
            with np.errstate(over="ignore", invalid="ignore"):
                if with_rde:
                    energy = high_freq_energy(state.u.reshape(u0.shape, order="F"), n0)
                    rde_val = _rde_change(energy, prev_energy)
                    prev_energy = energy
                if with_sigma:
                    sig = discrepancy(state.u, data, 0.0, u0_norm=data_norm).sigma
            if keep_trajectory:
                log.records.append(_record(state, rde_val, sig, config.dt == "auto"))
            log.steps = state.k
            if rule.fired(rde_val, sig, state.t):
                log.stopped_by = rule.reason
                break
    except DivergenceError as err:
        err.partial_log = log
        raise
    return array(state.u, state.F_prev.rows, state.F_prev.cols), log


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
    dt = _rule_step(config, second_order=False)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = apply(F, state.u)
        u_new = state.u + dt * rate
    if not np.isfinite(u_new).all():
        raise DivergenceError(f"non-finite iterate at step {state.k}", step=state.k)
    # v: the finite-difference rate, logged as the velocity proxy
    return FlowState(u=u_new, v=rate, k=state.k + 1, t=state.t + dt, F_prev=F, last_dt=dt)


def run_first_order(
    u0: ImageGrid, config: SolverConfig, *, keep_trajectory: bool = True
) -> tuple[ImageGrid, TrajectoryLog]:
    """Iterate the first-order baseline flow with the same stopping machinery.

    ``keep_trajectory`` as for :func:`run_svddf`.
    """
    return _run(u0, config, _first_order_step, keep_trajectory)
