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
trajectory log.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .diffusivity import _cached_kernel, diffusivity_half
from .errors import DivergenceError, ParameterError
from .grid import ImageGrid, array, vec
from .stencil import SparseOperator, apply, assemble, lambda_max
from .stopping import (
    AprioriStop,
    DiscrepancyStop,
    MaxStepsOnly,
    RdeStop,
    StoppingRule,
    default_band_threshold,
    discrepancy,
    high_freq_energy,
)

_TINY_LAMBDA = 1e-14

CSV_HEADER = "step,t,dt,lambda_max,vnorm,rde,sigma,kinetic,potential"


@dataclass(frozen=True)
class SolverConfig:
    """Parameter bundle for both flows.

    ``dt_rule`` is either ``"theorem"`` (dt = safety * eta / sqrt(lambda_max)
    for the second-order flow, safety * 2 / lambda_max for the baseline) or
    ``"fixed"`` (dt = dt_fixed).  ``dt_max`` caps the theorem rule and is
    required when the spectral bound degenerates to zero.
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
        if self.dt_max is not None and not (self.dt_max > 0):
            raise ParameterError(f"dt_max must be positive, got {self.dt_max}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be at least 1, got {self.max_steps}")

    def kernel(self):
        return _cached_kernel(self.sigma)


@dataclass(frozen=True)
class FlowState:
    """Stacked iterate (u, v) plus the stencil assembled from the previous iterate.

    The grid shape is the stencil's; ``spacing`` is the input image's grid step h.

    ``Fu`` is ``F_prev @ u``, or None; a step that computes this product
    anyway carries it so that the next step need not form it again.  Code
    that replaces ``u`` or ``F_prev`` must also set ``Fu=None``.
    """

    u: np.ndarray
    v: np.ndarray
    k: int
    t: float
    F_prev: SparseOperator
    spacing: float
    last_dt: float = float("nan")
    last_lambda: float = float("nan")
    Fu: np.ndarray | None = None


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


class TrajectoryLog:
    """Per-step records of a run plus the reason it stopped."""

    def __init__(self):
        self.records: list[TrajectoryRecord] = []
        self.stopped_by: str = "max-steps"
        self.degenerate_rde: bool = False

    def __len__(self):
        return len(self.records)

    def final_step(self) -> int:
        return self.records[-1].step if self.records else 0

    def to_csv(self, target) -> None:
        def _write(fh):
            fh.write(CSV_HEADER + "\n")
            for r in self.records:
                fh.write(
                    f"{r.step},{r.t:.17g},{r.dt:.17g},{r.lambda_max:.17g},"
                    f"{r.vnorm:.17g},{r.rde:.17g},{r.sigma:.17g},"
                    f"{r.kinetic:.17g},{r.potential:.17g}\n"
                )

        if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
            with open(target, "w", encoding="ascii", newline="\n") as fh:
                _write(fh)
        else:
            _write(target)


def _image(state: FlowState, uvec: np.ndarray) -> ImageGrid:
    """The stacked vector ``uvec`` as an image on the state's grid."""
    return array(uvec, state.F_prev.rows, state.F_prev.cols, spacing=state.spacing)


def _assemble_from(u: ImageGrid, config: SolverConfig) -> SparseOperator:
    fld = diffusivity_half(u, config.epsilon, config.exponent_p, config.kernel())
    return assemble(fld, u.spacing)


def initial_state(u0: ImageGrid, config: SolverConfig) -> FlowState:
    """State at k = 0: v = 0 and the startup stencil assembled from u0."""
    F0 = _assemble_from(u0, config)  # diffusivity_half rejects grids below 2 x 2
    u = vec(u0)
    return FlowState(u=u, v=np.zeros_like(u), k=0, t=0.0, F_prev=F0, spacing=u0.spacing)


def _spectral_step(lam: float, config: SolverConfig, stable_dt) -> float:
    """``stable_dt(lam)`` capped by dt_max; a vanishing bound requires dt_max."""
    if lam < _TINY_LAMBDA:
        if config.dt_max is None:
            raise ParameterError("spectral bound is zero and no dt_max is configured")
        return float(config.dt_max)
    dt = stable_dt(lam)
    if config.dt_max is not None:
        dt = min(dt, config.dt_max)
    return float(dt)


def step_size(lam: float, config: SolverConfig) -> float:
    """Step length under the configured rule (see SolverConfig), given the bound ``lam``."""
    if config.dt_rule == "fixed":
        return float(config.dt_fixed)
    return _spectral_step(lam, config, lambda lam: config.safety * config.eta / np.sqrt(lam))


def sv_step(state: FlowState, config: SolverConfig) -> FlowState:
    """One damped Stormer-Verlet step; returns the new state carrying its stencil.

    The closing half-kick's ``F_new @ u_new`` is the next step's
    ``F_prev @ u``, so it is carried as ``Fu``: one stencil product per step.
    """
    lam = lambda_max(state.F_prev) if config.dt_rule == "theorem" else float("nan")
    dt = step_size(lam, config)

    u, v = state.u, state.v
    # transient infs on a diverging run are caught below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        Fu = apply(state.F_prev, u) if state.Fu is None else state.Fu
        v_half = (v + 0.5 * dt * Fu) / (1.0 + 0.5 * config.eta * dt)
        u_new = u + dt * v_half
        if not np.all(np.isfinite(u_new)):
            raise DivergenceError(f"non-finite iterate at step {state.k}", step=state.k)
        # k = 0 reuses the startup stencil, which was assembled from this same u
        F_new = state.F_prev if state.k == 0 else _assemble_from(_image(state, u), config)
        Fu_new = apply(F_new, u_new)
        v_new = v_half + 0.5 * dt * (Fu_new - config.eta * v_half)
    if not np.all(np.isfinite(v_new)):
        raise DivergenceError(f"non-finite velocity at step {state.k}", step=state.k)
    return replace(
        state,
        u=u_new,
        v=v_new,
        k=state.k + 1,
        t=state.t + dt,
        F_prev=F_new,
        last_dt=dt,
        last_lambda=lam,
        Fu=Fu_new,
    )


def energies(state: FlowState, config: SolverConfig) -> tuple[float, float]:
    """Kinetic and (regularised) p-Dirichlet potential energy of the state.

    Kinetic is h^2/2 * ||v||^2.  The potential integrates
    (|grad u|^2 + epsilon)^(p/2) / p over all nodes with central
    differences (one-sided at the border), the epsilon keeping p = 1
    differentiable.
    """
    h2 = state.spacing**2
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = 0.5 * h2 * float(state.v @ state.v)
        px = state.u.reshape((state.F_prev.rows, state.F_prev.cols), order="F")
        gx, gy = np.gradient(px, state.spacing)
        p = config.exponent_p
        potential = h2 * float(np.sum((gx**2 + gy**2 + config.epsilon) ** (p / 2.0)) / p)
    return kinetic, potential


class _StopTracker:
    """Evaluates the configured rule and the per-step log quantities."""

    def __init__(self, rule: StoppingRule, u0: ImageGrid):
        self.rule = rule
        self.u0 = vec(u0)
        self.shape = u0.shape
        band = rule.band_threshold if isinstance(rule, RdeStop) else default_band_threshold
        self.n0 = band(*self.shape)
        self.prev_energy = high_freq_energy(u0.pixels, self.n0)
        self.horizon = rule.horizon() if isinstance(rule, AprioriStop) else None

    def evaluate(self, uvec: np.ndarray, t: float):
        """Returns (rde_value, sigma, stop_reason_or_None, degenerate_flag)."""
        with np.errstate(over="ignore", invalid="ignore"):
            energy = high_freq_energy(uvec.reshape(self.shape, order="F"), self.n0)
            degenerate = self.prev_energy == 0.0
            rde_val = 0.0 if degenerate else abs(energy - self.prev_energy) / self.prev_energy
            self.prev_energy = energy
            sig = discrepancy(uvec, self.u0, 0.0).sigma
        reason = None
        if isinstance(self.rule, RdeStop) and rde_val < self.rule.tolerance:
            reason = "rde"
        elif isinstance(self.rule, DiscrepancyStop) and sig - self.rule.delta >= 0.0:
            reason = "discrepancy"
        elif isinstance(self.rule, AprioriStop) and t >= self.horizon:
            reason = "a-priori"
        return rde_val, sig, reason, degenerate


def _run(u0: ImageGrid, config: SolverConfig, advance) -> tuple[ImageGrid, TrajectoryLog]:
    state = initial_state(u0, config)
    tracker = _StopTracker(config.stopping, u0)
    log = TrajectoryLog()
    try:
        for _ in range(config.max_steps):
            state = advance(state, config)
            rde_val, sig, reason, degenerate = tracker.evaluate(state.u, state.t)
            kinetic, potential = energies(state, config)
            with np.errstate(over="ignore", invalid="ignore"):
                vnorm = float(np.linalg.norm(state.v))
            log.records.append(
                TrajectoryRecord(
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
            )
            if degenerate:
                log.degenerate_rde = True
            if reason is not None:
                log.stopped_by = reason
                break
    except DivergenceError as err:
        err.partial_log = log
        raise
    return _image(state, state.u), log


def run_svddf(u0: ImageGrid, config: SolverConfig) -> tuple[ImageGrid, TrajectoryLog]:
    """Iterate the damped Stormer-Verlet flow until the stopping rule fires."""
    return _run(u0, config, sv_step)


def _first_order_step(state: FlowState, config: SolverConfig) -> FlowState:
    """Explicit step of the first-order flow u_t = div(a(u) grad u)."""
    F = state.F_prev if state.k == 0 else _assemble_from(_image(state, state.u), config)
    if config.dt_rule == "theorem":
        lam = lambda_max(F)
        # classical explicit-Euler stability for a symmetric negative operator
        dt = _spectral_step(lam, config, lambda lam: config.safety * 2.0 / lam)
    else:
        lam, dt = float("nan"), float(config.dt_fixed)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = apply(F, state.u)
        u_new = state.u + dt * rate
    if not np.all(np.isfinite(u_new)):
        raise DivergenceError(f"non-finite iterate at step {state.k}", step=state.k)
    return replace(
        state,
        u=u_new,
        v=rate,  # finite-difference rate, logged as the velocity proxy
        k=state.k + 1,
        t=state.t + dt,
        F_prev=F,
        last_dt=dt,
        last_lambda=lam,
        Fu=None,  # F was assembled from the old u, not u_new
    )


def run_first_order(u0: ImageGrid, config: SolverConfig) -> tuple[ImageGrid, TrajectoryLog]:
    """Iterate the first-order baseline flow with the same stopping machinery."""
    return _run(u0, config, _first_order_step)
