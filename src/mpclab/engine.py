"""Receding-horizon controller: windowed laws on forecasts, closed-loop
rollout on the true dynamics, and per-step error accounting.

The controller is the same for every problem class.  All forecasts are
drawn before a run and no terminal rule depends on the state, so
``ftocp.window_laws`` builds the law of every window before the closed loop
starts (one terminal-rule call and one batched Riccati pass per batch of
linear-quadratic windows); the loop only applies each window's first
action to the realized state, and one batched rollout per group afterwards
checks the pins and gives the KKT residuals.  The instance's
``ftocp.truth_law`` gives the optimal continuation that the per-step errors
and the hindsight optimum are read from (each built once per instance), and
``Instance.terminal_cost`` caps the windows that reach the final step.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import ftocp
from .model import (Instance, PredictionStream, TerminalCost, _read_only,
                    _rho_offsets, per_instance)

Array = np.ndarray


@dataclasses.dataclass(frozen=True)
class TerminalRule:
    """How the controller caps each window.  A rule is an immutable value:
    running it on any instance leaves it unchanged.

    kinds:
      - "zero": pin the window's final state to the origin;
      - "predicted_tracking": pin it to the forecast reference point
        (``pin_target`` of the system: the origin for the disturbance
        family, where this is the "zero" rule, and clipped to the stock
        chain's state interval);
      - "reference": pin it to the state of step t2 of a given trajectory,
        ``reference_states``, with one row per step 0..T of the instance it
        runs on (``TerminalRule.reference(instance)`` gives the instance's
        nominal trajectory: the solve of the full horizon under the
        admissible parameter nearest zero);
      - "true": always use the instance's own terminal cost.

    Whenever the window reaches the final step, the instance's terminal cost
    is used regardless of kind (with the forecast terminal parameter).
    ``build(instance, t2, xi)`` caps the windows ending at the steps t2 (an
    int or an int array) with last parameters xi, ``t2.shape + (p,)``, in
    one terminal stacked by window; they all reach the final step or none.
    """

    kind: str = "zero"
    reference_states: Array | None = None

    KINDS = ("zero", "predicted_tracking", "reference", "true")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown terminal rule {self.kind!r}")
        if self.kind == "reference":
            if self.reference_states is None:
                raise ValueError("the reference rule needs reference states")
            states = np.array(self.reference_states, float)
            states.flags.writeable = False
            object.__setattr__(self, "reference_states", states)

    @staticmethod
    def reference(instance: Instance) -> "TerminalRule":
        """The "reference" rule of the instance's nominal trajectory: the
        full-horizon solve with every parameter at the point of the
        system's parameter box nearest zero.  That is zero wherever the box
        holds it (the tracking, disturbance and stock-chain families); on
        ``grid`` it is the smallest inertia m_lo, since zero inertia divides
        by zero, and on ``pendulum`` the smallest cart mass M_lo."""
        sys = instance.system
        nominal = np.clip(0.0, sys.param_box.lo, sys.param_box.hi)
        params = np.broadcast_to(nominal, instance.truth.shape)
        law = ftocp.window_law(sys, params, instance.terminal_cost(params[-1]))
        return TerminalRule("reference", law.solution(0, instance.x0).states)

    def build(self, instance: Instance, t2, xi: Array) -> TerminalCost:
        sys, t2 = instance.system, np.asarray(t2)
        final = t2 == sys.T
        if final.any() != final.all():
            raise ValueError("the windows of one build must all reach the "
                             "final step or all stop short of it")
        if final.all() or self.kind == "true":
            return instance.terminal_cost(xi)
        if self.kind == "zero":
            return TerminalCost.indicator(np.zeros(t2.shape + (sys.n,)))
        if self.kind == "predicted_tracking":
            return TerminalCost.indicator(sys.pin_target(t2, xi))
        return TerminalCost.indicator(self.reference_states[t2])


@dataclasses.dataclass(frozen=True)
class TrajectoryRecord:
    """One closed-loop run (or the hindsight-optimal run)."""

    states: Array        # (T+1, n)
    actions: Array       # (T, m)
    errors: Array        # (T,), distance to the clairvoyant action
    distances: Array     # (T+1,), distance to the hindsight-optimal state
    stage_costs: Array   # (T,) or (T+1,) with a counted terminal stage
    total_cost: float
    kkt_residual_max: float = 0.0   # worst KKT residual of the solves

    @property
    def T(self) -> int:
        return self.actions.shape[0]

    @property
    def sum_sq_errors(self) -> float:
        return float(np.sum(self.errors ** 2))

    @property
    def max_state_norm(self) -> float:
        return float(max(np.linalg.norm(x) for x in self.states))

    def dynamics_residual(self, instance: Instance) -> float:
        A, B, w, *_ = instance.system.step_data(np.arange(self.T),
                                                instance.truth[:self.T])
        nxt = (A @ self.states[:-1, :, None] + B @ self.actions[:, :, None]
               )[..., 0] + w
        return max(float(np.linalg.norm(r)) for r in self.states[1:] - nxt)


@per_instance
def solve_opt(instance: Instance) -> TrajectoryRecord:
    """Hindsight-optimal trajectory: the full-horizon solve under the true
    parameters, read off the instance's truth law.  Solved once per
    instance; the record's arrays are read-only."""
    T = instance.T
    sol = ftocp.truth_law(instance).solution(0, instance.x0)
    stage, total = ftocp.stage_costs(instance.system, 0, instance.truth,
                                     instance.terminal_cost(), sol.states,
                                     sol.actions)
    arrays = (_read_only(a) for a in (sol.states, sol.actions, np.zeros(T),
                                      np.zeros(T + 1), stage))
    return TrajectoryRecord(*arrays, total, kkt_residual_max=sol.kkt_residual)


def run_mpc(instance: Instance, stream: PredictionStream, k: int,
            rule: TerminalRule) -> TrajectoryRecord:
    """Closed-loop receding-horizon run.

    At each step t the controller solves the window [t, min(t+k, T)] on the
    forecasts, commits the first action, and the true dynamics advance the
    state.  The laws of all windows are built before the loop, and after it
    every window is rolled out from its realized initial state; the run
    records the worst KKT residual of these solves.  Per-step errors compare
    the committed action with the optimal continuation from the same state
    under the true parameters, read off the instance's truth law, and the
    distances compare the states with its hindsight optimum.  Constrained
    infeasibility aborts the run with the step index attached.  A window
    that cannot be solved (SingularKKT) fails the run; when several cannot,
    the earliest is named.  The stream must be drawn around the instance's
    own true parameters, so that its error magnitudes are the realized ones.
    """
    if k < 1:
        raise ValueError("window length k must be >= 1")
    sys = instance.system
    T = sys.T
    if stream.k < min(k, T):
        raise ValueError("forecast stream shorter than the window")
    if not np.array_equal(stream.truth, instance.truth):
        raise ValueError("forecast stream built on other true parameters")
    if rule.kind == "reference" and len(rule.reference_states) != T + 1:
        raise ValueError("reference states need one row per step 0..T")
    law = ftocp.truth_law(instance)
    opt = solve_opt(instance)

    laws = ftocp.window_laws(
        sys, [(t, stream.window(t, min(t + k, T))) for t in range(T)],
        functools.partial(rule.build, instance))

    A, B, w, *_ = sys.step_data(np.arange(T), instance.truth[:T])
    states = np.zeros((T + 1, sys.n))
    actions = np.zeros((T, sys.m))
    errors = np.zeros(T)
    states[0] = np.atleast_1d(instance.x0)
    built = len(laws.windows)
    for t in range(built):
        try:
            u = laws.action(t, states[t])
        except ftocp.Infeasible as exc:
            raise ftocp.Infeasible(f"window at step {t} infeasible: {exc}",
                                   step=t) from exc
        actions[t] = u
        errors[t] = float(np.linalg.norm(u - law.action(t, states[t])))
        states[t + 1] = A[t] @ states[t] + B[t] @ u + w[t]
    kkt_residual_max = laws.kkt_residual_max(states[:built])
    if laws.failure is not None:   # after the pins of the windows before it
        raise laws.failure
    distances = np.array([float(np.linalg.norm(states[t] - opt.states[t]))
                          for t in range(T + 1)])
    stage, total = ftocp.stage_costs(sys, 0, instance.truth,
                                     instance.terminal_cost(), states, actions)
    return TrajectoryRecord(states, actions, errors, distances, stage, total,
                            kkt_residual_max=kkt_residual_max)


# ---------------------------------------------------------------------------
# per-step error bound and admission
# ---------------------------------------------------------------------------

def per_step_error_bound_rhs(rho_table: Array, k: int, gain_state,
                             gain_param, R: float, C3: float,
                             D_xstar: float) -> Array:
    """Right-hand sides rhs_t, t = 0..T-1, of the per-step error bound of a
    run with window k, as one (T,) array:

        rhs_t = sum_{tau<=k} w(tau) rho(t, tau) + 2R w(k) [t < T - k],
        w = (R/C3 + D_xstar) gain_state + gain_param,

    where rho is the (T+1, .) table of forecast-error magnitudes
    (``PredictionStream.rho_table``), whose offsets beyond T carry no
    error.  The truncation term applies only while the window is shorter
    than the remaining horizon.
    """
    gain_state = np.asarray(gain_state, float)
    gain_param = np.asarray(gain_param, float)
    if gain_state.shape[0] < k + 1 or gain_param.shape[0] < k + 1:
        raise ValueError("gain tables must cover offsets 0..k")
    rho = _rho_offsets(rho_table, k)
    T, K = rho.shape[0] - 1, rho.shape[1]
    weights = (R / C3 + D_xstar) * gain_state[:k + 1] + gain_param[:k + 1]
    rhs = rho[:T] @ weights[:K]
    rhs[:max(T - k, 0)] += 2.0 * R * weights[k]
    return rhs


@dataclasses.dataclass(frozen=True)
class AdmissionReport:
    ok: bool
    worst_rhs: float
    threshold: float
    worst_t: int

    @property
    def margin(self) -> float:
        return self.threshold - self.worst_rhs


def pipeline_admission_check(rhs: Array, R: float, C3: float,
                             L_g: float) -> AdmissionReport:
    """Smallness condition admitting a run into the error-to-regret pipeline:
    the per-step bound ``rhs`` (``per_step_error_bound_rhs``) must stay
    below R / (C3^2 L_g) at every step; ``worst_t`` is the first step where
    it is largest."""
    threshold = R / (C3 ** 2 * L_g)
    worst_t = int(np.argmax(rhs))
    worst = float(rhs[worst_t])
    return AdmissionReport(worst <= threshold, worst, threshold, worst_t)
