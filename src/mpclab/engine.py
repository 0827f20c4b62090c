"""Receding-horizon controller: windowed laws on forecasts, closed-loop
rollout on the true dynamics, and per-step errors (bounded in ``regret``).

The controller is the same for every problem class.  All forecasts are
drawn before a run and no window's cap (``window_terminal``) depends on the
state, so ``ftocp.window_laws`` builds the law of every window before the
closed loop starts: for linear-quadratic windows, one cap and one batched
Riccati pass for the windows that stop short of the final step and one for
the k windows that reach it, padded to the longest.  The loop only
applies each window's first action to the realized state, and one batched
rollout per batch afterwards checks the pins and gives the KKT residuals.
The instance's ``ftocp.truth_law`` gives the optimal continuation that the
per-step errors and the hindsight optimum are read from (each built once
per instance), and ``Instance.terminal_cost`` caps the windows that reach
the final step.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import ftocp
from .model import (Instance, PredictionStream, TerminalCost, _check_count,
                    _read_only, _row_norms, per_instance)

Array = np.ndarray


def window_terminal(instance: Instance, t2, xi: Array) -> TerminalCost:
    """The cap of the windows ending at the steps t2 (an int or an int
    array) with last parameters xi, ``t2.shape + (p,)``, in one terminal
    stacked by window.  Windows that reach the final step get the
    instance's own terminal cost, at the forecast terminal parameter; the
    others pin their final state to the forecast reference point,
    ``pin_target`` of the system (the origin for the disturbance family,
    and clipped to the stock chain's state interval).  The windows must all
    reach the final step or all stop short of it."""
    sys, t2 = instance.system, np.asarray(t2)
    final = t2 == sys.T
    if final.any() != final.all():
        raise ValueError("the windows of one cap must all reach the final "
                         "step or all stop short of it")
    if final.all():
        return instance.terminal_cost(xi)
    return TerminalCost.indicator(sys.pin_target(t2, xi))


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
        return float(_row_norms(self.states).max())

    def dynamics_residual(self, instance: Instance) -> float:
        A, B, w, *_ = instance.system.step_data(np.arange(self.T),
                                                instance.truth[:self.T])
        nxt = (A @ self.states[:-1, :, None] + B @ self.actions[:, :, None]
               )[..., 0] + w
        return float(_row_norms(self.states[1:] - nxt).max())


@per_instance
def solve_opt(instance: Instance) -> TrajectoryRecord:
    """Hindsight-optimal trajectory: the full-horizon solve under the true
    parameters, read off the instance's truth law.  Solved once per
    instance; the record's arrays are read-only.  A state that is not
    finite raises FloatingPointError naming the first such step."""
    T = instance.T
    sol = ftocp.truth_law(instance).solution(instance.x0)
    t = np.flatnonzero(~np.isfinite(sol.states).all(axis=1))
    if t.size:
        raise FloatingPointError(f"hindsight state not finite at step {t[0]}")
    stage, total = ftocp.stage_costs(instance.system, 0, instance.truth,
                                     instance.terminal_cost(), sol.states,
                                     sol.actions)
    arrays = (_read_only(a) for a in (sol.states, sol.actions, np.zeros(T),
                                      np.zeros(T + 1), stage))
    return TrajectoryRecord(*arrays, total, kkt_residual_max=sol.kkt_residual)


def run_mpc(instance: Instance, stream: PredictionStream,
            k: int) -> TrajectoryRecord:
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
    Raises ModelError unless k is an integer >= 1, and ValueError for a
    stream shorter than the window or drawn around other parameters.
    """
    _check_count("window length k", k, 1)
    sys = instance.system
    T = sys.T
    if stream.k < min(k, T):
        raise ValueError("forecast stream shorter than the window")
    if not np.array_equal(stream.truth, instance.truth):
        raise ValueError("forecast stream built on other true parameters")
    law = ftocp.truth_law(instance)
    opt = solve_opt(instance)

    laws = ftocp.window_laws(
        sys, [(t, stream.window(t, min(t + k, T))) for t in range(T)],
        functools.partial(window_terminal, instance))

    A, B, w, *_ = sys.step_data(np.arange(T), instance.truth[:T])
    states = np.zeros((T + 1, sys.n))
    actions = np.zeros((T, sys.m))
    clairvoyant = np.zeros((T, sys.m))
    states[0] = np.atleast_1d(instance.x0)
    built = len(laws.windows)
    for t in range(built):
        try:
            u = laws.action(t, states[t])
        except ftocp.Infeasible as exc:
            raise ftocp.Infeasible(f"window at step {t} infeasible: {exc}",
                                   step=t) from exc
        actions[t] = u
        clairvoyant[t] = law.action(t, states[t])
        states[t + 1] = A[t] @ states[t] + B[t] @ u + w[t]
    kkt_residual_max = laws.kkt_residual_max(states[:built])
    if laws.failure is not None:   # after the pins of the windows before it
        raise laws.failure
    errors = _row_norms(actions - clairvoyant)
    distances = _row_norms(states - opt.states)
    stage, total = ftocp.stage_costs(sys, 0, instance.truth,
                                     instance.terminal_cost(), states, actions)
    return TrajectoryRecord(states, actions, errors, distances, stage, total,
                            kkt_residual_max=kkt_residual_max)

