"""Dynamic-regret accounting: hindsight-optimal baselines, explicit-constant
regret inequalities, aggregate error budgets, and horizon/noise sweeps.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import engine, kkt
from .model import Instance, PredictionStream, _rho_offsets

Array = np.ndarray

REGRET_FLOOR = 1e-10  # regrets below this are solver noise; excluded from fits


# ---------------------------------------------------------------------------
# regret report
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RegretReport:
    cost_alg: float
    cost_opt: float
    regret: float
    sum_sq_errors: float
    constant_c: float
    regret_bound: float
    regret_ok: bool
    distance_lhs: Array
    distance_rhs: Array
    distance_ok: bool


def regret_inequalities(run: engine.TrajectoryRecord,
                        opt: engine.TrajectoryRecord,
                        ell: float, L_g: float, C3: float,
                        gain_init: Array, tol: float = 1e-9) -> RegretReport:
    """Evaluate the explicit-constant regret inequality and the state-distance
    bound on an executed run.

    regret <= sqrt(c * cost_opt * sum e^2) + c * sum e^2 with
    c = (ell/2)(1 + 2 C3 L_g^2)(1 + C3), and
    dist_t <= L_g * sum_{i<t} gain_init(i) e_{t-1-i}.
    """
    gain_init = np.asarray(gain_init, float)
    T = run.T
    if gain_init.shape[0] < T:
        raise ValueError("gain_init table must cover offsets 0..T-1")
    regret = run.total_cost - opt.total_cost
    ssq = run.sum_sq_errors
    c = (ell / 2.0) * (1.0 + 2.0 * C3 * L_g ** 2) * (1.0 + C3)
    bound = float(np.sqrt(c * max(opt.total_cost, 0.0) * ssq) + c * ssq)
    lhs = run.distances.copy()
    rhs = np.zeros(T + 1)
    rhs[1:] = L_g * np.convolve(gain_init[:T], run.errors)[:T]
    dist_ok = bool(np.all(lhs <= rhs + tol))
    return RegretReport(run.total_cost, opt.total_cost, float(regret), ssq,
                        c, bound, bool(regret <= bound + tol),
                        lhs, rhs, dist_ok)


def aggregate_E(rho_table: Array, k: int, gain_state: Array,
                gain_param: Array) -> float:
    """Aggregate forecast-error budget of a run with window k:
    sum_{tau<k} (gain_state + gain_param)(tau) P(tau)
    + (gain_state(k)^2 + gain_param(k)^2) T, where P(tau) = sum_t
    rho(t, tau)^2 is a column sum of squares of the (T+1, .) table of
    forecast-error magnitudes (``PredictionStream.rho_table``)."""
    gain_state = np.asarray(gain_state, float)
    gain_param = np.asarray(gain_param, float)
    if gain_state.shape[0] < k + 1 or gain_param.shape[0] < k + 1:
        raise ValueError("gain tables must cover offsets 0..k")
    rho = _rho_offsets(rho_table, k)
    T = rho.shape[0] - 1
    power = np.sum(rho[:, :k] ** 2, axis=0)
    acc = (gain_state[:power.size] + gain_param[:power.size]) @ power
    return float(acc + (gain_state[k] ** 2 + gain_param[k] ** 2) * T)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SweepResult:
    """Regrets of a sweep and the log-linear fit of those above
    REGRET_FLOOR: slope, intercept and r2 are None when fewer than two
    are, since no line is fitted.  ``kkt_residual_max`` is the worst KKT
    residual of the window solves of the sweep's runs."""

    variable: str
    values: Array
    regrets: Array
    slope: float | None
    intercept: float | None
    r2: float | None
    kkt_residual_max: float
    log_x: bool = False


def _fit_positive(xs: Array, regrets: Array, log_x: bool):
    """(slope, intercept, r2) of log(regret) against x (or log x) over the
    regrets above REGRET_FLOOR; all None when fewer than two are."""
    mask = regrets > REGRET_FLOOR
    x = np.log(xs[mask]) if log_x else xs[mask]
    return kkt.loglinear_fit(x, regrets[mask]) or (None, None, None)


def _sweep_regrets(instance: Instance, points, rule: engine.TerminalRule,
                   seed: int = 0) -> tuple[Array, float]:
    """Regret of one closed-loop run per ``(k, rho)`` point against the
    instance's hindsight optimum, and the worst KKT residual of the runs."""
    opt = engine.solve_opt(instance)
    T = instance.T
    regrets, worst = [], 0.0
    for k, rho in points:
        stream = PredictionStream(instance.truth, min(k, T), rho, seed=seed)
        run = engine.run_mpc(instance, stream, k, rule)
        regrets.append(run.total_cost - opt.total_cost)
        worst = max(worst, run.kkt_residual_max)
    return np.array(regrets, float), worst


def sweep_horizon(instance: Instance, k_values: Sequence[int],
                  rule: engine.TerminalRule) -> SweepResult:
    """Zero-noise regret as a function of the window length.  The forecasts
    equal the truth, so no seed enters."""
    k_values = list(k_values)
    regrets, worst = _sweep_regrets(instance, [(k, 0.0) for k in k_values],
                                    rule)
    ks = np.asarray(k_values, float)
    slope, intercept, r2 = _fit_positive(ks, regrets, log_x=False)
    return SweepResult("k", ks, regrets, slope, intercept, r2, worst)


def sweep_noise(instance: Instance, scales: Sequence[float], k: int,
                rule: engine.TerminalRule, seed: int = 0) -> SweepResult:
    """Regret as a function of the forecast-noise scale at fixed window
    length: each scale is the error magnitude of every forecast offset
    tau >= 1.  The fit is over the positive scales."""
    scales = list(scales)
    regrets, worst = _sweep_regrets(instance, [(k, s) for s in scales], rule,
                                    seed)
    xs = np.asarray(scales, float)
    keep = xs > 0
    slope, intercept, r2 = _fit_positive(xs[keep], regrets[keep], log_x=True)
    return SweepResult("noise_scale", xs, regrets, slope, intercept, r2,
                       worst, log_x=True)
