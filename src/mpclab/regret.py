"""Dynamic-regret accounting: hindsight-optimal baselines, explicit-constant
regret inequalities, the per-step error bound and its admission check, and
horizon/noise sweeps.  Every bound reads its constants (k, R, C3 and the
envelopes) from one ``kkt.GainTables``.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import engine, kkt
from .model import Check, Instance, PredictionStream

Array = np.ndarray

REGRET_FLOOR = 1e-10  # regrets below this are solver noise; excluded from fits


# ---------------------------------------------------------------------------
# regret inequalities and error bounds
# ---------------------------------------------------------------------------

def regret_inequalities(run: engine.TrajectoryRecord,
                        opt: engine.TrajectoryRecord,
                        ell: float, L_g: float,
                        tables: kkt.GainTables) -> tuple[Check, Check]:
    """Check the explicit-constant regret inequality and the state-distance
    bound on an executed run, each with 1e-9 to spare in its rhs, with C3
    and gain_init read from the gain ``tables``:

    regret <= sqrt(c * cost_opt * sum e^2) + c * sum e^2 with
    c = (ell/2)(1 + 2 C3 L_g^2)(1 + C3), and
    dist_t <= L_g * sum_{i<t} gain_init(i) e_{t-1-i}, t = 0..T,

    as the checks ``regret`` and ``distance``.
    """
    C3, T, tol = tables.C3, run.T, 1e-9
    if len(tables.gain_init) < T:
        raise ValueError("gain_init table must cover offsets 0..T-1")
    ssq = run.sum_sq_errors
    c = (ell / 2.0) * (1.0 + 2.0 * C3 * L_g ** 2) * (1.0 + C3)
    bound = float(np.sqrt(c * max(opt.total_cost, 0.0) * ssq) + c * ssq)
    rhs = np.zeros(T + 1)
    rhs[1:] = L_g * np.convolve(tables.gain_init[:T], run.errors)[:T]
    return (Check("regret", run.total_cost - opt.total_cost, bound + tol),
            Check("distance", run.distances, rhs + tol))


def per_step_error_bound_rhs(rho_table: Array, tables: kkt.GainTables,
                             D_xstar: float) -> Array:
    """Right-hand sides rhs_t, t = 0..T-1, of the per-step error bound of a
    run with the window k of the gain ``tables``, as one (T,) array:

        rhs_t = sum_{tau<=k} w(tau) rho(t, tau) + 2R w(k) [t < T - k],
        w = (R/C3 + D_xstar) gain_state + gain_param,

    with R, C3 and the envelopes read from the tables, and rho the (T+1, .)
    table of forecast-error magnitudes (``PredictionStream.rho_table``),
    whose offsets beyond T carry no error.  The truncation term applies
    only while the window is shorter than the remaining horizon.  A table
    with fewer than min(k, T) + 1 columns raises ValueError.
    """
    k, R, C3 = tables.k, tables.R, tables.C3
    rho = np.asarray(rho_table, float)
    T = len(rho) - 1
    K = min(k, T) + 1   # no offset past T has a forecast
    if rho.ndim != 2 or rho.shape[1] < K:
        raise ValueError("error magnitudes must cover offsets 0..min(k, T)")
    weights = (R / C3 + D_xstar) * tables.gain_state + tables.gain_param
    rhs = rho[:T, :K] @ weights[:K]
    rhs[:max(T - k, 0)] += 2.0 * R * weights[k]
    return rhs


def pipeline_admission_check(rhs: Array, tables: kkt.GainTables,
                             L_g: float) -> Check:
    """Smallness condition admitting a run into the error-to-regret pipeline:
    the check ``admission`` that the per-step bound ``rhs``
    (``per_step_error_bound_rhs``) stays below R / (C3^2 L_g), with R and
    C3 read from the gain tables, at every step."""
    return Check("admission", rhs, tables.R / (tables.C3 ** 2 * L_g))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class SweepResult:
    """Regrets of a sweep and the log-linear fit of those above
    REGRET_FLOOR: slope and r2 are None when fewer than two are, since no
    line is fitted.  ``kkt_residual_max`` is the worst KKT residual of the
    window solves of the sweep's runs."""

    variable: str
    values: Array
    regrets: Array
    slope: float | None
    r2: float | None
    kkt_residual_max: float


def _fit_positive(xs: Array, regrets: Array, log_x: bool):
    """(slope, r2) of log(regret) against x (or log x) over the regrets
    above REGRET_FLOOR; both None when fewer than two are."""
    mask = regrets > REGRET_FLOOR
    x = np.log(xs[mask]) if log_x else xs[mask]
    return kkt.loglinear_fit(x, regrets[mask]) or (None, None)


def _sweep_regrets(instance: Instance, points) -> tuple[Array, float]:
    """Regret of one closed-loop run per ``(k, rho)`` point against the
    instance's hindsight optimum, and the worst KKT residual of the runs."""
    opt = engine.solve_opt(instance)
    T = instance.T
    regrets, worst = [], 0.0
    for k, rho in points:
        stream = PredictionStream(instance.truth, min(k, T), rho,
                                  seed=instance.seed)
        run = engine.run_mpc(instance, stream, k)
        regrets.append(run.total_cost - opt.total_cost)
        worst = max(worst, run.kkt_residual_max)
    return np.array(regrets, float), worst


def sweep_horizon(instance: Instance,
                  k_values: Sequence[int]) -> SweepResult:
    """Zero-noise regret as a function of the window length.  The forecasts
    equal the truth, so no seed enters."""
    k_values = list(k_values)
    regrets, worst = _sweep_regrets(instance, [(k, 0.0) for k in k_values])
    ks = np.asarray(k_values, float)
    slope, r2 = _fit_positive(ks, regrets, log_x=False)
    return SweepResult("k", ks, regrets, slope, r2, worst)


def sweep_noise(instance: Instance, scales: Sequence[float],
                k: int) -> SweepResult:
    """Regret as a function of the forecast-noise scale at fixed window
    length: each scale is the error magnitude of every forecast offset
    tau >= 1, and the forecasts are drawn from the instance's seed.  The
    fit is over the positive scales."""
    scales = list(scales)
    regrets, worst = _sweep_regrets(instance, [(k, s) for s in scales])
    xs = np.asarray(scales, float)
    keep = xs > 0
    slope, r2 = _fit_positive(xs[keep], regrets[keep], log_x=True)
    return SweepResult("noise_scale", xs, regrets, slope, r2, worst)
