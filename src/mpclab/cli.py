"""Command-line front end: load presets or instance files, run solves, MPC,
sweeps, and certifications, and emit reproducible CSV, text and JSON
artifacts.  This is the only module that writes artifacts, so their format
lives here alone.

Exit codes: 0 success; 2 configuration error; 3 solver failure;
4 certification failure (a tested inequality did not hold).
"""

from __future__ import annotations

import dataclasses
import fractions
import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import engine, ftocp, kkt, presets, regret
from .model import (Instance, ModelError, PredictionStream, build_instance,
                    config_hash)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CERT = 4


def parse_number(text: str) -> float:
    """Parse a decimal or an exact fraction like 2/35."""
    try:
        return float(fractions.Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse number {text!r}") from exc


class NumberParam(click.ParamType):
    name = "number"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        return parse_number(value)


NUMBER = NumberParam()


def _load(preset: str | None, instance_file: str | None, T: int | None,
          seed: int | None) -> Instance:
    if (preset is None) == (instance_file is None):
        raise click.UsageError("give exactly one of --preset / --instance")
    try:
        if preset is not None:
            return presets.build_preset(preset, T=T, seed=seed)
        with open(instance_file) as fh:
            return build_instance(json.load(fh), T=T, seed=seed)
    except (KeyError, ModelError, OSError, TypeError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc


def _default_rule(instance: Instance) -> engine.TerminalRule:
    kind = instance.system.kind
    return engine.TerminalRule(
        "zero" if kind == "disturbance" else "predicted_tracking")


def _headers(ctx_name: str, config: dict) -> list[str]:
    return [f"command={ctx_name}", f"config_hash={config_hash(config)}"]


def _write(out: str, name: str, body: str) -> str:
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(body)
    return path


# Artifact format: CSV and text artifacts open with "# " header lines, JSON
# carries them under "_headers"; floats are written at full precision.

def _cell(value) -> str:
    """One artifact value: floats as .17g, None as an empty cell."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _text_body(lines, headers: list[str]) -> str:
    return "".join([f"# {h}\n" for h in headers]
                   + [f"{line}\n" for line in lines])


def _csv_body(columns, rows, headers: list[str]) -> str:
    return _text_body([",".join(columns)]
                      + [",".join(map(_cell, row)) for row in rows], headers)


def _key_value_body(values: dict, headers: list[str]) -> str:
    return _text_body([f"{key} = {_cell(val)}" for key, val in values.items()],
                      headers)


def _json_body(doc: dict, headers: list[str]) -> str:
    doc = dict(doc)
    doc["_headers"] = headers
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _trajectory_body(rec: engine.TrajectoryRecord, headers: list[str]) -> str:
    """One row per step t = 0..T; the last row has no action or error, and
    no stage cost unless the run counts a terminal stage."""
    n, m = rec.states.shape[1], rec.actions.shape[1]
    columns = (["t"] + [f"x{i}" for i in range(n)]
               + [f"u{i}" for i in range(m)] + ["e", "dist_opt", "stage_cost"])
    rows = []
    for t in range(rec.T + 1):
        acted = t < rec.T
        rows.append([t, *rec.states[t],
                     *(rec.actions[t] if acted else [None] * m),
                     rec.errors[t] if acted else None, rec.distances[t],
                     rec.stage_costs[t] if t < len(rec.stage_costs) else None])
    return _csv_body(columns, rows, headers)


def _sweep_body(res: regret.SweepResult, headers: list[str]) -> str:
    return _csv_body([res.variable, "regret"],
                     zip(res.values, res.regrets), headers)


def _fit_text(res: regret.SweepResult) -> str:
    """The sweep's fit for stdout: ``none`` where nothing was fitted."""
    slope, r2 = ("none" if v is None else f"{v:.6g}"
                 for v in (res.slope, res.r2))
    return f"slope={slope} r2={r2}"


def _solver_errors(fn):
    """Report a numerical failure of any solver as exit 3 with a message."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ftocp.Infeasible, ftocp.SingularKKT,
                np.linalg.LinAlgError) as exc:
            click.echo(f"solver failure: {exc}", err=True)
            sys.exit(EXIT_SOLVER)
    return run


# shared options
def _instance_options(fn):
    fn = click.option("--preset", type=str, default=None,
                      help=f"preset name: {', '.join(sorted(presets.PRESETS))}"
                      )(fn)
    fn = click.option("--instance", "instance_file",
                      type=click.Path(), default=None,
                      help="instance description file (JSON)")(fn)
    fn = click.option("--T", "T", type=int, default=None,
                      help="override the horizon")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="override the instance seed")(fn)
    fn = click.option("--out", type=click.Path(), default="out",
                      help="output directory")(fn)
    return fn


@click.group()
def main():
    """Receding-horizon control experiments and certifications."""


@main.command()
@_instance_options
@_solver_errors
def solve(preset, instance_file, T, seed, out):
    """Solve the full-horizon problem under the true parameters."""
    inst = _load(preset, instance_file, T, seed)
    cfg = {"cmd": "solve", "preset": preset, "instance": instance_file,
           "T": T, "seed": seed}
    hdr = _headers("solve", cfg)
    opt = engine.solve_opt(inst)
    _write(out, "solve_trajectory.csv", _trajectory_body(opt, hdr))
    _write(out, "solve_summary.json", _json_body(
        {"total_cost": opt.total_cost,
         "max_state_norm": opt.max_state_norm,
         "dynamics_residual": opt.dynamics_residual(inst)}, hdr))
    click.echo(f"total_cost={opt.total_cost:.12g}")


@main.command()
@_instance_options
@click.option("--k", type=int, default=8, help="window length")
@click.option("--noise-scale", type=NUMBER, default=0.0,
              help="constant forecast-error magnitude")
@_solver_errors
def mpc(preset, instance_file, T, seed, out, k, noise_scale):
    """Run the receding-horizon controller and report regret."""
    inst = _load(preset, instance_file, T, seed)
    if k < 1 or k > inst.T:
        raise click.UsageError("need 1 <= k <= T")
    if noise_scale < 0:
        raise click.UsageError("need --noise-scale >= 0")
    cfg = {"cmd": "mpc", "preset": preset, "instance": instance_file,
           "T": T, "seed": seed, "k": k, "noise_scale": noise_scale}
    hdr = _headers("mpc", cfg)
    stream = PredictionStream(inst.truth, k, noise_scale, seed=inst.seed)
    opt = engine.solve_opt(inst)
    run = engine.run_mpc(inst, stream, k, _default_rule(inst))
    _write(out, "mpc_trajectory.csv", _trajectory_body(run, hdr))
    _write(out, "mpc_report.json", _json_body(
        {"cost_alg": run.total_cost, "cost_opt": opt.total_cost,
         "regret": run.total_cost - opt.total_cost,
         "sum_sq_errors": run.sum_sq_errors,
         "max_error": float(run.errors.max(initial=0.0)),
         "kkt_residual_max": run.kkt_residual_max}, hdr))
    click.echo(f"regret={run.total_cost - opt.total_cost:.12g}")


@main.command("sweep-horizon")
@_instance_options
@click.option("--k", "k_max", type=int, default=12,
              help="largest window length in the sweep")
@_solver_errors
def sweep_horizon(preset, instance_file, T, seed, out, k_max):
    """Zero-noise regret as a function of the window length."""
    inst = _load(preset, instance_file, T, seed)
    # a window shorter than n/m steps cannot reach a pinned terminal target
    k_min = max(2, math.ceil(inst.system.n / inst.system.m))
    ks = list(range(k_min, min(k_max, inst.T) + 1))
    if not ks:
        raise click.UsageError("sweep range is empty")
    cfg = {"cmd": "sweep-horizon", "preset": preset,
           "instance": instance_file, "T": T, "seed": seed, "k_max": k_max}
    hdr = _headers("sweep-horizon", cfg)
    res = regret.sweep_horizon(inst, ks, _default_rule(inst),
                               seed=inst.seed)
    _write(out, "sweep_horizon.csv", _sweep_body(res, hdr))
    _write(out, "sweep_horizon.json", _json_body(
        {"slope": res.slope, "r2": res.r2,
         "kkt_residual_max": res.kkt_residual_max}, hdr))
    click.echo(_fit_text(res))


@main.command("sweep-noise")
@_instance_options
@click.option("--k", type=int, default=8, help="window length")
@click.option("--noise-scale", type=NUMBER, default=0.2,
              help="base noise magnitude; swept over fixed multiples")
@_solver_errors
def sweep_noise(preset, instance_file, T, seed, out, k, noise_scale):
    """Regret as a function of the forecast-noise scale."""
    inst = _load(preset, instance_file, T, seed)
    if k < 1 or k > inst.T:
        raise click.UsageError("need 1 <= k <= T")
    if noise_scale < 0:
        raise click.UsageError("need --noise-scale >= 0")
    scales = [noise_scale * f for f in
              (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)]
    cfg = {"cmd": "sweep-noise", "preset": preset, "instance": instance_file,
           "T": T, "seed": seed, "k": k, "noise_scale": noise_scale}
    hdr = _headers("sweep-noise", cfg)
    res = regret.sweep_noise(inst, lambda t, tau: 1.0 if tau > 0 else 0.0,
                             scales, k, _default_rule(inst),
                             seed=inst.seed)
    _write(out, "sweep_noise.csv", _sweep_body(res, hdr))
    _write(out, "sweep_noise.json", _json_body(
        {"slope": res.slope, "r2": res.r2,
         "kkt_residual_max": res.kkt_residual_max}, hdr))
    click.echo(f"loglog_{_fit_text(res)}")


@main.command("certify-decay")
@_instance_options
@_solver_errors
def certify_decay(preset, instance_file, T, seed, out):
    """Check the closed-form geometric bound on the inverse saddle blocks."""
    inst = _load(preset, instance_file, T, seed)
    sys_ = inst.system
    if sys_.kind == "inventory":
        raise click.UsageError("decay certification needs a quadratic system")
    cfg = {"cmd": "certify-decay", "preset": preset,
           "instance": instance_file, "T": T, "seed": seed}
    hdr = _headers("certify-decay", cfg)
    wm = kkt.window_data(sys_, inst.truth, inst.terminal_cost())
    norms, maxima, fit = kkt.decay_profile(wm)
    sigma = kkt.sigma_min(wm)   # the measured sigma of the full window
    consts = kkt.tracking_decay_constants(sys_.bounds, sigma)
    offsets = np.arange(maxima.shape[0])
    theory = consts.decay_coef * consts.decay_rate ** offsets
    _write(out, "decay_profile.csv", _csv_body(
        ["offset", "max_block_norm", "theory_bound"],
        zip(offsets, maxima, theory), hdr))
    _write(out, "decay_constants.txt", _key_value_body(
        {"sigma": sigma, "sigma_lo": consts.sigma_lo,
         "sigma_hi": consts.sigma_hi, "decay_rate": consts.decay_rate,
         "decay_coef": consts.decay_coef, "diff_coef": consts.diff_coef,
         "fit_coef": fit.C, "fit_rate": fit.lam, "fit_r2": fit.r2}, hdr))
    ok = bool(np.all(maxima <= theory * (1 + 1e-9)))
    click.echo(f"dominated={ok} worst_ratio="
               f"{float(np.max(maxima / np.maximum(theory, 1e-300))):.6g}")
    if not ok:
        sys.exit(EXIT_CERT)


@main.command("inventory-suite")
@click.option("--p", "p_values", type=int, multiple=True,
              help="chain lengths (default 4 5 6 7 8)")
@click.option("--eps", type=NUMBER, default=None,
              help="terminal perturbation (fractions like 2/35 accepted)")
@click.option("--out", type=click.Path(), default="out")
@_solver_errors
def inventory_suite(p_values, eps, out):
    """Terminal-perturbation response table for the alternating chain."""
    ps = list(p_values) or [4, 5, 6, 7, 8]
    if min(ps) < 1:
        raise click.UsageError("need --p >= 1")
    cfg = {"cmd": "inventory-suite", "p": ps, "eps": eps}
    hdr = _headers("inventory-suite", cfg)
    rows = presets.inventory_counterexample_suite(ps, eps)
    _write(out, "inventory_suite.csv", _csv_body(
        ["p", "eps", "h", "diff", "diff_minus_eps", "closed_form_err"],
        map(dataclasses.astuple, rows), hdr))
    worst = max(max(abs(r.diff_minus_eps), r.closed_form_err) for r in rows)
    click.echo(f"worst_deviation={worst:.3g}")
    if worst > 1e-6:
        sys.exit(EXIT_CERT)


@main.command()
@_instance_options
@click.option("--k", type=int, default=8, help="window length")
@click.option("--mode", type=click.Choice(["theory", "measured"]),
              default="theory")
@_solver_errors
def constants(preset, instance_file, T, seed, out, k, mode):
    """Report the decay/sensitivity constants of an instance."""
    inst = _load(preset, instance_file, T, seed)
    sys_ = inst.system
    if sys_.kind == "inventory":
        raise click.UsageError("constants need a quadratic system")
    if k < 1 or k > inst.T:
        raise click.UsageError("need 1 <= k <= T")
    cfg = {"cmd": "constants", "preset": preset, "instance": instance_file,
           "T": T, "seed": seed, "k": k, "mode": mode}
    hdr = _headers("constants", cfg)
    sigma = kkt.measured_sigma(inst, k)
    bb = sys_.bounds
    consts = kkt.tracking_decay_constants(bb, sigma)
    values = {"mode": mode, "sigma": sigma,
              "sigma_lo": consts.sigma_lo, "sigma_hi": consts.sigma_hi,
              "decay_rate": consts.decay_rate,
              "decay_coef": consts.decay_coef,
              "diff_coef": consts.diff_coef}
    opt = engine.solve_opt(inst)
    if mode == "measured":
        tables = kkt.measure_gain_tables(
            inst, k, _default_rule(inst), opt.states,
            R=max(opt.max_state_norm, 1.0), seed=inst.seed)
    else:
        tables = kkt.theory_gain_tables(
            inst, k, R=max(opt.max_state_norm, 1.0),
            D_xstar=opt.max_state_norm, sigma=sigma)
    values["gain_tables"] = tables.basis
    values["C3"] = tables.C3
    for tau in range(k + 1):
        values[f"gain_state_{tau}"] = float(tables.gain_state[tau])
        values[f"gain_param_{tau}"] = float(tables.gain_param[tau])
    gen = kkt.general_decay_constants(consts.sigma_lo, consts.sigma_hi,
                                      bb.ell)
    values["general_coef"] = gen.coef
    values["general_rate"] = gen.rate
    body = _key_value_body(values, hdr)
    _write(out, "constants.txt", body)
    click.echo(body, nl=False)


if __name__ == "__main__":
    main()
