"""Command-line front end: load presets or instance files, run solves, MPC,
sweeps, and certifications, and emit reproducible CSV, text and JSON
artifacts.  This is the only module that writes artifacts, so their format
lives here alone.

Every command is declared through ``_command``, the one path from the
parsed options to the exit code: it loads the instance, hashes the options
into the artifacts' header lines, checks the window length and the noise
scale, runs the command's body, writes the artifacts the body returns and
prints its stdout line.  A body returns the ``Check`` of each inequality
it tests; when one fails, the artifacts and stdout are written first, and
then stderr names the first failed check before the command exits 4.

Exit codes: 0 success; 2 configuration error, such as a count that is not
an integer in range (``"T": true`` or ``"n": 1.5`` in an instance file, or
``--k 0``), a number that does not parse to a finite float, or a ModelError
raised by a body (an analysis the family does not admit, say); 3 solver
failure; 4 certification failure (a tested inequality did not hold).
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
from .model import (Check, Instance, ModelError, PredictionStream,
                    _check_count, config_hash)

EXIT_SOLVER = 3
EXIT_CERT = 4


def parse_number(text: str) -> float:
    """Parse a decimal or an exact fraction like 2/35."""
    try:
        return float(fractions.Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise click.UsageError(f"cannot parse number {text!r}") from exc


class NumberParam(click.ParamType):
    name = "number"

    def convert(self, value, param, ctx):
        if isinstance(value, (int, float)):
            return float(value)
        return parse_number(value)


NUMBER = NumberParam()


def _load(preset: str | None, instance_file: str | None, T: int | None,
          seed: int | None) -> tuple[Instance, dict]:
    """The instance and what it is built from: ``{"kind": preset}``, or the
    parsed instance file."""
    if (preset is None) == (instance_file is None):
        raise click.UsageError("give exactly one of --preset / --instance")
    try:
        desc = {"kind": preset}
        if instance_file is not None:
            with open(instance_file) as fh:
                desc = json.load(fh)
        return presets.build_instance(desc, T=T, seed=seed), desc
    except (ModelError, OSError, TypeError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc


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
    # Python floats: .17g writes them as it writes numpy's, only faster
    states, actions, errors, distances, stage = (
        a.tolist() for a in (rec.states, rec.actions, rec.errors,
                             rec.distances, rec.stage_costs))
    actions.append([None] * m)
    errors.append(None)
    stage += [None] * (rec.T + 1 - len(stage))
    rows = [[t, *x, *u, e, dist, cost] for t, (x, u, e, dist, cost)
            in enumerate(zip(states, actions, errors, distances, stage))]
    return _csv_body(columns, rows, headers)


def _sweep_artifacts(stem: str, res: regret.SweepResult,
                     headers: list[str]) -> dict:
    return {f"{stem}.csv": _csv_body([res.variable, "regret"],
                                     zip(res.values.tolist(),
                                         res.regrets.tolist()), headers),
            f"{stem}.json": _json_body(
                {"slope": res.slope, "r2": res.r2,
                 "kkt_residual_max": res.kkt_residual_max}, headers)}


def _fit_text(res: regret.SweepResult) -> str:
    """The sweep's fit for stdout: ``none`` where nothing was fitted."""
    slope, r2 = ("none" if v is None else f"{v:.6g}"
                 for v in (res.slope, res.r2))
    return f"slope={slope} r2={r2}"


@click.group()
def main():
    """Receding-horizon control experiments and certifications."""


_INSTANCE_OPTIONS = (
    click.option("--preset", type=str, default=None,
                 help=f"preset name: {', '.join(sorted(presets.PRESETS))}"),
    click.option("--instance", type=click.Path(), default=None,
                 help="instance description file (JSON)"),
    click.option("--T", "T", type=int, default=None,
                 help="override the horizon"),
    click.option("--seed", type=int, default=None,
                 help="override the instance seed"))
_WINDOW = click.option("--k", type=int, default=8, help="window length")


def _command(name: str, *options, load: bool = True):
    """Declare the command ``name`` with ``options`` (click options, in help
    order), the instance options when ``load``, and ``--out``.

    The body is called as ``body(inst, headers, **opts)`` with the loaded
    instance (None unless ``load``), the artifacts' header lines and its own
    options by dest, and returns its artifacts by file name, its stdout line
    and the ``Check`` of each inequality it tests.  The header's config_hash
    covers the command name and every option but ``--out``, with an
    instance file's contents in place of its path."""
    options = (_INSTANCE_OPTIONS if load else ()) + options + (
        click.option("--out", type=click.Path(), default="out",
                     help="output directory"),)

    def declare(body):
        @functools.wraps(body)
        def run(out, **opts):
            hashed = {"cmd": name, **opts}
            try:
                inst = None
                if load:
                    inst, desc = _load(*(opts.pop(key) for key in
                                         ("preset", "instance", "T", "seed")))
                    if hashed["instance"] is not None:
                        hashed["instance"] = desc
                    if "k" in opts:
                        _check_count("window length k", opts["k"], 1, inst.T)
                if opts.get("noise_scale", 0.0) < 0:
                    raise click.UsageError("need --noise-scale >= 0")
                headers = [f"command={name}",
                           f"config_hash={config_hash(hashed)}"]
                artifacts, line, checks = body(inst, headers, **opts)
            except ModelError as exc:
                raise click.UsageError(str(exc)) from exc
            except (ftocp.Infeasible, ftocp.SingularKKT,
                    np.linalg.LinAlgError, FloatingPointError) as exc:
                click.echo(f"solver failure: {exc}", err=True)
                sys.exit(EXIT_SOLVER)
            os.makedirs(out, exist_ok=True)
            for file_name, text in artifacts.items():
                with open(os.path.join(out, file_name), "w") as fh:
                    fh.write(text)
            click.echo(line)
            for check in checks:
                if not check.ok:
                    click.echo(f"check failed: {check.name} (index "
                               f"{check.worst}, margin {check.margin:.6g})",
                               err=True)
                    sys.exit(EXIT_CERT)

        for option in reversed(options):
            run = option(run)
        return main.command(name)(run)
    return declare


@_command("solve")
def solve(inst, hdr):
    """Solve the full-horizon problem under the true parameters."""
    opt = engine.solve_opt(inst)
    return ({"solve_trajectory.csv": _trajectory_body(opt, hdr),
             "solve_summary.json": _json_body(
                 {"total_cost": opt.total_cost,
                  "max_state_norm": opt.max_state_norm,
                  "dynamics_residual": opt.dynamics_residual(inst)}, hdr)},
            f"total_cost={opt.total_cost:.12g}", ())


@_command("mpc", _WINDOW,
          click.option("--noise-scale", type=NUMBER, default=0.0,
                       help="constant forecast-error magnitude"))
def mpc(inst, hdr, k, noise_scale):
    """Run the receding-horizon controller and report regret."""
    stream = PredictionStream(inst.truth, k, noise_scale, seed=inst.seed)
    opt = engine.solve_opt(inst)
    run = engine.run_mpc(inst, stream, k)
    regret_ = run.total_cost - opt.total_cost
    return ({"mpc_trajectory.csv": _trajectory_body(run, hdr),
             "mpc_report.json": _json_body(
                 {"cost_alg": run.total_cost, "cost_opt": opt.total_cost,
                  "regret": regret_, "sum_sq_errors": run.sum_sq_errors,
                  "max_error": float(run.errors.max(initial=0.0)),
                  "kkt_residual_max": run.kkt_residual_max}, hdr)},
            f"regret={regret_:.12g}", ())


@_command("sweep-horizon",
          click.option("--k", "k_max", type=int, default=12,
                       help="largest window length in the sweep"))
def sweep_horizon(inst, hdr, k_max):
    """Zero-noise regret as a function of the window length."""
    # a window shorter than n/m steps cannot reach a pinned terminal target
    k_min = max(2, math.ceil(inst.system.n / inst.system.m))
    ks = list(range(k_min, min(k_max, inst.T) + 1))
    if not ks:
        raise click.UsageError("sweep range is empty")
    res = regret.sweep_horizon(inst, ks)
    return _sweep_artifacts("sweep_horizon", res, hdr), _fit_text(res), ()


@_command("sweep-noise", _WINDOW,
          click.option("--noise-scale", type=NUMBER, default=0.2,
                       help="base noise magnitude; swept over fixed "
                       "multiples"))
def sweep_noise(inst, hdr, k, noise_scale):
    """Regret as a function of the forecast-noise scale."""
    scales = [noise_scale * f for f in
              (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)]
    res = regret.sweep_noise(inst, scales, k)
    return (_sweep_artifacts("sweep_noise", res, hdr),
            f"loglog_{_fit_text(res)}", ())


@_command("certify-decay")
def certify_decay(inst, hdr):
    """Check the closed-form geometric bound on the inverse saddle blocks."""
    sys_ = inst.system
    wm = kkt.window_data(sys_, inst.truth, inst.terminal_cost())
    _, maxima, fit = kkt.decay_profile(wm)
    sigma = kkt.sigma_min(wm)   # the measured sigma of the full window
    consts = kkt.tracking_decay_constants(sys_.bounds, sigma)
    offsets = np.arange(maxima.shape[0])
    theory = consts.decay_coef * consts.decay_rate ** offsets
    check = Check("decay_envelope", maxima, theory * (1 + 1e-9))
    worst = float(np.max(maxima / np.maximum(theory, 1e-300)))
    return ({"decay_profile.csv": _csv_body(
                ["offset", "max_block_norm", "theory_bound"],
                zip(offsets.tolist(), maxima.tolist(), theory.tolist()), hdr),
             "decay_constants.txt": _key_value_body(
                {"sigma": sigma, "sigma_lo": consts.sigma_lo,
                 "sigma_hi": consts.sigma_hi, "decay_rate": consts.decay_rate,
                 "decay_coef": consts.decay_coef, "fit_coef": fit.C,
                 "fit_rate": fit.lam, "fit_r2": fit.r2}, hdr)},
            f"dominated={check.ok} worst_ratio={worst:.6g}", (check,))


@_command("inventory-suite",
          click.option("--p", type=int, multiple=True,
                       default=(4, 5, 6, 7, 8),
                       help="chain lengths (default 4 5 6 7 8)"),
          click.option("--eps", type=NUMBER, default=None,
                       help="terminal perturbation (fractions like 2/35 "
                       "accepted)"),
          load=False)
def inventory_suite(inst, hdr, p, eps):
    """Terminal-perturbation response table for the alternating chain."""
    for length in p:
        _check_count("chain length p", length, 1)
    rows = presets.inventory_counterexample_suite(p, eps)
    worst = float(np.max([[abs(r.diff_minus_eps), r.closed_form_err]
                          for r in rows]))
    if not math.isfinite(worst):
        raise FloatingPointError("closed-form deviation not finite")
    return ({"inventory_suite.csv": _csv_body(
                ["p", "eps", "h", "diff", "diff_minus_eps",
                 "closed_form_err"],
                map(dataclasses.astuple, rows), hdr)},
            f"worst_deviation={worst:.3g}",
            (Check("closed_form_deviation", worst, 1e-6),))


@_command("constants", _WINDOW,
          click.option("--mode", type=click.Choice(["measured"]),
                       default="measured",
                       help="how the gain tables are found (measured only)"))
def constants(inst, hdr, k, mode):
    """Report the decay/sensitivity constants of an instance."""
    sigma = kkt.measured_sigma(inst, k)
    consts = kkt.tracking_decay_constants(inst.system.bounds, sigma)
    tables = kkt.measure_gain_tables(inst, k)
    values = {"mode": mode, "sigma": sigma,
              "sigma_lo": consts.sigma_lo, "sigma_hi": consts.sigma_hi,
              "decay_rate": consts.decay_rate,
              "decay_coef": consts.decay_coef,
              "gain_tables": tables.basis, "C3": tables.C3}
    for tau in range(k + 1):
        values[f"gain_state_{tau}"] = float(tables.gain_state[tau])
        values[f"gain_param_{tau}"] = float(tables.gain_param[tau])
    body = _key_value_body(values, hdr)
    return {"constants.txt": body}, body.rstrip("\n"), ()


if __name__ == "__main__":
    main()
