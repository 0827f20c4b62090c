"""Pin the reference values of the benchmark's output gate.

Run from the root of the source tree whose outputs are to be pinned:

    PYTHONPATH=src python3 perfbench/pin.py

For every workload, every instance seed of the pool and every horizon the
benchmark runs (main, small and smoke), it invokes the CLI once and stores
the checked values in ``references.json``.  Before writing, it cross-checks
the hindsight costs against the independent oracles in ``tests/oracles.py``
(null-space elimination for the linear-quadratic problem, SLSQP for the
stock chain), so the library does not grade itself.  Nothing is written if a
command fails or a cross-check disagrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from mpclab import cli, engine, presets  # noqa: E402

RTOL = 1e-5          # output gate tolerance, relative to each quantity's scale
ORACLE_RTOL = 1e-7   # library hindsight cost vs the independent oracle


def run_cli(argv: list, out: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main([*argv, "--out", out], prog_name="mpclab")
        except SystemExit as exc:
            if exc.code not in (0, None):
                raise RuntimeError(f"{' '.join(argv)} exited {exc.code}")
    return workloads.extract(argv[0], out, buf.getvalue())


def lq_oracle_cost(inst) -> float:
    sys_ = inst.system
    data = [sys_.step_data(t, inst.truth[t]) for t in range(sys_.T)]
    As, Bs, Qs, Rs = ([np.atleast_2d(d[i]) for d in data] for i in (0, 1, 3, 4))
    ws, xbars = ([np.atleast_1d(d[i]) for d in data] for i in (2, 5))
    term = inst.terminal_cost()
    states, actions = oracles.lq_ocp_oracle(
        As, Bs, ws, Qs, Rs, xbars, np.atleast_1d(inst.x0),
        ("quadratic", term.P, term.xbar))
    cost = 0.0
    for t in range(sys_.T):
        d = states[t] - xbars[t]
        cost += float(d @ Qs[t] @ d + actions[t] @ Rs[t] @ actions[t])
    d = states[-1] - term.xbar
    return cost + float(d @ term.P @ d)


def chain_oracle_cost(inst) -> float:
    sys_ = inst.system
    targets = np.asarray(sys_.targets, float)
    x = oracles.inventory_oracle(
        float(inst.x0[0]), targets[:sys_.T], float(inst.terminal_param[0]),
        sys_.u_lo, sys_.u_hi, sys_.x_lo, sys_.x_hi, sys_.action_weight)
    cost = float(np.sum((x[:sys_.T] - targets[:sys_.T]) ** 2))
    if sys_.include_terminal_stage:
        cost += float((x[sys_.T] - targets[sys_.T]) ** 2)
    return cost + sys_.action_weight * float(np.sum(np.diff(x) ** 2))


def cross_check(wl, T: int, seed: int, pinned: dict) -> dict:
    inst = presets.build_preset(wl.preset, T=T,
                                seed=workloads.instance_seed(seed))
    if wl.command[0] == "mpc":
        library, oracle = pinned["cost_opt"], lq_oracle_cost(inst)
    elif wl.preset.startswith("inventory"):
        library = engine.solve_opt(inst).total_cost
        oracle = chain_oracle_cost(inst)
    else:
        return {}
    rel = abs(library - oracle) / max(abs(oracle), 1e-300)
    if not rel <= ORACLE_RTOL:
        raise RuntimeError(f"{wl.name} T={T} seed={seed}: hindsight cost "
                           f"{library!r} disagrees with the oracle {oracle!r}")
    return {"workload": wl.name, "T": T, "seed": workloads.instance_seed(seed),
            "library": library, "oracle": oracle, "rel_diff": rel}


def main() -> int:
    configs, checks = {}, []
    with tempfile.TemporaryDirectory(dir=HERE) as out:
        for wl in workloads.WORKLOADS.values():
            horizons = sorted({wl.T, wl.T_small, workloads.SMOKE_T,
                               workloads.SMOKE_T_SMALL})
            for seed in range(workloads.SEED_POOL):
                for T in horizons:
                    argv = wl.argv(T, seed)
                    values = run_cli(argv, out)
                    if values.get("dominated") is False:
                        raise RuntimeError(f"{' '.join(argv)}: not dominated")
                    configs[workloads.config_key(argv)] = values
                    check = cross_check(wl, T, seed, values)
                    if check:
                        checks.append(check)
            print(f"pinned {wl.name}", file=sys.stderr)
    doc = {"rtol": RTOL,
           "about": "values pinned by perfbench/pin.py; the output gate "
                    "accepts max|got-ref| <= rtol * max|ref| per quantity",
           "configs": configs, "oracle_cross_checks": checks}
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    worst = max(c["rel_diff"] for c in checks)
    print(f"{len(configs)} configurations pinned; {len(checks)} oracle "
          f"cross-checks, worst relative difference {worst:.3g}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
