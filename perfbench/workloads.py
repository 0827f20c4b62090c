"""Workload table and output checks of the mpclab benchmark.

Each workload is one ``mpclab`` CLI command at a fixed configuration, run at
a main horizon T and at a smaller horizon T_small (the pair gives
``t_growth_exp``).  The benchmark seed picks the instance seed passed to the
CLI as ``--seed``; references for every instance seed in the pool are pinned
in ``references.json`` by ``pin.py``.

This module imports nothing from mpclab, so the parent process stays light.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

SEED_POOL = 16       # instance seed = benchmark seed mod SEED_POOL
SMOKE_T = 20
SMOKE_T_SMALL = 8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: tuple          # CLI arguments without --T / --seed / --out
    T: int
    T_small: int
    window: int | None      # the command's --k; windows with K <= k are "short"
    env: tuple = ()         # extra environment, as (key, value) pairs
    seed_used: bool = True  # False when the preset ignores --seed

    @property
    def preset(self) -> str:
        return self.command[self.command.index("--preset") + 1]

    def argv(self, T: int, seed: int) -> list:
        return [*self.command, "--T", str(T),
                "--seed", str(instance_seed(seed))]


# Horizons are sized so that one invocation takes well under a second on a
# 2-core machine: a 20 s run then holds the 21+ samples a tail above the
# median needs, and a series of ~90 runs fits in under an hour.
WORKLOADS = {w.name: w for w in [
    # closed loop; time is the long clairvoyant window solves, through both
    # the dense (< 200 rows) and the banded saddle path
    Workload("mpc-long",
             ("mpc", "--preset", "disturbance", "--k", "8",
              "--noise-scale", "0.2"),
             T=80, T_small=20, window=8),
    # ~1000 short finite-difference window solves; per-call overhead
    Workload("sensitivity",
             ("constants", "--preset", "tracking-rand", "--k", "8",
              "--mode", "measured"),
             T=24, T_small=8, window=8),
    # dense inverse block profile; no window solve runs
    Workload("decay-profile",
             ("certify-decay", "--preset", "tracking-rand"),
             T=96, T_small=24, window=None),
    # active-set chain QP under the two-thread sweep pool; no LQ solve runs
    Workload("chain-sweep",
             ("sweep-horizon", "--preset", "inventory-two-sided",
              "--k", "10"),
             T=16, T_small=4, window=None,
             env=(("MPCLAB_THREADS", "2"),), seed_used=False),
]}

ARTIFACTS = {
    "mpc": ("mpc_report.json", "mpc_trajectory.csv"),
    "constants": ("constants.txt",),
    "certify-decay": ("decay_profile.csv", "decay_constants.txt"),
    "sweep-horizon": ("sweep_horizon.csv", "sweep_horizon.json"),
}


def instance_seed(seed: int) -> int:
    return seed % SEED_POOL


def config_key(argv) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# extracting the checked values from a command's artifacts
# ---------------------------------------------------------------------------

def _csv_column(path: str, column: str) -> list:
    with open(path) as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [float(r[column]) for r in rows]


def _text_values(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or " = " not in line:
                continue
            key, val = line.rstrip("\n").split(" = ", 1)
            values[key] = val
    return values


def extract(command: str, out: str, stdout: str) -> dict:
    """The values the output gate compares, read from a command's artifacts.

    Raises OSError / KeyError / ValueError when an artifact is missing or
    malformed; the caller counts that as a failed operation.
    """
    if command == "mpc":
        with open(os.path.join(out, "mpc_report.json")) as fh:
            doc = json.load(fh)
        return {"regret": doc["regret"], "cost_opt": doc["cost_opt"]}
    if command == "constants":
        vals = _text_values(os.path.join(out, "constants.txt"))
        gs = [float(vals[k]) for k in sorted(
            (k for k in vals if k.startswith("gain_state_")),
            key=lambda k: int(k.rsplit("_", 1)[1]))]
        gp = [float(vals[k]) for k in sorted(
            (k for k in vals if k.startswith("gain_param_")),
            key=lambda k: int(k.rsplit("_", 1)[1]))]
        return {"gain_state": gs, "gain_param": gp, "C3": float(vals["C3"])}
    if command == "certify-decay":
        path = os.path.join(out, "decay_profile.csv")
        return {"maxima": _csv_column(path, "max_block_norm"),
                "theory": _csv_column(path, "theory_bound"),
                "dominated": "dominated=True" in stdout}
    if command == "sweep-horizon":
        regrets = _csv_column(os.path.join(out, "sweep_horizon.csv"),
                              "regret")
        with open(os.path.join(out, "sweep_horizon.json")) as fh:
            slope = json.load(fh)["slope"]
        return {"regrets": regrets, "slope": slope}
    raise ValueError(f"no output check for command {command!r}")


def compare(got: dict, ref: dict, rtol: float) -> list:
    """Differences between extracted values and their pinned references.

    Numbers and lists of numbers match when the largest absolute difference
    is at most ``rtol`` times the largest reference magnitude of that
    quantity; anything else must be equal.  Returns a list of messages,
    empty when everything matches.
    """
    problems = []
    for key, want in ref.items():
        have = got.get(key)
        if isinstance(want, bool) or not isinstance(want, (int, float, list)):
            if have != want:
                problems.append(f"{key}: {have!r} != {want!r}")
            continue
        w = want if isinstance(want, list) else [want]
        h = have if isinstance(have, list) else [have]
        if len(h) != len(w) or not all(isinstance(v, (int, float)) for v in h):
            problems.append(f"{key}: shape {h!r} != {w!r}")
            continue
        scale = max((abs(v) for v in w), default=0.0)
        err = max((abs(a - b) for a, b in zip(h, w)), default=0.0)
        if not err <= rtol * scale:   # also catches NaN
            problems.append(f"{key}: max diff {err:.3g} > {rtol:g} x {scale:.3g}")
    return problems


def load_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)
