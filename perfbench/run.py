"""mpclab benchmark: end-to-end and per-layer metrics of the CLI commands.

Run from the root of an mpclab source tree:

    python3 perfbench/run.py --workload mpc-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
measures the per-layer metrics in a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it name every metric with its
unit, state the tail percentile and sample count, and record the
environment.  ``--smoke`` runs every workload at T=20, untraced and traced,
and checks that a wrong reference value is reported as a failed operation.

The parent imports nothing from mpclab: each measurement runs in a fresh
interpreter (``worker.py``) with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs the path entry above)

WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7      # fresh processes timed for setup_s, after one untimed
MIN_SAMPLES = 21      # timed invocations per run: a tail above the median
RUN_LIMIT_S = 170.0   # a run ends within this, whatever --seconds says
# Typical median of worker.speed_probe on the reference machine (2-core Xeon
# VM, 2.0 GHz).  cmd_s times are scaled by REF_PROBE_S / (this run's median);
# setup_s is not, because its fresh processes run before the probe does.
REF_PROBE_S = 0.012
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _worker_env(root: str, workload: workloads.Workload) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("MPCLAB_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)   # time imports as users see them
    env.update(dict(workload.env))
    return env


def _run_worker(args: list, env: dict, timeout: float) -> str:
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=env,
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(root, workload, T, seed, probes, deadline) -> list:
    """Wall time of fresh processes that import mpclab.cli and build the
    workload's instance; the first, untimed, fills the bytecode cache."""
    env = _worker_env(root, workload)
    args = ["setup", workload.preset, str(T),
            str(workloads.instance_seed(seed))]
    times = []
    for i in range(probes + 1):
        start = time.perf_counter()
        _run_worker(args, env, deadline - time.perf_counter())
        if i:
            times.append(time.perf_counter() - start)
    return times


def run_measure(root, workload, cfg, deadline) -> dict:
    cfg_path = os.path.join(cfg["workdir"], "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    out = _run_worker(["measure", cfg_path], _worker_env(root, workload),
                      deadline - time.perf_counter())
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples above it.

    Returns (value, percentile, n).  With fewer than 11 samples no such
    percentile exists and the maximum is returned with percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    i = n - 11
    return xs[i], 100.0 * (i + 1) / n, n


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


# metric name -> unit, in the order of BENCHMARK.json
END_TO_END = {"cmd_s.p50": "s", "cmd_s.tail": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "t_growth_exp": "1"}
PER_LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s",
                   "p50_ms": "ms", "rows_max": "rows", "dense_mb": "MB",
                   "kkt_residual_max": "norm", "speedup": "ratio",
                   "overhead": "ratio", "gap_s": "s", "spans": "count"}


def bench(root: str, name: str, seed: int, seconds: float, trace: bool,
          *, smoke: bool = False, references: str | None = None) -> dict:
    """One benchmark run; returns the result record (not yet printed)."""
    if not os.path.isfile(os.path.join(root, "src", "mpclab", "cli.py")):
        raise BenchError(f"no mpclab source tree under {root}/src")
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    T, T_small = ((workloads.SMOKE_T, workloads.SMOKE_T_SMALL) if smoke
                  else (wl.T, wl.T_small))
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    spans_out = os.path.join(root, OUT_DIR,
                             f"spans-{name}-seed{seed}{'-smoke' * smoke}.json")
    try:
        setup = ([] if trace else
                 setup_seconds(root, wl, T, seed, 1 if smoke else SETUP_PROBES,
                               deadline))
        cfg = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "T": T, "T_small": T_small,
               "min_samples": 3 if smoke else MIN_SAMPLES,
               "max_seconds": deadline - time.perf_counter() - 5.0,
               "workdir": workdir, "src": os.path.join(root, "src"),
               "references": references or workloads.REFERENCES,
               "spans_out": spans_out}
        res = run_measure(root, wl, cfg, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    record = {"workload": name, "seed": seed,
              "instance_seed": workloads.instance_seed(seed),
              "seed_used": wl.seed_used, "T": T, "T_small": T_small,
              "command": ["mpclab", *wl.argv(T, seed)],
              "env": {"nproc": os.cpu_count(),
                      "affinity": len(os.sched_getaffinity(0)),
                      "python": platform.python_version(),
                      **res["env"], "seed": seed,
                      "commit": git_commit(root)},
              "attempted": res["attempted"], "failed": res["failed"],
              "problems": res["problems"]}
    if trace:
        record["metrics"] = {
            m: {"value": v, "unit": PER_LAYER_UNITS[m.rsplit(".", 1)[1]]}
            for m, v in res["layers"].items()}
        record["samples"] = {arm: len(v) for arm, v in res["samples"].items()}
        record["spans_file"] = os.path.relpath(spans_out, root)
    else:
        main, small = res["main"], res["small"]
        value, pct, n = tail(main)
        p50, p50_small = statistics.median(main), statistics.median(small)
        probe = statistics.median(res["probe"])
        scale = REF_PROBE_S / probe
        record["tail"] = {"percentile": round(pct, 1), "samples": n,
                          "above": 10 if n >= 11 else 0}
        record["samples"] = {"main": len(main), "small": len(small),
                             "setup": len(setup), "probe": len(res["probe"])}
        record["wall"] = {"cmd_s.p50": p50, "cmd_s.tail": value,
                          "cmd_s_small.p50": p50_small, "probe_s": probe,
                          "scale": scale}
        values = {"cmd_s.p50": p50 * scale, "cmd_s.tail": value * scale,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "t_growth_exp": (math.log(p50 / p50_small)
                                   / math.log(T / T_small))}
        record["metrics"] = {m: {"value": values[m], "unit": unit}
                             for m, unit in END_TO_END.items()}
    return record


def report(record: dict) -> None:
    """Print the readable summary, the full record, then the result line."""
    wl = record["workload"]
    print(f"# workload {wl}  seed {record['seed']}  "
          f"command: {' '.join(record['command'])}")
    if not record["seed_used"]:
        print(f"# note: the {wl} preset ignores --seed; every seed runs the "
              f"same instance")
    if "tail" in record:
        t = record["tail"]
        w = record["wall"]
        print(f"# cmd_s.tail is p{t['percentile']} of {t['samples']} "
              f"samples ({t['above']} above it); t_growth_exp compares "
              f"T={record['T']} with T={record['T_small']}")
        print(f"# cmd_s times are scaled to the reference machine speed by "
              f"{w['scale']:.4g} (speed probe {w['probe_s'] * 1e3:.4g} ms, "
              f"reference {REF_PROBE_S * 1e3:g} ms); unscaled wall: "
              f"cmd_s.p50 {w['cmd_s.p50']:.6g} s, cmd_s.tail "
              f"{w['cmd_s.tail']:.6g} s")
    for m, v in record["metrics"].items():
        print(f"{m} {v['value']:.6g} {v['unit']}")
    share = record["failed"] / max(record["attempted"], 1)
    print(f"ops_failed {share:.6g} share ({record['failed']} of "
          f"{record['attempted']} invocations)")
    for p in record["problems"]:
        print(f"# failed: {p}")
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))


def smoke(root: str) -> int:
    """Every workload at T=20, untraced and traced; then a wrong reference
    value must show up as failed operations."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            rec = bench(root, name, 1, 1.0, trace, smoke=True)
            good = rec["failed"] == 0 and len(rec["metrics"]) > 0
            ok &= good
            print(f"# smoke {name} trace={int(trace)}: "
                  f"{rec['attempted']} invocations, {rec['failed']} failed"
                  f"{'' if good else ' <-- FAIL ' + str(rec['problems'])}")
    refs = workloads.load_references()
    wl = workloads.WORKLOADS["mpc-long"]
    key = workloads.config_key(wl.argv(workloads.SMOKE_T, 1))
    refs["configs"][key]["cost_opt"] *= 1.01
    wrong = os.path.join(root, OUT_DIR, "references-wrong.json")
    with open(wrong, "w") as fh:
        json.dump(refs, fh)
    try:
        rec = bench(root, "mpc-long", 1, 1.0, False, smoke=True,
                    references=wrong)
    finally:
        os.remove(wrong)
    caught = rec["failed"] > 0 and rec["failed"] < rec["attempted"]
    ok &= caught
    print(f"# smoke wrong reference: {rec['failed']} of {rec['attempted']} "
          f"invocations failed{'' if caught else ' <-- FAIL'}")
    print("smoke " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="quick self-test of every workload")
    args = ap.parse_args(argv)
    root = os.getcwd()
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            ap.error("--workload is required")
        record = bench(root, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(record)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
