"""Measuring process of the mpclab benchmark.

``run.py`` starts this file in a fresh interpreter, with ``src`` on
PYTHONPATH, in one of two modes:

- ``setup <preset> <T> <seed>``: import ``mpclab.cli`` and build the
  instance, then exit.  The parent times the whole process.
- ``measure <config.json>``: drive ``mpclab.cli.main`` in-process, check
  every invocation's exit code and artifacts, and print one JSON line with
  the samples and counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402  (needs the path entry above)


def _setup(preset: str, T: str, seed: str) -> None:
    import mpclab.cli  # noqa: F401
    from mpclab import presets

    presets.build_preset(preset, T=int(T), seed=int(seed))


# ---------------------------------------------------------------------------
# one checked CLI invocation
# ---------------------------------------------------------------------------

class Invoker:
    """Runs CLI invocations and applies the output gate to each.

    An invocation fails when it exits non-zero, when its artifacts differ
    from the pinned references beyond the tolerance, or when its artifact
    bytes differ from the first invocation of the same configuration (the
    reruns-are-identical promise of ``config_hash``).
    """

    def __init__(self, cli, refs: dict, workdir: str):
        self.cli = cli
        self.refs = refs
        self.rtol = refs["rtol"]
        self.workdir = workdir
        self.first_bytes = {}   # config key -> {artifact: bytes}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def __call__(self, argv: list, tracer=None, op: int = 0) -> float:
        key = workloads.config_key(argv)
        command = argv[0]
        out = os.path.join(self.workdir, "out")
        os.makedirs(out, exist_ok=True)
        for name in os.listdir(out):
            os.remove(os.path.join(out, name))
        full = [*argv, "--out", out]
        buf_out, buf_err = io.StringIO(), io.StringIO()

        def call():
            try:
                self.cli.main(full, prog_name="mpclab")
            except SystemExit as exc:
                code = exc.code
                return 0 if code is None else (code if isinstance(code, int)
                                                else 1)
            except Exception:   # a crash is a failed operation, not an abort
                traceback.print_exc(file=buf_err)
                return 1
            return 0

        with contextlib.redirect_stdout(buf_out), \
                contextlib.redirect_stderr(buf_err):
            start = time.perf_counter()
            code = call() if tracer is None else tracer.run_op(op, "cli", call)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problem = self._check(key, command, out, code, buf_out.getvalue(),
                              buf_err.getvalue())
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{key}: {problem}")
        return elapsed

    def _check(self, key, command, out, code, stdout, stderr) -> str | None:
        if code != 0:
            return f"exit {code}: {stderr.strip()[-300:]}"
        ref = self.refs["configs"].get(key)
        if ref is None:
            return "no pinned reference for this configuration"
        try:
            got = workloads.extract(command, out, stdout)
            blobs = {}
            for name in workloads.ARTIFACTS[command]:
                with open(os.path.join(out, name), "rb") as fh:
                    blobs[name] = fh.read()
        except (OSError, KeyError, ValueError) as exc:
            return f"unreadable artifacts: {exc!r}"
        diffs = workloads.compare(got, ref, self.rtol)
        if diffs:
            return "; ".join(diffs)
        first = self.first_bytes.setdefault(key, blobs)
        changed = [n for n in blobs if blobs[n] != first[n]]
        if changed:
            return f"artifacts not byte-identical to the first run: {changed}"
        return None


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None when not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        dep = cfg["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": _blas_threads(),
            "MPCLAB_THREADS": os.environ.get("MPCLAB_THREADS")}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop.

    It uses neither mpclab nor BLAS, so its time tracks only how fast the
    interpreter runs on the machine at that moment.  A probe with small
    multi-threaded BLAS calls tracked far worse on a shared 2-core machine.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    return time.perf_counter() - start


def _interleaved(invoke, main_argv, small_argv, seconds, min_samples,
                 deadline) -> dict:
    """Time the main configuration, with the speed probe and the small
    configuration in between.

    After each main invocation the probe runs once and the small
    configuration runs for a quarter of the main invocation's time (at least
    once), so all three medians see the same drift of a shared machine.
    """
    speed_probe()
    main, small, probes = [], [], []
    start = time.perf_counter()
    while ((time.perf_counter() - start < seconds or len(main) < min_samples)
           and time.perf_counter() < deadline):
        main.append(invoke(main_argv))
        probes.append(speed_probe())
        spent = 0.0
        while spent < 0.25 * main[-1]:
            small.append(invoke(small_argv))
            spent += small[-1]
    return {"main": main, "small": small, "probe": probes}


def measure(cfg: dict) -> dict:
    import mpclab
    import mpclab.cli as cli

    src = os.path.realpath(cfg["src"])
    if not os.path.realpath(mpclab.__file__).startswith(src + os.sep):
        raise SystemExit(f"mpclab imported from {mpclab.__file__}, "
                         f"not from {src}")
    wl = workloads.WORKLOADS[cfg["workload"]]
    for key, val in wl.env:
        os.environ[key] = val
    refs = workloads.load_references(cfg["references"])
    invoke = Invoker(cli, refs, cfg["workdir"])
    deadline = time.perf_counter() + cfg["max_seconds"]
    main_argv = wl.argv(cfg["T"], cfg["seed"])
    small_argv = wl.argv(cfg["T_small"], cfg["seed"])
    seconds = cfg["seconds"]

    invoke(main_argv)   # warm-up: lazy imports, caches; checked, not timed
    result = {"peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}

    if not cfg["trace"]:
        invoke(small_argv)
        result.update(_interleaved(invoke, main_argv, small_argv, seconds,
                                   cfg["min_samples"], deadline))
    else:
        result.update(_traced(invoke, wl, main_argv, seconds, cfg, deadline))
    result.update(attempted=invoke.attempted, failed=invoke.failed,
                  problems=invoke.problems)
    return result


def _traced(invoke, wl, argv, seconds, cfg, deadline) -> dict:
    """Alternate untraced and traced invocations of the main configuration.

    A workload with MPCLAB_THREADS set adds a traced arm at one thread, for
    the sweep speed-up.  Returns the samples of each arm and the per-op
    span summaries; the last traced op's spans are written to
    ``cfg["spans_out"]``.
    """
    import tracer as tr

    tracer = tr.Tracer(wl.window)
    threads = dict(wl.env).get("MPCLAB_THREADS")
    arms = ["plain", "traced"] + (["traced_1"] if threads else [])
    samples = {arm: [] for arm in arms}
    summaries = {arm: [] for arm in arms if arm != "plain"}
    last_spans = []
    op = 0
    start = time.perf_counter()
    while ((time.perf_counter() - start < seconds
            or len(samples["traced"]) < cfg["min_samples"] // 2)
           and time.perf_counter() < deadline):
        for arm in arms:
            if arm == "plain":
                samples[arm].append(invoke(argv))
                continue
            if arm == "traced_1":
                os.environ["MPCLAB_THREADS"] = "1"
            op += 1
            tracer.install()
            try:
                elapsed = invoke(argv, tracer=tracer, op=op)
            finally:
                tracer.uninstall()
                if arm == "traced_1":
                    os.environ["MPCLAB_THREADS"] = threads
            spans = tracer.take()
            summary = tr.summarize_op(spans)
            summary["cmd_s"] = elapsed
            summaries[arm].append(summary)
            if arm == "traced":
                last_spans = spans
            samples[arm].append(elapsed)
    with open(cfg["spans_out"], "w") as fh:
        json.dump(tr.span_records(last_spans), fh)
    return {"samples": samples,
            "layers": layer_metrics(summaries, samples)}


def layer_metrics(summaries: dict, samples: dict) -> dict:
    """Per-layer metric values from the per-op span summaries."""
    import tracer as tr

    ops = summaries["traced"]

    def per_op(name, field):
        return tr.median([s["names"].get(name, {}).get(field, 0.0)
                          for s in ops])

    def durations(name):
        return [d for s in ops for d in s["names"].get(name, {})
                .get("durations", ())]

    def attrs(name):
        return [a for s in ops for key, rec in s["names"].items()
                if key == name or key.startswith(name + ".")
                for a in rec["attrs"]]

    def dense_mb(name):
        return tr.median([sum(r * r * 8 for r in s["names"].get(name, {})
                              .get("attrs", ())) / 1e6 for s in ops])

    out = {}
    for metric in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        if base == "trace":
            continue
        if stat in ("calls", "s", "self_s"):
            out[metric] = per_op(base, stat)
        elif stat == "p50_ms":
            out[metric] = 1000.0 * tr.median(durations(base))
        elif stat == "rows_max":
            out[metric] = max(attrs(base), default=0)
        elif stat == "dense_mb":
            out[metric] = dense_mb(base)
        elif stat == "kkt_residual_max":
            out[metric] = max(attrs(base), default=0.0)
        elif stat == "speedup":
            one = [s["names"].get(base, {}).get("s", 0.0)
                   for s in summaries.get("traced_1", ())]
            two = [s["names"].get(base, {}).get("s", 0.0) for s in ops]
            out[metric] = (tr.median(one) / tr.median(two)
                           if one and tr.median(two) > 0 else 0.0)
        else:
            raise ValueError(f"unknown per-layer statistic in {metric}")
    out["trace.overhead"] = (tr.median(samples["traced"])
                             / tr.median(samples["plain"]) - 1.0)
    out["trace.gap_s"] = tr.median([s["cmd_s"] - s["self_total"] for s in ops])
    out["trace.spans"] = tr.median([s["spans"] for s in ops])
    return out


# per-layer metric names, in the order of BENCHMARK.json
PER_LAYER = (
    "ftocp.clairvoyant_action.calls", "ftocp.clairvoyant_action.s",
    "ftocp.clairvoyant_action.self_s", "ftocp.clairvoyant_action.p50_ms",
    "ftocp.solve_quadratic.long.calls", "ftocp.solve_quadratic.long.s",
    "ftocp.solve_quadratic.long.self_s", "ftocp.solve_quadratic.long.p50_ms",
    "ftocp.solve_quadratic.short.calls", "ftocp.solve_quadratic.short.s",
    "ftocp.solve_quadratic.short.self_s",
    "ftocp.solve_quadratic.short.p50_ms",
    "assembly.solve_assembly.calls", "assembly.solve_assembly.self_s",
    "assembly.solve_assembly.rows_max", "assembly.solve_assembly.dense_mb",
    "ftocp.window_matrices.self_s", "assembly.assemble_window.self_s",
    "kkt.measure_gain_tables.s", "kkt.block_inverse_profile.s",
    "kkt.block_inverse_profile.dense_mb", "kkt.measured_sigma.s",
    "ftocp.solve_inventory.calls", "ftocp.solve_inventory.s",
    "ftocp.solve_inventory.p50_ms", "engine.run_mpc.calls", "engine.run_mpc.s",
    "engine.run_mpc.p50_ms", "regret.sweep_horizon.s",
    "regret.sweep_horizon.speedup", "ftocp.solve_quadratic.kkt_residual_max",
    "ftocp.solve_inventory.kkt_residual_max", "cli.self_s",
    "presets.build_preset.s", "engine.solve_opt.s", "trace.overhead",
    "trace.gap_s", "trace.spans",
)


def main(argv: list) -> int:
    if argv[:1] == ["setup"]:
        _setup(*argv[1:])
        return 0
    if argv[:1] == ["measure"]:
        with open(argv[1]) as fh:
            cfg = json.load(fh)
        print(json.dumps(measure(cfg)))
        return 0
    print("usage: worker.py setup PRESET T SEED | measure CONFIG.json",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
