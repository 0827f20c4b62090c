"""Outside-in span tracer for mpclab.

The tracer replaces the public functions of a few mpclab modules by wrappers
that record one span per call: name, start, end, parent span, thread and
operation id.  Nothing inside ``src/`` changes; ``install`` swaps module
attributes and ``uninstall`` puts the originals back.  A module that bound a
traced function under its own name (``from .engine import solve_opt``) is
rebound too, so calls through that name are seen.

Spans stay in memory until the caller takes them with ``take``.  Self time is
a span's duration minus the union of its children's intervals, so children
that ran at the same time on different threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time

# (module, prefix used in metric names); metric names must start with a letter
TRACED = (("mpclab._assembly", "assembly"), ("mpclab.ftocp", "ftocp"),
          ("mpclab.kkt", "kkt"), ("mpclab.engine", "engine"),
          ("mpclab.regret", "regret"), ("mpclab.presets", "presets"),
          ("mpclab.cli", "cli"))

# span fields
ID, NAME, START, END, PARENT, THREAD, OP, ATTR = range(8)


def _rows(asm) -> int:
    return asm.M.shape[0] + asm.N.shape[0]


class Tracer:
    """Records spans around the public functions of the traced modules.

    ``window`` is the workload's window length k: quadratic window solves
    with K <= k are named ``.short``, longer ones ``.long``.
    """

    def __init__(self, window: int | None):
        self.window = window
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._op = 0
        self._saved = []   # (module, attribute, original)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        modules = [(importlib.import_module(m), p) for m, p in TRACED]
        wrappers = {}
        for mod, prefix in modules:
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(fn, f"{prefix}.{attr}")
        for mod, _ in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- recording --------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _namer(self, name: str):
        """Per-call name suffix and attribute for the functions that have one."""
        if name == "ftocp.solve_quadratic":
            def call(args, result):
                spec = args[0]
                short = self.window is not None and spec.K <= self.window
                return (name + (".short" if short else ".long"),
                        result.kkt_residual)
            return call
        if name == "ftocp.solve_inventory":
            return lambda args, result: (name, result.kkt_residual)
        if name in ("assembly.solve_assembly", "kkt.block_inverse_profile"):
            return lambda args, result: (name, _rows(args[0]))
        return None

    def _wrap(self, fn, name: str):
        namer = self._namer(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:   # first span on a pool thread: parent is the caller's span
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            label, attr = (name, None) if namer is None else namer(args, result)
            tracer.spans.append((sid, label, start, end, parent,
                                 threading.get_ident(), tracer._op, attr))
            return result

        return functools.wraps(fn)(traced)

    def run_op(self, op: int, name: str, call):
        """Run ``call()`` as operation ``op`` under a root span ``name``."""
        self._op = op
        stack = self._stack()
        self._main_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, None,
                               threading.get_ident(), op, None))
            self._main_stack = None

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# self time and per-operation summaries
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for sp in spans:
        if sp[PARENT] is not None:
            children.setdefault(sp[PARENT], []).append((sp[START], sp[END]))
    out = {}
    for sp in spans:
        kids = children.get(sp[ID], ())
        clipped = [(max(s, sp[START]), min(e, sp[END])) for s, e in kids]
        out[sp[ID]] = (sp[END] - sp[START]
                       - _union_length([c for c in clipped if c[1] > c[0]]))
    return out


def summarize_op(spans) -> dict:
    """Per-name totals of one operation: calls, inclusive s, self s, the
    per-call durations, attribute values, and the summed self time."""
    selfs = self_times(spans)
    by_name = {}
    for sp in spans:
        rec = by_name.setdefault(sp[NAME], {"calls": 0, "s": 0.0,
                                            "self_s": 0.0, "durations": [],
                                            "attrs": []})
        rec["calls"] += 1
        rec["s"] += sp[END] - sp[START]
        rec["self_s"] += selfs[sp[ID]]
        rec["durations"].append(sp[END] - sp[START])
        if sp[ATTR] is not None:
            rec["attrs"].append(sp[ATTR])
    return {"names": by_name, "self_total": sum(selfs.values()),
            "spans": len(spans)}


def span_records(spans) -> list:
    """Spans as dicts with their self time, for writing out."""
    selfs = self_times(spans)
    t0 = min((sp[START] for sp in spans), default=0.0)
    return [{"id": sp[ID], "name": sp[NAME], "start": sp[START] - t0,
             "end": sp[END] - t0, "self": selfs[sp[ID]], "parent": sp[PARENT],
             "thread": sp[THREAD], "op": sp[OP], "attr": sp[ATTR]}
            for sp in spans]


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default
