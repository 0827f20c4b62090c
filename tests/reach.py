"""Reach map: every function of ``src/mpclab`` that no shipped command calls.

In one process, under ``sys.setprofile`` installed before ``mpclab.cli`` is
imported (so functions that run at import count as reached), it runs

- the ``mpclab`` command lines of README.md;
- the commands of ``tests/compare_commands.txt``, which the CI step that
  compares a change's artifacts with its base commit runs too;
- the configuration-error examples of ``EXIT_2`` below, which must exit
  2, and the solver-failure examples of ``EXIT_3``, which must exit 3;

each with ``--out`` in a temporary directory.  It then prints every function
defined in ``src/mpclab`` (methods and nested functions included, lambdas
not) that none of them called, less the ``ALLOWED`` entries, each of which
says why it may stay unreached, and names every allowed function that was
called as stale.  Run from anywhere, with the package's dependencies
installed:

    python tests/reach.py

The exit status is 1 when a function outside ``ALLOWED`` is unreached, when
an entry of ``ALLOWED`` is stale or names no function, or when an ``EXIT_2``
or ``EXIT_3`` example exits with another code.

Standard library only.  Pytest does not collect this file: it is not named
``test_*.py``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import pathlib
import shlex
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpclab"

EXIT_2 = ["inventory-suite --eps 1e400",
          "mpc --preset disturbance --T 4 --k 0"]
EXIT_3 = ["mpc --preset pendulum --T 8 --k 2",
          "mpc --preset inventory-one-sided --T 3 --k 1"]

# module.qualname -> why no command needs to call it
ALLOWED = {
    "regret.regret_inequalities":
        "the paper's regret and distance verdicts: reached from tests only "
        "until a command certifies an executed run",
    "regret.per_step_error_bound_rhs":
        "the paper's per-step error bound: reached from tests only until a "
        "command certifies an executed run",
    "regret.pipeline_admission_check":
        "the paper's admission check: reached from tests only until a "
        "command certifies an executed run",
    "kkt.GainTables.k":
        "read by the regret verdicts only",
    "model.validate_assumptions":
        "checks the declared bounds; kept for the verdict on an executed run",
    "model.LinearQuadraticSystem.lipschitz_dynamics":
        "a declared constant of the paper's pipeline; reached from tests only",
    "model.InventorySystem.lipschitz_dynamics":
        "a declared constant of the paper's pipeline; reached from tests only",
    "presets.build_preset":
        "the benchmark's entry point (perfbench/), and the tests'",
}


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def in the package.
    The first line is that of the code object: the first decorator's line
    for a decorated function."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found[str(path), first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def commands() -> list[tuple[str, str]]:
    """(source, command line without ``mpclab`` and ``--out``) of every run."""
    readme = [line.split(None, 1)[1] for line in
              (ROOT / "README.md").read_text().splitlines()
              if line.startswith("mpclab ")]
    compare = (ROOT / "tests" / "compare_commands.txt").read_text()
    return ([("README", line) for line in readme]
            + [("compare", line) for line in compare.splitlines() if line]
            + [("exit-2", line) for line in EXIT_2]
            + [("exit-3", line) for line in EXIT_3])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    start = time.monotonic()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        from mpclab import cli
        if pathlib.Path(cli.__file__).resolve().parent != PACKAGE:
            print(f"the package imported is not {PACKAGE}: {cli.__file__}")
            return 1
        codes = {}
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            for n, (source, line) in enumerate(commands()):
                argv = shlex.split(line)
                if "--out" in argv:
                    del argv[argv.index("--out"):argv.index("--out") + 2]
                out = io.StringIO()
                # click's standalone mode ends every command in SystemExit,
                # with its exit code
                try:
                    with (contextlib.redirect_stdout(out),
                          contextlib.redirect_stderr(out)):
                        cli.main(argv + ["--out", f"{tmp}/{n}"],
                                 prog_name="mpclab")
                except SystemExit as exc:
                    codes[source, line] = exc.code
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {(code.co_filename, code.co_firstlineno) for code in called}
    functions = defined_functions()
    names = set(functions.values())
    unreached = sorted(name for key, name in functions.items()
                       if key not in reached)
    wrong = [(source, line, code) for (source, line), code in codes.items()
             if source in ("exit-2", "exit-3") and code != int(source[-1])]
    for source, line, code in wrong:
        print(f"expected {source.replace('-', ' ')}: {line} (exit {code})")
    unknown = sorted(set(ALLOWED) - names)
    for name in unknown:
        print(f"allowed but not defined: {name}")
    stale = sorted(set(ALLOWED) & names - set(unreached))
    for name in stale:
        print(f"allowed but reached (stale): {name}")
    shown = [name for name in unreached if name not in ALLOWED]
    for name in shown:
        print(f"unreached: {name}")
    print(f"{len(codes)} commands in {time.monotonic() - start:.1f} s: "
          f"{len(functions) - len(unreached)} of {len(functions)} functions "
          f"of src/mpclab reached, {len(unreached) - len(shown)} unreached "
          f"and allowed, {len(shown)} unreached and not allowed")
    return 1 if wrong or unknown or stale or shown else 0


if __name__ == "__main__":
    sys.exit(main())
