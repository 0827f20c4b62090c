"""Mutation check of the verdict path: every mutant below must be killed.

Each entry is one exact edit of a file of ``src/mpclab``: (file, exact text,
replacement, test subset).  It is applied to a fresh copy of ``src/``,
``tests/`` and ``pyproject.toml``, and its test subset runs against the copy
and must fail.  Run from anywhere, with the test dependencies installed:

    python tests/mutants.py          # every entry
    python tests/mutants.py 3 7      # entries 3 and 7 only

The exit status is 1 when a mutant survives, when an entry's text does not
occur exactly once in its file (so a renamed line fails the harness instead
of dropping its mutant), or when the unmutated copy fails a subset.  A
surviving mutant is mended by adding a test, never by deleting the entry.

Standard library only.  Pytest does not collect this file: it is not named
``test_*.py``.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

REGRET = "tests/test_regret.py::TestRegretInequalities"
ERROR_BOUND = "tests/test_engine.py::TestErrorBound"
ADMISSION = "tests/test_engine.py::TestAdmission"
ASSUMPTIONS = "tests/test_model.py::TestValidateAssumptions"
CHECK = "tests/test_checks.py::TestCheck"
PROFILE = "tests/test_kkt.py::TestMeasuredQuantities::"
NORMS = "tests/test_kkt.py::TestSpectralNorms::"
ADJOINT = ("tests/test_continuation.py::"
           "test_first_action_adjoint_solves_the_saddle_system")

MUTANTS = [
    # the regret inequality forced to hold, and its bound widened 10x
    ("regret.py",
     'Check("regret", run.total_cost - opt.total_cost, bound + tol)',
     'Check("regret", run.total_cost - opt.total_cost, np.inf)', [REGRET]),
    ("regret.py", "bound + tol)", "10 * bound + tol)", [REGRET]),
    # the distance bound forced to hold
    ("regret.py", 'Check("distance", run.distances, rhs + tol)',
     'Check("distance", run.distances, np.inf)', [REGRET]),
    # certify-decay's slack widened 10x
    ("cli.py", "theory * (1 + 1e-9)", "theory * (1 + 1e-8)",
     ["tests/test_cli.py::TestCertifications::"
      "test_certify_decay_near_its_slack"]),
    # the pin-miss tolerance of a rollout 1e-6 -> 1e-2
    ("ftocp.py", "tol = 1e-6 * (1.0 + np.linalg.norm(target, axis=-1)",
     "tol = 1e-2 * (1.0 + np.linalg.norm(target, axis=-1)",
     ["tests/test_continuation.py::"
      "test_pin_missed_by_a_multiple_of_the_tolerance"]),
    # a dropped factor in the regret constant c
    ("regret.py", "(1.0 + 2.0 * C3 * L_g ** 2) * (1.0 + C3)",
     "(1.0 + 2.0 * C3 * L_g ** 2)", [REGRET]),
    # the per-step bound's truncation term dropped
    ("regret.py", "rhs[:max(T - k, 0)] += 2.0 * R * weights[k]",
     "rhs[:max(T - k, 0)] += 0.0 * R * weights[k]", [ERROR_BOUND]),
    # the per-step bound's D_xstar dropped
    ("regret.py", "weights = (R / C3 + D_xstar) * tables.gain_state",
     "weights = (R / C3) * tables.gain_state", [ERROR_BOUND]),
    # C3^2 -> C3 in the admission threshold
    ("regret.py", "tables.R / (tables.C3 ** 2 * L_g)",
     "tables.R / (tables.C3 * L_g)", [ADMISSION]),
    # gain_init read off by one offset in the distance bound
    ("regret.py", "np.convolve(tables.gain_init[:T], run.errors)",
     "np.convolve(tables.gain_init[1:T + 1], run.errors)", [REGRET]),
    # aggregate_E's tail dropped
    ("regret.py",
     "return float(acc + (gain_state[k] ** 2 + gain_param[k] ** 2) * T)",
     "return float(acc)", ["tests/test_regret.py::TestAggregateBudget"]),
    # sigma_hi widened
    ("kkt.py", "sigma_hi = math.sqrt(2.0) * (ell + a + b + 1.0)",
     "sigma_hi = 2.0 * math.sqrt(2.0) * (ell + a + b + 1.0)",
     ["tests/test_kkt.py::TestClosedFormConstants"]),
    # admission forced to hold
    ("regret.py", 'Check("admission", rhs, tables.R / (tables.C3 ** 2 * L_g))',
     'Check("admission", rhs, np.inf)', [ADMISSION]),
    # every declared bound forced to hold
    ("model.py", "tol = 1e-9\n", "tol = np.inf\n", [ASSUMPTIONS]),
    # every check forced to hold
    ("model.py", "return bool(np.all(self.lhs <= self.rhs))", "return True",
     [CHECK]),
    # the cost floor with its sides swapped back
    ("model.py", 'Check("cost_lower", bb.mu - tol, eigs.min(initial=np.inf))',
     'Check("cost_lower", eigs.min(initial=np.inf), bb.mu - tol)',
     [ASSUMPTIONS]),
    # a failed check no longer exits 4
    ("cli.py", "sys.exit(EXIT_CERT)", "pass",
     ["tests/test_cli.py::TestCertifications::"
      "test_exit_4_names_the_failed_check"]),
    # the worst index and the margin of a check read the other way
    ("model.py", "np.argmax(self.lhs - self.rhs)",
     "np.argmin(self.lhs - self.rhs)", [CHECK]),
    ("model.py", "np.min(self.rhs - self.lhs)", "np.max(self.rhs - self.lhs)",
     [CHECK]),
    # the block profile's maxima read one offset low
    ("kkt.py", "maxima = np.maximum.reduceat(vals, starts)",
     "maxima = np.roll(np.maximum.reduceat(vals, starts), -1)",
     [PROFILE + "test_block_profile_matches_per_block_norms"]),
    # the matrices no longer rescaled before their Gram, the factor kept
    ("kkt.py", "mats = mats / np.where(top > 0.0, top, 1.0)", "pass",
     [PROFILE + "test_block_profile_matches_recursion_oracle_at_long_horizon"]),
    # the norm kernel's finiteness guard dropped
    ("kkt.py",
     'raise FloatingPointError("non-finite matrix entry in a spectral norm")',
     "pass", [NORMS + "test_non_finite_entry_raises"]),
    # the smallest eigenvalue of the Gram taken instead of the largest
    ("kkt.py", "np.linalg.eigvalsh(gram)[..., -1]",
     "np.linalg.eigvalsh(gram)[..., 0]", [NORMS + "test_matches_svd_norm"]),
    # sigma_min takes the largest singular value instead of the smallest
    ("kkt.py", "np.linalg.svd(R, compute_uv=False).min()",
     "np.linalg.svd(R, compute_uv=False).max()",
     [PROFILE + "test_sigma_matches_dense_svd"]),
    # measured_sigma drops the minimum over the pinned window
    ("kkt.py", "if k is not None and k < sys.T:", "if False:",
     [PROFILE + "test_measured_sigma_matches_dense_svd"]),
    # the first-action adjoint drops its pin correction
    ("ftocp.py", "extra += self.G[..., n + 1:] @ nu[:, None]", "pass",
     [ADJOINT]),
    # the adjoint's kick read at P_0 instead of P_1
    ("ftocp.py", "B0.swapaxes(-1, -2) @ P[:, 1, :n, :n] @ B0",
     "B0.swapaxes(-1, -2) @ P[:, 0, :n, :n] @ B0", [ADJOINT]),
    # the rollout's pin actions no longer move the states
    ("ftocp.py", "shift = shift + _mv(wm.B, v)", "shift = shift",
     ["tests/test_continuation.py::"
      "test_pendulum_pinned_windows_match_oracle"]),
]


# pytest's exit status on a mutant: 1 is a failed test; a collection or
# usage error is no verdict, so it fails the harness
VERDICTS = {0: "SURVIVED", 1: "killed", -1: "killed (timeout)"}


def copy_tree(dest: pathlib.Path) -> None:
    """src/, tests/ and pyproject.toml of the repository, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest(cwd: pathlib.Path, tests: list[str]) -> int:
    """Exit status of pytest on ``tests`` against the package under
    ``cwd/src``; no bytecode is cached, so an edit is always compiled."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=300).returncode
    except subprocess.TimeoutExpired:
        return -1


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    entries = [(i, *MUTANTS[i]) for i in chosen]
    bad = []
    for i, file_name, text, _, _ in entries:
        count = (ROOT / "src" / "mpclab" / file_name).read_text().count(text)
        if count != 1:
            bad.append(f"entry {i}: {text!r} occurs {count}x in {file_name}")
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = pathlib.Path(tmp) / "clean"
        copy_tree(clean)
        env = dict(os.environ, PYTHONPATH=str(clean / "src"))
        where = subprocess.run(
            [sys.executable, "-c", "import mpclab; print(mpclab.__file__)"],
            cwd=clean, env=env, capture_output=True, text=True).stdout
        if not where.startswith(str(clean)):
            print(f"the copy is not the package imported: {where.strip()}")
            return 1
        subsets = sorted({t for entry in entries for t in entry[4]})
        if pytest(clean, subsets) != 0:
            print(f"the unmutated copy fails the subsets: {subsets}")
            return 1
        survived = 0
        for i, file_name, text, replacement, tests in entries:
            start = time.monotonic()
            work = pathlib.Path(tmp) / f"mutant-{i}"
            copy_tree(work)
            path = work / "src" / "mpclab" / file_name
            path.write_text(path.read_text().replace(text, replacement))
            code = pytest(work, tests)
            shutil.rmtree(work)
            status = VERDICTS.get(code, f"ERROR (pytest exit {code})")
            survived += status[0] != "k"
            print(f"{i:2d} {status:<18} {time.monotonic() - start:5.1f}s  "
                  f"{file_name}: {text.strip()!r} -> {replacement.strip()!r}",
                  flush=True)
    print(f"{len(entries) - survived} of {len(entries)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
