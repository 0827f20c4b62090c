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
QUADRATIC = ("tests/test_ftocp.py::TestQuadraticSolver::"
             "test_quadratic_terminal_matches_oracle")
CHAIN_MEMO = ("tests/test_ftocp.py::TestChainSolver::"
              "test_memo_keys_windows_by_pin_and_solutions_by_start")
CAP = "tests/test_engine.py::TestTerminalRule::"
ADJOINT = ("tests/test_continuation.py::"
           "test_first_action_adjoint_solves_the_saddle_system")
EXIT_CODES = "tests/test_cli.py::TestConfigErrors::"
EXACT = ("tests/test_continuation.py::"
         "test_committed_actions_match_the_exact_oracle")
FIRST_ACTION = ("tests/test_continuation.py::"
                "test_pinned_first_action_is_the_first_of_the_rollout")
PIN_MAP = ("tests/test_continuation.py::"
           "test_pin_map_cancels_its_miss_to_rounding")

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
    ("ftocp.py", "tol = 1e-6 * (1.0 + _row_norms(target)",
     "tol = 1e-2 * (1.0 + _row_norms(target)",
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
    # the smallest eigenvalue of the Gram taken instead of the largest, by
    # eigvalsh for Grams of more than two rows and in the closed form of
    # the others
    ("kkt.py", "np.linalg.eigvalsh(gram)[..., -1]",
     "np.linalg.eigvalsh(gram)[..., 0]", [NORMS + "test_matches_svd_norm"]),
    ("kkt.py", "+ np.hypot(0.5 * (a - c), b)", "- np.hypot(0.5 * (a - c), b)",
     [NORMS + "test_matches_svd_norm"]),
    # sigma_min's QR route takes the largest singular value instead of the
    # smallest (pendulum's and grid's windows take that route)
    ("kkt.py", "np.linalg.svd(R, compute_uv=False).min()",
     "np.linalg.svd(R, compute_uv=False).max()",
     [PROFILE + "test_measured_sigma_matches_dense_svd"]),
    # sigma_min's Gram route takes the largest eigenvalue
    ("kkt.py", "return math.sqrt(lam[0])", "return math.sqrt(lam[-1])",
     [PROFILE + "test_sigma_matches_dense_svd"]),
    # sigma_min always takes the Gram route, however ill-conditioned N is
    ("kkt.py",
     "if lam[0] > 0.0 and lam[-1] <= (20.0 * c / r) ** 2 * lam[0]:",
     "if True:", [PROFILE + "test_measured_sigma_matches_dense_svd"]),
    # measured_sigma drops the minimum over the pinned window
    ("kkt.py", "if k is not None and k < sys.T:", "if False:",
     [PROFILE + "test_measured_sigma_matches_dense_svd"]),
    # the first-action adjoint drops its pin correction
    ("ftocp.py", "extra += self.G[..., n + 1:] @ nu[:, None]", "pass",
     [ADJOINT]),
    # the pin multiplier's refinement step dropped, in the adjoint and the
    # rollout alike
    ("ftocp.py", "return nu - S_inv @ miss", "return nu", [ADJOINT]),
    # the adjoint's kick read at P_0 instead of P_1
    ("ftocp.py", "B0.swapaxes(-1, -2) @ P[:, 1, :n, :n] @ B0",
     "B0.swapaxes(-1, -2) @ P[:, 0, :n, :n] @ B0", [ADJOINT]),
    # the pin's multiplier map built without its refinement, or from the
    # rows of P at offset 1, and kept for the pendulum's ill-conditioned pins
    ("ftocp.py", "N = _pin_solve(S_inv, PB, G, P0[:, n + 1:, :n + 1])",
     "N = -S_inv @ P0[:, n + 1:, :n + 1]", [PIN_MAP]),
    ("ftocp.py", "N, unmapped = _nu_map(S_inv, PB, G, P[:, 0])",
     "N, unmapped = _nu_map(S_inv, PB, G, P[:, 1])", [PIN_MAP, FIRST_ACTION]),
    ("ftocp.py", "PIN_TERMS_MAX = 10.0", "PIN_TERMS_MAX = 1e6", [EXACT]),
    # the rollout's pin actions no longer move the states
    ("ftocp.py", "shift = shift + _mv(wm.B, v)", "shift = shift",
     ["tests/test_continuation.py::"
      "test_pendulum_pinned_windows_match_oracle"]),
    # the rollout's shift c_t = w_t + B_t k_t drops w_t
    ("ftocp.py", "shift = wm.w + _mv(wm.B, self.G[..., n])",
     "shift = _mv(wm.B, self.G[..., n])", [QUADRATIC]),
    # a chain window keyed without its pin, and a chain solution without
    # its start state: one system's laws then read another window's
    # pieces, or another start's solution
    ("ftocp.py", 'struct.pack(f"{len(targets) + 1}d", *targets, pin)',
     'struct.pack(f"{len(targets)}d", *targets)', [CHAIN_MEMO]),
    ("ftocp.py", 'key = struct.pack("d", z)', 'key = b""', [CHAIN_MEMO]),
    # a NaN residual or deviation dropped by a Python max: the run's worst
    # KKT residual, and the inventory suite's worst deviation
    ("ftocp.py", "worst = float(np.max(np.concatenate([[0.0], *residuals])))",
     "worst = max([0.0] + [float(r.max()) for r in residuals])",
     ["tests/test_engine.py::TestRunFailures::"
      "test_non_finite_residual_raises"]),
    ("cli.py", """worst = float(np.max([[abs(r.diff_minus_eps), r.closed_form_err]
                          for r in rows]))""",
     "worst = max(max(abs(r.diff_minus_eps), r.closed_form_err) "
     "for r in rows)",
     ["tests/test_cli.py::TestCertifications::"
      "test_inventory_suite_non_finite_deviation_exits_3"]),
    # a window short of T pinned to the origin instead of its forecast
    # reference point (the same pin on disturbance, pendulum and grid)
    ("engine.py", "return TerminalCost.indicator(sys.pin_target(t2, xi))",
     "return TerminalCost.indicator(np.zeros(t2.shape + (sys.n,)))",
     [CAP + "test_predicted_tracking_pins_forecast_reference"]),
    # windows that reach T pinned instead of given the instance's terminal
    ("engine.py", "        return instance.terminal_cost(xi)\n",
     "        return TerminalCost.indicator(sys.pin_target(t2, xi))\n",
     [CAP + "test_final_window_uses_instance_terminal",
      "tests/test_engine.py::TestRunMpc::"
      "test_full_window_zero_noise_recovers_optimum"]),
    # the closed loop Phi_t = A_t + B_t K_t drops its feedback
    ("ftocp.py", "_read_only(self.data.A + self.data.B @ self.feedback)",
     "_read_only(self.data.A + 0.0)", [QUADRATIC]),
    # the exit-code contract of every command: a bool taken for a count,
    # and a number beyond the float range left to overflow
    ("model.py", "isinstance(value, bool) or not", "not",
     [EXIT_CODES + "test_count_that_is_not_an_integer_exits_2",
      "tests/test_cli.py::"
      "test_every_instance_file_exits_with_a_documented_code"]),
    ("cli.py", "ZeroDivisionError, OverflowError)", "ZeroDivisionError)",
     [EXIT_CODES + "test_number_beyond_the_float_range_exits_2"]),
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
