"""The one verdict record, ``model.Check``, and its five sites: each site's
check decides as the expression it replaced, kept inline here as the
reference, on every preset the site runs on."""

import dataclasses
import functools

import numpy as np
import pytest
from click.testing import CliRunner

from mpclab import cli, engine, kkt, presets, regret
from mpclab.model import Check, PredictionStream, validate_assumptions
from test_model import const_system

LQ_PRESETS = ["tracking-rand", "disturbance", "pendulum", "grid"]


class TestCheck:
    def test_nan_fails(self):
        assert not Check("x", [0.0, np.nan], 1.0).ok
        assert not Check("x", 0.0, np.nan).ok
        assert Check("x", [0.0, 1.0], 1.0).ok

    def test_scalar_rhs_broadcasts(self):
        check = Check("x", [1, 2, 3], 2.5)
        assert check.rhs.shape == check.lhs.shape == (3,)
        assert check.rhs.tolist() == [2.5, 2.5, 2.5]
        assert check.lhs.dtype == check.rhs.dtype == np.float64
        assert Check("x", 1.0, 2.0).lhs.shape == ()

    def test_arrays_are_read_only_copies(self):
        lhs = np.array([1.0, 2.0])
        check = Check("x", lhs, np.array([3.0, 3.0]))
        for side in (check.lhs, check.rhs):
            assert not side.flags.writeable
            with pytest.raises(ValueError):
                side[0] = 0.0
        lhs[0] = 5.0    # the caller's array is not the check's
        assert check.lhs.tolist() == [1.0, 2.0] and check.ok
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.name = "y"

    def test_worst_and_margin(self):
        # lhs - rhs = (-1, 1, -2, 1, 0.5): the first largest excess is at
        # flat index 1, and the least rhs - lhs is -1
        check = Check("x", [[1.0, 5.0, 2.0], [5.0, 3.5, 0.0]],
                      [[2.0, 4.0, 4.0], [4.0, 3.0, 9.0]])
        assert not check.ok
        assert (check.worst, check.margin) == (1, -1.0)
        held = Check("x", [1.0, 2.0, 0.5], 3.0)
        assert held.ok and (held.worst, held.margin) == (1, 1.0)

    def test_lower_bound_with_its_sides_swapped(self):
        # x >= 1.5 is Check(lo, x): it fails at x = 1, the flat index 1
        check = Check("floor", 1.5, [3.0, 1.0, 2.0])
        assert not check.ok
        assert (check.worst, check.margin) == (1, -0.5)
        assert Check("floor", 1.5, [3.0, 1.5, 2.0]).ok


# ---------------------------------------------------------------------------
# each site decides as the expression it replaced
# ---------------------------------------------------------------------------

def rows_of(path):
    """The data rows of a CSV artifact as floats (header lines dropped)."""
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


@pytest.mark.parametrize("name", LQ_PRESETS)
def test_certify_decay_verdict_unchanged(tmp_path, name):
    res = CliRunner().invoke(cli.main, ["certify-decay", "--preset", name,
                                        "--T", "40", "--out", str(tmp_path)])
    _, maxima, theory = rows_of(tmp_path / "decay_profile.csv").T
    ok = bool(np.all(maxima <= theory * (1 + 1e-9)))
    assert res.exit_code == (0 if ok else 4), res.output
    assert res.stdout.startswith(f"dominated={ok} ")
    assert ("check failed: decay_envelope" in res.stderr) == (not ok)
    # pendulum and grid fail at T = 40 (ROADMAP item 1)
    assert ok == (name in ("tracking-rand", "disturbance"))


@pytest.mark.parametrize("ps,eps,holds", [
    ((4, 5, 6, 7, 8), None, True), ((4,), 2 / 35, True),
    # a pin outside what the chain reaches is clipped
    ((2,), 1.0, False), ((3, 5), 0.5, False)])
def test_inventory_suite_verdict_unchanged(tmp_path, ps, eps, holds):
    args = [a for p in ps for a in ("--p", str(p))]
    if eps is not None:
        args += ["--eps", repr(eps)]
    res = CliRunner().invoke(cli.main, ["inventory-suite", *args,
                                        "--out", str(tmp_path)])
    rows = presets.inventory_counterexample_suite(ps, eps)
    worst = max(max(abs(r.diff_minus_eps), r.closed_form_err) for r in rows)
    ok = worst <= 1e-6
    assert res.exit_code == (0 if ok else 4), res.output
    assert res.stdout == f"worst_deviation={worst:.3g}\n"
    assert ok == holds


@functools.cache
def noisy_run(name):
    """A noisy closed-loop run of a preset at T = 16, k = 4, with its
    hindsight optimum, gain tables and forecast stream."""
    inst = presets.build_preset(name, T=16)
    stream = PredictionStream(inst.truth, 4, 0.05, seed=inst.seed)
    tables = kkt.measure_gain_tables(inst, 4)
    run = engine.run_mpc(inst, stream, 4)
    return inst, stream, tables, run, engine.solve_opt(inst)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("name", LQ_PRESETS)
def test_regret_verdicts_unchanged(name, scale):
    inst, _, tables, run, opt = noisy_run(name)
    ell = scale * inst.system.bounds.ell
    L_g = scale * inst.system.lipschitz_dynamics()
    reg, dist = regret.regret_inequalities(run, opt, ell, L_g, tables)
    # the RegretReport's regret_ok and distance_ok
    C3, tol, T = tables.C3, 1e-9, run.T
    ssq = run.sum_sq_errors
    c = (ell / 2.0) * (1.0 + 2.0 * C3 * L_g ** 2) * (1.0 + C3)
    bound = float(np.sqrt(c * max(opt.total_cost, 0.0) * ssq) + c * ssq)
    rhs = np.zeros(T + 1)
    rhs[1:] = L_g * np.convolve(tables.gain_init[:T], run.errors)[:T]
    regret_ok = bool(run.total_cost - opt.total_cost <= bound + tol)
    distance_ok = bool(np.all(run.distances <= rhs + tol))
    assert (reg.ok, dist.ok) == (regret_ok, distance_ok)
    if scale == 1.0:
        assert reg.ok and dist.ok
    if scale == 1e-6:
        assert not reg.ok and not dist.ok


@pytest.mark.parametrize("name", LQ_PRESETS)
def test_admission_verdict_unchanged(name):
    inst, stream, tables, _, opt = noisy_run(name)
    rhs = regret.per_step_error_bound_rhs(stream.rho_table, tables,
                                          opt.max_state_norm)
    # the preset's L_g, the L_g at which the threshold R / (C3^2 L_g)
    # meets the largest rhs, and 1e-12 relative either side of it
    meet = tables.R / (tables.C3 ** 2 * float(rhs.max()))
    outcomes = set()
    for L_g in (inst.system.lipschitz_dynamics(), meet * (1 - 1e-12), meet,
                meet * (1 + 1e-12)):
        # the AdmissionReport's ok
        threshold = tables.R / (tables.C3 ** 2 * L_g)
        worst_t = int(np.argmax(rhs))
        ok = float(rhs[worst_t]) <= threshold
        check = regret.pipeline_admission_check(rhs, tables, L_g)
        assert check.ok == ok, L_g
        outcomes.add(ok)
    assert outcomes == {True, False}


def old_assumption_verdicts(system, ts, xis):
    """The dict report of validate_assumptions before the Check record:
    each bound's pass flag, the cost floor compared the other way."""
    ts, xis = np.asarray(ts), np.asarray(xis, float)
    bb, stage = system.bounds, ts < system.T
    A, B, w, Q, R, xbar = system.step_data(ts[stage], xis[stage])
    eigs = np.concatenate([np.linalg.eigvalsh(Mx).ravel() for Mx in
                           (Q, R, system.terminal_cost(xis[~stage]).P)])

    def largest(norms):
        return float(norms.max(initial=0.0))

    checks = {
        "cost_lower": (float(eigs.min(initial=np.inf)), bb.mu),
        "cost_upper": (float(eigs.max(initial=-np.inf)), bb.ell),
        "A_bound": (largest(np.linalg.norm(A, 2, axis=(-2, -1))), bb.a),
        "B_bound": (largest(np.linalg.norm(B, 2, axis=(-2, -1))), bb.b),
        "w_bound": (largest(np.linalg.norm(w, axis=-1)), bb.D_w),
        "xbar_bound": (largest(np.linalg.norm(xbar, axis=-1)), bb.D_xbar),
    }
    tol, report = 1e-9, {}
    for name, (v, lim) in checks.items():
        ok = v >= lim - tol if name == "cost_lower" else v <= lim + tol
        report[name] = bool(ok)
    return report


@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize("name", LQ_PRESETS)
def test_assumption_verdicts_unchanged(name, noise):
    # a run's true parameters and its forecasts, which leave the box at
    # noise 0.2 on some presets
    inst = presets.build_preset(name, T=30)
    T, k = inst.T, 6
    stream = PredictionStream(inst.truth, k, noise, seed=inst.seed)
    steps = np.add.outer(np.arange(T + 1), np.arange(k + 1))
    made = steps <= T
    ts, xis = steps[made], stream.forecasts[made]
    got = {c.name: c.ok for c in validate_assumptions(inst.system, ts, xis)}
    assert got == old_assumption_verdicts(inst.system, ts, xis)


@pytest.mark.parametrize("q,p", [(1.0, 1.0), (1.0 - 2e-9, 1.0),
                                 (1.0 - 5e-10, 1.0), (3.0, 1.0), (1.0, 0.5)])
def test_assumption_verdicts_unchanged_at_the_cost_bounds(q, p):
    # Q or P_T at and near the declared floor mu = 1 and over the ceiling
    sys_ = const_system(q=q, p=p)
    ts, xis = np.arange(5), np.full((5, 1), 0.5)
    got = {c.name: c.ok for c in validate_assumptions(sys_, ts, xis)}
    want = old_assumption_verdicts(sys_, ts, xis)
    assert got == want
    assert want["cost_lower"] == (min(q, p) >= 1.0 - 1e-9)
