"""Measured gain tables (implicit differentiation of each window's saddle
system) versus finite differences of the independent null-space oracle."""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracles
from mpclab import cli, engine, ftocp, kkt, presets
from mpclab.engine import TerminalRule
from mpclab.model import (Bounds, Instance, LinearQuadraticSystem, ParamBox,
                          TerminalCost)
from test_continuation import oracle_continuation

# The oracle's null-space solve of a nearly unreachable pendulum pin loses
# about eight digits, so its central differences take a step where that
# rounding noise stays below the truncation error.
FD_STEP = 1e-4

# window length per preset: the pendulum (4 states, 1 action) needs at
# least 4 steps to reach a pin
WINDOW = {"tracking-rand": 4, "disturbance": 4, "pendulum": 5, "grid": 3}


def oracle_window_norms(inst, rule, t, t2, z, with_target):
    """Spectral norms by offset of the oracle's first-action Jacobian with
    respect to the window parameters (the last one through the terminal
    rule), the pin's target column folded into the last offset."""
    sys_ = inst.system
    params = [inst.truth[s] for s in range(t, t2 + 1)]
    splits = np.cumsum([p.shape[0] for p in params])[:-1]

    def first_action(flat, target=None):
        ps = np.split(flat, splits)
        term = (rule.build(inst, t, t2, ps) if target is None
                else TerminalCost.indicator(target))
        return oracle_continuation(sys_, ps, term, 0, z, t)[1][0]

    flat = np.concatenate(params)
    J = oracles.fd_jacobian(first_action, flat, step=FD_STEP)
    out = np.array([np.linalg.norm(col, 2)
                    for col in np.split(J, splits, axis=1)])
    term = rule.build(inst, t, t2, params)
    if with_target and term.kind == "indicator":
        J_tgt = oracles.fd_jacobian(lambda v: first_action(flat, v),
                                    term.target, step=FD_STEP)
        out[-1] = max(out[-1], np.linalg.norm(J_tgt, 2))
    return out


def oracle_states(inst):
    params = [inst.truth[s] for s in range(inst.T + 1)]
    return oracle_continuation(inst.system, params, inst.terminal_cost(), 0,
                               inst.x0)[0]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["tracking-rand", "disturbance", "pendulum"]),
       terminal=st.sampled_from(["pinned", "zero-pinned", "quadratic"]),
       t=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
       with_target=st.booleans())
def test_window_jacobians_match_oracle(name, terminal, t, seed, with_target):
    T = 12
    k = WINDOW[name]
    inst = presets.build_preset(name, T=T)
    rule = TerminalRule("zero" if terminal == "zero-pinned"
                        else "predicted_tracking")
    # the quadratic terminal is the instance's own, on the window reaching T
    t = T - k if terminal == "quadratic" else t
    t2 = t + k
    rng = np.random.default_rng(seed)
    zs = [np.zeros(inst.system.n), rng.normal(size=inst.system.n)]
    got = kkt._window_action_jacobians(inst, t, t2, zs, rule,
                                       kkt._step_data_slopes(inst),
                                       with_target)
    for row, z in zip(got, zs):
        want = oracle_window_norms(inst, rule, t, t2, z, with_target)
        assert np.abs(row - want).max() <= 1e-6 * np.abs(want).max()


def all_maps_instance(T, seed):
    """Two-dimensional parameters that enter every map nonlinearly,
    including Q, R and the quadratic terminal, which no preset varies."""
    rng = np.random.default_rng(seed)
    n, m = 2, 2

    def mats(*shape):
        return [0.3 * rng.normal(size=shape) for _ in range(T)]

    A0, A1, B1, w1, x1 = mats(n, n), mats(n, n), mats(n, m), mats(n), mats(n)
    Q1, R1 = mats(n, n), mats(m, m)
    P1 = 0.3 * rng.normal(size=(n, n))

    def spd(M, s):
        return np.eye(M.shape[0]) + s * (M @ M.T)

    system = LinearQuadraticSystem(
        n, m, T,
        A=lambda t, xi: A0[t] + np.sin(xi[0]) * A1[t],
        B=lambda t, xi: np.eye(n) + xi[0] * xi[1] * B1[t],
        w=lambda t, xi: np.cos(xi[1]) * w1[t],
        Q=lambda t, xi: spd(Q1[t], xi[0] ** 2),
        R=lambda t, xi: spd(R1[t], 1.0 + xi[1]),
        xbar=lambda t, xi: xi[0] * x1[t] + xi[1],
        P_T=lambda xi: spd(P1, np.exp(xi[1])),
        xbar_T=lambda xi: np.array([xi[0], xi[0] * xi[1]]),
        bounds=Bounds(mu=1.0, ell=2.0, a=1.0, b=1.0),
        param_box=ParamBox(np.zeros(2), np.ones(2)))
    truth = [rng.uniform(0.0, 1.0, size=2) for _ in range(T + 1)]
    return Instance(system, truth, rng.normal(size=n))


@pytest.mark.parametrize("t", [0, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_window_jacobians_match_oracle_when_every_map_varies(t, seed):
    # t = 5 is the window reaching T, with the quadratic terminal
    T, k = 9, 4
    inst = all_maps_instance(T, seed)
    rule = TerminalRule("predicted_tracking")
    t2 = min(t + k, T)
    zs = [np.zeros(2), np.array([0.7, -0.4])]
    got = kkt._window_action_jacobians(inst, t, t2, zs, rule,
                                       kkt._step_data_slopes(inst))
    for row, z in zip(got, zs):
        want = oracle_window_norms(inst, rule, t, t2, z, True)
        assert np.abs(row - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("name", ["tracking-rand", "disturbance", "pendulum",
                                  "grid"])
def test_tables_match_oracle_finite_difference_tables(name):
    # the reference is the finite-difference construction of the tables:
    # per window, central differences of the oracle's first action at z = 0
    # and at the hindsight-optimal state (at z = 0 alone for the
    # disturbance family, whose Jacobian does not depend on the state)
    T = 10
    k = WINDOW[name]
    inst = presets.build_preset(name, T=T)
    rule = cli._default_rule(inst)
    opt_states = oracle_states(inst)
    gp, gs = np.zeros(k + 1), np.zeros(k + 1)
    for t in range(T):
        t2 = min(t + k, T)
        zs = [np.zeros(inst.system.n)]
        if name != "disturbance":
            zs.append(opt_states[t])
        rows = [oracle_window_norms(inst, rule, t, t2, z, True) for z in zs]
        width = t2 - t + 1
        gp[:width] = np.maximum(gp[:width], rows[0])
        for z, row in zip(zs[1:], rows[1:]):
            gs[:width] = np.maximum(gs[:width], np.maximum(0.0, row - rows[0])
                                    / np.linalg.norm(z))
    gp = np.maximum.accumulate(gp[::-1])[::-1]
    gs = np.maximum.accumulate(gs[::-1])[::-1]
    tables = kkt.measure_gain_tables(inst, k, rule, opt_states, R=1.0)
    assert np.abs(tables.gain_param - gp).max() <= 1e-6 * gp.max()
    assert np.abs(tables.gain_state - gs).max() <= 1e-6 * gs.max()


def test_one_law_per_window(monkeypatch):
    calls = []
    build = ftocp.continuation_law

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(ftocp, "continuation_law", counted)
    inst = presets.tracking_rand(T=24)
    opt = engine.solve_opt(inst)
    calls.clear()
    kkt.measure_gain_tables(inst, 8, TerminalRule("predicted_tracking"),
                            opt.states, R=max(opt.max_state_norm, 1.0))
    assert len(calls) <= inst.T + 1   # one per window, plus the truth law


@pytest.mark.parametrize("name,mode,basis", [
    ("disturbance", "measured", "exact"),
    ("tracking-rand", "measured", "local"),
    ("pendulum", "measured", "local"),
    ("grid", "measured", "local"),
    ("tracking-rand", "theory", "theory")])
def test_constants_artifact_names_the_basis(tmp_path, name, mode, basis):
    # only the disturbance family keeps the parameters out of A and B
    res = CliRunner().invoke(cli.main, [
        "constants", "--preset", name, "--T", "12", "--k", "5",
        "--mode", mode, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "constants.txt").read_text().splitlines()
    assert f"gain_tables = {basis}" in lines
