"""Measured gain tables (implicit differentiation of each window's saddle
system) versus finite differences of the independent null-space oracle."""

import dataclasses

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
from test_engine import dead_step_system, terminal_bits
from test_presets import reference_step_data

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
        term = (rule.build(inst, t2, ps[-1]) if target is None
                else TerminalCost.indicator(target))
        return oracle_continuation(sys_, ps, term, 0, z, t)[1][0]

    flat = np.concatenate(params)
    J = oracles.fd_jacobian(first_action, flat, step=FD_STEP)
    out = np.array([np.linalg.norm(col, 2)
                    for col in np.split(J, splits, axis=1)])
    term = rule.build(inst, t2, params[-1])
    if with_target and term.kind == "indicator":
        J_tgt = oracles.fd_jacobian(lambda v: first_action(flat, v),
                                    term.target, step=FD_STEP)
        out[-1] = max(out[-1], np.linalg.norm(J_tgt, 2))
    return out


def oracle_states(inst):
    params = [inst.truth[s] for s in range(inst.T + 1)]
    return oracle_continuation(inst.system, params, inst.terminal_cost(), 0,
                               inst.x0)[0]


def window_batch(inst, rule, starts, k):
    """The law of the batch of windows [t, t + k], t in starts, capped as
    ``rule`` caps them."""
    t2 = np.asarray(starts) + k
    return ftocp.continuation_law(
        inst.system, [inst.truth[t:t + k + 1] for t in starts],
        rule.build(inst, t2, inst.truth[t2]), starts)


def law_jacobians(inst, rule, law, t0, zs, with_target=True):
    return kkt._window_action_jacobians(inst, law, t0, np.asarray(zs), rule,
                                        kkt._step_data_slopes(inst),
                                        with_target)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["tracking-rand", "disturbance", "pendulum"]),
       terminal=st.sampled_from(["pinned", "zero-pinned", "quadratic",
                                 "tail"]),
       t=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
       with_target=st.booleans())
def test_window_jacobians_match_oracle(name, terminal, t, seed, with_target):
    T = 12
    k = WINDOW[name]
    inst = presets.build_preset(name, T=T)
    rule = TerminalRule({"pinned": "predicted_tracking", "zero-pinned": "zero",
                         "quadratic": "true", "tail": "zero"}[terminal])
    rng = np.random.default_rng(seed)
    zs = [np.zeros(inst.system.n), rng.normal(size=inst.system.n)]
    if terminal == "tail":
        # the window [t, T] that reaches T, read from the truth law at
        # offset t
        t = T - k + t % k
        t2 = T
        law, t0 = ftocp.truth_law(inst), t
    else:
        # a batch of one window [t, t + k] short of T
        t2 = t + k
        law, t0 = window_batch(inst, rule, [t], k), 0
    got = law_jacobians(inst, rule, law, t0, np.array(zs)[:, None],
                        with_target)[:, 0]
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

    A0, A1, B1, w1, x1 = map(np.array, (mats(n, n), mats(n, n), mats(n, m),
                                        mats(n), mats(n)))
    Q1, R1 = np.array(mats(n, n)), np.array(mats(m, m))
    P1 = 0.3 * rng.normal(size=(n, n))

    def spd(M, s):
        return (np.eye(M.shape[-1])
                + np.asarray(s)[..., None, None] * (M @ M.swapaxes(-1, -2)))

    def step_data(ts, xis):
        a, b = xis[..., 0], xis[..., 1]
        return (A0[ts] + np.sin(a)[..., None, None] * A1[ts],
                np.eye(n) + (a * b)[..., None, None] * B1[ts],
                np.cos(b)[..., None] * w1[ts],
                spd(Q1[ts], a ** 2), spd(R1[ts], 1.0 + b),
                a[..., None] * x1[ts] + b[..., None])

    system = LinearQuadraticSystem(
        n, m, T, step_data=step_data,
        terminal=lambda xi: (spd(P1, np.exp(xi[..., 1])),
                             np.stack([xi[..., 0], xi[..., 0] * xi[..., 1]],
                                      axis=-1)),
        bounds=Bounds(mu=1.0, ell=2.0, a=1.0, b=1.0),
        param_box=ParamBox(np.zeros(2), np.ones(2)))
    truth = [rng.uniform(0.0, 1.0, size=2) for _ in range(T + 1)]
    return Instance(system, truth, rng.normal(size=n))


@pytest.mark.parametrize("name", ["tracking-rand", "disturbance",
                                  "pendulum", "grid"])
def test_batched_step_slopes_match_per_step_reference(name):
    inst, reference, _ = reference_step_data(name, 24, 3)
    got = kkt._step_data_slopes(inst)
    want = oracles.central_slopes(reference, inst.truth)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


def test_stacked_terminal_cost_in_two_parameters():
    # a terminal map that varies in both coordinates broadcasts over a
    # batch of final parameters, row by row as one call per row
    inst = all_maps_instance(9, 0)
    xis = np.random.default_rng(3).uniform(0.0, 1.0, size=(5, 2))
    got = inst.terminal_cost(xis)
    assert got.P.shape == (5, 2, 2) and got.xbar.shape == (5, 2)
    for i, xi in enumerate(xis):
        assert terminal_bits(got[i]) == terminal_bits(inst.terminal_cost(xi))


def test_batched_step_slopes_match_per_step_reference_in_two_parameters():
    # every map varies in both coordinates; the reference is the system's
    # own map called one step at a time
    inst = all_maps_instance(9, 0)
    got = kkt._step_data_slopes(inst)
    want = oracles.central_slopes(inst.system.step_data, inst.truth)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name", ["pendulum", "grid"])
def test_step_slopes_match_oracle_jacobian(name):
    # A and B are rational in the mass, so the slopes are not exact: they
    # match an independent central difference to its truncation error
    inst, reference, _ = reference_step_data(name, 12, 1)
    got = kkt._step_data_slopes(inst)
    for t in range(inst.T):
        want = oracles.fd_jacobian(
            lambda xi: np.concatenate([np.ravel(a) for a in reference(t, xi)]),
            inst.truth[t])
        flat = np.concatenate([a[t].reshape(-1, a.shape[-1]) for a in got])
        assert np.abs(flat - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("t", [0, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_window_jacobians_match_oracle_when_every_map_varies(t, seed):
    # t < 5: the batch of the windows [s, s + 4] for s = t .. min(t + 2, 4),
    # each from its own states; t = 5: the window [5, 9] that reaches T,
    # with the quadratic terminal, read from the truth law at offset 5
    T, k = 9, 4
    inst = all_maps_instance(T, seed)
    rule = TerminalRule("predicted_tracking")
    if t < T - k:
        starts = list(range(t, min(t + 3, T - k)))
        law, t0 = window_batch(inst, rule, starts, k), 0
    else:
        starts = [t]
        law, t0 = ftocp.truth_law(inst), t
    zs = np.random.default_rng(seed).normal(size=(2, len(starts), 2))
    zs[0] = 0.0
    got = law_jacobians(inst, rule, law, t0, zs)
    for i, s in enumerate(starts):
        for j in range(len(zs)):
            want = oracle_window_norms(inst, rule, s, min(s + k, T),
                                       zs[j, i], True)
            assert np.abs(got[j, i] - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("name,k,rule_kind", [
    *(pytest.param(name, k, None, id=name) for name, k in WINDOW.items()),
    # every window reaches T: all are read from the truth law, no batch
    pytest.param("tracking-rand", 10, None, id="k=T"),
    pytest.param("disturbance", 1, None, id="k=1"),
    # full windows with quadratic caps, which are not tail windows
    pytest.param("grid", 3, "true", id="true-rule")])
def test_tables_match_oracle_finite_difference_tables(name, k, rule_kind):
    # the reference is the finite-difference construction of the tables:
    # per window, central differences of the oracle's first action at z = 0
    # and at the hindsight-optimal state (at z = 0 alone for the
    # disturbance family, whose Jacobian does not depend on the state)
    T = 10
    inst = presets.build_preset(name, T=T)
    rule = (cli._DEFAULT_RULE if rule_kind is None
            else TerminalRule(rule_kind))
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
    # the batch of the full windows; the truth law that the tail windows
    # are read from was built once, by the hindsight optimum
    assert len(calls) == 1


@pytest.mark.parametrize("k", [1, 3, 6])
def test_tail_windows_are_the_instances_own(k):
    # under the "true" rule only the tail windows [t, T], read from the
    # instance's truth law, contain the dead step 9
    base = presets.tracking_rand(T=10)
    inst = dataclasses.replace(base, system=dead_step_system(base.system, 9))
    with pytest.raises(ftocp.SingularKKT,
                       match="singular R \\+ B'PB at step 9$"):
        kkt.measure_gain_tables(inst, k, TerminalRule("true"),
                                engine.solve_opt(base).states, R=1.0)


@pytest.mark.parametrize("name,mode,basis", [
    ("disturbance", "measured", "exact"),
    ("tracking-rand", "measured", "local"),
    ("pendulum", "measured", "local"),
    ("grid", "measured", "local")])
def test_constants_artifact_names_the_basis(tmp_path, name, mode, basis):
    # only the disturbance family keeps the parameters out of A and B
    res = CliRunner().invoke(cli.main, [
        "constants", "--preset", name, "--T", "12", "--k", "5",
        "--mode", mode, "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    lines = (tmp_path / "constants.txt").read_text().splitlines()
    assert f"gain_tables = {basis}" in lines


@pytest.mark.parametrize("name", ["tracking-rand", "grid"])
def test_init_state_gains_match_per_start_products(name):
    law = ftocp.truth_law(presets.build_preset(name, T=240))
    n = law.data.n
    want = oracles.init_state_gains(law.closed_loop[0, :, :n, :n],
                                    law.G[0, :, :, :n])
    got = kkt._init_state_jacobians(law)
    assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_failing_window_is_the_earliest():
    # the window [0, 1] misses its pin; the window [1, 2] cannot be built
    # (its pin's nu-block is singular), which a batch meets first
    inst = presets.tracking_rand(T=6, seed=0)
    opt = engine.solve_opt(inst)
    with pytest.raises(ftocp.SingularKKT) as ei:
        kkt.measure_gain_tables(inst, 1, TerminalRule("predicted_tracking"),
                                opt.states, R=max(opt.max_state_norm, 1.0))
    assert str(ei.value) == ("pinned terminal unreachable from step 0: the "
                             "rollout misses it by 0.0367")


def test_rollout_failure_names_the_earliest_window():
    # windows of one step pin two states through one action: the pin is
    # met only from the state z*_i = -A_i^{-1} w_i of window i, where no
    # action is needed, and missed from any other state
    inst = presets.tracking_rand(T=8, seed=0)
    starts = np.arange(3)
    law = ftocp.continuation_law(
        inst.system, [inst.truth[t:t + 2] for t in starts],
        TerminalCost.indicator(np.zeros((3, 2))), starts)
    A, _, w, *_ = inst.system.step_data(starts, inst.truth[starts])
    meets = np.linalg.solve(A, -w[..., None])[..., 0]
    # sample j misses the pins of the windows misses[j]
    misses = [[], [2], [1, 2], [1]]
    zs = np.array([meets] * len(misses))
    for j, windows in enumerate(misses):
        zs[j, windows] += 0.1 * (j + 1)

    def failure(xs):
        with pytest.raises(ftocp.SingularKKT) as ei:
            law.trajectories(0, xs)
        return ei.value

    law.trajectories(0, zs[0])
    # window 1 misses first at sample 2, by another amount at sample 3
    first, later, batch = failure(zs[2]), failure(zs[3]), failure(zs)
    assert first.window == later.window == batch.window == 1
    assert str(batch) == str(first) != str(later)
