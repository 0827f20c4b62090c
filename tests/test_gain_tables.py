"""Measured gain tables (implicit differentiation of each window's saddle
system) versus finite differences of the independent null-space oracle."""

import dataclasses
import functools

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracles
from mpclab import cli, engine, ftocp, kkt, presets
from mpclab.model import (Bounds, Instance, LinearQuadraticSystem, ModelError,
                          ParamBox, TerminalCost)
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


def oracle_window_norms(inst, t, t2, z, cap=None):
    """Spectral norms by offset of the oracle's first-action Jacobian with
    respect to the window parameters (the last one through the cap
    ``cap(t2, xi)``, by default ``engine.window_terminal``), the pin's
    target column folded into the last offset."""
    sys_ = inst.system
    cap = cap or functools.partial(engine.window_terminal, inst)
    params = [inst.truth[s] for s in range(t, t2 + 1)]
    splits = np.cumsum([p.shape[0] for p in params])[:-1]

    def first_action(flat, target=None):
        ps = np.split(flat, splits)
        term = (cap(t2, ps[-1]) if target is None
                else TerminalCost.indicator(target))
        return oracle_continuation(sys_, ps, term, 0, z, t)[1][0]

    flat = np.concatenate(params)
    J = oracles.fd_jacobian(first_action, flat, step=FD_STEP)
    out = np.array([np.linalg.norm(col, 2)
                    for col in np.split(J, splits, axis=1)])
    term = cap(t2, params[-1])
    if term.kind == "indicator":
        J_tgt = oracles.fd_jacobian(lambda v: first_action(flat, v),
                                    term.target, step=FD_STEP)
        out[-1] = max(out[-1], np.linalg.norm(J_tgt, 2))
    return out


def oracle_states(inst):
    params = [inst.truth[s] for s in range(inst.T + 1)]
    return oracle_continuation(inst.system, params, inst.terminal_cost(), 0,
                               inst.x0)[0]


def window_batch(inst, starts, k, cap=None):
    """The law of the batch of windows [t, t + k], t in starts, capped by
    ``cap(t2, xi)``, by default ``engine.window_terminal``."""
    cap = cap or functools.partial(engine.window_terminal, inst)
    t2 = np.asarray(starts) + k
    return ftocp.continuation_law(
        inst.system, [inst.truth[t:t + k + 1] for t in starts],
        cap(t2, inst.truth[t2]), starts)


def law_jacobians(inst, law, zs, cap=None):
    """``kkt._window_action_jacobians`` of a law, with the slopes of its
    caps ``cap(t2, xi)``, by default ``engine.window_terminal``'s."""
    t2 = law.t1 + law.T
    slopes = (kkt._terminal_slopes(inst, t2) if cap is None else
              kkt._central_slopes(lambda xi: kkt._terminal_data(cap(t2, xi)),
                                  inst.truth[t2]))
    return kkt._window_action_jacobians(
        law, np.asarray(zs), kkt._step_data_slopes(inst), slopes)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["tracking-rand", "disturbance", "pendulum"]),
       terminal=st.sampled_from(["pinned", "zero-pinned", "quadratic",
                                 "tail"]),
       t=st.integers(0, 6), seed=st.integers(0, 2 ** 16))
def test_window_jacobians_match_oracle(name, terminal, t, seed):
    # "pinned" and "tail" windows are capped as every command caps them;
    # "zero-pinned" and "quadratic" windows short of T are pinned to the
    # origin or take the instance's own terminal cost
    T = 12
    k = WINDOW[name]
    inst = presets.build_preset(name, T=T)
    n = inst.system.n
    cap = {"zero-pinned": lambda t2, xi: TerminalCost.indicator(
               np.zeros(np.shape(t2) + (n,))),
           "quadratic": lambda t2, xi: inst.terminal_cost(xi)}.get(terminal)
    rng = np.random.default_rng(seed)
    zs = [np.zeros(n), rng.normal(size=n)]
    if terminal == "tail":
        # the window [t, T] that reaches T, the suffix of the truth law
        t = T - k + t % k
        t2 = T
        law = ftocp.truth_law(inst).suffix(t)
    else:
        # a batch of one window [t, t + k] short of T
        t2 = t + k
        law = window_batch(inst, [t], k, cap)
    got = law_jacobians(inst, law, np.array(zs)[:, None], cap)[:, 0]
    for row, z in zip(got, zs):
        want = oracle_window_norms(inst, t, t2, z, cap)
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
    # with the quadratic terminal, the suffix of the truth law from 5
    T, k = 9, 4
    inst = all_maps_instance(T, seed)
    if t < T - k:
        starts = list(range(t, min(t + 3, T - k)))
        law = window_batch(inst, starts, k)
    else:
        starts = [t]
        law = ftocp.truth_law(inst).suffix(t)
    zs = np.random.default_rng(seed).normal(size=(2, len(starts), 2))
    zs[0] = 0.0
    got = law_jacobians(inst, law, zs)
    for i, s in enumerate(starts):
        for j in range(len(zs)):
            want = oracle_window_norms(inst, s, min(s + k, T), zs[j, i])
            assert np.abs(got[j, i] - want).max() <= 1e-6 * np.abs(want).max()


@pytest.mark.parametrize("name,k", [
    *(pytest.param(name, k, id=name) for name, k in WINDOW.items()),
    # every window reaches T: all are read from the truth law, no batch
    pytest.param("tracking-rand", 10, id="k=T"),
    pytest.param("disturbance", 1, id="k=1")])
def test_tables_match_oracle_finite_difference_tables(name, k):
    # the reference is the finite-difference construction of the tables:
    # per window, central differences of the oracle's first action at z = 0
    # and at the hindsight-optimal state (at z = 0 alone for the
    # disturbance family, whose Jacobian does not depend on the state)
    T = 10
    inst = presets.build_preset(name, T=T)
    opt_states = oracle_states(inst)
    gp, gs = np.zeros(k + 1), np.zeros(k + 1)
    for t in range(T):
        t2 = min(t + k, T)
        zs = [np.zeros(inst.system.n)]
        if name != "disturbance":
            zs.append(opt_states[t])
        rows = [oracle_window_norms(inst, t, t2, z) for z in zs]
        width = t2 - t + 1
        gp[:width] = np.maximum(gp[:width], rows[0])
        for z, row in zip(zs[1:], rows[1:]):
            gs[:width] = np.maximum(gs[:width], np.maximum(0.0, row - rows[0])
                                    / np.linalg.norm(z))
    gp = np.maximum.accumulate(gp[::-1])[::-1]
    gs = np.maximum.accumulate(gs[::-1])[::-1]
    tables = kkt.measure_gain_tables(inst, k)
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
    engine.solve_opt(inst)
    calls.clear()
    kkt.measure_gain_tables(inst, 8)
    # the batch of the full windows; the truth law that the tail windows
    # are read from was built once, by the hindsight optimum
    assert len(calls) == 1


def test_one_terminal_slope_per_law_group(monkeypatch, tmp_path):
    # the batch of full windows builds its terminals once and
    # differentiates them once; the tail windows, which all end at T on
    # the true parameter, share one more difference (p = 1: two builds each)
    calls = []
    build = engine.window_terminal

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(engine, "window_terminal", counted)
    res = CliRunner().invoke(cli.main, [
        "constants", "--preset", "tracking-rand", "--T", "24", "--k", "8",
        "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert len(calls) <= 5


@pytest.mark.parametrize("measure", [
    engine.solve_opt,
    lambda inst: kkt.measure_gain_tables(inst, 4)],
    ids=["solve_opt", "measure_gain_tables"])
def test_non_finite_hindsight_optimum_is_a_solver_failure(measure):
    # the unstable mode x_0 = 10^t is uncontrolled and costs nothing, so the
    # optimum lets it overflow (10^309) while the gains stay finite
    T = 400
    system = LinearQuadraticSystem(
        2, 1, T,
        step_data=lambda ts, xis: (np.diag([10.0, 0.5]),
                                   np.array([[0.0], [1.0]]), np.zeros(2),
                                   np.diag([0.0, 1.0]), np.eye(1),
                                   np.zeros(2)),
        terminal=lambda xi: (np.zeros((2, 2)), np.zeros(2)),
        bounds=Bounds(mu=1.0, ell=1.0, a=10.0, b=1.0),
        param_box=ParamBox(np.zeros(1), np.ones(1)))
    inst = Instance(system, np.zeros((T + 1, 1)), np.array([1.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match="^hindsight state not finite at step 309$"):
            measure(inst)


def test_state_samples_off_a_zero_optimum_follow_the_instance_seed():
    # with every parameter at 0.5 the disturbance and the reference vanish,
    # so from x0 = 0 the optimum is x* = 0 and every window's state sample
    # is a random step of length R = 1, drawn from the instance's seed
    base = presets.tracking_rand(T=12, seed=4)
    inst = dataclasses.replace(base, truth=np.full((13, 1), 0.5),
                               x0=np.zeros(2))
    assert np.all(engine.solve_opt(inst).states == 0.0)
    tables = kkt.measure_gain_tables(inst, 3)
    assert tables.R == 1.0
    assert np.all(np.isfinite(tables.gain_state))
    assert tables.gain_state[0] > 0.0
    again = kkt.measure_gain_tables(dataclasses.replace(inst), 3)
    assert again.gain_state.tobytes() == tables.gain_state.tobytes()
    other = kkt.measure_gain_tables(dataclasses.replace(inst, seed=5), 3)
    assert other.gain_state.tobytes() != tables.gain_state.tobytes()


@pytest.mark.parametrize("R", [0.0, -1.0, np.nan, np.inf])
def test_state_radius_must_be_finite_and_positive(R):
    tables = kkt.measure_gain_tables(presets.tracking_rand(T=8), 3)
    with pytest.raises(ValueError, match="need a finite R > 0"):
        dataclasses.replace(tables, R=R)


def test_tables_are_read_only():
    # a table changed after its checks could admit a run on a zero bound;
    # the arrays are copies, so the caller's own arrays stay writable
    gain_init = np.ones(4)
    tables = kkt.GainTables(np.ones(4), np.ones(4), gain_init, "exact", 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tables.R = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tables.gain_param = np.zeros(4)
    for name in ("gain_state", "gain_param", "gain_init"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tables, name)[:] = 0.0
    gain_init[:] = 2.0
    assert np.all(tables.gain_init == 1.0)


@pytest.mark.parametrize("k", [0, -1])
def test_window_length_must_be_positive(k):
    # k = 0 used to raise SingularKKT from an unreachable pin, and k = -1
    # an IndexError
    with pytest.raises(ValueError, match="window length k must be an integer >= 1"):
        kkt.measure_gain_tables(presets.tracking_rand(T=8), k)


@pytest.mark.parametrize("k", [9, 12])
def test_window_length_must_not_exceed_horizon(k):
    # k = 12 used to return tables with k = 12 and 9 entries of gain_init
    with pytest.raises(ValueError, match="k must be an integer >= 1 and <= 8"):
        kkt.measure_gain_tables(presets.tracking_rand(T=8), k)


def test_chain_has_no_gain_tables():
    inst = presets.inventory_two_sided(T=6)
    with pytest.raises(ModelError, match="linear-quadratic system"):
        kkt.measure_gain_tables(inst, 2)


@pytest.mark.parametrize("k", [1, 3, 6])
def test_tail_windows_are_the_instances_own(k):
    # only the tail windows [t, T] contain the dead step 9; they are read
    # from the instance's truth law, which the hindsight optimum builds
    # first and which fails there, before any pinned window is built
    base = presets.tracking_rand(T=10)
    inst = dataclasses.replace(base, system=dead_step_system(base.system, 9))
    with pytest.raises(ftocp.SingularKKT,
                       match="singular R \\+ B'PB at step 9$"):
        kkt.measure_gain_tables(inst, k)


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
    want = oracles.init_state_gains(law.loop[0], law.G[0, :, :, :n])
    got = kkt._init_state_jacobians(law)
    assert np.abs(got - want).max() <= 1e-12 * want.max()
    # the stacked norms (240 offsets, split by the cap) are those of one
    # norm call per offset, bit for bit
    assert got.tobytes() == per_offset_init_gains(law).tobytes()


def per_offset_init_gains(law):
    """``kkt._init_state_jacobians`` as one ``kkt._spectral_norms`` call
    per stack and offset: the same closed-loop products, normed offset by
    offset."""
    n, T = law.data.n, law.T
    closed = law.loop[0]
    gains = law.G[0, :, :, :n]
    norms = np.empty(T + 1)
    Phi = np.broadcast_to(np.eye(n), (T + 1, n, n))
    for h in range(T + 1):
        norms[h] = kkt._spectral_norms(Phi).max()
        if h < T:
            norms[h] = max(norms[h],
                           kkt._spectral_norms(gains[h:] @ Phi[:T - h]).max())
            Phi = closed[h:] @ Phi[:T - h]
    return norms


def per_tail_tables(inst, k):
    """``kkt.measure_gain_tables`` with one Jacobian call per tail window
    [t, T] on the scalar suffix of the truth law, and ``gain_init`` normed
    offset by offset."""
    T = inst.T
    opt = engine.solve_opt(inst)
    R = max(opt.max_state_norm, 1.0)
    step_slopes = kkt._step_data_slopes(inst)
    zs = kkt._state_samples(inst, opt.states, R)
    jac = np.zeros(zs.shape[:2] + (k + 1,))
    full = max(T - k, 0)
    if full:
        law = window_batch(inst, np.arange(full), k)
        jac[:, :full] = kkt._window_action_jacobians(
            law, zs[:, :full], step_slopes,
            kkt._terminal_slopes(inst, law.t1 + law.T))
    law = ftocp.truth_law(inst)
    tail_slopes = kkt._terminal_slopes(inst, law.t1 + law.T)
    for t in range(full, T):
        jac[:, t, :T - t + 1] = kkt._window_action_jacobians(
            law.suffix(t), zs[:, t:t + 1], step_slopes, tail_slopes)[:, 0]
    scale = np.array([[np.linalg.norm(z) for z in zt] for zt in zs[1:]])
    gs = (np.maximum(0.0, jac[1:] - jac[0])
          / scale.reshape(-1, T, 1)).max(axis=(0, 1), initial=0.0)
    gi = per_offset_init_gains(law)
    gi[0] = max(gi[0], 1.0)
    return [kkt._monotone_envelope(a) for a in (gs, jac[0].max(axis=0), gi)]


@pytest.mark.parametrize("name", ["tracking-rand", "disturbance", "pendulum",
                                  "grid", "all-maps"])
@pytest.mark.parametrize("all_tails", [False, True], ids=["k<T", "k=T"])
def test_tables_equal_per_tail_tables(name, all_tails):
    # the tails as padded batches (under a cap that splits them, too) give
    # the tables of one scalar suffix per tail, bit for bit; the all-maps
    # instance's terminal varies with its parameter, so each tail's
    # terminal entry must sit at its own last offset
    T = 12
    if name == "all-maps":
        inst, k = all_maps_instance(T, 0), 4
    else:
        inst, k = presets.build_preset(name, T=T), WINDOW[name]
    k = T if all_tails else k
    want = per_tail_tables(inst, k)
    jacobians = kkt._window_action_jacobians
    for cap in (kkt._STACK_CAP, 20):
        steps = []

        def counted(law, *args):
            steps.append((law.W, law.T))
            return jacobians(law, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kkt, "_STACK_CAP", cap)
            mp.setattr(kkt, "_window_action_jacobians", counted)
            tables = kkt.measure_gain_tables(inst, k)
        got = (tables.gain_state, tables.gain_param, tables.gain_init)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()
        # every tail call but one of a single window keeps to the cap
        tails = steps[1:] if k < T else steps
        assert all(W * K <= cap or W == 1 for W, K in tails)
        assert sum(W for W, _ in tails) == k
        assert len(tails) == 1 or cap < kkt._STACK_CAP


def test_two_jacobian_calls_at_k_8(monkeypatch, tmp_path):
    # the batch of the full windows, and one padded batch of the 8 tails
    calls = []
    jacobians = kkt._window_action_jacobians

    def counted(law, *args):
        calls.append(law.W)
        return jacobians(law, *args)

    monkeypatch.setattr(kkt, "_window_action_jacobians", counted)
    res = CliRunner().invoke(cli.main, [
        "constants", "--preset", "tracking-rand", "--T", "24", "--k", "8",
        "--mode", "measured", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert calls == [16, 8]


def test_failing_window_is_the_earliest():
    # windows of one step pin two states through one action, so every
    # window of the batch fails when it is built, before any is rolled out;
    # the earliest is named
    inst = presets.tracking_rand(T=6, seed=0)
    with pytest.raises(ftocp.SingularKKT) as ei:
        kkt.measure_gain_tables(inst, 1)
    assert str(ei.value) == "pinned terminal unreachable from step 0"
    assert ei.value.window == 0


def test_rollout_failure_names_the_earliest_window():
    # a law whose pin multipliers are solved with a wrong S^{-1} misses
    # each pin, except from the state z*_i where the unpinned rollout
    # already meets it (r = 0, so nu = 0), and by an amount that depends
    # on the state
    inst = presets.tracking_rand(T=8, seed=0)
    starts = np.arange(3)
    law = ftocp.continuation_law(
        inst.system, [inst.truth[t:t + 3] for t in starts],
        TerminalCost.indicator(np.zeros((3, 2))), starts)
    P0 = law.P[:, 0, 3:]
    meets = np.linalg.solve(P0[..., :2], -P0[..., 2:3])[..., 0]
    law = dataclasses.replace(law, S_inv=1.5 * law.S_inv)
    # sample j misses the pins of the windows misses[j]
    misses = [[], [2], [1, 2], [1]]
    zs = np.array([meets] * len(misses))
    for j, windows in enumerate(misses):
        zs[j, windows] += 0.1 * (j + 1)

    def failure(xs):
        with pytest.raises(ftocp.SingularKKT) as ei:
            law.trajectories(xs)
        return ei.value

    law.trajectories(zs[0])
    # window 1 misses first at sample 2, by another amount at sample 3
    first, later, batch = failure(zs[2]), failure(zs[3]), failure(zs)
    assert first.window == later.window == batch.window == 1
    assert str(batch) == str(first) != str(later)
    assert str(first).startswith("pinned terminal unreachable from step 1: "
                                 "the rollout misses it by ")
