"""The continuation law (one backward Riccati pass) versus the independent
null-space oracle, on random instances and through the controller."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from mpclab import _assembly, engine, ftocp, kkt, presets
from mpclab.ftocp import SingularKKT
from mpclab.model import (Bounds, Instance, LinearQuadraticSystem, ParamBox,
                          PredictionStream, TerminalCost)


def _spd(rng, d, lo=0.5, hi=2.0):
    Qo, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Qo @ np.diag(rng.uniform(lo, hi, size=d)) @ Qo.T


def _scaled(rng, shape, norm):
    M = rng.normal(size=shape)
    return M * (norm / np.linalg.norm(M, 2))


def random_system(rng, n, m, T, R=None):
    """Time-varying LQ system whose step data ignore the parameter."""
    A = np.array([_scaled(rng, (n, n), rng.uniform(0.3, 1.2))
                  for _ in range(T)])
    B = np.array([_scaled(rng, (n, m), rng.uniform(0.5, 1.5))
                  for _ in range(T)])
    w = np.array([0.3 * rng.normal(size=n) for _ in range(T)])
    Q = np.array([_spd(rng, n) for _ in range(T)])
    Rs = np.array([_spd(rng, m) for _ in range(T)] if R is None else R)
    xbar = np.array([0.5 * rng.normal(size=n) for _ in range(T)])
    return LinearQuadraticSystem(
        n, m, T,
        step_data=lambda ts, xis: (A[ts], B[ts], w[ts], Q[ts], Rs[ts],
                                   xbar[ts]),
        terminal=lambda xi: (np.eye(n), np.zeros(n)),
        bounds=Bounds(mu=0.5, ell=2.0, a=1.2, b=1.5),
        param_box=ParamBox(np.zeros(1), np.ones(1)))


def oracle_continuation(system, params, terminal, t, z, t1=0):
    """States, actions and multipliers of the window [t1 + t, t1 + T] from
    the null-space oracle; params[i] parameterizes step t1 + i."""
    T = len(params) - 1
    data = [system.step_data(t1 + s, params[s]) for s in range(t, T)]
    if terminal.kind == "indicator":
        term = ("indicator", terminal.target)
    else:
        term = ("quadratic", terminal.P, terminal.xbar)
    return oracles.lq_ocp_oracle(*[[d[i] for d in data] for i in range(6)],
                                 np.asarray(z, float), term, duals=True)


def trajectory_cost(system, params, terminal, t, t1, states, actions):
    """Objective of a trajectory of the window [t1 + t, t1 + T]."""
    value = terminal.value(states[-1]) if terminal.kind != "indicator" else 0.0
    for i, s in enumerate(range(t, len(params) - 1)):
        _, _, _, Q, R, xbar = system.step_data(t1 + s, params[s])
        d = states[i] - xbar
        value += float(d @ Q @ d + actions[i] @ R @ actions[i])
    return value


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, np.abs(want).max())


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 2),
       kind=st.sampled_from(["quadratic", "zero", "indicator"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_law_matches_oracle(n, m, kind, seed, data):
    # a pinned window needs K*m >= n steps to reach its target
    need = -(-n // m) if kind == "indicator" else 1
    T = data.draw(st.integers(max(2, need), 30), label="T")
    t1 = data.draw(st.integers(0, T - need), label="t1")
    t = data.draw(st.integers(0, T - t1 - need), label="t")
    check_law_against_oracle(n, m, kind, seed, T, t1, t)


def test_law_matches_oracle_on_a_nearly_unreachable_pin():
    # the pin's multipliers reach 3.2e9, so the KKT residual's rounding
    # floor, about eps * max|eta|, lies above an absolute 1e-8 (it is 1.6e-7)
    check_law_against_oracle(3, 1, "indicator", 3750305333, 15, 2, 10)


def random_terminal(rng, n, kind):
    return {"quadratic": lambda: TerminalCost.quadratic(_spd(rng, n),
                                                        rng.normal(size=n)),
            "zero": lambda: TerminalCost.zero(n),
            "indicator": lambda: TerminalCost.indicator(
                rng.normal(size=n))}[kind]()


def check_law_against_oracle(n, m, kind, seed, T, t1, t):
    """The law of a random window on steps t1 .. T, read at offset t, and
    the law of its window [t1 + t, T] built on its own, against the oracle.
    A pinned law is read from its first step alone, so the window's own law
    stands in for it there."""
    rng = np.random.default_rng(seed)
    system = random_system(rng, n, m, T)
    params = [np.zeros(1)] * (T - t1 + 1)
    terminal = random_terminal(rng, n, kind)
    x = rng.normal(size=n)
    law = ftocp.continuation_law(system, [params], terminal, [t1])
    tail = ftocp.continuation_law(system, [params[t:]], terminal, [t1 + t])
    law, t_read = (tail, 0) if law.pinned else (law, t)
    sol = tail.solution(x)
    so, ao, lam = oracle_continuation(system, params, terminal, t, x, t1)
    assert rel_err(sol.states, so) <= 1e-9
    assert rel_err(sol.actions, ao) <= 1e-9
    assert rel_err(law.action(t_read, x), ao[0]) <= 1e-9
    # saddle multipliers are half the oracle's (initial pin, dynamics rows)
    assert rel_err(sol.duals, lam[:T - t1 - t + 1] / 2) <= 1e-9
    # the residual is exact up to rounding, relative to the multipliers
    assert sol.kkt_residual <= max(1e-8, 1e-14 * np.abs(sol.duals).max())
    want = trajectory_cost(system, params, terminal, t, t1, so, ao)
    _, value = ftocp.stage_costs(system, t1 + t, params[t:], terminal,
                                 sol.states, sol.actions)
    assert value == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_ill_conditioned_pin_matches_oracle():
    # two steps pin two states through nearly parallel inputs: the
    # reachability map has condition number ~1.8e3 and its Gramian, the
    # nu-block of P_0, ~3e6, so solving with the Gramian alone is off by
    # ~5e-10 in the actions and ~1e-9 in the value
    rng = np.random.default_rng(12380)
    system = random_system(rng, 2, 1, 2)
    params = [np.zeros(1)] * 3
    terminal = TerminalCost.indicator(rng.normal(size=2))
    x = rng.normal(size=2)
    sol = ftocp.continuation_law(system, [params], terminal,
                                 [0]).solution(x)
    so, ao, _ = oracle_continuation(system, params, terminal, 0, x)
    assert np.abs(ao).max() > 1e3
    assert rel_err(sol.actions, ao) <= 1e-12
    want = trajectory_cost(system, params, terminal, 0, 0, so, ao)
    _, value = ftocp.stage_costs(system, 0, params, terminal, sol.states,
                                 sol.actions)
    assert value == pytest.approx(want, rel=1e-11)


def test_run_errors_match_oracle_continuation():
    inst = presets.tracking_rand(T=10, seed=3)
    sys_ = inst.system
    params = [inst.truth[s] for s in range(inst.T + 1)]
    terminal = inst.terminal_cost()
    stream = PredictionStream(inst.truth, 3, 0.1, seed=2)
    run = engine.run_mpc(inst, stream, 3)
    assert np.any(run.errors > 1e-6)
    for t in range(inst.T):
        _, ao, _ = oracle_continuation(sys_, params, terminal, t,
                                       run.states[t])
        want = float(np.linalg.norm(run.actions[t] - ao[0]))
        assert run.errors[t] == pytest.approx(want, rel=1e-8, abs=1e-11)


def test_gain_init_matches_oracle_jacobians():
    inst = presets.tracking_rand(T=8, seed=2)
    sys_ = inst.system
    T, n = inst.T, sys_.n
    params = [inst.truth[s] for s in range(T + 1)]
    terminal = inst.terminal_cost()
    opt_states, *_ = oracle_continuation(sys_, params, terminal, 0,
                                         inst.x0)
    want = np.zeros(T + 1)
    for t in range(T):
        K = T - t

        def flat(z, _t=t):
            s, a, _ = oracle_continuation(sys_, params, terminal, _t, z)
            return np.concatenate([s.ravel(), a.ravel()])

        J = oracles.fd_jacobian(flat, opt_states[t])
        for h in range(K + 1):
            nrm = np.linalg.norm(J[h * n:(h + 1) * n], 2)
            if h < K:
                row = (K + 1) * n + h * sys_.m
                nrm = max(nrm, np.linalg.norm(J[row:row + sys_.m], 2))
            want[h] = max(want[h], nrm)
    want = np.maximum.accumulate(want[::-1])[::-1]
    want[0] = max(want[0], 1.0)
    tables = kkt.measure_gain_tables(inst, 3)
    assert np.allclose(tables.gain_init, want, rtol=1e-7, atol=0.0)


def test_zero_terminal_with_zero_last_action_weight_is_singular():
    T, m = 4, 2
    rng = np.random.default_rng(0)
    R = [np.eye(m)] * (T - 1) + [np.zeros((m, m))]
    system = random_system(rng, 2, m, T, R=R)
    params = [np.zeros(1)] * (T + 1)
    with pytest.raises(SingularKKT):
        ftocp.continuation_law(system, [params], TerminalCost.zero(2), [0])
    system.terminal = lambda xi: (np.zeros((2, 2)), np.zeros(2))
    inst = Instance(system, params, np.ones(2))
    with pytest.raises(SingularKKT):
        engine.solve_opt(inst)


def test_solution_reads_a_law_of_one_window():
    rng = np.random.default_rng(0)
    system = random_system(rng, 2, 1, 4)
    params = [np.zeros(1)] * 5
    law = ftocp.continuation_law(system, [params, params[1:]],
                                 TerminalCost.zero(2), [0, 1])
    with pytest.raises(ValueError, match="law of one window"):
        law.solution(np.zeros(2))


@pytest.mark.parametrize("kind", ["quadratic", "zero", "indicator"])
def test_kkt_residual_matches_dense_saddle_residual(kind):
    rng = np.random.default_rng(4)
    n, m, K = 2, 1, 5
    system = random_system(rng, n, m, K)
    params = [np.zeros(1)] * (K + 1)
    terminal = {"quadratic": TerminalCost.quadratic(_spd(rng, n),
                                                    rng.normal(size=n)),
                "zero": TerminalCost.zero(n),
                "indicator": TerminalCost.indicator(rng.normal(size=n))}[kind]
    z = rng.normal(size=n)
    law = ftocp.continuation_law(system, [params], terminal, [0])
    sol = law.solution(z)
    # a point off the optimum, with the initial pin held
    states = sol.states + 0.01 * rng.normal(size=sol.states.shape)
    actions = sol.actions + 0.01 * rng.normal(size=sol.actions.shape)
    duals = sol.duals + 0.01 * rng.normal(size=sol.duals.shape)
    states[0] = z
    data = [system.step_data(t, params[t]) for t in range(K)]
    primal, b_top, b_bot = [], [], [z]
    for t, (A, B, w, Q, R, xbar) in enumerate(data):
        primal += [states[t], actions[t]]
        b_top += [Q @ xbar, np.zeros(m)]
        b_bot.append(w)
    if kind == "indicator":
        # the saddle system eliminates y_K; keep it on the dynamics
        A, B, w = data[-1][:3]
        states[-1] = A @ states[-2] + B @ actions[-1] + w
        b_bot[-1] = w - terminal.target
    else:
        primal.append(states[-1])
        b_top.append(terminal.P @ terminal.xbar)
    chi = np.concatenate(primal + list(duals))
    b = np.concatenate(b_top + b_bot)
    asm = oracles.saddle_assembly(kkt.window_data(system, params, terminal))
    want = float(np.linalg.norm(oracles.saddle_matrix(asm.M, asm.N) @ chi
                                - b))
    got = law._kkt_residual(states, actions, duals)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("k", [5, 6, 8])
def test_pendulum_pinned_windows_match_oracle(k):
    inst = presets.pendulum(T=30)
    sys_ = inst.system
    z = np.array([0.1, -0.2, 0.05, 0.3])
    for t in range(0, inst.T - k, 4):
        params = [inst.truth[s] for s in range(t, t + k + 1)]
        terminal = engine.window_terminal(inst, t + k, params[-1])
        sol = ftocp.window_law(sys_, params, terminal, t).solution(z)
        so, ao, _ = oracle_continuation(sys_, params, terminal, 0, z, t)
        assert rel_err(sol.states, so) <= 1e-9
        assert rel_err(sol.actions, ao) <= 1e-9
        assert rel_err(sol.states[-1], terminal.target) <= 1e-9


def pinned_windows(name, T, k, noise):
    """The realized states of a run and the laws of its windows, of which
    those that stop short of T are one pinned batch."""
    inst = presets.build_preset(name, T=T)
    stream = PredictionStream(inst.truth, k, noise, seed=inst.seed)
    laws = ftocp.window_laws(
        inst.system, [(t, stream.window(t, min(t + k, T))) for t in range(T)],
        functools.partial(engine.window_terminal, inst))
    return inst, stream, engine.run_mpc(inst, stream, k).states, laws


@pytest.mark.parametrize("name,k", [("pendulum", 4), ("pendulum", 5),
                                    ("tracking-rand", 6)])
def test_committed_actions_match_the_exact_oracle(name, k):
    # the committed first action of every pinned window of a run, against
    # its window solved in exact rationals from the same data and state.
    # The ill-conditioned pin tests ask 1e-9 of a whole solution; a first
    # action is held to 1e-12 (pendulum's k-step windows reach actions of
    # 3e4 from states of 0.1).  Read through a map N (x, 1), the
    # pendulum's would miss it by 1e-10, so its windows are unmapped
    inst, stream, states, laws = pinned_windows(name, 20, k, 0.0)
    for t in range(inst.T - k):
        params = stream.window(t, t + k)
        data = inst.system.step_data(t + np.arange(k), params[:k])
        target = engine.window_terminal(inst, t + k, params[-1]).target
        _, exact = oracles.exact_lq_ocp_oracle(*data, states[t],
                                               ("indicator", target))
        got = laws.action(t, states[t])
        err = max(abs(Fraction(a) - e)
                  for a, e in zip(got.tolist(), exact[0]))
        assert err <= 1e-12 * max(1, *map(abs, exact[0])), t


@pytest.mark.parametrize("name,T,k", [("tracking-rand", 40, 12),
                                      ("grid", 12, 3)])
def test_pin_map_cancels_its_miss_to_rounding(name, T, k):
    # each column j of the map cancels its column of the unpinned miss:
    # R + sum_t PB_t G_t[:, n+1:] N = 0, evaluated exactly, to within an
    # eps of the terms' magnitudes.  Its refinement step takes the worst
    # entry from about 5 eps (-S^{-1} R alone) to about eps / 2
    law = pinned_windows(name, T, k, 0.05)[3].windows[0][0]
    n, N = law.data.n, law.nu_map
    R = law.P[:, 0, n + 1:, :n + 1]
    G_nu = law.G[..., n + 1:]
    for w in range(law.W):
        miss = oracles.exact(R[w]) + sum(
            oracles.exact(PB).dot(oracles.exact(G)).dot(oracles.exact(N[w]))
            for PB, G in zip(law.PB[w], G_nu[w]))
        terms = np.abs(R[w]) + sum(np.abs(PB) @ np.abs(G) @ np.abs(N[w])
                                   for PB, G in zip(law.PB[w], G_nu[w]))
        assert np.all(np.abs(miss).astype(float)
                      <= 2 * np.finfo(float).eps * terms), w


@pytest.mark.parametrize("name", ["tracking-rand", "disturbance",
                                  "pendulum", "grid"])
def test_ill_conditioned_pins_are_unmapped(name):
    # the pendulum's first actions are small differences of terms 2e2 to
    # 3e4 times larger, so its nu is solved from r on each read
    law = pinned_windows(name, 20, 5, 0.05)[3].windows[0][0]
    assert law.pinned and law.W == 15
    assert list(law.unmapped) == [name == "pendulum"] * law.W


@pytest.mark.parametrize("n,m,kind", [(2, 1, "indicator"), (3, 2, "zero"),
                                      (2, 2, "quadratic")])
def test_exact_oracle_matches_the_null_space_oracle(n, m, kind):
    rng = np.random.default_rng(n + 10 * m)
    K = 4
    system = random_system(rng, n, m, K)
    data = system.step_data(np.arange(K), np.zeros((K, 1)))
    terminal = {"indicator": ("indicator", rng.normal(size=n)),
                "zero": ("zero",),
                "quadratic": ("quadratic", _spd(rng, n),
                              rng.normal(size=n))}[kind]
    z = rng.normal(size=n)
    states, actions = oracles.exact_lq_ocp_oracle(*data, z, terminal)
    so, ao = oracles.lq_ocp_oracle(*data, z, terminal)
    assert rel_err(states.astype(float), so) <= 1e-9
    assert rel_err(actions.astype(float), ao) <= 1e-9
    with pytest.raises(ValueError, match="too large"):
        oracles.exact_lq_ocp_oracle(*[np.repeat(d, 4, axis=0) for d in data],
                                    z, terminal)


@pytest.mark.parametrize("k", [2, 3])
def test_unreachable_pinned_window_raises(k):
    # the pendulum has n = 4 states and m = 1 action: k < 4 steps cannot
    # reach an arbitrary target
    inst = presets.pendulum(T=10)
    params = [inst.truth[s] for s in range(k + 1)]
    with pytest.raises(SingularKKT, match="unreachable"):
        ftocp.window_law(inst.system, params, TerminalCost.indicator(
            np.array([0.3, 0.0, -0.1, 0.2]))).solution(
                np.array([0.1, -0.2, 0.05, 0.3]))


RUN_PRESETS = [("tracking-rand", 4), ("disturbance", 4), ("grid", 4),
               ("pendulum", 4)]


def check_run_against_oracle(inst, k):
    """Every committed action of a noisy run equals the oracle's solution of
    its window, on the forecasts and from the realized state, and the run's
    worst KKT residual is at the rounding floor of the windows' multipliers.
    """
    T = inst.T
    stream = PredictionStream(inst.truth, min(k, T), 0.05, seed=5)
    run = engine.run_mpc(inst, stream, k)
    dual_max = 0.0
    for t in range(T):
        t2 = min(t + k, T)
        params = stream.window(t, t2)
        terminal = engine.window_terminal(inst, t2, params[-1])
        _, ao, lam = oracle_continuation(inst.system, params, terminal, 0,
                                         run.states[t], t)
        assert rel_err(run.actions[t], ao[0]) <= 1e-9, t
        dual_max = max(dual_max, float(np.abs(lam).max()))
    assert 0.0 < run.kkt_residual_max <= max(1e-8, 1e-12 * dual_max)


@pytest.mark.parametrize("name,k", RUN_PRESETS)
def test_batched_run_matches_oracle_windows(name, k):
    check_run_against_oracle(presets.build_preset(name, T=12), k)


@pytest.mark.parametrize("name", ["tracking-rand", "disturbance", "grid",
                                  "pendulum"])
@pytest.mark.parametrize("shorter", [0, 1])
def test_batched_run_matches_oracle_when_windows_reach_the_end(name,
                                                               shorter):
    # k = T: every window reaches T; k = T - 1: only the first one does not
    inst = presets.build_preset(name, T=8)
    check_run_against_oracle(inst, inst.T - shorter)


@pytest.mark.parametrize("t,kind", [(0, "predicted_tracking"), (0, "true"),
                                    (2, "true")])
def test_sample_rollouts_match_separate_rollouts(t, kind):
    # rollouts of a batch from Z samples of initial states at once are the
    # Z rollouts taken one sample at a time, bit for bit, on a pinned and
    # a quadratic batch, and on the quadratic batch of the same windows
    # from their offset t
    inst = presets.tracking_rand(T=12, seed=4)
    k, starts = 4, np.arange(8)
    t2 = starts + k
    terminal = (engine.window_terminal(inst, t2, inst.truth[t2])
                if kind == "predicted_tracking"
                else inst.terminal_cost(inst.truth[t2]))
    law = ftocp.continuation_law(
        inst.system, [inst.truth[s + t:s + k + 1] for s in starts], terminal,
        starts + t)
    assert law.pinned == (kind != "true")
    zs = np.random.default_rng(2).normal(size=(3, len(starts), 2))
    got = law.trajectories(zs)
    for j, z in enumerate(zs):
        for g, w in zip(got, law.trajectories(z), strict=True):
            assert g[j].shape == w.shape
            assert g[j].tobytes() == w.tobytes()


LQ_PRESETS = ["tracking-rand", "disturbance", "pendulum", "grid"]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(LQ_PRESETS), data=st.data())
def test_pinned_first_action_is_the_first_of_the_rollout(name, data):
    # from any states, the first action a pinned law reads is the first
    # action of its rollout bit for bit, whether nu is read from its map
    # N (x, 1) or, for the pendulum's pins, solved from r
    _, _, _, laws = pinned_windows(name, 16, 6, 0.05)
    law = laws.windows[0][0]
    assert law.pinned and law.W == 10
    n = law.data.n
    xs = np.array(data.draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
        min_size=law.W, max_size=law.W), label="xs"))
    _, actions, _ = law.trajectories(xs)
    for w in range(law.W):
        assert law.action(0, xs[w], w).tobytes() == actions[w, 0].tobytes()


@functools.cache
def padding_instance(name, T=16):
    return presets.build_preset(name, T=T)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(LQ_PRESETS),
       pinned=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_padded_laws_equal_separate_laws(name, pinned, seed, data):
    # a batch of windows of mixed lengths is padded to the longest; on each
    # window's own offsets and steps its law reads bitwise as the window's
    # law built alone.  tracking-rand's P_T is not exactly symmetric, so a
    # terminal taken as a symmetrized stage cost would show there
    inst = padding_instance(name)
    sys_ = inst.system
    need = -(-sys_.n // sys_.m) if pinned else 1
    lengths = data.draw(st.lists(st.integers(need, 10), min_size=1,
                                 max_size=5), label="lengths")
    starts = [data.draw(st.integers(0, sys_.T - K), label="t1")
              for K in lengths]
    params = [inst.truth[t:t + K + 1] for t, K in zip(starts, lengths)]
    rng = np.random.default_rng(seed)
    W, n = len(lengths), sys_.n
    terminal = (TerminalCost.indicator(0.3 * rng.normal(size=(W, n)))
                if pinned else
                sys_.terminal_cost(np.array([p[-1] for p in params])))
    law = ftocp.continuation_law(sys_, params, terminal, starts)
    xs = rng.normal(size=(2, W, n))
    states, actions, duals = law.trajectories(xs)
    for i, K in enumerate(lengths):
        alone = ftocp.continuation_law(sys_, [params[i]],
                                       terminal[i:i + 1], starts[i:i + 1])
        assert law.P[i, :K + 1].tobytes() == alone.P[0].tobytes()
        assert law.G[i, :K].tobytes() == alone.G[0].tobytes()
        assert (law.action(0, xs[0, i], i).tobytes()
                == alone.action(0, xs[0, i]).tobytes())
        got = (states[:, i, :K + 1], actions[:, i, :K], duals[:, i, :K + 1])
        for g, w in zip(got, alone.trajectories(xs[:, i:i + 1]),
                        strict=True):
            assert g.tobytes() == w[:, 0].tobytes()
        # past its last step a window holds its state and takes no action
        assert np.array_equal(states[:, i, K:],
                              np.repeat(states[:, i, K:K + 1],
                                        law.T + 1 - K, axis=1))
        assert not actions[:, i, K:].any()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(LQ_PRESETS), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_padded_suffixes_equal_separate_suffixes(name, seed, data):
    # the tail windows [t, T] of a run from any offsets (repeats and any
    # order allowed), capped as every command caps them, are one padded
    # batch of ``ftocp.window_laws``; on each tail's own offsets it reads
    # bitwise as the tail's law built alone, and so do its gain Jacobians,
    # whose entries past its own last offset are 0
    T = data.draw(st.integers(2, 16), label="T")
    inst = padding_instance(name, T)
    sys_ = inst.system
    ts = np.array(data.draw(st.lists(st.integers(0, T), min_size=1,
                                     max_size=6), label="ts"))
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(2, len(ts), sys_.n))
    laws = ftocp.window_laws(sys_, [(t, inst.truth[t:]) for t in ts],
                             functools.partial(engine.window_terminal, inst))
    tails = laws.windows[0][0]
    assert laws.failure is None
    assert laws.windows == tuple((tails, w) for w in range(len(ts)))
    assert tails.T == T - ts.min()
    states, actions, duals = tails.trajectories(xs)
    step_slopes = kkt._step_data_slopes(inst)
    cap_slopes = [kkt._terminal_slopes(inst, np.full(W, T)) for W in
                  (len(ts), 1)]
    if tails.T:
        jac = kkt._window_action_jacobians(tails, xs, step_slopes,
                                           cap_slopes[0])
    else:           # a batch of no step has no action to differentiate
        with pytest.raises(ValueError, match="has no first action"):
            kkt._window_action_jacobians(tails, xs, step_slopes,
                                         cap_slopes[0])
    for i, t in enumerate(ts):
        K = T - t
        alone = ftocp.window_law(sys_, inst.truth[t:], inst.terminal_cost(),
                                 int(t))
        assert tails.t1[i] == alone.t1[0] == t
        assert tails.P[i, :K + 1].tobytes() == alone.P[0].tobytes()
        assert tails.G[i, :K].tobytes() == alone.G[0].tobytes()
        assert tails.loop[i, :K].tobytes() == alone.loop[0].tobytes()
        got = (states[:, i, :K + 1], actions[:, i, :K], duals[:, i, :K + 1])
        for g, w in zip(got, alone.trajectories(xs[:, i:i + 1]),
                        strict=True):
            assert g.tobytes() == w[:, 0].tobytes()
        # past its own last step a tail holds its state and takes no action
        assert np.array_equal(states[:, i, K:],
                              np.repeat(states[:, i, K:K + 1],
                                        tails.T + 1 - K, axis=1))
        assert not actions[:, i, K:].any()
        if K:
            want = kkt._window_action_jacobians(
                alone, xs[:, i:i + 1], step_slopes, cap_slopes[1])[:, 0]
            assert jac[:, i, :K + 1].tobytes() == want.tobytes()
            assert not jac[:, i, K + 1:].any()


@pytest.mark.parametrize("pinned", [False, True])
@pytest.mark.parametrize("name", LQ_PRESETS)
def test_padded_offsets_read_the_identity_loop(name, pinned):
    # Phi_t = A_t + B_t K_t is computed from the step data and the gains;
    # a padded offset holds its state (A = I, B = 0, a zero gain), so it
    # reads Phi = I bitwise, in a mixed-length batch and in a batch of the
    # tails [t, T] from several offsets alike, and the computed loop is
    # read-only
    inst = padding_instance(name)
    sys_, n = inst.system, inst.system.n
    starts, lengths = [0, 2, 5], [-(-n // sys_.m), 7, 10]
    params = [inst.truth[t:t + K + 1] for t, K in zip(starts, lengths)]
    terminal = (TerminalCost.indicator(np.zeros((3, n))) if pinned else
                sys_.terminal_cost(np.array([p[-1] for p in params])))
    batch = ftocp.continuation_law(sys_, params, terminal, starts)
    laws = [(batch, lengths)]
    if not pinned:
        ts = np.array([0, 3, 9, inst.T])
        tails = ftocp.continuation_law(sys_, [inst.truth[t:] for t in ts],
                                       inst.terminal_cost(), ts)
        laws.append((tails, inst.T - ts))
    for law, own in laws:
        loop = law.loop
        assert not loop.flags.writeable
        assert loop.shape == (law.W, law.T, n, n)
        assert sum(K < law.T for K in own) >= 2   # padded windows
        for i, K in enumerate(own):
            held = np.broadcast_to(np.eye(n), (law.T - K, n, n))
            assert loop[i, K:].tobytes() == held.tobytes()


@pytest.mark.parametrize("scale,misses", [(2.0, True), (0.5, False)])
def test_pin_missed_by_a_multiple_of_the_tolerance(scale, misses):
    # the law steers to its own pin; against a target moved by a multiple
    # of the rollout's tolerance 1e-6 (1 + |target| + |x|) its rollout
    # misses when the multiple is 2, and meets it when it is 1/2
    inst = presets.tracking_rand(T=8, seed=0)
    target, x = np.array([0.3, -0.2]), inst.x0
    law = ftocp.window_law(inst.system, inst.truth[:4],
                           TerminalCost.indicator(target))
    tol = 1e-6 * (1.0 + np.linalg.norm(target) + np.linalg.norm(x))
    moved = target + scale * tol * np.array([0.6, 0.8])
    law = dataclasses.replace(law, data=dataclasses.replace(
        law.data, terminal=TerminalCost.indicator(moved[None])))
    if misses:
        with pytest.raises(SingularKKT, match="the rollout misses it by "):
            law.solution(x)
    else:
        law.solution(x)


def test_pin_unreachable_in_fewer_steps_than_n_over_m():
    # tracking-rand has n = 2 states and m = 1 action, so a pinned window
    # of one step cannot reach its pin from a generic state; the check
    # reads each window's own length, not the padded one, and is the rank
    # of the window's reachability map
    inst = presets.tracking_rand(T=8, seed=0)
    sys_ = inst.system
    starts, lengths = [0, 1, 2, 3, 4], [2, 2, 1, 2, 1]
    A, B, *_ = sys_.step_data(np.arange(sys_.T), inst.truth[:sys_.T])
    short = [np.linalg.matrix_rank(
        oracles.controllability_matrix(A, B, t, K)) < sys_.n
        for t, K in zip(starts, lengths)]
    assert short == [False, False, True, False, True]
    params = [inst.truth[t:t + K + 1] for t, K in zip(starts, lengths)]
    pins = TerminalCost.indicator(np.zeros((5, 2)))
    with pytest.raises(SingularKKT) as ei:
        ftocp.continuation_law(sys_, params, pins, starts)
    assert str(ei.value) == "pinned terminal unreachable from step 2"
    assert ei.value.window == 2
    for i in (2, 4):
        with pytest.raises(SingularKKT,
                           match=f"unreachable from step {starts[i]}$"):
            ftocp.continuation_law(sys_, [params[i]], pins[i:i + 1],
                                   starts[i:i + 1])
    ftocp.continuation_law(sys_, [params[i] for i in (0, 1, 3)], pins[:3],
                           [0, 1, 3])


# the adjoint's residual, relative to ||H|| ||lam_j||: on random windows it
# stays near 1 eps without a pin; a pin's multiplier, solved with the
# nu-block S of P_0 (whose condition is about the square of the
# reachability map's) and refined once, reached 2.7 eps on 9e3 pinned
# windows, against 1.1e3 eps with the solve alone
ADJOINT_RTOL = 10 * np.finfo(float).eps


def assert_adjoint_solves_saddle_system(lam, wm):
    """lam = (y, v, eta, nu), the first-action adjoint of one window read on
    its own K = wm.K offsets, solves H lam_j = e_{u_0, j} for every column
    j, with H the dense saddle matrix of the oracle's assembly of wm.

    H's variables are (y_0, v_0, ..., y_{K-1}, v_{K-1}, y_K) and its
    multipliers (eta_0, ..., eta_K): eta_0 that of the initial pin, eta_t
    that of the dynamics row into offset t, which is the law's eta[t - 1].
    The adjoint omits eta_0; it is taken from the stationarity row of y_0,
    eta_0 = A_0' eta_1 since y_0 = 0, and every other row is checked.  A
    pinned ("hat") window has no y_K: its last dynamics row ends at the
    pin, so the law's eta_K is that row's multiplier, and it is -nu."""
    y, v, eta, nu = lam
    K, n, m = wm.K, wm.n, wm.m
    hat = wm.terminal.kind == "indicator"
    assert y.shape == (K + 1, n, m) and v.shape == (K, m, m)
    assert eta.shape == (K, n, m) and (nu is None) == (not hat)
    primal = [a for t in range(K) for a in (y[t], v[t])]
    if hat:
        np.testing.assert_array_equal(eta[-1], -nu)
    else:
        primal.append(y[K])
    chi = np.concatenate(primal + [wm.A[0].T @ eta[0], *eta])
    asm = oracles.saddle_assembly(wm)
    H = oracles.saddle_matrix(asm.M, asm.N)
    e = np.zeros_like(chi)
    e[n + np.arange(m), np.arange(m)] = 1.0     # v_0 follows y_0
    residual = np.linalg.norm(H @ chi - e, axis=0)
    scale = np.linalg.norm(H, 2) * np.linalg.norm(chi, axis=0)
    assert (residual <= ADJOINT_RTOL * scale).all(), residual / scale


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 2), K=st.integers(1, 8),
       kind=st.sampled_from(["quadratic", "zero", "indicator"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2, m=1, K=5, kind="indicator", seed=0)
@example(n=3, m=2, K=4, kind="quadratic", seed=1)
# pins whose multiplier, without its refinement step, misses by 1.1e3 eps
# and 3.1e2 eps
@example(n=2, m=2, K=1, kind="indicator", seed=892)
@example(n=2, m=2, K=1, kind="indicator", seed=2855)
def test_first_action_adjoint_solves_the_saddle_system(n, m, K, kind, seed):
    # a pin needs K m >= n steps, or the saddle matrix is singular
    assume(kind != "indicator" or K * m >= n)
    rng = np.random.default_rng(seed)
    system = random_system(rng, n, m, max(K, 2))
    params = [np.zeros(1)] * (K + 1)
    terminal = random_terminal(rng, n, kind)
    law = ftocp.continuation_law(system, [params], terminal, [0])
    lam = [None if a is None else a[0] for a in law.first_action_adjoint()]
    assert_adjoint_solves_saddle_system(
        lam, kkt.window_data(system, params, terminal))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 2),
       kind=st.sampled_from(["quadratic", "zero"]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_padded_suffix_adjoints_solve_their_saddle_systems(n, m, kind, seed,
                                                           data):
    # the tails [t, T] from an array of offsets are one padded batch; each
    # tail's adjoint, read on its own offsets, solves the saddle system of
    # its own window, assembled from the system's step data
    T = data.draw(st.integers(2, 8), label="T")
    ts = data.draw(st.lists(st.integers(0, T - 1), min_size=1, max_size=5),
                   label="ts")
    rng = np.random.default_rng(seed)
    system = random_system(rng, n, m, T)
    terminal = random_terminal(rng, n, kind)
    law = ftocp.continuation_law(
        system, [[np.zeros(1)] * (T - t + 1) for t in ts], terminal, ts)
    y, v, eta, nu = law.first_action_adjoint()
    assert nu is None
    for j, t in enumerate(ts):
        K = T - t
        wm = _assembly.WindowMatrices(
            *system.step_data(t + np.arange(K), np.zeros((K, 1))), terminal)
        assert_adjoint_solves_saddle_system(
            (y[j, :K + 1], v[j, :K], eta[j, :K], None), wm)
