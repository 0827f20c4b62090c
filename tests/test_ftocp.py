"""Windowed solvers versus independent oracles."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from mpclab import engine, ftocp, presets, regret
from mpclab.ftocp import Infeasible
from mpclab.model import InventorySystem, PredictionStream, TerminalCost


def window_data(inst, t1, t2):
    sys = inst.system
    params = [inst.truth[s] for s in range(t1, t2 + 1)]
    data = [sys.step_data(t1 + i, params[i]) for i in range(t2 - t1)]
    As = [np.atleast_2d(d[0]) for d in data]
    Bs = [np.atleast_2d(d[1]) for d in data]
    ws = [np.atleast_1d(d[2]) for d in data]
    Qs = [np.atleast_2d(d[3]) for d in data]
    Rs = [np.atleast_2d(d[4]) for d in data]
    xbars = [np.atleast_1d(d[5]) for d in data]
    return params, As, Bs, ws, Qs, Rs, xbars


ALTERNATING = lambda T: np.array(  # noqa: E731
    [4.0 / 5.0 if t % 2 else -4.0 / 5.0 for t in range(T + 1)])


@pytest.fixture(scope="module")
def inst():
    return presets.tracking_rand(T=12, seed=1)


class TestQuadraticSolver:

    def test_quadratic_terminal_matches_oracle(self, inst):
        t1, t2 = 2, 9
        z = np.array([0.25, -0.1])
        params, As, Bs, ws, Qs, Rs, xbars = window_data(inst, t1, t2)
        term = inst.system.terminal_cost(params[-1])
        sol = ftocp.window_law(inst.system, params, term, t1).solution(z)
        so, ao = oracles.lq_ocp_oracle(As, Bs, ws, Qs, Rs, xbars, z,
                                       ("quadratic", term.P, term.xbar))
        assert np.allclose(sol.states, so, atol=1e-8)
        assert np.allclose(sol.actions, ao, atol=1e-8)

    def test_pinned_terminal_matches_oracle(self, inst):
        t1, t2 = 3, 10
        z = np.array([-0.2, 0.15])
        target = np.array([0.1, -0.2])
        params, As, Bs, ws, Qs, Rs, xbars = window_data(inst, t1, t2)
        law = ftocp.window_law(inst.system, params,
                               TerminalCost.indicator(target), t1)
        sol = law.solution(z)
        so, ao = oracles.lq_ocp_oracle(As, Bs, ws, Qs, Rs, xbars, z,
                                       ("indicator", target))
        assert np.allclose(sol.states, so, atol=1e-8)
        assert np.allclose(sol.actions, ao, atol=1e-8)
        assert np.allclose(sol.states[-1], target, atol=1e-9)

    def test_zero_terminal_matches_oracle(self, inst):
        t1, t2 = 0, 7
        z = np.array([0.3, 0.3])
        params, As, Bs, ws, Qs, Rs, xbars = window_data(inst, t1, t2)
        sol = ftocp.window_law(inst.system, params, TerminalCost.zero(2),
                               t1).solution(z)
        so, ao = oracles.lq_ocp_oracle(As, Bs, ws, Qs, Rs, xbars, z,
                                          ("zero",))
        assert np.allclose(sol.states, so, atol=1e-8)
        assert np.allclose(sol.actions, ao, atol=1e-8)

    def test_kkt_and_dynamics_residuals(self, inst):
        t1, t2 = 1, 11
        params, *_ = window_data(inst, t1, t2)
        term = inst.system.terminal_cost(params[-1])
        sol = ftocp.window_law(inst.system, params, term,
                               t1).solution(np.zeros(2))
        assert sol.kkt_residual <= 1e-8
        A, B, w, *_ = inst.system.step_data(np.arange(t1, t2),
                                            params[:-1])
        residual = max(
            np.linalg.norm(sol.states[i + 1] - (A[i] @ sol.states[i]
                                                + B[i] @ sol.actions[i]
                                                + w[i]))
            for i in range(t2 - t1))
        assert residual <= 1e-9

    def test_value_matches_recomputed_objective(self, inst):
        t1, t2 = 2, 8
        z = np.array([0.1, 0.2])
        params, As, Bs, ws, Qs, Rs, xbars = window_data(inst, t1, t2)
        term = inst.system.terminal_cost(params[-1])
        sol = ftocp.window_law(inst.system, params, term, t1).solution(z)
        val = term.value(sol.states[-1])
        for i in range(t2 - t1):
            d = sol.states[i] - xbars[i]
            val += float(d @ Qs[i] @ d
                         + sol.actions[i] @ Rs[i] @ sol.actions[i])
        _, value = ftocp.stage_costs(inst.system, t1, params, term,
                                     sol.states, sol.actions)
        assert value == pytest.approx(val, abs=1e-10)

    def test_terminal_relaxation_ordering(self, inst):
        t1, t2 = 0, 8
        z = np.array([0.3, -0.3])
        params, *_ = window_data(inst, t1, t2)
        quad = inst.system.terminal_cost(params[-1])  # minimized at the origin

        def value(term):
            sol = ftocp.window_law(inst.system, params, term,
                                   t1).solution(z)
            return ftocp.stage_costs(inst.system, t1, params, term,
                                     sol.states, sol.actions)[1]

        v_zero = value(TerminalCost.zero(2))
        v_quad = value(quad)
        v_pin = value(TerminalCost.indicator(quad.xbar))
        assert v_zero <= v_quad + 1e-12
        assert v_quad <= v_pin + 1e-12

    def test_principle_of_optimality(self):
        inst = presets.tracking_rand(T=10, seed=2)
        params, *_ = window_data(inst, 0, 10)
        term = inst.terminal_cost()
        full = ftocp.window_law(inst.system, params, term).solution(inst.x0)
        t = 4
        tail = ftocp.window_law(inst.system, params[t:], term,
                                t).solution(full.states[t])
        assert np.allclose(tail.states, full.states[t:], atol=1e-7)
        assert np.allclose(tail.actions, full.actions[t:], atol=1e-7)

    def test_determinism(self, inst):
        params, *_ = window_data(inst, 0, 6)
        z = np.array([0.1, 0.1])
        a = ftocp.window_law(inst.system, params,
                             TerminalCost.zero(2)).solution(z)
        b = ftocp.window_law(inst.system, params,
                             TerminalCost.zero(2)).solution(z)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.duals, b.duals)

    @pytest.mark.parametrize("params, t1", [
        ([np.zeros(1)] * 3, -1), ([], 0)], ids=["negative-start", "no-step"])
    def test_window_law_rejects_a_window_without_steps(self, inst, params,
                                                       t1):
        # as a window t1 .. t2 needs 0 <= t1 <= t2
        with pytest.raises(ValueError):
            ftocp.window_law(inst.system, params, TerminalCost.zero(2), t1)

    def test_empty_window(self, inst):
        z = np.array([0.4, -0.4])
        params = inst.truth[5:6]
        term = inst.system.terminal_cost(params[-1])
        sol = ftocp.window_law(inst.system, params, term, 5).solution(z)
        assert sol.states.shape == (1, 2)
        assert sol.actions.shape == (0, 1)
        _, value = ftocp.stage_costs(inst.system, 5, params, term,
                                     sol.states, sol.actions)
        assert value == pytest.approx(term.value(z))


class TestChainSolver:
    def test_two_sided_matches_oracle(self):
        T = 8
        targets = ALTERNATING(T)
        system = InventorySystem(T=T, targets=targets)
        params = [np.array([v]) for v in targets]
        sol = ftocp.window_law(system, params, TerminalCost.indicator(
            [-0.4])).solution(np.array([0.1]))
        xo = oracles.inventory_oracle(0.1, targets[:T], -0.4, -0.8, 0.8)
        assert np.allclose(sol.states[:, 0], xo, atol=1e-6)

    def test_one_sided_with_action_cost_matches_oracle(self):
        T = 8
        targets = ALTERNATING(T)
        system = InventorySystem(T=T, targets=targets, u_hi=np.inf,
                                 action_weight=1.5)
        params = [np.array([v]) for v in targets]
        sol = ftocp.window_law(system, params, TerminalCost.indicator(
            [-0.4])).solution(np.array([0.0]))
        xo = oracles.inventory_oracle(0.0, targets[:T], -0.4, -0.8, np.inf,
                                      action_weight=1.5)
        assert np.allclose(sol.states[:, 0], xo, atol=1e-6)

    def test_slack_constraints_match_quadratic_solver(self):
        # with wide bounds the chain is an unconstrained LQ problem: tracking
        # cost weight 1, action cost weight gam
        T = 6
        gam = 1.0
        targets = ALTERNATING(T)
        chain = InventorySystem(T=T, targets=targets, u_lo=-10.0, u_hi=10.0,
                                x_lo=-10.0, x_hi=10.0, action_weight=gam)
        params = [np.array([v]) for v in targets]
        import mpclab.model as model
        lq = model.LinearQuadraticSystem(
            1, 1, T,
            step_data=lambda ts, xis: (np.eye(1), np.eye(1), np.zeros(1),
                                       np.eye(1), gam * np.eye(1), xis),
            terminal=lambda xi: (np.zeros((1, 1)), np.zeros(1)),
            bounds=model.Bounds(mu=0.5, ell=1.0, a=1.0, b=1.0),
            param_box=model.ParamBox(np.array([-1.0]), np.array([1.0])))
        pin = TerminalCost.indicator([-0.4])
        a = ftocp.window_law(chain, params, pin).solution(np.array([0.2]))
        b = ftocp.window_law(lq, params, pin).solution(np.array([0.2]))
        assert np.allclose(a.states, b.states, atol=1e-8)

    def test_last_small_step_is_taken(self):
        # the optimum is 9e-10 from the straight-line start: the solver must
        # still move there rather than stop within its step tolerance
        targets = np.array([0.0, 0.0, 9e-10, 0.0, 0.0])
        system = InventorySystem(T=4, targets=targets)
        params = [np.array([v]) for v in targets]
        sol = ftocp.window_law(system, params, TerminalCost.indicator(
            [0.0])).solution(np.zeros(1))
        assert sol.states[2, 0] == pytest.approx(9e-10, rel=1e-9)
        assert sol.kkt_residual <= 1e-15

    def test_unreachable_terminal_infeasible(self):
        system = InventorySystem(T=2, targets=np.zeros(3), x_lo=-2.0,
                                 x_hi=2.0)
        params = [np.zeros(1)] * 2
        with pytest.raises(Infeasible) as ei:
            ftocp.window_law(system, params, TerminalCost.indicator(
                [1.5])).solution(np.array([0.0]))
        assert ei.value.step == 0

    def test_endpoint_outside_state_interval(self):
        system = InventorySystem(T=3, targets=np.zeros(4))
        params = [np.zeros(1)] * 4
        with pytest.raises(Infeasible):
            ftocp.window_law(system, params, TerminalCost.indicator(
                [-1.5])).solution(np.array([0.0]))

    def test_empty_window_needs_matching_state(self):
        system = InventorySystem(T=4, targets=np.zeros(5))
        with pytest.raises(Infeasible):
            ftocp.window_law(system, [np.zeros(1)], TerminalCost.indicator(
                [0.0]), 2).solution(np.array([0.3]))
        sol = ftocp.window_law(system, [np.zeros(1)], TerminalCost.indicator(
            [0.0]), 2).solution(np.array([0.0]))
        assert sol.states.shape == (1, 1)

    @pytest.mark.parametrize("targets, z, pin, states, on_bounds, kw", [
        # from x_1 = -0.8 the step to x_2 runs on u_hi; the target 1e-10
        # above x_2 = 0 must not pull it over the bound
        ([0.0, -1.0, 1e-10, 0.0, -1.0], 0.0, -1.0,
         [0.0, -0.8, 0.0, -0.2, -1.0], 2, {}),
        # the only feasible path runs on u_hi at both steps: both bounds on
        # the one free state are active
        ([0.0, 0.0, 0.0], -0.8, 0.8, [-0.8, 0.0, 0.8], 1, {}),
        # with u >= 0 and x_0 = x_T the only feasible path is constant: every
        # action bound is active
        ([0.8, 1.2, 0.7, -0.45, 0.08, 1.08, -1.39, -1.41, -1.5, -1.4, 0.12],
         -1.0, -1.0, [-1.0] * 11, slice(None),
         {"u_lo": 0.0, "u_hi": np.inf, "action_weight": 2.0}),
        # x_1 = -0.65 - 0.2 rounds to -0.8500000000000001, so the state
        # difference to the pin is 0.20000000000000007: the action is u_hi
        ([0.0, -1.0, 0.0], -0.8, -0.65, [-0.8, -0.85, -0.65], 2,
         {"u_hi": 0.2}),
    ], ids=["bound-overshoot", "both-bounds", "constant-path",
            "rounded-step"])
    def test_active_bounds_are_met_exactly(self, targets, z, pin, states,
                                           on_bounds, kw):
        system = InventorySystem(T=len(targets) - 1, targets=targets, **kw)
        params = [np.array([v]) for v in targets]
        sol = ftocp.window_law(system, params, TerminalCost.indicator(
            [pin])).solution(np.array([z]))
        assert np.array_equal(sol.states[on_bounds, 0],
                              np.array(states)[on_bounds])
        assert np.allclose(sol.states[:, 0], states, rtol=0.0, atol=1e-15)
        assert np.all(sol.actions >= system.u_lo)
        assert np.all(sol.actions <= system.u_hi)
        assert sol.kkt_residual <= 1e-15

    def test_window_ends_on_its_pin(self):
        # the pin lies one rounding step past u_lo from z, within the
        # feasibility tolerance: the last state must still be the pin
        z = 0.3
        pin = float(np.nextafter(z - 0.8, -np.inf))
        system = InventorySystem(T=1, targets=np.zeros(2))
        sol = ftocp.window_law(system, [np.zeros(1)] * 2,
                               TerminalCost.indicator([pin])).solution(
                                   np.array([z]))
        assert sol.states[-1, 0] == pin

    def test_kkt_residual_flags_a_perturbed_state(self):
        targets = ALTERNATING(8)
        system = InventorySystem(T=8, targets=targets, action_weight=0.5)
        law = ftocp.chain_law(system, [np.array([v]) for v in targets],
                              TerminalCost.indicator([-0.4]))
        sol = law.solution(np.array([0.1]))
        assert sol.kkt_residual <= 1e-15
        states = sol.states[:, 0].copy()
        j = int(np.argmin(np.abs(states[1:-1]))) + 1
        assert abs(states[j]) < 0.5
        states[j] += 1e-6
        states, actions = states.tolist(), np.diff(states).tolist()
        # the optimum's multipliers, and the best ones for the new states
        for duals in (sol.duals[:, 0].tolist(),
                      law._duals(states, actions)):
            assert law._kkt_residual(states, actions, duals) > 1e-9

    def test_memo_keys_windows_by_pin_and_solutions_by_start(self):
        # one system solves a window under two pins, and under one of them
        # from two starts: each solution is bitwise that of a fresh system
        targets = ALTERNATING(6)
        params = [np.array([v]) for v in targets]
        shared = InventorySystem(T=6, targets=targets)
        for pin, z in ((-0.4, 0.1), (0.4, 0.1), (0.4, -0.3)):
            term, x = TerminalCost.indicator([pin]), np.array([z])
            got = ftocp.chain_law(shared, params, term).solution(x)
            want = ftocp.chain_law(InventorySystem(T=6, targets=targets),
                                   params, term).solution(x)
            for field in ("states", "actions", "duals", "kkt_residual"):
                assert bits(getattr(got, field)) == bits(getattr(want, field))

    def test_stored_solution_is_read_only(self):
        targets = ALTERNATING(6)
        law = ftocp.chain_law(InventorySystem(T=6, targets=targets),
                              [np.array([v]) for v in targets],
                              TerminalCost.indicator([-0.4]))
        sol = law.solution(np.array([0.1]))
        assert law.solution(np.array([0.1])) is sol
        for a in (sol.states, sol.actions, sol.duals):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_infeasible_start_raises_at_each_laws_step(self):
        # the laws of one window at steps 2 and 5 share its solutions; an
        # infeasible start raises at each law's own step and is not stored,
        # so a feasible start still solves, as on a fresh system
        targets = ALTERNATING(3)
        params = [np.array([v]) for v in targets]
        pin = TerminalCost.indicator([0.0])
        system = InventorySystem(T=8, targets=ALTERNATING(8))
        laws = [ftocp.chain_law(system, params, pin, t1) for t1 in (2, 5)]
        assert laws[0].solutions is laws[1].solutions
        for law in laws:
            with pytest.raises(Infeasible) as ei:
                law.solution(np.array([-1.5]))
            assert ei.value.step == law.t1
        assert not laws[0].solutions
        sol = laws[1].solution(np.array([0.1]))
        fresh = ftocp.chain_law(InventorySystem(T=8, targets=ALTERNATING(8)),
                                params, pin, 5).solution(np.array([0.1]))
        assert bits(sol.states) == bits(fresh.states)

    def test_requires_pinned_terminal(self):
        system = InventorySystem(T=3, targets=np.zeros(4))
        with pytest.raises(ValueError):
            ftocp.window_law(system, [np.zeros(1)] * 4,
                             TerminalCost.zero(1)).solution(np.zeros(1))


def bits(values):
    """The bytes of a float or an array of floats."""
    return np.asarray(values, float).tobytes()


# values at which the chain's state and action bounds tie with a target
TIES = [-1.0, -0.8, 0.0, 0.8, 1.0]
CHAIN_VALUES = st.one_of(st.sampled_from(TIES), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 8),
       u_hi=st.one_of(st.just(np.inf), st.just(0.8), st.floats(0.2, 1.2)),
       action_weight=st.sampled_from([0.0, 0.5, 2.0]),
       z=CHAIN_VALUES, target=CHAIN_VALUES, data=st.data())
def test_chain_solver_matches_oracle(K, u_hi, action_weight, z, target,
                                     data):
    u_lo = -0.8
    # only windows whose straight line from z to the target is feasible
    step = (target - z) / K
    assume(u_lo <= step <= u_hi)
    targets = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(TIES), st.floats(-1.5, 1.5)),
        min_size=K + 1, max_size=K + 1)))
    fresh, filled = (InventorySystem(T=K, targets=targets, u_lo=u_lo,
                                     u_hi=u_hi, action_weight=action_weight)
                     for _ in range(2))
    params = [np.array([v]) for v in targets]
    pin = TerminalCost.indicator([target])
    # other windows fill the memo of one system first: the window's tails,
    # which share all its steps, and windows on other targets and pins;
    # then the window itself is solved from z, so that its second law reads
    # the stored solution
    for j in range(1, K):
        ftocp.window_law(filled, params[j:], pin)
    ftocp.window_law(filled, params[::-1], pin)
    ftocp.window_law(filled, params, TerminalCost.indicator([z]))
    stored = ftocp.window_law(filled, params, pin).solution(np.array([z]))
    law = ftocp.window_law(fresh, params, pin)
    shared = ftocp.window_law(filled, params, pin)
    assert shared.pieces == law.pieces
    sol = law.solution(np.array([z]))
    again = shared.solution(np.array([z]))
    assert again is stored
    for field in ("states", "actions", "duals", "kkt_residual"):
        assert bits(getattr(again, field)) == bits(getattr(sol, field))
    assert bits(ftocp.stage_costs(filled, 0, params, pin, again.states,
                                  again.actions)[1]) == bits(
        ftocp.stage_costs(fresh, 0, params, pin, sol.states, sol.actions)[1])
    xo = oracles.inventory_oracle(z, targets[:K], target, u_lo, u_hi,
                                  action_weight=action_weight)
    assert np.allclose(sol.states[:, 0], xo, rtol=0.0, atol=1e-6)
    assert sol.kkt_residual <= 1e-9


def test_chain_steps_die_with_their_system():
    # a system's chain laws share their windows, their solutions and their
    # backward steps, which the memo holds only while the system lives
    inst = presets.build_preset("inventory-one-sided", T=12)
    regret.sweep_horizon(inst, [2, 4])
    system = weakref.ref(inst.system)
    windows, steps = ftocp._CHAIN_MEMO[inst.system]
    assert steps and windows
    stored = [weakref.ref(sol) for _, solutions in windows.values()
              for sol in solutions.values()]
    assert stored
    del inst, windows, steps
    gc.collect()
    assert system() is None
    assert all(sol() is None for sol in stored)
    assert all(key() is not None for key in ftocp._CHAIN_MEMO.keyrefs())


# start states and pins at a state bound or within 1e-12 of one
NEAR_BOUNDS = st.builds(lambda b, d: b + d, st.sampled_from([-1.0, 1.0]),
                        st.floats(-1e-12, 1e-12))


@settings(max_examples=60, deadline=None)
@given(K=st.integers(1, 8),
       u_hi=st.one_of(st.just(np.inf), st.just(0.8), st.floats(0.2, 1.2)),
       action_weight=st.sampled_from([0.0, 0.5, 2.0]),
       z=st.one_of(CHAIN_VALUES, NEAR_BOUNDS),
       target=st.one_of(CHAIN_VALUES, NEAR_BOUNDS), data=st.data())
def test_chain_float_reads_match_numpy_oracles(K, u_hi, action_weight, z,
                                               target, data):
    # the chain law reads actions, multipliers and KKT residuals on Python
    # floats; the numpy reads of the oracles give the same bits, at the
    # optimum of every tail window [t, K] and at states moved to within
    # 1e-12 of a state bound, where the multipliers' bound tolerance decides
    u_lo = -0.8
    step = (target - z) / K
    assume(u_lo - 1e-12 <= step <= u_hi + 1e-12)
    targets = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(TIES), st.floats(-1.5, 1.5)),
        min_size=K + 1, max_size=K + 1)))
    system = InventorySystem(T=K, targets=targets, u_lo=u_lo, u_hi=u_hi,
                             action_weight=action_weight)
    params = [np.array([v]) for v in targets]
    pin = TerminalCost.indicator([target])
    law = ftocp.window_law(system, params, pin)
    full = law.solution(np.array([z])).states[:, 0]
    for t in range(K):
        tail = ftocp.window_law(system, params[t:], pin, t)
        sol = tail.solution(full[t:t + 1])
        states = sol.states[:, 0]
        us = oracles.chain_actions(system, states)
        duals = oracles.chain_duals(system, targets[t:], states, us)
        assert bits(law.action(t, states[:1])) == bits(us[:1])
        assert bits(sol.actions[:, 0]) == bits(us)
        assert bits(sol.duals[:, 0]) == bits(duals)
        assert bits(sol.kkt_residual) == bits(oracles.chain_kkt_residual(
            system, targets[t:], law.pin, states, us, duals))
        if K - t < 2:
            continue
        moved = states.copy()
        moved[data.draw(st.integers(1, K - t - 1))] = data.draw(NEAR_BOUNDS)
        us = oracles.chain_actions(system, moved)
        duals = oracles.chain_duals(system, targets[t:], moved, us)
        xs = moved.tolist()
        got_us = tail._actions(xs)
        got_duals = tail._duals(xs, got_us)
        assert bits(got_us) == bits(us)
        assert bits(got_duals) == bits(duals)
        assert bits(tail._kkt_residual(xs, got_us, got_duals)) == bits(
            oracles.chain_kkt_residual(system, targets[t:], law.pin, moved,
                                       us, duals))


def tail_law(inst, t):
    """The law of the window [t, T] under the instance's true parameters,
    built on its own."""
    return ftocp.window_law(inst.system, inst.truth[t:], inst.terminal_cost(),
                            t)


class TestClairvoyant:
    def test_first_step_matches_full_solve(self):
        inst = presets.tracking_rand(T=8, seed=4)
        law = ftocp.truth_law(inst)
        sol = law.solution(inst.x0)
        opt = engine.solve_opt(inst)
        assert np.allclose(law.action(0, inst.x0), opt.actions[0], atol=1e-9)
        assert np.allclose(sol.states, opt.states, atol=1e-9)

    @pytest.mark.parametrize("name", ["inventory-two-sided",
                                      "inventory-one-sided"])
    def test_chain_continuation_matches_oracle(self, name):
        inst = presets.build_preset(name)
        sys, T = inst.system, inst.T
        law = ftocp.truth_law(inst)
        opt = engine.solve_opt(inst)
        terminal = float(inst.terminal_param[0])
        for t in range(0, T - 1, 3):
            x = opt.states[t]
            sol = tail_law(inst, t).solution(x)
            xo = oracles.inventory_oracle(float(x[0]), sys.targets[t:T],
                                          terminal, sys.u_lo, sys.u_hi)
            assert np.allclose(sol.states[:, 0], xo, rtol=0.0, atol=1e-6)
            assert np.array_equal(law.action(t, x), sol.actions[0])

    @pytest.mark.parametrize("name", ["inventory-two-sided",
                                      "inventory-one-sided"])
    def test_chain_continuation_from_perturbed_states(self, name):
        inst = presets.build_preset(name, T=40)
        sys, T = inst.system, inst.T
        law = ftocp.truth_law(inst)
        opt = engine.solve_opt(inst)
        terminal = float(inst.terminal_param[0])
        rng = np.random.default_rng(3)
        for t in (1, 14, 27, 35):
            x = np.clip(opt.states[t] + rng.uniform(-0.3, 0.3),
                        sys.x_lo, sys.x_hi)
            sol = tail_law(inst, t).solution(x)
            xo = oracles.inventory_oracle(float(x[0]), sys.targets[t:T],
                                          terminal, sys.u_lo, sys.u_hi)
            assert np.allclose(sol.states[:, 0], xo, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("name", ["inventory-two-sided",
                                      "inventory-one-sided"])
    def test_chain_full_horizon_controller_is_exact(self, name):
        inst = presets.build_preset(name)
        stream = PredictionStream(inst.truth, inst.T, 0.0)
        run = engine.run_mpc(inst, stream, inst.T)
        assert np.array_equal(run.errors, np.zeros(inst.T))
        assert run.total_cost == pytest.approx(
            engine.solve_opt(inst).total_cost, rel=1e-12)


def same_bits(a, b):
    """Equal shapes and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ["tracking-rand", "disturbance", "pendulum",
                                  "grid"])
def test_suffix_is_the_law_of_its_window(name):
    # the truth law's continuation from offset t is the law of the window
    # [t, T] built on its own, bit for bit
    inst = presets.build_preset(name, T=10)
    law = ftocp.truth_law(inst)
    opt = engine.solve_opt(inst)
    for t in range(inst.T + 1):
        tail = law.suffix(t)
        alone = ftocp.window_law(inst.system, inst.truth[t:],
                                 inst.terminal_cost(), t)
        for field in ("t1", "P", "G", "loop"):
            assert same_bits(getattr(tail, field), getattr(alone, field)), t
        got, want = (a.solution(opt.states[t]) for a in (tail, alone))
        for field in ("states", "actions", "duals", "kkt_residual"):
            assert same_bits(getattr(got, field), getattr(want, field)), t


def test_pinned_law_is_read_from_its_first_step():
    inst = presets.tracking_rand(T=12, seed=4)
    law = ftocp.window_law(inst.system, inst.truth[:5],
                           TerminalCost.indicator(np.zeros(2)))
    assert law.pinned
    law.action(0, inst.x0)
    for t in (0, 2, np.array([0]), np.array([0, 2])):
        with pytest.raises(ValueError, match="first step"):
            law.suffix(t)
    with pytest.raises(ValueError, match="first step"):
        law.action(2, inst.x0)


@pytest.mark.parametrize("t,bad", [
    pytest.param(-1, -1, id="-1"), pytest.param(13, 13, id="13"),
    pytest.param(np.array([0, -1, 5]), -1, id="array-below"),
    pytest.param(np.array([3, 12, 13, 14]), 13, id="array-above")])
def test_suffix_outside_the_window_rejected(t, bad):
    # an array of offsets is rejected at its first offset outside 0..T
    law = ftocp.truth_law(presets.tracking_rand(T=12, seed=4))
    with pytest.raises(ValueError, match=f"^offset {bad} outside the window$"):
        law.suffix(t)
