"""The continuation law (one backward Riccati pass) versus the independent
null-space oracle, on random instances and through the controller."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mpclab import engine, ftocp, kkt, presets
from mpclab.engine import TerminalRule
from mpclab.ftocp import FtocpSpec, SingularKKT
from mpclab.model import (Bounds, Instance, LinearQuadraticSystem, ParamBox,
                          ParamSeq, PredictionStream, TerminalCost)


def _spd(rng, d, lo=0.5, hi=2.0):
    Qo, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return Qo @ np.diag(rng.uniform(lo, hi, size=d)) @ Qo.T


def _scaled(rng, shape, norm):
    M = rng.normal(size=shape)
    return M * (norm / np.linalg.norm(M, 2))


def random_system(rng, n, m, T, R=None):
    """Time-varying LQ system whose step data ignore the parameter."""
    A = [_scaled(rng, (n, n), rng.uniform(0.3, 1.2)) for _ in range(T)]
    B = [_scaled(rng, (n, m), rng.uniform(0.5, 1.5)) for _ in range(T)]
    w = [0.3 * rng.normal(size=n) for _ in range(T)]
    Q = [_spd(rng, n) for _ in range(T)]
    Rs = [_spd(rng, m) for _ in range(T)] if R is None else R
    xbar = [0.5 * rng.normal(size=n) for _ in range(T)]
    return LinearQuadraticSystem(
        n, m, T,
        A=lambda t, xi: A[t], B=lambda t, xi: B[t], w=lambda t, xi: w[t],
        Q=lambda t, xi: Q[t], R=lambda t, xi: Rs[t],
        xbar=lambda t, xi: xbar[t],
        P_T=lambda xi: np.eye(n), xbar_T=lambda xi: np.zeros(n),
        bounds=Bounds(mu=0.5, ell=2.0, a=1.2, b=1.5),
        param_box=ParamBox(np.zeros(1), np.ones(1)))


def oracle_continuation(system, params, terminal, t, z):
    """States and actions of the window [t, T] from the null-space oracle."""
    T = len(params) - 1
    data = [system.step_data(s, params[s]) for s in range(t, T)]
    term = (("quadratic", terminal.P, terminal.xbar)
            if terminal.kind == "quadratic" else ("zero",))
    return oracles.lq_ocp_oracle(*[[d[i] for d in data] for i in range(6)],
                                 np.asarray(z, float), term)


def rel_err(got, want):
    return float(np.max(np.abs(got - want))) / max(1.0, np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 2), T=st.integers(2, 30),
       quadratic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_law_matches_oracle(n, m, T, quadratic, seed, data):
    rng = np.random.default_rng(seed)
    system = random_system(rng, n, m, T)
    params = [np.zeros(1)] * (T + 1)
    terminal = (TerminalCost.quadratic(_spd(rng, n), rng.normal(size=n))
                if quadratic else TerminalCost.zero(n))
    t = data.draw(st.integers(0, T - 1), label="t")
    x = rng.normal(size=n)
    sol = ftocp.continuation_law(system, params, terminal).solution(t, x)
    so, ao = oracle_continuation(system, params, terminal, t, x)
    assert (sol.t1, sol.t2) == (t, T)
    assert rel_err(sol.states, so) <= 1e-9
    assert rel_err(sol.actions, ao) <= 1e-9
    assert sol.kkt_residual <= 1e-8
    saddle = ftocp.solve_quadratic(FtocpSpec(t, T, x, params[t:], terminal),
                                   system)
    assert rel_err(sol.duals, saddle.duals) <= 1e-9
    assert sol.value == pytest.approx(saddle.value, rel=1e-9, abs=1e-12)


def test_run_errors_match_oracle_continuation():
    inst = presets.tracking_rand(T=10, seed=3)
    sys_ = inst.system
    params = [inst.truth[s] for s in range(inst.T + 1)]
    terminal = inst.terminal_cost()
    stream = PredictionStream(inst.truth, 3, 0.1, seed=2)
    run = engine.run_mpc(inst, stream, 3, TerminalRule("predicted_tracking"))
    assert np.any(run.errors > 1e-6)
    for t in range(inst.T):
        _, ao = oracle_continuation(sys_, params, terminal, t, run.states[t])
        want = float(np.linalg.norm(run.actions[t] - ao[0]))
        assert run.errors[t] == pytest.approx(want, rel=1e-8, abs=1e-11)


def test_gain_init_matches_oracle_jacobians():
    inst = presets.tracking_rand(T=8, seed=2)
    sys_ = inst.system
    T, n = inst.T, sys_.n
    params = [inst.truth[s] for s in range(T + 1)]
    terminal = inst.terminal_cost()
    opt_states, _ = oracle_continuation(sys_, params, terminal, 0, inst.x0)
    want = np.zeros(T + 1)
    for t in range(T):
        K = T - t

        def flat(z, _t=t):
            s, a = oracle_continuation(sys_, params, terminal, _t, z)
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
    tables = kkt.measure_gain_tables(
        inst, 3, TerminalRule("predicted_tracking"), opt_states, R=1.0)
    assert np.allclose(tables.gain_init, want, rtol=1e-7, atol=0.0)


def test_zero_terminal_with_zero_last_action_weight_is_singular():
    T, m = 4, 2
    rng = np.random.default_rng(0)
    R = [np.eye(m)] * (T - 1) + [np.zeros((m, m))]
    system = random_system(rng, 2, m, T, R=R)
    params = [np.zeros(1)] * (T + 1)
    with pytest.raises(SingularKKT):
        ftocp.continuation_law(system, params, TerminalCost.zero(2))
    system.P_T = lambda xi: np.zeros((2, 2))
    inst = Instance(system, ParamSeq(params), np.ones(2))
    with pytest.raises(SingularKKT):
        engine.solve_opt(inst)


def test_pinned_terminal_rejected():
    rng = np.random.default_rng(1)
    system = random_system(rng, 2, 1, 3)
    with pytest.raises(ValueError):
        ftocp.continuation_law(system, [np.zeros(1)] * 4,
                               TerminalCost.indicator(np.zeros(2)))
