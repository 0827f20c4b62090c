"""Regret accounting, aggregate error budgets, and sweeps."""

import numpy as np
import pytest

import oracles
from mpclab import engine, presets, regret
from mpclab.engine import TerminalRule
from mpclab.model import PredictionStream


class TestSolveOpt:
    def test_tracking_matches_oracle(self):
        inst = presets.tracking_rand(T=10, seed=9)
        sys = inst.system
        data = [sys.step_data(t, inst.truth[t]) for t in range(10)]
        term = inst.terminal_cost()
        so, ao = oracles.lq_ocp_oracle(
            [d[0] for d in data], [d[1] for d in data],
            [d[2] for d in data], [d[3] for d in data],
            [d[4] for d in data], [d[5] for d in data],
            inst.x0, ("quadratic", term.P, term.xbar))
        opt = engine.solve_opt(inst)
        assert np.allclose(opt.states, so, atol=1e-7)
        assert np.allclose(opt.actions, ao, atol=1e-7)

    def test_chain_matches_oracle(self):
        inst = presets.inventory_two_sided(T=8)
        targets = np.array([float(inst.truth[t][0]) for t in range(9)])
        terminal = float(inst.terminal_param[0])
        xo = oracles.inventory_oracle(0.0, targets[:8], terminal, -0.8, 0.8)
        opt = engine.solve_opt(inst)
        assert np.allclose(opt.states[:, 0], xo, atol=1e-6)
        # reported cost adds the (constant) stage cost of the pinned terminal
        obj = float(np.sum((xo[:8] - targets[:8]) ** 2))
        extra = (terminal - targets[8]) ** 2
        assert opt.total_cost == pytest.approx(obj + extra, abs=1e-6)


class TestRegretInequalities:
    def test_zero_error_run_passes(self):
        inst = presets.tracking_rand(T=8, seed=2)
        opt = engine.solve_opt(inst)
        stream = PredictionStream(inst.truth, 8, 0.0)
        run = engine.run_mpc(inst, stream, 8, TerminalRule("true"))
        rep = regret.regret_inequalities(
            run, opt, ell=2.0, L_g=inst.system.lipschitz_dynamics(),
            C3=1.0, gain_init=np.ones(9))
        assert rep.regret_ok and rep.distance_ok
        assert rep.sum_sq_errors <= 1e-16

    def test_constant_formula(self):
        inst = presets.tracking_rand(T=8, seed=2)
        opt = engine.solve_opt(inst)
        stream = PredictionStream(inst.truth, 8, 0.0)
        run = engine.run_mpc(inst, stream, 8, TerminalRule("true"))
        ell, L_g, C3 = 2.0, 1.5, 1.3
        rep = regret.regret_inequalities(run, opt, ell, L_g, C3, np.ones(9))
        assert rep.constant_c == pytest.approx(
            (ell / 2) * (1 + 2 * C3 * L_g ** 2) * (1 + C3))

    def test_distance_bound_is_the_causal_sum(self):
        rng = np.random.default_rng(4)
        T, L_g = 40, 1.7
        errors = rng.uniform(0.0, 1.0, size=T)
        gain_init = rng.uniform(0.0, 2.0, size=T + 3)   # longer than needed
        run = engine.TrajectoryRecord(
            np.zeros((T + 1, 1)), np.zeros((T, 1)), errors,
            rng.uniform(0.0, 1.0, size=T + 1), np.zeros(T), 1.0)
        rep = regret.regret_inequalities(run, run, 1.0, L_g, 1.0, gain_init)
        expected = [L_g * sum(gain_init[i] * errors[t - 1 - i]
                              for i in range(t)) for t in range(T + 1)]
        assert rep.distance_rhs == pytest.approx(expected, rel=1e-13)
        assert rep.distance_rhs[0] == 0.0

    def test_short_gain_table_rejected(self):
        inst = presets.tracking_rand(T=8, seed=2)
        opt = engine.solve_opt(inst)
        with pytest.raises(ValueError):
            regret.regret_inequalities(opt, opt, 2.0, 1.0, 1.0, np.ones(3))


class TestAggregateBudget:
    def test_geometric_closed_form(self):
        k, T, lam, p0 = 6, 30, 0.4, 0.7
        gp = lam ** np.arange(k + 1)
        gs = np.zeros(k + 1)
        rho = np.zeros((T + 1, k + 1))
        rho[0] = np.sqrt(p0)   # P(tau) = p0 at every offset
        E = regret.aggregate_E(rho, k, gs, gp)
        expected = p0 * (1 - lam ** k) / (1 - lam) + lam ** (2 * k) * T
        assert E == pytest.approx(expected, rel=1e-12)

    def test_constant_stream_budget(self):
        # a constant magnitude c has P(tau) = (T + 1 - tau) c^2 for tau >= 1,
        # and a window longer than the horizon reads offsets 0..T only
        T, c = 5, 0.3
        rng = np.random.default_rng(1)
        gs, gp = rng.uniform(0.0, 1.0, size=(2, 9))
        for k in (3, 5, 8):
            rho = PredictionStream(np.zeros((T + 1, 1)), min(k, T),
                                   c).rho_table
            expected = sum((gs[tau] + gp[tau]) * (T + 1 - tau) * c ** 2
                           for tau in range(1, min(k, T + 1)))
            expected += (gs[k] ** 2 + gp[k] ** 2) * T
            assert regret.aggregate_E(rho, k, gs, gp) == pytest.approx(
                expected, rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            regret.aggregate_E(np.zeros((11, 5)), 4, np.zeros(3), np.zeros(5))
        with pytest.raises(ValueError):
            regret.aggregate_E(np.zeros((11, 3)), 4, np.zeros(5), np.zeros(5))


class TestSweeps:
    def test_horizon_sweep_nonincreasing(self):
        inst = presets.disturbance(T=20, seed=0)
        res = regret.sweep_horizon(inst, range(2, 7), TerminalRule("zero"))
        assert np.all(np.diff(res.regrets) <= 1e-9)
        assert res.slope < 0.0

    def test_horizon_sweep_keeps_caller_reference(self):
        inst = presets.disturbance(T=15, seed=1)
        opt = engine.solve_opt(inst)
        # pinning each window to the hindsight states reproduces them (zero
        # regret); a constant target does not
        for states, zero in ((opt.states, True),
                             (np.full_like(opt.states, 0.5), False)):
            rule = TerminalRule("reference", reference_states=states)
            res = regret.sweep_horizon(inst, [3, 5], rule)
            residuals = []
            for k, got in zip((3, 5), res.regrets):
                stream = PredictionStream(inst.truth, k, 0.0, seed=inst.seed)
                run = engine.run_mpc(inst, stream, k, TerminalRule(
                    "reference", reference_states=states))
                assert got == pytest.approx(run.total_cost - opt.total_cost,
                                            rel=1e-12, abs=1e-15)
                assert (abs(got) <= 1e-12) == zero
                residuals.append(run.kkt_residual_max)
            assert res.kkt_residual_max == max(residuals)

    def test_reference_rule_belongs_to_its_instance(self):
        # a reference rule holds the nominal trajectory of the instance it
        # was built for, so a rule used on one instance cannot leak into a
        # sweep on another
        insts = [presets.disturbance(T=15, seed=s) for s in (1, 2)]
        rules = [TerminalRule.reference(inst) for inst in insts]
        for inst, rule in zip(insts, rules):
            sys_ = inst.system
            zero = np.zeros_like(inst.truth)
            data = [sys_.step_data(t, zero[t]) for t in range(inst.T)]
            term = inst.terminal_cost(zero[-1])
            nominal, _ = oracles.lq_ocp_oracle(
                *([d[i] for d in data] for i in range(6)), inst.x0,
                ("quadratic", term.P, term.xbar))
            assert np.allclose(rule.reference_states, nominal, atol=1e-9)
        regrets = [regret.sweep_horizon(inst, [3], rule).regrets[0]
                   for inst, rule in zip(insts, rules)]
        assert regrets[1] == pytest.approx(2.30e-3, rel=2e-3)
        with pytest.raises(ValueError):
            regret.sweep_horizon(presets.disturbance(T=20, seed=2), [3],
                                 rules[0])

    def test_noise_sweep_monotone(self):
        inst = presets.disturbance(T=20, seed=0)
        res = regret.sweep_noise(inst, [0.1, 0.2, 0.4], 5,
                                 TerminalRule("zero"))
        assert np.all(np.diff(res.regrets) > 0.0)
        assert res.slope > 0.0
        assert res.log_x

    def test_too_few_positive_regrets_fit_nothing(self):
        # one regret above the floor (or none) is no line: no slope, no r2
        for regrets in ([0.0, 2e-3, 0.0], [0.0, 0.0, 0.0]):
            assert regret._fit_positive(np.array([1.0, 2.0, 3.0]),
                                        np.array(regrets), log_x=True) == (
                None, None, None)
        inst = presets.disturbance(T=20, seed=0)
        res = regret.sweep_noise(inst, [0.0, 0.2], 5, TerminalRule("zero"))
        assert res.regrets[1] > regret.REGRET_FLOOR
        assert (res.slope, res.intercept, res.r2) == (None, None, None)
