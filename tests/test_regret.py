"""Regret accounting and sweeps."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

import oracles
from mpclab import engine, kkt, presets, regret
from mpclab.model import PredictionStream
from test_engine import gain_tables


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


@st.composite
def exact_instances(draw):
    """A small linear-quadratic instance the exact oracles take: tracking
    with n <= 3 and m <= 2, the disturbance family or the pendulum, at
    T <= 12."""
    name = draw(st.sampled_from(["tracking-rand", "disturbance",
                                 "pendulum"]), label="name")
    T = draw(st.integers(2, 12), label="T")
    seed = draw(st.integers(0, 2 ** 16), label="seed")
    if name == "tracking-rand":
        return presets.tracking_rand(T=T, seed=seed,
                                     n=draw(st.integers(1, 3), label="n"),
                                     m=draw(st.integers(1, 2), label="m"))
    return presets.build_preset(name, T=T, seed=seed)


@settings(max_examples=40, deadline=None)
@given(inst=exact_instances(), data=st.data())
def test_regret_is_exactly_the_sum_of_its_terms(inst, data):
    # computed in Fractions, the regret of any action sequence is the sum
    # of the nonnegative terms d_t'H_t d_t, with no difference at all; the
    # library's hindsight cost is within 1e-12 relative of the optimum
    T, m = inst.T, inst.system.m
    actions = np.reshape(data.draw(st.lists(
        st.floats(-10.0, 10.0, allow_subnormal=False), min_size=T * m,
        max_size=T * m), label="actions"), (T, m))
    ex = oracles.exact_regret(inst, actions)
    assert ex.regret == sum(ex.terms)
    assert all(term >= 0 for term in ex.terms)
    miss = abs(Fraction(engine.solve_opt(inst).total_cost) - ex.optimum)
    if ex.optimum:
        target(float(miss / abs(ex.optimum)),
               label="hindsight cost, relative to the exact optimum")
    assert miss <= Fraction(1e-12) * abs(ex.optimum)


def test_exact_run_oracles_refuse_a_long_run():
    inst = presets.tracking_rand(T=34)     # T (n + m) = 102
    for oracle in (oracles.exact_riccati,
                   lambda inst: oracles.exact_regret(inst, np.zeros(34))):
        with pytest.raises(ValueError, match="too large"):
            oracle(inst)


class TestRegretInequalities:
    def test_zero_error_run_passes(self):
        inst = presets.tracking_rand(T=8, seed=2)
        opt = engine.solve_opt(inst)
        stream = PredictionStream(inst.truth, 8, 0.0)
        run = engine.run_mpc(inst, stream, 8)
        checks = regret.regret_inequalities(
            run, opt, ell=2.0, L_g=inst.system.lipschitz_dynamics(),
            tables=gain_tables(gain_init=np.ones(9)))
        assert [c.name for c in checks] == ["regret", "distance"]
        assert all(c.ok for c in checks)
        assert run.sum_sq_errors <= 1e-16

    def test_constant_formula(self):
        # errors of 1/2 at T = 4 steps (sum e^2 = 1) against an optimum of
        # cost 2: the bound is sqrt(2 c) + c, with 1e-9 to spare
        T, ell, L_g, C3 = 4, 2.0, 1.5, 1.3
        run = engine.TrajectoryRecord(
            np.zeros((T + 1, 1)), np.zeros((T, 1)), np.full(T, 0.5),
            np.zeros(T + 1), np.zeros(T), 3.0)
        opt = dataclasses.replace(run, total_cost=2.0)
        reg, _ = regret.regret_inequalities(
            run, opt, ell, L_g, gain_tables(gain_init=np.r_[C3, np.zeros(8)]))
        c = (ell / 2) * (1 + 2 * C3 * L_g ** 2) * (1 + C3)
        assert reg.lhs == 1.0
        assert reg.rhs - 1e-9 == pytest.approx(np.sqrt(2 * c) + c,
                                               rel=1e-15)

    def test_distance_bound_is_the_causal_sum(self):
        rng = np.random.default_rng(4)
        T, L_g = 40, 1.7
        errors = rng.uniform(0.0, 1.0, size=T)
        gain_init = rng.uniform(0.0, 2.0, size=T + 3)   # longer than needed
        run = engine.TrajectoryRecord(
            np.zeros((T + 1, 1)), np.zeros((T, 1)), errors,
            rng.uniform(0.0, 1.0, size=T + 1), np.zeros(T), 1.0)
        _, dist = regret.regret_inequalities(run, run, 1.0, L_g,
                                             gain_tables(gain_init=gain_init))
        expected = [L_g * sum(gain_init[i] * errors[t - 1 - i]
                              for i in range(t)) for t in range(T + 1)]
        assert dist.lhs.tobytes() == run.distances.tobytes()
        assert dist.rhs - 1e-9 == pytest.approx(expected, rel=1e-13)
        assert dist.rhs[0] == 1e-9

    @staticmethod
    def near_miss_run(total_cost=0.0, distances=None):
        """A run of T = 6 steps with every error 1/2 against an optimum of
        cost 0, so with ell = 2, L_g = 1 and gain_init = (1, 0, ...)
        (C3 = 1) the regret bound is c sum e^2 = 6 * 1.5 = 9 and the
        distance bound is e_{t-1} = 1/2 at every step t > 0."""
        T = 6
        run = engine.TrajectoryRecord(
            np.zeros((T + 1, 1)), np.zeros((T, 1)), np.full(T, 0.5),
            np.zeros(T + 1) if distances is None else distances,
            np.zeros(T), total_cost)
        opt = dataclasses.replace(run, errors=np.zeros(T),
                                  distances=np.zeros(T + 1), total_cost=0.0)
        return regret.regret_inequalities(
            run, opt, 2.0, 1.0, gain_tables(gain_init=np.eye(T)[0]))

    @pytest.mark.parametrize("margin", [1e-6, -1e-6])
    def test_regret_near_its_bound(self, margin):
        # a regret over its bound by 1e-6 relative fails, and its mirror
        # under the bound by as much passes; the distances are 0
        assert self.near_miss_run()[0].rhs == 9.0 + 1e-9
        reg, dist = self.near_miss_run(total_cost=9.0 * (1 + margin))
        assert reg.ok == (margin < 0)
        assert dist.ok

    @pytest.mark.parametrize("margin", [1e-6, -1e-6])
    def test_distance_near_its_bound_at_one_step(self, margin):
        distances = np.zeros(7)
        distances[3] = 0.5 * (1 + margin)
        reg, dist = self.near_miss_run(distances=distances)
        assert dist.rhs[3] == 0.5 + 1e-9
        assert dist.ok == (margin < 0)
        assert dist.worst == (3 if margin > 0 else 0)
        assert reg.ok

    def test_short_gain_table_rejected(self):
        inst = presets.tracking_rand(T=8, seed=2)
        opt = engine.solve_opt(inst)
        with pytest.raises(ValueError):
            regret.regret_inequalities(opt, opt, 2.0, 1.0,
                                       gain_tables(gain_init=np.ones(3)))


class TestSweeps:
    def test_horizon_sweep_nonincreasing(self):
        inst = presets.disturbance(T=20, seed=0)
        res = regret.sweep_horizon(inst, range(2, 7))
        assert np.all(np.diff(res.regrets) <= 1e-9)
        assert res.slope < 0.0
        # each point is the regret of one zero-noise run at its k, and the
        # sweep's worst KKT residual is the worst of those runs
        opt = engine.solve_opt(inst)
        runs = [engine.run_mpc(inst, PredictionStream(inst.truth, k, 0.0), k)
                for k in range(2, 7)]
        assert res.regrets.tolist() == [run.total_cost - opt.total_cost
                                        for run in runs]
        assert res.kkt_residual_max == max(run.kkt_residual_max
                                           for run in runs)

    def test_noise_sweep_monotone(self):
        inst = presets.disturbance(T=20, seed=0)
        res = regret.sweep_noise(inst, [0.1, 0.2, 0.4], 5)
        assert np.all(np.diff(res.regrets) > 0.0)
        assert res.slope > 0.0
        # the fit is in the log of the scale
        assert res.slope == kkt.loglinear_fit(np.log(res.values),
                                              res.regrets)[0]

    def test_too_few_positive_regrets_fit_nothing(self):
        # one regret above the floor (or none) is no line: no slope, no r2
        for regrets in ([0.0, 2e-3, 0.0], [0.0, 0.0, 0.0]):
            assert regret._fit_positive(np.array([1.0, 2.0, 3.0]),
                                        np.array(regrets), log_x=True) == (
                None, None)
        inst = presets.disturbance(T=20, seed=0)
        res = regret.sweep_noise(inst, [0.0, 0.2], 5)
        assert res.regrets[1] > regret.REGRET_FLOOR
        assert (res.slope, res.r2) == (None, None)
