"""Instance construction, forecast streams, declared bound validation, and
the controllability-matrix oracle of the physical examples."""

import numpy as np
import pytest

import oracles
from mpclab import engine, model, presets, regret
from mpclab.model import (Bounds, DisturbanceOnlySystem, Instance,
                          InventorySystem, LinearQuadraticSystem, ModelError,
                          ParamBox, PredictionStream, config_hash,
                          validate_assumptions)
from mpclab.presets import build_instance


def const_system(n=1, m=1, T=4, a=0.5, b=1.0, q=1.0):
    A = a * np.eye(n)
    B = b * np.eye(n)[:, :m]
    return LinearQuadraticSystem(
        n, m, T,
        step_data=lambda ts, xis: (A, B, np.zeros(n), q * np.eye(n),
                                   np.eye(m), np.zeros(n)),
        terminal=lambda xi: (np.eye(n), np.zeros(n)),
        bounds=Bounds(mu=1.0, ell=1.0, a=abs(a), b=abs(b)),
        param_box=ParamBox(np.zeros(1), np.ones(1)))


class TestParamBox:
    def test_invalid_box_rejected(self):
        with pytest.raises(ModelError):
            ParamBox(np.array([1.0]), np.array([0.0]))

    def test_contains_and_sampling(self):
        box = ParamBox(np.array([-1.0]), np.array([1.0]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            sample = box.sample(rng)
            assert np.all(box.lo <= sample) and np.all(sample <= box.hi)


RHOS = {"constant": 0.3, "zero": 0.0,
        "callable": lambda t, tau: 0.05 * (t + tau) + 0.01 * (t % 3)}


def rho_arg(rho, T, k):
    """What a stream takes for the oracle's rho: the constant itself, or the
    (T+1, k+1) table of the callable."""
    return np.fromfunction(rho, (T + 1, k + 1)) if callable(rho) else rho


def assert_matches_oracle(stream, truth, k, rho, seed, atol=0.0):
    expected = oracles.forecast_oracle(truth, k, rho, seed)
    T = len(truth) - 1
    for t in range(T + 1):
        for tau in range(k + 1):
            got = stream.forecasts[t, tau]
            if (t, tau) in expected:
                if atol == 0.0:
                    assert np.array_equal(got, expected[t, tau]), (t, tau)
                else:
                    assert np.max(np.abs(got - expected[t, tau])) <= atol
            else:
                assert np.all(np.isnan(got)), (t, tau)


class TestPredictionStream:
    @pytest.mark.parametrize("rho", sorted(RHOS))
    @pytest.mark.parametrize("preset", sorted(presets.PRESETS))
    def test_one_parameter_matches_oracle_bitwise(self, preset, rho):
        inst = presets.build_preset(preset, T=12, seed=4)
        stream = PredictionStream(inst.truth, 5, rho_arg(RHOS[rho], 12, 5),
                                  seed=11)
        assert stream.forecasts.shape == (13, 6, 1)
        assert_matches_oracle(stream, inst.truth, 5, RHOS[rho], 11)

    @pytest.mark.parametrize("rho", sorted(RHOS))
    def test_two_parameters_match_oracle(self, rho):
        truth = np.random.default_rng(2).uniform(-1.0, 1.0, size=(10, 2))
        stream = PredictionStream(truth, 4, rho_arg(RHOS[rho], 9, 4), seed=3)
        assert_matches_oracle(stream, truth, 4, RHOS[rho], 3, atol=1e-15)

    def test_zero_schedule_is_bitwise_exact(self):
        base = np.array([[0.3 * t] for t in range(6)])
        stream = PredictionStream(base, 3, 0.0, seed=5)
        for t in range(6):
            for tau in range(min(3, 5 - t) + 1):
                assert np.array_equal(stream.forecasts[t, tau], base[t + tau])

    def test_error_magnitudes_exact(self):
        base = np.tile([1.0, -1.0], (8, 1))
        stream = PredictionStream(base, 4, np.tile(0.1 * np.arange(5), (8, 1)),
                                  seed=2)
        for t in range(8):
            for tau in range(1, min(4, 7 - t) + 1):
                err = np.linalg.norm(stream.forecasts[t, tau] - base[t + tau])
                assert err == pytest.approx(0.1 * tau, abs=1e-13)

    def test_power_matches_realized(self):
        # P(tau), the sum over t of the squared tau-step error, is a column
        # sum of squares of the table
        base = np.zeros((10, 2))
        stream = PredictionStream(
            base, 5, np.fromfunction(lambda t, tau: 0.05 * (t + tau), (10, 6)),
            seed=1)
        power = np.sum(stream.rho_table ** 2, axis=0)
        for tau in range(6):
            realized = sum(
                float(np.linalg.norm(stream.forecasts[t, tau] - base[t + tau])
                      ** 2) for t in range(10 - tau))
            assert power[tau] == pytest.approx(realized, abs=1e-12)

    def test_rho_zero_beyond_final_step(self):
        base = np.zeros((4, 1))
        for rho in (0.7, np.full((4, 4), 0.7)):
            table = PredictionStream(base, 3, rho, seed=0).rho_table
            assert table[2, 2] == 0.0
            assert table[3, 1] == 0.0
            assert table[1, 2] == 0.7
            with pytest.raises(ValueError):
                table[1, 2] = 0.0

    def test_table_ends_at_horizon_k(self):
        # offsets beyond k are not in the table, and a reader that needs
        # them refuses it rather than taking them as exact forecasts
        stream = PredictionStream(np.zeros((11, 1)), 4, 0.1, seed=0)
        assert stream.rho_table.shape == (11, 5)
        assert stream.rho_table[2, 4] == 0.1
        rho, gains = stream.rho_table, np.ones(7)
        assert engine.per_step_error_bound_rhs(rho, 4, gains, gains, 1.0, 1.0,
                                               0.0).shape == (10,)
        assert regret.aggregate_E(rho, 4, gains, gains) > 0.0
        with pytest.raises(ValueError):
            engine.per_step_error_bound_rhs(rho, 5, gains, gains, 1.0, 1.0,
                                            0.0)
        with pytest.raises(ValueError):
            regret.aggregate_E(rho, 5, gains, gains)

    def test_rescaled_magnitudes_keep_directions(self):
        base = np.zeros((6, 2))
        s1 = PredictionStream(base, 2, 0.1, seed=9)
        s2 = PredictionStream(base, 2, 0.2, seed=9)
        d1 = s1.forecasts[1, 2] - base[3]
        d2 = s2.forecasts[1, 2] - base[3]
        assert np.allclose(d2, 2.0 * d1, atol=1e-14)

    def test_negative_schedule_rejected(self):
        base = np.zeros((4, 1))
        with pytest.raises(ModelError):
            PredictionStream(base, 2, -0.1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_non_finite_schedule_rejected(self, bad):
        base = presets.disturbance(T=10).truth
        table = np.full((11, 5), 0.1)
        table[3, 2] = bad
        for rho in (bad, table):
            with pytest.raises(ModelError):
                PredictionStream(base, 4, rho, seed=0)

    @pytest.mark.parametrize("shape", [(11, 4), (10, 5), (11, 5, 1), (5,)])
    def test_table_of_other_shape_rejected(self, shape):
        with pytest.raises(ModelError):
            PredictionStream(np.zeros((11, 1)), 4, np.zeros(shape), seed=0)

    def test_window_is_the_forecast_slice(self):
        base = np.arange(8.0)[:, None]
        stream = PredictionStream(base, 3, 0.1, seed=0)
        window = stream.window(2, 5)
        assert np.array_equal(window, stream.forecasts[2, :4])
        assert len(stream.window(6, 7)) == 2

    @pytest.mark.parametrize("t, t2", [(2, 6), (5, 8)])
    def test_window_beyond_horizon_or_final_step_rejected(self, t, t2):
        stream = PredictionStream(np.zeros((8, 1)), 3, 0.1, seed=0)
        with pytest.raises(ModelError):
            stream.window(t, t2)

    @pytest.mark.parametrize("t, t2", [(5, 3), (-2, 1), (-1, -1)])
    def test_window_reversed_or_negative_rejected(self, t, t2):
        stream = PredictionStream(np.zeros((11, 1)), 4, 0.1, seed=0)
        with pytest.raises(ModelError):
            stream.window(t, t2)

    def test_near_zero_direction_is_redrawn(self, monkeypatch):
        class Draws:
            sizes = []

            def normal(self, size):
                self.sizes.append(size)
                if len(self.sizes) == 1:   # the batch: (0, 1) draws 0
                    return np.array([[1.0], [0.0], [1.0], [1.0], [1.0]])
                return np.array([-2.0])

        monkeypatch.setattr(model.np.random, "default_rng",
                            lambda seed: Draws())
        stream = PredictionStream(np.zeros((3, 1)), 1, 0.5, seed=0)
        assert Draws.sizes == [(5, 1), 1]
        assert stream.forecasts[0, 1, 0] == -0.5
        assert stream.forecasts[1, 1, 0] == 0.5

    def test_forecasts_are_read_only(self):
        base = np.zeros((6, 1))
        stream = PredictionStream(base, 2, 0.1, seed=0)
        base[0] = 1.0   # the stream holds its own copy of the truth
        assert np.array_equal(stream.truth, np.zeros((6, 1)))
        with pytest.raises(ValueError):
            stream.truth[0] = 1.0
        with pytest.raises(ValueError):
            stream.forecasts[0, 1] = 1.0
        with pytest.raises(ValueError):
            stream.window(0, 2)[-1] += 1.0


class TestControllability:
    def test_identity_dynamics_single_step(self):
        As = [np.eye(2)] * 3
        Bs = [np.eye(2)] * 3
        assert np.array_equal(oracles.controllability_matrix(As, Bs, 0, 1),
                              np.eye(2))

    def test_lti_reproduces_kalman_matrix(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 1))
        M = oracles.controllability_matrix([A] * 3, [B] * 3, 0, 3)
        kalman = np.hstack([A @ A @ B, A @ B, B])
        assert np.allclose(M, kalman, atol=1e-12)


class TestValidateAssumptions:
    def test_constant_system_passes(self):
        report = validate_assumptions(const_system(), samples=50, seed=0)
        assert report["ok"]
        assert report["cost_lower"]["worst"] == pytest.approx(1.0)

    def test_planted_cost_violation_named(self):
        sys_ = const_system(q=3.0)  # Q exceeds the declared ceiling
        report = validate_assumptions(sys_, samples=20, seed=0)
        assert not report["ok"]
        assert not report["cost_upper"]["ok"]

    def test_sampled_tracking_preset_within_bounds(self):
        inst = presets.tracking_rand(T=10, seed=7)
        report = validate_assumptions(inst.system, samples=300, seed=7)
        assert report["ok"], report


class TestInstances:
    def test_inventory_alternating_targets(self):
        inst = presets.build_preset("inventory-two-sided", T=8)
        targets = [float(inst.truth[t][0]) for t in range(9)]
        assert targets == [(-0.8 if t % 2 == 0 else 0.8) for t in range(9)]

    def test_inventory_needs_target_count(self):
        with pytest.raises(ModelError):
            InventorySystem(T=4, targets=np.zeros(3))

    @pytest.mark.parametrize("T", [0, -1])
    def test_inventory_needs_a_step(self, T):
        # T + 1 targets would pass the count check, but no window can act
        with pytest.raises(ModelError, match="horizon T must be >= 1"):
            InventorySystem(T=T, targets=np.zeros(max(T + 1, 0)))

    def test_inventory_rejects_negative_action_weight(self):
        with pytest.raises(ModelError):
            InventorySystem(T=2, targets=np.zeros(3), action_weight=-1.0)

    def test_chain_truth_must_lie_in_the_state_interval(self):
        # a stock chain's parameters are its targets, and its parameter box
        # is the state interval, which holds the presets' targets
        for name in ("inventory-two-sided", "inventory-one-sided"):
            sys_ = presets.build_preset(name).system
            assert (sys_.param_box.lo, sys_.param_box.hi) == (
                [sys_.x_lo], [sys_.x_hi])
        targets = np.array([0.0, 1.2, 0.0])
        with pytest.raises(ModelError, match="parameter box"):
            Instance(InventorySystem(T=2, targets=targets), targets[:, None],
                     np.zeros(1), terminal_param=np.zeros(1))

    def test_build_instance_unknown_kind(self):
        with pytest.raises(ModelError):
            build_instance({"kind": "no-such-system"})

    def test_build_instance_dispatch_and_overrides(self):
        inst = build_instance({"kind": "disturbance"}, T=10, seed=3)
        assert inst.T == 10 and inst.seed == 3

    def test_truth_is_a_read_only_array(self):
        caller = [np.full(1, 0.1 * t) for t in range(5)]
        inst = Instance(const_system(T=4), caller, np.zeros(1))
        assert inst.truth.shape == (5, 1)
        with pytest.raises(ValueError):
            inst.truth[2] = 1.0
        with pytest.raises(ValueError):
            inst.truth[1:3][0, 0] = 1.0
        caller[2][0] = 7.0   # the instance holds its own copy
        assert inst.truth[2, 0] == pytest.approx(0.2)

    def test_initial_state_and_terminal_pin_are_read_only(self):
        x0 = np.zeros(1)
        inst = presets.inventory_two_sided(T=8)
        inst = Instance(inst.system, inst.truth, x0,
                        terminal_param=inst.terminal_param)
        x0[0] = 0.5   # the instance holds its own copy
        assert inst.x0[0] == 0.0
        with pytest.raises(ValueError):
            inst.x0[0] = 1.0
        with pytest.raises(ValueError):
            inst.terminal_param[0] = 1.0

    def test_instances_are_hashed_by_identity(self):
        inst = Instance(const_system(T=4), np.zeros((5, 1)), np.zeros(1))
        twin = Instance(inst.system, inst.truth, inst.x0)
        assert inst != twin and inst == inst
        assert len({inst, twin, inst}) == 2

    def test_truth_needs_one_row_per_step(self):
        with pytest.raises(ModelError):
            Instance(const_system(T=4), np.zeros((4, 1)), np.zeros(1))
        with pytest.raises(ModelError):
            Instance(const_system(T=4), np.zeros(5), np.zeros(1))

    def test_preset_determinism(self):
        a = presets.build_preset("tracking-rand", T=12, seed=4)
        b = presets.build_preset("tracking-rand", T=12, seed=4)
        for t in range(13):
            assert np.array_equal(a.truth[t], b.truth[t])
        assert np.array_equal(a.x0, b.x0)

    def test_config_hash_stable_and_order_free(self):
        h1 = config_hash({"a": 1, "b": [2, 3]})
        h2 = config_hash({"b": [2, 3], "a": 1})
        assert h1 == h2 and len(h1) == 16


class TestSystemFamilies:
    def test_disturbance_system_kind_and_zero_reference(self):
        inst = presets.build_preset("disturbance", T=10)
        sys_ = inst.system
        assert isinstance(sys_, DisturbanceOnlySystem)
        xi = np.array([0.9])
        assert np.array_equal(sys_.step_data(3, xi)[5], np.zeros(2))
        assert np.array_equal(sys_.pin_target(3, xi), np.zeros(2))
        assert sys_.bounds.L_A == 0.0 and sys_.bounds.D_xbar == 0.0

    def test_lipschitz_dynamics_is_row_norm_bound(self):
        sys_ = const_system(a=0.6, b=0.8)
        assert sys_.lipschitz_dynamics() == pytest.approx(np.hypot(0.6, 0.8))

    def test_short_horizon_rejected(self):
        with pytest.raises(ModelError):
            const_system(T=1)
