"""Instance construction, forecast streams, declared bound validation, and
the controllability-matrix oracle of the physical examples."""

import numpy as np
import pytest

import oracles
from mpclab import model, presets, regret
from mpclab.model import (Bounds, DisturbanceOnlySystem, Instance,
                          InventorySystem, LinearQuadraticSystem, ModelError,
                          ParamBox, PredictionStream, config_hash,
                          validate_assumptions)
from mpclab.presets import build_instance
from test_engine import gain_tables


def const_system(n=1, m=1, T=4, a=0.5, b=1.0, q=1.0, p=1.0):
    A = a * np.eye(n)
    B = b * np.eye(n)[:, :m]
    return LinearQuadraticSystem(
        n, m, T,
        step_data=lambda ts, xis: (A, B, np.zeros(n), q * np.eye(n),
                                   np.eye(m), np.zeros(n)),
        terminal=lambda xi: (p * np.eye(n), np.zeros(n)),
        bounds=Bounds(mu=1.0, ell=1.0, a=abs(a), b=abs(b)),
        param_box=ParamBox(np.zeros(1), np.ones(1)))


def box_grid(system, points=201):
    """Every step 0..T at every point of a grid of the system's parameter
    box, ``points`` per coordinate: the (ts, xis) of validate_assumptions."""
    box = system.param_box
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(box.lo, box.hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    grid = grid.reshape(-1, box.lo.size)
    ts = np.repeat(np.arange(system.T + 1), len(grid))
    return ts, np.tile(grid, (system.T + 1, 1))


@pytest.mark.parametrize("order", ["C", "F"])
def test_row_norms_equal_per_row_norms_bitwise(order):
    # a strided dot product rounds differently from a contiguous one, in
    # about a third of the rows from width 4 on: the rows are made
    # contiguous first, so a Fortran-ordered stack gives the same norms
    rng = np.random.default_rng(0)
    for width in range(1, 41):
        for scale in (1e-100, 1e-10, 1.0, 1e10, 1e100):
            X = np.asarray(rng.normal(size=(24, width)) * scale, order=order)
            want = np.array([np.linalg.norm(x) for x in X])
            assert np.array_equal(model._row_norms(X), want), (width, scale)
            assert np.array_equal(model._row_norms(X.reshape(4, 6, width)),
                                  want.reshape(4, 6)), (width, scale)


class TestParamBox:
    def test_invalid_box_rejected(self):
        with pytest.raises(ModelError):
            ParamBox(np.array([1.0]), np.array([0.0]))


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
        assert_matches_oracle(stream, truth, 4, RHOS[rho], 3)

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
        rho = stream.rho_table
        k4, k5 = (gain_tables(np.ones(k + 1), np.ones(k + 1)) for k in (4, 5))
        assert regret.per_step_error_bound_rhs(rho, k4, 0.0).shape == (10,)
        with pytest.raises(ValueError):
            regret.per_step_error_bound_rhs(rho, k5, 0.0)

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_horizon_below_one_rejected(self, k):
        with pytest.raises(ModelError, match="horizon k must be >= 1"):
            PredictionStream(np.zeros((11, 1)), k, 0.1, seed=0)

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


def checks_by_name(system, ts, xis):
    """The six checks of validate_assumptions, by name, in their order."""
    return {c.name: c for c in validate_assumptions(system, ts, xis)}


def holds(system, ts, xis):
    return all(c.ok for c in validate_assumptions(system, ts, xis))


class TestValidateAssumptions:
    def test_six_checks_in_order(self):
        checks = checks_by_name(const_system(), *box_grid(const_system(), 3))
        assert list(checks) == ["cost_lower", "cost_upper", "A_bound",
                                "B_bound", "w_bound", "xbar_bound"]
        assert all(isinstance(c, model.Check) for c in checks.values())

    def test_constant_system_passes(self):
        checks = checks_by_name(const_system(), *box_grid(const_system(), 11))
        assert all(c.ok for c in checks.values())
        # a lower bound is written with its sides swapped: mu (less the
        # slack) on the left, the least eigenvalue on the right
        lower = checks["cost_lower"]
        assert (lower.lhs, lower.rhs) == (1.0 - 1e-9, pytest.approx(1.0))

    def test_planted_cost_violation_named(self):
        sys_ = const_system(q=3.0)  # Q exceeds the declared ceiling
        checks = checks_by_name(sys_, *box_grid(sys_, 11))
        assert [n for n, c in checks.items() if not c.ok] == ["cost_upper"]

    def test_planted_cost_floor_violation_named(self):
        # Q = 0.5 I is below the declared floor mu = 1: the swapped sides
        # fail, and by the floor's excess
        sys_ = const_system(q=0.5)
        checks = checks_by_name(sys_, *box_grid(sys_, 11))
        assert [n for n, c in checks.items() if not c.ok] == ["cost_lower"]
        assert checks["cost_lower"].margin == pytest.approx(-0.5)

    def test_sampled_tracking_preset_within_bounds(self):
        inst = presets.tracking_rand(T=10, seed=7)
        checks = validate_assumptions(inst.system, *box_grid(inst.system))
        assert all(c.ok for c in checks), checks

    def test_terminal_weight_read_at_the_final_step_only(self):
        # P_T = 2 I exceeds ell = 1; the stage data of every step are within
        sys_ = const_system(T=4, p=2.0)
        ts, xis = np.arange(4), np.full((4, 1), 0.5)
        assert holds(sys_, ts, xis)
        checks = checks_by_name(sys_, 4, [0.5])
        assert checks["cost_upper"].lhs == 2.0
        assert not holds(sys_, 4, [0.5])
        assert checks["A_bound"].lhs == 0.0   # no stage data given
        checks = checks_by_name(sys_, np.arange(5)[:, None],
                                np.full((5, 1, 1), 0.5))
        assert not checks["cost_upper"].ok and checks["A_bound"].ok

    def test_checks_the_data_it_is_given(self):
        # |w| = 0.4 |xi - 0.5| on the disturbance preset, declared
        # D_w = 0.2: the bound is tight at the box's ends, and a forecast
        # beyond them breaks it
        sys_ = presets.disturbance(T=10).system
        assert holds(sys_, [3, 10], [[0.0], [1.0]])
        checks = checks_by_name(sys_, [3], [[1.1]])
        assert checks["w_bound"].lhs == pytest.approx(0.24)
        assert not checks["w_bound"].ok and not holds(sys_, [3], [[1.1]])

    @pytest.mark.parametrize("ts,xis", [
        ([0, 5], [[0.5], [0.5]]),        # a step past T = 4
        ([-1], [[0.5]]),
        ([0, 1], [[0.5]]),               # one parameter vector for two
        ([0], [[0.5, 0.5]])])            # two parameter coordinates
    def test_data_of_another_shape_rejected(self, ts, xis):
        with pytest.raises(ModelError):
            validate_assumptions(const_system(T=4), ts, xis)

    def test_forecasts_of_a_noisy_run_leave_the_declared_bounds(self):
        # the disturbance preset's own truth satisfies its declared bounds,
        # but 100 of the 513 forecasts of the README run at noise 0.2 leave
        # the parameter box, and the disturbance they give exceeds D_w
        inst = presets.disturbance(T=60, seed=0)
        T, k = inst.T, 8
        steps = np.arange(T + 1)
        assert holds(inst.system, steps, inst.truth)
        stream = PredictionStream(inst.truth, k, 0.2, seed=0)
        made = np.add.outer(steps, np.arange(k + 1)) <= T
        ts = np.add.outer(steps, np.arange(k + 1))[made]
        xis = stream.forecasts[made]
        box = inst.system.param_box
        outside = ~np.all((box.lo <= xis) & (xis <= box.hi), axis=-1)
        assert (outside.sum(), len(xis)) == (100, 513)
        checks = checks_by_name(inst.system, ts, xis)
        assert [name for name, c in checks.items() if not c.ok] == ["w_bound"]
        assert checks["w_bound"].lhs == pytest.approx(0.2774, abs=1e-4)


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

    @pytest.mark.parametrize("u_lo,u_hi", [(0.5, 0.4), (-0.8, np.nan)])
    def test_inventory_rejects_empty_action_interval(self, u_lo, u_hi):
        with pytest.raises(ModelError, match="empty action interval"):
            InventorySystem(T=2, targets=np.zeros(3), u_lo=u_lo, u_hi=u_hi)

    def test_inventory_absent_upper_bound_is_inf(self):
        # a one-sided chain has u_hi = +inf, and None is no bound
        sys_ = presets.build_preset("inventory-one-sided").system
        assert sys_.u_hi == np.inf
        with pytest.raises(TypeError):
            InventorySystem(T=2, targets=np.zeros(3), u_hi=None)

    def test_chain_terminal_needs_a_pin(self):
        inst = Instance(InventorySystem(T=2, targets=np.zeros(3)),
                        np.zeros((3, 1)), np.zeros(1))
        with pytest.raises(ModelError, match="needs a terminal target"):
            inst.terminal_cost()

    @pytest.mark.parametrize("seed", [-1, 2.5, 3.0, True, np.float64(1.0),
                                      None, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ModelError, match="seed must be a nonnegative"):
            Instance(const_system(T=4), np.zeros((5, 1)), np.zeros(1),
                     seed=seed)
        with pytest.raises(ModelError, match="seed must be a nonnegative"):
            build_instance({"kind": "tracking-rand", "T": 4, "seed": seed})

    @pytest.mark.parametrize("seed", [0, 7, np.int64(3), 2 ** 70])
    def test_python_and_numpy_int_seeds_accepted(self, seed):
        inst = Instance(const_system(T=4), np.zeros((5, 1)), np.zeros(1),
                        seed=seed)
        assert inst.seed == seed

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

    def test_step_data_read_only_and_the_maps_arrays_untouched(self):
        # A and w come back at full shape (read-only views), B and Q short
        # of it (broadcast); the map's own arrays stay writeable
        A, w = np.arange(12.0).reshape(3, 2, 2), np.ones((3, 2))
        B, Q = np.ones((2, 1)), np.eye(2)
        sys_ = LinearQuadraticSystem(
            2, 1, 4,
            step_data=lambda ts, xis: (A, B, w, Q, np.eye(1), 0.0),
            terminal=lambda xi: (np.eye(2), np.zeros(2)),
            bounds=Bounds(mu=1.0, ell=1.0, a=1.0, b=1.0),
            param_box=ParamBox(np.zeros(1), np.ones(1)))
        data = sys_.step_data(np.arange(3), np.zeros((3, 1)))
        before = [a.copy() for a in (A, B, w, Q)]
        shapes = [(2, 2), (2, 1), (2,), (2, 2), (1, 1), (2,)]
        for got, own, shape in zip(data, (A, B, w, Q, np.eye(1), 0.0),
                                   shapes):
            assert got.shape == (3,) + shape
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0.0
            want = np.broadcast_to(own, (3,) + shape)
            assert got.tobytes() == want.tobytes()
        assert np.shares_memory(data[0], A) and np.shares_memory(data[2], w)
        for own, old in zip((A, B, w, Q), before):
            assert own.flags.writeable
            assert np.array_equal(own, old)

    def test_lipschitz_dynamics_is_row_norm_bound(self):
        sys_ = const_system(a=0.6, b=0.8)
        assert sys_.lipschitz_dynamics() == pytest.approx(np.hypot(0.6, 0.8))

    def test_chain_lipschitz_dynamics_is_norm_of_one_one(self):
        sys_ = presets.build_preset("inventory-two-sided").system
        assert sys_.lipschitz_dynamics() == np.sqrt(2.0)

    def test_short_horizon_rejected(self):
        with pytest.raises(ModelError):
            const_system(T=1)
