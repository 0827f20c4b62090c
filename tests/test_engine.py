"""Closed-loop controller, per-step error bound, and admission check."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mpclab import cli, engine, ftocp, kkt, presets
from mpclab.kkt import GainTables
from mpclab.model import (Bounds, Instance, LinearQuadraticSystem, ParamBox,
                          PredictionStream, TerminalCost)
from mpclab.regret import per_step_error_bound_rhs, pipeline_admission_check


def quiet_instance(T=6):
    """Stable system with zero disturbance/reference: the origin is optimal."""
    system = LinearQuadraticSystem(
        2, 1, T,
        step_data=lambda ts, xis: (np.array([[0.5, 0.2], [0.0, 0.5]]),
                                   np.array([[1.0], [0.5]]), np.zeros(2),
                                   np.eye(2), np.eye(1), np.zeros(2)),
        terminal=lambda xi: (np.eye(2), np.zeros(2)),
        bounds=Bounds(mu=1.0, ell=1.0, a=0.7, b=1.2),
        param_box=ParamBox(np.zeros(1), np.ones(1)))
    return Instance(system, np.zeros((T + 1, 1)), np.zeros(2))


def terminal_bits(term):
    """The kind, shapes and bytes of a terminal's arrays."""
    return term.kind, [None if a is None else (a.shape, a.tobytes())
                       for a in (term.P, term.xbar, term.target)]


STACK_PRESETS = ["tracking-rand", "disturbance", "pendulum",
                 "inventory-two-sided"]

_window_terminal = engine.window_terminal


def origin_pin(instance, t2, xi):
    """The cap that pins each window short of T to the origin."""
    if np.any(np.asarray(t2) == instance.T):
        return _window_terminal(instance, t2, xi)
    return TerminalCost.indicator(
        np.zeros(np.shape(t2) + (instance.system.n,)))


# the caps a window can take, by the terminal each puts short of T: the
# origin pin, the instance's own terminal at the forecast (the cap of the
# windows that reach T), and the forecast reference pin of window_terminal
WINDOW_CAPS = {
    "zero": origin_pin,
    "true": lambda instance, t2, xi: instance.terminal_cost(xi),
    "predicted_tracking": _window_terminal,
}


class TestTerminalRule:
    """The one cap of every window, ``engine.window_terminal``."""

    def test_final_window_uses_instance_terminal(self):
        inst = quiet_instance()
        term = engine.window_terminal(inst, inst.T, inst.truth[4])
        assert terminal_bits(term) == terminal_bits(
            inst.terminal_cost(inst.truth[4]))

    def test_predicted_tracking_pins_forecast_reference(self):
        inst = presets.tracking_rand(T=8, seed=1)
        params = inst.truth[:5]
        term = engine.window_terminal(inst, 4, params[-1])
        assert term.kind == "indicator"
        assert np.allclose(term.target,
                           inst.system.step_data(4, params[-1])[5])

    def test_predicted_tracking_clips_chain_pin_to_state_interval(self):
        inst = presets.inventory_one_sided(T=12)
        params = inst.truth[:5]
        inside = engine.window_terminal(inst, 4, params[-1])
        assert np.array_equal(inside.target, params[-1])
        for forecast in (1.3, -1.7):
            term = engine.window_terminal(inst, 4, np.array([forecast]))
            assert term.target[0] == np.clip(forecast, -1.0, 1.0)
            # the pin is no farther from the truth than the forecast was
            assert (abs(term.target[0] - params[-1][0])
                    <= abs(forecast - params[-1][0]))

    @pytest.mark.parametrize("name", STACK_PRESETS)
    @pytest.mark.parametrize("kind", list(WINDOW_CAPS))
    def test_stacked_build_matches_per_window_builds(self, name, kind):
        # each row of one cap over a batch of windows is the cap of that
        # window alone, bit for bit, for windows short of T and reaching it;
        # the forecasts stray outside the state interval of the chain
        inst = presets.build_preset(name, T=12)
        cap = WINDOW_CAPS[kind]
        stream = PredictionStream(inst.truth, 4, 0.5, seed=3)
        for t2 in (np.arange(4, 12), np.full(3, 12)):
            xis = stream.forecasts[t2 - 4, 4]   # made four steps before
            got = cap(inst, t2, xis)
            for i in range(len(t2)):
                want = cap(inst, int(t2[i]), xis[i])
                assert terminal_bits(got[i]) == terminal_bits(want), (t2, i)

    def test_build_rejects_windows_that_mix_the_final_step(self):
        inst = quiet_instance()
        with pytest.raises(ValueError, match="final step"):
            engine.window_terminal(inst, np.array([5, 6]), inst.truth[5:7])

    @pytest.mark.parametrize("name", STACK_PRESETS)
    def test_stacked_terminal_cost_matches_per_row_calls(self, name):
        inst = presets.build_preset(name, T=10)
        box = inst.system.param_box
        xis = np.random.default_rng(1).uniform(box.lo, box.hi,
                                               size=(4,) + box.lo.shape)
        got = inst.terminal_cost(xis)
        for i, xi in enumerate(xis):
            assert terminal_bits(got[i]) == terminal_bits(
                inst.terminal_cost(xi))

    @pytest.mark.parametrize("T,k,noise", [(80, 8, 0.2), (60, 8, 0.0),
                                           (20, 4, 0.3)])
    def test_disturbance_runs_alike_under_zero_and_predicted_tracking(
            self, monkeypatch, T, k, noise):
        # the disturbance family's reference point is the origin, so the
        # cap of each window short of T is the origin pin, bit for bit:
        # runs and gain tables read alike with that pin in its place
        inst = presets.disturbance(T=T, seed=1)
        stream = PredictionStream(inst.truth, k, noise, seed=1)
        runs, tables = [], []
        for terminal in (origin_pin, _window_terminal):
            monkeypatch.setattr(engine, "window_terminal", terminal)
            runs.append(engine.run_mpc(inst, stream, k))
            tables.append(kkt.measure_gain_tables(inst, k))
        for name in ("states", "actions", "errors", "distances",
                     "stage_costs", "total_cost", "kkt_residual_max"):
            a, b = (np.asarray(getattr(run, name)) for run in runs)
            assert a.tobytes() == b.tobytes(), name
        for name in ("gain_state", "gain_param", "gain_init"):
            a, b = (getattr(table, name) for table in tables)
            assert a.tobytes() == b.tobytes(), name
        assert [table.basis for table in tables] == ["exact", "exact"]


class TestRunMpc:
    def test_quiet_system_stays_at_origin(self):
        inst = quiet_instance(T=6)
        stream = PredictionStream(inst.truth, 3, 0.0)
        run = engine.run_mpc(inst, stream, 3)
        assert np.all(run.states == 0.0)
        assert np.all(run.errors == 0.0)
        assert run.total_cost == 0.0

    def test_full_window_zero_noise_recovers_optimum(self):
        inst = presets.tracking_rand(T=10, seed=6)
        stream = PredictionStream(inst.truth, 10, 0.0)
        opt = engine.solve_opt(inst)
        run = engine.run_mpc(inst, stream, 10)
        assert float(run.errors.max()) <= 1e-8
        assert run.total_cost - opt.total_cost <= 1e-7

    def test_dynamics_residual_and_total_cost(self):
        inst = presets.tracking_rand(T=10, seed=6)
        stream = PredictionStream(inst.truth, 4, 0.1, seed=1)
        run = engine.run_mpc(inst, stream, 4)
        assert run.dynamics_residual(inst) <= 1e-9
        total = float(run.stage_costs.sum())
        total += inst.terminal_cost().value(run.states[-1])
        assert run.total_cost == pytest.approx(total, abs=1e-12)

    def test_determinism(self):
        inst = presets.disturbance(T=12, seed=2)
        runs = []
        for _ in range(2):
            stream = PredictionStream(inst.truth, 4, 0.2, seed=7)
            runs.append(engine.run_mpc(inst, stream, 4))
        assert np.array_equal(runs[0].states, runs[1].states)
        assert np.array_equal(runs[0].actions, runs[1].actions)
        assert np.array_equal(runs[0].errors, runs[1].errors)

    @pytest.mark.parametrize("name,T,k,noise", [
        ("disturbance", 80, 8, 0.2), ("tracking-rand", 60, 8, 0.1),
        ("tracking-rand", 40, 40, 0.1), ("grid", 30, 6, 0.05),
        ("pendulum", 30, 6, 0.05)])
    def test_committed_action_is_the_first_of_its_window(self, name, T, k,
                                                         noise):
        # each committed action is the first action of the rollout of its
        # window from the realized state, bit for bit, so the run's worst
        # KKT residual is that of the actions it commits
        inst = presets.build_preset(name, T=T)
        stream = PredictionStream(inst.truth, min(k, T), noise,
                                  seed=inst.seed)
        run = engine.run_mpc(inst, stream, k)
        laws = ftocp.window_laws(
            inst.system, [(t, stream.window(t, min(t + k, T)))
                          for t in range(T)],
            functools.partial(engine.window_terminal, inst))
        assert laws.failure is None and len(laws.windows) == T
        for t, (law, w) in enumerate(laws.windows):
            if w == 0:
                _, actions, _ = law.trajectories(run.states[t:t + law.W])
            assert actions[w, 0].tobytes() == run.actions[t].tobytes(), t

    @pytest.mark.parametrize("name,T,k,laws", [
        ("disturbance", 80, 8, 2), ("disturbance", 80, 80, 1),
        ("tracking-rand", 24, 8, 2), ("tracking-rand", 40, 40, 1)])
    def test_one_law_per_batch(self, monkeypatch, name, T, k, laws):
        # besides the truth law, a run builds one law for its windows that
        # stop short of T and one for the k windows that reach it, of k
        # lengths, padded to the longest; its committed actions are those
        # of each window's law built alone, bit for bit
        inst = presets.build_preset(name, T=T)
        stream = PredictionStream(inst.truth, k, 0.1, seed=inst.seed)
        engine.solve_opt(inst)
        calls = []
        build = ftocp.continuation_law

        def counted(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(ftocp, "continuation_law", counted)
        run = engine.run_mpc(inst, stream, k)
        assert len(calls) == laws
        monkeypatch.undo()
        for t in range(T):
            t2 = min(t + k, T)
            params = stream.window(t, t2)
            law = ftocp.window_law(inst.system, params,
                                   engine.window_terminal(inst, t2,
                                                          params[-1]), t)
            assert (law.action(0, run.states[t]).tobytes()
                    == run.actions[t].tobytes()), t

    def test_window_validation(self):
        inst = quiet_instance(T=6)
        stream = PredictionStream(inst.truth, 2, 0.0)
        with pytest.raises(ValueError):
            engine.run_mpc(inst, stream, 0)
        with pytest.raises(ValueError):
            engine.run_mpc(inst, stream, 5)

    def test_stream_of_another_instance_rejected(self):
        # a zero-noise stream drawn around another instance's parameters
        # would report exact forecasts while its errors are not zero
        inst = presets.disturbance(T=15, seed=1)
        other = presets.disturbance(T=20, seed=2)
        stream = PredictionStream(other.truth, 3, 0.0)
        with pytest.raises(ValueError, match="true parameters"):
            engine.run_mpc(inst, stream, 3)
        own = PredictionStream(inst.truth, 3, 0.0)
        engine.run_mpc(inst, own, 3)

    def test_infeasible_run_reports_step(self):
        inst = presets.inventory_two_sided(T=8)
        stream = PredictionStream(inst.truth, 1, 0.0)
        with pytest.raises(ftocp.Infeasible) as ei:
            engine.run_mpc(inst, stream, 1)
        assert ei.value.step is not None


def pendulum_at_rest(T=10):
    inst = presets.pendulum(T=T)
    return dataclasses.replace(inst, x0=np.zeros(4))


def altered_at(sys_, step, off=None, **data):
    """The system ``sys_`` whose step data named in ``data`` take the given
    values at ``step``; with ``off``, only at parameters other than
    ``off``.  Given the true parameter of the step as ``off``, the truth law
    builds, and a window that forecasts the step does not."""
    names = ("A", "B", "w", "Q", "R", "xbar")

    def step_data(ts, xis):
        hit = ts == step
        if off is not None:
            hit = hit & np.any(xis != off, axis=-1)
        return tuple(
            np.where(hit.reshape(hit.shape + (1,) * (a.ndim - hit.ndim)),
                     data[name], a) if name in data else a
            for name, a in zip(names, sys_.step_data(ts, xis)))

    return LinearQuadraticSystem(
        sys_.n, sys_.m, sys_.T, step_data=step_data, terminal=sys_.terminal,
        bounds=sys_.bounds, param_box=sys_.param_box)


def dead_step_system(sys_, step, off=None):
    """The system ``sys_`` with R = B = 0 at ``step`` (see ``altered_at``
    for ``off``)."""
    return altered_at(sys_, step, off, B=np.zeros((sys_.n, sys_.m)),
                      R=np.zeros((sys_.m, sys_.m)))


class TestRunFailures:
    """A window that cannot be solved fails the run, naming its step as the
    window alone would; with several, the earliest fails first."""

    def test_unreachable_pin_names_its_window(self):
        # k = 2 steps of one action cannot move the 4 pendulum states to a
        # given target, so every pinned window fails when it is built,
        # although the resting state meets its pin, the origin; the
        # earliest is named
        inst = pendulum_at_rest()
        stream = PredictionStream(inst.truth, 2, 0.1, seed=1)
        with pytest.raises(ftocp.SingularKKT,
                           match="^pinned terminal unreachable from step 0$"):
            engine.run_mpc(inst, stream, 2)

    def test_singular_step_names_the_step(self):
        base = quiet_instance(T=10)
        inst = Instance(dead_step_system(base.system, 5), base.truth,
                        np.ones(2))
        stream = PredictionStream(inst.truth, 3, 0.1, seed=1)
        with pytest.raises(ftocp.SingularKKT,
                           match="singular R \\+ B'PB at step 5$"):
            engine.run_mpc(inst, stream, 3)
        # the windows' own batch: the step is dead only on forecasts, so
        # the truth law builds and the windows from steps 3 and 4 fail
        inst = Instance(dead_step_system(base.system, 5, base.truth[5]),
                        base.truth, np.ones(2))
        ftocp.truth_law(inst)
        with pytest.raises(ftocp.SingularKKT,
                           match="singular R \\+ B'PB at step 5$"):
            engine.run_mpc(inst, stream, 3)

    def test_non_finite_gain_names_its_step(self):
        # an infinite cost at step 6 reaches the gain of step 5
        # (infinite only on forecasts for the windows' own batch, so that
        # the truth law builds)
        base = quiet_instance(T=10)
        stream = PredictionStream(base.truth, 3, 0.1, seed=1)
        for off in (None, base.truth[6]):
            inst = Instance(altered_at(base.system, 6, off,
                                       Q=np.full((2, 2), np.inf)),
                            base.truth, np.ones(2))
            with pytest.raises(ftocp.SingularKKT,
                               match="non-finite gain at step 5$"), \
                    np.errstate(invalid="ignore"):
                engine.run_mpc(inst, stream, 3)
        ftocp.truth_law(inst)

    def test_batch_names_its_earliest_failing_window(self):
        base = quiet_instance(T=10)
        sys_ = dead_step_system(base.system, 5)
        terminal = TerminalCost.indicator(np.zeros((7, 2)))
        with pytest.raises(ftocp.SingularKKT,
                           match="singular R \\+ B'PB at step 5$") as ei:
            ftocp.continuation_law(sys_, [base.truth[t:t + 4]
                                          for t in range(7)],
                                   terminal, range(7))
        # of the windows of three steps, those from steps 3 .. 5 contain
        # step 5
        assert ei.value.window == 3

    def test_earlier_unreachable_pin_fails_before_a_singular_step(self):
        # the windows that forecast the dead step 8 cannot be built (the
        # truth law can), which the backward pass meets first; no pinned
        # window of 2 steps reaches its pin, and the one from step 0 fails
        # first
        base = pendulum_at_rest()
        inst = Instance(dead_step_system(base.system, 8, base.truth[8]),
                        base.truth, base.x0)
        ftocp.truth_law(inst)
        stream = PredictionStream(inst.truth, 2, 0.1, seed=1)
        with pytest.raises(ftocp.SingularKKT,
                           match="unreachable from step 0$"):
            engine.run_mpc(inst, stream, 2)
        # with windows long enough to reach their pins, the dead step fails
        # the run
        stream = PredictionStream(inst.truth, 4, 0.1, seed=1)
        with pytest.raises(ftocp.SingularKKT,
                           match="singular R \\+ B'PB at step 8$"):
            engine.run_mpc(inst, stream, 4)

    def test_non_finite_residual_raises(self):
        # the windows from steps 6 .. 9 are one law; a NaN start in it
        # makes that law's residuals NaN, which a Python max would drop,
        # leaving the worst residual of the other law (2.5e-16 with the
        # starts below, 3.6e-17 without this law)
        inst = presets.disturbance(T=10)
        laws = ftocp.window_laws(
            inst.system, [(t, inst.truth[t:min(t + 4, 10) + 1])
                          for t in range(10)],
            functools.partial(engine.window_terminal, inst))
        starts = np.zeros((10, inst.system.n))
        starts[8:] = 1.0
        assert 0.0 < laws.kkt_residual_max(starts) < 1e-12
        starts[8, 0] = np.nan
        with pytest.raises(FloatingPointError, match="not finite"):
            laws.kkt_residual_max(starts)


class TestPerInstance:
    """The truth law and the hindsight optimum are built once per instance
    and belong to it alone."""

    def test_built_once(self):
        inst = presets.tracking_rand(T=8)
        assert ftocp.truth_law(inst) is ftocp.truth_law(inst)
        assert engine.solve_opt(inst) is engine.solve_opt(inst)

    def test_replaced_instance_gets_its_own_optimum_and_distances(self):
        inst = presets.tracking_rand(T=8)
        opt = engine.solve_opt(inst)
        moved = dataclasses.replace(inst, x0=inst.x0 + 0.5)
        own = engine.solve_opt(moved)
        want = ftocp.window_law(moved.system, moved.truth,
                                moved.terminal_cost()).solution(moved.x0)
        assert ftocp.truth_law(moved) is not ftocp.truth_law(inst)
        assert np.array_equal(own.states, want.states)
        assert not np.allclose(own.states, opt.states)
        stream = PredictionStream(moved.truth, 4, 0.1, seed=1)
        run = engine.run_mpc(moved, stream, 4)
        assert run.distances[0] == 0.0
        assert np.allclose(run.distances,
                           np.linalg.norm(run.states - want.states, axis=1),
                           rtol=1e-12, atol=0.0)

    def test_optimum_is_read_only(self):
        opt = engine.solve_opt(presets.inventory_two_sided(T=8))
        for a in (opt.states, opt.actions, opt.errors, opt.distances,
                  opt.stage_costs):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_truth_law_is_read_only(self):
        # every later run on the instance reads the same law
        inst = presets.tracking_rand(T=8)
        law = ftocp.truth_law(inst)
        with pytest.raises(ValueError):
            law.G[0, 0, 0, 0] = 1.0
        padded = law.suffix(np.array([3, 5]))
        for a in (law.t1, law.P, law.G, law.loop, law.suffix(3).G,
                  padded.t1, padded.P, padded.G, padded.loop,
                  *(getattr(padded.data, f)
                    for f in ("A", "B", "w", "Q", "R", "xbar"))):
            assert not a.flags.writeable
        pinned = ftocp.window_law(inst.system, inst.truth[:4],
                                  TerminalCost.indicator(np.zeros(2)))
        for a in (pinned.S_inv, pinned.PB):
            assert not a.flags.writeable


def gain_tables(gs=(0.0,), gp=(0.0,), R=1.0, gain_init=(1.0,)):
    """Gain tables of window len(gp) - 1 with the given envelopes and
    radius; their C3 is max(sum of gain_init, 1)."""
    return GainTables(*(np.asarray(a, float) for a in (gs, gp, gain_init)),
                      "exact", R)


class TestErrorBound:
    def test_rhs_closed_form_geometric_tables(self):
        k, T, lam, c = 5, 20, 0.5, 0.3
        R, C3, Dx = 2.0, 1.7, 0.4
        gp = lam ** np.arange(k + 1)
        gs = np.zeros(k + 1)
        rhs = per_step_error_bound_rhs(np.full((T + 1, k + 1), c),
                                       gain_tables(gs, gp, R, [C3]), Dx)
        assert rhs.shape == (T,)
        expected = c * (1 - lam ** (k + 1)) / (1 - lam) + 2 * R * lam ** k
        assert rhs[0] == pytest.approx(expected, rel=1e-12)

    def test_truncation_term_dropped_on_final_stretch(self):
        k, T = 4, 10
        gp = np.ones(k + 1)
        gs = np.zeros(k + 1)
        rhs = per_step_error_bound_rhs(np.zeros((T + 1, k + 1)),
                                       gain_tables(gs, gp), 0.0)
        assert rhs[T - k - 1] == pytest.approx(2.0)  # 2 R gain_param(k)
        assert np.all(rhs[:T - k] == rhs[T - k - 1])
        assert np.all(rhs[T - k:] == 0.0)

    def test_state_coupled_term_uses_radius_over_c3(self):
        k = 2
        gs = np.array([1.0, 0.0, 0.0])
        gp = np.zeros(3)
        rho = np.zeros((11, k + 1))
        rho[8, 0] = 1.0
        rhs = per_step_error_bound_rhs(rho, gain_tables(gs, gp, 3.0, [2.0]),
                                       0.5)
        assert rhs[8] == pytest.approx(3.0 / 2.0 + 0.5)

    def test_window_past_the_final_step_reads_the_whole_table(self):
        # offsets beyond T carry no error, so a window longer than the
        # horizon needs only the offsets 0..T
        rho = PredictionStream(np.zeros((4, 1)), 3, 0.1).rho_table
        rhs = per_step_error_bound_rhs(
            rho, gain_tables(np.zeros(7), np.ones(7)), 0.0)
        assert rhs == pytest.approx([0.3, 0.2, 0.1], rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(T_k=st.integers(2, 30).flatmap(
               lambda T: st.tuples(st.just(T), st.integers(1, T + 2))),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(T_k=(5, 5), seed=0).via("k = T: the bound starts at t = T - k")
    @example(T_k=(4, 6), seed=1).via("k > T: offsets past the final step")
    @example(T_k=(12, 3), seed=2).via("k < T: boundary at t = T - k = 9")
    def test_matches_the_per_step_oracle(self, T_k, seed):
        T, k = T_k
        draw = np.random.default_rng(seed).uniform
        # a stream's table: offsets 0..min(k, T), zero past the final step
        K = min(k, T) + 1
        rho = draw(0.0, 1.0, size=(T + 1, K))
        rho[np.add.outer(np.arange(T + 1), np.arange(K)) > T] = 0.0
        gs, gp = draw(0.0, 2.0, size=(2, k + 1))
        # C3 = max(sum of gain_init, 1) is at least 1
        R, Dx = draw(0.1, 3.0, size=2)
        C3 = draw(1.0, 3.0)
        got = per_step_error_bound_rhs(rho, gain_tables(gs, gp, R, [C3]), Dx)
        want = [oracles.per_step_bound_oracle(
            t, k, T, lambda t, tau: rho[t, tau] if t + tau <= T else 0.0,
            gs, gp, R, C3, Dx) for t in range(T)]
        assert got.shape == (T,)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestAdmission:
    def test_small_noise_admitted(self):
        tables = gain_tables(np.zeros(4), 0.1 * 0.5 ** np.arange(4),
                             gain_init=[1.5])
        rhs = per_step_error_bound_rhs(np.full((11, 4), 0.01), tables,
                                       D_xstar=0.1)
        check = pipeline_admission_check(rhs, tables, L_g=1.2)
        assert check.name == "admission"
        assert check.ok
        assert check.margin > 0.0
        assert check.rhs == pytest.approx(np.full(10, 1.0 / (1.5 ** 2 * 1.2)))

    def test_large_noise_rejected(self):
        tables = gain_tables(np.zeros(4), np.ones(4), gain_init=[1.5])
        rhs = per_step_error_bound_rhs(np.full((11, 4), 5.0), tables,
                                       D_xstar=0.1)
        check = pipeline_admission_check(rhs, tables, L_g=1.2)
        assert not check.ok
        assert check.lhs[check.worst] > check.rhs[check.worst]
        assert 0 <= check.worst < 10

    def test_reads_the_bound_array(self):
        # the worst step is the first where the bound is largest
        rhs = np.array([0.1, 0.4, 0.2, 0.4, 0.0])
        tables = gain_tables()
        check = pipeline_admission_check(rhs, tables, L_g=2.0)
        assert (check.ok, check.worst, check.margin) == (True, 1, 0.5 - 0.4)
        assert check.lhs.tobytes() == rhs.tobytes()
        assert not pipeline_admission_check(rhs, tables, 2.6).ok


class TestCsvExport:
    def test_trajectory_csv_shape(self):
        inst = quiet_instance(T=4)
        stream = PredictionStream(inst.truth, 2, 0.0)
        run = engine.run_mpc(inst, stream, 2)
        text = cli._trajectory_body(run, ["command=test"])
        lines = text.strip().split("\n")
        assert lines[0] == "# command=test"
        assert lines[1].startswith("t,x0,x1,u0,e,dist_opt")
        assert len(lines) == 2 + 5  # header + T+1 rows
        # the last row has no action, error or stage cost
        last = lines[-1].split(",")
        assert len(last) == len(lines[1].split(","))
        assert last[3:5] == ["", ""] and last[-1] == ""
