"""Preset instances, physical examples, and chain perturbation studies."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mpclab import cli, ftocp, kkt, presets
from mpclab.model import InventorySystem, ModelError, TerminalCost
from test_model import box_grid, holds


def inventory_sensitivity_profile(p, one_sided):
    """Forward-difference sensitivity of each state to the terminal pin on
    the alternating chain, by offset from the pin; returns (offsets,
    profile, DecayFit).

    The perturbation is one-sided (toward the interior) because the
    closed-form responses only cover nonnegative terminal shifts.  The
    one-sided-constraint study adds a smooth action cost of weight 2 so the
    steps couple smoothly: the pure tracking cost makes the solution map
    block-separable and its sensitivity support finite, which certifies
    decay trivially but carries no rate information.  Two-sided constraints
    at the alternating optimum give a flat profile.
    """
    targets = np.where(np.arange(p + 1) % 2, 0.8, -0.8)
    system = InventorySystem(T=p, targets=targets, u_lo=-0.8,
                             u_hi=np.inf if one_sided else 0.8,
                             action_weight=2.0 if one_sided else 0.0)
    params = [np.array([v]) for v in targets]
    base = -2.0 / 5.0 if p % 2 == 0 else 2.0 / 5.0
    step = 1e-5

    def states_at(target):
        sol = ftocp.window_law(system, params, TerminalCost.indicator(
            np.array([target]))).solution(np.zeros(1))
        return sol.states[:, 0]

    sens = np.abs(states_at(base + step) - states_at(base)) / step
    offsets = np.arange(p, dtype=float)   # offset p - h of state h = p..1
    profile = sens[:0:-1]
    fit = kkt.fit_decay(offsets, np.maximum(profile, 1e-300))
    return offsets, profile, fit


def reference_step_data(name, T, seed):
    """The preset ``name`` at T and seed, an independent per-entry
    reference of its step data, step_data(t, xi) of one step, and the truth
    that reference draws (None where the preset's truth is not random)."""
    inst = presets.build_preset(name, T=T, seed=seed)
    truth = None
    if name == "tracking-rand":
        reference, truth, _, _ = oracles.tracking_rand_data(T, seed, 2, 1)
    elif name == "disturbance":
        reference, truth = oracles.disturbance_data(T, seed)
    elif name == "pendulum":
        reference = oracles.regulation_step_data(
            lambda M: oracles.pendulum_matrices(M,
                                                **presets.PENDULUM_DEFAULTS),
            4, 1)
    elif name == "grid":
        reference = oracles.regulation_step_data(
            lambda m_val: oracles.grid_matrices(
                m_val, n_nodes=3, delta=presets.GRID_DEFAULTS["delta"]),
            6, 3)
    else:
        reference = oracles.chain_step_data(inst.system.action_weight)
    return inst, reference, truth


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(presets.PRESETS)),
       shape=st.sampled_from(["()", "(k,)", "(W, k)"]),
       k=st.integers(1, 5), W=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_stacked_step_data_matches_per_entry_reference(name, shape, k, W,
                                                       seed):
    # one stacked call on a batch of steps and parameters equals the
    # reference called entry by entry, bitwise; an int step gives the
    # arrays of one step
    T = 10
    inst, reference, truth = reference_step_data(name, T, seed % 4)
    if truth is not None:
        assert np.array_equal(inst.truth, truth)
    box = inst.system.param_box
    rng = np.random.default_rng(seed)
    dims = {"()": (), "(k,)": (k,), "(W, k)": (W, k)}[shape]
    ts = rng.integers(0, T, size=dims)
    xis = rng.uniform(box.lo, box.hi, size=dims + box.lo.shape)
    got = inst.system.step_data(int(ts) if shape == "()" else ts, xis)
    for idx in np.ndindex(dims):
        want = reference(int(ts[idx]), xis[idx])
        for g, w in zip(got, want, strict=True):
            assert g[idx].shape == w.shape
            assert np.array_equal(g[idx], w), (idx, g[idx], w)


@pytest.mark.parametrize("T", [8, 20, 24, 80, 96])
@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_instances_match_one_draw_per_vector(name, T):
    # a preset draws each stack of unit vectors in one call and normalizes
    # the rows together; every instance equals, bitwise, the per-entry
    # reference, which draws and normalizes one vector at a time
    # (tracking-rand also with one and three states)
    for seed in range(16):
        inst, reference, truth = reference_step_data(name, T, seed)
        cases = [(inst, reference, truth, None)]
        if name == "tracking-rand":
            cases = []
            for n in (1, 2, 3):
                step_data, truth, x0, _ = oracles.tracking_rand_data(
                    T, seed, n, 1)
                cases.append((presets.tracking_rand(T=T, seed=seed, n=n),
                              step_data, truth, x0))
        for inst, reference, truth, x0 in cases:
            if truth is not None:
                assert np.array_equal(inst.truth, truth), seed
            if x0 is not None:
                assert np.array_equal(inst.x0, x0), seed
            got = inst.system.step_data(np.arange(T), inst.truth[:T])
            for t in range(T):
                for g, w in zip(got, reference(t, inst.truth[t]),
                                strict=True):
                    assert np.array_equal(g[t], w), (seed, t)


class TestTrackingRand:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (1, 1)])
    @pytest.mark.parametrize("T", [2, 8, 24, 96])
    def test_batched_build_matches_per_matrix_draws(self, T, n, m):
        for seed in range(6):
            inst = presets.tracking_rand(T=T, seed=seed, n=n, m=m)
            step_data, truth, x0, P_T = oracles.tracking_rand_data(
                T, seed, n, m)
            assert np.array_equal(inst.truth, truth)
            assert np.array_equal(inst.x0, x0)
            assert np.array_equal(inst.terminal_cost().P, P_T)
            for t in range(T):
                xi = inst.truth[t]
                for got, want in zip(inst.system.step_data(t, xi),
                                     step_data(t, xi)):
                    assert got.shape == want.shape, (seed, t)
                    assert np.array_equal(got, want), (seed, t)


class TestPendulum:
    def test_determinant_matches_closed_form(self):
        for M in (0.4, 0.5, 0.55, 0.6):
            A, B = presets.pendulum_matrices(M, **presets.PENDULUM_DEFAULTS)
            C = oracles.controllability_matrix([A] * 4, [B] * 4, 0, 4)
            det = abs(float(np.linalg.det(C)))
            closed = oracles.pendulum_det_closed_form(
                M, **presets.PENDULUM_DEFAULTS)
            assert det == pytest.approx(closed, rel=1e-8)

    def test_declared_bounds_validate(self):
        inst = presets.pendulum(T=10)
        assert holds(inst.system, *box_grid(inst.system))


class TestGrid:
    def test_two_step_determinant_lower_bound(self):
        d = presets.GRID_DEFAULTS
        L = presets.path_laplacian(d["n_nodes"])
        D = np.eye(d["n_nodes"])
        bound = oracles.grid_det_lower_bound(d["n_nodes"], d["delta"],
                                             d["m_hi"])
        xs = np.linspace(d["m_lo"], d["m_hi"], 20)
        for m1, m2 in zip(xs[:-1], xs[1:]):
            A1, B1 = presets.grid_matrices(m1, L=L, D=D, delta=d["delta"])
            A2, B2 = presets.grid_matrices(m2, L=L, D=D, delta=d["delta"])
            C = oracles.controllability_matrix([A1, A2], [B1, B2], 0, 2)
            assert abs(float(np.linalg.det(C))) >= bound

    def test_declared_bounds_validate(self):
        inst = presets.grid(T=10)
        assert holds(inst.system, *box_grid(inst.system))

    def test_truth_drawn_over_the_declared_box(self):
        # the box is GRID_DEFAULTS' inertia interval, and the draws over it
        # are those of its scalar bounds, bit for bit
        d = presets.GRID_DEFAULTS
        inst = presets.grid(T=10, seed=3)
        box = inst.system.param_box
        assert (box.lo.tolist(), box.hi.tolist()) == ([d["m_lo"]],
                                                      [d["m_hi"]])
        want = np.random.default_rng(3).uniform(d["m_lo"], d["m_hi"],
                                                size=(11, 1))
        assert inst.truth.tobytes() == want.tobytes()


class TestChainStudies:
    def test_closed_form_alternates(self):
        states = presets.two_sided_closed_form(4, 0.0)
        assert np.allclose(states, [0.4, -0.4, 0.4, -0.4])
        states = presets.two_sided_closed_form(5, 0.1)
        assert np.allclose(states, [0.5, -0.3, 0.5, -0.3, 0.5])

    def test_suite_default_perturbations(self):
        rows = presets.inventory_counterexample_suite(ps=(4, 5))
        eps_by_p = {r.p: r.eps for r in rows}
        assert eps_by_p[4] == pytest.approx(2.0 / 15.0)
        assert eps_by_p[5] == pytest.approx(2.0 / 25.0)

    def test_suite_response_equals_perturbation(self):
        rows = presets.inventory_counterexample_suite(ps=(6,))
        for r in rows:
            assert abs(r.diff_minus_eps) <= 1e-9
            assert r.closed_form_err <= 1e-9

    def test_suite_explicit_eps(self):
        rows = presets.inventory_counterexample_suite(ps=(4,),
                                                      eps=2.0 / 35.0)
        assert all(r.eps == pytest.approx(2.0 / 35.0) for r in rows)
        assert all(abs(r.diff_minus_eps) <= 1e-9 for r in rows)

    def test_suite_csv(self):
        rows = presets.inventory_counterexample_suite(ps=(4,))
        text = cli._csv_body(
            ["p", "eps", "h", "diff", "diff_minus_eps", "closed_form_err"],
            map(dataclasses.astuple, rows), ["h"])
        lines = text.strip().split("\n")
        assert lines[0] == "# h"
        assert lines[1] == "p,eps,h,diff,diff_minus_eps,closed_form_err"
        assert len(lines) == 2 + 4

    def test_two_sided_sensitivity_is_flat(self):
        offsets, profile, _ = inventory_sensitivity_profile(
            8, one_sided=False)
        assert np.allclose(profile, 1.0, atol=1e-7)

    def test_one_sided_sensitivity_decays(self):
        offsets, profile, fit = inventory_sensitivity_profile(
            12, one_sided=True)
        assert fit.lam <= 0.95
        assert fit.r2 >= 0.9
        assert profile[0] > profile[-1]  # response fades away from the pin


class TestRegistry:
    def test_all_presets_buildable(self):
        for name in presets.PRESETS:
            inst = presets.build_preset(name)
            assert inst.T >= 2

    def test_unknown_preset(self):
        with pytest.raises(ModelError):
            presets.build_preset("no-such-preset")

    @pytest.mark.parametrize("name", sorted(presets.PRESETS))
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_preset_rejects_a_bad_seed(self, name, seed):
        # called directly, without build_instance: a preset that draws
        # checks the seed before numpy reads it, which would raise its own
        # ValueError or TypeError, or take True for 1
        with pytest.raises(ModelError, match="seed must be an integer >= 0"):
            presets.PRESETS[name](T=6, seed=seed)

    def test_disturbance_validates(self):
        inst = presets.disturbance(T=15)
        assert holds(inst.system, *box_grid(inst.system))
