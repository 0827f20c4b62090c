"""End-to-end acceptance gate: numerical certification of the full
perturbation-to-regret pipeline at fixed tolerances and time budgets."""

import functools
import time

import numpy as np
import pytest

import oracles
from mpclab import engine, kkt, presets, regret
from mpclab.engine import TerminalRule
from mpclab.model import PredictionStream
from test_presets import inventory_sensitivity_profile


class Budget:
    """Wall-clock budget guard for one acceptance criterion."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"exceeded the {self.seconds}s budget: {elapsed:.2f}s")


NOISE_SCALES = (0.05, 0.2, 0.4)


@functools.lru_cache(maxsize=1)
def disturbance_pipeline():
    """Shared disturbance-setting pipeline: hindsight optimum, measured
    sensitivity envelopes, and admitted noisy closed-loop runs."""
    inst = presets.disturbance(T=60, seed=0)
    opt = engine.solve_opt(inst)
    R = max(opt.max_state_norm, 1.0)
    rule = TerminalRule("zero")
    tables = kkt.measure_gain_tables(inst, 8, rule, opt.states, R, seed=0)
    L_g = inst.system.lipschitz_dynamics()
    D_xstar = opt.max_state_norm
    runs = []
    for scale in NOISE_SCALES:
        stream = PredictionStream(inst.truth, 8, scale, seed=inst.seed)
        rhs = engine.per_step_error_bound_rhs(
            stream.rho_table, 8, tables.gain_state, tables.gain_param, R,
            tables.C3, D_xstar)
        report = engine.pipeline_admission_check(rhs, R, tables.C3, L_g)
        run = engine.run_mpc(inst, stream, 8, rule)
        runs.append((scale, rhs, report, run))
    return inst, opt, R, D_xstar, L_g, tables, runs


def test_inventory_alternating_perturbation():
    with Budget(5.0):
        rows = presets.inventory_counterexample_suite(ps=(4, 5, 6, 7, 8))
        eps_by_p = {}
        for r in rows:
            eps_by_p[r.p] = r.eps
            assert r.closed_form_err <= 1e-6
            assert abs(r.diff_minus_eps) <= 1e-6
        for p in (4, 6, 8):
            assert eps_by_p[p] == pytest.approx(2.0 / (5.0 * (p - 1)))
        for p in (5, 7):
            assert eps_by_p[p] == pytest.approx(2.0 / (5.0 * p))


def test_inventory_one_sided_decay():
    with Budget(10.0):
        offsets, profile, fit = inventory_sensitivity_profile(
            12, one_sided=True)
        assert fit.lam <= 0.95
        assert fit.r2 >= 0.9
        assert np.all(fit.C * fit.lam ** offsets * (1 + 1e-9) >= profile)


def test_kkt_inverse_block_decay():
    with Budget(60.0):
        for seed in range(20):
            inst = presets.tracking_rand(T=40, seed=seed, n=2, m=1)
            params = [inst.truth[t] for t in range(41)]
            wm = kkt.window_data(inst.system, params, inst.terminal_cost())
            norms, _, _ = kkt.decay_profile(wm)
            bb = inst.system.bounds
            sigma = kkt.measured_sigma(inst)
            c = kkt.tracking_decay_constants(bb, sigma)
            nb = norms.shape[0]
            offs = np.abs(np.arange(nb)[:, None] - np.arange(nb)[None, :])
            bound = c.decay_coef * c.decay_rate ** offs
            assert np.all(norms <= bound * (1 + 1e-9)), f"seed {seed}"


def test_per_step_error_bound():
    with Budget(60.0):
        inst, opt, R, D_xstar, L_g, tables, runs = disturbance_pipeline()
        for scale, rhs, report, run in runs:
            assert report.ok, f"scale {scale} not admitted"
            above = np.flatnonzero(run.errors > rhs + 1e-9)
            assert above.size == 0, (scale, above)


def test_regret_inequality_explicit_constant():
    with Budget(30.0):
        inst, opt, R, D_xstar, L_g, tables, runs = disturbance_pipeline()
        ell = inst.system.bounds.ell
        for scale, rhs, report, run in runs:
            rep = regret.regret_inequalities(run, opt, ell, L_g, tables.C3,
                                             tables.gain_init)
            assert rep.regret_ok, f"scale {scale}"
            assert rep.distance_ok, f"scale {scale}"


def test_full_horizon_exactness():
    with Budget(10.0):
        for name in sorted(presets.PRESETS):
            inst = presets.build_preset(name)
            stream = PredictionStream(inst.truth, inst.T, 0.0,
                                      seed=inst.seed)
            opt = engine.solve_opt(inst)
            run = engine.run_mpc(inst, stream, inst.T, TerminalRule("true"))
            assert run.total_cost - opt.total_cost <= 1e-7, name
            assert float(run.errors.max(initial=0.0)) <= 1e-8, name


def test_horizon_sweep_geometric_decay():
    with Budget(120.0):
        inst = presets.disturbance(T=60, seed=0)
        res = regret.sweep_horizon(inst, range(2, 13), TerminalRule("zero"))
        assert np.all(np.diff(res.regrets) <= 1e-9)
        assert res.slope < 0.0
        assert res.r2 >= 0.9


def test_noise_sweep_scaling():
    with Budget(120.0):
        inst = presets.disturbance(T=60, seed=0)
        res = regret.sweep_noise(inst, [0.05, 0.1, 0.2, 0.4], 8,
                                 TerminalRule("zero"))
        assert 0.8 <= res.slope <= 2.2
        assert res.r2 >= 0.9


def test_controllability_examples():
    with Budget(5.0):
        # cart-pendulum: four-step determinant against the closed form
        M = 0.5
        A, B = presets.pendulum_matrices(M, **presets.PENDULUM_DEFAULTS)
        C = oracles.controllability_matrix([A] * 4, [B] * 4, 0, 4)
        det = abs(float(np.linalg.det(C)))
        closed = oracles.pendulum_det_closed_form(
            M, **presets.PENDULUM_DEFAULTS)
        assert det == pytest.approx(closed, rel=1e-8)

        # network frequency regulation: two-step determinant lower bound
        d = presets.GRID_DEFAULTS
        L = presets.path_laplacian(d["n_nodes"])
        D = np.eye(d["n_nodes"])
        bound = oracles.grid_det_lower_bound(d["n_nodes"], d["delta"],
                                             d["m_hi"])
        xs = np.linspace(d["m_lo"], d["m_hi"], 50)
        rng = np.random.default_rng(0)
        pairs = list(zip(xs[:-1], xs[1:]))
        pairs += [(float(rng.choice(xs)), float(rng.choice(xs)))
                  for _ in range(50)]
        for m1, m2 in pairs:
            A1, B1 = presets.grid_matrices(m1, L=L, D=D, delta=d["delta"])
            A2, B2 = presets.grid_matrices(m2, L=L, D=D, delta=d["delta"])
            C2 = oracles.controllability_matrix([A1, A2], [B1, B2], 0, 2)
            assert abs(float(np.linalg.det(C2))) >= bound, (m1, m2)
