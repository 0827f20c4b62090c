"""Saddle blocks from step data, saddle spectrum bounds, closed-form
constants, decay fits, and measured sensitivity envelopes."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mpclab import cli, engine, ftocp, kkt, presets
from mpclab._assembly import WindowMatrices
from mpclab.model import Bounds, TerminalCost


def unit_bounds(**changes):
    return Bounds(**{"mu": 1.0, "ell": 1.0, "a": 1.0, "b": 1.0, **changes})


def tracking_window(T=12, seed=5, terminal="quadratic", K=None, n=2, m=1):
    inst = presets.tracking_rand(T=T, seed=seed, n=n, m=m)
    K = T if K is None else K
    params = [inst.truth[t] for t in range(K + 1)]
    if terminal == "quadratic":
        term = inst.system.terminal_cost(params[-1])
    else:
        term = TerminalCost.indicator(np.zeros(n))
    return inst, kkt.window_data(inst.system, params, term)


def preset_window(name, T, terminal):
    """The full window of a preset instance under the truth, with the
    instance's terminal cost or a pin at the origin."""
    inst = presets.build_preset(name, T=T)
    if terminal == "quadratic":
        term = inst.terminal_cost()
    else:
        term = TerminalCost.indicator(np.zeros(inst.system.n))
    return kkt.window_data(inst.system, inst.truth, term)


def dense_block_norms(wm):
    """Spectral norms of the blocks of the dense inverse of Upsilon, and
    the condition number of Upsilon."""
    asm = oracles.saddle_assembly(wm)
    U = oracles.dense_upsilon(asm)
    Uinv = np.linalg.inv(U)
    norms = np.array([[np.linalg.norm(Uinv[si, sj], 2)
                       for sj in asm.block_slices]
                      for si in asm.block_slices])
    return norms, float(np.linalg.cond(U))


def assert_norms_by_offset(norms, ref, rtol):
    """Offset o of ``decay_profile``'s norms against both diagonals o and -o
    of a reference indexed by block pair, within rtol."""
    assert [len(row) for row in norms] == list(range(len(ref), 0, -1))
    for off, row in enumerate(norms):
        for diag in (np.diagonal(ref, off), np.diagonal(ref, -off)):
            assert np.allclose(row, diag, rtol=rtol, atol=0.0), off


def assert_sigma_near_oracle(wm):
    """kkt.sigma_min of a window within the backward-error allowance
    10 max(r, c) eps ||N|| of the dense SVD of the oracle's r x c N."""
    N = oracles.saddle_assembly(wm).N
    want = np.linalg.svd(N, compute_uv=False).min()
    allowance = 10 * max(N.shape) * np.finfo(float).eps * np.linalg.norm(N, 2)
    assert abs(kkt.sigma_min(wm) - want) <= allowance


def count_qr(monkeypatch):
    """A list that grows by one at each np.linalg.qr call: the QR route of
    kkt.sigma_min."""
    calls, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr",
                        lambda *args, **kw: calls.append(1) or qr(*args, **kw))
    return calls


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_tiles_against_oracle(wm):
    """kkt's tiles, multiplier positions and dynamics blocks, bitwise
    against the dense assembly of the same step data."""
    asm = oracles.saddle_assembly(wm)
    D, E, eta = kkt._saddle_tiles(wm)
    want_D, want_E = oracles.upsilon_tiles(asm)
    assert_bitwise(D, want_D)
    assert_bitwise(E, want_E)
    assert_bitwise(kkt._dynamics_blocks(wm), asm.N)
    # each block's multipliers are the constraint rows of H
    nv = asm.M.shape[0]
    for s, first in zip(asm.block_slices, eta):
        rows = asm.perm[s]
        assert np.array_equal(np.nonzero(rows >= nv)[0],
                              first + np.arange(wm.n))


class TestAssemblyStructure:
    def test_full_variant_blocks(self):
        _, wm = tracking_window(T=8, K=3)
        asm = oracles.saddle_assembly(wm)
        assert len(asm.block_slices) == 4
        sizes = [s.stop - s.start for s in asm.block_slices]
        assert sizes == [5, 5, 5, 4]  # (y, v, eta) thrice, then (y_K, eta_K)
        D, E, eta = kkt._saddle_tiles(wm)
        assert D.shape == (4, 5, 5) and E.shape == (3, 5, 5)
        assert list(eta) == [3, 3, 3, 2]

    def test_hat_variant_blocks(self):
        _, wm = tracking_window(T=8, K=3, terminal="indicator")
        asm = oracles.saddle_assembly(wm)
        sizes = [s.stop - s.start for s in asm.block_slices]
        assert sizes == [5, 5, 5, 2]  # last block is the final multiplier
        D, _, eta = kkt._saddle_tiles(wm)
        assert list(eta) == [3, 3, 3, 0]
        assert np.all(D[-1] == 0.0)

    def test_hat_drops_last_state_columns(self):
        _, full = tracking_window(T=8, K=3, terminal="quadratic")
        _, hat = tracking_window(T=8, K=3, terminal="indicator")
        full, hat = oracles.saddle_assembly(full), oracles.saddle_assembly(hat)
        ncol = hat.N.shape[1]
        assert np.array_equal(hat.N, full.N[:, :ncol])

    def test_upsilon_symmetric_block_tridiagonal(self):
        _, wm = tracking_window(T=10, K=6)
        asm = oracles.saddle_assembly(wm)
        U = oracles.dense_upsilon(asm)
        assert np.allclose(U, U.T, atol=1e-12)
        for i, si in enumerate(asm.block_slices):
            for j, sj in enumerate(asm.block_slices):
                if abs(i - j) >= 2:
                    assert np.all(U[si, sj] == 0.0)

    def test_inverse_symmetric(self):
        _, wm = tracking_window(T=10, K=6)
        U = oracles.dense_upsilon(oracles.saddle_assembly(wm))
        Uinv = np.linalg.inv(U)
        assert np.allclose(Uinv, Uinv.T, atol=1e-10)

    def test_saddle_matrix_matches_oracle_layout(self):
        # the tiles the block elimination reads, laid out as the dense
        # Upsilon, against the oracle's
        _, wm = tracking_window(T=8, K=3)
        asm = oracles.saddle_assembly(wm)
        D, E, _ = kkt._saddle_tiles(wm)
        U = np.zeros((asm.perm.size,) * 2)
        for i, s in enumerate(asm.block_slices):
            size = s.stop - s.start
            U[s, s] = D[i, :size, :size]
            if i:
                U[asm.block_slices[i - 1], s] = E[i - 1, :, :size]
                U[s, asm.block_slices[i - 1]] = E[i - 1, :, :size].T
        assert np.array_equal(U, oracles.dense_upsilon(asm))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), K=st.integers(1, 12),
           terminal=st.sampled_from(["quadratic", "indicator"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_tiles_match_oracle_bitwise(self, n, m, K, terminal, seed):
        _, wm = tracking_window(T=max(K, 2), seed=seed, terminal=terminal,
                                K=K, n=n, m=m)
        check_tiles_against_oracle(wm)

    @pytest.mark.parametrize("terminal", ["quadratic", "indicator"])
    @pytest.mark.parametrize("name", ["tracking-rand", "disturbance",
                                      "pendulum", "grid"])
    def test_preset_tiles_match_oracle_bitwise(self, name, terminal):
        check_tiles_against_oracle(preset_window(name, 40, terminal))

    @pytest.mark.parametrize("terminal", ["quadratic", "indicator"])
    @pytest.mark.parametrize("name", ["tracking-rand", "disturbance",
                                      "pendulum", "grid"])
    def test_preset_gram_matches_dense_product(self, name, terminal):
        # an entry of N N' sums at most 2n + m nonzero products, so the
        # blocks and the dense product are each within gamma |N||N|' of the
        # exact Gram, gamma = p u / (1 - p u) with p = 2n + m (Higham 2002,
        # sec. 3.5)
        wm = preset_window(name, 40, terminal)
        N = oracles.saddle_assembly(wm).N
        p, u = 2 * wm.n + wm.m, np.finfo(float).eps / 2
        gamma = p * u / (1 - p * u)
        gap = np.abs(kkt._gram_blocks(wm) - N @ N.T)
        assert np.all(gap <= 2 * gamma * (np.abs(N) @ np.abs(N).T))


class TestClosedFormConstants:
    def test_tracking_spot_values(self):
        c = kkt.tracking_decay_constants(unit_bounds(), 1.0)
        assert c.sigma_hi == pytest.approx(4.0 * math.sqrt(2.0))
        assert c.sigma_lo == pytest.approx(math.sqrt(3.0))
        assert 0.0 < c.decay_rate < 1.0
        assert c.decay_coef == pytest.approx(16.0 / (3.0 * c.decay_rate))

    def test_tracking_validation(self):
        with pytest.raises(ValueError):
            kkt.tracking_decay_constants(unit_bounds(mu=2.0), 1.0)  # mu > ell
        with pytest.raises(ValueError):
            kkt.tracking_decay_constants(unit_bounds(a=0.0), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(ell=st.floats(1e-3, 1e3), mu_frac=st.floats(1e-3, 1.0),
           a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3),
           sigma=st.floats(1e-3, 1e3))
    def test_tracking_constants_never_degenerate(self, ell, mu_frac, a, b,
                                                 sigma):
        # sigma_lo <= (a + b + 1)/sqrt(2) < sigma_hi for every admissible
        # input, so the rate and the coefficient are always defined
        c = kkt.tracking_decay_constants(
            unit_bounds(mu=mu_frac * ell, ell=ell, a=a, b=b), sigma)
        assert 0.0 < c.sigma_lo < c.sigma_hi
        assert 0.0 < c.decay_rate < 1.0
        assert 0.0 < c.decay_coef < math.inf


@st.composite
def saddles(draw):
    """(M, N): M symmetric n x n with eigenvalues in [mu, ell] within
    [0.1, 3], N m x n of full row rank with singular values in
    [sigma_N, 3], sigma_N down to 0.01."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    mu = draw(st.floats(0.1, 3.0))
    ell = draw(st.floats(mu, 3.0))
    s_lo = draw(st.floats(0.01, 3.0))
    s_hi = draw(st.floats(s_lo, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def orthogonal(d):
        return np.linalg.qr(rng.normal(size=(d, d)))[0]

    Qo = orthogonal(n)
    M = Qo @ np.diag(rng.uniform(mu, ell, size=n)) @ Qo.T
    sv = rng.uniform(s_lo, s_hi, size=m)
    sv[0] = s_lo
    N = orthogonal(m) @ np.diag(sv) @ orthogonal(n)[:m]
    return M, N


# the full window of each linear-quadratic preset under the truth, with the
# instance's terminal cost
FULL_WINDOWS = [(name, T) for name in ("tracking-rand", "disturbance",
                                       "pendulum", "grid")
                for T in (10, 40)]


def full_window_saddle(name, T):
    """The closed-form decay constants of a preset instance and the
    singular values of the dense saddle matrix of its full window."""
    inst = presets.build_preset(name, T=T)
    asm = oracles.saddle_assembly(kkt.window_data(inst.system, inst.truth,
                                                  inst.terminal_cost()))
    consts = kkt.tracking_decay_constants(inst.system.bounds,
                                          kkt.measured_sigma(inst))
    sv = np.linalg.svd(oracles.saddle_matrix(asm.M, asm.N), compute_uv=False)
    return consts, sv


class TestSaddleBounds:
    def test_golden_ratio_case(self):
        # scalar M = N = 1: singular values are phi and 1/phi, and the
        # Rusten-Winther bound is exact
        sv = np.linalg.svd(oracles.saddle_matrix(np.eye(1), np.eye(1)),
                           compute_uv=False)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert np.allclose(np.sort(sv), [1.0 / phi, phi], rtol=1e-14)
        assert oracles.saddle_sigma_min_lower(1.0, 1.0, 1.0) == \
            pytest.approx(1.0 / phi, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(saddle=saddles())
    @example(saddle=(np.eye(2), np.array([[0.1, 0.0]])))
    def test_rusten_winther_lower_bound(self, saddle):
        M, N = saddle
        eigs = np.linalg.eigvalsh(M)
        sigma_N = np.linalg.svd(N, compute_uv=False).min()
        bound = oracles.saddle_sigma_min_lower(eigs.min(), eigs.max(),
                                               sigma_N)
        sv = np.linalg.svd(oracles.saddle_matrix(M, N), compute_uv=False)
        assert 0.0 < bound <= sv.min() * (1 + 1e-9)

    @pytest.mark.parametrize("name, T", FULL_WINDOWS)
    def test_sigma_hi_bounds_full_window(self, name, T):
        consts, sv = full_window_saddle(name, T)
        assert sv.max() <= consts.sigma_hi

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: tracking_decay_constants' sigma_lo is not a lower "
        "bound on sigma_min(H); it is a saddle bound that fails on random "
        "saddles, taken with sigma_N,hi = a + b + 1, and the closed-form "
        "decay rate and coefficient rest on it"))
    @pytest.mark.parametrize("name, T", FULL_WINDOWS)
    def test_sigma_lo_bounds_full_window(self, name, T):
        consts, sv = full_window_saddle(name, T)
        assert consts.sigma_lo <= sv.min()


class TestDecayFits:
    def test_non_dominating_envelope_raises(self):
        offs = np.arange(3, dtype=float)
        with pytest.raises(ValueError, match="dominate"):
            kkt.DecayFit(1.0, 0.5, 1.0, offs, np.ones(3))

    def test_domination_check_survives_optimize_flag(self):
        code = ("import numpy as np\n"
                "from mpclab import kkt\n"
                "try:\n"
                "    kkt.DecayFit(1.0, 0.5, 1.0, np.arange(3.0), np.ones(3))\n"
                "except ValueError:\n"
                "    print('raised')\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(kkt.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "raised"

    def test_loglinear_exact_geometric(self):
        x = np.arange(8, dtype=float)
        y = 3.0 * 0.6 ** x
        slope, r2 = kkt.loglinear_fit(x, y)
        assert slope == pytest.approx(math.log(0.6), abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_loglinear_fits_no_line_through_one_point(self):
        assert kkt.loglinear_fit(np.array([2.0]), np.array([0.5])) is None
        assert kkt.loglinear_fit(np.array([]), np.array([])) is None

    def test_single_positive_value_beyond_origin_fits_no_rate(self):
        fit = kkt.fit_decay(np.arange(3.0), np.array([0.0, 0.5, 0.0]))
        assert (fit.C, fit.lam, fit.r2) == (0.5, 1.0, None)

    def test_fit_dominates_profile(self):
        rng = np.random.default_rng(0)
        offs = np.arange(10, dtype=float)
        prof = 2.0 * 0.5 ** offs * rng.uniform(0.5, 1.0, size=10)
        fit = kkt.fit_decay(offs, prof)
        assert np.all(fit.C * fit.lam ** offs * (1 + 1e-9) >= prof)
        assert 0.0 < fit.lam < 1.0

    def test_zero_beyond_origin_reports_rate_zero(self):
        offs = np.arange(5, dtype=float)
        prof = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        fit = kkt.fit_decay(offs, prof)
        assert fit.lam == 0.0
        assert fit.C == pytest.approx(2.0)
        assert fit.r2 is None   # no rate was fitted


class TestSpectralNorms:
    @settings(max_examples=80, deadline=None)
    @given(lead=st.lists(st.integers(0, 3), max_size=3),
           rows=st.integers(1, 6), cols=st.integers(1, 6),
           scale=st.sampled_from([1e-200, 1.0, 1e200]),
           zeros=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1),
           zero_row=st.booleans())
    @example(lead=[4], rows=3, cols=2, scale=1.0, zeros=0.0, seed=0,
             zero_row=False)
    # a tall tile, whose Gram is taken on its two columns
    @example(lead=[3], rows=6, cols=2, scale=1.0, zeros=0.0, seed=1,
             zero_row=False)
    @example(lead=[5], rows=1, cols=1, scale=1e-200, zeros=0.0, seed=2,
             zero_row=False)
    # a zero second row: the closed form's largest eigenvalue is a itself
    @example(lead=[3], rows=2, cols=6, scale=1e200, zeros=0.0, seed=3,
             zero_row=True)
    @example(lead=[2, 3], rows=2, cols=5, scale=1e-200, zeros=0.0, seed=4,
             zero_row=False)
    # Grams wider than two rows take eigvalsh
    @example(lead=[4], rows=4, cols=5, scale=1e200, zeros=0.0, seed=5,
             zero_row=False)
    def test_matches_svd_norm(self, lead, rows, cols, scale, zeros, seed,
                              zero_row):
        # at 1e-200 and 1e200 the squares of the entries under- and
        # overflow; a share of the matrices is zero, and with zero_row the
        # last row of every matrix
        rng = np.random.default_rng(seed)
        mats = rng.normal(size=(*lead, rows, cols)) * scale
        mats[rng.random(lead) < zeros] = 0.0
        if zero_row:
            mats[..., -1, :] = 0.0
        got = kkt._spectral_norms(mats)
        assert got.shape == tuple(lead)
        want = np.linalg.norm(mats, 2, axis=(-2, -1))
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        # eigvalsh (and SVD, on inf) would return NaN without a word
        mats = np.ones((2, 3, 2, 4))
        mats[1, 2, 1, 0] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            kkt._spectral_norms(mats)


class TestMeasuredQuantities:
    def test_measured_sigma_positive_and_pinned_min(self):
        inst = presets.tracking_rand(T=12, seed=3)
        full = kkt.measured_sigma(inst)
        both = kkt.measured_sigma(inst, k=5)
        assert full > 0.0
        assert both <= full + 1e-12

    @pytest.mark.parametrize("name, k", [("tracking-rand", 5),
                                         ("pendulum", 5), ("grid", 3)])
    def test_measured_sigma_matches_dense_svd(self, name, k):
        inst = presets.build_preset(name, T=24)
        sys_, truth = inst.system, inst.truth
        full = kkt.window_data(sys_, truth, TerminalCost.zero(sys_.n))
        pinned = kkt.window_data(sys_, truth[:k + 1], TerminalCost.indicator(
            np.zeros(sys_.n)))
        for wm in (full, pinned):
            assert_sigma_near_oracle(wm)
        # on every preset here the pinned window holds the smaller sigma
        assert kkt.sigma_min(pinned) < kkt.sigma_min(full)
        assert kkt.measured_sigma(inst) == kkt.sigma_min(full)
        assert kkt.measured_sigma(inst, k) == kkt.sigma_min(pinned)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), K=st.integers(1, 40),
           terminal=st.sampled_from(["quadratic", "indicator"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sigma_matches_dense_svd(self, n, m, K, terminal, seed):
        _, wm = tracking_window(T=max(K, 2), seed=seed, terminal=terminal,
                                K=K, n=n, m=m)
        if terminal == "indicator" and K * m < n:
            # a tall N: fewer than n/m steps cannot reach the pin
            with pytest.raises(ftocp.SingularKKT, match="unreachable"):
                kkt.sigma_min(wm)
            return
        assert_sigma_near_oracle(wm)

    def test_well_conditioned_windows_take_the_gram_route(self,
                                                          monkeypatch):
        # the full window of certify-decay at T=96 and both windows of
        # constants at T=24, k=8: kappa(N) is 4.2, 3.5 and 7.0 against
        # thresholds of 29.9, 29.6 and 26.7
        inst, short = presets.tracking_rand(T=96), presets.tracking_rand(T=24)
        wm = kkt.window_data(inst.system, inst.truth, inst.terminal_cost())
        calls = count_qr(monkeypatch)
        kkt.sigma_min(wm)
        kkt.measured_sigma(short, k=8)
        assert calls == []

    @pytest.mark.parametrize("name, k", [("pendulum", 5), ("grid", 4)])
    def test_ill_conditioned_windows_take_the_qr_route(self, monkeypatch,
                                                       name, k):
        # kappa(N) is 1.3e6 and 250 on these pinned windows
        inst = presets.build_preset(name, T=24)
        wm = kkt.window_data(inst.system, inst.truth[:k + 1],
                             TerminalCost.indicator(np.zeros(inst.system.n)))
        calls = count_qr(monkeypatch)
        kkt.sigma_min(wm)
        assert len(calls) == 1

    @pytest.mark.parametrize("beta, lo, hi, qr_calls",
                             [(0.0572, 0.99, 1.0, 0), (0.0570, 1.0, 1.01, 1)])
    def test_windows_at_the_route_threshold(self, monkeypatch, beta, lo, hi,
                                            qr_calls):
        # a pinned integrator x_{t+1} = x_t + beta u_t on ten steps: N is
        # 11 x 20, the Gram route ends at kappa = 20 * 20 / 11, and kappa
        # grows like 2 / beta; just under the threshold the Gram route
        # stays within the QR route's allowance
        K, one = 10, np.ones((10, 1, 1))
        wm = WindowMatrices(one, beta * one, np.zeros((K, 1)), one, one,
                            np.zeros((K, 1)),
                            TerminalCost.indicator(np.zeros(1)))
        sv = np.linalg.svd(oracles.saddle_assembly(wm).N, compute_uv=False)
        assert lo < sv[0] / sv[-1] / (20 * 20 / 11) < hi
        calls = count_qr(monkeypatch)
        assert_sigma_near_oracle(wm)
        assert len(calls) == qr_calls

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tall_dynamics_blocks_raise(self, k):
        # the pendulum's pinned window on k < 4 steps has a 4(k + 1) x 5k N
        # of rank 5k: its saddle matrix is singular, though the smallest
        # singular value of N is positive (6.6e-5 at k = 3)
        inst = presets.pendulum(T=12)
        with pytest.raises(ftocp.SingularKKT,
                           match="pinned terminal unreachable from step 0"):
            kkt.measured_sigma(inst, k)
        assert kkt.measured_sigma(inst, 4) > 0.0

    def test_block_profile_dominated_by_closed_form(self):
        inst, wm = tracking_window(T=12, seed=5)
        norms, maxima, fit = kkt.decay_profile(wm)
        bb = inst.system.bounds
        sigma = kkt.measured_sigma(inst)
        c = kkt.tracking_decay_constants(bb, sigma)
        assert len(norms) == wm.K + 1
        for off, row in enumerate(norms):
            bound = c.decay_coef * c.decay_rate ** off
            assert np.all(row <= bound * (1 + 1e-9))

    @pytest.mark.parametrize("terminal", ["quadratic", "indicator"])
    def test_block_profile_matches_per_block_norms(self, terminal):
        # the last block is 2n wide (full) or n wide (hat), the others 2n+m
        _, wm = tracking_window(T=12, seed=5, terminal=terminal, K=9)
        norms, maxima, _ = kkt.decay_profile(wm)
        asm = oracles.saddle_assembly(wm)
        Uinv = np.linalg.inv(oracles.dense_upsilon(asm))
        nb = len(asm.block_slices)
        ref = np.array([[np.linalg.norm(Uinv[si, sj], 2)
                         for sj in asm.block_slices]
                        for si in asm.block_slices])
        ref_max = [max(ref[i, j] for i in range(nb) for j in range(nb)
                       if abs(i - j) == off) for off in range(nb)]
        assert_norms_by_offset(norms, ref, 1e-10)
        assert np.allclose(maxima, ref_max, rtol=1e-10, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), K=st.integers(1, 12),
           terminal=st.sampled_from(["quadratic", "indicator"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=3, m=1, K=3, terminal="indicator", seed=2947559)
    def test_block_profile_matches_dense_inverse(self, n, m, K, terminal,
                                                 seed):
        _, wm = tracking_window(T=max(K, 2), seed=seed, terminal=terminal,
                                K=K, n=n, m=m)
        if terminal == "indicator" and K * m < n:
            # fewer than n/m steps cannot reach the pin: Upsilon is singular
            with pytest.raises(ftocp.SingularKKT):
                kkt.decay_profile(wm)
            return
        ref, cond = dense_block_norms(wm)
        try:
            norms, maxima, _ = kkt.decay_profile(wm)
        except ftocp.SingularKKT:
            # a saddle matrix singular to rounding may raise (the example:
            # a reachable pin with cond(Upsilon) 3.8e11, residual 1.7e-6),
            # a well-conditioned one may not
            assert np.finfo(float).eps * cond >= 1e-8
            return
        nb = wm.K + 1
        ref_max = [max(np.diagonal(ref, off).max(),
                       np.diagonal(ref, -off).max()) for off in range(nb)]
        # 1e-10, or the dense reference's own rounding level where that is
        # larger (near-unreachable pins, where cond(Upsilon) reaches 1e9)
        rtol = max(1e-10, np.finfo(float).eps * cond)
        assert_norms_by_offset(norms, ref, rtol)
        assert np.allclose(maxima, ref_max, rtol=rtol, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 2), K=st.integers(1, 40),
           terminal=st.sampled_from(["quadratic", "indicator"]),
           cap=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, m=1, K=40, terminal="quadratic", cap=1, seed=0)
    @example(n=3, m=1, K=3, terminal="indicator", cap=1, seed=2947559)
    def test_block_profile_independent_of_stack_cap(self, n, m, K, terminal,
                                                    cap, seed):
        # the tiles of an offset are never split, so cap 1 is one offset
        # per stack and the default cap one stack for every K <= 44
        _, wm = tracking_window(T=max(K, 2), seed=seed, terminal=terminal,
                                K=K, n=n, m=m)
        if terminal == "indicator" and K * m < n:
            return   # unreachable pin, as in the dense-inverse test
        try:
            norms, maxima, fit = kkt.decay_profile(wm)
        except ftocp.SingularKKT:
            # singular to rounding (see the dense-inverse test): every cap
            # raises too
            with pytest.MonkeyPatch.context() as mp, \
                    pytest.raises(ftocp.SingularKKT):
                mp.setattr(kkt, "_STACK_CAP", cap)
                kkt.decay_profile(wm)
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kkt, "_STACK_CAP", cap)
            got_norms, got_maxima, got_fit = kkt.decay_profile(wm)
        assert len(got_norms) == len(norms)
        assert all(map(np.array_equal, got_norms, norms))
        assert np.array_equal(got_maxima, maxima)
        assert ((got_fit.C, got_fit.lam, got_fit.r2)
                == (fit.C, fit.lam, fit.r2))

    @pytest.mark.parametrize("terminal", ["quadratic", "indicator"])
    @pytest.mark.parametrize("name, T", [(name, T) for name, T in FULL_WINDOWS
                                         if name != "tracking-rand"])
    def test_preset_profile_matches_recursion_oracle(self, name, T,
                                                     terminal):
        wm = preset_window(name, T, terminal)
        norms, maxima, _ = kkt.decay_profile(wm)
        asm = oracles.saddle_assembly(wm)
        ref = oracles.block_inverse_norms(asm)
        cond = float(np.linalg.cond(oracles.dense_upsilon(asm)))
        rtol = max(1e-10, np.finfo(float).eps * cond)
        assert_norms_by_offset(norms, ref, rtol)
        assert np.allclose(maxima, [np.diagonal(ref, off).max()
                                    for off in range(wm.K + 1)],
                           rtol=rtol, atol=0.0)

    def test_block_profile_matches_recursion_oracle_at_long_horizon(self):
        # the farthest blocks are about 4e-170, so their squares underflow
        inst = presets.tracking_rand(T=400)
        wm = kkt.window_data(inst.system, inst.truth, inst.terminal_cost())
        norms, maxima, fit = kkt.decay_profile(wm)
        ref = oracles.block_inverse_norms(oracles.saddle_assembly(wm))
        assert 0.0 < ref.min() < 1e-160
        assert_norms_by_offset(norms, ref, 1e-10)
        offsets = np.arange(ref.shape[0])
        ref_fit = kkt.fit_decay(offsets, np.array(
            [np.diagonal(ref, off).max() for off in offsets]))
        assert np.allclose(maxima, ref_fit.profile, rtol=1e-10, atol=0.0)
        assert (fit.C, fit.lam, fit.r2) == pytest.approx(
            (ref_fit.C, ref_fit.lam, ref_fit.r2), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_unreachable_pin_raises(self, n):
        # one step of one action cannot reach an n-dimensional pin: Upsilon
        # is singular, though only to rounding (cond about 1e17)
        _, wm = tracking_window(T=8, K=1, terminal="indicator", n=n)
        with pytest.raises(ftocp.SingularKKT):
            kkt.decay_profile(wm)

    def test_profile_allocates_no_dense_saddle_matrix(self):
        _, wm = tracking_window(T=400, seed=1)
        # rows of the full window's H: K(n + m) + n variables, (K + 1) n
        # multipliers
        rows = wm.K * (2 * wm.n + wm.m) + 2 * wm.n
        tracemalloc.start()
        try:
            kkt.decay_profile(wm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows ** 2 * 8 / 4
        # nor one indexed by block pair, nor a second copy of the norms: the
        # norms by offset are half of an nb x nb matrix of floats, held once
        # beside the blocks and one stack of tiles (1.56 MB here); a copy of
        # them would add that half again (1.86 MB), and such a matrix nb^2
        nb = wm.K + 1
        assert peak < 1.25 * nb ** 2 * 8

    def test_disturbance_state_envelope_identically_zero(self):
        inst = presets.disturbance(T=12, seed=0)
        tables = kkt.measure_gain_tables(inst, 4)
        assert np.all(tables.gain_state == 0.0)
        assert np.all(np.diff(tables.gain_param) <= 1e-15)  # non-increasing
        assert tables.C3 >= 1.0

    def test_state_vs_param_decay_rate_ratio(self):
        # the state-coupled response should decay at roughly twice the rate
        # of the state-free one: per-offset maxima of the Jacobians of the
        # full windows [t, t + k] at offsets < k, at the gain tables' state
        # samples (the pin's last offset sits at a fixed place and would
        # mask the trend)
        inst = presets.tracking_rand(T=15, seed=3)
        k = 6
        opt = engine.solve_opt(inst)
        starts = np.arange(inst.T - k)
        t2 = starts + k
        law = ftocp.continuation_law(
            inst.system, [inst.truth[t:t + k + 1] for t in starts],
            engine.window_terminal(inst, t2, inst.truth[t2]), starts)
        zs = kkt._state_samples(inst, opt.states,
                                max(opt.max_state_norm, 1.0))[:, starts]
        jac = kkt._window_action_jacobians(
            law, zs, kkt._step_data_slopes(inst),
            kkt._terminal_slopes(inst, t2))[..., :k]
        gp = jac[0].max(axis=0)
        gs = (np.maximum(0.0, jac[1:] - jac[0])
              / np.linalg.norm(zs[1:], axis=-1)[..., None]).max(axis=(0, 1))
        taus = np.arange(k, dtype=float)
        ms, mp = gs > 1e-9, gp > 1e-9
        slope_s, _ = kkt.loglinear_fit(taus[ms], gs[ms])
        slope_p, _ = kkt.loglinear_fit(taus[mp], gp[mp])
        assert slope_s < 0.0 and slope_p < 0.0
        assert 1.6 <= slope_s / slope_p <= 2.4

    def test_singular_assembly_raises(self):
        # Q = R = 0 leave the v_0 row of the first pivot zero
        _, wm = tracking_window(T=8, K=3)
        wm = dataclasses.replace(wm, Q=np.zeros_like(wm.Q),
                                 R=np.zeros_like(wm.R))
        with pytest.raises(ftocp.SingularKKT, match="block 0"):
            kkt.decay_profile(wm)


class TestExports:
    def test_profile_csv_headers_and_rows(self):
        text = cli._csv_body(["offset", "max_block_norm", "theory_bound"],
                             zip([0, 1], [1.0, 0.5], [2.0, 1.0]),
                             ["config_hash=abc"])
        lines = text.strip().split("\n")
        assert lines[0] == "# config_hash=abc"
        assert lines[1] == "offset,max_block_norm,theory_bound"
        assert len(lines) == 4

    def test_constants_text(self):
        text = cli._key_value_body({"sigma": 1.5, "mode": "measured"},
                                   ["h1"])
        assert text.startswith("# h1\n")
        assert "sigma = 1.5" in text
        assert "mode = measured" in text
