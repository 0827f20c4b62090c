"""Saddle-matrix analysis: assembly, inverse block-decay profiles, closed-form
decay constants, and empirical sensitivity envelopes.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import _assembly, ftocp
from .model import Instance, TerminalCost

Array = np.ndarray

KktAssembly = _assembly.KktAssembly


def assemble(spec: ftocp.FtocpSpec, system) -> KktAssembly:
    """Assembled saddle matrix of a windowed problem."""
    return _assembly.assemble_window(ftocp.window_matrices(spec, system))


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def loglinear_fit(x: Array, y: Array) -> tuple[float, float, float]:
    """Least-squares fit of log(y) against x; returns (slope, intercept, r2)."""
    x = np.asarray(x, float)
    ly = np.log(np.asarray(y, float))
    if x.size < 2:
        return 0.0, float(ly[0]) if x.size else 0.0, 1.0
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


@dataclasses.dataclass
class DecayFit:
    """Dominating geometric envelope C * lam^offset of a measured profile."""

    C: float
    lam: float
    r2: float
    offsets: Array
    profile: Array

    def __post_init__(self):
        # the reported envelope must dominate every measured value
        slack = self.C * self.lam ** self.offsets * (1 + 1e-9) - self.profile
        if not np.all(slack >= -1e-12 * max(1.0, self.profile.max())):
            raise ValueError("envelope does not dominate the profile")


def fit_decay(offsets: Array, maxima: Array, floor: float = 1e-300) -> DecayFit:
    """Fit per-offset maxima with a geometric envelope.

    The rate comes from a log-linear least-squares fit; the coefficient is then
    inflated so the envelope dominates every measured value.  A profile that is
    zero beyond offset 0 reports rate 0.
    """
    offsets = np.asarray(offsets, float)
    maxima = np.asarray(maxima, float)
    pos = maxima > floor
    if not np.any(pos[offsets > 0]):
        C = float(maxima.max(initial=0.0))
        return DecayFit(C, 0.0, 1.0, offsets, maxima)
    slope, _, r2 = loglinear_fit(offsets[pos], maxima[pos])
    lam = float(np.exp(min(slope, 0.0)))
    lam = min(lam, 1.0 - 1e-12) if lam < 1.0 else lam
    with np.errstate(divide="ignore"):
        C = float(np.max(maxima[pos] / lam ** offsets[pos]))
    return DecayFit(C, lam, r2, offsets, maxima)


def block_inverse_profile(asm: KktAssembly):
    """Spectral norms of the blocks of the permuted inverse.

    Returns (norms matrix indexed by block pair, per-offset maxima, DecayFit).
    """
    U = asm.Upsilon
    try:
        Uinv = np.linalg.inv(U)
    except np.linalg.LinAlgError as exc:
        raise ftocp.SingularKKT(str(exc)) from exc
    nb = asm.n_blocks
    # The blocks partition Upsilon in order.  Place block i at offset i*b so
    # that every block pair is one b x b tile; zero padding leaves a block's
    # spectral norm unchanged.
    sizes = [s.stop - s.start for s in asm.block_slices]
    b = max(sizes)
    pos = np.concatenate([i * b + np.arange(size)
                          for i, size in enumerate(sizes)])
    tiles = np.zeros((nb * b, nb * b))
    tiles[np.ix_(pos, pos)] = Uinv
    norms = np.linalg.norm(tiles.reshape(nb, b, nb, b).transpose(0, 2, 1, 3),
                           2, axis=(-2, -1))
    offsets = np.arange(nb)
    maxima = np.array([max(np.diagonal(norms, off).max(),
                           np.diagonal(norms, -off).max()) for off in offsets])
    return norms, maxima, fit_decay(offsets, maxima)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SaddleBounds:
    """Bounds on the singular spectrum of [[M, N'], [N, 0]] from the spectra
    of the blocks.  Two lower-bound variants are reported because the two
    published derivations disagree; the ``proof`` variant is the conservative
    one certified by measurement."""

    statement_lower: float
    proof_lower: float
    upper: float


def saddle_spectrum_bounds(sM_lo: float, sM_hi: float,
                           sN_lo: float, sN_hi: float) -> SaddleBounds:
    if min(sM_lo, sM_hi, sN_lo, sN_hi) <= 0:
        raise ValueError("spectra must be positive")
    if sM_lo > sM_hi or sN_lo > sN_hi:
        raise ValueError("lower bounds must not exceed upper bounds")
    statement = (min(sM_lo, 1.0) * sN_hi
                 * math.sqrt(sM_hi / (2 * sM_lo * sM_hi + sM_lo * sN_lo ** 2)))
    proof = (min(sM_lo, 1.0) * sN_lo
             * math.sqrt(sM_lo / (2 * sM_lo * sM_hi + sM_hi * sN_hi ** 2)))
    upper = math.sqrt(2.0) * (sM_hi + sN_hi)
    return SaddleBounds(statement, proof, upper)


@dataclasses.dataclass(frozen=True)
class TrackingDecayConstants:
    """Closed-form decay constants of the tracking-setting saddle inverse."""

    sigma_lo: float
    sigma_hi: float
    decay_rate: float   # geometric rate of inverse-block decay
    decay_coef: float   # coefficient dominating every inverse block
    diff_coef: float    # coefficient of the inverse-difference bound
    degenerate: bool = False


def tracking_decay_constants(mu: float, ell: float, a: float, b: float,
                             sigma: float, L_A: float = 0.0, L_B: float = 0.0,
                             L_Q: float = 0.0, L_R: float = 0.0,
                             L_P: float = 0.0) -> TrackingDecayConstants:
    if min(mu, ell, a, b, sigma) <= 0:
        raise ValueError("inputs must be positive")
    if mu > ell:
        raise ValueError("need mu <= ell")
    sigma_lo = (min(mu, 1.0) * (a + b + 1.0)
                * math.sqrt(ell / (2 * mu * ell + mu * sigma ** 2)))
    sigma_hi = math.sqrt(2.0) * (ell + a + b + 1.0)
    if sigma_lo >= sigma_hi:
        return TrackingDecayConstants(sigma_lo, sigma_hi, 0.0, math.inf,
                                      math.inf, degenerate=True)
    rate = math.sqrt((sigma_hi - sigma_lo) / (sigma_hi + sigma_lo))
    coef = 4.0 * (ell + 1.0 + a + b) / (sigma_lo ** 2 * rate)
    diff = coef ** 2 * (max(L_Q + L_R, L_P) + (2.0 / rate) * (L_A + L_B))
    return TrackingDecayConstants(sigma_lo, sigma_hi, rate, coef, diff)


@dataclasses.dataclass(frozen=True)
class GeneralDecayConstants:
    coef: float
    rate: float


def general_decay_constants(sigma_lo: float, sigma_hi: float,
                            sigma_R_hi: float) -> GeneralDecayConstants:
    """Decay constants of the general constrained setting from declared or
    measured spectrum bounds."""
    if not (0 < sigma_lo <= sigma_hi) or sigma_R_hi <= 0:
        raise ValueError("need 0 < sigma_lo <= sigma_hi and sigma_R_hi > 0")
    coef = math.sqrt(sigma_hi * sigma_R_hi / sigma_lo ** 2)
    rate = ((sigma_hi ** 2 - sigma_lo ** 2)
            / (sigma_hi ** 2 + sigma_lo ** 2)) ** 0.125
    return GeneralDecayConstants(coef, rate)


def tracking_sensitivity_coef(consts: TrackingDecayConstants, ell: float,
                              D_xbar: float, D_w: float, D_xstar: float,
                              R: float, L_w: float, L_xbar: float,
                              L_Q: float) -> float:
    """Closed-form coefficient of the first-action sensitivity envelopes in
    the tracking setting (the tables gain_param(t) = H * rate^t,
    gain_state(t) = H * rate^{2t})."""
    c2, c2p, lam = consts.decay_coef, consts.diff_coef, consts.decay_rate
    return (c2p * (2 * (ell * D_xbar + D_w) / (1 - lam) + R + D_xstar + 1.0)
            + c2 * (L_w + ell * L_xbar + D_xbar * L_Q + 1.0))


def measured_sigma(instance: Instance, k: int | None = None) -> float:
    """sigma_min of the assembled dynamics blocks (full window and, when k is
    given, the pinned-terminal window), minimized over both."""
    sys = instance.system
    T = sys.T
    params = [instance.truth[t] for t in range(T + 1)]
    spec = ftocp.FtocpSpec(0, T, np.zeros(sys.n), params,
                           TerminalCost.zero(sys.n))
    asm = assemble(spec, sys)
    smin = float(np.linalg.svd(asm.N, compute_uv=False).min())
    if k is not None and k < T:
        spec_h = ftocp.FtocpSpec(0, k, np.zeros(sys.n), params[:k + 1],
                                 TerminalCost.indicator(np.zeros(sys.n)))
        asm_h = assemble(spec_h, sys)
        smin = min(smin,
                   float(np.linalg.svd(asm_h.N, compute_uv=False).min()))
    return smin


# ---------------------------------------------------------------------------
# empirical sensitivity envelopes
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GainTables:
    """Envelopes of the windowed solution's sensitivities by temporal offset.

    gain_state(tau): coefficient multiplying ||z|| in the first-action
    response to a parameter change at offset tau; gain_param(tau): the
    state-independent part; gain_init(tau): response of states/actions at
    offset tau to an initial-state change.
    """

    gain_state: Array
    gain_param: Array
    gain_init: Array

    @property
    def C3(self) -> float:
        return float(max(np.sum(self.gain_init), 1.0))


def _window_action_jacobians(instance, t, t2, zs, terminal_builder,
                             include_terminal_target=True) -> Array:
    """Spectral norms of the Jacobians of the committed action w.r.t. each
    window parameter (and, for pinned terminals, the terminal target), by
    offset; row i is taken at the initial state zs[i].

    The continuation law of a window does not depend on its initial state,
    so each perturbed window's law is built once and read at every state.
    ``terminal_builder(params)`` rebuilds the terminal cost from the window
    parameters, so terminal data that depends on the forecast is
    differentiated through.
    """
    sys = instance.system
    truth = instance.truth
    base = np.concatenate([truth[s] for s in range(t, t2 + 1)])
    dims = [truth[s].shape[0] for s in range(t, t2 + 1)]
    splits = np.cumsum(dims)[:-1]
    base_params = np.split(base, splits)

    def first_actions(params, terminal):
        law = ftocp.continuation_law(sys, params, terminal, t)
        return np.array([law.action(0, z) for z in zs])

    def from_flat(flat):
        params = np.split(flat, splits)
        return first_actions(params, terminal_builder(params))

    def norms(f, x0, idx, step):
        cols = []
        for i in idx:
            hi = x0.copy()
            lo = x0.copy()
            hi[i] += step
            lo[i] -= step
            cols.append((f(hi) - f(lo)) / (2 * step))
        return np.linalg.norm(np.stack(cols, axis=-1), 2, axis=(1, 2))

    out = np.zeros((len(zs), t2 - t + 1))
    step = 1e-5 * (1.0 + float(np.linalg.norm(base)))
    for tau, stop in enumerate(np.cumsum(dims)):
        out[:, tau] = norms(from_flat, base, range(stop - dims[tau], stop),
                            step)
    terminal = terminal_builder(base_params)
    if include_terminal_target and terminal.kind == "indicator":
        # the pinned target itself is a perturbable datum at the far offset
        tgt = terminal.target
        step_tgt = 1e-5 * (1.0 + float(np.linalg.norm(tgt)))
        out[:, -1] = np.maximum(out[:, -1], norms(
            lambda v: first_actions(base_params, TerminalCost.indicator(v)),
            tgt, range(tgt.shape[0]), step_tgt))
    return out


def _init_state_jacobians(law: ftocp.ContinuationLaw, t: int) -> Array:
    """Spectral norms of d(y_h, v_h)/dz for the window [t, T], by offset h.

    The continuation is affine in z, so the Jacobians are the closed-loop
    transition products Phi_h = (A + BK)_{t+h-1} ... (A + BK)_t and
    K_{t+h} Phi_h, the state blocks of the law's lifted closed loop and
    gains.
    """
    n = law.data.n
    Phi = [np.eye(n)]
    for closed in law.closed_loop[t:, :n, :n]:
        Phi.append(closed @ Phi[-1])
    Phi = np.array(Phi)
    K = law.G[t:, :, :n]
    norms = np.linalg.norm(Phi, 2, axis=(1, 2))
    norms[:-1] = np.maximum(
        norms[:-1], np.linalg.norm(K @ Phi[:-1], 2, axis=(1, 2)))
    return norms


def _monotone_envelope(table: Array) -> Array:
    """Non-increasing upper envelope (running maximum from the right)."""
    return np.maximum.accumulate(table[::-1])[::-1]


def measure_gain_tables(instance: Instance, k: int, terminal_rule,
                        opt_states: Array, R: float, seed: int = 0,
                        t_stride: int = 1, state_samples: int = 1,
                        include_terminal_target: bool = True) -> GainTables:
    """Measure sensitivity envelopes on the family of solves the controller
    actually performs.

    The parameter tables gain_param and gain_state are per-coordinate
    central differences of the window's first action.  For the disturbance
    family the windowed solution is affine in the stacked parameters, so the
    differences are its exact Jacobians and the envelopes upper-bound any
    realized deviation by the triangle inequality.  The other families put
    the parameters inside A and B, where the map is not affine: there the
    differences measure its local slope at the true parameters.  The
    gain_init table is exact: the products of the closed-loop matrices
    A_t + B_t K_t of the instance's continuation law.
    """
    sys = instance.system
    if sys.kind == "inventory":
        raise ValueError("gain tables need a linear-quadratic system")
    T = sys.T
    rng = np.random.default_rng(seed)
    gp = np.zeros(k + 1)
    gs = np.zeros(k + 1)
    for t in range(0, T, t_stride):
        t2 = min(t + k, T)

        def terminal_builder(params, _t=t, _t2=t2):
            return terminal_rule.build(instance, _t, _t2, params)

        zs = [np.zeros(sys.n)]
        # the disturbance family's parameter Jacobian does not depend on the
        # state, so its state-coupled envelope is identically zero
        if sys.kind != "disturbance":
            xstar = np.atleast_1d(opt_states[t])
            z_list = [xstar] if np.linalg.norm(xstar) > 1e-12 else []
            for _ in range(max(0, state_samples - len(z_list))):
                d = rng.normal(size=sys.n)
                d *= R / max(np.linalg.norm(d), 1e-12)
                z_list.append(xstar + d)
            zs += [z for z in z_list if np.linalg.norm(z) >= 1e-12]
        jac = _window_action_jacobians(instance, t, t2, zs, terminal_builder,
                                       include_terminal_target)
        width = t2 - t + 1
        gp[:width] = np.maximum(gp[:width], jac[0])
        for z, row in zip(zs[1:], jac[1:]):
            gs[:width] = np.maximum(gs[:width], np.maximum(0.0, row - jac[0])
                                    / float(np.linalg.norm(z)))
    law = ftocp.truth_law(instance)
    gi = np.zeros(T + 1)
    for t in range(0, T + 1, t_stride):
        gi[:T - t + 1] = np.maximum(gi[:T - t + 1],
                                    _init_state_jacobians(law, t))
    gi[0] = max(gi[0], 1.0)
    return GainTables(_monotone_envelope(gs), _monotone_envelope(gp),
                      _monotone_envelope(gi))


def theory_gain_tables(instance: Instance, k: int, *, R: float,
                       D_xstar: float, sigma: float | None = None) -> GainTables:
    """Closed-form envelopes from the declared system bounds."""
    sys = instance.system
    bb = sys.bounds
    if sigma is None:
        sigma = measured_sigma(instance, k)
    consts = tracking_decay_constants(bb.mu, bb.ell, bb.a, bb.b, sigma,
                                      bb.L_A, bb.L_B, bb.L_Q, bb.L_R, bb.L_P)
    H = tracking_sensitivity_coef(consts, bb.ell, bb.D_xbar, bb.D_w, D_xstar,
                                  R, bb.L_w, bb.L_xbar, bb.L_Q)
    lam = consts.decay_rate
    taus = np.arange(k + 1)
    gp = H * lam ** taus
    if sys.kind == "disturbance":
        gs = np.zeros(k + 1)
    else:
        gs = H * lam ** (2 * taus)
    gi = H * lam ** np.arange(sys.T + 1)
    gi[0] = max(gi[0], 1.0)
    return GainTables(gs, gp, gi)
