"""Saddle-matrix analysis: blocks of the permuted saddle matrix read from a
window's step data, inverse block-decay profiles, closed-form decay
constants, and empirical sensitivity envelopes from a law's adjoint lam.

The saddle matrix of a window of length K is H = [[M, N'], [N, 0]], with
the cost block M and the dynamics block N over the variables (y_0, v_0,
..., v_{K-1}, y_K) and the multipliers (eta_0, ..., eta_K) of the initial
pin and the dynamics rows.  Ordered by step it is the block-tridiagonal
Upsilon: block i is (y_i, v_i, eta_i), the last one (y_K, eta_K) under a
quadratic terminal cost or (eta_K) alone when the final state is pinned.
Neither H nor Upsilon is formed; their blocks come from the step data.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import engine, ftocp
from ._assembly import WindowMatrices
from .model import (Bounds, DisturbanceOnlySystem, Instance, InventorySystem,
                    ModelError, TerminalCost, _check_count, _read_only,
                    _row_norms)

Array = np.ndarray


def window_data(system, params, terminal: TerminalCost) -> WindowMatrices:
    """Step data of the window on the steps 0 .. K, K = len(params) - 1,
    as ``ftocp.window_law`` reads its arguments.  The stock chain's window
    is a constrained QP with no saddle matrix of fixed blocks, so it raises
    ModelError: this module's analyses admit linear-quadratic systems."""
    if isinstance(system, InventorySystem):
        raise ModelError("saddle-matrix analysis needs a linear-quadratic "
                         "system")
    params = np.asarray(params, float)
    steps = np.arange(len(params) - 1)
    return WindowMatrices(*system.step_data(steps, params[:-1]), terminal)


def _saddle_tiles(wm: WindowMatrices) -> tuple[Array, Array, Array]:
    """The diagonal blocks D_i and super-diagonal blocks E_i of Upsilon as
    b x b tiles, b = 2n + m, the last block zero-padded, and the first
    multiplier position of each block.

    D_i = [[Q_i, 0, I], [0, R_i, 0], [I, 0, 0]] and the last block is
    [[P, I], [I, 0]] (zero under a pin).  E_i holds -A_i' and -B_i' in the
    columns of eta_{i+1}: blocks couple through the multipliers alone."""
    K, n, m = wm.K, wm.n, wm.m
    b, eye = 2 * n + m, np.eye(n)
    D = np.zeros((K + 1, b, b))
    D[:K, :n, :n] = wm.Q
    D[:K, n:n + m, n:n + m] = wm.R
    D[:K, :n, n + m:] = D[:K, n + m:, :n] = eye
    eta = np.full(K + 1, n + m)
    if wm.terminal.kind == "indicator":
        eta[K] = 0
    else:
        eta[K] = n
        D[K, :n, :n] = wm.terminal.P
        D[K, :n, n:2 * n] = D[K, n:2 * n, :n] = eye
    # E_i[:n + m, eta_{i+1} + j] = -[A_i B_i]'[:, j] for j < n
    E = np.zeros((K, b, b))
    E[np.arange(K)[:, None, None], np.arange(n + m)[:, None],
      eta[1:, None, None] + np.arange(n)] = -np.concatenate(
          [wm.A, wm.B], axis=-1).swapaxes(-1, -2)
    return D, E, eta


def _dynamics_blocks(wm: WindowMatrices) -> Array:
    """Dense N: the initial pin I at y_0, and the dynamics row of step t
    with -A_t at y_t, -B_t at v_t and I at y_{t+1}.  A pin drops y_K, the
    last column block."""
    K, n, m = wm.K, wm.n, wm.m
    N = np.zeros((K + 1, n, K + 1, n + m))
    t = np.arange(K)
    N[t + 1, :, t, :n] = -wm.A
    N[t + 1, :, t, n:] = -wm.B
    t = np.arange(K + 1)
    N[t, :, t, :n] = np.eye(n)
    cols = K * (n + m) + (0 if wm.terminal.kind == "indicator" else n)
    return N.reshape((K + 1) * n, (K + 1) * (n + m))[:, :cols]


def _gram_blocks(wm: WindowMatrices) -> Array:
    """Dense N N' of ``_dynamics_blocks``, block tridiagonal by step and
    read from A and B with no N formed: block (0, 0) is I, block
    (t+1, t+1) is I + A_t A_t' + B_t B_t' and block (t+1, t) is -A_t.  A pin
    drops y_K, so the last diagonal block has no I."""
    K, n = wm.K, wm.n
    A = wm.A
    G = np.zeros((K + 1, n, K + 1, n))
    t = np.arange(K)
    G[t + 1, :, t + 1] = A @ A.swapaxes(-1, -2) + wm.B @ wm.B.swapaxes(-1, -2)
    G[t + 1, :, t] = -A
    G[t, :, t + 1] = -A.swapaxes(-1, -2)
    t = np.arange(K if wm.terminal.kind == "indicator" else K + 1)
    G[t, :, t] += np.eye(n)
    return G.reshape((K + 1) * n, (K + 1) * n)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def loglinear_fit(x: Array, y: Array) -> tuple[float, float] | None:
    """Least-squares fit of log(y) against x; returns (slope, r2), or None
    for fewer than two points, through which no line is fitted."""
    x = np.asarray(x, float)
    if x.size < 2:
        return None
    ly = np.log(np.asarray(y, float))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


@dataclasses.dataclass
class DecayFit:
    """Dominating geometric envelope C * lam^offset of a measured profile."""

    C: float
    lam: float
    r2: float | None   # None when the rate was not fitted
    offsets: Array
    profile: Array

    def __post_init__(self):
        # the reported envelope must dominate every measured value
        slack = self.C * self.lam ** self.offsets * (1 + 1e-9) - self.profile
        if not np.all(slack >= -1e-12 * max(1.0, self.profile.max())):
            raise ValueError("envelope does not dominate the profile")


def fit_decay(offsets: Array, maxima: Array) -> DecayFit:
    """Fit per-offset maxima with a geometric envelope.

    The rate comes from a log-linear least-squares fit; the coefficient is then
    inflated so the envelope dominates every measured value.  Values at or
    below 1e-300 count as zero.  A profile that is zero beyond offset 0
    reports rate 0; one whose only positive value lies beyond offset 0 fits
    no rate and reports the flat envelope, rate 1.
    """
    offsets = np.asarray(offsets, float)
    maxima = np.asarray(maxima, float)
    pos = maxima > 1e-300
    if not np.any(pos[offsets > 0]):
        C = float(maxima.max(initial=0.0))
        return DecayFit(C, 0.0, None, offsets, maxima)
    slope, r2 = loglinear_fit(offsets[pos], maxima[pos]) or (0.0, None)
    lam = float(np.exp(min(slope, 0.0)))
    lam = min(lam, 1.0 - 1e-12) if lam < 1.0 else lam
    with np.errstate(divide="ignore"):
        C = float(np.max(maxima[pos] / lam ** offsets[pos]))
    return DecayFit(C, lam, r2, offsets, maxima)


def _spectral_norms(mats: Array) -> Array:
    """Spectral norm of each matrix of a stack with any leading axes: the
    square root of the largest eigenvalue of the Gram M M' of the matrix
    divided by its largest entry, times that entry, so that matrices whose
    squares would underflow or overflow keep their norms.  The Gram is
    taken on the smaller side (M'M for a tall M).  Where that side has at
    most two rows x and y, the eigenvalue is the closed form
    (a + c)/2 + hypot((a - c)/2, b) of a = x.x, c = y.y and b = x.y, a
    missing y being zero (which gives a exactly); wider Grams take one
    ``eigvalsh`` call for the stack.  A matrix's norm does not depend on
    the stack it sits in.  Raises FloatingPointError on a non-finite entry,
    which eigvalsh would turn into a silent NaN."""
    if not np.isfinite(mats).all():
        raise FloatingPointError("non-finite matrix entry in a spectral norm")
    if mats.shape[-2] > mats.shape[-1]:
        # contiguous rows, so that the row sums below round as in any stack
        mats = np.ascontiguousarray(mats.swapaxes(-1, -2))
    top = np.abs(mats).max(axis=(-2, -1), keepdims=True)
    mats = mats / np.where(top > 0.0, top, 1.0)
    if mats.shape[-2] > 2:
        gram = mats @ mats.swapaxes(-1, -2)
        return top[..., 0, 0] * np.sqrt(np.linalg.eigvalsh(gram)[..., -1])
    x = mats[..., 0, :]
    y = mats[..., 1, :] if mats.shape[-2] == 2 else np.zeros_like(x)
    a, c, b = (np.einsum("...j,...j->...", p, q)
               for p, q in ((x, x), (y, y), (x, y)))
    return top[..., 0, 0] * np.sqrt(0.5 * (a + c)
                                    + np.hypot(0.5 * (a - c), b))


def decay_profile(wm: WindowMatrices):
    """Spectral norms of the blocks of the inverse G of the permuted saddle
    matrix Upsilon of a window, by block elimination (Meurant 1992).

    Upsilon is block tridiagonal with diagonal blocks D_i and super-diagonal
    blocks E_i, built from the step data by ``_saddle_tiles``.  A forward
    elimination gives the pivots Delta_0 = D_0, Delta_{i+1} = D_{i+1} - E_i'
    Delta_i^{-1} E_i and C_i = -Delta_i^{-1} E_i; then G_ii = Delta_i^{-1} +
    C_i G_{i+1,i+1} C_i' and G_{i,j} = C_i G_{i+1,j} for j > i, and G is
    symmetric.  The elimination runs forward because a pinned window's last
    block is the zero multiplier block.  Blocks are held as b x b tiles, the
    last one zero-padded, which leaves spectral norms unchanged.

    Block i + 1 couples to block i only through its n multipliers mu_{i+1}
    (a fixed slice of each tile), so C_i is zero outside the columns
    mu_{i+1} and G_{i,j} = C_i[:, mu_{i+1}] Y_{i+1,j} for the n x b
    multiplier rows Y_{i,j} = G_{i,j}[mu_i, :].
    These obey Y_{i,j} = C_i[mu_i, mu_{i+1}] Y_{i+1,j}, one batched n x n
    product per offset, the only sequential step.  With R_i the triangular
    factor of C_i[:, mu_{i+1}], ||G_{i,j}|| = ||R_i Y_{i+1,j}||, the norm
    of an n x b tile.  The tiles of consecutive offsets are stacked, at most
    _STACK_CAP tiles (or one offset's) to a stack, and each stack is normed
    by one ``_spectral_norms`` call (as are the diagonal blocks), which
    keeps the norms of far blocks whose squares would underflow, into one
    array at their offsets' slice; it is split by offset and the per-offset
    maxima taken once, after the loop.  A tile's norm does not depend on
    the stack it sits in, so the outputs do not depend on the cap.

    Returns (norms by offset, per-offset maxima, DecayFit): entry i of
    offset o is the norm of G_{i,i+o}, which is that of G_{i+o,i} too.
    Raises SingularKKT when a pivot is singular, or when the blocks miss the
    identity Upsilon G = I by more than 1e-6 in some block row (a saddle
    matrix singular to rounding, such as an unreachable pin), and
    FloatingPointError on a non-finite block of G.
    """
    D, E, eta = _saddle_tiles(wm)
    nb, b, n = len(D), D.shape[-1], wm.n
    sizes = [b] * (nb - 1) + [eta[-1] + n]   # the multipliers end a block
    real = np.arange(b) < np.array(sizes)[:, None]
    mu_cols = eta[:, None] + np.arange(n)
    diag = np.zeros((nb, b, b))   # Delta_i^{-1}; G_ii after the backward pass
    C = np.zeros((nb - 1, b, b))
    pivot = D[0]
    try:
        for i, size in enumerate(sizes):
            diag[i, :size, :size] = np.linalg.inv(pivot[:size, :size])
            if i < nb - 1:
                C[i] = -diag[i] @ E[i]
                pivot = D[i + 1] + E[i].T @ C[i]
    except np.linalg.LinAlgError as exc:
        raise ftocp.SingularKKT(f"singular pivot at block {i}") from exc
    for i in range(nb - 2, -1, -1):
        diag[i] += C[i] @ diag[i + 1] @ C[i].T
    upper = C @ diag[1:]   # G_{i,i+1}
    # block row i of Upsilon G - I: D_i G_ii + E_{i-1}' G_{i-1,i}
    # + E_i G_{i+1,i} - I
    residual = D @ diag - real[:, :, None] * np.eye(b)
    residual[1:] += E.transpose(0, 2, 1) @ upper
    residual[:-1] += E @ upper.transpose(0, 2, 1)
    worst = float(np.abs(residual).max())
    if not worst <= 1e-6:
        raise ftocp.SingularKKT(
            f"saddle matrix singular to rounding: residual {worst:.3g}")
    C_mu = np.take_along_axis(C, mu_cols[1:, None, :], axis=2)
    R = np.linalg.qr(C_mu, mode="r")
    step = np.take_along_axis(C_mu, mu_cols[:-1, :, None], axis=1)
    Y = np.take_along_axis(diag, mu_cols[:, :, None], axis=1)[1:]
    vals = np.empty(nb * (nb + 1) // 2)    # the norms, offset by offset
    vals[:nb] = _spectral_norms(diag)
    done, held, tiles = nb, 0, []
    for off in range(1, nb):   # Y[i] = Y_{i+1,i+off}
        tiles.append(R[:nb - off] @ Y)
        held += nb - off
        Y = step[1:nb - off] @ Y[1:]
        if off == nb - 1 or held + len(Y) > _STACK_CAP:
            vals[done:done + held] = _spectral_norms(np.concatenate(tiles))
            done, held, tiles = done + held, 0, []
    offsets = np.arange(nb)
    counts = nb - offsets
    starts = np.cumsum(counts) - counts
    maxima = np.maximum.reduceat(vals, starts)
    return np.split(vals, starts[1:]), maxima, fit_decay(offsets, maxima)


# ---------------------------------------------------------------------------
# closed-form constants
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TrackingDecayConstants:
    """Closed-form decay constants of the tracking-setting saddle inverse."""

    sigma_lo: float
    sigma_hi: float
    decay_rate: float   # geometric rate of inverse-block decay
    decay_coef: float   # coefficient dominating every inverse block


def tracking_decay_constants(bounds: Bounds,
                             sigma: float) -> TrackingDecayConstants:
    """Decay constants of the declared system bounds and the measured (or
    declared) smallest singular value sigma of the dynamics blocks.

    sigma_lo <= min(mu, 1)(a + b + 1)/sqrt(2 mu) <= (a + b + 1)/sqrt(2)
    < sigma_hi, so 0 < rate < 1 and the coefficient is finite."""
    mu, ell, a, b = bounds.mu, bounds.ell, bounds.a, bounds.b
    if min(mu, ell, a, b, sigma) <= 0:
        raise ValueError("inputs must be positive")
    if mu > ell:
        raise ValueError("need mu <= ell")
    sigma_lo = (min(mu, 1.0) * (a + b + 1.0)
                * math.sqrt(ell / (2 * mu * ell + mu * sigma ** 2)))
    sigma_hi = math.sqrt(2.0) * (ell + a + b + 1.0)
    rate = math.sqrt((sigma_hi - sigma_lo) / (sigma_hi + sigma_lo))
    coef = 4.0 * (ell + 1.0 + a + b) / (sigma_lo ** 2 * rate)
    return TrackingDecayConstants(sigma_lo, sigma_hi, rate, coef)


def sigma_min(wm: WindowMatrices) -> float:
    """sigma_min of the dynamics blocks N of a window.  N holds only A and
    B, so every window with a quadratic terminal on the same steps gives
    the same value.  N is r x c; a pinned window with K m < n has a tall N,
    r > c, and a singular saddle matrix: it raises SingularKKT, as
    ``ftocp.continuation_law`` does for that window (``window_data``'s
    windows start at step 0).

    Two routes, chosen by the conditioning kappa = ||N|| / sigma of N:

    - Gram: sigma^2 and ||N||^2 are the extreme eigenvalues of the r x r
      Gram N N' (``_gram_blocks``), from one symmetric eigensolve, about
      half the flops of the QR route.  Forming N N' and the eigensolve
      perturb it by about r eps ||N||^2 (Weyl; r is a generous constant
      for the at most n + m + 1 products of an entry and the Householder
      reduction), so sigma^2 moves by that much and sigma by
      r eps ||N||^2 / (2 sigma) to first order.  The QR route is held to
      10 max(r, c) eps ||N||, and the Gram route is taken only where its
      error fits that allowance: kappa <= 20 c / r, read off the same
      eigenvalues as lam_max <= (20 c / r)^2 lam_min with lam_min > 0.
      Near that threshold the computed kappa is within about r eps kappa^2
      relative of the exact one, so no window past it by more than that
      takes this route.
    - QR: otherwise, and on a non-finite Gram (NaN or inf in the steps,
      or overflow in the products; eigvalsh may return NaNs anywhere in
      its order, so lam alone cannot tell), N' = QR gives
      sigma(N) = sigma(R) for the square r x r triangle R of one QR of N',
      whose SVD replaces that of the wide N (Chan 1982).  It does not
      square kappa, so it is the accurate route on ill-conditioned windows
      (pendulum's and grid's)."""
    K, n, m = wm.K, wm.n, wm.m
    r = (K + 1) * n
    c = K * (n + m) + (0 if wm.terminal.kind == "indicator" else n)
    if r > c:
        raise ftocp.SingularKKT("pinned terminal unreachable from step 0")
    gram = _gram_blocks(wm)
    if np.isfinite(gram).all():
        lam = np.linalg.eigvalsh(gram)
        if lam[0] > 0.0 and lam[-1] <= (20.0 * c / r) ** 2 * lam[0]:
            return math.sqrt(lam[0])
    del gram   # freed before N and its QR copy are formed
    R = np.linalg.qr(_dynamics_blocks(wm).T, mode="r")
    return float(np.linalg.svd(R, compute_uv=False).min())


def measured_sigma(instance: Instance, k: int | None = None) -> float:
    """sigma_min of the dynamics blocks of the full window and, when k is
    given, of the pinned-terminal window on the steps 0 .. k, minimized over
    both.  Each window takes its own route (see ``sigma_min``): the Gram
    eigensolve where kappa(N) <= 20 c / r, as on the windows of the
    tracking-rand and disturbance presets at their default seeds, the QR
    triangle otherwise, as on pendulum's and grid's.  A pinned window with
    k m < n raises SingularKKT."""
    sys, truth = instance.system, instance.truth
    smin = sigma_min(window_data(sys, truth, TerminalCost.zero(sys.n)))
    if k is not None and k < sys.T:
        smin = min(smin, sigma_min(window_data(
            sys, truth[:k + 1], TerminalCost.indicator(np.zeros(sys.n)))))
    return smin


# ---------------------------------------------------------------------------
# empirical sensitivity envelopes
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class GainTables:
    """Envelopes of the windowed solution's sensitivities by temporal offset.

    gain_state(tau): coefficient multiplying ||z|| in the first-action
    response to a parameter change at offset tau; gain_param(tau): the
    state-independent part; gain_init(tau): response of states/actions at
    offset tau to an initial-state change.  Measured with windows of length
    k = len(gain_param) - 1, at the hindsight radius R = max_t(||x*_t||, 1).

    ``basis`` says what the tables bound.  "exact": measured Jacobians of a
    first action that is affine in the parameters, which bound every finite
    perturbation; "local": measured slopes at the true parameters, which
    bound only infinitesimal ones.  Tables and arrays are read-only.
    """

    gain_state: Array
    gain_param: Array
    gain_init: Array
    basis: str
    R: float

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ValueError("need a finite R > 0")
        for name in ("gain_state", "gain_param", "gain_init"):
            object.__setattr__(self, name, _read_only(
                np.array(getattr(self, name), float)))

    @property
    def k(self) -> int:
        return len(self.gain_param) - 1

    @property
    def C3(self) -> float:
        return float(max(np.sum(self.gain_init), 1.0))


def _central_slopes(fn, xi: Array) -> list[Array]:
    """Central differences of the arrays returned by fn(xi), one trailing
    axis per coordinate of xi's last axis.  The leading axes of xi are a
    batch: fn maps each entry and returns arrays with those axes in front,
    and each entry takes its own step.  The step balances truncation and
    rounding error; data affine in xi come out exact to rounding."""
    xi = np.asarray(xi, float)
    cols = []
    for i in range(xi.shape[-1]):
        hi, lo = xi.copy(), xi.copy()
        h = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(xi[..., i]))
        hi[..., i] += h
        lo[..., i] -= h
        step = hi[..., i] - lo[..., i]
        diffs = [np.asarray(a, float) - np.asarray(b, float)
                 for a, b in zip(fn(hi), fn(lo))]
        cols.append([(d.reshape(step.shape + (-1,)) / step[..., None])
                     .reshape(d.shape) for d in diffs])
    return [np.stack(col, axis=-1) for col in zip(*cols)]


def _step_data_slopes(instance: Instance) -> list[Array]:
    """d(A, B, w, Q, R, xbar)/dxi at the true parameters for the steps
    0..T-1, each stacked by step with a trailing axis over the parameter
    coordinates: one batched central difference."""
    sys, truth = instance.system, instance.truth
    steps = np.arange(sys.T)
    return _central_slopes(lambda xi: sys.step_data(steps, xi),
                           truth[:sys.T])


def _terminal_data(terminal: TerminalCost) -> tuple[Array, ...]:
    """The parameter-dependent arrays of a terminal: the pin's target, or
    the quadratic's P and xbar."""
    if terminal.kind == "indicator":
        return (terminal.target,)
    return terminal.P, terminal.xbar


def _terminal_slopes(instance: Instance, t2: Array) -> list[Array]:
    """Slopes of the terminal data (see ``_terminal_data``) of the caps
    (``engine.window_terminal``) of the windows ending at the steps t2, in
    their last parameters, at the true ones: one batched central
    difference, stacked by window."""
    return _central_slopes(
        lambda xi: _terminal_data(engine.window_terminal(instance, t2, xi)),
        instance.truth[t2])


def _window_action_jacobians(law: ftocp.ContinuationLaw, zs: Array,
                             step_slopes, terminal_slopes) -> Array:
    """Spectral norms of the Jacobians of the committed action of every
    window of a law with respect to each window parameter (and, for a pin,
    its target), by offset; entry [j, i] is taken at the initial state
    zs[j, i] of window i.

    By the implicit-function theorem on the saddle system H chi = b of a
    window, du_0/dxi = -lam'(dH/dxi chi - db/dxi) with H lam = e_{u_0}, so
    the windows cost the law, read at every state by batched rollouts and
    once for lam (``first_action_adjoint``).  The parameter of offset
    tau < K enters only the rows of step tau (the stationarity in y_tau and
    v_tau and the dynamics row to tau + 1), and the last one only the
    terminal rows, so each offset is one contraction of the slopes of its
    own data with lam and chi(z): ``step_slopes`` are those of
    ``_step_data_slopes`` and ``terminal_slopes`` those of
    ``_terminal_slopes`` for the windows' last steps, stacked by window (or
    one row that every window shares).  A pinned window's last offset
    takes the larger of the norms through the cap's target slope and of
    lam's pin component, the Jacobian in the target itself.  Every sample
    is read by one batched rollout; the earliest window that misses its pin
    raises SingularKKT.

    The law may be padded (``suffix`` of an array of offsets), on the
    invariant that every padded window ends at T, the last step of
    ``step_slopes``: window i then has its own K_i = min(K, T - t1_i)
    offsets, its terminal entry is read at K_i, and its entries past K_i
    are 0.
    """
    wm, K, T = law.data, law.T, len(step_slopes[0])
    states, v, duals = law.trajectories(zs)
    lam_y, lam_v, lam_eta, lam_nu = law.first_action_adjoint()
    y, eta = states[..., :-1, :], duals[..., 1:, :]
    steps = law.t1[:, None] + np.arange(K)
    own = np.minimum(steps, T - 1)   # masked below where padded
    dA, dB, dw, dQ, dR, dxbar = (d[own] for d in step_slopes)
    Q, xbar = wm.Q, wm.xbar
    row_y = (np.einsum("wtabi,zwtb->zwtai", dQ, y - xbar)
             - np.einsum("wtab,wtbi->wtai", Q, dxbar)
             - np.einsum("wtbai,zwtb->zwtai", dA, eta))
    row_v = (np.einsum("wtabi,zwtb->zwtai", dR, v)
             - np.einsum("wtbai,zwtb->zwtai", dB, eta))
    row_dyn = -(np.einsum("wtabi,zwtb->zwtai", dA, y)
                + np.einsum("wtabi,zwtb->zwtai", dB, v) + dw)
    jac = -(np.einsum("wtaj,zwtai->zwtji", lam_y[:, :-1], row_y)
            + np.einsum("wtaj,zwtai->zwtji", lam_v, row_v)
            + np.einsum("wtaj,zwtai->zwtji", lam_eta, row_dyn))
    out = np.zeros(jac.shape[:2] + (K + 1,))
    out[..., :K] = np.where(steps < T, _spectral_norms(jac), 0.0)
    w = np.arange(law.W)
    last = np.minimum(K, T - law.t1)   # each window's own last offset
    terminal = wm.terminal
    if terminal.kind == "indicator":
        (d_target,) = terminal_slopes
        out[:, w, last] = np.maximum(
            _spectral_norms(lam_nu.swapaxes(-1, -2) @ d_target),
            _spectral_norms(lam_nu))
    else:
        dP, d_xbar_T = terminal_slopes
        row_T = (np.einsum("wabi,zwb->zwai", dP,
                           states[:, w, last] - terminal.xbar)
                 - terminal.P @ d_xbar_T)
        out[:, w, last] = _spectral_norms(
            np.einsum("waj,zwai->zwji", lam_y[w, last], row_T))
    return out


# the most steps (windows x offsets) of one padded batch of the gain
# tables, or matrices or tiles of one ``_spectral_norms`` call of gain_init
# or of the inverse block profile, which bounds their memory at long horizons
_STACK_CAP = 1024


def _init_state_jacobians(law: ftocp.ContinuationLaw) -> Array:
    """Largest spectral norm of d(y_h, v_h)/dz over the windows [t, T] of
    a law of one window, by offset h.

    The continuation is affine in z, so the Jacobians are the closed-loop
    transition products Phi_h(t) = (A + BK)_{t+h-1} ... (A + BK)_t and
    K_{t+h} Phi_h(t), read from the law's loop Phi_t = A_t + B_t K_t and
    its gains K_t.  Each offset is one batched product over every start t,
    Phi_{h+1} = (A + BK)_{h..T-1} Phi_h(0..T-h-1).  The norms of the Phi
    of consecutive offsets, and those of the K Phi, are taken by one
    ``_spectral_norms`` call per stack of at most _STACK_CAP matrices (or
    one offset's) and reduced to per-offset maxima stack by stack, so
    memory stays O(T).
    """
    n, T = law.data.n, law.T
    closed, gains = law.loop[0], law.feedback[0]
    norms = np.zeros(T + 1)
    Phi = np.broadcast_to(np.eye(n), (T + 1, n, n))
    first, held, phis, gain_phis = 0, 0, [], []   # offsets first..h
    for h in range(T + 1):
        phis.append(Phi)
        held += len(Phi)
        if h < T:
            gain_phis.append(gains[h:] @ Phi[:T - h])
            Phi = closed[h:] @ Phi[:T - h]
        if h == T or held + len(Phi) > _STACK_CAP:
            for stacks in (phis, gain_phis):   # no K Phi at offset T
                if stacks:
                    starts = np.cumsum([0] + [len(s) for s in stacks[:-1]])
                    top = np.maximum.reduceat(
                        _spectral_norms(np.concatenate(stacks)), starts)
                    span = slice(first, first + len(top))
                    norms[span] = np.maximum(norms[span], top)
            first, held, phis, gain_phis = h + 1, 0, [], []
    return norms


def _state_samples(instance: Instance, opt_states: Array, R: float) -> Array:
    """Initial states zs[j, t] at which the Jacobians of each window [t, ...]
    are taken: the zero state, then (but for the disturbance family) the
    hindsight-optimal state x*_t, or x*_t plus a random step of length R
    when ||x*_t|| <= 1e-12, drawn in step order from the instance's seed.

    The disturbance family's parameter Jacobian does not depend on the
    state, so its state-coupled envelope is identically zero and zs holds
    the zero state alone."""
    sys = instance.system
    if isinstance(sys, DisturbanceOnlySystem):
        return np.zeros((1, sys.T, sys.n))
    zs = np.zeros((2, sys.T, sys.n))
    zs[1] = opt_states[:sys.T]
    small = np.flatnonzero(_row_norms(zs[1]) <= 1e-12)
    d = np.random.default_rng(instance.seed).normal(size=(small.size, sys.n))
    zs[1, small] += d * (R / np.maximum(_row_norms(d), 1e-12))[:, None]
    return zs


def _monotone_envelope(table: Array) -> Array:
    """Non-increasing upper envelope (running maximum from the right)."""
    return np.maximum.accumulate(table[::-1])[::-1]


def measure_gain_tables(instance: Instance, k: int) -> GainTables:
    """Measure sensitivity envelopes on the family of solves the controller
    actually performs.

    The parameter tables gain_param and gain_state are the Jacobians of
    each window's first action at the states of ``_state_samples`` around
    the hindsight optimum x* of ``engine.solve_opt`` (the tables record
    R = max_t(||x*_t||, 1)), by implicit differentiation of the window's
    saddle system with the adjoint lam read from each law (see
    ``_window_action_jacobians``), with the slopes of the step data taken
    once per step and those of the terminals once per group of laws, by
    central differences of the system's maps.  The laws come from at most
    two backward passes: the T - k full windows [t, t + k] are one batch of
    ``ftocp.window_laws``, and the k tail windows [t, T] are ``suffix(ts)``
    of the instance's truth law for consecutive offsets ts, in padded
    batches of at most _STACK_CAP steps (windows x offsets) each: one batch
    at k = 8 and T = 24.  A window that reaches T has the true step data and
    the instance's terminal cost, so the tails share one terminal slope,
    taken at T.  A failing window raises as the windows would one at a
    time: the full windows before the batch's failing one are rolled out,
    and their pins checked, before its failure is raised.
    For the disturbance family the first action is affine in the
    parameters, so the Jacobians bound any realized deviation by the
    triangle inequality (basis "exact").  The other families put the
    parameters inside A and B, where the map is not affine: there the
    Jacobians are its local slope at the true parameters (basis "local").
    The gain_init table is exact: the products of the closed-loop matrices
    A_t + B_t K_t of the truth law, normed in stacked calls (see
    ``_init_state_jacobians``).  Raises ModelError unless k is an integer
    in 1..T, and for the stock chain, and FloatingPointError when the
    hindsight optimum or a Jacobian is not finite.
    """
    sys, truth = instance.system, instance.truth
    _check_count("window length k", k, 1, sys.T)
    if isinstance(sys, InventorySystem):
        raise ModelError("gain tables need a linear-quadratic system")
    opt = engine.solve_opt(instance)
    R = max(opt.max_state_norm, 1.0)
    T = sys.T
    step_slopes = _step_data_slopes(instance)
    zs = _state_samples(instance, opt.states, R)
    jac = np.zeros(zs.shape[:2] + (k + 1,))   # zero beyond a tail's width
    full = max(T - k, 0)
    batch = ftocp.window_laws(
        sys, [(t, truth[t:t + k + 1]) for t in range(full)],
        functools.partial(engine.window_terminal, instance))
    if batch.windows:
        law_k = batch.windows[0][0]
        jac[:, :law_k.W] = _window_action_jacobians(
            law_k, zs[:, :law_k.W], step_slopes,
            _terminal_slopes(instance, law_k.t1 + law_k.T))
    if batch.failure is not None:
        raise batch.failure
    law = ftocp.truth_law(instance)
    tail_slopes = _terminal_slopes(instance, np.array([T]))
    t = full
    while t < T:    # the tails [t, T], as many per call as the cap allows
        ts = np.arange(t, min(T, t + max(1, _STACK_CAP // (T - t))))
        jac[:, ts, :T - t + 1] = _window_action_jacobians(
            law.suffix(ts), zs[:, ts], step_slopes, tail_slopes)
        t = ts[-1] + 1
    scale = _row_norms(zs[1:])
    gp = jac[0].max(axis=0)
    gs = (np.maximum(0.0, jac[1:] - jac[0])
          / scale.reshape(-1, T, 1)).max(axis=(0, 1), initial=0.0)
    gi = _init_state_jacobians(law)
    gi[0] = max(gi[0], 1.0)
    return GainTables(_monotone_envelope(gs), _monotone_envelope(gp),
                      _monotone_envelope(gi),
                      "exact" if isinstance(sys, DisturbanceOnlySystem)
                      else "local", R)
