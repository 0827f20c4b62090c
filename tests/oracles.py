"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written with different algorithms than the
library under test: null-space elimination instead of saddle-point solves,
scipy SLSQP, dense SVDs, plain finite differences, and closed forms of the
physical examples and of saddle spectra.  Tests compare library output
against these oracles rather than against hand-typed numbers.  Nothing here
imports the library.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.optimize


def qp_equality_oracle(P, q, G, h):
    """Solve min 0.5 x'Px + q'x  s.t.  Gx = h by null-space elimination.

    Returns (x, lam) where lam are the constraint multipliers satisfying
    Px + q + G' lam = 0.
    """
    P = np.asarray(P, float)
    q = np.asarray(q, float)
    G = np.asarray(G, float)
    h = np.asarray(h, float)
    x_part, *_ = np.linalg.lstsq(G, h, rcond=None)
    Z = scipy.linalg.null_space(G)
    if Z.size:
        rhs = -Z.T @ (P @ x_part + q)
        y = np.linalg.solve(Z.T @ P @ Z, rhs)
        x = x_part + Z @ y
    else:
        x = x_part
    lam, *_ = np.linalg.lstsq(G.T, -(P @ x + q), rcond=None)
    return x, lam


def lq_ocp_oracle(As, Bs, ws, Qs, Rs, xbars, z, terminal, duals=False):
    """Dense oracle for the windowed linear-quadratic problem.

    minimize sum_t (x_t - xbar_t)'Q_t(x_t - xbar_t) + u_t'R_t u_t  (+ terminal)
    s.t. x_{t+1} = A_t x_t + B_t u_t + w_t,  x_0 = z.

    ``terminal`` is ("quadratic", P, xbar), ("indicator", target) or ("zero",).
    Variables are stacked (x_0, u_0, x_1, u_1, ..., x_K).  Returns the stacked
    states (K+1, n) and actions (K, m); with ``duals``, also the multipliers
    of the constraint rows (K+1, n), or (K+2, n) with the terminal pin: the
    initial pin, the dynamics rows x_{t+1} - A_t x_t - B_t u_t = w_t, then
    the pin, in the scaling of ``qp_equality_oracle`` (the gradient of the
    full cost).
    """
    K = len(As)
    n = z.shape[0]
    m = Bs[0].shape[1]
    nv = (K + 1) * n + K * m

    def xi(i):
        return i * (n + m)

    def ui(i):
        return i * (n + m) + n

    P = np.zeros((nv, nv))
    q = np.zeros(nv)
    for t in range(K):
        P[xi(t):xi(t) + n, xi(t):xi(t) + n] = 2.0 * Qs[t]
        q[xi(t):xi(t) + n] = -2.0 * Qs[t] @ xbars[t]
        P[ui(t):ui(t) + m, ui(t):ui(t) + m] = 2.0 * Rs[t]
    rows = [np.zeros((n, nv))]
    rhs = [z]
    rows[0][:, 0:n] = np.eye(n)
    for t in range(K):
        r = np.zeros((n, nv))
        r[:, xi(t):xi(t) + n] = -As[t]
        r[:, ui(t):ui(t) + m] = -Bs[t]
        r[:, xi(t + 1):xi(t + 1) + n] = np.eye(n)
        rows.append(r)
        rhs.append(ws[t])
    if terminal[0] == "quadratic":
        PT, xbT = terminal[1], terminal[2]
        P[xi(K):xi(K) + n, xi(K):xi(K) + n] = 2.0 * PT
        q[xi(K):xi(K) + n] = -2.0 * PT @ xbT
    elif terminal[0] == "indicator":
        r = np.zeros((n, nv))
        r[:, xi(K):xi(K) + n] = np.eye(n)
        rows.append(r)
        rhs.append(np.asarray(terminal[1], float))
    G = np.vstack(rows)
    h = np.concatenate(rhs)
    sol, lam = qp_equality_oracle(P, q, G, h)
    states = np.array([sol[xi(i):xi(i) + n] for i in range(K + 1)])
    actions = np.array([sol[ui(i):ui(i) + m] for i in range(K)])
    if duals:
        return states, actions, lam.reshape(-1, n)
    return states, actions


EXACT_SIZE_MAX = 25     # K (n + m) of the largest window solved exactly


def exact(a):
    """The float array a as an object array of the Fractions it equals."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(a, float))


def _exact_solve(M, b):
    """x with M x = b for an invertible square object array M of Fractions,
    by Gauss-Jordan elimination on the first nonzero pivot of each column.
    Every step is exact, so no pivot order is more accurate than another."""
    n = len(b)
    rows = [list(M[i]) + [b[i]] for i in range(n)]
    for j in range(n):
        p = next((i for i in range(j, n) if rows[i][j] != 0), None)
        if p is None:
            raise ZeroDivisionError("singular saddle system")
        rows[j], rows[p] = rows[p], rows[j]
        pivot = rows[j]
        inv = 1 / pivot[j]
        pivot[j:] = [v * inv for v in pivot[j:]]
        for i in range(n):
            f = rows[i][j]
            if i != j and f:
                rows[i][j:] = [v - f * pv for v, pv in zip(rows[i][j:],
                                                           pivot[j:])]
    return np.array([r[n] for r in rows], dtype=object)


def exact_lq_ocp_oracle(As, Bs, ws, Qs, Rs, xbars, z, terminal):
    """The windowed linear-quadratic problem of ``lq_ocp_oracle``, solved
    exactly: every float of the data is read as the rational it equals,
    and the window's saddle system is solved in ``fractions.Fraction``
    with no rounding at all.  The states are eliminated first, x_t = c_t +
    M_t u an exact affine function of the stacked actions u, which leaves
    the saddle system of u and the pin's multiplier (or the normal
    equations of u without a pin): K m + n unknowns, or K m.  Returns the
    states (K+1, n) and actions (K, m) as object arrays of Fractions.
    Refuses a window with K (n + m) > EXACT_SIZE_MAX, whose rationals
    would grow too long for a test."""
    K, n, m = len(As), len(z), np.shape(Bs[0])[1]
    if K * (n + m) > EXACT_SIZE_MAX:
        raise ValueError(f"window of K (n + m) = {K * (n + m)} is too large "
                         f"for the exact oracle")
    As, Bs, ws, Qs, Rs, xbars = (
        [exact(d) for d in data] for data in (As, Bs, ws, Qs, Rs, xbars))
    zero = Fraction(0)
    c, M = exact(z), np.full((n, K * m), zero, dtype=object)
    H = np.full((K * m, K * m), zero, dtype=object)
    g = np.full(K * m, zero, dtype=object)
    cs, Ms = [c], [M]
    for t in range(K):
        dev = c - xbars[t]
        H += M.T.dot(Qs[t]).dot(M)
        g += M.T.dot(Qs[t].dot(dev))
        H[t * m:(t + 1) * m, t * m:(t + 1) * m] += Rs[t]
        c = As[t].dot(c) + ws[t]
        M = As[t].dot(M)
        M[:, t * m:(t + 1) * m] += Bs[t]
        cs.append(c)
        Ms.append(M)
    if terminal[0] == "indicator":
        E = M
        top = np.concatenate([H, E.T], axis=1)
        bottom = np.concatenate([E, np.full((n, n), zero, dtype=object)],
                                axis=1)
        rhs = np.concatenate([-g, exact(terminal[1]) - c])
        u = _exact_solve(np.concatenate([top, bottom]), rhs)[:K * m]
    else:
        if terminal[0] == "quadratic":
            PT, xT = exact(terminal[1]), exact(terminal[2])
            H = H + M.T.dot(PT).dot(M)
            g = g + M.T.dot(PT.dot(c - xT))
        u = _exact_solve(H, -g)
    states = np.array([cs[t] + Ms[t].dot(u) for t in range(K + 1)])
    return states, u.reshape(K, m)


def inventory_oracle(z, targets, target_terminal, u_lo, u_hi,
                     x_lo=-1.0, x_hi=1.0, action_weight=0.0):
    """SLSQP oracle for the scalar chain problem.

    minimize sum_{t=0}^{p-1} (x_t - targets[t])^2
             + action_weight * sum (x_{t+1} - x_t)^2
    over x_1..x_{p-1} with x_0 = z, x_p = target_terminal,
    x in [x_lo, x_hi] and u_lo <= x_{t+1} - x_t <= u_hi (u_hi = inf for
    one-sided).  Returns the full state sequence x_0..x_p.
    """
    targets = np.asarray(targets, float)
    p = targets.shape[0]
    nfree = p - 1

    def full(xf):
        return np.concatenate([[z], xf, [target_terminal]])

    def obj(xf):
        x = full(xf)
        return float(np.sum((x[:p] - targets) ** 2)
                     + action_weight * np.sum(np.diff(x) ** 2))

    cons = []

    def make_lo(t):
        return lambda xf: full(xf)[t + 1] - full(xf)[t] - u_lo

    cons.extend({"type": "ineq", "fun": make_lo(t)} for t in range(p))
    if u_hi < np.inf:
        def make_hi(t):
            return lambda xf: u_hi - (full(xf)[t + 1] - full(xf)[t])

        cons.extend({"type": "ineq", "fun": make_hi(t)} for t in range(p))
    x0 = np.linspace(z, target_terminal, p + 1)[1:-1]
    best = None
    # multistart: SLSQP on this nonsmooth-free QP is reliable, but cheap
    # multistart guards against sticking at an activation boundary
    starts = [x0, np.clip(targets[1:], x_lo, x_hi) * 0.9, np.zeros(nfree)]
    for s in starts:
        res = scipy.optimize.minimize(
            obj, s, method="SLSQP", constraints=cons,
            bounds=[(x_lo, x_hi)] * nfree,
            options={"maxiter": 500, "ftol": 1e-14})
        if res.success and (best is None or res.fun < best.fun - 1e-12):
            best = res
    if best is None:
        raise RuntimeError("oracle failed to converge")
    return full(best.x)


# The stock chain's reads of a primal solution on numpy arrays: the chain
# law reads them on Python floats and must agree bit for bit.  ``sys`` has
# the bounds u_lo, u_hi (+inf when one-sided), x_lo, x_hi and the
# action_weight of the chain; ``targets`` are r_s from the first state on.

def chain_actions(sys, states):
    """Actions between consecutive states, clipped to the action bounds."""
    return np.clip(np.diff(states), sys.u_lo, sys.u_hi)


def chain_duals(sys, targets, states, actions):
    """Multipliers eta of the dynamics rows: a forward pass keeps the
    interval of eta_{s+1} that the bound multipliers allow (nonzero only
    towards a bound met to within 1e-12), a backward one picks eta_s
    nearest a zero state-bound multiplier."""
    gam, K = sys.action_weight, actions.size
    dev, tol, inf = states - targets, 1e-12, np.inf
    bands, lo, hi = [], -inf, inf
    for s, (x, u) in enumerate(zip(states, actions)):
        a = lo + dev[s] - (inf if s == 0 or x <= sys.x_lo + tol else 0.0)
        b = hi + dev[s] + (inf if s == 0 or x >= sys.x_hi - tol else 0.0)
        lo = gam * u - (inf if u <= sys.u_lo + tol else 0.0)
        hi = gam * u + (inf if u >= sys.u_hi - tol else 0.0)
        lo, hi = min(max(a, lo), hi), max(min(b, hi), lo)
        bands.append((lo, hi))
    eta = np.empty(K + 1)
    nearest = gam * actions[-1] if K else 0.0
    for s in range(K, 0, -1):
        eta[s] = min(max(nearest, bands[s - 1][0]), bands[s - 1][1])
        nearest = eta[s] - dev[s - 1]
    eta[0] = nearest
    return eta


def chain_kkt_residual(sys, targets, pin, states, actions, duals):
    """Norm of the initial stationarity row, the dynamics rows, the pin and
    the natural residuals of the action and state bounds, in this order."""
    eta, x = np.ravel(duals), states[1:-1]
    dev = states - targets
    ell = eta[1:] - sys.action_weight * actions
    m = eta[2:] - eta[1:-1] - dev[1:-1]
    return float(np.linalg.norm(np.concatenate([
        dev[:1] + eta[:1] - eta[1:2], np.diff(states) - actions,
        states[-1:] - pin,
        actions - np.clip(actions + ell, sys.u_lo, sys.u_hi),
        x - np.clip(x + m, sys.x_lo, sys.x_hi)])))


def forecast_oracle(truth, k, rho, seed):
    """Forecasts of a prediction stream, one entry at a time.

    For t = 0..T and then tau = 0..k with t + tau <= T, draws one standard
    normal direction of the parameter's dimension (redrawn while its norm is
    at most 1e-12), normalizes it, and returns the map (t, tau) ->
    truth[t + tau] + rho(t, tau) * direction.  A constant rho applies to
    every tau > 0; tau = 0 is exact.
    """
    truth = [np.atleast_1d(np.asarray(x, float)) for x in truth]
    T = len(truth) - 1
    rng = np.random.default_rng(seed)
    out = {}
    for t in range(T + 1):
        for tau in range(min(k, T - t) + 1):
            if callable(rho):
                mag = float(rho(t, tau))
            else:
                mag = float(rho) if tau > 0 else 0.0
            while True:
                v = rng.normal(size=truth[t + tau].shape[0])
                nrm = np.linalg.norm(v)
                if nrm > 1e-12:
                    break
            out[t, tau] = truth[t + tau] + mag * (v / nrm)
    return out


def per_step_bound_oracle(t, k, T, rho, gain_state, gain_param, R, C3,
                          D_xstar):
    """Right-hand side of the per-step error bound at step t, one offset at
    a time: sum over tau = 0..k of ((R/C3 + D_xstar) gain_state(tau) +
    gain_param(tau)) rho(t, tau), plus the truncation term
    2R((R/C3 + D_xstar) gain_state(k) + gain_param(k)) while t < T - k.
    ``rho`` is a callable of (t, tau)."""
    coef = R / C3 + D_xstar
    acc = 0.0
    for tau in range(k + 1):
        acc += (coef * gain_state[tau] + gain_param[tau]) * float(rho(t, tau))
    if t < T - k:
        acc += 2.0 * R * (coef * gain_state[k] + gain_param[k])
    return acc


def fd_jacobian(f, x, step=None):
    """Central-difference Jacobian of f at x (both 1-D arrays)."""
    x = np.asarray(x, float)
    if step is None:
        step = 1e-5 * (1.0 + np.linalg.norm(x))
    cols = []
    for i in range(x.size):
        dp = x.copy()
        dm = x.copy()
        dp[i] += step
        dm[i] -= step
        cols.append((np.asarray(f(dp)) - np.asarray(f(dm))) / (2 * step))
    return np.stack(cols, axis=-1)


def init_state_gains(closed, gains):
    """By offset h = 0..T, the largest spectral norm over the start steps t
    of the response of the state and the action at offset h of the window
    [t, T] to its initial state: Phi_h(t) = closed[t+h-1] ... closed[t] and
    gains[t+h] Phi_h(t), one plain product chain per start."""
    T, n = closed.shape[0], closed.shape[-1]
    out = np.zeros(T + 1)
    for t in range(T + 1):
        Phi = np.eye(n)
        for h in range(T - t + 1):
            out[h] = max(out[h], np.linalg.norm(Phi, 2))
            if t + h < T:
                out[h] = max(out[h], np.linalg.norm(gains[t + h] @ Phi, 2))
                Phi = closed[t + h] @ Phi
    return out


def tracking_rand_data(T, seed, n, m):
    """The random data of the tracking-rand preset, drawn one matrix at a
    time in the preset's order: T nominal and T deviation A's (normal,
    scaled to spectral norms 0.8 and 1), the same for B, T state weights,
    T action weights and the terminal weight (per matrix a normal d x d
    draw, the Q of its QR, then d uniform eigenvalues in [0.5, 2]), T unit
    disturbance and T unit reference directions, the truth, then x0.

    Returns (step_data, truth, x0, P_T), where step_data(t, xi) gives
    (A, B, w, Q, R, xbar) of step t at the scalar parameter xi.
    """
    rng = np.random.default_rng(seed)

    def scaled(shape, norm):
        M = rng.normal(size=shape)
        return M * (norm / np.linalg.norm(M, 2))

    def unit_vec(d):
        v = rng.normal(size=d)
        return v / np.linalg.norm(v)

    def random_spd(d):
        Qo, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = rng.uniform(0.5, 2.0, size=d)
        return Qo @ np.diag(eigs) @ Qo.T

    A0 = [scaled((n, n), 0.8) for _ in range(T)]
    Ad = [scaled((n, n), 1.0) for _ in range(T)]
    B0 = [scaled((n, m), 0.8) for _ in range(T)]
    Bd = [scaled((n, m), 1.0) for _ in range(T)]
    Qs = [random_spd(n) for _ in range(T)]
    Rs = [random_spd(m) for _ in range(T)]
    P_T = random_spd(n)
    wd = [unit_vec(n) for _ in range(T)]
    xd = [unit_vec(n) for _ in range(T)]
    truth = rng.uniform(0.0, 1.0, size=(T + 1, 1))
    x0 = 0.3 * unit_vec(n)

    def step_data(t, xi):
        dev = float(np.atleast_1d(xi)[0]) - 0.5
        return (A0[t] + dev * 0.2 * Ad[t], B0[t] + dev * 0.2 * Bd[t],
                dev * 0.2 * wd[t], Qs[t], Rs[t], dev * 0.2 * xd[t])

    return step_data, truth, x0, P_T


def disturbance_data(T, seed):
    """The random data of the disturbance preset, drawn one value at a time
    in the preset's order: T rotation angles in [0, 2 pi), T unit
    disturbance directions, then the truth.

    Returns (step_data, truth), where step_data(t, xi) gives (A, B, w, Q,
    R, xbar) of step t at the scalar parameter xi: A is 0.7 times the
    rotation by angle t, B = Q = R = I, w = 0.4 (xi - 1/2) times direction
    t, and xbar = 0.
    """
    rng = np.random.default_rng(seed)
    thetas = [rng.uniform(0.0, 2.0 * np.pi) for _ in range(T)]
    dirs = []
    for _ in range(T):
        v = rng.normal(size=2)
        dirs.append(v / np.linalg.norm(v))
    truth = np.array([[rng.uniform(0.0, 1.0)] for _ in range(T + 1)])

    def step_data(t, xi):
        th = thetas[t]
        A = 0.7 * np.array([[np.cos(th), -np.sin(th)],
                            [np.sin(th), np.cos(th)]])
        dev = float(np.atleast_1d(xi)[0]) - 0.5
        return (A, np.eye(2), dev * 0.4 * dirs[t], np.eye(2), np.eye(2),
                np.zeros(2))

    return step_data, truth


def pendulum_matrices(M, *, m, l, I, b, g, delta):
    """Discretized cart-pendulum linearization around the upright
    equilibrium at the scalar cart mass M, entry by entry."""
    den = I * (M + m) + M * m * l ** 2
    A = np.array([
        [1.0, delta, 0.0, 0.0],
        [0.0, 1.0 - (I + m * l ** 2) * b * delta / den,
         m ** 2 * g * l ** 2 * delta / den, 0.0],
        [0.0, 0.0, 1.0, delta],
        [0.0, -m * l * b * delta / den,
         m * g * l * (M + m) * delta / den, 1.0]])
    B = np.array([[0.0], [(I + m * l ** 2) * delta / den],
                  [0.0], [m * l * delta / den]])
    return A, B


def grid_matrices(m_val, *, n_nodes, delta):
    """Swing-equation discretization of a path of n_nodes areas with unit
    damping, at the scalar shared inertia m_val."""
    n = n_nodes
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += 1.0
        L[i + 1, i + 1] += 1.0
        L[i, i + 1] -= 1.0
        L[i + 1, i] -= 1.0
    Ahat = np.zeros((2 * n, 2 * n))
    Ahat[:n, n:] = np.eye(n)
    Ahat[n:] = np.hstack([-L / m_val, -np.eye(n) / m_val])
    Bhat = np.vstack([np.zeros((n, n)), np.eye(n) / m_val])
    return np.eye(2 * n) + delta * Ahat, delta * Bhat


def regulation_step_data(matrices, n, m):
    """step_data(t, xi) of regulation to the origin with identity costs,
    where the scalar parameter enters only through matrices(xi) -> (A, B)."""
    def step_data(t, xi):
        A, B = matrices(float(np.atleast_1d(xi)[0]))
        return A, B, np.zeros(n), np.eye(n), np.eye(m), np.zeros(n)
    return step_data


def chain_step_data(action_weight):
    """step_data(t, xi) of the stock chain x_{t+1} = x_t + u_t with stage
    cost (x - xi)^2 + action_weight u^2."""
    def step_data(t, xi):
        one = np.ones((1, 1))
        return (one, one, np.zeros(1), one, action_weight * one,
                np.atleast_1d(np.asarray(xi, float)))
    return step_data


def central_slopes(step_data, truth):
    """d(step data)/dxi of the steps 0..len(truth)-2 at truth[t], one step
    and one parameter coordinate at a time: a central difference with the
    step h = eps^(1/3) max(1, |xi_i|), divided by the realized (xi_i + h) -
    (xi_i - h).  Each array is stacked by step, with a trailing axis over
    the parameter coordinates."""
    per_step = []
    for t in range(len(truth) - 1):
        xi = np.asarray(truth[t], float)
        cols = []
        for i in range(xi.size):
            hi, lo = xi.copy(), xi.copy()
            h = np.cbrt(np.finfo(float).eps) * max(1.0, abs(xi[i]))
            hi[i] += h
            lo[i] -= h
            step = hi[i] - lo[i]
            cols.append([(np.asarray(a, float) - np.asarray(b, float)) / step
                         for a, b in zip(step_data(t, hi), step_data(t, lo))])
        per_step.append([np.stack(col, axis=-1) for col in zip(*cols)])
    return [np.stack(arrays) for arrays in zip(*per_step)]


def saddle_matrix(M, N):
    """Dense [[M, N'], [N, 0]] for spectrum measurements."""
    n1 = N.shape[0]
    return np.block([[M, N.T], [N, np.zeros((n1, n1))]])


class SaddleAssembly(NamedTuple):
    M: np.ndarray
    N: np.ndarray
    perm: np.ndarray
    block_slices: list


def saddle_assembly(wm):
    """Dense cost block M, dynamics block N, and the permutation of the
    saddle matrix H = [[M, N'], [N, 0]] of a window's step data into the
    block-tridiagonal Upsilon = H[perm, perm], with the slices of its
    blocks, by one Python loop per step.

    "full" (quadratic, possibly zero, terminal cost): variables (y_0, v_0,
    ..., v_{K-1}, y_K); constraints pin y_0 and propagate the dynamics.
    "hat" (pinned final state): y_K is eliminated and N drops its last
    column block; the last permuted block is the final multiplier alone."""
    K, n, m = wm.K, wm.n, wm.m
    if K == 0:
        raise ValueError("empty window")
    hat = wm.terminal.kind == "indicator"

    def yi(i):
        return i * (n + m)

    def vi(i):
        return i * (n + m) + n

    nv = K * (n + m) + (0 if hat else n)
    nc = (K + 1) * n
    M = np.zeros((nv, nv))
    N = np.zeros((nc, nv))

    for t in range(K):
        M[yi(t):yi(t) + n, yi(t):yi(t) + n] = wm.Q[t]
        M[vi(t):vi(t) + m, vi(t):vi(t) + m] = wm.R[t]
    if not hat:
        # the zero terminal carries P = 0
        M[yi(K):yi(K) + n, yi(K):yi(K) + n] = wm.terminal.P

    N[0:n, 0:n] = np.eye(n)  # initial-state pin
    for t in range(K):
        r = (t + 1) * n
        N[r:r + n, yi(t):yi(t) + n] = -wm.A[t]
        N[r:r + n, vi(t):vi(t) + m] = -wm.B[t]
        if t < K - 1 or not hat:
            N[r:r + n, yi(t + 1):yi(t + 1) + n] = np.eye(n)

    # permutation to per-step blocks (y_i, v_i, eta_i), final block
    # (y_K, eta_K) for the full variant or (eta_K) alone for the hat variant
    perm = []
    block_slices = []
    for i in range(K):
        s = len(perm)
        perm.extend(range(yi(i), yi(i) + n))
        perm.extend(range(vi(i), vi(i) + m))
        perm.extend(range(nv + i * n, nv + (i + 1) * n))
        block_slices.append(slice(s, len(perm)))
    s = len(perm)
    if not hat:
        perm.extend(range(yi(K), yi(K) + n))
    perm.extend(range(nv + K * n, nv + (K + 1) * n))
    block_slices.append(slice(s, len(perm)))

    return SaddleAssembly(M, N, np.array(perm), block_slices)


def dense_upsilon(asm):
    """Dense permuted saddle matrix Upsilon = H[perm, perm] of a
    ``saddle_assembly``, H = [[M, N'], [N, 0]]."""
    return saddle_matrix(asm.M, asm.N)[np.ix_(asm.perm, asm.perm)]


def upsilon_tiles(asm):
    """The diagonal blocks D_i and super-diagonal blocks E_i of the dense
    Upsilon of a ``saddle_assembly``, each zero-padded to a b x b tile, b
    the widest block, and stacked."""
    U = dense_upsilon(asm)
    slices = asm.block_slices
    b = max(s.stop - s.start for s in slices)

    def tile(si, sj):
        out = np.zeros((b, b))
        block = U[si, sj]
        out[:block.shape[0], :block.shape[1]] = block
        return out

    D = np.array([tile(s, s) for s in slices])
    E = np.array([tile(slices[i], slices[i + 1])
                  for i in range(len(slices) - 1)]).reshape(-1, b, b)
    return D, E


def block_inverse_norms(asm):
    """Spectral norms of the blocks of the inverse of Upsilon, indexed by
    block pair, from the blocks of the dense Upsilon of a
    ``saddle_assembly`` (zero-padded to b x b tiles) by the full block
    recursion: a forward elimination Delta_{i+1} = D_{i+1} - E_i'
    Delta_i^{-1} E_i, C_i = -Delta_i^{-1} E_i, the backward pass G_ii =
    Delta_i^{-1} + C_i G_{i+1,i+1} C_i', then per offset the b x b products
    G_{i,i+off} = C_i G_{i+1,i+off} and one SVD per block pair, batched by
    offset.  No dense inverse, so blocks far below the rounding level of
    the largest ones keep their relative accuracy."""
    D, E = upsilon_tiles(asm)
    slices = asm.block_slices
    nb, b = D.shape[:2]
    inv_pivots, C = [], []
    pivot = D[0]
    for i, s in enumerate(slices):
        size = s.stop - s.start
        inv = np.zeros((b, b))
        inv[:size, :size] = np.linalg.inv(pivot[:size, :size])
        inv_pivots.append(inv)
        if i < nb - 1:
            C.append(-inv @ E[i])
            pivot = D[i + 1] + E[i].T @ C[i]
    G = np.array(inv_pivots)
    C = np.array(C)
    for i in range(nb - 2, -1, -1):
        G[i] += C[i] @ G[i + 1] @ C[i].T
    norms = np.zeros((nb, nb))
    for off in range(nb):
        if off:
            G = C[:nb - off] @ G[1:]
        i = np.arange(nb - off)
        norms[i, i + off] = norms[i + off, i] = np.linalg.norm(
            G, 2, axis=(-2, -1))
    return norms


def saddle_sigma_min_lower(mu, ell, sigma_N):
    """Lower bound on sigma_min of [[M, N'], [N, 0]] for M symmetric with
    eigenvalues in [mu, ell], mu > 0, and N of full row rank with smallest
    singular value sigma_N (Rusten & Winther 1992, "A preconditioned
    iterative method for saddlepoint problems", SIAM J. Matrix Anal. Appl.
    13(3)): the positive eigenvalues are at least mu, the negative ones at
    most (ell - sqrt(ell^2 + 4 sigma_N^2)) / 2."""
    return min(mu, (np.sqrt(ell ** 2 + 4.0 * sigma_N ** 2) - ell) / 2.0)


def controllability_matrix(As, Bs, t, p):
    """n x (m p) matrix [Phi(t+p, t+1) B_t, ..., Phi(t+p, t+p) B_{t+p-1}]
    with Phi(t2, t1) = A_{t2-1} ... A_{t1}, by plain products."""
    cols = []
    for j in range(p):
        col = Bs[t + j]
        for s in range(t + j + 1, t + p):
            col = As[s] @ col
        cols.append(col)
    return np.hstack(cols)


def pendulum_det_closed_form(M, *, m, l, I, g, delta, **_ignored):
    """|det| of the four-step controllability matrix of the cart-pendulum
    linearization with cart mass M."""
    den = I * M + m * (I + l ** 2 * M)
    return delta ** 10 * g ** 2 * l ** 4 * m ** 4 / den ** 4


def grid_det_lower_bound(n_nodes, delta, m_hi):
    """Lower bound on |det| of the two-step controllability matrix of the
    swing-equation network with inertias at most m_hi."""
    return delta ** (3 * n_nodes) / m_hi ** (2 * n_nodes)
