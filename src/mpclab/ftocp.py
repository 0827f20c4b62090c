"""Exact solvers for the windowed optimal control problem.

Two problem classes are supported exactly:

- time-varying linear dynamics with quadratic costs: one backward Riccati
  pass (``continuation_law``) gives the optimal affine feedback of a batch
  of windows, each with a quadratic, zero or pinned terminal, a batched
  forward rollout (``trajectories(xs)``) gives their solutions, multipliers
  and KKT residuals, and ``first_action_adjoint()`` the adjoint of their
  first actions.  Only this module reads a law's lifted arrays; others
  read its state blocks ``loop`` and ``feedback``.  Windows shorter than
  the longest are padded past their last step with steps that hold the
  state, and read bitwise as if built alone.  A single window is a batch
  of one;
- the constrained scalar stock chain: one backward pass (``chain_law``)
  over the knots of the derivatives of its value functions, then a rollout
  read on Python floats.  The chain laws of one system share their work:
  a window with the bits of one built before reuses its pieces and its
  solutions, and a backward step with the bits of one computed before is
  read from it, so the windows of a run, the truth law and the sweeps of
  an instance build each distinct window, solve it from each distinct
  start and compute each distinct step once, while the system lives.

A law is read from its first step (``solution(x)``); ``action(t, x)`` is
the one read at an offset t, which a pinned continuation law answers at 0
alone.  ``window_laws`` builds the laws of every window of a
receding-horizon run before it starts, those ``engine.run_mpc`` reads and
those ``kkt.measure_gain_tables`` differentiates alike, and is the one
place that picks the solver by problem class: a ``ChainLaw`` for the stock
chain, a ``ContinuationLaw`` otherwise.
``window_law`` is its case of one window, and ``truth_law`` gives the
optimal continuation under an instance's true parameters, once per
instance.  ``stage_costs`` prices a trajectory of either class.  Outside
this module, ``kkt.window_data``, ``kkt.measure_gain_tables``,
``kkt._state_samples`` and ``model.Instance.terminal_cost`` read the
family too, for what they compute, not to pick a solver.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
import weakref
from typing import Sequence

import numpy as np

from . import _assembly
from .model import (Instance, InventorySystem, TerminalCost, _check_count,
                    _read_only, _row_norms, per_instance)

Array = np.ndarray


class SingularKKT(RuntimeError):
    """The window's optimality system is singular, or its pinned terminal
    state is unreachable (e.g. the instance is uncontrollable).  ``window``
    is the failing window's index in its batch, when a batch failed."""

    def __init__(self, msg, window=None):
        super().__init__(msg)
        self.window = window


class Infeasible(RuntimeError):
    """No trajectory satisfies the constraints of the window."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


@dataclasses.dataclass
class FtocpSolution:
    states: Array      # (K+1, n)
    actions: Array     # (K, m)
    duals: Array       # (K+1, n)
    kkt_residual: float


# ---------------------------------------------------------------------------
# the cost of a trajectory
# ---------------------------------------------------------------------------

def stage_costs(system, t1: int, params: Array, terminal: TerminalCost,
                states: Array, actions: Array) -> tuple[Array, float]:
    """Stage costs of a trajectory and its objective: the states x_0 .. x_K
    and actions u_0 .. u_{K-1} of the steps t1 .. t1 + K, where params[i]
    parameterizes step t1 + i.  Step t costs (x_t - xbar_t)'Q_t(x_t - xbar_t)
    + u_t'R_t u_t; the final state pays a stage cost (with no action) only
    when the system's ``include_terminal_stage`` says so.  The objective is
    the sum of the (K,) or (K + 1,) stage costs and the terminal cost of
    the final state."""
    K = len(actions)
    top = K + 1 if system.include_terminal_stage else K
    _, _, _, Q, R, xbar = system.step_data(t1 + np.arange(top), params[:top])
    d = (states[:top] - xbar)[:, None, :]
    costs = (d @ Q @ d.swapaxes(-1, -2))[:, 0, 0]
    u = actions[:, None, :]
    costs[:K] += (u @ R[:K] @ u.swapaxes(-1, -2))[:, 0, 0]
    return costs, float(costs.sum()) + terminal.value(states[K])


# ---------------------------------------------------------------------------
# stacked linear algebra
# ---------------------------------------------------------------------------

def _mv(M: Array, x: Array) -> Array:
    """Stacked matrix-vector products M[...] @ x[...]."""
    return (M @ x[..., None])[..., 0]


def _failure(t1: Array, failed: dict) -> SingularKKT:
    """The error of the earliest of the failed windows (index -> message)."""
    i = min(failed, key=lambda i: (t1[i], i))
    return SingularKKT(failed[i], window=int(i))


def _solve_each(M: Array, rhs: Array) -> tuple[Array, list]:
    """Solutions of M[i] X = rhs[i] over a stack, and the indices i whose
    M[i] is singular; those blocks are solved as identities, so that the
    rest of the stack goes on."""
    try:
        return np.linalg.solve(M, rhs), []
    except np.linalg.LinAlgError:
        singular = []
        for i in range(len(M)):
            try:
                np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                singular.append(i)
        M = M.copy()
        M[singular] = np.eye(M.shape[-1])
        return np.linalg.solve(M, rhs), singular


# ---------------------------------------------------------------------------
# continuation law (backward Riccati pass)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ContinuationLaw:
    """Optimal feedback of a batch of W linear-quadratic windows of at most
    T steps, with fixed parameters and terminals of one kind: quadratic,
    zero or pinned.  Window i covers the steps t1[i] .. t1[i] + K_i, and
    offsets t = 0 .. T count from its start; a window with K_i < T is
    padded past its last step (see ``continuation_law``), so its states
    from offset K_i on repeat its last one, its actions there are zero, and
    its multipliers repeat that of its terminal.  A single window is a
    batch of one.  Every array carries the window axis first, and the law's
    own arrays are read-only.

    The state is lifted to s = (x, 1), or s = (x, 1, nu) for a pinned
    terminal x_T = target, where nu is the multiplier of the pin and stays
    constant along the window.  Then the stage cost, the dynamics and the
    terminal data (2 nu'(x_T - target) for a pin) are quadratic and linear
    in s, the cost-to-go from offset t is s'P_t s, the optimal action is
    u_t = G_t s_t = K_t x_t + k_t (+ the nu-columns' actions), and the
    optimal state follows x_{t+1} = Phi_t x_t + c_t with Phi_t = A_t +
    B_t K_t and c_t = w_t + B_t k_t.  For a pin, nu maximizes s'P_0 s over
    nu: nu = -S^{-1} r for the n x n nu-block S of P_0 and the unpinned
    miss r = P_0[nu, :n+1] (x, 1), refined once (see _pin_solve).  So nu
    is affine in the start, nu = N (x, 1), and the refined map N is solved
    once, when the law is built (see _nu_map); the first action and the
    rollout both read nu from it.  A window of an ill-conditioned pin
    (``unmapped``) solves nu from r on each read instead.  The multipliers
    of the saddle system of the window are eta_t = -(P_t s_t)[:n].
    """

    t1: Array           # (W,) first step of each window
    data: _assembly.WindowMatrices   # step data by offset, and the terminal
    P: Array            # (W, T+1, d, d)
    G: Array            # (W, T, m, d)
    S_inv: Array | None = None   # (W, n, n): S^{-1} at offset 0, for a pin
    PB: Array | None = None      # (W, T, n, m): P_{t+1}[nu, :n] B_t, for a pin
    nu_map: Array | None = None  # (W, n, n+1): nu = N (x, 1), for a pin
    unmapped: Array | None = None  # (W,): nu solved from r instead, for a pin

    @property
    def W(self) -> int:
        return self.G.shape[0]

    @property
    def T(self) -> int:
        return self.G.shape[1]

    @property
    def pinned(self) -> bool:
        return self.data.terminal.kind == "indicator"

    @property
    def loop(self) -> Array:
        """Phi_t = A_t + B_t K_t, computed from the step data and the
        gains on each read (not a view), read-only."""
        return _read_only(self.data.A + self.data.B @ self.feedback)

    @property
    def feedback(self) -> Array:
        """K_t: a view of the x-columns of G, read-only like it."""
        return self.G[..., :self.data.n]

    def action(self, t: int, x: Array, w: int = 0) -> Array:
        """Optimal action of window w at offset t from state x.  A pin's
        multiplier is read from x by _nu, as in _rollout, at offset 0
        alone: a pinned law raises ValueError at t > 0.  Only the rollouts
        (``trajectories`` and its readers) check that the pin is met."""
        n = self.data.n
        s = np.concatenate((x, (1.0,)))
        u = self.G[w, t, :, :n + 1] @ s
        if self.pinned:
            if t:
                raise ValueError("a pinned law is read from its first step")
            u += self.G[w, 0, :, n + 1:] @ self._nu(s, w)
        return u

    def _nu(self, s: Array, w=slice(None)) -> Array:
        """Pin multipliers (..., W, n) of the windows w from their starts
        s = (x, 1), (..., W, n+1): N s for the map N (``nu_map``), or, in
        the windows ``unmapped``, solved from the unpinned miss r = P_0[nu,
        :n+1] s."""
        nu = _mv(self.nu_map[w], s)
        solved = self.unmapped[w]
        if solved.any():
            n = self.data.n
            r = self.P[w, 0, n + 1:, :n + 1] @ s[..., None]
            nu = np.where(solved[..., None], _pin_solve(
                self.S_inv[w], self.PB[w], self.G[w], r)[..., 0], nu)
        return nu

    def _rollout(self, xs: Array) -> tuple[Array, Array]:
        """Lifted optimal states s_0 .. s_T and actions u_0 .. u_{T-1} of
        every window, as ``trajectories`` reads xs, by x_{t+1} = Phi_t x_t +
        c_t, with the shift c_t = w_t + B_t k_t, k_t the 1-column of G_t.

        A pin's multiplier nu (read from x by _nu) adds the actions v_i =
        G_i[:, n+1:] nu, and B_i v_i to the shifts c_i.  The states are
        rolled out from v rather than from the lifted (x, 1, nu): a large
        nu would cancel digits there.  A rollout that misses its pin
        raises SingularKKT naming the earliest such window, with the miss of
        its first sample that misses.
        """
        wm, n, K = self.data, self.data.n, self.T
        lifted = np.zeros(xs.shape[:-1] + (K + 1, self.P.shape[-1]))
        lifted[..., n] = 1.0
        lifted[..., 0, :n] = xs
        shift = wm.w + _mv(wm.B, self.G[..., n])
        if self.pinned:
            nu = self._nu(lifted[..., 0, :n + 1])
            lifted[..., n + 1:] = nu[..., None, :]
            v = _mv(self.G[..., n + 1:], lifted[..., :-1, n + 1:])
            shift = shift + _mv(wm.B, v)
        loop, states = self.loop, lifted[..., :n]
        for i in range(K):
            states[..., i + 1, :] = (_mv(loop[:, i], states[..., i, :])
                                     + shift[..., i, :])
        actions = _mv(self.G[..., :n + 1], lifted[..., :-1, :n + 1])
        if not self.pinned:
            return lifted, actions
        target = wm.terminal.target
        miss = _row_norms(states[..., -1, :] - target)
        tol = 1e-6 * (1.0 + _row_norms(target) + _row_norms(xs))
        bad = ~(miss <= tol)
        if bad.any():   # as (samples, windows)
            miss, bad = (a.reshape(-1, a.shape[-1]) for a in (miss, bad))
            first = bad.argmax(axis=0)
            t1 = np.broadcast_to(self.t1, bad.shape[-1:])
            raise _failure(t1, {
                i: f"pinned terminal unreachable from step {t1[i]}: "
                   f"the rollout misses it by {miss[first[i], i]:.3g}"
                for i in np.flatnonzero(bad.any(axis=0))})
        return lifted, actions + v

    def first_action_adjoint(self):
        """lam = H^{-1} e_{u_0} for the saddle matrix H of every window,
        one column per component of the first action.

        lam is the solution of the window with zero affine data (w, xbar,
        pin target), zero initial state and the linear cost -u_0[j].  After
        the first step that is the law's homogeneous continuation, so no
        second Riccati pass runs: the first step is one solve with
        R + B'P B of that step (the "kick", the action of the unit cost),
        and, as in _rollout, a pin's multiplier nu adds the actions
        G_t[:, n+1:] nu, chosen to cancel the kick's terminal miss
        P_1[nu, :n] B kick by the refined solve of _pin_solve.

        Returns, with the window axis first, y (K+1, n, m) and v (K, m, m)
        by offset, eta (K, n, m), the multipliers of the dynamics rows into
        offsets 1..K (the initial pin carries no parameter), and nu (n, m),
        or None without a pin.  The kick is defined wherever the law is:
        its backward pass solved with the same matrix.
        """
        wm, P, K = self.data, self.P, self.T
        if not K:
            raise ValueError("a law of no step has no first action")
        n, m, B, B0 = wm.n, wm.m, wm.B, wm.B[:, 0]
        kick = np.linalg.inv(wm.R[:, 0]
                             + B0.swapaxes(-1, -2) @ P[:, 1, :n, :n] @ B0)
        extra = np.zeros((self.W, K, m, m))   # actions beyond the feedback
        nu = None
        if self.pinned:
            nu = _pin_solve(self.S_inv, self.PB, self.G,
                            P[:, 1, n + 1:, :n] @ B0 @ kick)
            extra += self.G[..., n + 1:] @ nu[:, None]
        extra[:, 0] += kick
        y, loop = np.zeros((self.W, K + 1, n, m)), self.loop
        for t in range(K):
            y[:, t + 1] = loop[:, t] @ y[:, t] + B[:, t] @ extra[:, t]
        v = self.feedback @ y[:, :-1] + extra
        eta = -P[:, 1:, :n, :n] @ y[:, 1:]
        if nu is not None:
            eta -= P[:, 1:, :n, n + 1:] @ nu[:, None]
        return y, v, eta, nu

    def trajectories(self, xs: Array) -> tuple[Array, Array, Array]:
        """Optimal states, actions and saddle multipliers of the windows,
        by one batched rollout: window i from xs[..., i, :] (a law of one
        window from every row of xs), with sample axes in front.  The
        earliest window that misses its pin raises SingularKKT."""
        lifted, actions = self._rollout(xs)
        n = self.data.n
        return lifted[..., :n], actions, -_mv(self.P[..., :n, :], lifted)

    def solution(self, x: Array) -> FtocpSolution:
        """Optimal solution of the window from x, with the saddle system's
        multipliers and KKT residual; the law holds one window."""
        if self.W != 1:
            raise ValueError("a solution reads a law of one window")
        states, actions, duals = (
            a[0] for a in self.trajectories(np.atleast_1d(x)[None]))
        states = states.copy()
        residual = self._kkt_residual(states, actions, duals)
        return FtocpSolution(states, actions, duals, float(residual[0]))

    def kkt_residuals(self, xs: Array) -> Array:
        """KKT residual of each window's optimal solution from its initial
        state xs[i] (see ``trajectories``)."""
        return self._kkt_residual(*self.trajectories(xs))

    def _kkt_residual(self, states, actions, duals) -> Array:
        """||H chi - b|| of every window, block by block: stationarity in
        y_s and v_s, the terminal row (stationarity in y_T, or the pin),
        then the dynamics rows (the initial-state pin holds exactly).  The
        trajectories may omit the window axis."""
        wm = self.data
        A, B, term = wm.A, wm.B, wm.terminal
        y, nxt = states[..., :-1, :], duals[..., 1:, :]
        r_y = (_mv(wm.Q, y - wm.xbar) + duals[..., :-1, :]
               - _mv(A.swapaxes(-1, -2), nxt))
        r_v = _mv(wm.R, actions) - _mv(B.swapaxes(-1, -2), nxt)
        if term.kind == "indicator":
            r_T = states[..., -1:, :] - term.target[..., None, :]
        else:
            r_T = (_mv(term.P[..., None, :, :],
                       states[..., -1:, :] - term.xbar[..., None, :])
                   + duals[..., -1:, :])
        r_dyn = states[..., 1:, :] - _mv(A, y) - _mv(B, actions) - wm.w
        return np.sqrt(sum(np.sum(r * r, axis=(-2, -1))
                           for r in (r_y, r_v, r_T, r_dyn)))


def _pin_solve(S_inv: Array, PB: Array, G: Array, r: Array) -> Array:
    """The pin multipliers nu (..., n, c) that cancel the terminal misses r
    (..., n, c) of pinned windows, whose S^{-1} (..., n, n), PB (..., T, n,
    m) and G (..., T, m, d) are as in ContinuationLaw, leading window axes
    broadcasting.  A pin's multiplier adds the actions v_t = G_t[:, n+1:]
    nu, which move x_T by sum_t P_{t+1}[nu, :n] B_t v_t = sum_t PB_t v_t,
    so nu solves S nu = -r for the nu-block S of P_0.  S has about the
    squared condition number of the reachability map, so nu = -S^{-1} r
    takes one step of iterative refinement against the miss r + sum_t PB_t
    v_t that its actions predict.  The miss is summed over the offsets in
    order, so that the zero terms of a padded window's steps leave it
    bitwise unchanged."""
    n = S_inv.shape[-1]
    nu = -S_inv @ r
    v = G[..., n + 1:] @ nu[..., None, :, :]
    miss = r + np.cumsum(PB @ v, axis=-3)[..., -1, :, :]
    return nu - S_inv @ miss


PIN_TERMS_MAX = 10.0    # |terms| / |map| of a mapped window's first action


def _nu_map(S_inv: Array, PB: Array, G: Array,
            P0: Array) -> tuple[Array, Array]:
    """The refined map N (W, n, n+1) of pinned windows, nu = N (x, 1): the
    columns of the unpinned miss r = P_0[nu, :n+1] (x, 1) solved at once
    by _pin_solve, and the windows that read nu from r instead (W,).  N (x,
    1) sums n + 1 products whose rounding no refinement sees, so an
    ill-conditioned pin, whose first action F (x, 1), F = G_0[:, :n+1] +
    G_0[:, n+1:] N, is a small difference of far larger terms, would lose
    digits to it that the solve from r keeps (errors of 6e-10 relative
    against 5e-13 on the pendulum's 4-step windows).  Such a window is
    unmapped: its terms |G_0[:, :n+1]| + |G_0[:, n+1:]| |N| exceed |F| more
    than PIN_TERMS_MAX times (max norms).  The pendulum's windows of 4 to
    12 steps reach 1.6e2 to 2.5e4; the other presets stay below 5."""
    n = S_inv.shape[-1]
    N = _pin_solve(S_inv, PB, G, P0[:, n + 1:, :n + 1])
    G0 = G[:, 0]
    F = G0[..., :n + 1] + G0[..., n + 1:] @ N
    terms = np.abs(G0[..., :n + 1]) + np.abs(G0[..., n + 1:]) @ np.abs(N)
    unmapped = ~(terms.max(axis=(-2, -1))
                 <= PIN_TERMS_MAX * np.abs(F).max(axis=(-2, -1)))
    return _read_only(N), _read_only(unmapped)


def _lifted_cost(Q: Array, xbar: Array, d: int) -> Array:
    """C with s'C s = (x - xbar)'Q(x - xbar) for s = (x, 1, ...); Q and xbar
    may be stacked."""
    n = xbar.shape[-1]
    Qx = np.einsum("...ij,...j->...i", Q, xbar)
    C = np.zeros(Q.shape[:-2] + (d, d))
    C[..., :n, :n] = Q
    C[..., :n, n] = C[..., n, :n] = -Qx
    C[..., n, n] = np.einsum("...i,...i->...", xbar, Qx)
    return C


def _padded_steps(system, params: Sequence, t1: Array, live: Array,
                  terminal: TerminalCost) -> _assembly.WindowMatrices:
    """Step data of a batch of windows, stacked to the longest.  One
    stacked ``system.step_data`` call, which reads a padded step on the
    window's last parameter, at the step after its last one clipped to the
    system's last step.  Where ``live`` (W, T) is False, the step A = I,
    B = 0, w = 0, Q = 0, R = I, xbar = 0, which holds the state and takes
    no action at no cost, is written into read-only copies of the arrays."""
    K = live.sum(axis=1)
    own = np.minimum(np.arange(live.shape[1]), K[:, None])
    first = np.cumsum(K + 1) - (K + 1)   # row of each window's parameters
    xis = np.concatenate(params, dtype=float)[first[:, None] + own]
    steps = np.minimum(t1[:, None] + own, system.T - 1)
    wm = _assembly.WindowMatrices(*system.step_data(steps, xis), terminal)
    held = np.nonzero(~live)    # (window, offset) of each held step
    if not held[0].size:
        return wm
    fields = {}
    for f, hold in zip(("A", "B", "w", "Q", "R", "xbar"),
                       (np.eye(wm.n), 0.0, 0.0, 0.0, np.eye(wm.m), 0.0)):
        fields[f] = np.array(getattr(wm, f))
        fields[f][held] = hold
        _read_only(fields[f])
    return dataclasses.replace(wm, **fields)


def continuation_law(system, params: Sequence, terminal: TerminalCost,
                     t1: Sequence[int]) -> ContinuationLaw:
    """One backward Riccati pass for a batch of windows: window i covers
    the steps t1[i] .. t1[i] + K_i, params[i][s] (K_i + 1 parameters)
    parameterizes its step t1[i] + s, and ``terminal`` caps the windows:
    its arrays broadcast against the window axis (window i is
    ``terminal[i]`` when they carry one).  A single window is a batch of
    one.

    The law has the T = max K_i steps of the longest window.  A shorter
    window is padded past its last step with steps A = I, B = 0, w = 0,
    Q = 0, R = I, xbar = 0, which hold the state and take no action, and
    its backward pass starts at its own last offset K_i from its lifted
    terminal exactly as given (which its P keeps on every padded offset).
    So its P and G on its own offsets, its first actions and its
    trajectories on its own steps are bitwise those of the window built
    alone.

    Raises SingularKKT when some R_t + B_t'P_{t+1}B_t is singular, a gain
    is not finite, or a pin is unreachable: the window has K_i m < n (its
    own length, not the padded one), or the nu-block of its P_0 is
    singular.  The error names the earliest failing window, and in it the
    step that its own backward pass meets first; its ``window`` is that
    window's index.
    """
    t1 = _read_only(np.array(t1, int))
    K = np.array([len(p) - 1 for p in params])
    W, T = len(K), int(K.max())
    K_min = int(K.min())
    live = np.arange(T) < K[:, None]     # (W, T): each window's own steps
    n, m = system.n, system.m
    pin = terminal.kind == "indicator"
    wm = _padded_steps(system, params, t1, live, terminal)
    d = 2 * n + 1 if pin else n + 1
    # lifted dynamics s_{t+1} = F_t (s_t, u_t) and stage cost
    # (s_t, u_t)'C_t (s_t, u_t)
    F = np.zeros((W, T, d, d + m))
    F[..., :n, :n] = wm.A
    F[..., :n, n] = wm.w
    F[..., n:, n:d] = np.eye(d - n)
    F[..., :n, d:] = wm.B
    C = np.zeros((W, T, d + m, d + m))
    C[..., :d, :d] = _lifted_cost(wm.Q, wm.xbar, d)
    C[..., d:, d:] = wm.R
    P = np.zeros((W, T + 1, d, d))
    if pin:
        P[:, T, :n, n + 1:] = P[:, T, n + 1:, :n] = np.eye(n)
        P[:, T, n, n + 1:] = P[:, T, n + 1:, n] = -terminal.target
    else:
        P[:, T] = _lifted_cost(terminal.P, terminal.xbar, d)
    G = np.empty((W, T, m, d))
    FT = F.swapaxes(-1, -2)
    failed = {}     # window -> the first failure its backward pass meets
    for t in reversed(range(T)):
        Wt = C[:, t] + FT[:, t] @ P[:, t + 1] @ F[:, t]
        G[:, t], singular = _solve_each(Wt[:, d:, d:], -Wt[:, d:, :d])
        for i in singular:     # never a padded step, where R + B'PB = I
            failed.setdefault(i, f"singular R + B'PB at step {t1[i] + t}")
        Pt = Wt[:, :d, :d] + Wt[:, :d, d:] @ G[:, t]
        P[:, t] = 0.5 * (Pt + Pt.swapaxes(1, 2))
        if t >= K_min:  # a window padded at t keeps its terminal, exactly
            padded = ~live[:, t]
            P[padded, t] = P[padded, T]
            G[padded, t] = 0.0   # also after a terminal that is not finite
    if not np.isfinite(G).all():
        finite = np.isfinite(G).all(axis=(2, 3))
        for i in np.flatnonzero(~finite.all(axis=1)):
            last = int(np.flatnonzero(~finite[i]).max())
            failed.setdefault(i, f"non-finite gain at step {t1[i] + last}")
    S_inv = PB = N = unmapped = None
    if pin:
        S = P[:, 0, n + 1:, n + 1:]     # the nu-block of P_0
        S_inv, singular = _solve_each(S, np.broadcast_to(np.eye(n), S.shape))
        # fewer than n actions cannot steer n states to a pin
        for i in [*singular, *np.flatnonzero(K * m < n)]:
            failed.setdefault(i, f"pinned terminal unreachable from step "
                                 f"{t1[i]}")
        S_inv, PB = _read_only(S_inv), _read_only(P[:, 1:, n + 1:, :n] @ wm.B)
    if failed:
        raise _failure(t1, failed)
    if pin:
        N, unmapped = _nu_map(S_inv, PB, G, P[:, 0])
    return ContinuationLaw(t1, wm, _read_only(P), _read_only(G), S_inv, PB,
                           N, unmapped)


# ---------------------------------------------------------------------------
# chain law (backward pass over the knots of the value functions)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChainLaw:
    """Optimal feedback of the stock chain on the steps t1 .. t1 + T with
    targets r_t and the final state pinned, read like a ContinuationLaw of
    one window.  The least cost V_t(x) of the offsets t .. T is convex and
    piecewise quadratic where the pin is reachable, so pieces[t] = (knots,
    slope, intercept) gives V_t' = slope[j] x + intercept[j] between
    knots[j] and knots[j + 1]; V_t' may jump at a knot, and the end knots
    bound dom V_t.  ``solutions`` holds the solutions of the window by the
    bits of their start state; the laws of one system's equal windows
    share it (see ``chain_law``)."""

    system: InventorySystem
    t1: int
    T: int
    targets: tuple      # r_t by offset
    pin: float
    pieces: tuple       # (knots, slope, intercept) by offset; None at 0
    solutions: dict = dataclasses.field(compare=False, repr=False)

    W = 1               # windows held

    def action(self, t: int, x: Array, w: int = 0) -> Array:
        """Optimal action at offset t from x; w is the window, always 0."""
        return np.array(self._actions(self._rollout(t, self._check(t, x),
                                                    t + 1)))

    def kkt_residuals(self, xs: Array) -> Array:
        """KKT residual of the optimal solution from xs[0], as an array."""
        return np.array([self.solution(xs[0]).kkt_residual])

    def solution(self, x: Array) -> FtocpSolution:
        """Optimal solution of the window from x, with the multipliers of
        its dynamics rows and its KKT residual, all read on floats, in
        read-only arrays.  A start the window cannot leave feasibly raises
        Infeasible at this law's step and is not stored.  Otherwise the
        solution is read from ``solutions`` by the bits of the start, or
        solved and stored there: it is a function of the system, the
        targets, the pin and those bits alone, so a stored one is bitwise
        what a fresh solve computes."""
        z = self._check(0, x)
        key = struct.pack("d", z)
        sol = self.solutions.get(key)
        if sol is None:
            states = self._rollout(0, z, self.T)
            actions = self._actions(states)
            duals = self._duals(states, actions)
            # one read-only column, cut into the three
            col = _read_only(np.array([*states, *actions, *duals]))[:, None]
            K = len(actions)
            sol = self.solutions[key] = FtocpSolution(
                col[:K + 1], col[K + 1:2 * K + 1], col[2 * K + 1:],
                self._kkt_residual(states, actions, duals))
        return sol

    def _actions(self, states: list) -> list:
        """The actions between consecutive states, clipped to the action
        bounds as np.clip clips them."""
        lo, hi = self.system.u_lo, self.system.u_hi
        return [min(max(b - a, lo), hi) for a, b in zip(states, states[1:])]

    def _check(self, t: int, x: Array) -> float:
        """x as a float, once the window [t, T] from x is known feasible:
        the bounds are convex and the same at every step, so it is if and
        only if its straight line is.  Raises Infeasible otherwise."""
        sys, K, step = self.system, self.T - t, self.t1 + t
        z = float(np.atleast_1d(x)[0])
        if K == 0 and abs(z - self.pin) > 1e-9:
            raise Infeasible("empty window cannot move the state", step)
        if K and not (sys.u_lo - 1e-12 <= (self.pin - z) / K
                      <= sys.u_hi + 1e-12):
            raise Infeasible("terminal state unreachable under action bounds",
                             step)
        if K and not (sys.x_lo - 1e-12 <= min(z, self.pin)
                      and max(z, self.pin) <= sys.x_hi + 1e-12):
            raise Infeasible("endpoint outside the state interval", step)
        return z

    def _rollout(self, t: int, x: float, stop: int) -> list:
        """Optimal states from offset t to stop: each next state minimizes
        gam (y - x)^2 + V(y) over dom V, clipped to the action bounds."""
        sys, states = self.system, [x]
        for knots, slope, icpt in self.pieces[t + 1:stop + 1]:
            alpha, beta = _descent(knots, slope, icpt, sys.action_weight, x)
            y = min(max(alpha * x + beta, x + sys.u_lo), x + sys.u_hi)
            x = min(max(y, knots[0]), knots[-1])
            states.append(x)
        return states

    def _duals(self, states, actions) -> list:
        """Multipliers eta of the dynamics rows (as in ContinuationLaw) of a
        primal solution, as floats.  The multipliers l_s = eta_{s+1} - gam u_s
        of the bounds on u_s and m_s = eta_{s+1} - eta_s - (x_s - r_s) of
        those on x_s may be nonzero only towards a bound met to within 1e-12.
        A forward pass keeps the interval of eta_{s+1} this allows (its
        nearest point if empty), a backward one picks eta_s nearest m_s = 0."""
        sys, gam, K = self.system, self.system.action_weight, len(actions)
        dev = [x - r for x, r in zip(states, self.targets)]
        tol, inf = 1e-12, np.inf
        bands, lo, hi = [], -inf, inf       # eta_0 is free: x_0 is given
        for s, (x, u) in enumerate(zip(states, actions)):
            a = lo + dev[s] - (inf if s == 0 or x <= sys.x_lo + tol else 0.0)
            b = hi + dev[s] + (inf if s == 0 or x >= sys.x_hi - tol else 0.0)
            lo = gam * u - (inf if u <= sys.u_lo + tol else 0.0)
            hi = gam * u + (inf if u >= sys.u_hi - tol else 0.0)
            lo, hi = min(max(a, lo), hi), max(min(b, hi), lo)
            bands.append((lo, hi))      # interval of eta_{s+1}
        eta = [0.0] * (K + 1)
        nearest = gam * actions[-1] if K else 0.0
        for s in range(K, 0, -1):
            eta[s] = min(max(nearest, bands[s - 1][0]), bands[s - 1][1])
            nearest = eta[s] - dev[s - 1]
        eta[0] = nearest
        return eta

    def _kkt_residual(self, states, actions, duals) -> float:
        """Norm of the KKT violations of the window: the initial
        state's stationarity row, the dynamics rows, the pin, and the natural
        residuals v - clip(v + l, lo, hi) of the bounds on each action and
        state v, zero iff v is feasible and its multiplier l complementary.
        The entries are floats, taken in this order into one norm."""
        sys, gam, eta = self.system, self.system.action_weight, duals
        dev = [x - r for x, r in zip(states, self.targets)]
        rows = [dev[0] + eta[0] - eta[1]] if len(actions) else []
        rows += [b - a - u for a, b, u in zip(states, states[1:], actions)]
        rows.append(states[-1] - self.pin)
        rows += [u - min(max(u + (e - gam * u), sys.u_lo), sys.u_hi)
                 for u, e in zip(actions, eta[1:])]
        rows += [x - min(max(x + (e2 - e1 - d), sys.x_lo), sys.x_hi)
                 for x, d, e1, e2 in zip(states[1:-1], dev[1:-1], eta[1:],
                                         eta[2:])]
        rows = np.array(rows)
        return math.sqrt(rows.dot(rows))    # bitwise np.linalg.norm(rows)


def _descent(knots, slope, icpt, gam: float, x: float):
    """(alpha, beta) with y = alpha x + beta near x, for the y in dom V
    that minimizes gam (y - x)^2 + V(y), V' given by its pieces: y is a
    knot, or V'(y) + 2 gam (y - x) = 0 on a piece s y + c."""
    level = 2.0 * gam * x
    for a, b, s, c in zip(knots, knots[1:], slope, icpt):
        if s * b + c + 2.0 * gam * b >= level:
            if s * a + c + 2.0 * gam * a > level:
                return 0.0, a
            return 2.0 * gam / (s + 2.0 * gam), -c / (s + 2.0 * gam)
    return 0.0, knots[-1]


def _chain_step(system: InventorySystem, nxt, r: float):
    """Pieces of V_t' = W' + 2 (x - r) from those of V' = V_{t+1}', where
    W(x) = min gam (y - x)^2 + V(y) over the y in dom V that the action
    bounds allow.  Between the x where the optimal y changes case, W' is
    V'(x + u) where the action bound u binds, 2 gam (s x + c) / (s + 2 gam)
    where y is free on a piece s y + c, and 2 gam (x - b) where y sits on a
    knot or domain end b; each interval between candidate breakpoints takes
    the case of its midpoint, and equal adjacent pieces are merged."""
    knots, slope, icpt = nxt
    gam, u_lo, u_hi = system.action_weight, system.u_lo, system.u_hi
    lo = max(system.x_lo, knots[0] - u_hi)
    hi = min(system.x_hi, knots[-1] - u_lo)
    if hi <= lo:
        return (lo,), (), ()
    cuts = {lo, hi}
    for u in (u_lo, u_hi):
        if u < np.inf:  # the bound meets a knot, or starts or stops binding
            cuts.update(b - u for b in knots)
            cuts.update((-2.0 * gam * u - c) / s - u
                        for s, c in zip(slope, icpt))
    if gam > 0.0:       # the free next state reaches or leaves a knot
        cuts.update(b + (slope[i] * b + icpt[i]) / (2.0 * gam)
                    for j, b in enumerate(knots)
                    for i in (j - 1, j) if 0 <= i < len(slope))
    xs = sorted(c for c in cuts if lo <= c <= hi)
    new = []            # (right end, slope, intercept) of each piece
    for a, b in zip(xs, xs[1:]):
        mid = 0.5 * (a + b)
        alpha, beta = _descent(knots, slope, icpt, gam, mid)
        y = alpha * mid + beta
        u = u_hi if y > mid + u_hi else u_lo if y < mid + u_lo else None
        if u is None:
            s, c = 2.0 * gam * (1.0 - alpha), -2.0 * gam * beta
        else:
            j = sum(k <= mid + u for k in knots[1:-1])
            s, c = slope[j], slope[j] * u + icpt[j]
        if new and new[-1][1:] == (s + 2.0, c - 2.0 * r):
            new.pop()
        new.append((b, s + 2.0, c - 2.0 * r))
    ends, slopes, icpts = zip(*new)
    return (lo,) + ends, slopes, icpts


# the chain windows of each system and their backward steps, keyed by the
# bits of their inputs (equal values may differ in the sign of a zero):
# ``windows`` maps the targets and pin of a window to its pieces and its
# solutions, ``steps`` the next pieces and target of a step to its pieces.
# A system's laws share every window and every step they have in common (the
# windows of a run that end at one step share their pin and the tail of their
# targets), and the memo dies with the system
_CHAIN_MEMO = weakref.WeakKeyDictionary()   # system -> (windows, steps)


def chain_law(system: InventorySystem, params: Sequence[Array],
              terminal: TerminalCost, t1: int = 0) -> ChainLaw:
    """One backward pass over the steps t1 .. t1 + T of the stock chain,
    where T = len(params) - 1 and params[i] is the target of step t1 + i.
    A window whose targets and pin have the bits of one built before by a
    law of this system shares that one's pieces and ``solutions``; t1 only
    labels the errors of its checks.  In a new window, a step whose next
    pieces and target have the bits of one taken before is read from that
    one.  Either is what a fresh pass computes: ``_chain_step`` is a
    function of those bits alone."""
    if terminal.kind != "indicator":
        raise ValueError("chain solver requires a pinned terminal state")
    targets = tuple(np.reshape(np.asarray(params, float),
                               (len(params), -1))[:, 0].tolist())
    pin = float(terminal.target[0])
    windows, steps = _CHAIN_MEMO.setdefault(system, ({}, {}))
    key = struct.pack(f"{len(targets) + 1}d", *targets, pin)
    if key not in windows:
        windows[key] = _chain_pieces(system, steps, targets, pin), {}
    pieces, solutions = windows[key]
    return ChainLaw(system, t1, len(targets) - 1, targets, pin, pieces,
                    solutions)


def _chain_pieces(system: InventorySystem, steps: dict, targets: tuple,
                  pin: float) -> tuple:
    """The pieces of a chain window by offset (None at 0), from the pin
    backwards, each step read from ``steps`` or computed into it."""
    pieces = [None] * (len(targets) - 1) + [((pin,), (), ())]
    for t in range(len(targets) - 2, 0, -1):
        knots, slope, icpt = pieces[t + 1]
        key = struct.pack(f"{len(knots) + 2 * len(slope) + 1}d", *knots,
                          *slope, *icpt, targets[t])
        if key not in steps:
            steps[key] = _chain_step(system, pieces[t + 1], targets[t])
        pieces[t] = steps[key]
    return tuple(pieces)


# ---------------------------------------------------------------------------
# the law of one window, of every window of a run, and of the truth
# ---------------------------------------------------------------------------

def window_law(system, params: Sequence[Array], terminal: TerminalCost,
               t1: int = 0) -> ContinuationLaw | ChainLaw:
    """The law of one window: the steps t1 .. t1 + T, T = len(params) - 1,
    where params[i] parameterizes step t1 + i (the last one the terminal
    data) and ``terminal`` caps the window: the one window of
    ``window_laws``, whose failure it raises.  Raises ModelError unless t1
    is an integer >= 0, and ValueError for an empty ``params``."""
    _check_count("window start t1", t1, 0)
    if len(params) == 0:
        raise ValueError("a window needs one parameter vector per step")
    laws = window_laws(system, [(t1, params)], lambda t2, xi: terminal[None])
    if laws.failure is not None:
        raise laws.failure
    return laws.windows[0][0]


@dataclasses.dataclass(frozen=True)
class WindowLaws:
    """The laws of the windows of a receding-horizon run, window t starting
    at step t: ``windows[t]`` is (law, w), window w of ``law``.  When a
    window could not be built, ``windows`` stops before it and ``failure``
    is its SingularKKT."""

    windows: tuple
    failure: SingularKKT | None = None

    def action(self, t: int, x: Array) -> Array:
        """First action of window t from x."""
        law, w = self.windows[t]
        return law.action(0, x, w)

    def kkt_residual_max(self, starts: Array) -> float:
        """Worst KKT residual of the windows, window t solved from its
        initial state starts[t] by one batched rollout per law.  The
        earliest window whose rollout misses its pin raises SingularKKT,
        and a residual that is not finite raises FloatingPointError."""
        residuals = [law.kkt_residuals(starts[t:t + law.W])
                     for t, (law, w) in enumerate(self.windows) if w == 0]
        worst = float(np.max(np.concatenate([[0.0], *residuals])))
        if not math.isfinite(worst):
            raise FloatingPointError("KKT residual of a window not finite")
        return worst


def window_laws(system, windows: Sequence, terminals) -> WindowLaws:
    """Laws of the windows (t1, params) of a receding-horizon run, window t
    starting at step t, all built before the run starts: the terminals do
    not depend on the state.  ``terminals(t2, xi)`` caps the windows that
    end at the steps t2 (an int array) with last parameters xi, stacked by
    window (``engine.window_terminal``).  Consecutive windows that all stop
    short of the final step, or all reach it, are a batch: one terminals
    call and, for linear-quadratic windows, one batched continuation law,
    which pads the windows shorter than the longest (so a run's k windows
    that reach T, of k lengths, are one batch).  The stock chain has one
    chain law per window: this is where the solver is picked by problem
    class.  When a batch cannot be built, the windows before its failing
    one are kept."""
    chain = isinstance(system, InventorySystem)

    def final(window):
        t1, params = window
        return t1 + len(params) - 1 == system.T

    laws = []
    for _, group in itertools.groupby(windows, key=final):
        t1, params = zip(*group)
        t2 = np.add(t1, [len(p) - 1 for p in params])
        terminal = terminals(t2, np.array([p[-1] for p in params], float))
        if chain:
            laws += [(chain_law(system, p, terminal[i], s), 0)
                     for i, (s, p) in enumerate(zip(t1, params))]
            continue
        try:
            law = continuation_law(system, params, terminal, t1)
        except SingularKKT as exc:
            if exc.window:
                law = continuation_law(system, params[:exc.window],
                                       terminal[:exc.window], t1[:exc.window])
                laws += [(law, w) for w in range(law.W)]
            return WindowLaws(tuple(laws), exc)
        laws += [(law, w) for w in range(law.W)]
    return WindowLaws(tuple(laws))


@per_instance
def truth_law(instance: Instance) -> ContinuationLaw | ChainLaw:
    """Optimal continuation under the instance's true parameters and its own
    terminal cost: the reference of every per-step error and the hindsight
    optimum.  Built once per instance."""
    return window_law(instance.system, instance.truth,
                      instance.terminal_cost())
