"""Exact solvers for the windowed optimal control problem.

Two problem classes are supported exactly:

- time-varying linear dynamics with quadratic costs: one backward Riccati
  pass (``continuation_law``) gives the optimal affine feedback of a window
  with a quadratic, zero or pinned terminal, and a forward rollout gives the
  solution, its multipliers and its KKT residual;
- the constrained scalar stock chain: one backward pass (``chain_law``)
  over the knots of the derivatives of its value functions, then a rollout.

``solve`` picks the solver of a window and ``truth_law`` the optimal
continuation under an instance's true parameters (a ``ContinuationLaw`` or a
``ChainLaw``, both read with ``action(t, x)`` and ``solution(t, x)``); no
other module branches on the problem class to solve.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import _assembly
from .model import Instance, InventorySystem, TerminalCost

Array = np.ndarray


class SingularKKT(RuntimeError):
    """The window's optimality system is singular, or its pinned terminal
    state is unreachable (e.g. the instance is uncontrollable)."""


class Infeasible(RuntimeError):
    """No trajectory satisfies the constraints of the window."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


@dataclasses.dataclass(frozen=True)
class FtocpSpec:
    """One windowed problem: steps t1..t2, initial state z, parameters
    xi_{t1..t2} (the last entry parameterizes the terminal data), and the
    terminal cost."""

    t1: int
    t2: int
    z: Array
    params: Sequence[Array]
    terminal: TerminalCost

    def __post_init__(self):
        if not (0 <= self.t1 <= self.t2):
            raise ValueError("window must satisfy 0 <= t1 <= t2")
        if len(self.params) != self.t2 - self.t1 + 1:
            raise ValueError("need one parameter vector per step of the window")
        object.__setattr__(self, "z", np.atleast_1d(np.asarray(self.z, float)))

    @property
    def K(self) -> int:
        return self.t2 - self.t1


@dataclasses.dataclass
class FtocpSolution:
    t1: int
    t2: int
    states: Array      # (K+1, n)
    actions: Array     # (K, m)
    duals: Array       # (K+1, n)
    value: float
    kkt_residual: float

    @property
    def first_action(self) -> Array:
        return self.actions[0]


# ---------------------------------------------------------------------------
# quadratic solver
# ---------------------------------------------------------------------------

def window_matrices(spec: FtocpSpec, system) -> _assembly.WindowMatrices:
    n, m, K = system.n, system.m, spec.K
    A, B, Q = np.empty((K, n, n)), np.empty((K, n, m)), np.empty((K, n, n))
    R, w, xbar = np.empty((K, m, m)), np.empty((K, n)), np.empty((K, n))
    for i in range(K):
        A[i], B[i], w[i], Q[i], R[i], xbar[i] = system.step_data(
            spec.t1 + i, spec.params[i])
    return _assembly.WindowMatrices(A, B, w, Q, R, xbar, spec.terminal, n, m)


def solve_quadratic(spec: FtocpSpec, system) -> FtocpSolution:
    """Exact minimizer of the windowed linear-quadratic problem."""
    law = continuation_law(system, spec.params, spec.terminal, spec.t1)
    return law.solution(0, spec.z)


def _lq_value(Q: Array, R: Array, xbar: Array, terminal: TerminalCost,
              states: Array, actions: Array) -> float:
    """Objective of a trajectory; Q, R, xbar are stacked per step."""
    d = states[:-1] - xbar
    value = float(np.einsum("ti,tij,tj->", d, Q, d)
                  + np.einsum("ti,tij,tj->", actions, R, actions))
    return value + terminal.value(states[-1])


# ---------------------------------------------------------------------------
# continuation law (backward Riccati pass)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ContinuationLaw:
    """Optimal feedback of a linear-quadratic problem on the steps
    t1 .. t1 + T with fixed parameters and a quadratic, zero or pinned
    terminal.  Offsets t = 0 .. T count from t1.

    The state is lifted to s = (x, 1), or s = (x, 1, nu) for a pinned
    terminal x_T = target, where nu is the multiplier of the pin and stays
    constant along the window.  Then the stage cost, the dynamics and the
    terminal data (2 nu'(x_T - target) for a pin) are quadratic and linear
    in s, the cost-to-go from offset t is s'P_t s, the optimal action is
    u_t = G_t s_t and the optimal lifted state follows
    s_{t+1} = closed_loop_t s_t.  For a pin, nu maximizes s'P_t s, which is
    a solve with the n x n nu-block of P_t, refined once (see _rollout).
    The multipliers of the saddle system of the window are
    eta_t = -(P_t s_t)[:n].
    """

    t1: int
    data: _assembly.WindowMatrices   # step data by offset, and the terminal
    P: Array            # (T+1, d, d)
    G: Array            # (T, m, d)
    closed_loop: Array  # (T, d, d)

    @property
    def T(self) -> int:
        return self.G.shape[0]

    def action(self, t: int, x: Array) -> Array:
        """Optimal action at offset t from state x.  A pinned window is
        rolled out, so that an unreachable target raises SingularKKT."""
        if self.data.terminal.kind == "indicator":
            return self._rollout(t, x)[1][0]
        return self.G[t] @ np.append(x, 1.0)

    def _rollout(self, t: int, x: Array) -> tuple[Array, Array]:
        """Lifted optimal states s_t .. s_T and actions u_t .. u_{T-1} from
        x at offset t.

        A pin's multiplier nu adds the actions v_i = G_i[:, n+1:] nu to the
        unpinned closed loop (the (x, 1)-blocks), which move x_T by
        sum_i P_{i+1}[nu, :n] B_i v_i.  nu solves S nu = -r for the nu-block
        S of P_t and the miss r of the unpinned rollout.  S has about the
        squared condition number of the reachability map, so one step of
        iterative refinement follows, against the miss that the actions v
        predict.  The states are rolled out from v rather than from the
        lifted (x, 1, nu): a large nu would cancel digits there.
        """
        x = np.atleast_1d(np.asarray(x, float))
        wm, n, K = self.data, self.data.n, self.T - t
        lifted = np.zeros((K + 1, self.P.shape[1]))
        lifted[:, n] = 1.0
        lifted[0, :n] = x
        if wm.terminal.kind != "indicator":
            for i, step in enumerate(self.closed_loop[t:]):
                lifted[i + 1] = step @ lifted[i]
            return lifted, np.einsum("tij,tj->ti", self.G[t:], lifted[:-1])
        try:
            S_inv = np.linalg.inv(self.P[t, n + 1:, n + 1:])
        except np.linalg.LinAlgError as exc:
            raise SingularKKT(
                f"pinned terminal unreachable from step {self.t1 + t}"
            ) from exc
        G_nu, B = self.G[t:, :, n + 1:], wm.B[t:]
        r = self.P[t, n + 1:, :n + 1] @ lifted[0, :n + 1]
        nu = -S_inv @ r
        nu -= S_inv @ (r + np.einsum("tij,tjk,tk->i",
                                     self.P[t + 1:, n + 1:, :n], B, G_nu @ nu))
        lifted[:, n + 1:] = nu
        v = G_nu @ nu
        loop = self.closed_loop[t:, :n, :n]
        shift = self.closed_loop[t:, :n, n] + np.einsum("tij,tj->ti", B, v)
        states = lifted[:, :n]
        for i in range(K):
            states[i + 1] = loop[i] @ states[i] + shift[i]
        actions = np.einsum("tij,tj->ti", self.G[t:, :, :n + 1],
                            lifted[:-1, :n + 1]) + v
        miss = float(np.linalg.norm(states[-1] - wm.terminal.target))
        if not miss <= 1e-6 * (1.0 + np.linalg.norm(wm.terminal.target)
                               + np.linalg.norm(x)):
            raise SingularKKT(
                f"pinned terminal unreachable from step {self.t1 + t}: "
                f"the rollout misses it by {miss:.3g}")
        return lifted, actions

    def solution(self, t: int, x: Array) -> FtocpSolution:
        """Optimal solution of the window [t, T] from x, with the saddle
        system's multipliers and KKT residual."""
        lifted, actions = self._rollout(t, x)
        wm = self.data
        states = lifted[:, :wm.n].copy()
        duals = -np.einsum("tij,tj->ti", self.P[t:, :wm.n], lifted)
        value = _lq_value(wm.Q[t:], wm.R[t:], wm.xbar[t:], wm.terminal,
                          states, actions)
        return FtocpSolution(self.t1 + t, self.t1 + self.T, states, actions,
                             duals, value,
                             self._kkt_residual(t, states, actions, duals))

    def _kkt_residual(self, t, states, actions, duals) -> float:
        """||H chi - b|| of the window [t, T], block by block: stationarity
        in y_s and v_s, the terminal row (stationarity in y_T, or the pin),
        then the dynamics rows (the initial-state pin holds exactly)."""
        wm = self.data
        A, B, term = wm.A[t:], wm.B[t:], wm.terminal
        y, nxt = states[:-1], duals[1:]
        r_y = (np.einsum("tij,tj->ti", wm.Q[t:], y - wm.xbar[t:])
               + duals[:-1] - np.einsum("tji,tj->ti", A, nxt))
        r_v = (np.einsum("tij,tj->ti", wm.R[t:], actions)
               - np.einsum("tji,tj->ti", B, nxt))
        if term.kind == "indicator":
            r_T = states[-1] - term.target
        else:
            r_T = term.P @ (states[-1] - term.xbar) + duals[-1]
        r_dyn = (states[1:] - np.einsum("tij,tj->ti", A, y)
                 - np.einsum("tij,tj->ti", B, actions) - wm.w[t:])
        return float(np.sqrt(sum(float(np.sum(r * r))
                                  for r in (r_y, r_v, r_T, r_dyn))))


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


def continuation_law(system, params: Sequence[Array], terminal: TerminalCost,
                     t1: int = 0) -> ContinuationLaw:
    """One backward Riccati pass over the steps t1 .. t1 + T, where
    T = len(params) - 1 and params[i] parameterizes step t1 + i.

    Raises SingularKKT when some R_t + B_t'P_{t+1}B_t is singular or a gain
    is not finite.
    """
    T = len(params) - 1
    wm = window_matrices(FtocpSpec(t1, t1 + T, np.zeros(system.n), params,
                                   terminal), system)
    n, m = wm.n, wm.m
    d = 2 * n + 1 if terminal.kind == "indicator" else n + 1
    # lifted dynamics s_{t+1} = F_t (s_t, u_t) and stage cost
    # (s_t, u_t)'C_t (s_t, u_t)
    F = np.zeros((T, d, d + m))
    F[:, :n, :n] = wm.A
    F[:, :n, n] = wm.w
    F[:, n:, n:d] = np.eye(d - n)
    F[:, :n, d:] = wm.B
    C = np.zeros((T, d + m, d + m))
    C[:, :d, :d] = _lifted_cost(wm.Q, wm.xbar, d)
    C[:, d:, d:] = wm.R
    P = np.zeros((T + 1, d, d))
    if terminal.kind == "indicator":
        P[T, :n, n + 1:] = P[T, n + 1:, :n] = np.eye(n)
        P[T, n, n + 1:] = P[T, n + 1:, n] = -terminal.target
    else:
        P[T] = _lifted_cost(terminal.P, terminal.xbar, d)
    G = np.empty((T, m, d))
    for t in reversed(range(T)):
        W = C[t] + F[t].T @ P[t + 1] @ F[t]
        try:
            G[t] = -np.linalg.solve(W[d:, d:], W[d:, :d])
        except np.linalg.LinAlgError as exc:
            raise SingularKKT(f"singular R + B'PB at step {t1 + t}") from exc
        Pt = W[:d, :d] + W[:d, d:] @ G[t]
        P[t] = 0.5 * (Pt + Pt.T)
    bad = np.flatnonzero(~np.isfinite(G).all(axis=(1, 2)))
    if bad.size:
        raise SingularKKT(f"non-finite gain at step {t1 + int(bad.max())}")
    closed_loop = F[:, :, :d] + F[:, :, d:] @ G
    return ContinuationLaw(t1, wm, P, G, closed_loop)


# ---------------------------------------------------------------------------
# chain law (backward pass over the knots of the value functions)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChainLaw:
    """Optimal feedback of the stock chain on the steps t1 .. t1 + T with
    targets r_t and the final state pinned, read like ContinuationLaw.  The
    least cost V_t(x) of the offsets t .. T is convex and piecewise
    quadratic where the pin is reachable, so pieces[t] = (knots, slope,
    intercept) gives V_t' = slope[j] x + intercept[j] between knots[j] and
    knots[j + 1]; V_t' may jump at a knot, and the end knots bound dom V_t."""

    system: InventorySystem
    t1: int
    T: int
    targets: tuple      # r_t by offset
    pin: float
    pieces: tuple       # (knots, slope, intercept) by offset; None at 0

    def action(self, t: int, x: Array) -> Array:
        states = self._rollout(t, self._check(t, x), t + 1)
        return np.clip(np.diff(states), self.system.u_lo, self.system.u_hi)

    def solution(self, t: int, x: Array) -> FtocpSolution:
        """Optimal solution of the window [t, T] from x, with the multipliers
        of its dynamics rows and its KKT residual."""
        states = np.array(self._rollout(t, self._check(t, x), self.T))
        actions = np.clip(np.diff(states), self.system.u_lo, self.system.u_hi)
        duals = self._duals(t, states, actions)
        top = states.size - (not self.system.include_terminal_stage)
        value = float(np.sum((states[:top] - self.targets[t:t + top]) ** 2)
                      + self.system.action_weight * np.sum(actions ** 2))
        return FtocpSolution(self.t1 + t, self.t1 + self.T, states[:, None],
                             actions[:, None], duals[:, None], value,
                             self._kkt_residual(t, states, actions, duals))

    def _check(self, t: int, x: Array) -> float:
        """x as a float, once the window [t, T] from x is known feasible:
        the bounds are convex and the same at every step, so it is if and
        only if its straight line is.  Raises Infeasible otherwise."""
        sys, K, step = self.system, self.T - t, self.t1 + t
        z = float(np.atleast_1d(x)[0])
        u_hi = np.inf if sys.u_hi is None else sys.u_hi
        if K == 0 and abs(z - self.pin) > 1e-9:
            raise Infeasible("empty window cannot move the state", step)
        if K and not sys.u_lo - 1e-12 <= (self.pin - z) / K <= u_hi + 1e-12:
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
        u_hi = np.inf if sys.u_hi is None else sys.u_hi
        for knots, slope, icpt in self.pieces[t + 1:stop + 1]:
            alpha, beta = _descent(knots, slope, icpt, sys.action_weight, x)
            y = min(max(alpha * x + beta, x + sys.u_lo), x + u_hi)
            x = min(max(y, knots[0]), knots[-1])
            states.append(x)
        return states

    def _duals(self, t: int, states: Array, actions: Array) -> Array:
        """Multipliers eta of the dynamics rows (as in ContinuationLaw) of a
        primal solution.  The multipliers l_s = eta_{s+1} - gam u_s of the
        bounds on u_s and m_s = eta_{s+1} - eta_s - (x_s - r_s) of those on
        x_s may be nonzero only towards a bound met to within 1e-12.  A
        forward pass keeps the interval of eta_{s+1} this allows (its
        nearest point if empty), a backward one picks eta_s nearest m_s = 0."""
        sys, gam, K = self.system, self.system.action_weight, actions.size
        dev, tol, inf = states - self.targets[t:], 1e-12, np.inf
        bands, lo, hi = [], -inf, inf       # eta_0 is free: x_0 is given
        for s, (x, u) in enumerate(zip(states, actions)):
            a = lo + dev[s] - (inf if s == 0 or x <= sys.x_lo + tol else 0.0)
            b = hi + dev[s] + (inf if s == 0 or x >= sys.x_hi - tol else 0.0)
            lo = gam * u - (inf if u <= sys.u_lo + tol else 0.0)
            hi = gam * u + (inf if sys.u_hi is not None
                            and u >= sys.u_hi - tol else 0.0)
            lo, hi = min(max(a, lo), hi), max(min(b, hi), lo)
            bands.append((lo, hi))      # interval of eta_{s+1}
        eta = np.empty(K + 1)
        nearest = gam * actions[-1] if K else 0.0
        for s in range(K, 0, -1):
            eta[s] = min(max(nearest, bands[s - 1][0]), bands[s - 1][1])
            nearest = eta[s] - dev[s - 1]
        eta[0] = nearest
        return eta

    def _kkt_residual(self, t, states, actions, duals) -> float:
        """Norm of the KKT violations of the window [t, T]: the initial
        state's stationarity row, the dynamics rows, the pin, and the natural
        residuals v - clip(v + l, lo, hi) of the bounds on each action and
        state v, zero iff v is feasible and its multiplier l complementary."""
        sys, eta, x = self.system, np.ravel(duals), states[1:-1]
        dev = states - self.targets[t:]
        u_hi = np.inf if sys.u_hi is None else sys.u_hi
        ell = eta[1:] - sys.action_weight * actions
        m = eta[2:] - eta[1:-1] - dev[1:-1]
        return float(np.linalg.norm(np.concatenate([
            dev[:1] + eta[:1] - eta[1:2], np.diff(states) - actions,
            states[-1:] - self.pin,
            actions - np.clip(actions + ell, sys.u_lo, u_hi),
            x - np.clip(x + m, sys.x_lo, sys.x_hi)])))


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
    gam, u_lo = system.action_weight, system.u_lo
    u_hi = np.inf if system.u_hi is None else system.u_hi
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


def chain_law(system: InventorySystem, params: Sequence[Array],
              terminal: TerminalCost, t1: int = 0) -> ChainLaw:
    """One backward pass over the steps t1 .. t1 + T of the stock chain,
    where T = len(params) - 1 and params[i] is the target of step t1 + i."""
    if terminal.kind != "indicator":
        raise ValueError("chain solver requires a pinned terminal state")
    targets = tuple(float(np.atleast_1d(p)[0]) for p in params)
    pin = float(terminal.target[0])
    pieces = [None] * (len(targets) - 1) + [((pin,), (), ())]
    for t in range(len(targets) - 2, 0, -1):
        pieces[t] = _chain_step(system, pieces[t + 1], targets[t])
    return ChainLaw(system, t1, len(targets) - 1, targets, pin, tuple(pieces))


def solve_inventory(spec: FtocpSpec, system: InventorySystem) -> FtocpSolution:
    """Exact minimizer of a stock-chain window with a pinned final state."""
    return chain_law(system, spec.params, spec.terminal,
                     spec.t1).solution(0, spec.z)


# ---------------------------------------------------------------------------
# dispatch and the optimal continuation under the true parameters
# ---------------------------------------------------------------------------

def solve(spec: FtocpSpec, system) -> FtocpSolution:
    if getattr(system, "kind", None) == "inventory":
        return solve_inventory(spec, system)
    return solve_quadratic(spec, system)


def truth_law(instance: Instance) -> ContinuationLaw | ChainLaw:
    """Optimal continuation under the instance's true parameters and its own
    terminal cost: the reference of every per-step error and the hindsight
    optimum."""
    build = (chain_law if instance.system.kind == "inventory"
             else continuation_law)
    return build(instance.system, instance.truth, instance.terminal_cost())
