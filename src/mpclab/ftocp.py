"""Exact solvers for the windowed optimal control problem.

Two problem classes are supported exactly:

- time-varying linear dynamics with quadratic costs: one backward Riccati
  pass (``continuation_law``) gives the optimal affine feedback of a window
  with a quadratic, zero or pinned terminal, and a forward rollout gives the
  solution, its multipliers and its KKT residual;
- the constrained scalar stock chain (primal active-set QP).

``solve`` picks the solver of a window and ``truth_law`` the optimal
continuation under an instance's true parameters (a ``ContinuationLaw`` or a
``ChainContinuation``, both read with ``action(t, x)`` and
``solution(t, x)``); no other module branches on the problem class to solve.
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
    active_set: list | None = None

    @property
    def first_action(self) -> Array:
        return self.actions[0]

    def dynamics_residual(self, system, params) -> float:
        worst = 0.0
        for i in range(self.t2 - self.t1):
            nxt = system.dynamics(self.t1 + i, self.states[i],
                                  self.actions[i], params[i])
            worst = max(worst, float(np.linalg.norm(self.states[i + 1] - nxt)))
        return worst


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
# stock-chain solver (primal active set)
# ---------------------------------------------------------------------------

def _active_set_qp(Hm, g, G, h, x, max_iter, tol=1e-9):
    """Primal active-set method for min 0.5 x'Hx + g'x s.t. Gx <= h, with a
    feasible start.  Returns (x, lam, working_set)."""
    nc = G.shape[0]
    work = [i for i in range(nc) if G[i] @ x >= h[i] - tol]
    lam = np.zeros(nc)
    for _ in range(max_iter):
        GW = G[work] if work else np.zeros((0, x.size))
        kkt = np.block([[Hm, GW.T],
                        [GW, np.zeros((len(work), len(work)))]])
        rhs = np.concatenate([-(Hm @ x + g), np.zeros(len(work))])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        p = sol[:x.size]
        lam_w = sol[x.size:]
        alpha = 1.0
        blocking = None
        for i in range(nc):
            if i in work:
                continue
            gi_p = G[i] @ p
            if gi_p > tol:
                a_i = (h[i] - G[i] @ x) / gi_p
                if a_i < alpha - tol:
                    alpha = max(a_i, 0.0)
                    blocking = i
        x = x + alpha * p
        if blocking is not None:
            work.append(blocking)
        elif np.linalg.norm(p) <= tol:
            # x is the minimizer on the working set and lam_w its multipliers
            lam[:] = 0.0
            for idx, i in enumerate(work):
                lam[i] = lam_w[idx]
            if all(lam_w >= -tol):
                return x, lam, list(work)
            drop = work[int(np.argmin(lam_w))]
            work.remove(drop)
    raise Infeasible("active-set iteration cap exceeded")


def solve_inventory(spec: FtocpSpec, system: InventorySystem) -> FtocpSolution:
    """Exact minimizer of the constrained scalar chain window.

    Requires an indicator terminal; states are pinned at both ends and the
    problem is solved over the interior states.
    """
    if spec.terminal.kind != "indicator":
        raise ValueError("chain solver requires a pinned terminal state")
    K = spec.K
    z = float(spec.z[0])
    target = float(spec.terminal.target[0])
    targets = np.array([float(np.atleast_1d(p)[0]) for p in spec.params])
    u_lo, u_hi = system.u_lo, system.u_hi
    x_lo, x_hi = system.x_lo, system.x_hi
    gam = system.action_weight
    if K == 0:
        if abs(z - target) > 1e-9:
            raise Infeasible("empty window cannot move the state", spec.t1)
        val = system.stage_cost(0, z, targets[0]) if system.include_terminal_stage else 0.0
        return FtocpSolution(spec.t1, spec.t2, np.array([[z]]),
                             np.zeros((0, 1)), np.zeros((1, 1)), val, 0.0)
    lo_needed = (target - z) / K
    if lo_needed < u_lo - 1e-12 or (u_hi is not None and lo_needed > u_hi + 1e-12):
        raise Infeasible("terminal state unreachable under action bounds",
                         spec.t1)
    if not (x_lo - 1e-12 <= z <= x_hi + 1e-12) or not (
            x_lo - 1e-12 <= target <= x_hi + 1e-12):
        raise Infeasible("endpoint outside the state interval", spec.t1)

    nfree = K - 1
    if nfree == 0:
        x_full = np.array([z, target])
        lam = np.zeros(0)
        work = []
        G = np.zeros((0, 0))
        h = np.zeros(0)
        resid = 0.0
    else:
        Hm = 2.0 * np.eye(nfree)
        g = -2.0 * targets[1:K]
        if gam > 0.0:
            # smooth action cost gam * (x_{t+1} - x_t)^2 couples the chain
            Hm += 4.0 * gam * np.eye(nfree)
            idx = np.arange(nfree - 1)
            Hm[idx, idx + 1] -= 2.0 * gam
            Hm[idx + 1, idx] -= 2.0 * gam
            g = g.copy()
            g[0] -= 2.0 * gam * z
            g[-1] -= 2.0 * gam * target
        rows, rhs, names = [], [], []
        for t in range(1, K):
            r = np.zeros(nfree)
            r[t - 1] = 1.0
            rows.append(r.copy())
            rhs.append(x_hi)
            names.append(f"x{t}<=hi")
            rows.append(-r)
            rhs.append(-x_lo)
            names.append(f"x{t}>=lo")
        for t in range(K):
            r = np.zeros(nfree)
            c = 0.0
            if t >= 1:
                r[t - 1] = -1.0
            else:
                c -= z
            if t + 1 <= K - 1:
                r[t] = 1.0
            else:
                c += target
            # u_t = x_{t+1} - x_t = r @ xfree + c
            if u_hi is not None:
                rows.append(r.copy())
                rhs.append(u_hi - c)
                names.append(f"u{t}<=hi")
            rows.append(-r)
            rhs.append(-(u_lo - c))
            names.append(f"u{t}>=lo")
        G = np.array(rows)
        h = np.array(rhs)
        x0 = np.linspace(z, target, K + 1)[1:K]
        x_free, lam, work = _active_set_qp(Hm, g, G, h, x0,
                                           max_iter=10 * K * K)
        x_full = np.concatenate([[z], x_free, [target]])
        grad = Hm @ x_free + g
        resid = float(np.linalg.norm(grad + G.T @ lam))
        feas = float(np.max(G @ x_free - h, initial=0.0))
        comp = float(np.max(np.abs(lam * (G @ x_free - h)), initial=0.0))
        resid = max(resid, feas, comp)
        name_index = {nm: i for i, nm in enumerate(names)}
        work = [names[i] for i in sorted(work)]

    actions = np.diff(x_full)
    # multipliers of the dynamics equalities, reconstructed from the
    # action-bound multipliers (stationarity in u)
    duals = np.zeros((K + 1, 1))
    if nfree > 0:
        for t in range(K):
            hi_i = name_index.get(f"u{t}<=hi")
            lo_i = name_index.get(f"u{t}>=lo")
            val = 0.0
            if hi_i is not None:
                val += lam[hi_i]
            if lo_i is not None:
                val -= lam[lo_i]
            duals[t + 1, 0] = val
    value = 0.0
    top = K + 1 if system.include_terminal_stage else K
    for t in range(min(top, targets.shape[0])):
        value += system.stage_cost(spec.t1 + t, x_full[t], targets[t])
    if gam > 0.0:
        value += gam * float(np.sum(actions ** 2))
    return FtocpSolution(spec.t1, spec.t2, x_full.reshape(-1, 1),
                         actions.reshape(-1, 1), duals, value, resid,
                         active_set=work)


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
# dispatch and the optimal continuation under the true parameters
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ChainContinuation:
    """Optimal continuation of the stock chain on the steps 0 .. T with fixed
    parameters and a pinned terminal; the same interface as
    ContinuationLaw, where t counts from step 0.  Each window [t, T] is one
    active-set solve."""

    system: InventorySystem
    params: Sequence[Array]
    terminal: TerminalCost

    def action(self, t: int, x: Array) -> Array:
        return self.solution(t, x).first_action

    def solution(self, t: int, x: Array) -> FtocpSolution:
        T = len(self.params) - 1
        return solve_inventory(FtocpSpec(t, T, x, self.params[t:],
                                         self.terminal), self.system)


def solve(spec: FtocpSpec, system) -> FtocpSolution:
    if getattr(system, "kind", None) == "inventory":
        return solve_inventory(spec, system)
    return solve_quadratic(spec, system)


def truth_law(instance: Instance) -> ContinuationLaw | ChainContinuation:
    """Optimal continuation under the instance's true parameters and its own
    terminal cost: the reference of every per-step error and the hindsight
    optimum."""
    params = [instance.truth[s] for s in range(instance.T + 1)]
    if instance.system.kind == "inventory":
        return ChainContinuation(instance.system, params,
                                 instance.terminal_cost())
    return continuation_law(instance.system, params, instance.terminal_cost())
