"""Exact solvers for the windowed optimal control problem.

Two problem classes are supported exactly:

- time-varying linear dynamics with quadratic costs (saddle-point solve on
  the permuted block-tridiagonal system), and
- the constrained scalar stock chain (primal active-set QP).

The tail of a linear-quadratic problem under fixed parameters and a quadratic
(or zero) terminal cost has a structured solution: one backward Riccati pass
gives the affine optimal law u_t = K_t x + k_t for every step
(``continuation_law``).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from . import _assembly
from .model import Instance, InventorySystem, TerminalCost

Array = np.ndarray


class SingularKKT(RuntimeError):
    """The saddle system is singular (e.g. the instance is uncontrollable)."""


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
    A, B, w, Q, R, xbar = [], [], [], [], [], []
    for i in range(spec.K):
        Ai, Bi, wi, Qi, Ri, xbi = system.step_data(spec.t1 + i, spec.params[i])
        A.append(np.atleast_2d(Ai))
        B.append(np.atleast_2d(Bi))
        w.append(np.atleast_1d(wi))
        Q.append(np.atleast_2d(Qi))
        R.append(np.atleast_2d(Ri))
        xbar.append(np.atleast_1d(xbi))
    return _assembly.WindowMatrices(A, B, w, Q, R, xbar, spec.terminal,
                                    system.n, system.m)


def solve_quadratic(spec: FtocpSpec, system) -> FtocpSolution:
    """Exact minimizer of the windowed linear-quadratic problem."""
    n = system.n
    if spec.K == 0:
        return FtocpSolution(
            spec.t1, spec.t2, np.array([spec.z]),
            np.zeros((0, system.m)), np.zeros((1, n)),
            spec.terminal.value(spec.z), 0.0)
    wm = window_matrices(spec, system)
    asm = _assembly.assemble_window(wm)
    _assembly.set_initial_state(asm, spec.z)
    try:
        chi, residual = _assembly.solve_assembly(asm)
    except np.linalg.LinAlgError as exc:
        raise SingularKKT(str(exc)) from exc
    if not np.all(np.isfinite(chi)):
        raise SingularKKT("non-finite solution")
    states, actions, duals = _assembly.extract_primal_dual(asm, chi)
    if asm.variant == "hat":
        last = wm.A[-1] @ states[-1] + wm.B[-1] @ actions[-1] + wm.w[-1]
        states = states + [last]
    states = np.array(states)
    actions = np.array(actions)
    value = _lq_value(np.array(wm.Q), np.array(wm.R), np.array(wm.xbar),
                      spec.terminal, states, actions)
    return FtocpSolution(spec.t1, spec.t2, states, actions,
                         np.array(duals), value, residual)


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
        if np.linalg.norm(p) <= tol:
            lam[:] = 0.0
            for idx, i in enumerate(work):
                lam[i] = lam_w[idx]
            if all(lam_w >= -tol):
                return x, lam, list(work)
            drop = work[int(np.argmin(lam_w))]
            work.remove(drop)
            continue
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
    """Optimal affine feedback u_t = K_t x + k_t of a linear-quadratic problem
    on steps 0..T with fixed parameters and a quadratic or zero terminal.

    The cost-to-go from x at step t is x'P_t x - 2 p_t'x + const, and the
    multipliers of the saddle system of the window [t, T] are
    eta_s = p_s - P_s y_s.  Step data are stacked per step: A (T, n, n),
    B (T, n, m), w (T, n), Q (T, n, n), R (T, m, m), xbar (T, n).
    """

    A: Array
    B: Array
    w: Array
    Q: Array
    R: Array
    xbar: Array
    terminal: TerminalCost
    P: Array            # (T+1, n, n)
    p: Array            # (T+1, n)
    K: Array            # (T, m, n)
    k: Array            # (T, m)
    closed_loop: Array  # (T, n, n), A_t + B_t K_t

    @property
    def T(self) -> int:
        return self.K.shape[0]

    def action(self, t: int, x: Array) -> Array:
        """Optimal action at step t from state x."""
        return self.K[t] @ x + self.k[t]

    def solution(self, t: int, x: Array) -> FtocpSolution:
        """Optimal continuation of the window [t, T] from x, with the same
        duals and KKT residual as the saddle solve of that window."""
        T, n = self.T, self.P.shape[1]
        states = np.empty((T - t + 1, n))
        actions = np.empty((T - t, self.K.shape[1]))
        states[0] = np.atleast_1d(np.asarray(x, float))
        for i, s in enumerate(range(t, T)):
            actions[i] = self.K[s] @ states[i] + self.k[s]
            states[i + 1] = (self.A[s] @ states[i] + self.B[s] @ actions[i]
                             + self.w[s])
        duals = self.p[t:] - np.einsum("tij,tj->ti", self.P[t:], states)
        value = _lq_value(self.Q[t:], self.R[t:], self.xbar[t:],
                          self.terminal, states, actions)
        return FtocpSolution(t, T, states, actions, duals, value,
                             self._kkt_residual(t, states, actions, duals))

    def _kkt_residual(self, t, states, actions, duals) -> float:
        """||H chi - b|| of the window [t, T], block by block: stationarity
        in y_s, v_s and y_T, then the dynamics rows (the initial-state pin
        holds exactly)."""
        A, B, Q = self.A[t:], self.B[t:], self.Q[t:]
        y, nxt = states[:-1], duals[1:]
        r_y = (np.einsum("tij,tj->ti", Q, y - self.xbar[t:]) + duals[:-1]
               - np.einsum("tji,tj->ti", A, nxt))
        r_v = (np.einsum("tij,tj->ti", self.R[t:], actions)
               - np.einsum("tji,tj->ti", B, nxt))
        r_T = self.P[-1] @ states[-1] + duals[-1] - self.p[-1]
        r_dyn = (states[1:] - np.einsum("tij,tj->ti", A, y)
                 - np.einsum("tij,tj->ti", B, actions) - self.w[t:])
        return float(np.sqrt(sum(float(np.sum(r * r))
                                  for r in (r_y, r_v, r_T, r_dyn))))


def continuation_law(system, params: Sequence[Array],
                     terminal: TerminalCost) -> ContinuationLaw:
    """One backward Riccati pass over steps 0..T = len(params) - 1.

    Raises SingularKKT when some R_t + B_t'P_{t+1}B_t is singular or a gain
    is not finite.
    """
    if terminal.kind == "indicator":
        raise ValueError("continuation law needs a quadratic or zero terminal")
    T = len(params) - 1
    n, m = system.n, system.m
    wm = window_matrices(FtocpSpec(0, T, np.zeros(n), params, terminal),
                         system)
    A, B, w = np.array(wm.A), np.array(wm.B), np.array(wm.w)
    Q, R, xbar = np.array(wm.Q), np.array(wm.R), np.array(wm.xbar)
    P = np.empty((T + 1, n, n))
    p = np.empty((T + 1, n))
    K = np.empty((T, m, n))
    k = np.empty((T, m))
    closed = np.empty((T, n, n))
    if terminal.kind == "quadratic":
        P[T], p[T] = terminal.P, terminal.P @ terminal.xbar
    else:
        P[T], p[T] = 0.0, 0.0
    for t in reversed(range(T)):
        PB = P[t + 1] @ B[t]
        S = R[t] + B[t].T @ PB
        rhs = np.column_stack([PB.T @ A[t],
                               B[t].T @ (P[t + 1] @ w[t] - p[t + 1])])
        try:
            gains = -np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularKKT(f"singular R + B'PB at step {t}") from exc
        if not np.all(np.isfinite(gains)):
            raise SingularKKT(f"non-finite gain at step {t}")
        K[t], k[t] = gains[:, :n], gains[:, n]
        closed[t] = A[t] + B[t] @ K[t]
        Pt = Q[t] + A[t].T @ P[t + 1] @ closed[t]
        P[t] = 0.5 * (Pt + Pt.T)
        p[t] = Q[t] @ xbar[t] + A[t].T @ (p[t + 1]
                                          - P[t + 1] @ (B[t] @ k[t] + w[t]))
    return ContinuationLaw(A, B, w, Q, R, xbar, terminal, P, p, K, k, closed)


# ---------------------------------------------------------------------------
# dispatch and the exact-hindsight solve
# ---------------------------------------------------------------------------

def solve(spec: FtocpSpec, system) -> FtocpSolution:
    if getattr(system, "kind", None) == "inventory":
        return solve_inventory(spec, system)
    return solve_quadratic(spec, system)


def truth_law(instance: Instance) -> ContinuationLaw | None:
    """Continuation law under the instance's true parameters, or None for the
    stock chain, whose continuation needs the active-set solver."""
    if instance.system.kind == "inventory":
        return None
    params = [instance.truth[s] for s in range(instance.T + 1)]
    return continuation_law(instance.system, params, instance.terminal_cost())


def clairvoyant_action(t: int, x_t: Array, instance: Instance):
    """Optimal continuation from x_t under the true parameters.

    Returns (first action, full solution) of the window [t, T] with the
    instance's own terminal cost.
    """
    law = truth_law(instance)
    if law is not None:
        sol = law.solution(t, x_t)
        return sol.first_action, sol
    T = instance.T
    params = [instance.truth[s] for s in range(t, T + 1)]
    spec = FtocpSpec(t, T, np.atleast_1d(x_t), params,
                     instance.terminal_cost())
    sol = solve_inventory(spec, instance.system)
    return sol.first_action, sol
