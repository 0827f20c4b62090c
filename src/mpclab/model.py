"""Problem instances: true parameters, forecast streams, and system families.

A system maps steps and their parameter vectors to cost/dynamics data in
one broadcasting call, ``step_data(ts, xis)``, stacked by step, and final
parameters to terminal costs in another, ``terminal_cost``.  Instances are
immutable after construction and compare by identity; their arrays and
the forecasts of a stream are read-only, so what is derived from an instance
alone can be computed once per instance (``per_instance``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import weakref
from typing import Callable

import numpy as np

Array = np.ndarray


class ModelError(ValueError):
    """Raised for inconsistent instance descriptions."""


# ---------------------------------------------------------------------------
# parameter boxes and forecast streams
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ParamBox:
    """Axis-aligned admissible set for the per-step parameter."""

    lo: Array
    hi: Array

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, float))
        hi = np.atleast_1d(np.asarray(self.hi, float))
        if lo.shape != hi.shape or np.any(hi < lo):
            raise ModelError("invalid parameter box")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def sample(self, rng: np.random.Generator) -> Array:
        return rng.uniform(self.lo, self.hi)


def _read_only(a: Array) -> Array:
    a.flags.writeable = False
    return a


class PredictionStream:
    """Forecasts of future parameters with exactly prescribed error magnitudes.

    ``rho_table[t, tau]`` is the distance between the forecast of step
    t+tau made at step t and the true value, a read-only (T+1, k+1) array.
    ``rho`` is that table, or a constant applied at every tau >= 1 (tau = 0
    is then exact); entries with t + tau > T are set to 0, and a negative
    or non-finite entry raises ModelError.  The directions are drawn
    uniformly on the unit sphere (the two points of S^0 for one parameter)
    with a dedicated generator, one draw per valid (t, tau) in t-major
    order, so rescaling magnitudes keeps the directions fixed.

    ``forecasts[t, tau]`` is the forecast of step t+tau made at step t, a
    read-only (T+1, k+1, p) array; entries with t + tau > T are NaN.
    ``truth`` is a read-only copy of ``base``, the true parameters the
    forecasts were drawn around.
    """

    def __init__(self, base: Array, k: int, rho: Array | float, seed: int = 0):
        if k < 1:
            raise ModelError("forecast horizon k must be >= 1")
        base = np.array(base, float)
        T, p = base.shape[0] - 1, base.shape[1]
        self.truth = _read_only(base)
        self.T, self.k = T, k
        table = np.array(rho, float)
        constant = table.ndim == 0
        if not constant and table.shape != (T + 1, k + 1):
            raise ModelError("error magnitudes need shape (T+1, k+1)")
        if not (np.isfinite(table).all() and (table >= 0).all()):
            raise ModelError("error magnitudes must be finite and nonnegative")
        valid = np.add.outer(np.arange(T + 1), np.arange(k + 1)) <= T
        table = np.where(valid, table, 0.0)
        if constant:
            table[:, 0] = 0.0
        self.rho_table = _read_only(table)
        ts, taus = np.nonzero(valid)   # t-major
        rng = np.random.default_rng(seed)
        directions = rng.normal(size=(ts.size, p))
        norms = np.linalg.norm(directions, axis=1)
        # redraws come after the batch, so only a near-zero draw (which has
        # probability about 1e-12) departs from one draw at a time
        for i in np.flatnonzero(norms <= 1e-12):
            while norms[i] <= 1e-12:
                directions[i] = rng.normal(size=p)
                norms[i] = np.linalg.norm(directions[i])
        forecasts = np.full((T + 1, k + 1, p), np.nan)
        forecasts[ts, taus] = (base[ts + taus] + table[ts, taus][:, None]
                               * (directions / norms[:, None]))
        self.forecasts = _read_only(forecasts)

    def window(self, t: int, t2: int) -> Array:
        """Forecasts xi_{t..t2} made at step t (inclusive of both ends)."""
        if t < 0 or t2 < t:
            raise ModelError("forecast window must satisfy 0 <= t <= t2")
        if t2 > self.T:
            raise ModelError("forecast beyond the final step")
        if t2 - t > self.k:
            raise ModelError("forecast beyond the horizon k")
        return self.forecasts[t, :t2 - t + 1]


def _rho_offsets(rho_table: Array, k: int) -> Array:
    """Columns tau = 0..min(k, T) of a (T+1, .) table of forecast-error
    magnitudes: what a window of length k reads, since no offset past T
    has a forecast.  A table with fewer columns raises ValueError."""
    rho_table = np.asarray(rho_table, float)
    K = min(k, len(rho_table) - 1) + 1
    if rho_table.ndim != 2 or rho_table.shape[1] < K:
        raise ValueError("error magnitudes must cover offsets 0..min(k, T)")
    return rho_table[:, :K]


# ---------------------------------------------------------------------------
# terminal costs
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TerminalCost:
    """Terminal cost: quadratic (``zero`` is the quadratic with P = 0) or a
    hard state pin (indicator).  The terminal of a batch of windows stacks
    its arrays with a window axis in front; indexing it picks windows."""

    kind: str
    P: Array | None = None
    xbar: Array | None = None
    target: Array | None = None

    @staticmethod
    def quadratic(P: Array, xbar: Array) -> "TerminalCost":
        return TerminalCost("quadratic", P=np.atleast_2d(np.asarray(P, float)),
                            xbar=np.atleast_1d(np.asarray(xbar, float)))

    @staticmethod
    def indicator(target: Array) -> "TerminalCost":
        return TerminalCost("indicator",
                            target=np.atleast_1d(np.asarray(target, float)))

    @staticmethod
    def zero(n: int) -> "TerminalCost":
        return TerminalCost.quadratic(np.zeros((n, n)), np.zeros(n))

    def __getitem__(self, index) -> "TerminalCost":
        """The terminal of the windows ``index`` of a stacked terminal."""
        if self.kind == "indicator":
            return TerminalCost(self.kind, target=self.target[index])
        return TerminalCost(self.kind, self.P[index], self.xbar[index])

    def value(self, x: Array) -> float:
        x = np.atleast_1d(x)
        if self.kind == "quadratic":
            d = x - self.xbar
            return float(d @ self.P @ d)
        return 0.0  # indicator: zero at the (enforced) target


# ---------------------------------------------------------------------------
# system families
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Bounds:
    """Declared uniform bounds and Lipschitz constants of the parameter maps."""

    mu: float
    ell: float
    a: float
    b: float
    D_w: float = 0.0
    D_xbar: float = 0.0
    L_A: float = 0.0
    L_B: float = 0.0
    L_Q: float = 0.0
    L_R: float = 0.0
    L_xbar: float = 0.0
    L_w: float = 0.0
    L_P: float = 0.0


class LinearQuadraticSystem:
    """Time-varying linear dynamics with quadratic tracking costs.

    ``step_data(ts, xis)`` maps the steps ``ts`` (an int or an int array)
    and their parameters ``xis`` (shape ``ts.shape + (p,)``) to the stacked
    step data (A, B, w, Q, R, xbar): each array carries ``ts.shape`` in
    front of its own shape (n, n), (n, m), (n,), (n, n), (m, m) and (n,),
    so an int step gives one step's arrays.  The map must broadcast over
    the leading axes; what it returns without them (a constant Q, say) is
    broadcast to them.  ``terminal(xis)`` gives (P_T, xbar_T) from the
    final parameters alone, under the same contract: stacked with the
    leading axes of ``xis`` in front of (n, n) and (n,).  The final state
    pays no stage cost.
    """

    include_terminal_stage = False

    def __init__(self, n: int, m: int, T: int, *,
                 step_data: Callable[[Array, Array], tuple],
                 terminal: Callable[[Array], tuple[Array, Array]],
                 bounds: Bounds, param_box: ParamBox):
        if T < 2:
            raise ModelError("horizon T must be >= 2")
        if n < 1 or m < 1:
            raise ModelError("need at least one state and one action")
        self.n, self.m, self.T = n, m, T
        self._step_data = step_data
        self.terminal = terminal
        self.bounds = bounds
        self.param_box = param_box

    def step_data(self, ts, xis):
        """(A, B, w, Q, R, xbar) of the steps ts at the parameters xis,
        stacked as the class docstring says, as read-only arrays."""
        ts = np.asarray(ts)
        n, m = self.n, self.m
        shapes = ((n, n), (n, m), (n,), (n, n), (m, m), (n,))
        return tuple(np.broadcast_to(a, ts.shape + s) for a, s in
                     zip(self._step_data(ts, np.asarray(xis, float)), shapes))

    def terminal_cost(self, xi: Array) -> TerminalCost:
        """Terminal cost of the final parameters xi, stacked as above."""
        xi = np.asarray(xi, float)
        n, lead = self.n, xi.shape[:-1]
        P, xbar = self.terminal(xi)
        return TerminalCost.quadratic(np.broadcast_to(P, lead + (n, n)),
                                      np.broadcast_to(xbar, lead + (n,)))

    def pin_target(self, t2, xi: Array) -> Array:
        """The pins of windows ending at the steps t2 on their forecasts xi:
        the reference points of those steps, stacked like ``step_data``."""
        return self.step_data(t2, xi)[5]

    def lipschitz_dynamics(self) -> float:
        """Norm bound on [A B], the state/action sensitivity of one step."""
        return float(np.hypot(self.bounds.a, self.bounds.b))


class DisturbanceOnlySystem(LinearQuadraticSystem):
    """Fixed known dynamics and costs minimized at 0; only the additive
    disturbance ``w(ts, xis)`` depends on the parameter, which is what makes
    the family's gain tables exact (see ``kkt.measure_gain_tables``).  A, B,
    Q and R are stacked by step, and P_T is the terminal weight."""

    def __init__(self, n, m, T, *, A, B, w, Q, R, P_T, bounds, param_box):
        super().__init__(
            n, m, T,
            step_data=lambda ts, xis: (A[ts], B[ts], w(ts, xis), Q[ts],
                                       R[ts], np.zeros(n)),
            terminal=lambda xi: (P_T, np.zeros(n)),
            bounds=dataclasses.replace(bounds, L_A=0.0, L_B=0.0, L_Q=0.0,
                                       L_R=0.0, L_xbar=0.0, L_P=0.0,
                                       D_xbar=0.0),
            param_box=param_box)


@dataclasses.dataclass(frozen=True, eq=False)
class InventorySystem:
    """Scalar stock-tracking chain: x_{t+1} = x_t + u_t, x in [-1, 1].

    The action constraint is one-sided (u >= u_lo) when u_hi is None, else
    two-sided.  The stage cost of the final state enters the reported
    objective value (``include_terminal_stage``).  ``action_weight``
    adds a smooth action cost action_weight * u^2 per step (still convex and
    smooth, strongly convex in the state).  Systems are hashed and compared
    by identity, so that ``ftocp`` keeps the backward steps of each system's
    chain laws while the system lives.  The parameter of a step is its
    target, and the parameter box is the state interval [x_lo, x_hi].
    """

    T: int
    targets: Array
    u_lo: float = -0.8
    u_hi: float | None = 0.8
    x_lo: float = -1.0
    x_hi: float = 1.0
    action_weight: float = 0.0

    include_terminal_stage = True
    n = 1
    m = 1

    def __post_init__(self):
        if self.T < 1:
            raise ModelError("horizon T must be >= 1")
        targets = np.asarray(self.targets, float)
        if targets.shape[0] != self.T + 1:
            raise ModelError("need one target per step 0..T")
        object.__setattr__(self, "targets", targets)
        if self.u_hi is not None and self.u_hi < self.u_lo:
            raise ModelError("empty action interval")
        if self.action_weight < 0:
            raise ModelError("action weight must be nonnegative")

    @property
    def param_box(self) -> ParamBox:
        return ParamBox(np.array([self.x_lo]), np.array([self.x_hi]))

    def pin_target(self, t2, xi: Array) -> Array:
        """The pins of windows ending at the steps t2 on their forecasts xi:
        the targets (the parameters themselves) clipped to the state
        interval, since a pin outside it is infeasible."""
        return np.clip(np.asarray(xi, float), self.x_lo, self.x_hi)

    def step_data(self, ts, xis):
        """(A, B, w, Q, R, xbar) of the steps ts, stacked as in
        ``LinearQuadraticSystem.step_data``: the stage cost
        (x - xi)^2 + action_weight * u^2 of the chain x_{t+1} = x_t + u_t,
        whose reference xbar is the parameter xi itself."""
        shape = np.shape(ts)
        one = np.ones(shape + (1, 1))
        return (one, one, np.zeros(shape + (1,)), one,
                np.full(shape + (1, 1), self.action_weight),
                np.asarray(xis, float))

    def lipschitz_dynamics(self) -> float:
        return float(np.sqrt(2.0))  # norm of [1 1]


@dataclasses.dataclass(frozen=True, eq=False)
class Instance:
    """A fully realized problem: system + true parameters + initial state.

    ``truth[t]`` is the true parameter of step t, a read-only (T+1, p)
    array built from any sequence of T+1 parameter vectors, which must lie
    in the parameter box of the system; ``x0`` and
    ``terminal_param`` are read-only copies too.  Instances are hashed and
    compared by identity: ``dataclasses.replace`` makes a new one.
    """

    system: object
    truth: Array
    x0: Array
    name: str = "instance"
    seed: int = 0
    terminal_param: Array | None = None

    def __post_init__(self):
        truth = np.array(self.truth, float)
        if truth.ndim != 2 or truth.shape[0] != self.T + 1:
            raise ModelError("need one parameter vector per step 0..T")
        box = self.system.param_box
        if not np.all((box.lo <= truth) & (truth <= box.hi)):
            raise ModelError("true parameters outside the parameter box, "
                             "over which the declared bounds hold")
        object.__setattr__(self, "truth", _read_only(truth))
        object.__setattr__(self, "x0", _read_only(np.array(self.x0, float)))
        if self.terminal_param is not None:
            pin = np.array(self.terminal_param, float)
            object.__setattr__(self, "terminal_param", _read_only(pin))

    @property
    def T(self) -> int:
        return self.system.T

    def terminal_cost(self, xi: Array | None = None) -> TerminalCost:
        """Terminal cost of the final parameters xi (by default the true
        one), stacked with the leading axes of xi in front.  The stock
        chain's final state is pinned to ``terminal_param`` whatever xi is."""
        xi = self.truth[self.T] if xi is None else np.asarray(xi, float)
        if isinstance(self.system, InventorySystem):
            tgt = self.terminal_param
            if tgt is None:
                raise ModelError("inventory instance needs a terminal target")
            return TerminalCost.indicator(
                np.zeros(xi.shape[:-1] + tgt.shape) + tgt)
        return self.system.terminal_cost(xi)


def per_instance(fn: Callable[[Instance], object]):
    """``fn(instance)`` computed once per instance and kept while the
    instance lives.  An instance is immutable and hashed by identity, so
    the kept value is always that of the instance it is asked for."""
    memo = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def once(instance: Instance):
        if instance not in memo:
            memo[instance] = fn(instance)
        return memo[instance]
    return once


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

def validate_assumptions(system: LinearQuadraticSystem, samples: int = 200,
                         seed: int = 0) -> dict:
    """Empirically check declared bounds on sampled parameters.

    Returns a report mapping each declared bound to its worst sampled value,
    the declared limit and a pass flag.
    """
    rng = np.random.default_rng(seed)
    bb = system.bounds
    # one (t, xi) draw per sample, in this order, then the final parameter
    draws = [(int(rng.integers(0, system.T)), system.param_box.sample(rng))
             for _ in range(samples)]
    ts = np.array([t for t, _ in draws], int)
    xis = np.array([xi for _, xi in draws]).reshape(
        samples, system.param_box.lo.size)
    A, B, w, Q, R, xbar = system.step_data(ts, xis)
    P_T = system.terminal_cost(system.param_box.sample(rng)).P
    eigs = np.concatenate([np.linalg.eigvalsh(Mx).ravel()
                           for Mx in (Q, R, P_T)])
    worst = {
        "cost_eig_min": float(eigs.min()), "cost_eig_max": float(eigs.max()),
        "A_norm": float(np.linalg.norm(A, 2, axis=(-2, -1)).max(initial=0.0)),
        "B_norm": float(np.linalg.norm(B, 2, axis=(-2, -1)).max(initial=0.0)),
        "w_norm": float(np.linalg.norm(w, axis=-1).max(initial=0.0)),
        "xbar_norm": float(np.linalg.norm(xbar, axis=-1).max(initial=0.0)),
    }

    tol = 1e-9
    checks = {
        "cost_lower": (worst["cost_eig_min"], bb.mu,
                       worst["cost_eig_min"] >= bb.mu - tol),
        "cost_upper": (worst["cost_eig_max"], bb.ell,
                       worst["cost_eig_max"] <= bb.ell + tol),
        "A_bound": (worst["A_norm"], bb.a, worst["A_norm"] <= bb.a + tol),
        "B_bound": (worst["B_norm"], bb.b, worst["B_norm"] <= bb.b + tol),
        "w_bound": (worst["w_norm"], bb.D_w, worst["w_norm"] <= bb.D_w + tol),
        "xbar_bound": (worst["xbar_norm"], bb.D_xbar,
                       worst["xbar_norm"] <= bb.D_xbar + tol),
    }
    report = {name: {"worst": v, "limit": lim, "ok": bool(ok)}
              for name, (v, lim, ok) in checks.items()}
    report["ok"] = all(c["ok"] for c in report.values() if isinstance(c, dict))
    return report


# ---------------------------------------------------------------------------
# configuration hashes
# ---------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

