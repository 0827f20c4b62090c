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
import numbers
import weakref
from typing import Callable

import numpy as np

Array = np.ndarray


class ModelError(ValueError):
    """Raised for inconsistent instance descriptions and arguments, such as
    a count that is not an integer in range."""


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


def _read_only(a: Array) -> Array:
    a.flags.writeable = False
    return a


def _check_count(name: str, value, least: int, most: int | None = None):
    """Raise ModelError unless ``value`` is an integer in least..most (no
    upper end when ``most`` is None): a Python or numpy int, not a bool or
    a float.  The one check of a horizon, a dimension, a window or a seed;
    a plain int skips the slow abstract-class test (it runs per window)."""
    if ((type(value) is not int and (isinstance(value, bool) or not
                                     isinstance(value, numbers.Integral)))
            or value < least or (most is not None and value > most)):
        upper = "" if most is None else f" and <= {most}"
        raise ModelError(f"{name} must be an integer >= {least}{upper}, "
                         f"not {value!r}")


def _row_norms(X: Array) -> Array:
    """Euclidean norm of each row (last axis) of X, any leading axes: the
    square root of the row's dot product, one stacked ``@`` on C-contiguous
    rows.  That is the BLAS ddot ``np.linalg.norm`` takes of a contiguous
    vector, so each norm equals np.linalg.norm of its row bitwise; a
    strided ddot can round differently, hence the copy of other layouts."""
    X = np.ascontiguousarray(X, float)
    return np.sqrt((X[..., None, :] @ X[..., :, None])[..., 0, 0])


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
        _check_count("forecast horizon k", k, 1)
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
        norms = _row_norms(directions)
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
        _check_count("forecast step t", t, 0, self.T)
        _check_count("forecast window end t2", t2, t, min(self.T, t + self.k))
        return self.forecasts[t, :t2 - t + 1]


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
        _check_count("horizon T", T, 2)
        _check_count("state dimension n", n, 1)
        _check_count("action dimension m", m, 1)
        self.n, self.m, self.T = n, m, T
        self._step_data = step_data
        self.terminal = terminal
        self.bounds = bounds
        self.param_box = param_box

    def step_data(self, ts, xis):
        """(A, B, w, Q, R, xbar) of the steps ts at the parameters xis,
        stacked as the class docstring says, as read-only arrays: an array
        the map returns short of its shape is broadcast to it, and one of
        full shape is given as a read-only view, which leaves the map's own
        array writeable at a fraction of the cost of ``np.broadcast_to``."""
        ts = np.asarray(ts)
        n, m = self.n, self.m
        shapes = ((n, n), (n, m), (n,), (n, n), (m, m), (n,))
        data = self._step_data(ts, np.asarray(xis, float))
        return tuple(_read_only(a.view()) if a.shape == ts.shape + s
                     else np.broadcast_to(a, ts.shape + s)
                     for a, s in zip(map(np.asarray, data), shapes))

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
                                       L_R=0.0, L_xbar=0.0, D_xbar=0.0),
            param_box=param_box)


@dataclasses.dataclass(frozen=True, eq=False)
class InventorySystem:
    """Scalar stock-tracking chain: x_{t+1} = x_t + u_t, x in [-1, 1].

    The action bounds are u_lo <= u <= u_hi, one-sided when u_hi is +inf.
    The stage cost of the final state enters the reported objective value
    (``include_terminal_stage``).  ``action_weight`` adds a smooth action
    cost action_weight * u^2 per step (still convex and smooth, strongly
    convex in the state).  Systems are hashed and compared by identity, so
    that ``ftocp`` keeps the backward steps of each system's chain laws
    while the system lives.  The parameter of a step is its target, and the
    parameter box is the state interval [x_lo, x_hi].
    """

    T: int
    targets: Array
    u_lo: float = -0.8
    u_hi: float = 0.8
    x_lo: float = -1.0
    x_hi: float = 1.0
    action_weight: float = 0.0

    include_terminal_stage = True
    n = 1
    m = 1

    def __post_init__(self):
        _check_count("horizon T", self.T, 1)
        targets = np.asarray(self.targets, float)
        if targets.shape[0] != self.T + 1:
            raise ModelError("need one target per step 0..T")
        object.__setattr__(self, "targets", targets)
        if not self.u_lo <= self.u_hi:
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
    ``terminal_param`` are read-only copies too.  The seed, which draws the
    forecast streams of a run, is a nonnegative integer.  Instances are
    hashed and compared by identity: ``dataclasses.replace`` makes a new one.
    """

    system: object
    truth: Array
    x0: Array
    seed: int = 0
    terminal_param: Array | None = None

    def __post_init__(self):
        _check_count("seed", self.seed, 0)
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
# verdicts and assumption validation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Check:
    """One tested inequality ``lhs <= rhs``, entry by entry, with both sides
    read-only float arrays of their broadcast shape.  A lower bound is
    written with its sides swapped, and a fixed slack is part of ``rhs``.
    It holds when every entry does, so a NaN fails; ``margin`` is the least
    ``rhs - lhs`` and ``worst`` the first flat index of the largest
    ``lhs - rhs``."""

    name: str
    lhs: Array
    rhs: Array

    def __post_init__(self):
        sides = np.broadcast_arrays(self.lhs, self.rhs)
        for side, a in zip(("lhs", "rhs"), sides):
            object.__setattr__(self, side, _read_only(np.array(a, float)))

    @property
    def ok(self) -> bool:
        return bool(np.all(self.lhs <= self.rhs))

    @property
    def margin(self) -> float:
        return float(np.min(self.rhs - self.lhs))

    @property
    def worst(self) -> int:
        return int(np.argmax(self.lhs - self.rhs))


def validate_assumptions(system: LinearQuadraticSystem, ts,
                         xis) -> tuple[Check, ...]:
    """Check the declared bounds exactly on given data: the steps ``ts`` (an
    int array of any shape, each in 0..T) at the parameters ``xis`` of shape
    ``ts.shape + (p,)``, such as a run's true parameters and its forecasts.

    The entries with t < T give the stage data (A, B, w, Q, R, xbar) in one
    stacked ``step_data`` call, and those with t = T the terminal weight P_T
    in one ``terminal_cost`` call.  Returns one check per declared bound,
    its worst value on the data against its limit with 1e-9 to spare:
    ``cost_lower`` (mu below the least eigenvalue), ``cost_upper``,
    ``A_bound``, ``B_bound``, ``w_bound`` and ``xbar_bound``.  Steps
    outside 0..T or parameters of another shape raise ModelError.
    """
    ts, xis = np.asarray(ts), np.asarray(xis, float)
    if (xis.shape != ts.shape + system.param_box.lo.shape
            or not np.all((0 <= ts) & (ts <= system.T))):
        raise ModelError("need steps in 0..T, each with one parameter vector")
    bb, stage = system.bounds, ts < system.T
    A, B, w, Q, R, xbar = system.step_data(ts[stage], xis[stage])
    eigs = np.concatenate([np.linalg.eigvalsh(Mx).ravel() for Mx in
                           (Q, R, system.terminal_cost(xis[~stage]).P)])
    tol = 1e-9
    norms = {"A_bound": (np.linalg.norm(A, 2, axis=(-2, -1)), bb.a),
             "B_bound": (np.linalg.norm(B, 2, axis=(-2, -1)), bb.b),
             "w_bound": (_row_norms(w), bb.D_w),
             "xbar_bound": (_row_norms(xbar), bb.D_xbar)}
    return (Check("cost_lower", bb.mu - tol, eigs.min(initial=np.inf)),
            Check("cost_upper", eigs.max(initial=-np.inf), bb.ell + tol),
            *(Check(name, v.max(initial=0.0), limit + tol)
              for name, (v, limit) in norms.items()))


# ---------------------------------------------------------------------------
# configuration hashes
# ---------------------------------------------------------------------------

def config_hash(config: dict) -> str:
    """Stable hash of a JSON-serializable configuration."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]

