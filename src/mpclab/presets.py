"""Ready-made problem instances: randomized tracking, disturbance-only
rotation dynamics, stock chains with alternating targets, the cart-pendulum
linearization, and multi-area frequency regulation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import ftocp
from .model import (Bounds, DisturbanceOnlySystem, Instance, InventorySystem,
                    LinearQuadraticSystem, ParamBox, TerminalCost)

Array = np.ndarray


def _scaled(rng: np.random.Generator, count: int, shape,
            norm: float) -> Array:
    """``count`` normal draws of ``shape``, each scaled to spectral norm
    ``norm``."""
    M = rng.normal(size=(count,) + shape)
    return M * (norm / np.linalg.norm(M, 2, axis=(-2, -1)))[:, None, None]


def _unit_vec(rng: np.random.Generator, d: int) -> Array:
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def _random_spd(rng: np.random.Generator, count: int, d: int, lo: float,
                hi: float) -> Array:
    """``count`` symmetric d x d matrices with eigenvalues drawn from
    [lo, hi]: per matrix, a normal d x d draw for the eigenvectors (the Q
    of its QR factorization), then d uniform eigenvalues."""
    G = np.empty((count, d, d))
    eigs = np.empty((count, d))
    for i in range(count):
        G[i] = rng.normal(size=(d, d))
        eigs[i] = rng.uniform(lo, hi, size=d)
    Qo, _ = np.linalg.qr(G)
    return Qo @ (eigs[:, None, :] * np.eye(d)) @ Qo.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# randomized tracking
# ---------------------------------------------------------------------------

def tracking_rand(T: int = 40, seed: int = 7, n: int = 2,
                  m: int = 1) -> Instance:
    """Random controllable tracking instance: every per-step map depends
    Lipschitz-continuously on a scalar parameter in [0, 1]."""
    rng = np.random.default_rng(seed)
    A0 = _scaled(rng, T, (n, n), 0.8)
    Ad = _scaled(rng, T, (n, n), 1.0)
    B0 = _scaled(rng, T, (n, m), 0.8)
    Bd = _scaled(rng, T, (n, m), 1.0)
    Qs = _random_spd(rng, T, n, 0.5, 2.0)
    Rs = _random_spd(rng, T, m, 0.5, 2.0)
    PT = _random_spd(rng, 1, n, 0.5, 2.0)[0]
    wd = [_unit_vec(rng, n) for _ in range(T)]
    xd = [_unit_vec(rng, n) for _ in range(T)]

    def dev(xi):
        return float(np.atleast_1d(xi)[0]) - 0.5

    system = LinearQuadraticSystem(
        n, m, T,
        A=lambda t, xi: A0[t] + dev(xi) * 0.2 * Ad[t],
        B=lambda t, xi: B0[t] + dev(xi) * 0.2 * Bd[t],
        w=lambda t, xi: dev(xi) * 0.2 * wd[t],
        Q=lambda t, xi: Qs[t], R=lambda t, xi: Rs[t],
        xbar=lambda t, xi: dev(xi) * 0.2 * xd[t],
        P_T=lambda xi: PT, xbar_T=lambda xi: np.zeros(n),
        bounds=Bounds(mu=0.5, ell=2.0, a=1.0, b=1.0, D_w=0.1, D_xbar=0.1,
                      L_A=0.2, L_B=0.2, L_xbar=0.2, L_w=0.2),
        param_box=ParamBox(np.array([0.0]), np.array([1.0])))
    truth = rng.uniform(0.0, 1.0, size=(T + 1, 1))
    x0 = 0.3 * _unit_vec(rng, n)
    return Instance(system, truth, x0, name="tracking-rand", seed=seed)


# ---------------------------------------------------------------------------
# disturbance-only rotation dynamics
# ---------------------------------------------------------------------------

def disturbance(T: int = 60, seed: int = 0) -> Instance:
    """Known stable rotation dynamics; only the additive disturbance is
    forecast (scalar parameter in [0, 1])."""
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=T)
    As = [0.7 * np.array([[np.cos(th), -np.sin(th)],
                          [np.sin(th), np.cos(th)]]) for th in thetas]
    dirs = [_unit_vec(rng, 2) for _ in range(T)]
    eye2 = np.eye(2)

    def dev(xi):
        return float(np.atleast_1d(xi)[0]) - 0.5

    system = DisturbanceOnlySystem(
        2, 2, T,
        A=lambda t: As[t], B=lambda t: eye2,
        w=lambda t, xi: dev(xi) * 0.4 * dirs[t],
        Q=lambda t: eye2, R=lambda t: eye2, P_T=lambda: eye2,
        bounds=Bounds(mu=1.0, ell=1.0, a=0.7, b=1.0, D_w=0.2, L_w=0.4),
        param_box=ParamBox(np.array([0.0]), np.array([1.0])))
    truth = rng.uniform(0.0, 1.0, size=(T + 1, 1))
    return Instance(system, truth, np.zeros(2), name="disturbance", seed=seed)


# ---------------------------------------------------------------------------
# stock chains
# ---------------------------------------------------------------------------

def _alternating_targets(T: int) -> Array:
    return np.array([4.0 / 5.0 if t % 2 else -4.0 / 5.0
                     for t in range(T + 1)])


def _inventory_instance(T: int, u_hi: float | None, name: str,
                        seed: int) -> Instance:
    targets = _alternating_targets(T)
    system = InventorySystem(T=T, targets=targets, u_lo=-0.8, u_hi=u_hi)
    terminal = np.array([2.0 / 5.0 if T % 2 else -2.0 / 5.0])
    return Instance(system, targets[:, None], np.zeros(1), name=name,
                    seed=seed, terminal_param=terminal)


def inventory_two_sided(T: int = 8, seed: int = 0) -> Instance:
    return _inventory_instance(T, 0.8, "inventory-two-sided", seed)


def inventory_one_sided(T: int = 12, seed: int = 0) -> Instance:
    return _inventory_instance(T, None, "inventory-one-sided", seed)


# ---------------------------------------------------------------------------
# cart-pendulum linearization
# ---------------------------------------------------------------------------

PENDULUM_DEFAULTS = dict(m=0.2, l=0.3, I=0.006, b=0.1, g=9.8, delta=0.02)


def pendulum_matrices(M: float, *, m: float, l: float, I: float, b: float,
                      g: float, delta: float) -> tuple[Array, Array]:
    """Discretized linearization around the upright equilibrium; the cart
    mass M is the uncertain parameter."""
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


def _norm_bounds_over_box(mat_fn, box: ParamBox, grid: int = 50):
    """(max matrix norm, max difference-quotient norm) over a parameter grid."""
    xs = np.linspace(float(box.lo[0]), float(box.hi[0]), grid)
    mats = [mat_fn(np.array([x])) for x in xs]
    a = max(float(np.linalg.norm(Mx, 2)) for Mx in mats)
    lip = 0.0
    for i in range(grid - 1):
        step = xs[i + 1] - xs[i]
        if step > 0.0:
            lip = max(lip,
                      float(np.linalg.norm(mats[i + 1] - mats[i], 2)) / step)
    return a, lip


def _parametric_system(matrices, n: int, m: int, T: int,
                       box: ParamBox) -> LinearQuadraticSystem:
    """Regulation to the origin with identity costs, where the scalar
    parameter enters the dynamics through ``matrices(xi) -> (A, B)``; the
    declared bounds on A and B are measured over the box."""

    def Afn(xi):
        return matrices(float(np.atleast_1d(xi)[0]))[0]

    def Bfn(xi):
        return matrices(float(np.atleast_1d(xi)[0]))[1]

    a, L_A = _norm_bounds_over_box(Afn, box)
    b, L_B = _norm_bounds_over_box(Bfn, box)
    eye = np.eye(n)
    return LinearQuadraticSystem(
        n, m, T,
        A=lambda t, xi: Afn(xi), B=lambda t, xi: Bfn(xi),
        w=lambda t, xi: np.zeros(n),
        Q=lambda t, xi: eye, R=lambda t, xi: np.eye(m),
        xbar=lambda t, xi: np.zeros(n),
        P_T=lambda xi: eye, xbar_T=lambda xi: np.zeros(n),
        bounds=Bounds(mu=1.0, ell=1.0, a=a, b=b, L_A=L_A, L_B=L_B),
        param_box=box)


def pendulum_system(M_lo: float = 0.4, M_hi: float = 0.6, T: int = 30,
                    **phys) -> LinearQuadraticSystem:
    p = {**PENDULUM_DEFAULTS, **phys}
    return _parametric_system(lambda M: pendulum_matrices(M, **p), 4, 1, T,
                              ParamBox(np.array([M_lo]), np.array([M_hi])))


def pendulum(T: int = 30, seed: int = 0, M: float = 0.5) -> Instance:
    system = pendulum_system(T=T)
    truth = np.full((T + 1, 1), M)
    x0 = np.array([0.1, 0.0, 0.05, 0.0])
    return Instance(system, truth, x0, name="pendulum", seed=seed)


# ---------------------------------------------------------------------------
# frequency regulation on a network
# ---------------------------------------------------------------------------

def path_laplacian(n: int) -> Array:
    L = np.zeros((n, n))
    for i in range(n - 1):
        L[i, i] += 1.0
        L[i + 1, i + 1] += 1.0
        L[i, i + 1] -= 1.0
        L[i + 1, i] -= 1.0
    return L


GRID_DEFAULTS = dict(n_nodes=3, delta=0.1, m_lo=1.0, m_hi=2.0)


def grid_matrices(m_val: float, *, L: Array, D: Array,
                  delta: float) -> tuple[Array, Array]:
    """Swing-equation discretization; the shared inertia m is the parameter."""
    n = L.shape[0]
    Ahat = np.zeros((2 * n, 2 * n))
    Ahat[:n, n:] = np.eye(n)
    Ahat[n:] = np.hstack([-L / m_val, -D / m_val])
    Bhat = np.vstack([np.zeros((n, n)), np.eye(n) / m_val])
    return np.eye(2 * n) + delta * Ahat, delta * Bhat


def grid_system(n_nodes: int = 3, delta: float = 0.1, m_lo: float = 1.0,
                m_hi: float = 2.0, T: int = 30) -> LinearQuadraticSystem:
    L = path_laplacian(n_nodes)
    D = np.eye(n_nodes)
    return _parametric_system(
        lambda m_val: grid_matrices(m_val, L=L, D=D, delta=delta),
        2 * n_nodes, n_nodes, T, ParamBox(np.array([m_lo]), np.array([m_hi])))


def grid(T: int = 30, seed: int = 0, n_nodes: int = 3) -> Instance:
    system = grid_system(n_nodes=n_nodes, T=T)
    rng = np.random.default_rng(seed)
    truth = rng.uniform(GRID_DEFAULTS["m_lo"], GRID_DEFAULTS["m_hi"],
                        size=(T + 1, 1))
    x0 = np.zeros(2 * n_nodes)
    x0[:n_nodes] = 0.1
    return Instance(system, truth, x0, name="grid", seed=seed)


# ---------------------------------------------------------------------------
# stock-chain studies
# ---------------------------------------------------------------------------

def _chain_window(p: int, u_hi: float | None):
    targets = _alternating_targets(p)
    system = InventorySystem(T=p, targets=targets, u_lo=-0.8, u_hi=u_hi)
    params = [np.array([v]) for v in targets]
    return system, params


def two_sided_closed_form(p: int, eps: float) -> Array:
    """Optimal interior/terminal states of the alternating two-sided chain
    with the perturbed terminal pin: 2/5 + eps at odd steps, -2/5 + eps at
    even steps (steps 1..p)."""
    return np.array([2.0 / 5.0 + eps if h % 2 else -2.0 / 5.0 + eps
                     for h in range(1, p + 1)])


@dataclasses.dataclass(frozen=True)
class SuiteRow:
    p: int
    eps: float
    h: int
    diff: float
    diff_minus_eps: float
    closed_form_err: float


def inventory_counterexample_suite(ps=(4, 5, 6, 7, 8),
                                   eps_values=None) -> list[SuiteRow]:
    """Terminal-pin perturbation study on the two-sided alternating chain.

    For each length p the terminal pin moves from its base value (-2/5 for
    even p, +2/5 for odd p) by eps; the per-step response is recorded along
    with the distance to the alternating closed form.
    """
    rows = []
    for idx, p in enumerate(ps):
        base = -2.0 / 5.0 if p % 2 == 0 else 2.0 / 5.0
        if eps_values is None:
            eps = 2.0 / (5.0 * (p - 1)) if p % 2 == 0 else 2.0 / (5.0 * p)
        elif np.ndim(eps_values) == 0:
            eps = float(eps_values)
        else:
            eps = float(eps_values[idx])
        system, params = _chain_window(p, u_hi=0.8)
        sol0, sol1 = (
            ftocp.window_law(system, params, TerminalCost.indicator([pin]))
            .solution(0, np.zeros(1)) for pin in (base, base + eps))
        closed = two_sided_closed_form(p, eps)
        for h in range(1, p + 1):
            diff = abs(float(sol1.states[h, 0]) - float(sol0.states[h, 0]))
            cerr = abs(float(sol1.states[h, 0]) - closed[h - 1])
            rows.append(SuiteRow(p, eps, h, diff, diff - eps, cerr))
    return rows


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

PRESETS = {
    "tracking-rand": tracking_rand,
    "disturbance": disturbance,
    "inventory-two-sided": inventory_two_sided,
    "inventory-one-sided": inventory_one_sided,
    "pendulum": pendulum,
    "grid": grid,
}


def build_preset(name: str, T: int | None = None,
                 seed: int | None = None) -> Instance:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; "
                       f"available: {sorted(PRESETS)}")
    kwargs = {}
    if T is not None:
        kwargs["T"] = T
    if seed is not None:
        kwargs["seed"] = seed
    return PRESETS[name](**kwargs)
