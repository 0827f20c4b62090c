"""Ready-made problem instances: randomized tracking, disturbance-only
rotation dynamics, stock chains with alternating targets, the cart-pendulum
linearization, and multi-area frequency regulation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import ftocp
from .model import (Bounds, DisturbanceOnlySystem, Instance, InventorySystem,
                    LinearQuadraticSystem, ModelError, ParamBox, TerminalCost,
                    _check_count, _row_norms)

Array = np.ndarray


def _rng(seed) -> np.random.Generator:
    """The generator of a preset's draws, from a checked seed: the draws
    come before the preset's instance checks the seed itself."""
    _check_count("seed", seed, 0)
    return np.random.default_rng(seed)


def _scaled(rng: np.random.Generator, count: int, shape,
            norm: float) -> Array:
    """``count`` normal draws of ``shape``, each scaled to spectral norm
    ``norm``."""
    M = rng.normal(size=(count,) + shape)
    return M * (norm / np.linalg.norm(M, 2, axis=(-2, -1)))[:, None, None]


def _unit_vecs(rng: np.random.Generator, count: int, d: int) -> Array:
    """``count`` unit vectors of dimension d, as rows: one normal draw of
    shape (count, d), which reads the generator as ``count`` draws of d
    would, each row divided by its norm (bitwise that of
    ``np.linalg.norm``, see ``_row_norms``)."""
    V = rng.normal(size=(count, d))
    return V / _row_norms(V)[:, None]


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
    Lipschitz-continuously on a scalar parameter in [0, 1].  The system is
    built before the draws its maps read, so that one without a state or an
    action is rejected before any draw divides by a zero norm."""
    def step_data(ts, xis):
        dev = xis[..., 0, None] - 0.5
        return (A0[ts] + dev[..., None] * 0.2 * Ad[ts],
                B0[ts] + dev[..., None] * 0.2 * Bd[ts],
                dev * 0.2 * wd[ts], Qs[ts], Rs[ts], dev * 0.2 * xd[ts])

    system = LinearQuadraticSystem(
        n, m, T, step_data=step_data,
        terminal=lambda xi: (PT, np.zeros(n)),
        bounds=Bounds(mu=0.5, ell=2.0, a=1.0, b=1.0, D_w=0.1, D_xbar=0.1,
                      L_A=0.2, L_B=0.2, L_xbar=0.2, L_w=0.2),
        param_box=ParamBox(np.array([0.0]), np.array([1.0])))
    rng = _rng(seed)
    A0 = _scaled(rng, T, (n, n), 0.8)
    Ad = _scaled(rng, T, (n, n), 1.0)
    B0 = _scaled(rng, T, (n, m), 0.8)
    Bd = _scaled(rng, T, (n, m), 1.0)
    Qs = _random_spd(rng, T, n, 0.5, 2.0)
    Rs = _random_spd(rng, T, m, 0.5, 2.0)
    PT = _random_spd(rng, 1, n, 0.5, 2.0)[0]
    wd = _unit_vecs(rng, T, n)
    xd = _unit_vecs(rng, T, n)
    truth = rng.uniform(0.0, 1.0, size=(T + 1, 1))
    x0 = 0.3 * _unit_vecs(rng, 1, n)[0]
    return Instance(system, truth, x0, seed=seed)


# ---------------------------------------------------------------------------
# disturbance-only rotation dynamics
# ---------------------------------------------------------------------------

def disturbance(T: int = 60, seed: int = 0) -> Instance:
    """Known stable rotation dynamics; only the additive disturbance is
    forecast (scalar parameter in [0, 1])."""
    rng = _rng(seed)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=T)
    As = np.array([0.7 * np.array([[np.cos(th), -np.sin(th)],
                                   [np.sin(th), np.cos(th)]])
                   for th in thetas])
    dirs = _unit_vecs(rng, T, 2)
    eye2 = np.broadcast_to(np.eye(2), (T, 2, 2))

    system = DisturbanceOnlySystem(
        2, 2, T, A=As, B=eye2,
        w=lambda ts, xis: (xis[..., 0, None] - 0.5) * 0.4 * dirs[ts],
        Q=eye2, R=eye2, P_T=np.eye(2),
        bounds=Bounds(mu=1.0, ell=1.0, a=0.7, b=1.0, D_w=0.2, L_w=0.4),
        param_box=ParamBox(np.array([0.0]), np.array([1.0])))
    truth = rng.uniform(0.0, 1.0, size=(T + 1, 1))
    return Instance(system, truth, np.zeros(2), seed=seed)


# ---------------------------------------------------------------------------
# stock chains
# ---------------------------------------------------------------------------

def _inventory_instance(T: int, u_hi: float, seed: int) -> Instance:
    targets = np.array([4.0 / 5.0 if t % 2 else -4.0 / 5.0
                        for t in range(T + 1)])
    system = InventorySystem(T=T, targets=targets, u_lo=-0.8, u_hi=u_hi)
    terminal = np.array([2.0 / 5.0 if T % 2 else -2.0 / 5.0])
    return Instance(system, targets[:, None], np.zeros(1), seed=seed,
                    terminal_param=terminal)


def inventory_two_sided(T: int = 8, seed: int = 0) -> Instance:
    return _inventory_instance(T, 0.8, seed)


def inventory_one_sided(T: int = 12, seed: int = 0) -> Instance:
    return _inventory_instance(T, np.inf, seed)


# ---------------------------------------------------------------------------
# cart-pendulum linearization
# ---------------------------------------------------------------------------

PENDULUM_DEFAULTS = dict(m=0.2, l=0.3, I=0.006, b=0.1, g=9.8, delta=0.02)


def pendulum_matrices(M, *, m: float, l: float, I: float, b: float,
                      g: float, delta: float) -> tuple[Array, Array]:
    """Discretized linearization around the upright equilibrium; the cart
    mass M is the uncertain parameter.  An array of masses gives the
    matrices stacked with M's shape in front."""
    M = np.asarray(M, float)
    den = I * (M + m) + M * m * l ** 2
    A = np.zeros(M.shape + (4, 4))
    A[..., 0, 0] = A[..., 2, 2] = A[..., 3, 3] = 1.0
    A[..., 0, 1] = A[..., 2, 3] = delta
    A[..., 1, 1] = 1.0 - (I + m * l ** 2) * b * delta / den
    A[..., 1, 2] = m ** 2 * g * l ** 2 * delta / den
    A[..., 3, 1] = -m * l * b * delta / den
    A[..., 3, 2] = m * g * l * (M + m) * delta / den
    B = np.zeros(M.shape + (4, 1))
    B[..., 1, 0] = (I + m * l ** 2) * delta / den
    B[..., 3, 0] = m * l * delta / den
    return A, B


def _norm_bounds_over_box(mats: Array, xs: Array) -> tuple[float, float]:
    """(max matrix norm, max difference-quotient norm) of matrices stacked
    over an increasing parameter grid xs."""
    norms = np.linalg.norm(mats, 2, axis=(-2, -1))
    steps = np.diff(xs)
    quotients = np.linalg.norm(np.diff(mats, axis=0), 2, axis=(-2, -1))
    return (float(norms.max()),
            float(np.max(quotients[steps > 0.0] / steps[steps > 0.0],
                         initial=0.0)))


def _parametric_system(matrices, n: int, m: int, T: int,
                       box: ParamBox) -> LinearQuadraticSystem:
    """Regulation to the origin with identity costs, where the scalar
    parameter enters the dynamics through ``matrices(xi) -> (A, B)``, which
    broadcasts over an array of parameters; the declared bounds on A and B
    are measured over a grid of 50 points of the box."""
    xs = np.linspace(float(box.lo[0]), float(box.hi[0]), 50)
    As, Bs = matrices(xs)
    a, L_A = _norm_bounds_over_box(As, xs)
    b, L_B = _norm_bounds_over_box(Bs, xs)
    eye = np.eye(n)
    return LinearQuadraticSystem(
        n, m, T,
        step_data=lambda ts, xis: (*matrices(xis[..., 0]), np.zeros(n), eye,
                                   np.eye(m), np.zeros(n)),
        terminal=lambda xi: (eye, np.zeros(n)),
        bounds=Bounds(mu=1.0, ell=1.0, a=a, b=b, L_A=L_A, L_B=L_B),
        param_box=box)


def pendulum(T: int = 30, seed: int = 0, M: float = 0.5) -> Instance:
    """The cart mass is the parameter, over the box [0.4, 0.6]; the truth
    is M at every step."""
    system = _parametric_system(
        lambda mass: pendulum_matrices(mass, **PENDULUM_DEFAULTS), 4, 1, T,
        ParamBox(np.array([0.4]), np.array([0.6])))
    truth = np.full((T + 1, 1), M)
    x0 = np.array([0.1, 0.0, 0.05, 0.0])
    return Instance(system, truth, x0, seed=seed)


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


def grid_matrices(m_val, *, L: Array, D: Array,
                  delta: float) -> tuple[Array, Array]:
    """Swing-equation discretization; the shared inertia m is the parameter.
    An array of inertias gives the matrices stacked with its shape in
    front."""
    n = L.shape[0]
    m_val = np.asarray(m_val, float)[..., None, None]
    Ahat = np.zeros(m_val.shape[:-2] + (2 * n, 2 * n))
    Ahat[..., :n, n:] = np.eye(n)
    Ahat[..., n:, :n] = -L / m_val
    Ahat[..., n:, n:] = -D / m_val
    Bhat = np.zeros(m_val.shape[:-2] + (2 * n, n))
    Bhat[..., n:, :] = np.eye(n) / m_val
    return np.eye(2 * n) + delta * Ahat, delta * Bhat


def grid(T: int = 30, seed: int = 0,
         n_nodes: int = GRID_DEFAULTS["n_nodes"]) -> Instance:
    """The shared inertia is the parameter, over GRID_DEFAULTS' box
    [m_lo, m_hi]; the truth is drawn uniformly over it from the seed."""
    d = GRID_DEFAULTS
    L, D = path_laplacian(n_nodes), np.eye(n_nodes)
    system = _parametric_system(
        lambda m_val: grid_matrices(m_val, L=L, D=D, delta=d["delta"]),
        2 * n_nodes, n_nodes, T,
        ParamBox(np.array([d["m_lo"]]), np.array([d["m_hi"]])))
    rng = _rng(seed)
    truth = rng.uniform(system.param_box.lo, system.param_box.hi,
                        size=(T + 1, 1))
    x0 = np.zeros(2 * n_nodes)
    x0[:n_nodes] = 0.1
    return Instance(system, truth, x0, seed=seed)


# ---------------------------------------------------------------------------
# stock-chain studies
# ---------------------------------------------------------------------------

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
                                   eps=None) -> list[SuiteRow]:
    """Terminal-pin perturbation study on the two-sided alternating chain.

    For each length p the terminal pin moves from its base value (-2/5 for
    even p, +2/5 for odd p) by eps, or when eps is None by 2/(5(p - 1)) for
    even p and 2/(5p) for odd p; the per-step response is recorded along
    with the distance to the alternating closed form.  Raises ModelError
    for an eps whose pin the chain cannot reach from 0, naming the
    admissible interval [max(x_lo, p u_lo), min(x_hi, p u_hi)] - base.
    """
    rows = []
    for p in ps:
        inst = inventory_two_sided(T=p)
        system, base = inst.system, float(inst.terminal_param[0])
        eps_p = 2.0 / (5.0 * (p - 1)) if p % 2 == 0 else 2.0 / (5.0 * p)
        eps_p = eps_p if eps is None else float(eps)
        lo = max(system.x_lo, p * system.u_lo) - base
        hi = min(system.x_hi, p * system.u_hi) - base
        if not lo <= eps_p <= hi:
            raise ModelError(f"eps = {eps_p:.6g} moves the pin of p = {p} out "
                             f"of reach: need {lo:.6g} <= eps <= {hi:.6g}")
        sol0, sol1 = (
            ftocp.window_law(system, inst.truth, TerminalCost.indicator([pin]))
            .solution(np.zeros(1)) for pin in (base, base + eps_p))
        closed = two_sided_closed_form(p, eps_p)
        for h in range(1, p + 1):
            diff = abs(float(sol1.states[h, 0]) - float(sol0.states[h, 0]))
            cerr = abs(float(sol1.states[h, 0]) - closed[h - 1])
            rows.append(SuiteRow(p, eps_p, h, diff, diff - eps_p, cerr))
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


def build_instance(desc: dict, T: int | None = None,
                   seed: int | None = None) -> Instance:
    """Construct an instance from a description dict (or file contents):
    ``desc["kind"]`` names the preset and the other keys are its arguments.
    T and seed override the description when given."""
    desc = dict(desc)
    if T is not None:
        desc["T"] = T
    if seed is not None:
        desc["seed"] = seed
    kind = desc.pop("kind", None)
    if kind not in PRESETS:
        raise ModelError(f"unknown instance kind {kind!r}; "
                         f"available: {sorted(PRESETS)}")
    return PRESETS[kind](**desc)


def build_preset(name: str, T: int | None = None,
                 seed: int | None = None) -> Instance:
    return build_instance({"kind": name}, T, seed)
