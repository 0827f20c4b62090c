"""Saddle-point assembly for windowed linear-quadratic problems.

Builds the cost block M, the dynamics block N, and the per-step permutation
that turns the saddle matrix H = [[M, N'], [N, 0]] into a block-tridiagonal
matrix Upsilon.  Neither H nor Upsilon is formed here: ``kkt`` reads the
blocks of Upsilon from M, N and the permutation, and the dense matrices are
the test suite's reference.  The assembly is analysed, not solved: the
inverse block-decay profile and the spectrum of N are read from it, while
windows are solved by the backward Riccati pass in ``ftocp``.  Two variants:

- "full": variables (y_0, v_0, ..., v_{K-1}, y_K) with a quadratic (possibly
  zero) terminal cost; constraints pin y_0 and propagate the dynamics.
- "hat": the final state is pinned to a target and eliminated; N drops its
  last column block.  The last permuted block is the final multiplier alone.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import TerminalCost

Array = np.ndarray


@dataclasses.dataclass
class WindowMatrices:
    """Per-step data of a window of length K (steps t1 .. t1+K-1), stacked:
    A (K, n, n), B (K, n, m), w (K, n), Q (K, n, n), R (K, m, m),
    xbar (K, n).  A batch of windows puts a window axis in front of every
    array, its terminal's arrays included.  The arrays are those of the
    system's ``step_data`` and may be read-only broadcast views."""

    A: Array
    B: Array
    w: Array
    Q: Array
    R: Array
    xbar: Array
    terminal: TerminalCost
    n: int
    m: int

    @classmethod
    def stack(cls, system, steps: Array, params: Array,
              terminal: TerminalCost) -> "WindowMatrices":
        """Step data of every entry of ``steps``, on the parameter of the
        same index in ``params``; each array carries the shape of ``steps``
        in front.  One stacked ``system.step_data`` call."""
        return cls(*system.step_data(steps, params), terminal, system.n,
                   system.m)

    @property
    def K(self) -> int:
        return self.A.shape[-3]

    def window(self, i: int) -> "WindowMatrices":
        """Window i of a batch."""
        term = self.terminal
        return WindowMatrices(
            self.A[i], self.B[i], self.w[i], self.Q[i], self.R[i],
            self.xbar[i],
            TerminalCost(term.kind, *(None if a is None else a[i]
                                      for a in (term.P, term.xbar,
                                                term.target))),
            self.n, self.m)


@dataclasses.dataclass
class KktAssembly:
    variant: str
    M: Array
    N: Array
    perm: Array
    block_slices: list
    n: int
    m: int
    K: int


def assemble_window(wm: WindowMatrices) -> KktAssembly:
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

    return KktAssembly("hat" if hat else "full", M, N, np.array(perm),
                       block_slices, n, m, K)
