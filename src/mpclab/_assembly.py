"""Stacked per-step data of windowed linear-quadratic problems.

``WindowMatrices`` holds the step data of a window, or of a batch of
windows, as the system's ``step_data`` returns it.  The backward Riccati
pass in ``ftocp`` solves windows from it, and ``kkt`` reads the blocks of
the permuted saddle matrix straight from it.
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
