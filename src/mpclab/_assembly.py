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
    system's ``step_data``, ``WindowMatrices(*system.step_data(steps,
    params), terminal)``, and may be read-only broadcast views; K, n and m
    are read off their shapes."""

    A: Array
    B: Array
    w: Array
    Q: Array
    R: Array
    xbar: Array
    terminal: TerminalCost

    K = property(lambda self: self.A.shape[-3])
    n = property(lambda self: self.A.shape[-1])
    m = property(lambda self: self.B.shape[-1])
