"""Convolution recursions shared by the evolution and spectral machinery.

With d_j the gamma-averaged bare-kernel masses and m the litter mean, the
gamma-averaged mean-kernel masses g_j and the renewal coefficients h_j obey

    g_j = d_j + m * sum_{i=1..j} d_i g_{j-i},      g_0 = 1
    h_j = m * sum_{i=1..j} d_i h_{j-i},            h_0 = 1

g_j equals the expected generation-j size started from gamma; h is the
renewal expansion of 1/(1 - m f(s)) and flattens nested gamma-restart
mixtures into single-stage component weights.
"""

from __future__ import annotations

import numpy as np


def g_sequence(d: np.ndarray, m: float) -> np.ndarray:
    """g_0..g_n for d = [d_0..d_n] (d_0 = 1 by convention)."""
    n = len(d) - 1
    g = np.empty(n + 1)
    g[0] = 1.0
    for j in range(1, n + 1):
        acc = d[j]
        for i in range(1, j + 1):
            acc += m * d[i] * g[j - i]
        g[j] = acc
    return g


def h_sequence(d: np.ndarray, m: float) -> np.ndarray:
    """h_0..h_n, the coefficients of 1/(1 - m f(s))."""
    n = len(d) - 1
    h = np.empty(n + 1)
    h[0] = 1.0
    for j in range(1, n + 1):
        acc = 0.0
        for i in range(1, j + 1):
            acc += m * d[i] * h[j - i]
        h[j] = acc
    return h

