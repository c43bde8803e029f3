"""Reference survival loops: one Python step per generation.

These are the generation-by-generation recursions that ``evolution.survival_prob``
replaced with blocked kernels. They stay here, unchanged, as oracles for
those kernels.
"""

import math

import numpy as np

from lfbp.recursions import SCALE_TOP, renewal
from lfbp.typespace import FAMILY_FINITE


def survival_prob_loop(triplet, x, n: int) -> float:
    """P_x(Z_n > 0) = M^n(x, E)/(1 + m_n), one generation per step.

    Running sums are rescaled by exact powers of two as in ``renewal``, so
    growth rho^n or a huge m never overflows. Exponential family:
    M^n(x, E) = c_n e^{-nx} + m sum_{i=1..n} c_i e^{-ix} g_{n-i}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    t = triplet
    if t.family == FAMILY_FINITE:
        x = t.validate_point(x)
        M, gam = t.M, t.gamma_vector
        # one step multiplies the entries by at most the largest row sum of M
        top = SCALE_TOP / max(1.0, t.m, float(M.sum(axis=1).max()))
        w = np.ones(t.d)
        acc = 1.0                       # sum_{k<n} gamma M^k 1, rescaled
        scale = 1.0
        for _ in range(n - 1):
            w = M @ w
            acc += float(gam @ w)
            if (big := max(acc, float(w.max()))) > top:
                f = math.ldexp(1.0, -math.frexp(big)[1])
                w *= f
                acc *= f
                scale *= f
        w = M @ w
        return float(w[x] / (scale + t.m * acc))
    x = float(t.validate_point(x))
    c = t.c_sequence(n)
    d = t.d_sequence(n)
    g, scale = renewal(t.m * d[1:n], d[:n], n - 1)
    e = c * np.exp(-np.arange(n + 1) * x)
    mn_mass = e[n] * scale + t.m * float(e[1:] @ g[::-1])
    return float(mn_mass / (scale + t.m * float(g.sum())))
