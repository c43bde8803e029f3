"""The renewal recursion c_j = b_j + sum_{k=1..min(j,p)} a_k c_{j-k}, j = 0..n.

It is the one solver behind the exact generation laws. With d_j the
gamma-averaged bare-kernel masses and m the litter mean, a = m d and b = (1)
give h, the coefficients of 1/(1 - m f(s)); b = d gives g, g_j the expected
generation-j size started from gamma. ``lfbp renewal`` solves it for a
probability vector a.

A supercritical sequence grows like rho^j, so when an entry passes
2^512 / max(1, sum |a|) the solver multiplies the prefix and a running scale
by the power of two that brings it below 1; the next step cannot overflow.
When sum |a| itself overflows, len(a) 2^e bounds it (max |a| < 2^e): the
bound is then 2^1022 / (len(a) 2^e) < 1, and rescaled entries land below it.
Multiplying by a power of two is exact in binary floating point, so every
product and sum is the unscaled one times scale, rounded the same way: while
scale is a normal float, c is bit for bit scale times the unbounded result.
"""

from __future__ import annotations

import math

import numpy as np

SCALE_TOP = 2.0 ** 512


def renewal(a, b, n: int) -> tuple[np.ndarray, float]:
    """(scale c_0..scale c_n, scale) for a_1..a_p and b_0..b_q (b_j = 0 past q).

    scale is 1.0 until an entry passes the bound, and may underflow to 0.0.
    c is kept newest first and a is read through a negative-stride view,
    which numpy never hands to BLAS: each step's dot is summed in order,
    a_1 c_{j-1} first, so the bits do not depend on the BLAS build.
    """
    a = np.asarray(a, dtype=float)[::-1].copy()[::-1]
    b = np.asarray(b, dtype=float)[: n + 1].tolist()
    p, q = len(a), len(b)
    unit = 1.0                          # rescaled entries land below this
    with np.errstate(over="ignore"):
        top = SCALE_TOP / max(1.0, float(np.abs(a).sum()))
    if top == 0.0:      # sum |a| overflowed; it is below len(a) 2^e for max |a| < 2^e
        top = unit = math.ldexp(1.0, 1022 - math.frexp(np.abs(a).max())[1] - p.bit_length())
    rev = np.zeros(n + 1)               # rev[n - j] = c_j
    scale = 1.0
    for j in range(n + 1):
        i = n - j + 1
        k = min(j, p)
        v = float(a[:k] @ rev[i: i + k])
        if j < q:
            v += b[j] * scale
        if abs(v) > top:
            f = math.ldexp(unit, -math.frexp(v)[1])
            rev[i:] *= f
            v *= f
            scale *= f
        rev[i - 1] = v
    return rev[::-1], scale
