"""Reference computations the library is tested against.

The loops are the generation-by-generation recursions that
``evolution.survival_prob`` and ``evolution.GenerationLaw`` replaced with
blocked kernels and powers of the augmented mean matrix; they stay here,
unchanged, as oracles for those kernels. ``gen_functional_iterated`` and
``power_iteration`` are independent oracles for the functional's closed form
and for the Perron root 1/R.
"""

import math

import numpy as np

from lfbp.measures import as_finite_vector
from lfbp.recursions import SCALE_TOP, renewal
from lfbp.typespace import FAMILY_FINITE, FiniteTriplet


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


def generation_law_loop(triplet, n: int):
    """(m_n, gamma_n, M^n, K_n) of a finite triplet, one generation per step.

    Steps gamma M^k for k < n and keeps every row; M^n is
    ``np.linalg.matrix_power``. When m_n overflows, only m_n = inf is
    returned, with None for the rest.
    """
    t = triplet
    M = t.M
    rows = [t.gamma_vector.copy()]           # gamma M^k, k = 0..n-1
    with np.errstate(over="ignore"):
        for _ in range(n - 1):
            rows.append(rows[-1] @ M)
        gks = np.array([r.sum() for r in rows])  # g_k
        m_n = float(t.m * gks.sum())
    if not math.isfinite(m_n):
        return m_n, None, None, None
    # a g_k that underflowed to 0 carries weight 0
    gamma_n = sum(w * (r / g) for w, r, g in zip(t.m * gks / m_n, rows, gks) if g)
    Mn = np.linalg.matrix_power(M, n)
    frac = m_n / (1.0 + m_n)
    Kn = Mn - frac * np.outer(Mn @ np.ones(t.d), gamma_n)
    return m_n, gamma_n, Mn, Kn


def gen_functional_iterated(triplet: FiniteTriplet, x, n: int, h) -> float:
    """Independent oracle: iterate the one-step functional n times.

    F_1(x, h) = 1 - K(x, E) + (K h)(x)/(1 + m - m gamma(h)); branching makes
    F_{a+b} = F_a(., F_b(., h)), so n-fold self-composition of F_1 must equal
    the closed form. Finite family only (h is a length-d array).
    """
    if triplet.family != FAMILY_FINITE:
        raise ValueError("the iterated oracle is defined for the finite family")
    K, gam, m = triplet.K, triplet.gamma_vector, triplet.m
    kmass = K @ np.ones(triplet.d)
    hv = as_finite_vector(h, triplet.d).astype(float).copy()
    for _ in range(n):
        denom = 1.0 + m - m * float(gam @ hv)
        hv = 1.0 - kmass + (K @ hv) / denom
    return float(hv[triplet.validate_point(x)])


def power_iteration(A: np.ndarray, tol: float = 1e-13, max_iter: int = 50000):
    """Perron root and vector of a nonnegative square matrix.

    Iterates on A + I (positive diagonal removes periodicity) with a positive
    start and subtracts the shift from the Rayleigh quotient. Returns
    (rho, vector, residual, iterations).
    """
    d = A.shape[0]
    if d == 0:
        return 0.0, np.array([]), 0.0, 0
    B = A + np.eye(d)
    v = np.full(d, 1.0 / math.sqrt(d))
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = B @ v
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return 0.0, v, 0.0, it
        v_new = w / norm
        lam = float(v_new @ (B @ v_new))
        resid = float(np.linalg.norm(B @ v_new - lam * v_new))
        v = v_new
        if resid <= tol * max(1.0, abs(lam)):
            return lam - 1.0, v, resid, it
    return lam - 1.0, v, resid, max_iter
