"""Exact n-generation laws: the evolved triplet (m_n, gamma_n, K_n).

Generation n of a linear-fractional process is itself linear-fractional, for
the triplet

    m_n       = m sum_{k<n} integral M^k(x, E) gamma(dx),
    gamma_n   = (m/m_n) sum_{k<n} integral M^k(x, .) gamma(dx),
    K_n(x, A) = M^n(x, A) - (m_n/(1+m_n)) M^n(x, E) gamma_n(A),

so P_x(Z_n > 0) = K_n(x, E) = M^n(x, E)/(1+m_n) and, given survival, Z_n is
1 + geometric(m_n) with the marked individual drawn from K_n(x, .)/K_n(x, E)
and the others i.i.d. gamma_n.

Finite family: gamma_n, M^n(x, .) and K_n(x, .) are ``VectorMeasure`` rows.
Continuous family: G_k(.) = integral M^k(y, .) gamma(dy) splits exactly
over the number r of marked steps since the last restart,

    G_k = sum_{r<=k} h_{k-r} Q_r,    Q_r(.) = integral K^r(y, .) gamma(dy),

with h the renewal expansion of 1/(1 - m f(s)) (``recursions.renewal``) and
Q_r/d_r the hypoexponential law Exp(mu+r) + chain(lambda, r). Collapsing
over k, m_n = m sum_{r<n} H_{n-1-r} d_r with H_t = sum_{j<=t} h_j, and
gamma_n is the ``MixtureMeasure`` sum_r W_r Q_r/d_r with W_r proportional to
H_{n-1-r} d_r. M^n(x, .) adds the no-restart term
c_n e^{-nx} Law(x + chain(lambda, n)) to the same components, and K_n(x, .)
is the signed mixture over [chain at x, Q_0..Q_{n-1}], so sampling and
integration stay exact instead of importance-weighted.
"""

from __future__ import annotations

import math

import numpy as np

from . import hypoexp
from .measures import MixtureMeasure, Probe, VectorMeasure, as_finite_vector
from .recursions import SCALE_TOP, renewal
from .streams import geometric
from .typespace import (FAMILY_FINITE, ExpFamilyTriplet, FiniteTriplet,
                        GenerationSnapshot, LFTriplet)


class GenerationLaw:
    """Exact law of generation n: survival, K_n integration, sampling."""

    def __init__(self, triplet: LFTriplet, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.triplet = triplet
        self.n = n
        if triplet.family == FAMILY_FINITE:
            self._init_finite(triplet, n)
        else:
            self._init_exp(triplet, n)

    # -- construction ----------------------------------------------------------

    def _check_mn(self):
        if not math.isfinite(self.m_n):
            raise ValueError(f"m = {self.triplet.m!r}, n = {self.n}: the "
                             "generation-n mean m_n overflows float64")

    def _init_finite(self, t: FiniteTriplet, n: int):
        M = t.M
        rows = [t.gamma_vector.copy()]           # gamma M^k, k = 0..n-1
        with np.errstate(over="ignore"):         # _check_mn rejects overflow
            for _ in range(n - 1):
                rows.append(rows[-1] @ M)
            gks = np.array([r.sum() for r in rows])  # g_k
            self.m_n = float(t.m * gks.sum())
        self._check_mn()
        # a g_k that underflowed to 0 carries weight 0
        self.gamma_n = VectorMeasure(sum(w * (r / g) for w, r, g in
                                         zip(t.m * gks / self.m_n, rows, gks) if g))
        self._Mn = np.linalg.matrix_power(M, n)
        frac = self.m_n / (1.0 + self.m_n)
        self.Kn = self._Mn - frac * np.outer(self._Mn @ np.ones(t.d),
                                             self.gamma_n.vector)

    def _init_exp(self, t: ExpFamilyTriplet, n: int):
        self._c = t.c_sequence(n)
        self._d = t.d_sequence(n)
        h, scale = renewal(t.m * self._d[1:n], [1.0], n - 1)
        raw = np.cumsum(h)[::-1] * self._d[:n]  # W_r ~ H_{n-1-r} d_r
        self.m_n = t.m * float(raw.sum()) / scale if scale else math.inf
        self._check_mn()
        self._h = h / scale
        self.gamma_n = MixtureMeasure(
            raw / raw.sum(),
            [hypoexp.gamma_chain_law(t.lam, t.mu, r) for r in range(n)])
        self._mn_cache: dict[float, MixtureMeasure] = {}
        self._kn_cache: dict[float, MixtureMeasure] = {}

    # -- mean kernel power -------------------------------------------------------

    def mean_power(self, x):
        """M^n(x, .) as a measure.

        Continuous family: M^n(x, .) = c_n e^{-nx} Law(x + chain(lambda, n))
        + sum_{r<n} B_r(x) Q_r, B_r(x) = m sum_{i=1}^{n-r} c_i e^{-ix} h_{n-i-r}.
        """
        t = self.triplet
        x = t.validate_point(x)
        if t.family == FAMILY_FINITE:
            return VectorMeasure(self._Mn[x])
        if x not in self._mn_cache:
            n = self.n
            e = self._c * np.exp(-np.arange(n + 1) * x)
            B = t.m * np.convolve(e[1:], self._h)[n - 1::-1][:n]
            self._mn_cache[x] = MixtureMeasure(
                np.concatenate(([e[n]], B * self._d[:n])),
                [hypoexp.chain_law(t.lam, n)] + self.gamma_n.components,
                np.concatenate(([x], np.zeros(n))))
        return self._mn_cache[x]

    def mn_mass(self, x) -> float:
        """M^n(x, E) = expected generation size from ancestor type x."""
        return self.mean_power(x).mass()

    def survival(self, x) -> float:
        """P_x(Z_n > 0) = M^n(x, E)/(1 + m_n)."""
        return self.mn_mass(x) / (1.0 + self.m_n)

    # -- K_n ---------------------------------------------------------------------

    def kn_measure(self, x):
        """K_n(x, .) = M^n(x, .) - (m_n/(1+m_n)) M^n(x, E) gamma_n as one measure.

        Continuous family: the signed mixture over [chain at x, Q_0..Q_{n-1}].
        """
        x = self.triplet.validate_point(x)
        if self.triplet.family == FAMILY_FINITE:
            return VectorMeasure(self.Kn[x])
        if x not in self._kn_cache:
            mp_ = self.mean_power(x)
            frac = self.m_n / (1.0 + self.m_n)
            self._kn_cache[x] = mp_ - (frac * mp_.mass()) * self.gamma_n
        return self._kn_cache[x]

    def kn_mass(self, x) -> float:
        """K_n(x, E); equals survival(x) because K_n keeps mass M^n(x, E)/(1 + m_n)."""
        return self.survival(x)

    def kn_integrate(self, x, g, breaks=()) -> float:
        """Integral of g against the defective measure K_n(x, .)."""
        return self.kn_measure(x).integrate(g, breaks=breaks)

    def kn_tilt(self, x, theta: float) -> float:
        """Integral of exp(-theta y) against K_n(x, .), quadrature-free."""
        return self.kn_measure(x).integrate_exp_tilt(theta)

    def kn_pdf(self, x, y):
        """Density of K_n(x, .) at y (continuous family)."""
        return np.maximum(self.kn_measure(x).pdf(y), 0.0)

    def marked_sample(self, x, rng: np.random.Generator):
        """Draw from the normalized marked law K_n(x, .)/K_n(x, E).

        Finite family: exact categorical. Continuous family: rejection with
        the normalized M^n(x, .) mixture as proposal; the acceptance ratio
        K_n density / M^n density lies in [0, 1] pointwise and accepts with
        overall rate 1/(1+m_n).
        """
        t = self.triplet
        if t.family == FAMILY_FINITE:
            row = np.maximum(self.Kn[t.validate_point(x)], 0.0)
            tot = row.sum()
            if tot <= 0.0:
                raise ValueError("K_n(x, .) has no mass at this x")
            return int(rng.choice(t.d, p=row / tot))
        mp_ = self.mean_power(x)
        kn = self.kn_measure(x)
        cap = int(200 * (1.0 + self.m_n))
        for _ in range(cap):
            y = mp_.sample(rng)
            accept = float(kn.pdf(y)) / float(mp_.pdf(y))
            if rng.random() < min(max(accept, 0.0), 1.0):
                return y
        raise RuntimeError("rejection sampler exceeded its trial budget")

    # -- functionals and conditional laws -----------------------------------------

    def functional(self, x, h, breaks=()) -> float:
        """F_n(x, h) = E_x prod_{i in gen n} h(type_i), h ranging in [0, 1].

        ``h`` is a Probe, a callable, or (finite family) a length-d vector.
        """
        p = h if isinstance(h, Probe) else Probe("h", h, tuple(breaks))
        g = p.apply(self.gamma_n)
        if g > 1.0 + 1e-9:
            raise AssertionError(f"gamma_n(h) = {g} > 1; h must map into [0,1]")
        # 1 + m_n - m_n gamma_n(h) would cancel to 0 once m_n passes 2^53
        denom = 1.0 + self.m_n * max(0.0, 1.0 - g)
        return 1.0 - self.kn_mass(x) + p.apply(self.kn_measure(x)) / denom

    def pmf(self, x, k: int) -> float:
        """P_x(Z_n = k)."""
        s = self.survival(x)
        if k == 0:
            return 1.0 - s
        mn = self.m_n
        # ratio form: mn^(k-1)/(1+mn)^k overflows separately for large k
        return s * (mn / (1.0 + mn)) ** (k - 1) / (1.0 + mn)

    def conditional_generation(self, x, rng: np.random.Generator) -> GenerationSnapshot:
        """Sample Z_n(.) given Z_n > 0: marked point + geometric extras."""
        marked = self.marked_sample(x, rng)
        extra = int(geometric(rng, self.m_n))
        pts = np.empty(1 + extra, dtype=self.triplet.point_dtype)
        pts[0] = marked
        if extra:
            pts[1:] = self.gamma_n.sample(rng, size=extra)
        return GenerationSnapshot(self.n, pts, marked=True)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def evolve(triplet: LFTriplet, n: int) -> GenerationLaw:
    """Exact law of generation n; n >= 1."""
    return GenerationLaw(triplet, n)


def survival_prob(triplet: LFTriplet, x, n: int) -> float:
    """P_x(Z_n > 0) = M^n(x, E)/(1 + m_n), stable far beyond float overflow.

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


def gen_functional(triplet: LFTriplet, x, n: int, h, breaks=()) -> float:
    """F_n(x, h) through the evolved triplet's closed form."""
    return evolve(triplet, n).functional(x, h, breaks=breaks)


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
