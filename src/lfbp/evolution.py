"""Exact n-generation laws: the evolved triplet (m_n, gamma_n, K_n).

Generation n of a linear-fractional process is itself linear-fractional, for
the triplet

    m_n       = m sum_{k<n} integral M^k(x, E) gamma(dx),
    gamma_n   = (m/m_n) sum_{k<n} integral M^k(x, .) gamma(dx),
    K_n(x, A) = M^n(x, A) - (m_n/(1+m_n)) M^n(x, E) gamma_n(A),

so P_x(Z_n > 0) = K_n(x, E) = M^n(x, E)/(1+m_n) and, given survival, Z_n is
1 + geometric(m_n) with the marked individual drawn from K_n(x, .)/K_n(x, E)
and the others i.i.d. gamma_n.

Finite family: gamma_n, M^n(x, .) and K_n(x, .) are ``VectorMeasure`` rows
read off A^n = [[M^n, 0], [S_n, 1]], A = [[M, 0], [gamma, 1]] and S_n =
sum_{k<n} gamma M^k: m_n = m S_n 1 and gamma_n = S_n/(S_n 1). A^n comes
from squaring with power-of-two scaling (``_augmented_power``, which
``survival_prob`` shares), O(d^3 log n) unless its guard stops the squaring.

Continuous family: G_k(.) = integral M^k(y, .) gamma(dy) splits exactly
over the number r of marked steps since the last restart,

    G_k = sum_{r<=k} h_{k-r} Q_r,    Q_r(.) = integral K^r(y, .) gamma(dy),

with h the renewal expansion of 1/(1 - m f(s)) (``recursions.renewal``) and
Q_r/d_r the hypoexponential law Exp(mu+r) + chain(lambda, r). Collapsing
over k, m_n = m sum_{r<n} H_{n-1-r} d_r with H_t = sum_{j<=t} h_j, and
gamma_n is the ``MixtureMeasure`` sum_r W_r Q_r/d_r with W_r proportional to
H_{n-1-r} d_r. m_n costs one renewal solve; the n hypoexponential
components of gamma_n are built only when something reads gamma_n, M^n or
K_n. M^n(x, .) adds the no-restart term c_n e^{-nx} Law(x + chain(lambda, n))
to the same components, and K_n(x, .) is the signed mixture over
[chain at x, Q_0..Q_{n-1}], so sampling and integration stay exact instead
of importance-weighted.

Both families take P_x(Z_n > 0) from ``survival_prob``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import hypoexp
from .measures import MixtureMeasure, Probe, VectorMeasure, as_finite_vector
from .recursions import renewal
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
        self._survival: dict = {}
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
        d = t.d
        P, E, Ek = _augmented_power(t, n, np.eye(d + 1))  # A^n, column by column
        # a column exponent beyond +-2^40 means inf or 0 either way
        with np.errstate(over="ignore"):         # _check_mn rejects overflow
            An = np.ldexp(P, Ek + max(-(1 << 40), min(E, 1 << 40)))
            Sn, self._Mn = An[d, :d], An[:d, :d]
            self.m_n = float(t.m * Sn.sum())
        self._check_mn()
        self.gamma_n = VectorMeasure(Sn / Sn.sum())
        frac = self.m_n / (1.0 + self.m_n)
        self.Kn = self._Mn - frac * np.outer(self._Mn @ np.ones(d),
                                             self.gamma_n.vector)

    def _init_exp(self, t: ExpFamilyTriplet, n: int):
        self._c = t.c_sequence(n)
        self._d = t.d_sequence(n)
        h, scale = renewal(t.m * self._d[1:n], [1.0], n - 1)
        raw = np.cumsum(h)[::-1] * self._d[:n]  # W_r ~ H_{n-1-r} d_r
        self.m_n = t.m * float(raw.sum()) / scale if scale else math.inf
        self._check_mn()
        self._h = h / scale
        self._weights = raw / raw.sum()
        self._mn_cache: dict[float, MixtureMeasure] = {}
        self._kn_cache: dict[float, MixtureMeasure] = {}

    @cached_property
    def gamma_n(self) -> MixtureMeasure:
        """Continuous family: sum_r W_r Q_r/d_r, built on first use (the
        finite family sets gamma_n at construction)."""
        t = self.triplet
        return MixtureMeasure(self._weights, [
            hypoexp.gamma_chain_law(t.lam, t.mu, r) for r in range(self.n)])

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
        """P_x(Z_n > 0) = M^n(x, E)/(1 + m_n), from ``survival_prob``."""
        x = self.triplet.validate_point(x)
        if x not in self._survival:
            self._survival[x] = survival_prob(self.triplet, x, self.n)
        return self._survival[x]

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
        Finite family: F_n = 1 - M^n(x, 1-h)/(1 + m_n gamma_n(1-h)) with 1 - h
        formed per type, so no sum cancels where K_n(x, h) would (m_n large,
        h near 1).
        """
        t = self.triplet
        p = h if isinstance(h, Probe) else Probe("h", h, tuple(breaks))
        if t.family == FAMILY_FINITE:
            u = 1.0 - as_finite_vector(p.fn, t.d)
            gu = float(self.gamma_n.vector @ u)         # gamma_n(1 - h)
        else:
            gu = 1.0 - p.apply(self.gamma_n)
        if gu < -1e-9:
            raise AssertionError(f"gamma_n(h) = {1.0 - gu} > 1; h must map into [0,1]")
        # 1 + m_n - m_n gamma_n(h) would cancel to 0 once m_n passes 2^53
        denom = 1.0 + self.m_n * max(0.0, gu)
        if t.family == FAMILY_FINITE:
            return 1.0 - float(self._Mn[t.validate_point(x)] @ u) / denom
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

    Every stored quantity is rescaled by exact powers of two, with the
    exponent carried as a Python int, so growth rho^n or a huge m never
    overflows.

    Finite family: the state [M^k 1; sum_{j<k} gamma M^j 1] is advanced by
    the augmented matrix A of ``_augmented_power``. Cost O(d^2 n/L + d^3
    log L) for the L chosen there: plain stepping for n < 2d, binary
    powering for n >> d.

    Exponential family: M^n(x, E) = c_n e^{-nx} + m sum_i c_i e^{-ix} g_{n-i}
    with g the renewal solution for a = m d and b = d. c stops at its first
    underflow. g is solved as u_j = g_j 2^(-s j): s = 0 while m sum(d) < 8,
    and otherwise 2^s is the power of two nearest g's growth rate, so u
    grows or falls by at most sqrt(2) per step. The block operators then
    stay below 2^195 for any m. The lags lose their trailing zeros
    (p = 140..220 nonzero a_k for lambda in (0.3, 3) at s = 0), and u is
    solved L <= 64 entries at a time by one L x p operator. Only the last
    max(p, q') entries of u and their weighted sum are kept, q' <= q being
    the last i whose weight c_i 2^(-s (i-1)) is nonzero. Cost O(n (p + L)).
    A value that float64 cannot resolve raises a ValueError naming m and n.

    Both kernels agree with the generation-by-generation loops they replaced
    to a relative 1e-11 wherever the loop's value exceeds 1e-280 (worst seen
    2.3e-13 finite; exp 1.1e-13 over lambda in 0.3..5000, m up to 1.7e308
    and n up to 3000), and with 40-digit mpmath to 1e-12.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1.0
    n = int(n)
    if triplet.family == FAMILY_FINITE:
        s = np.ones(triplet.d + 1)
        s[-1] = 0.0
        s, E, Ek = _augmented_power(triplet, n, s)
        return float(s[triplet.validate_point(x)]
                     / (math.ldexp(1.0, -E - Ek) + triplet.m * s[-1]))
    return _exp_survival(triplet, float(triplet.validate_point(x)), n)


def _exp2(v: float) -> int:
    """The k with v < 2^k <= 2v, for v > 0 (0 for v = 0)."""
    return math.frexp(v)[1]


def _augmented_power(t: FiniteTriplet, n: int, s: np.ndarray):
    """A^n s for A = [[M, 0], [gamma, 1]], A^n = [[M^n, 0], [S_n, 1]] with
    S_n = sum_{k<n} gamma M^k, and s a vector or a block of columns.

    Returns (S, E, Ek): column j of A^n s is S[:, j] 2^(E + Ek[j]), E a
    Python int (so is Ek for a vector s). Each column is rescaled by its own
    power of two after every step, so neither growth nor another column's
    scale loses its entries.
    A^L, L the largest power of two with L d <= n c (c columns, L <= n), is
    built by squaring and applied n // L times, and the squares that the
    bits of n mod L name do the rest: O(d^3 log L + d^2 c n/L) work. A power
    scaled to row sums in (2^510, 2^511] is squared only while its unscaled
    row sums stay below 2^511 (a product that underflows is then below
    2^-1022 anyway) or its nonzero entries stay above 2^-500 of that scale
    (no product underflows). A reducible M with a huge m (K entries near 1
    against m = 1e300) can stop L at 1 and step once per generation.
    """
    d, K, gam = t.d, t.K, t.gamma_vector
    cols = 1 if s.ndim == 1 else s.shape[1]
    top = max(0, min(n, n * cols // d).bit_length() - 1)
    powers = []                         # powers[i] = (A^(2^i) / 2^e, e)
    if top:
        # A = [[M, 0], [gamma, 1]], M = K + m (K 1) gamma^T built in place
        A = np.zeros((d + 1, d + 1))
        M = A[:d, :d]
        np.outer(t.K_row_mass, gam, out=M)
        M *= t.m
        M += K
        A[d, :d] = gam
        A[d, d] = 1.0
        powers = [(A, 0)]
        P, e = A, 0
        for _ in range(top):
            k = _exp2(float(P.sum(axis=1).max())) - 511
            P, e = np.ldexp(P, -k), e + k
            if e > 0 and P[P > 0].min() < 2.0 ** 11:
                break
            P, e = P @ P, 2 * e
            powers.append((P, e))
        top = len(powers) - 1
    mk = t.m * t.K_row_mass
    r = n % (1 << top)
    E = Ek = 0
    for i in [top] * (n >> top) + [i for i in range(top) if r >> i & 1]:
        if powers:
            P, e = powers[i]
            s = P @ s
        else:
            # n c < 2d: one generation as M w = K w + m (K 1)(gamma w), since
            # building A costs about 25 steps at d = 500
            gw = gam @ s[:d]
            s, e = np.concatenate((K @ s[:d] + np.multiply.outer(mk, gw),
                                   s[d:] + gw)), 0
        if s.ndim == 1:                 # math.frexp: no numpy scalar per step
            k = math.frexp(float(s.max()))[1]
        else:
            k = np.frexp(s.max(axis=0))[1].astype(np.int64)
        s = np.ldexp(s, -k)
        E += e
        Ek = Ek + k
    return s, E, Ek


def _exp_survival(t: ExpFamilyTriplet, x: float, n: int) -> float:
    k = 256
    while (c := t.c_sequence(min(n, k)))[-1] != 0.0 and k < n:
        k *= 4
    # c, d and a are nonincreasing, so their nonzero entries lead
    c = c[:np.count_nonzero(c)]                 # c_0..c_q, q <= n
    q = c.size - 1
    d = t.d_from_c(c)
    b = d[:n][:np.count_nonzero(d[:n])]
    # solve for u_j = g_j 2^(-s j): s = 0 while the lags m d_1..m d_q sum
    # below 8, else 2^s is the power of two nearest g's growth rate. Either
    # way the block operators stay below 2^195 however large m is.
    s = 0 if t.m * float(d[1:].sum()) < 8.0 else _exp_shift(t.m, d[1:])
    a = np.ldexp(t.m * b[1:], -s * np.arange(1, b.size))
    a = a[:np.count_nonzero(a)]                 # a_1..a_p
    p = a.size
    L, G, Tinv = _renewal_blocks(a, n)
    # macc gains m u_i 2^(-s (ell - i)) from entry i of a block of ell
    mw = np.ldexp(t.m, s * (np.arange(L) - L))
    # block j0 is u_{j0..j0+L-1} = Tinv b'_{j0..} + G (u_{j0-p}..u_{j0-1}),
    # b'_j = b_j 2^(-s j). While every stored entry and macc stay below
    # 2^(512 - eB), neither a block nor macc's next terms overflow, and
    # while one of them stays above bottom, nothing needed underflows.
    eB = max(0, _exp2(float(G.sum(axis=1).max(initial=0.0))),
             _exp2(float(Tinv[-1].sum())), _exp2(float(mw[-1])))
    top = math.ldexp(1.0, 512 - eB)
    low = min(0, 512 - eB)              # a rescale leaves them near 2^low
    bottom = math.ldexp(1.0, low - 512)
    # u_{n-i} enters M^n(x, E) with weight m 2^-s w_i, w_i = e_i 2^(-s (i-1))
    # and e_i = c_i e^{-ix}; it is kept while i <= p or c_i 2^(-s (i-1)) > 0
    e = c * np.exp(-np.arange(q + 1) * x)
    W = max(p, np.count_nonzero(np.ldexp(c[1:], -s * np.arange(q))))
    w = np.ldexp(e[1:W + 1], -s * np.arange(W))
    win = np.zeros(W)                   # the last W entries of u, scaled
    macc = 0.0                          # m sum_{j<J} u_j 2^(s (j - J)), same scale
    E = 0                               # the scale is 2^-E
    for j in range(0, n, L):
        ell = min(L, n - j)
        new = G[:ell] @ win[W - p:]
        if j < b.size:
            seg = b[j: j + ell]
            seg = np.ldexp(seg, -s * np.arange(j, j + seg.size) - E)
            new += Tinv[:ell, :seg.size] @ seg
        macc = math.ldexp(macc, -s * ell) + float(new @ mw[L - ell:])
        win = np.concatenate((win, new))[-W:]
        big = max(macc, float(win.max()))
        if not bottom <= big <= top:
            k = _exp2(big) - low
            win = np.ldexp(win, -k)
            macc = math.ldexp(macc, -k)
            E += k
    # M^n(x, E) = c_n e^{-nx} + m sum_i c_i e^{-ix} g_{n-i} over
    # 1 + m sum_{j<n} g_j, both divided by 2^(s n + E)
    scale = math.ldexp(1.0, -s * n - E)
    mn_mass = (e[n] * scale if q == n else 0.0) + math.ldexp(t.m, -s) * float(
        w @ win[::-1])
    den = scale + macc
    out = float(mn_mass) / den if den > 0.0 else math.nan
    # with s > 0 the window spans at most 2^(W/2), so a newest u below the
    # normal range means the kernel lost it
    if not math.isfinite(out) or (s and not win[-1] >= 2.0 ** -1022):
        raise ValueError(f"m = {t.m!r}, n = {n}: float64 cannot resolve "
                         f"P(Z_n > 0) for this exp triplet")
    return out


def _exp_shift(m: float, lags: np.ndarray) -> int:
    """The s nearest -log2 r, where sum_k m lags_k r^k = 1 (k from 1): j // 2
    for the least j with sum_k m lags_k 2^(-k j/2) <= 1, found by bisection.
    Hence sum_k m lags_k 2^(-k s) 2^(-k/2) <= 1, and u changes by <= sqrt(2)
    per step."""
    k = np.arange(lags.size)                    # k - 1 for lags_k

    def lag_sum(j):                             # overflow-free at any j
        h, r = j // 2, math.sqrt(0.5) ** (j % 2)
        return math.ldexp(m * r, -h) * float((np.ldexp(lags, -h * k) * r ** k).sum())

    lo, hi = 0, 2 * (_exp2(m) + _exp2(float(lags.sum())))   # lag_sum(hi) < 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if lag_sum(mid) <= 1.0 else (mid, hi)
    return hi // 2


def _renewal_blocks(a: np.ndarray, n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(L, G, Tinv) for solving c_j = b_j + sum_k a_k c_{j-k} L entries at a time.

    Tinv = T_L^{-1} is the lower-triangular Toeplitz inverse of I - (a's lags)
    on one block, from ``renewal(a[:L-1], [1], L-1)``; G = Tinv H, where
    H maps the previous p entries into the block. L is the power of two
    nearest sqrt(n), at most 64, which balances the L steps of ``renewal``
    against the n/L blocks. With a summing below 8, Tinv stays below
    8^L <= 2^192 and G below 2^195, so ``renewal`` never rescales.
    """
    L = min(64, 1 << ((n - 1).bit_length() + 1) // 2)
    h, _ = renewal(a[: L - 1], [1.0], L - 1)
    # Tinv[i, j] = h_{i-j} and H[i, col] = a_{i+p-col} (col = 0..p-1
    # standing for c_{j0-p+col}), both zero where the lag leaves range
    Tinv = sliding_window_view(np.concatenate((h[::-1], np.zeros(L - 1))), L)[::-1]
    H = sliding_window_view(np.concatenate((np.zeros(L - 1), a[::-1])), a.size)[::-1]
    return L, Tinv @ H, Tinv


def gen_functional(triplet: LFTriplet, x, n: int, h, breaks=()) -> float:
    """F_n(x, h) through the evolved triplet's closed form."""
    return evolve(triplet, n).functional(x, h, breaks=breaks)
