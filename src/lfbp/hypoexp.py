"""Hypoexponential distributions (sums of independent exponentials).

The continuous-family n-step kernels and their gamma-mixtures are shifted
hypoexponential laws with rate lists built from (lambda, mu). They are
evaluated by uniformization (Jensen 1953): for S = Exp(a_1) + ... + Exp(a_k)
and q >= max a_i, S is the time of the N-th event of a rate-q Poisson
process, where a chain leaves phase i with probability a_i/q per event and
N counts events up to absorption. Hence

    P(S > t) = sum_j Pois(qt; j) P(N > j),
    pdf(t)   = sum_j Pois(qt; j) a_k P(in phase k after j events).

All terms are nonnegative, so nothing cancels and tied rates are no special
case. The phases run from fastest to slowest (a_k), and q >= 2 a_k. The
chain runs until all phases but the last hold < 1e-18; then phase k alone
holds mass, decaying by rho = 1 - a_k/q per event, and it is followed for
at most as many steps again. After those J steps it is spent (< 1e-18) or
holds V with J |log rho| < 83, and the j >= J terms sum to
V rho^-J e^(-a_k t) P(Pois(rho q t) >= J). So J grows with q over the
second-slowest rate, not over a_k: a slow phase (small lambda or mu) costs
nothing, and a rate list too spread for that is refused with ValueError.

Error bound: truncation costs < 1e-18 (the weights cover mode +- (9 sqrt(qt)
+ 20)); each chain step and weight rounds at ~1e-16 relative, and rho^j is
exp(j log rho), whose error does not grow with j. Against a 100-digit
oracle, pdf and cdf agree to 1e-12 absolute for up to 121 rates, tied or
not, and for rates down to 1e-6 (tests/test_quadrature_hypoexp.py).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

_TAIL = 1e-18           # mass outside a law's last phase at which the chain stops
_MAX_ENTRIES = 1 << 22  # jump-chain steps times laws kept in memory (64 MB)


@lru_cache(maxsize=64)
def _jump_chain(rate_lists: tuple[tuple[float, ...], ...]):
    """Uniformize every law in ``rate_lists`` at one rate q, in one stacked pass.

    Returns q and, one column per law, the J x C arrays a_k P(in phase k
    after j events) and P(N > j), the last rates a_k and the masses V.
    """
    phases = [sorted(r, reverse=True) for r in rate_lists]
    a = np.concatenate(phases)
    ends = np.cumsum([len(r) for r in phases]) - 1
    starts = np.concatenate(([0], ends[:-1] + 1))
    q = float(max(a.max(), 2.0 * a[ends].max()))
    second = min((r[-2] for r in phases if len(r) > 1), default=q)
    if 41.4 * q / second * len(phases) > _MAX_ENTRIES:   # steps to drain `second`
        raise ValueError(f"hypoexponential rates too far apart: uniformizing at "
                         f"rate {q:.3g} is {q / second:.3g} times the "
                         f"second-slowest rate {second:.3g}")
    stay, move = (q - a) / q, a / q
    v = np.zeros(len(a))
    v[starts] = 1.0
    kept, into = [], []
    while True:        # what reaches a last phase leaves v for its own sum
        into.append(v[ends])
        v[ends] = 0.0
        kept.append(np.add.reduceat(v, starts))
        if len(kept) > 1 and kept[-1].max() < _TAIL:
            break
        flow = move * v
        v *= stay
        v[1:] += flow[:-1]
    # follow the last phases' pure decay for up to as many steps again: a
    # phase then spent (< 1e-18) gets no tail term, the others keep J |log rho| < 83
    log_rho = np.log1p(-a[ends] / q)
    pad = np.zeros((min(len(kept) - 1, math.ceil(41.4 / -log_rho.max())), len(ends)))
    last = _geometric_scan(np.vstack((into, pad)), log_rho)
    spent = len(pad) * -log_rho >= 41.4
    return (q, a[ends] * last[:-1], np.vstack((kept[:-1], pad)) + last[:-1],
            a[ends], np.where(spent, 0.0, last[-1]))


def _geometric_scan(into: np.ndarray, log_rho: np.ndarray):
    """L_j = sum_{i <= j} into_i rho^(j-i) down each column.

    rho^k is taken as exp(k log rho), not as a product of rounded rho's,
    whose error would grow with j; blocks of 256 rows keep every power
    below e^177 (rho >= 1/2).
    """
    out = np.empty_like(into)
    prev = np.zeros(into.shape[1])
    rho = np.exp(log_rho)
    for b in range(0, len(into), 256):
        k = np.arange(min(256, len(into) - b))[:, None] * log_rho
        out[b: b + 256] = np.exp(k) * (
            prev * rho + np.cumsum(into[b: b + 256] * np.exp(-k), axis=0))
        prev = out[b + len(k) - 1]
    return out


def _poisson_sum(x: float, seq: np.ndarray) -> float:
    """sum_j e^{-x} x^j / j! seq_j for x >= 0; seq is zero past its end.

    The weights run over mode +- (9 sqrt(x) + 20), are built as ratios to
    the mode and normalized to sum to one.
    """
    if x == 0.0:
        return float(seq[0])
    m = int(x)
    h = int(9.0 * math.sqrt(x)) + 20
    lo = max(m - h, 0)
    if lo >= len(seq):
        return 0.0
    up = np.cumsum(np.log(x / np.arange(m + 1, m + h + 1)))
    down = np.cumsum(np.log(np.arange(m, lo, -1) / x))
    w = np.exp(np.concatenate((down[::-1], [0.0], up)))
    hi = min(m + h, len(seq) - 1)
    return float(w[: hi - lo + 1] @ seq[lo: hi + 1]) / float(w.sum())


class Uniformized:
    """sum_c w_c Law(S_c) for hypoexponential S_c and signed weights w_c."""

    def __init__(self, weights, rate_lists):
        self.q, dens, surv, last, v_end = _jump_chain(tuple(rate_lists))
        w = np.asarray(weights, dtype=float)
        self.mass = float(w.sum())
        self._dens, self._surv = dens @ w, surv @ w
        # the j >= J terms, one per distinct last rate that outlasts the chain
        J, live = len(dens), v_end > 0.0
        self._rates, inv = np.unique(last[live], return_inverse=True)
        self._coef = np.bincount(inv, weights=(w * v_end)[live])
        self._log_tail = -J * np.log1p(-self._rates / self.q)    # rho^-J
        # past ``settle`` the j < J terms are below 1e-18; past ``horizon``
        # every law has < 1e-18 of its own mass left
        self.settle = (J + 9.0 * math.sqrt(J) + 41.0) / self.q
        self.horizon = max([self.settle, *(
            np.log(v_end[live] * np.maximum(last[live], 1.0)) + 41.5
            - J * np.log1p(-last[live] / self.q)) / last[live]])

    def _at(self, t: float, seq: np.ndarray, scale) -> float:
        x, J = self.q * t, len(seq)
        out = _poisson_sum(x, seq)
        if len(self._rates) and x + 9.0 * math.sqrt(x) + 20.0 >= J:
            from scipy.special import gammainc
            p = gammainc(J, (1.0 - self._rates / self.q) * x)
            out += float(self._coef * scale @ (p * np.exp(self._log_tail - self._rates * t)))
        return out

    def _series(self, t, seq, scale, before: float):
        # sum_j Pois(qt; j) seq_j, which is 0 at t = inf
        t_arr = np.asarray(t, dtype=float)
        vals = np.array([before if tk < 0 else 0.0 if tk == math.inf
                         else self._at(tk, seq, scale)
                         for tk in t_arr.ravel()]).reshape(t_arr.shape)
        return float(vals) if t_arr.ndim == 0 else vals

    def pdf(self, t):
        return self._series(t, self._dens, self._rates, 0.0)

    def cdf(self, t):
        return self.mass - self._series(t, self._surv, 1.0, self.mass)


class Hypoexp:
    """Sum of independent Exp(rate) variables for a given rate list."""

    def __init__(self, rates):
        if len(rates) == 0:
            raise ValueError("need at least one rate")
        if any(r <= 0 for r in rates):
            raise ValueError("rates must be positive")
        self.rates = tuple(float(r) for r in rates)
        self.mean = float(sum(1.0 / r for r in self.rates))

    @cached_property
    def _law(self) -> Uniformized:
        return Uniformized((1.0,), (self.rates,))

    def pdf(self, t):
        return self._law.pdf(t)

    def cdf(self, t):
        return self._law.cdf(t)

    def mgf_neg(self, theta: float) -> float:
        """E[exp(-theta S)] for theta >= 0; stable product, no cancellation."""
        out = 1.0
        for r in self.rates:
            out *= r / (r + theta)
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Exact draws: sum of independent exponentials."""
        if size is None:
            return float(sum(rng.exponential(1.0 / r) for r in self.rates))
        out = np.zeros(size)
        for r in self.rates:
            out += rng.exponential(1.0 / r, size)
        return out


@lru_cache(maxsize=4096)
def chain_law(lam: float, n: int) -> Hypoexp:
    """Law of the n-step displacement of the marked chain: rates lam..lam+n-1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Hypoexp(tuple(lam + k for k in range(n)))


@lru_cache(maxsize=4096)
def gamma_chain_law(lam: float, mu: float, r: int) -> Hypoexp:
    """Law of a gamma-start propagated r marked steps: Exp(mu+r) + chain_law(lam, r)."""
    rates = (mu + r,) + tuple(lam + k for k in range(r))
    return Hypoexp(rates)
