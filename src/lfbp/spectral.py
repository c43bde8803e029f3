"""Spectral analytics: life-length law, Malthusian parameter, eigenpair.

The marked lineage of an individual is a killed Markov chain; its absorption
time L (the life length) has tail P(L > n) = d_n = gamma-average of K^n(., E).
The generating function f(s) = sum_{n>=1} d_n s^n controls everything here:

* criticality: m f(1) < 1, = 1, > 1 (sub / critical / super),
* the decay parameter R solving m f(R) = 1 with rho = 1/R, alpha = ln rho,
* beta = m R f'(R), the inner product of the eigenpair,
* u(x) = (1+m) sum_{n>=1} R^n K^n(x, E) and nu = (m/(1+m)) gamma K^(R), with
  M u = rho u, nu M = rho nu, nu(E) = 1, gamma(u) = (1+m)/m, nu(u) = beta.

All of them are read off one resolvent per family, sum_n s^n K^n(x, E),
whose gamma-average is 1 + f(s):

* Finite family: one cached class analysis per triplet (``_classes``) holds
  the path closure of K and r(x), the spectral radius of K on the states x
  reaches (the largest Perron root of its classes there, by eigvals; 0 when
  none has a cycle). R_* = 1 / max r over gamma's reach, the block where f
  and f' solve. u is one solve on E_R = {x : R r(x) < 1}, which no path
  leaves, and infinite elsewhere.
* Exp family: K^n(x, E) = c_n e^{-nx}, and one cached tilted sequence
  s^n c_n (``_tilt``), built by the ratio s lambda/(lambda + n) and never by
  a power of s, gives f, f', u(x), the weights s^r d_r of gamma K^(s) and
  nu(u).

An ``Eigenpair`` builds nu and the finite u vector on first use.

R is the root of g(u) = log(m f(e^u)), found by Newton's method. g is a
log-sum of e^{nu} with nonnegative weights, hence convex and increasing: from
the right of the root the iterates decrease monotonically to it, and a step
from the left lands on its right unless halved. The iterate is kept as
s = e^u, s <- s exp(-g f/(s f'(s))), so R has full relative precision at any
scale; a step to where f is infinite (past R_*, or overflow) is halved. A
critical |m f(1) - 1| <= 1e-10 gives R = 1 exactly.

In the finite family d_n >= c (1/R_*)^n makes f(R_*) infinite; in the exp
family R_* is infinite and f unbounded. So m f(R) = 1 has a root R < R_*,
with f'(R) finite, unless f = 0: R-null cannot occur and R-transient means
degenerate. A root that float64 cannot resolve, |m f(R) - 1| > 64 eps
max(1, beta) (say m so small that R rounds onto R_*), raises a ValueError
naming m. Power iteration on M (``tests/oracles.py``) cross-checks 1/R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import hypoexp
from .measures import MixtureMeasure, VectorMeasure
from .recursions import renewal
from .typespace import FAMILY_EXP, FAMILY_FINITE, ExpFamilyTriplet, LFTriplet

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"

R_POSITIVE = "R-positive"
R_TRANSIENT = "R-transient"

_CRIT_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
_NEWTON_MAX = 100


# ---------------------------------------------------------------------------
# the two resolvents: finite class analysis, exp tilted sequence
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _classes(triplet) -> tuple[np.ndarray, np.ndarray]:
    """(live, r) of a finite triplet, read-only: the mask of the states gamma
    reaches, and r(x), the spectral radius of K on the states x reaches.

    A class (mutually reachable states on a cycle) has a simple Perron root,
    found by eigvals; states on no cycle add 0, so nilpotent blocks give 0.
    """
    K = triplet.K
    paths = K > 0.0
    for _ in range(max(len(K) - 1, 0).bit_length()):   # path length 2^k >= d
        paths |= (paths.astype(float) @ paths.astype(float)) > 0.0
    own = np.zeros(len(K))                              # Perron root of x's class
    for i in np.flatnonzero(np.diag(paths)):
        cls = np.flatnonzero(paths[i] & paths[:, i])
        if cls[0] == i:                                 # each class once
            own[cls] = np.abs(np.linalg.eigvals(K[np.ix_(cls, cls)])).max()
    reach = paths | np.eye(len(K), dtype=bool)
    live, r = reach[triplet.gamma_vector > 0].any(axis=0), (reach * own).max(axis=1)
    live.setflags(write=False)
    r.setflags(write=False)
    return live, r


@lru_cache(maxsize=64)
def _tilt(lam: float, s: float) -> np.ndarray:
    """s^n c_n for n = 0..N, so that s^n K^n(x, E) = s^n c_n e^{-nx} (exp family).

    N is the first n >= 1 where the next ratio s lambda/(lambda + n) is below
    1/2 and the term at most 1e-17 of the largest, so the dropped tail is
    below 2e-17 of every series here. An overflow ends the sequence at inf,
    which makes those series infinite.
    """
    t, peak, ratio = [1.0], 0.0, s
    while True:
        t.append(t[-1] * ratio)
        peak = max(peak, t[-1])
        ratio = s * (lam / (lam + len(t) - 1))
        if not t[-1] < math.inf or (ratio < 0.5 and t[-1] <= 1e-17 * peak):
            break
    out = np.array(t)
    out.setflags(write=False)
    return out


def _tilted_tails(t: ExpFamilyTriplet, s: float) -> np.ndarray:
    """s^n d_n = s^n c_n mu/(mu + n) for n = 0..N, from the tilted sequence."""
    tilt = _tilt(t.lam, s)
    return tilt * (t.mu / (t.mu + np.arange(len(tilt))))


def _total(terms) -> float:
    """Correctly rounded sum of nonnegative terms; math.inf when it overflows."""
    try:
        return math.fsum(np.asarray(terms).tolist())
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# life length law
# ---------------------------------------------------------------------------

class LifeLengthLaw:
    """Tail sequence d_n, generating function f, and samplers for L.

    P(L > n) = d_n with d_0 = 1; P(L >= 1) = 1 always. E L = 1 + f(1).
    """

    def __init__(self, triplet: LFTriplet):
        self.triplet = triplet
        self.family = triplet.family
        self._d = np.zeros(0)
        self._R_star = math.inf
        if self.family == FAMILY_FINITE:
            # K and gamma on gamma's reach, where f lives
            self._live, r = _classes(triplet)
            self._K = triplet.K[np.ix_(self._live, self._live)]
            self._gam = triplet.gamma_vector[self._live]
            self._k1 = self._K.sum(axis=1)
            self._w = (math.nan, None)      # (s, (I - sK)^{-1} K 1) of the last solve
            if (rho := float(r[self._live].max())) > 0.0:
                self._R_star = 1.0 / rho

    def tails(self, n: int) -> np.ndarray:
        """d_0..d_n."""
        if n >= len(self._d):
            self._d = self.triplet.d_sequence(max(n, 2 * len(self._d)))
        return self._d[: n + 1]

    def pmf(self, n: int) -> float:
        """P(L = n) = d_{n-1} - d_n for n >= 1."""
        if n < 1:
            raise ValueError("life lengths start at 1")
        d = self.tails(n)
        return float(d[n - 1] - d[n])

    def radius(self) -> float:
        """Radius of convergence R_* of f: infinite in the exp family, whose
        coefficients decay factorially, and for a nilpotent gamma block."""
        return self._R_star

    def f_eval(self, s: float) -> float:
        """f(s) = sum_{n>=1} d_n s^n; math.inf at or beyond the radius.

        Finite family: f(s) = s gamma (I - sK)^{-1} K 1, with no cancellation
        at small s. gamma reaches a class with Perron root rho = 1/R_*, so
        d_n >= c rho^n and the series diverges at R_* (Perron-Frobenius).
        """
        if s < 0:
            raise ValueError("s must be nonnegative")
        if self.family == FAMILY_EXP:
            return _total(_tilted_tails(self.triplet, s)[1:])
        if s >= self._R_star:
            return math.inf
        return s * float(self._gam @ self._resolvent_k1(s))

    def _resolvent_k1(self, s: float) -> np.ndarray:
        """(I - sK)^{-1} K 1 for the last s, which f and f' share."""
        if self._w[0] != s:
            self._w = (s, np.linalg.solve(np.eye(len(self._gam)) - s * self._K, self._k1))
        return self._w[1]

    def f_derivative(self, s: float) -> float:
        """f'(s); math.inf when the series for f' diverges at s."""
        if s < 0:
            raise ValueError("s must be nonnegative")
        if s == 0.0:
            return float(self.tails(1)[1])
        if self.family == FAMILY_EXP:
            dt = _tilted_tails(self.triplet, s)
            return _total(np.arange(len(dt)) * dt) / s
        if s >= self._R_star:
            return math.inf
        A = np.eye(len(self._gam)) - s * self._K     # f'(s) = gamma A^{-2} K 1
        return float(self._gam @ np.linalg.solve(A, self._resolvent_k1(s)))

    def mean(self) -> float:
        """E L = 1 + f(1)."""
        return 1.0 + self.f_eval(1.0)

    # -- samplers -------------------------------------------------------------

    def sample_capped(self, rng: np.random.Generator, cap: int, size: int | None = None):
        """Draw min(L, cap + 1); exact for every event that depends on L <= cap."""
        d = self.tails(cap)
        u = rng.random(size)
        # L > n  iff  u <= d_n ; searchsorted on the descending tail
        out = np.searchsorted(-d, -np.atleast_1d(u), side="right")
        out = np.where(np.atleast_1d(u) <= d[cap], cap + 1, out)
        out = out.astype(np.int64)
        return int(out[0]) if size is None else out

    def sample(self, rng: np.random.Generator, size: int | None = None,
               tail_eps: float = 1e-15):
        """Draw L by inverse transform on the precomputed tail.

        The tail is extended until d_N < tail_eps; the residual mass is
        assigned to N + 1.
        """
        n = 64
        d = self.tails(n)
        while d[-1] >= tail_eps:
            if n >= 200000:
                raise RuntimeError(
                    f"life-length tail still {d[-1]:.3e} at n={n}; use sample_capped")
            n *= 2
            d = self.tails(n)
        return self.sample_capped(rng, len(d) - 1, size=size)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class SpectralSummary:
    """Everything classify/solve_R derives from (f, m)."""

    criticality: str
    recurrence: str
    R: float                 # decay parameter; R_* when transient; inf possible
    R_star: float
    rho: float | None        # 1/R when the Malthusian parameter exists
    alpha: float | None      # ln rho; None when no Malthusian parameter
    beta: float | None       # m R f'(R); None when transient/degenerate
    mf1: float               # m f(1); criticality statistic
    f1: float                # f(1); E L = 1 + f(1)
    mean_life: float

    def as_dict(self) -> dict:
        return {
            "criticality": self.criticality,
            "recurrence": self.recurrence,
            "R": self.R,
            "R_star": self.R_star,
            "rho": self.rho,
            "alpha": self.alpha,
            "beta": self.beta,
            "m_f1": self.mf1,
            "f1": self.f1,
            "mean_life": self.mean_life,
        }


def solve_R(law: LifeLengthLaw, m: float) -> SpectralSummary:
    """Decay parameter R, the root of m f(R) = 1 (see the module docstring).

    A degenerate f = 0 has no root: R-transient, with R = R_*. Raises a
    ValueError naming m when m f(1) overflows or R cannot be resolved.
    """
    f1 = law.f_eval(1.0)
    mf1 = m * f1
    if math.isinf(mf1) and math.isfinite(f1):
        raise ValueError(f"m = {m!r}: m f(1) overflows float64")
    if abs(mf1 - 1.0) <= _CRIT_TOL:
        crit = CRITICAL
    elif mf1 < 1.0:
        crit = SUBCRITICAL
    else:
        crit = SUPERCRITICAL
    R_star = law.radius()

    if f1 == 0.0:
        # f vanishes identically: the marked line dies immediately, gamma-a.s.
        return SpectralSummary(crit, R_TRANSIENT, R_star, R_star, None, None,
                               None, 0.0, 0.0, 1.0)

    R = 1.0 if crit == CRITICAL else _newton_root(law, m, min(1.0, 0.5 * R_star))
    beta = m * R * law.f_derivative(R)
    tol = 64 * _EPS * max(1.0, beta)                 # the backward error float64 reaches
    if crit != CRITICAL and not abs(m * law.f_eval(R) - 1.0) <= tol < math.inf:
        raise ValueError(f"m = {m!r}: float64 cannot resolve the root of m f(R) = 1")
    rho = 1.0 / R
    return SpectralSummary(crit, R_POSITIVE, R, R_star, rho, math.log(rho),
                           beta, mf1, f1, 1.0 + f1)


def _newton_root(law: LifeLengthLaw, m: float, s: float) -> float:
    """Newton's method on g(u) = log(m f(e^u)) in s = e^u, started at s."""
    f, g_right = law.f_eval(s), math.inf            # g at the last iterate right of the root
    for _ in range(_NEWTON_MAX):
        mf = m * f                                  # near the root log(m f) is exact
        g = math.log(mf) if 0.0 < mf < math.inf else math.log(m) + math.log(f)
        if abs(g) >= g_right:
            break                                   # |g| stopped falling: rounding noise
        g_right = g if g > 0.0 else math.inf
        # g'(u) = s f'(s)/f(s) >= 1; math.exp raises past 709
        step = min(-g / (s / f * law.f_derivative(s)), 700.0)
        t = s * math.exp(step)
        while not 0.0 < (ft := law.f_eval(t)) < math.inf and abs(step) > _EPS:
            step *= 0.5                             # past R_* or into overflow
            t = s * math.exp(step)
        if not 0.0 < ft < math.inf:
            break
        s, f = t, ft
        if abs(step) <= 4 * _EPS:
            break
    return s


def classify(triplet: LFTriplet) -> SpectralSummary:
    """Regime report for a triplet: criticality, recurrence, R, alpha, beta."""
    return solve_R(LifeLengthLaw(triplet), triplet.m)


# ---------------------------------------------------------------------------
# resolvent and eigenpair
# ---------------------------------------------------------------------------

def gamma_resolvent(triplet: LFTriplet, s: float):
    """gamma K^(s) = sum_{r>=0} s^r integral K^r(y, .) gamma(dy), s below the radius.

    Finite family: the vector gamma^T (I - sK)^{-1}, solved on gamma's reach
    (zero elsewhere) so that an unreachable class with a larger Perron root
    cannot make the solve singular. Exponential family: the mixture with
    weights s^r d_r on Exp(mu+r) + chain(lambda, r), from the tilted
    sequence, cut after the last weight above 1e-17 of the total.
    """
    if triplet.family == FAMILY_FINITE:
        law = LifeLengthLaw(triplet)
        out = np.zeros(triplet.d)
        out[law._live] = np.linalg.solve(np.eye(len(law._gam)) - s * law._K.T, law._gam)
        return VectorMeasure(out)
    coef = _tilted_tails(triplet, s)
    keep = int(np.flatnonzero(coef > 1e-17 * coef.sum())[-1]) + 1
    return MixtureMeasure(coef[:keep], [
        hypoexp.gamma_chain_law(triplet.lam, triplet.mu, r) for r in range(keep)])


def NuMeasure(triplet: LFTriplet, R: float):
    """Left eigen-measure nu(A) = (m/(1+m)) integral of K^(R)(y, A) gamma(dy)."""
    return (triplet.m / (1.0 + triplet.m)) * gamma_resolvent(triplet, R)


class Eigenpair:
    """Right function u and left measure nu; nu and the finite u vector are
    built on first use."""

    def __init__(self, triplet: LFTriplet, summary: SpectralSummary):
        self.triplet = triplet
        self.summary = summary

    @cached_property
    def nu(self) -> VectorMeasure | MixtureMeasure:
        return NuMeasure(self.triplet, self.summary.R)

    @cached_property
    def u_vector(self) -> np.ndarray:
        """u on the finite states: one solve on E_R = {x : R r(x) < 1}, inf elsewhere."""
        t, R = self.triplet, self.summary.R
        ok = R * _classes(t)[1] < 1.0
        K = t.K[np.ix_(ok, ok)]
        u = np.full(t.d, math.inf)
        u[ok] = (1.0 + t.m) * np.linalg.solve(np.eye(len(K)) - R * K, R * K.sum(axis=1))
        return u

    def u(self, x) -> float:
        """u(x) = (1+m) sum_{n>=1} R^n K^n(x, E); infinite outside E_R."""
        t = self.triplet
        x = t.validate_point(x)
        if t.family == FAMILY_FINITE:
            return float(self.u_vector[x])
        tilt = _tilt(t.lam, self.summary.R)
        return (1.0 + t.m) * _total(tilt[1:] * np.exp(-x * np.arange(1, len(tilt))))

    def u_gamma_integral(self) -> float:
        """gamma(u); identity value (1+m)/m."""
        t = self.triplet
        if t.family == FAMILY_FINITE:    # gamma and nu vanish where u = inf
            ok = np.isfinite(self.u_vector)
            return float(t.gamma_vector[ok] @ self.u_vector[ok])
        return t.gamma.integrate(self.u)

    def u_nu_integral(self) -> float:
        """nu(u); identity value beta. Exp family: nu(e^{-jy}) per term of u."""
        t = self.triplet
        if t.family == FAMILY_FINITE:
            ok = np.isfinite(self.u_vector)
            return float(self.nu.vector[ok] @ self.u_vector[ok])
        tilt = _tilt(t.lam, self.summary.R)
        return (1.0 + t.m) * _total([tilt[j] * self.nu.integrate_exp_tilt(float(j))
                                     for j in range(1, len(tilt))])


def eigen_build(triplet: LFTriplet, summary: SpectralSummary | None = None) -> Eigenpair:
    """The eigenpair (u, nu, beta) of an R-positive triplet."""
    if summary is None:
        summary = classify(triplet)
    if summary.recurrence == R_TRANSIENT:
        raise ValueError("eigenpair requires an R-positive process")
    return Eigenpair(triplet, summary)


def eigen_residuals(triplet: LFTriplet, pair: Eigenpair, grid=None) -> dict:
    """Residuals of the eigen relations, for tests and reports.

    Returns max |(M u)(x) - rho u(x)| / max u over the grid, and the
    corresponding left residual against indicator probes (continuous) or the
    full vector (finite).
    """
    rho, t = pair.summary.rho, triplet
    if t.family == FAMILY_FINITE:
        M, u = t.M, pair.u_vector
        ok = np.isfinite(u)  # states outside E_R carry u = inf; skip them
        Mu = M[np.ix_(ok, ok)] @ u[ok]
        right = float(np.max(np.abs(Mu - rho * u[ok])) / np.max(np.abs(u[ok])))
        left_vec = pair.nu.vector @ M - rho * pair.nu.vector
        left = float(np.max(np.abs(left_vec)) / np.max(np.abs(pair.nu.vector)))
        return {"right": right, "left": left}
    if grid is None:
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    umax = max(abs(pair.u(x)) for x in grid)
    # M(x, .) = e^{-x} (Law(x + Exp(lambda)) + m gamma)
    w = [1.0, *t.m * t.gamma.weights]
    comps = [hypoexp.chain_law(t.lam, 1), *t.gamma.components]
    right = max(abs(math.exp(-x) * MixtureMeasure(w, comps, [x, *t.gamma.shifts])
                    .integrate(pair.u) - rho * pair.u(x)) for x in grid) / umax
    lefts = []
    for T in (0.5, 1.0, 2.0):
        mu_side = _nu_M_indicator(t, pair, T)
        lefts.append(abs(mu_side - rho * pair.nu.cdf(T)))
    return {"right": right, "left": max(lefts)}


def _nu_M_indicator(t: ExpFamilyTriplet, pair: Eigenpair, T: float) -> float:
    """Integral of M(y, [0, T]) nu(dy) for the continuous family."""
    jump = hypoexp.chain_law(t.lam, 1)
    part_k = pair.nu.integrate(lambda y: np.exp(-y) * jump.cdf(T - y), breaks=(T,))
    return part_k + t.m * t.gamma.cdf(T) * pair.nu.integrate_exp_tilt(1.0)


# ---------------------------------------------------------------------------
# Perron-Frobenius ratio limit and the 2F2 series
# ---------------------------------------------------------------------------

@dataclass
class PFLimitRow:
    n: int
    scaled_mass: float     # R^n M^n(x, E)
    limit: float           # u(x) nu(E) / beta
    rel_err: float


def _tilted_masses(t: LFTriplet, x, s: float, n: int):
    """(s^j K^j(x, E), s^j d_j) for j = 0..n; the exp family pads its tilted
    sequence with zeros."""
    x = t.validate_point(x)
    if t.family == FAMILY_FINITE:
        v, k, d = np.ones(t.d), np.empty(n + 1), np.empty(n + 1)
        for j in range(n + 1):
            k[j], d[j] = v[x], t.gamma_vector @ v
            v = s * (t.K @ v)
        return k, d
    j, head = np.arange(n + 1), _tilt(t.lam, s)[: n + 1]
    tilt = np.concatenate((head, np.zeros(n + 1 - len(head))))
    return tilt * np.exp(-j * x), tilt * (t.mu / (t.mu + j))


def pf_limit_check(triplet: LFTriplet, x, n_max: int = 40) -> list[PFLimitRow]:
    """Tabulate R^n M^n(x, E) against u(x) nu(E) / beta for n = 1..n_max.

    One R-tilted renewal pass: with k_j = R^j K^j(x, E) and tilted tails
    R^j d_j, R^n M^n(x, E) = k_n + m sum_{i=1..n} k_i g_{n-i}, where
    g_j = R^j gamma M^j(E) solves g_j = R^j d_j + m sum_k R^k d_k g_{j-k}.
    Its a sums to m f(R) = 1, so g stays O(1) however fast M^n grows.
    """
    summary = classify(triplet)
    pair = eigen_build(triplet, summary)
    limit = pair.u(x) * pair.nu.mass() / summary.beta
    k, d = _tilted_masses(triplet, x, summary.R, n_max)
    g = renewal(triplet.m * d[1:], d, n_max)[0]      # bounded, so never rescaled
    scaled = k[1:] + triplet.m * np.convolve(k[1:], g)[:n_max]
    return [PFLimitRow(n, float(v), limit, abs(v - limit) / abs(limit))
            for n, v in enumerate(scaled, 1)]


def hypergeom_phi(lam: float, mu: float, s: float) -> float:
    """Phi(s) = sum_n mu Gamma(lam) s^n / (Gamma(lam + n)(mu + n)).

    Term recurrence phi_{n+1}/phi_n = s (mu+n) / ((lam+n)(mu+n+1)); the
    series is entire, and 1 + f(s) = Phi(lam s).
    """
    total, term = 1.0, 1.0
    for n in range(100000):
        term *= s * (mu + n) / ((lam + n) * (mu + n + 1.0))
        total += term
        if not math.isfinite(total):
            return math.inf
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            break
    return total
