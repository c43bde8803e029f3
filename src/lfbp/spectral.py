"""Spectral analytics: life-length law, Malthusian parameter, eigenpair.

The marked lineage of an individual is a killed Markov chain; its absorption
time L (the life length) has tail P(L > n) = d_n = gamma-average of K^n(., E).
The generating function f(s) = sum_{n>=1} d_n s^n controls everything here:

* criticality: m f(1) < 1, = 1, > 1 (sub / critical / super),
* the decay parameter R solving m f(R) = 1 with rho = 1/R, alpha = ln rho,
* beta = m R f'(R), the inner product of the eigenpair,
* u(x) = (1+m) sum_{n>=1} R^n K^n(x, E) and nu = (m/(1+m)) gamma K^(R), with
  M u = rho u, nu M = rho nu, nu(E) = 1, gamma(u) = (1+m)/m, nu(u) = beta.

R is the root of g(u) = log(m f(e^u)), found by Newton's method. g is a
log-sum of e^{nu} with nonnegative weights, hence convex and increasing: from
the right of the root the iterates decrease monotonically to it, and a step
from the left lands on its right unless halved. The iterate is kept as
s = e^u, s <- s exp(-g f/(s f'(s))), so R has full relative precision at any
scale; a step to where f is infinite (past R_*, or overflow) is halved. A
critical |m f(1) - 1| <= 1e-10 gives R = 1 exactly.

In the finite family R_* = 1/rho for the largest Perron root rho over the
strongly connected classes that gamma reaches (eigenvalues per class; 0 when
no class has a cycle), and d_n >= c rho^n makes f(R_*) infinite; in the exp
family R_* is infinite and f unbounded. So m f(R) = 1 has a root R < R_*,
with f'(R) finite, unless f = 0: R-null cannot occur and R-transient means
degenerate. A root that float64 cannot resolve, |m f(R) - 1| > 64 eps
max(1, beta) (say m so small that R rounds onto R_*), raises a ValueError
naming m. Power iteration on M is an independent cross-oracle for 1/R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hypoexp
from .evolution import evolve
from .measures import MixtureMeasure, VectorMeasure
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
# life length law
# ---------------------------------------------------------------------------

class LifeLengthLaw:
    """Tail sequence d_n, generating function f, and samplers for L.

    P(L > n) = d_n with d_0 = 1; P(L >= 1) = 1 always. E L = 1 + f(1).
    """

    def __init__(self, triplet: LFTriplet):
        self.triplet = triplet
        self.family = triplet.family
        self._d = triplet.d_sequence(64)
        if self.family == FAMILY_FINITE:
            # K and gamma on the gamma-reachable states, where f lives
            reach, paths = _reachable(triplet.K, np.flatnonzero(triplet.gamma_vector > 0))
            self._K = triplet.K[np.ix_(reach, reach)]
            self._gam = triplet.gamma_vector[reach]
            self._rho_reach = _perron_root(self._K, paths)

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
        """Radius of convergence R_* of f.

        Exponential family: the coefficients decay factorially, so R_* is
        infinite. Finite family: 1 / (Perron root of K restricted to the
        gamma-reachable states); infinite when that block is nilpotent.
        """
        if self.family == FAMILY_EXP or self._rho_reach == 0.0:
            return math.inf
        return 1.0 / self._rho_reach

    def f_eval(self, s: float) -> float:
        """f(s) = sum_{n>=1} d_n s^n; math.inf at or beyond the radius.

        Finite family: f(s) = s gamma (I - sK)^{-1} K 1, with no cancellation
        at small s. gamma reaches a class with Perron root rho = 1/R_*, so
        d_n >= c rho^n and the series diverges at R_* (Perron-Frobenius).
        """
        if s < 0:
            raise ValueError("s must be nonnegative")
        if self.family == FAMILY_FINITE:
            if s >= self.radius():
                return math.inf
            w = np.linalg.solve(np.eye(len(self._gam)) - s * self._K, self._K.sum(axis=1))
            return s * float(self._gam @ w)
        return self._exp_series(s, derivative=False)

    def f_derivative(self, s: float) -> float:
        """f'(s); math.inf when the series for f' diverges at s."""
        if s < 0:
            raise ValueError("s must be nonnegative")
        if s == 0.0:
            return float(self.tails(1)[1])
        if self.family == FAMILY_FINITE:
            if s >= self.radius():
                return math.inf
            A = np.eye(len(self._gam)) - s * self._K     # f'(s) = gamma A^{-2} K 1
            return float(self._gam @ np.linalg.solve(A, np.linalg.solve(A, self._K.sum(axis=1))))
        return self._exp_series(s, derivative=True)

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

    # -- internals ------------------------------------------------------------

    def _exp_series(self, s: float, derivative: bool) -> float:
        t: ExpFamilyTriplet = self.triplet
        lam, mu = t.lam, t.mu
        term = s * mu / (mu + 1.0)  # d_1 s
        total = term if not derivative else term / s
        for n in range(1, 100000):
            ratio = s * (lam / (lam + n)) * ((mu + n) / (mu + n + 1.0))
            term *= ratio
            inc = term if not derivative else (n + 1) / s * term
            total += inc
            if not math.isfinite(total):
                return math.inf
            if abs(inc) < 1e-17 * max(abs(total), 1e-300) and ratio < 0.5:
                break
        return total


def _paths(K: np.ndarray) -> np.ndarray:
    """Boolean matrix: j is reachable from i in one or more steps of K."""
    reach = K > 0.0
    for _ in range(max(K.shape[0] - 1, 0).bit_length()):   # path length 2^k >= d
        reach |= (reach.astype(float) @ reach.astype(float)) > 0.0
    return reach


def _reachable(K: np.ndarray, start: np.ndarray):
    """States reachable from ``start`` (included) along positive entries of K,
    and the path closure on them, which is that of the restricted block."""
    paths = _paths(K)
    seen = paths[start].any(axis=0)
    seen[start] = True
    reach = np.flatnonzero(seen)
    return reach, paths[np.ix_(reach, reach)]


def _perron_root(K: np.ndarray, paths: np.ndarray) -> float:
    """Spectral radius of a nonnegative K: the largest Perron root of its classes.

    A strongly connected class is a set of mutually reachable states (in the
    path closure ``paths``) on a cycle. States on no cycle contribute 0, so a
    nilpotent K gives exactly 0; on a class the Perron root is a simple
    eigenvalue, found by eigvals.
    """
    rho = 0.0
    for i in np.flatnonzero(np.diag(paths)):
        cls = np.flatnonzero(paths[i] & paths[:, i])
        if cls[0] == i:                    # each class once, at its first state
            rho = max(rho, float(np.abs(np.linalg.eigvals(K[np.ix_(cls, cls)])).max()))
    return rho


# ---------------------------------------------------------------------------
# power iteration (independent Perron-root oracle)
# ---------------------------------------------------------------------------

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

def k_resolvent_mass(triplet: LFTriplet, x, s: float) -> float:
    """K^(s)(x, E) = sum_n s^n K^n(x, E); math.inf where the series diverges."""
    return 1.0 + _resolvent_excess(triplet, x, s)


def _resolvent_excess(triplet: LFTriplet, x, s: float) -> float:
    """sum_{n>=1} s^n K^n(x, E), free of cancellation; math.inf where it diverges."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    x = triplet.validate_point(x)
    if triplet.family == FAMILY_FINITE:
        reach, paths = _reachable(triplet.K, np.array([x]))
        sub = triplet.K[np.ix_(reach, reach)]
        rho = _perron_root(sub, paths)
        if rho > 0 and s >= 1.0 / rho:
            return math.inf
        w = np.linalg.solve(np.eye(len(reach)) - s * sub, s * sub.sum(axis=1))
        return float(w[int(np.flatnonzero(reach == x)[0])])
    lam = triplet.lam
    total, term = 0.0, 1.0
    for n in range(100000):
        term *= s * lam / (lam + n) * math.exp(-x)
        total += term
        if term <= 1e-17 * total:
            break
    return total


def gamma_resolvent(triplet: LFTriplet, s: float):
    """gamma K^(s) = sum_{r>=0} s^r integral K^r(y, .) gamma(dy), s below the radius.

    Finite family: the vector gamma^T (I - sK)^{-1}, solved on the
    gamma-reachable class (zero elsewhere) so that an unreachable block with
    a larger Perron root cannot make the solve singular. Exponential family:
    the mixture with weights s^r d_r on Exp(mu+r) + chain(lambda, r),
    truncated at a certified tail below 1e-16.
    """
    if triplet.family == FAMILY_FINITE:
        K, gam = triplet.K, triplet.gamma_vector
        reach, _ = _reachable(K, np.flatnonzero(gam > 0))
        sub = K[np.ix_(reach, reach)]
        out = np.zeros(K.shape[0])
        out[reach] = np.linalg.solve(np.eye(len(reach)) - s * sub.T, gam[reach])
        return VectorMeasure(out)
    law = LifeLengthLaw(triplet)
    n = 8
    d = law.tails(n)
    while d[-1] * s ** (len(d) - 1) > 1e-16 and n < 4096:
        n *= 2
        d = law.tails(n)
    coef = d * np.power(s, np.arange(len(d)))
    keep = int(np.max(np.flatnonzero(coef > 1e-17 * coef.sum()))) + 1
    return MixtureMeasure(coef[:keep], [
        hypoexp.gamma_chain_law(triplet.lam, triplet.mu, r) for r in range(keep)])


def NuMeasure(triplet: LFTriplet, R: float):
    """Left eigen-measure nu(A) = (m/(1+m)) integral of K^(R)(y, A) gamma(dy)."""
    return (triplet.m / (1.0 + triplet.m)) * gamma_resolvent(triplet, R)


@dataclass
class Eigenpair:
    """Right function u, left measure nu, and their inner product beta."""

    triplet: LFTriplet
    summary: SpectralSummary
    nu: VectorMeasure | MixtureMeasure
    u_vector: np.ndarray | None = None  # finite family

    def u(self, x) -> float:
        """u(x) = (1+m) sum_{n>=1} R^n K^n(x, E); infinite outside E_R."""
        return (1.0 + self.triplet.m) * _resolvent_excess(self.triplet, x, self.summary.R)

    @property
    def beta(self) -> float:
        return self.summary.beta

    def u_gamma_integral(self) -> float:
        """gamma(u); identity value (1+m)/m."""
        t = self.triplet
        if t.family == FAMILY_FINITE:
            return float(t.gamma_vector @ self.u_vector)
        return t.gamma.integrate(self.u)

    def u_nu_integral(self) -> float:
        """nu(u); identity value beta. Exact double series in the exp family."""
        t = self.triplet
        if t.family == FAMILY_FINITE:
            return float(self.nu.vector @ self.u_vector)
        R, lam, m = self.summary.R, t.lam, t.m
        c = t.c_sequence(256)
        acc = 0.0
        for w, comp in zip(self.nu.weights, self.nu.components):
            inner, term = 0.0, 1.0
            for j in range(1, len(c)):
                term = (R * lam / (lam + j - 1.0)) * term
                inc = term * comp.mgf_neg(float(j))
                inner += inc
                if inc < 1e-17 * max(inner, 1e-300):
                    break
            acc += w * (1.0 + m) * inner
        return float(acc)


def eigen_build(triplet: LFTriplet, summary: SpectralSummary | None = None) -> Eigenpair:
    """Construct (u, nu, beta) for an R-positive triplet."""
    if summary is None:
        summary = classify(triplet)
    if summary.recurrence == R_TRANSIENT:
        raise ValueError("eigenpair requires an R-positive process")
    pair = Eigenpair(triplet, summary, NuMeasure(triplet, summary.R))
    if triplet.family == FAMILY_FINITE:
        pair.u_vector = np.array([pair.u(x) for x in range(triplet.d)])
    return pair


def eigen_residuals(triplet: LFTriplet, pair: Eigenpair, grid=None) -> dict:
    """Residuals of the eigen relations, for tests and reports.

    Returns max |(M u)(x) - rho u(x)| / max u over the grid, and the
    corresponding left residual against indicator probes (continuous) or the
    full vector (finite).
    """
    rho = pair.summary.rho
    t = triplet
    if t.family == FAMILY_FINITE:
        M = t.M
        u = pair.u_vector
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


def pf_limit_check(triplet: LFTriplet, x, n_max: int = 40) -> list[PFLimitRow]:
    """Tabulate R^n M^n(x, E) against u(x) nu(E) / beta for n = 1..n_max."""
    summary = classify(triplet)
    pair = eigen_build(triplet, summary)
    R = summary.R
    limit = pair.u(x) * pair.nu.mass() / summary.beta
    rows = []
    if triplet.family == FAMILY_FINITE:
        x = triplet.validate_point(x)
        v = np.ones(triplet.d)
        M = triplet.M
        for n in range(1, n_max + 1):
            v = R * (M @ v)
            scaled = float(v[x])
            rows.append(PFLimitRow(n, scaled, limit, abs(scaled - limit) / abs(limit)))
    else:
        for n in range(1, n_max + 1):
            scaled = R ** n * evolve(triplet, n).mn_mass(x)
            rows.append(PFLimitRow(n, scaled, limit, abs(scaled - limit) / abs(limit)))
    return rows


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
