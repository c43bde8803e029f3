"""Limit-theorem verifiers and statistical diagnostics.

One verifier serves the three regimes. It builds the exact finite-n
quantities from the evolution engine on an n-grid and takes the value at the
last grid point as the measured limit; only the critical rows are
Richardson-extrapolated, and only when the last grid point doubles the one
before. It compares that limit against two candidate constants wherever
they disagree:

* ``derived``: the constant implied by the eigenpair identities
  (gamma(u) = (1+m)/m, nu(u) = beta) together with the Perron asymptotics
  M^n(x, E) ~ rho^n u(x) / beta.
* ``printed``: the same expression with an extra factor beta, kept so a
  report can state both and say which one the exact engine certifies.

For the scaled-survival limits the two genuinely differ (beta > 1 whenever
the life length can exceed one generation), so the verifiers certify one
and refute the other instead of averaging the disagreement away.

Also here: the renewal-sequence utility c_n = b_n + sum a_k c_{n-k} with
its limit b(1)/a'(1), two-sample and one-sample Kolmogorov-Smirnov tests,
and a chi-square test against the shifted-geometric conditional law. The
named probes that turn measures into scalars live in ``measures`` and are
re-exported here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import RegimeError
from .evolution import evolve, survival_prob
from .measures import probe
from .recursions import renewal
from .simulate import DEFAULT_CAP, bgw_sample
from .spectral import (CRITICAL, SUBCRITICAL, SUPERCRITICAL, NuMeasure,
                       classify, eigen_build, gamma_resolvent)
from .typespace import LFTriplet

KS_MIN = 100          # below this a KS p-value is not worth reporting
YAGLOM_MIN = 500      # conditioned-sample floor for a Yaglom verdict
_CONV_REL = 1e-3       # three successive grid values within this = converged

REPORT_SCHEMA = "lfbp.limit-report/2"


# ---------------------------------------------------------------------------
# sampling diagnostics
# ---------------------------------------------------------------------------

def _ks_pvalue(d: float, en: float) -> float:
    # asymptotic Kolmogorov tail with the small-sample correction factor
    from scipy import special
    return float(special.kolmogorov((en + 0.12 + 0.11 / en) * d))


def ks_two_sample(x, y) -> tuple[float, float]:
    """KS statistic and asymptotic p-value for two samples.

    Works on discrete data too, where the p-value is conservative. Requires
    at least 100 points on each side; fewer would make the asymptotic tail
    meaningless, so that is an error rather than a weak answer.
    """
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    n1, n2 = len(x), len(y)
    if min(n1, n2) < KS_MIN:
        raise ValueError(f"need >= {KS_MIN} samples per side, got {n1} and {n2}")
    grid = np.concatenate([x, y])
    c1 = np.searchsorted(x, grid, side="right") / n1
    c2 = np.searchsorted(y, grid, side="right") / n2
    d = float(np.max(np.abs(c1 - c2)))
    en = math.sqrt(n1 * n2 / (n1 + n2))
    return d, _ks_pvalue(d, en)


def ks_one_sample(values, cdf) -> tuple[float, float]:
    """KS statistic and p-value of a sample against a continuous cdf."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    if n < KS_MIN:
        raise ValueError(f"need >= {KS_MIN} samples, got {n}")
    c = np.asarray(cdf(v), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - c)
    down = np.max(c - np.arange(0, n) / n)
    d = float(max(up, down))
    return d, _ks_pvalue(d, math.sqrt(n))


def chi_square_geometric(values, m_n: float) -> tuple[float, int, float]:
    """Chi-square test of conditioned counts against 1 + Geometric(m_n).

    ``values`` are Z_n draws given survival (all >= 1). Cells with expected
    count below 5 are pooled into the tail. Returns (stat, dof, p).
    """
    v = np.asarray(values, dtype=np.int64)
    if len(v) < KS_MIN:
        raise ValueError(f"need >= {KS_MIN} conditioned samples, got {len(v)}")
    if np.any(v < 1):
        raise ValueError("conditioned sample contains zeros")
    n = len(v)
    q = m_n / (1.0 + m_n)
    # P(Z = k | Z > 0) = q^(k-1) / (1 + m_n); tail P(Z > k) = q^k
    kmax = 1
    while n * (q ** kmax) >= 5.0 and kmax < 10_000:
        kmax += 1
    expected = [n * (q ** (k - 1)) / (1.0 + m_n) for k in range(1, kmax + 1)]
    expected.append(n * q ** kmax)
    counts = np.bincount(np.minimum(v, kmax + 1), minlength=kmax + 2)[1:]
    obs = counts.astype(float)
    exp = np.asarray(expected)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(exp) - 1
    from scipy import special
    return stat, dof, float(special.chdtrc(dof, stat))


def mc_mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise ValueError("need at least 2 values")
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


def detect_convergence(values, rel: float = _CONV_REL) -> tuple[bool, int | None]:
    """First index where three successive values agree to relative ``rel``.

    Reported, never silently asserted: callers put the flag in the report
    and let the verdict row carry the actual tolerance check.
    """
    v = [float(t) for t in values]
    for i in range(2, len(v)):
        ref = max(abs(v[i]), 1e-300)
        if abs(v[i] - v[i - 1]) <= rel * ref and abs(v[i] - v[i - 2]) <= rel * ref:
            return True, i
    return False, None


def richardson(a_n: float, a_2n: float) -> float:
    """2 a(2n) - a(n); cancels the 1/n term of a first-order expansion."""
    return 2.0 * a_2n - a_n


# ---------------------------------------------------------------------------
# renewal utility
# ---------------------------------------------------------------------------

@dataclass
class RenewalSequences:
    a: np.ndarray            # coefficients a_1..a_p
    b: np.ndarray            # coefficients b_0..b_q
    c: np.ndarray            # c_0..c_{n_max}
    limit: float             # b(1) / a'(1)
    period: int              # gcd of the support of a
    tail_deviation: float    # max |c_k - limit| over the last few entries
    converged: bool

    def as_dict(self) -> dict:
        return {"limit": self.limit, "period": self.period,
                "tail_deviation": self.tail_deviation,
                "converged": self.converged,
                "c_tail": [float(t) for t in self.c[-5:]]}


def renewal_sequence(a, b, n_max: int, rel: float = _CONV_REL) -> RenewalSequences:
    """Solve c_n = b_n + sum_{k>=1} a_k c_{n-k} and report its limit.

    ``a`` starts at lag 1 and must be a probability vector; ``b`` starts at
    lag 0. The limit b(1)/a'(1) only attracts when the support of ``a`` is
    aperiodic; a gcd > 1 is flagged and warned about, and the oscillating
    tail shows up in ``tail_deviation``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not all(np.all(np.isfinite(v) & (v >= 0.0)) for v in (a, b)):
        raise ValueError("renewal coefficients must be finite and nonnegative")
    if abs(a.sum() - 1.0) > 1e-12:
        raise ValueError(f"a must sum to 1 (got {a.sum()!r})")
    support = np.flatnonzero(a > 0.0) + 1
    if len(support) == 0:
        raise ValueError("a has empty support")
    period = int(np.gcd.reduce(support))
    if period > 1:
        warnings.warn(f"renewal support has period {period}; c_n oscillates "
                      "and the mean limit only holds along subsequences",
                      RuntimeWarning, stacklevel=2)
    c, scale = renewal(a, b, n_max)
    c /= scale
    limit = float(b.sum() / (a @ np.arange(1, len(a) + 1)))
    window = c[-min(8, n_max + 1):]
    tail_dev = float(np.max(np.abs(window - limit)))
    conv, _ = detect_convergence(c[::max(1, n_max // 16)], rel)
    return RenewalSequences(a, b, c, limit, period, tail_dev,
                            conv and period == 1)


# ---------------------------------------------------------------------------
# limit-triplet measures
# ---------------------------------------------------------------------------

def limit_triplet_measures(t: LFTriplet, R: float, f1: float, mf1: float):
    """(gamma_tilde, kappa_tilde) of the subcritical conditional limit law.

    gamma_tilde averages the resolvent at 1 and normalizes by 1 + f(1);
    kappa_tilde is the difference of resolvents at R and 1 scaled to mass
    one. Both are ancestor-independent.
    """
    at1 = gamma_resolvent(t, 1.0)
    gamma_tilde = (1.0 / (1.0 + f1)) * at1
    kappa_tilde = (t.m / (1.0 - mf1)) * (gamma_resolvent(t, R) - at1)
    return gamma_tilde, kappa_tilde


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRow:
    """One verdict line: a measured value against a target at a tolerance."""

    name: str
    target: float | None
    value: float | None
    tol: float
    passed: bool | None          # None = not evaluated (e.g. low power)
    kind: str = "exact"          # exact | mc | refutation
    sample_size: int | None = None
    se: float | None = None
    note: str = ""
    statistic: float | None = None   # KS distance; the note states it rounded

    def as_dict(self) -> dict:
        out = {"name": self.name, "target": self.target, "value": self.value,
               "tol": self.tol, "passed": self.passed, "kind": self.kind}
        if self.sample_size is not None:
            out["sample_size"] = self.sample_size
        if self.se is not None:
            out["se"] = self.se
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class LimitReport:
    """Exact finite-n rows, extrapolated limits, and per-check verdicts."""

    regime: str
    constants: dict
    tests: list[CheckRow]
    n_grid: list[int]
    rows: dict = field(default_factory=dict)
    converged: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def passed(self) -> bool:
        return all(r.passed for r in self.tests if r.passed is not None)

    def as_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, "regime": self.regime,
                "constants": self.constants,
                "tests": [r.as_dict() for r in self.tests],
                "n_grid": list(self.n_grid),
                "rows": {k: [float(t) for t in v] for k, v in self.rows.items()},
                "converged": self.converged, "notes": self.notes}


def _withheld(name: str, target: float, size: int) -> list[CheckRow]:
    """The only row of a Monte Carlo check with fewer than YAGLOM_MIN samples."""
    return [CheckRow(name, target, None, 0.0, None, kind="mc",
                     sample_size=size, note="insufficient power")]


def _ks_row(name: str, sample, cdf) -> CheckRow:
    """One-sample KS row against ``cdf``; passes at p > 0.01."""
    d, p = ks_one_sample(sample, cdf)
    return CheckRow(name, 0.01, p, 0.0, p > 0.01, kind="mc",
                    sample_size=len(sample), note=f"ks statistic {d:.5f}",
                    statistic=d)


# ---------------------------------------------------------------------------
# regime verifiers
# ---------------------------------------------------------------------------

def yaglom_sample(triplet: LFTriplet, n: int, reps: int, seed: int,
                  w: str = "const", workers: int = 1,
                  cap: int = DEFAULT_CAP) -> np.ndarray:
    """Per-replicate values of sum of w over generation n (zeros included).

    Each replicate runs BGW to generation n, stopping at extinction; a
    constant probe scales the count Z_n, a typed one sums w over the points.
    Block b of BLOCK replicates uses stream (seed, b), so the result does
    not depend on workers; a replicate past ``cap`` raises PopulationCapError.
    """
    return bgw_sample(triplet, n, reps, seed, w=getattr(w, "spec", w),
                      workers=workers, cap=cap)[:, 1]


def conditioned_scaled_sample(triplet: LFTriplet, R: float, n: int,
                              scale: float, reps: int, seed: int | None,
                              w: str = "const", workers: int = 1) -> np.ndarray:
    """Sum of w over generation n, over scale nu(w), for replicates with Z_n > 0.

    nu is the eigenmeasure at the convergence radius ``R``; ``scale`` is n
    when critical and rho^n when supercritical. A survivor whose sum of w is
    0 stays in the sample. nu(w) must be positive.
    """
    if seed is None:
        raise ValueError("a seed is required for the Monte Carlo check")
    p = probe(w) if isinstance(w, str) else w
    nu_w = p.apply(NuMeasure(triplet, R))
    if not nu_w > 0.0:
        raise ValueError(f"--w {p.spec}: nu(w) = {nu_w!r} must be positive")
    zw = bgw_sample(triplet, n, reps, seed, w=p.spec, workers=workers)
    return zw[zw[:, 0] > 0, 1] / (scale * nu_w)


def yaglom_rows(triplet: LFTriplet, summary, n: int, reps: int,
                seed: int | None, w: str = "const", workers: int = 1):
    """The critical Yaglom check at generation n: (sample mean or None, rows).

    The sample is the surviving replicates of sum of w, scaled by n nu(w).
    Rows: its mean within 3 se of (1+m)/beta, the printed mean 1+m refuted
    when 3 se separate the two, and KS against Exp(mean (1+m)/beta); below
    YAGLOM_MIN samples a single withheld row. Every row's sample_size is the
    number of surviving replicates.
    """
    cond = conditioned_scaled_sample(triplet, summary.R, n, n, reps, seed, w,
                                     workers)
    derived, printed = (1.0 + triplet.m) / summary.beta, 1.0 + triplet.m
    measured = float(cond.mean()) if len(cond) else None
    if len(cond) < YAGLOM_MIN:
        return measured, _withheld("yaglom scaled mean", derived, len(cond))
    mean, se = mc_mean_se(cond)
    rows = [CheckRow("yaglom scaled mean (3 se)", derived, mean, 3.0 * se,
                     abs(mean - derived) <= 3.0 * se, kind="mc",
                     sample_size=len(cond), se=se)]
    if abs(printed - derived) > 3.0 * se:
        rows.append(CheckRow("yaglom mean refutes printed 1+m", printed, mean,
                             3.0 * se, abs(mean - printed) > 3.0 * se,
                             kind="refutation", sample_size=len(cond), se=se))
    rows.append(_ks_row("yaglom KS vs Exp(derived mean), p > 0.01", cond,
                        lambda v: 1.0 - np.exp(-np.asarray(v) / derived)))
    return measured, rows


class _Verifier:
    """One limit-theorem verifier: shared setup, row bookkeeping, and the
    exact and Monte Carlo checks of each regime."""

    def __init__(self, triplet: LFTriplet, x, summary, regime: str, n_grid,
                 tol: float):
        if summary.criticality != regime:
            raise RegimeError(f"triplet is {summary.criticality}, "
                              f"verifier needs {regime}")
        self.t, self.x, self.s, self.tol = triplet, x, summary, tol
        self.ux = eigen_build(triplet, summary).u(x)
        if not math.isfinite(self.ux):
            raise ValueError(f"--x {x}: u(x) is infinite, since x reaches a class "
                             "whose Perron root is at least rho; the limit "
                             "theorems do not scale there")
        if n_grid is None:
            n_grid = ((25, 50, 100, 200, 400, 800) if regime == CRITICAL
                      else (10, 20, 30, 40, 50, 60))
        g = self.n_grid = sorted(int(n) for n in n_grid)
        # the grid rule: non-empty, n >= 1, R^n and rho^n finite in float64
        if not g:
            raise ValueError("--grid needs at least one n")
        if g[0] < 1:
            raise ValueError(f"--grid n = {g[0]}: every n must be >= 1")
        depth = g[-1] * abs(math.log(summary.R))
        if not depth < 700.0:
            raise ValueError(f"--grid n = {g[-1]}: R^n leaves float64 range "
                             f"(n |ln R| = {depth:.4g}, must be < 700)")
        # the 1/n Richardson step suits only the critical expansion
        self.richardson = (regime == CRITICAL and len(g) >= 2
                           and g[-1] == 2 * g[-2])
        self.report = LimitReport(regime, {}, [], g)

    def exact(self, row: str, constant: str, name: str, values: list,
              derived: float, printed: float | None = None,
              absolute: bool = False):
        """Record an exact row, its measured limit and its verdict rows.

        A printed variant also gets a row refuting it where 10 tol separates
        it from ``derived``. Tolerances scale with max(1, |derived|) unless
        ``absolute``.
        """
        rep, tol = self.report, self.tol
        rep.rows[row] = values
        rep.converged[row] = detect_convergence(values)[0]
        measured = (richardson(values[-2], values[-1]) if self.richardson
                    else values[-1])
        rep.constants[constant] = {
            "printed": derived if printed is None else printed,
            "derived": derived, "measured": measured}
        scale = 1.0 if absolute else max(1.0, abs(derived))
        rep.tests.append(CheckRow(
            name if printed is None else f"{name} matches derived constant",
            derived, measured, tol, abs(measured - derived) <= tol * scale))
        if printed is None:
            return
        separable = 10.0 * tol * scale
        if abs(printed - derived) <= separable:
            verb, passed, note = ("printed constant indistinguishable", None,
                                  "printed and derived coincide here")
        else:
            verb, passed, note = ("refutes printed constant",
                                  abs(measured - printed) > separable,
                                  "pass means the printed value is excluded")
        rep.tests.append(CheckRow(f"{name} {verb}", printed, measured, tol,
                                  passed, kind="refutation", note=note))

    def monte_carlo(self, rows: list[CheckRow], check: str):
        """Append Monte Carlo rows; a withheld verdict also gets a note."""
        self.report.tests += rows
        if rows[0].passed is None:
            self.report.notes.append(
                f"insufficient power: {rows[0].sample_size} conditioned "
                f"samples < {YAGLOM_MIN}; {check} verdict withheld")

    def subcritical(self, probes) -> LimitReport:
        t, x, s = self.t, self.x, self.s
        m, R, f1, mf1 = t.m, s.R, s.f1, s.mf1
        surv_limit = (1.0 - mf1) * self.ux / ((1.0 + m) * s.beta)
        m_tilde = m * (1.0 + f1) / (1.0 - mf1)
        gamma_tilde, kappa_tilde = limit_triplet_measures(t, R, f1, mf1)
        probes = [probe(p) if isinstance(p, str) else p for p in probes]

        scaled, mns = [], []
        cond = {p.spec: [] for p in probes}
        for n in self.n_grid:
            law = evolve(t, n)
            scaled.append(law.survival(x) * R ** n)  # rho^-n = R^n
            mns.append(law.m_n)
            for p in probes:  # E[prod h(child types) | Z_n > 0]
                denom = 1.0 + law.m_n - law.m_n * p.apply(law.gamma_n)
                cond[p.spec].append(p.apply(law.kn_measure(x))
                                    / (law.survival(x) * denom))

        self.exact("n_survival_scaled", "survival_scale",
                   "rho^-n survival -> (1-mf(1)) u / ((1+m) beta)", scaled,
                   surv_limit, absolute=True)
        self.exact("m_n", "limit_mean", "m_n -> m(1+f(1))/(1-mf(1))", mns,
                   m_tilde)
        mass = kappa_tilde.mass()
        self.report.tests.append(CheckRow("limit kernel has mass one", 1.0,
                                          mass, 1e-9, abs(mass - 1.0) <= 1e-9))
        for p in probes:
            denom = 1.0 + m_tilde - m_tilde * p.apply(gamma_tilde)
            key = f"conditional:{p.spec}"
            self.exact(key, key, f"conditional functional at {p.spec}",
                       cond[p.spec], p.apply(kappa_tilde) / denom,
                       absolute=True)
        return self.report

    def critical(self, w, reps, seed, workers) -> LimitReport:
        t, x, m, s = self.t, self.x, self.t.m, self.s
        self.exact("n_survival", "n_survival", "n * survival",
                   [n * survival_prob(t, x, n) for n in self.n_grid],
                   self.ux / (1.0 + m), printed=s.beta * self.ux / (1.0 + m))
        self.exact("m_n_over_n", "mean_slope", "m_n / n -> (1+m)/beta",
                   [evolve(t, n).m_n / n for n in self.n_grid],
                   (1.0 + m) / s.beta)
        yag = self.report.constants["yaglom_mean"] = {
            "printed": 1.0 + m, "derived": (1.0 + m) / s.beta, "measured": None}
        if reps > 0:
            yag["measured"], rows = yaglom_rows(t, s, self.n_grid[-1], reps,
                                                seed, w, workers)
            self.monte_carlo(rows, "Yaglom")
        return self.report

    def supercritical(self, w, reps, seed, workers) -> LimitReport:
        t, x, m = self.t, self.x, self.t.m
        beta, R, rho = self.s.beta, self.s.R, self.s.rho
        surv_derived = (rho - 1.0) * self.ux / (1.0 + m)
        mass_derived = (1.0 + m) / (beta * (rho - 1.0))
        rate_derived = 1.0 / mass_derived
        self.exact("survival", "survival", "survival limit",
                   [survival_prob(t, x, n) for n in self.n_grid], surv_derived,
                   printed=beta * surv_derived)
        self.exact("mn_scaled", "mn_scaled",
                   "rho^-n m_n -> (1+m)/(beta (rho-1))",
                   [evolve(t, n).m_n * R ** n for n in self.n_grid],
                   mass_derived)
        tail = self.report.constants["tail_rate"] = {
            "printed": rate_derived, "derived": rate_derived, "measured": None}
        if reps <= 0:
            return self.report
        # expected particle-generations per replicate ~ growth rho^(n+1)/(rho-1);
        # clamp n so the whole run stays near a fixed work budget of 5e7
        growth = (1.0 + m) / (m * beta)
        n_star = self.n_grid[-1]
        while n_star > 4 and reps * growth * rho ** (n_star + 1) / (rho - 1.0) > 5e7:
            n_star -= 1
        if n_star < self.n_grid[-1]:
            self.report.notes.append(f"tail check run at n = {n_star} to keep "
                                     "the simulation budget bounded")
        cond = conditioned_scaled_sample(t, R, n_star, rho ** n_star, reps,
                                         seed, w, workers)
        if len(cond) < YAGLOM_MIN:
            rows = _withheld("tail rate", rate_derived, len(cond))
        else:
            mean, se = mc_mean_se(cond)
            rate = tail["measured"] = 1.0 / mean
            rate_se = se / mean ** 2     # delta method
            rows = [CheckRow("tail rate matches derived (4 se)", rate_derived,
                             rate, 4.0 * rate_se,
                             abs(rate - rate_derived) <= 4.0 * rate_se,
                             kind="mc", sample_size=len(cond), se=rate_se),
                    _ks_row("tail KS vs fitted exponential, p > 0.01", cond,
                            lambda u: 1.0 - np.exp(-rate * np.asarray(u)))]
        self.monte_carlo(rows, "tail")
        return self.report


def limit_subcritical(triplet: LFTriplet, x, n_grid=None,
                      probes=("const:0.6",), tol: float = 1e-3) -> LimitReport:
    """Verify the three subcritical limits on an exact n-grid.

    (i) rho^{-n} P_x(Z_n > 0) -> (1 - m f(1)) u(x) / ((1+m) beta);
    (ii) m_n -> m (1 + f(1)) / (1 - m f(1));
    (iii) the conditional law converges to the limit triplet, checked
    through E[prod h | Z_n > 0] at the given probes.
    """
    return _Verifier(triplet, x, classify(triplet), SUBCRITICAL, n_grid,
                     tol).subcritical(probes)


def limit_critical(triplet: LFTriplet, x, n_grid=None, w: str = "const",
                   reps: int = 0, seed: int | None = None, workers: int = 1,
                   tol: float = 1e-3) -> LimitReport:
    """Verify the critical limits; Monte Carlo Yaglom check when reps > 0.

    (i) n P_x(Z_n > 0) -> u(x)/(1+m) (the printed beta-bearing variant is
    refuted) and (ii) m_n / n -> (1+m)/beta, both Richardson-extrapolated
    when the last grid point doubles the one before;
    (iii) sum of w over generation n, scaled by n nu(w) and conditioned on
    survival, is asymptotically exponential. The derived mean is
    (1+m)/beta; the printed mean 1+m is reported alongside.
    """
    return _Verifier(triplet, x, classify(triplet), CRITICAL, n_grid,
                     tol).critical(w, reps, seed, workers)


def limit_supercritical(triplet: LFTriplet, x, n_grid=None, w: str = "const",
                        reps: int = 0, seed: int | None = None,
                        workers: int = 1, tol: float = 1e-3) -> LimitReport:
    """Verify the supercritical limits; Monte Carlo tail check when reps > 0.

    (i) P_x(Z_n > 0) -> (rho - 1) u(x) / (1+m) (printed beta-bearing
    variant refuted); (ii) rho^{-n} m_n -> (1+m)/(beta (rho - 1));
    (iii) the scaled conditioned population sum of w over rho^n nu(w) has
    an exponential tail whose rate is selected empirically and compared to
    the derived beta (rho - 1)/(1+m).
    """
    return _Verifier(triplet, x, classify(triplet), SUPERCRITICAL, n_grid,
                     tol).supercritical(w, reps, seed, workers)


def limit_report(triplet: LFTriplet, x, n_grid=None, tol: float = 1e-3,
                 probes=("const:0.6",), w: str = "const", reps: int = 0,
                 seed: int | None = None, workers: int = 1) -> LimitReport:
    """Classify once and run the verifier of the triplet's regime.

    ``probes`` reach only the subcritical verifier; the Monte Carlo
    arguments (w, reps, seed, workers) only the other two.
    """
    summary = classify(triplet)
    v = _Verifier(triplet, x, summary, summary.criticality, n_grid, tol)
    if summary.criticality == SUBCRITICAL:
        return v.subcritical(probes)
    mc = v.critical if summary.criticality == CRITICAL else v.supercritical
    return mc(w, reps, seed, workers)
