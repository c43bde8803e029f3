"""Quadrature, hypoexponential laws, and seed-stream plumbing."""

import math
import time

import numpy as np
import pytest

from lfbp import quadrature, streams
from lfbp.cli import main
from lfbp.errors import QuadratureError
from lfbp.evolution import evolve
from lfbp.hypoexp import Hypoexp, Uniformized, chain_law, gamma_chain_law
from lfbp.measures import MixtureMeasure
from lfbp.spectral import LifeLengthLaw
from lfbp.typespace import make_exp_triplet


# -- quadrature ---------------------------------------------------------------


def test_integrate_polynomial_exact():
    val = quadrature.integrate(lambda x: x ** 3, 0.0, 1.0)
    assert abs(val - 0.25) < 1e-14


def test_integrate_sine():
    val = quadrature.integrate(np.sin, 0.0, math.pi, tol=1e-12)
    assert abs(val - 2.0) < 1e-11


def test_integrate_empty_interval():
    assert quadrature.integrate(lambda x: x, 1.0, 1.0) == 0.0
    assert quadrature.integrate(lambda x: x, 2.0, 1.0) == 0.0


def test_integrate_raises_on_unresolvable_jump():
    # a discontinuity inside a panel stalls the doubling refinement
    with pytest.raises(QuadratureError) as exc:
        quadrature.integrate(lambda x: np.where(x < np.e / 3.0, 0.0, 1.0),
                             0.0, 1.0, tol=1e-15, panels=3)
    assert exc.value.err_est > exc.value.tol
    assert 0.0 < exc.value.value < 1.0


def test_exp_weighted_moments():
    assert abs(quadrature.exp_weighted(lambda t: np.ones_like(t), 1.7) - 1.0) < 1e-10
    assert abs(quadrature.exp_weighted(lambda t: t, 2.5) - 1.0 / 2.5) < 1e-10


def test_exp_weighted_rejects_bad_rate():
    with pytest.raises(ValueError):
        quadrature.exp_weighted(lambda t: t, 0.0)


def test_density_weighted_break_restores_accuracy():
    # indicator against an Exp(rate) density: exact mass 1 - exp(-rate*c)
    rate, c = 1.3, 0.7
    pdf = lambda t: rate * np.exp(-rate * t)
    val = quadrature.density_weighted(lambda t: (t <= c).astype(float), pdf,
                                      T=20.0, breaks=[c])
    assert abs(val - (1.0 - math.exp(-rate * c))) < 1e-10


# -- hypoexponential ----------------------------------------------------------


def test_hypoexp_validation():
    with pytest.raises(ValueError):
        Hypoexp(())
    with pytest.raises(ValueError):
        Hypoexp((1.0, -2.0))


def test_hypoexp_single_rate_is_exponential():
    h = Hypoexp((1.5,))
    t = np.array([0.0, 0.3, 1.0, 4.0])
    assert np.allclose(h.pdf(t), 1.5 * np.exp(-1.5 * t), atol=1e-14)
    assert np.allclose(h.cdf(t), 1.0 - np.exp(-1.5 * t), atol=1e-14)
    assert h.pdf(-1.0) == 0.0
    assert h.cdf(-1.0) == 0.0


def test_hypoexp_two_rates_closed_form():
    h = Hypoexp((1.0, 2.0))
    t = 0.8
    want = 2.0 * (math.exp(-t) - math.exp(-2.0 * t))
    assert abs(h.pdf(t) - want) < 1e-13
    assert abs(h.mean - 1.5) < 1e-15


def test_hypoexp_repeated_rates_erlang():
    # an exact rate collision needs no special case under uniformization
    h = Hypoexp((2.0, 2.0))
    t = 1.0
    assert abs(h.pdf(t) - 4.0 * t * math.exp(-2.0 * t)) < 1e-12
    assert abs(h.cdf(t) - (1.0 - math.exp(-2.0 * t) * (1.0 + 2.0 * t))) < 1e-12


def test_hypoexp_near_degenerate_matches_degenerate():
    # separation 1e-11 must agree with the exactly repeated-rate law to far
    # better than float64 cancellation noise
    ha = Hypoexp((1.0, 1.0 + 1e-11, 2.0))
    hb = Hypoexp((1.0, 1.0, 2.0))
    for t in (0.1, 0.7, 2.0, 5.0):
        assert abs(ha.pdf(t) - hb.pdf(t)) < 1e-9
        assert abs(ha.cdf(t) - hb.cdf(t)) < 1e-9


def test_hypoexp_cdf_monotone_and_tail_cut():
    h = chain_law(0.8, 5)
    t = np.linspace(0.0, 30.0, 200)
    c = h.cdf(t)
    assert np.all(np.diff(c) >= -1e-15)
    T = Uniformized([1.0], [h.rates]).horizon
    assert 1.0 - h.cdf(T) < 1e-14


def test_hypoexp_mgf_matches_quadrature():
    h = gamma_chain_law(1.2, 0.7, 3)
    for theta in (0.0, 0.5, 2.0):
        want = 1.0
        for r in h.rates:
            want *= r / (r + theta)
        assert abs(h.mgf_neg(theta) - want) < 1e-15
        got = MixtureMeasure([1.0], [h]).integrate(lambda t: np.exp(-theta * t))
        assert abs(got - want) < 1e-8


def test_hypoexp_expect_mean_shift_and_breaks():
    h = chain_law(1.0, 4)
    assert abs(MixtureMeasure([1.0], [h]).integrate(lambda t: t) - h.mean) < 1e-7
    shifted = MixtureMeasure([1.0], [h], [2.0])
    assert abs(shifted.integrate(lambda t: t) - (h.mean + 2.0)) < 1e-7
    q = 2.5
    got = MixtureMeasure([1.0], [h]).integrate(lambda t: (t <= q).astype(float),
                                               breaks=(q,))
    assert abs(got - h.cdf(q)) < 1e-8


def test_hypoexp_sampling_moments():
    h = chain_law(1.0, 4)
    rng = streams.stream(2024, 0)
    x = h.sample(rng, 20000)
    mean = sum(1.0 / (1.0 + k) for k in range(4))
    var = sum(1.0 / (1.0 + k) ** 2 for k in range(4))
    assert abs(x.mean() - mean) < 3.0 * math.sqrt(var / 20000)
    assert abs(x.var() - var) < 0.1
    one = h.sample(streams.stream(7, 1))
    assert isinstance(one, float) and one > 0.0


def test_chain_law_structure_and_cache():
    with pytest.raises(ValueError):
        chain_law(1.0, 0)
    assert chain_law(1.3, 3).rates == (1.3, 2.3, 3.3)
    assert chain_law(1.3, 3) is chain_law(1.3, 3)
    assert gamma_chain_law(1.5, 0.5, 2).rates == (2.5, 1.5, 2.5)


# -- streams ------------------------------------------------------------------


def test_stream_reproducible_and_distinct():
    a = streams.stream(42, 3).random(8)
    b = streams.stream(42, 3).random(8)
    c = streams.stream(42, 4).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    reps = [streams.stream(42, i) for i in range(5)]
    assert np.array_equal(reps[3].random(8), a)


def test_geometric_law():
    rng = streams.stream(11, 0)
    m = 1.7
    x = streams.geometric(rng, m, size=200_000)
    assert abs(x.mean() - m) < 3.0 * math.sqrt(m * (1.0 + m) / 200_000)
    counts = np.bincount(x, minlength=6)[:6] / x.size
    q = m / (1.0 + m)
    pmf = (1.0 / (1.0 + m)) * q ** np.arange(6)
    assert np.max(np.abs(counts - pmf)) < 0.005
    assert streams.geometric(rng, 0.0) == 0
    scalar = streams.geometric(rng, m)
    assert isinstance(scalar, int) and scalar >= 0


# -- uniformized evaluator against a 100-digit oracle -------------------------

ORACLE_T = np.concatenate(([0.0, 0.01, 0.1, 0.5], np.arange(1.0, 41.0)))


def _beta_oracle(lam, n, ts):
    """chain_law(lam, n): e^{-S} ~ Beta(lam, n), evaluated at 100 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(100):
        L = mp.mpf(lam)
        B = mp.beta(L, n)
        u = [1 - mp.exp(-mp.mpf(t)) for t in ts]
        pdf = [mp.exp(-L * t) * ui ** (n - 1) / B for t, ui in zip(ts, u)]
        cdf = [mp.betainc(n, L, 0, ui, regularized=True) for ui in u]
    return np.array(pdf, dtype=float), np.array(cdf, dtype=float)


def _partial_fraction_oracle(rates, ts):
    """Partial fractions at 150 digits; a tied rate is split by a relative
    1e-60, which moves the law by less than 1e-58 in total variation."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(150):
        a = []
        for r in rates:
            x = mp.mpf(r)
            while x in a:
                x *= 1 + mp.mpf(10) ** -60
            a.append(x)
        w = [mp.fprod(aj / (aj - ai) for j, aj in enumerate(a) if j != i)
             for i, ai in enumerate(a)]
        pdf = [mp.fsum(wi * ai * mp.exp(-ai * t) for wi, ai in zip(w, a)) for t in ts]
        cdf = [1 - mp.fsum(wi * mp.exp(-ai * t) for wi, ai in zip(w, a)) for t in ts]
    return np.array(pdf, dtype=float), np.array(cdf, dtype=float)


@pytest.mark.parametrize("r", [40, 80, 120])
@pytest.mark.parametrize("lam,mu", [(1.3, 0.7), (1.5, 0.5)])   # lam - mu = 1 ties
def test_uniformized_matches_high_precision_oracle(lam, mu, r):
    chain = chain_law(lam, r)
    want_pdf, want_cdf = _beta_oracle(lam, r, ORACLE_T)
    assert np.abs(chain.pdf(ORACLE_T) - want_pdf).max() <= 1e-12
    assert np.abs(chain.cdf(ORACLE_T) - want_cdf).max() <= 1e-12
    gchain = gamma_chain_law(lam, mu, r)
    assert (len(set(gchain.rates)) < len(gchain.rates)) == (lam - mu == 1.0)
    want_pdf, want_cdf = _partial_fraction_oracle(gchain.rates, ORACLE_T)
    assert np.abs(gchain.pdf(ORACLE_T) - want_pdf).max() <= 1e-12
    assert np.abs(gchain.cdf(ORACLE_T) - want_cdf).max() <= 1e-12


def test_mixture_pdf_cdf_is_weighted_component_sum():
    comps = [gamma_chain_law(1.5, 0.5, r) for r in range(4)] + [chain_law(1.5, 4)]
    w = np.array([0.4, -0.1, 0.3, 0.2, 0.7])
    mix = MixtureMeasure(w, comps, [0.0, 0.0, 0.0, 0.0, 1.2])
    y = np.array([0.0, 0.3, 1.2, 2.0, 5.0])
    pdf = sum(wi * c.pdf(y - s) for wi, c, s in zip(w, comps, mix.shifts))
    cdf = sum(wi * c.cdf(y - s) for wi, c, s in zip(w, comps, mix.shifts))
    assert np.abs(mix.pdf(y) - pdf).max() < 1e-14
    assert np.abs(mix.cdf(y) - cdf).max() < 1e-14
    assert mix.cdf(np.inf) == mix.mass() and mix.pdf(np.inf) == 0.0


@pytest.mark.parametrize("lam,mu", [(1e-4, 1e-6), (1e-6, 1e-4), (1.0, 1e-6)])
def test_uniformized_small_rates_match_oracle_quickly(lam, mu):
    # a slow last phase is summed in closed form past the jump chain, so the
    # chain length does not grow with 1/lambda or 1/mu
    ts = np.concatenate((ORACLE_T, [1e2, 1e4, 1e6, 1e7]))
    laws = [chain_law(lam, 40), gamma_chain_law(lam, mu, 40), Hypoexp((mu,))]
    start = time.perf_counter()
    got = [(h.pdf(ts), h.cdf(ts)) for h in laws]
    gamma_n = evolve(make_exp_triplet(lam, mu, 0.5), 3).gamma_n
    at_one = gamma_n.cdf(1.0)
    assert time.perf_counter() - start < 2.0
    for h, (pdf, cdf) in zip(laws, got):
        want_pdf, want_cdf = _partial_fraction_oracle(h.rates, ts)
        assert np.abs(pdf - want_pdf).max() <= 1e-12
        assert np.abs(cdf - want_cdf).max() <= 1e-12
    want = sum(w * _partial_fraction_oracle(c.rates, [1.0])[1][0]
               for w, c in zip(gamma_n.weights, gamma_n.components))
    assert abs(at_one - want) <= 1e-12


def test_rates_too_far_apart_are_refused_naming_the_ratio(capsys):
    with pytest.raises(ValueError, match="times the second-slowest rate"):
        Hypoexp((1e7, 1.0, 2.0)).cdf(1.0)
    m = 1.0 / LifeLengthLaw(make_exp_triplet(1.0, 1e7, 1.0)).f_eval(1.0)
    doc = ('{"family": "exp", "lambda": 1.0, "mu": 1e7, "m": %r}' % m)
    rc = main(["yaglom", "--triplet", doc, "--n", "5", "--reps", "20",
               "--seed", "1", "--w", "indicator:1.0"])
    err = capsys.readouterr().err
    assert rc == 2 and "rates too far apart" in err and "Traceback" not in err
