"""The blocked survival kernels against the generation-by-generation loops.

``evolution.survival_prob`` advances the finite family by powers of the
augmented mean matrix and solves the exp family's renewal equation in blocks.
``oracles.survival_prob_loop`` is the loop they replaced, kept unchanged.
Seeds and sizes below were fixed before the first run.
"""

import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lfbp.evolution import _exp_shift, survival_prob
from lfbp.recursions import renewal
from lfbp.spectral import LifeLengthLaw, solve_R
from lfbp.typespace import make_exp_triplet, make_finite_triplet
from oracles import survival_prob_loop

REL = 1e-11         # bound on the relative error where the oracle is > FLOOR
FLOOR = 1e-280
FINITE_N = (1, 2, 3, 30, 300, 3000, 10_000)
EXP_N = (1, 2, 3, 5, 17, 64, 65, 200, 777, 2000)


def _finite_triplets(seed=2017, count=8):
    """d in 2..16; every second K upper triangular, hence reducible."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(2, 17))
        K = rng.random((d, d))
        if i % 2:
            K = np.triu(K)
        K *= rng.uniform(0.05, 0.95, (d, 1)) / K.sum(axis=1, keepdims=True)
        gamma = rng.random(d) + 0.01
        m = float(10.0 ** rng.uniform(-1.0, 1.0))
        yield make_finite_triplet(K, gamma / gamma.sum(), m)


def _exp_triplets(seed=2018, per_regime=3):
    """lambda, mu in (0.3, 3); m f(1) = 0.6, 1 and 1.8 in turn."""
    rng = np.random.default_rng(seed)
    for target in (0.6, 1.0, 1.8):
        for _ in range(per_regime):
            lam, mu = (float(v) for v in rng.uniform(0.3, 3.0, 2))
            f1 = LifeLengthLaw(make_exp_triplet(lam, mu, 1.0)).f_eval(1.0)
            yield make_exp_triplet(lam, mu, target / f1), float(rng.uniform(0.05, 3.0))


def _check(got, want, label):
    if want > FLOOR:
        assert abs(got - want) <= REL * want, (label, got, want)


@pytest.mark.parametrize("t", list(_finite_triplets()))
def test_finite_kernel_matches_the_loop(t):
    for n in FINITE_N:
        for x in range(t.d):
            _check(survival_prob(t, x, n), survival_prob_loop(t, x, n), (n, x))


@pytest.mark.parametrize("m", [1e160, 1e300])
def test_finite_kernel_on_a_reducible_triplet_with_huge_m(m):
    # M's restart column is ~m while K's own entry is 0.9, so A scaled to unit
    # row sums holds entries near 0.9/m whose squares underflow; the answer
    # depends on them (0.9^n at x = 1)
    t = make_finite_triplet([[0.0, 0.0], [0.0, 0.9]], [1.0, 0.0], m)
    for n in (4, 30, 3000):
        for x in range(2):
            _check(survival_prob(t, x, n), survival_prob_loop(t, x, n), (n, x))
        assert survival_prob(t, 0, n) == 0.0


@pytest.mark.parametrize("t,x", list(_exp_triplets()))
def test_exp_kernel_matches_the_loop(t, x):
    for n in EXP_N:
        _check(survival_prob(t, x, n), survival_prob_loop(t, x, n), n)


@pytest.mark.parametrize("m", [30.0, 1e30, 1e300])
def test_exp_kernel_with_huge_m(m):
    # m sum(d) >= 8 here, so g is solved as u_j = g_j 2^(-s j) with s > 0
    for lam, mu in ((1.0, 1.0), (0.3, 2.9), (2.9, 0.3)):
        t = make_exp_triplet(lam, mu, m)
        for n in EXP_N:
            for x in (0.05, 0.8, 3.0):
                want = survival_prob_loop(t, x, n)
                _check(survival_prob(t, x, n), want, (lam, mu, n, x))


@pytest.mark.parametrize("lam", [10.0, 30.0, 100.0, 1000.0])
def test_exp_kernel_on_long_lived_triplets_at_huge_m(lam):
    # lambda * m is huge here, so g grows by ~m d_1 per step; a point
    # passes by agreeing with the loop or by raising a ValueError
    for m in (1e250, 1e300, 1.7e308):
        t = make_exp_triplet(lam, lam, m)
        for n in (50, 128, 200, 500):
            for x in (0.05, 1.0, 3.0):
                want = survival_prob_loop(t, x, n)
                try:
                    got = survival_prob(t, x, n)
                except ValueError as exc:
                    assert f"m = {m!r}, n = {n}" in str(exc)
                    continue
                assert want > FLOOR
                _check(got, want, (lam, m, n, x))


@pytest.mark.parametrize("lam,m", [(1.0, 30.0), (30.0, 1e250), (1000.0, 1e100),
                                   (0.3, 1e6)])
def test_exp_shift_is_the_power_of_two_nearest_the_growth(lam, m):
    t = make_exp_triplet(lam, lam, m)
    lags = t.d_sequence(4000)[1:]
    lags = lags[:np.count_nonzero(lags)]
    R = solve_R(LifeLengthLaw(t), m).R
    assert abs(_exp_shift(m, lags) + math.log2(R)) <= 0.5 + 1e-9


def test_critical_scalar_at_a_billion_generations():
    t = make_finite_triplet([[0.5]], [1.0], 1.0)
    assert abs(survival_prob(t, 0, 10**9) * (1.0 + 1e9) - 1.0) < 1e-14


def test_deep_exp_survival_reaches_its_limit():
    # supercritical, so P_x(Z_n > 0) falls to P_x(survival) and stays there;
    # n = 10^5 is 1,563 blocks of 64 and far past every rescaling
    t = make_exp_triplet(1.0, 1.0, 2.0)
    deep = survival_prob(t, 1.0, 100_000)
    assert 0.0 < deep < 1.0
    assert math.isclose(deep, survival_prob(t, 1.0, 20_000), rel_tol=1e-12)


def _exact_exp_survival(t, x, n):
    """The loop's exp-family formula in exact rationals on the same floats."""
    d = [Fraction(v) for v in t.d_sequence(n)]
    a = [Fraction(t.m) * v for v in d[1:]]
    g = []
    for j in range(n):
        g.append(d[j] + sum(a[k - 1] * g[j - k] for k in range(1, j + 1)))
    e = [Fraction(v) for v in t.c_sequence(n) * np.exp(-np.arange(n + 1) * x)]
    mn_mass = e[n] + Fraction(t.m) * sum(e[i] * g[n - i] for i in range(1, n + 1))
    return g, float(mn_mass / (1 + Fraction(t.m) * sum(g)))


@pytest.mark.parametrize("lam,mu", [(3.0, 3.0), (10.0, 10.0), (30.0, 30.0)])
def test_renewal_with_lags_whose_sum_overflows(lam, mu):
    # at m = 1.7e308 the lags m d_1..m d_{n-1} sum past the float range; the
    # rescale bound then comes from the exponent of the largest lag, and no
    # step may overflow or warn
    t = make_exp_triplet(lam, mu, 1.7e308)
    for n in (5, 12, 40):
        a, d = t.m * t.d_sequence(n)[1:n], t.d_sequence(n)[:n]
        assert sum(map(Fraction, a)) > sys.float_info.max
        want_g, want = _exact_exp_survival(t, 0.8, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, _ = renewal(a, d, n - 1)
            _check(survival_prob_loop(t, 0.8, n), want, n)
        assert np.all(np.isfinite(g)) and 0.0 < g[-1] <= 1.0
        _check(g[-2] / g[-1], float(want_g[-2] / want_g[-1]), n)
