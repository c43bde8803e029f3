"""Decay parameter, eigen elements, and classification.

Frozen oracles for the exp family at (lam, mu, m) = (1, 1, 2) were computed
independently with mpmath before these tests were written:
    f(1)  = e - 2
    R     : root of m f(R) = 1, R = 0.7626885608503393
    beta  = m R f'(R)       = 1.288065682551018
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp import spectral, streams
from lfbp.evolution import evolve
from lfbp.spectral import (LifeLengthLaw, NuMeasure, classify, eigen_build,
                           eigen_residuals, hypergeom_phi, pf_limit_check,
                           solve_R)
from lfbp.typespace import make_exp_triplet, make_finite_triplet

from conftest import random_supercritical, random_triplet
from oracles import power_iteration

EXP_R = 0.7626885608503393
EXP_BETA = 1.288065682551018


# -- scalar closed forms -------------------------------------------------------
# one type: f(s) = ks/(1 - ks), so m f(R) = 1 gives R = 1/(k(1+m)) and
# beta = m R f'(R) = (1+m)/m for every scalar instance


@pytest.mark.parametrize("k,m,crit", [
    (0.4, 1.0, "subcritical"),
    (0.5, 1.0, "critical"),
    (1.0 / 3.0, 2.0, "critical"),
    (0.2, 4.0, "critical"),
    # m f(1) = 1 exactly; f(1) must not be 1/(1-k) - 1, which cancels
    (1e-9, (1.0 - 1e-9) / 1e-9, "critical"),
    (1e-6, (1.0 - 1e-6) / 1e-6, "critical"),
    (0.75, 1.0, "supercritical"),
])
def test_scalar_closed_forms(k, m, crit):
    t = make_finite_triplet([[k]], [1.0], m)
    s = classify(t)
    assert s.criticality == crit
    assert abs(s.R - 1.0 / (k * (1.0 + m))) < 1e-12
    assert abs(s.beta - (1.0 + m) / m) < 1e-10
    assert abs(s.mf1 - m * k / (1.0 - k)) < 1e-12
    if crit == "critical":   # snapped, not bisected
        assert s.R == 1.0 and s.rho == 1.0 and s.alpha == 0.0
        assert s.beta == m * LifeLengthLaw(t).f_derivative(1.0)


def test_scalar_supercritical_rho():
    s = classify(make_finite_triplet([[0.75]], [1.0], 1.0))
    assert abs(s.rho - 1.5) < 1e-12
    assert abs(s.alpha - math.log(1.5)) < 1e-12


# -- exp family frozen oracle ---------------------------------------------------


def test_exp_f_at_one(exp_super):
    law = LifeLengthLaw(exp_super)
    assert abs(law.f_eval(1.0) - (math.e - 2.0)) < 1e-12
    assert abs(law.mean() - (math.e - 1.0)) < 1e-12
    assert law.radius() == math.inf


def test_exp_frozen_decay_parameter(exp_super):
    s = classify(exp_super)
    assert s.criticality == "supercritical"
    assert s.recurrence == "R-positive"
    assert abs(s.R - EXP_R) < 1e-12
    assert abs(s.beta - EXP_BETA) < 1e-9
    assert abs(s.mf1 - 2.0 * (math.e - 2.0)) < 1e-12
    assert abs(s.alpha + math.log(EXP_R)) < 1e-12


def test_exp_critical_tuning():
    # m* = 1/(e - 2) makes m f(1) = 1 exactly
    t = make_exp_triplet(1.0, 1.0, 1.0 / (math.e - 2.0))
    s = classify(t)
    assert abs(s.mf1 - 1.0) < 1e-10
    assert s.criticality == "critical"


def test_life_length_pmf_and_tails(exp_super):
    law = LifeLengthLaw(exp_super)
    d = law.tails(20)
    # d_n = 1/(n+1)! for lam = mu = 1
    want = np.array([1.0 / math.factorial(n + 1) for n in range(21)])
    assert np.max(np.abs(d - want)) < 1e-14
    assert abs(law.pmf(3) - (d[2] - d[3])) == 0.0
    with pytest.raises(ValueError):
        law.pmf(0)
    total = sum(law.pmf(n) for n in range(1, 40))
    assert abs(total - 1.0) < 1e-12


def test_life_length_sampler_matches_tails(scalar_sub):
    law = LifeLengthLaw(scalar_sub)
    rng = streams.stream(5, 0)
    x = law.sample(rng, size=100_000)
    d = law.tails(4)
    for n in range(1, 5):
        frac = float((x > n).mean())
        se = math.sqrt(d[n] * (1.0 - d[n]) / 100_000)
        assert abs(frac - d[n]) < 4.0 * se + 1e-12


# -- power iteration -------------------------------------------------------------


def test_power_iteration_matches_dense_eig():
    rng = streams.stream(77, 0)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        A = rng.random((d, d)) + 0.01
        rho, v, resid, _ = power_iteration(A)
        want = max(np.linalg.eigvals(A).real)
        assert abs(rho - want) < 1e-10
        assert resid < 1e-12
        assert np.all(v > 0)


def test_power_iteration_periodic_matrix():
    # plain iteration cycles on this one; the diagonal shift must not
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho, _, _, _ = power_iteration(A)
    assert abs(rho - 1.0) < 1e-12


def test_decay_parameter_is_perron_reciprocal():
    rng = streams.stream(401, 0)
    for _ in range(8):
        t = random_supercritical(rng)
        s = classify(t)
        rho_m, _, _, _ = power_iteration(t.M)
        assert abs(1.0 / s.R - rho_m) < 1e-8


# -- eigen elements ---------------------------------------------------------------


def test_eigen_identities_finite():
    rng = streams.stream(402, 0)
    for _ in range(6):
        t = random_triplet(rng)
        s = classify(t)
        if s.recurrence != "R-positive":
            continue
        pair = eigen_build(t, s)
        m = t.m
        assert abs(pair.u_gamma_integral() - (1.0 + m) / m) < 1e-9
        assert abs(pair.nu.mass() - 1.0) < 1e-10
        assert abs(pair.u_nu_integral() - s.beta) < 1e-8 * max(1.0, s.beta)
        res = eigen_residuals(t, pair)
        assert res["right"] < 1e-6
        assert res["left"] < 1e-6


def test_eigen_identities_exp(exp_super):
    s = classify(exp_super)
    pair = eigen_build(exp_super, s)
    assert abs(pair.u_gamma_integral() - 1.5) < 1e-9
    assert abs(pair.nu.mass() - 1.0) < 1e-12
    assert abs(pair.u_nu_integral() - s.beta) < 1e-9
    res = eigen_residuals(exp_super, pair)
    assert res["right"] < 1e-6
    assert res["left"] < 1e-6


def test_nu_sampler_matches_cdf(exp_super):
    s = classify(exp_super)
    nu = NuMeasure(exp_super, s.R)
    rng = streams.stream(19, 0)
    x = nu.sample(rng, size=50_000)
    for T in (0.5, 1.0, 2.0):
        p = nu.cdf(T)
        se = math.sqrt(p * (1.0 - p) / 50_000)
        assert abs(float((x <= T).mean()) - p) < 4.0 * se


def test_pf_limit_convergence(scalar_sub, exp_super):
    rows = pf_limit_check(scalar_sub, 0, n_max=30)
    assert rows[-1].rel_err < 1e-12  # scalar: exact already at n = 1
    rows = pf_limit_check(exp_super, 1.0, n_max=40)
    assert rows[-1].rel_err < 1e-3
    assert rows[-1].rel_err < rows[4].rel_err


def test_pf_limit_survives_a_huge_growth_rate():
    # rho = k (1 + m) = 5e8, so M^40(0, E) = rho^40 ~ 1e348 leaves float64;
    # R^n M^n(0, E) = (R rho)^n does not
    t = make_finite_triplet([[0.5]], [1.0], 1e9)
    R = classify(t).R
    rows = pf_limit_check(t, 0, n_max=40)
    assert [r.n for r in rows] == list(range(1, 41))
    for r in rows:
        assert r.scaled_mass == pytest.approx((R * t.M[0, 0]) ** r.n, rel=1e-12)
        assert r.rel_err <= 1e-12      # R and u carry full relative precision


# -- the root of m f(R) = 1 ---------------------------------------------------------


def _random_root_triplet(rng, i):
    """Finite (full, reducible or nilpotent K, d up to 64) or exp triplet with m
    log-uniform in [1e-3, 1e300]."""
    m = 10.0 ** rng.uniform(-3.0, 300.0)
    if i % 4 == 3:
        lam, mu = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        return make_exp_triplet(float(lam), float(mu), m)
    d = int(rng.integers(2, 65)) if i % 2 else int(rng.integers(2, 8))
    K = rng.random((d, d)) * (rng.random((d, d)) < rng.uniform(0.1, 1.0))
    K = (K, np.triu(K), np.triu(K, 1))[i % 4]   # full, reducible, nilpotent
    K[0, 1] += 0.1                               # gamma sees a live state
    K *= rng.uniform(0.05, 0.95, (d, 1)) / np.maximum(K.sum(axis=1, keepdims=True), 1e-300)
    gam = rng.random(d) * (rng.random(d) < 0.5)
    gam[0] += 0.1
    return make_finite_triplet(K, gam / gam.sum(), m)


def test_root_has_float64_backward_error():
    # the residual of m f(R) = 1 itself, not 1/R against a Perron root of M
    rng = streams.stream(411, 0)
    eps = np.finfo(float).eps
    for i in range(160):
        t = _random_root_triplet(rng, i)
        s = classify(t)
        assert s.recurrence == "R-positive"
        assert abs(t.m * LifeLengthLaw(t).f_eval(s.R) - 1.0) <= 64 * eps * max(1.0, s.beta)


def test_root_at_extreme_scales():
    s = classify(make_finite_triplet([[0.5]], [1.0], 1e300))
    assert s.R == pytest.approx(2e-300, rel=1e-14)
    assert s.beta == pytest.approx(1.0, rel=1e-14)
    # the README's 2-type example: R = 0.8 exactly
    s = classify(make_finite_triplet([[0.2, 0.3], [0.4, 0.1]], [0.5, 0.5], 1.5))
    assert abs(s.R - 0.8) <= math.ulp(0.8)


def test_degenerate_marked_line_is_transient():
    t = make_finite_triplet([[0.0, 0.0], [0.5, 0.4]], [1.0, 0.0], 1.5)
    s = classify(t)
    assert s.recurrence == "R-transient"
    assert s.beta is None and s.alpha is None
    with pytest.raises(ValueError):
        eigen_build(t, s)
    with pytest.raises(ValueError):
        pf_limit_check(t, 0)


# -- hypergeometric helper ----------------------------------------------------------


def test_hypergeom_phi_special_case():
    # lam = mu = 1: Phi(s) = (e^s - 1)/s
    for s in (0.3, 1.0, 2.5):
        assert abs(hypergeom_phi(1.0, 1.0, s) - (math.exp(s) - 1.0) / s) < 1e-13


def test_hypergeom_phi_vs_mpmath():
    lam, mu = 1.7, 0.6
    for s in (0.5, 1.0, 3.0):
        with mp.workdps(40):
            want = mp.nsum(lambda n: mp.gamma(lam) * mu * mp.mpf(s) ** n
                           / (mp.gamma(lam + n) * (mu + n)), [0, mp.inf])
        assert abs(hypergeom_phi(lam, mu, s) - float(want)) < 1e-12


def test_hypergeom_phi_is_one_plus_f():
    t = make_exp_triplet(1.3, 0.7, 1.0)
    law = LifeLengthLaw(t)
    for s in (0.4, 1.0, 1.8):
        assert abs(1.0 + law.f_eval(s) - hypergeom_phi(1.3, 0.7, 1.3 * s)) < 1e-12


# -- property: classification agrees with the criticality statistic ------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_criticality_matches_statistic(seed):
    rng = streams.stream(9000, seed)
    t = random_triplet(rng)
    s = classify(t)
    if abs(s.mf1 - 1.0) <= 1e-10:
        assert s.criticality == "critical"
    elif s.mf1 < 1.0:
        assert s.criticality == "subcritical"
    else:
        assert s.criticality == "supercritical"


# -- nilpotent reachable blocks: exact Perron root 0 ----------------------------------


def test_nilpotent_two_type_is_r_positive_with_entire_f():
    # f(s) = 0.5 s, so m f(R) = 1 at R = 2e5 and f is entire
    t = make_finite_triplet([[0.0, 0.5], [0.0, 0.0]], [1.0, 0.0], 1e-5)
    s = classify(t)
    assert s.R_star == math.inf
    assert s.recurrence == "R-positive"
    assert abs(s.R - 2e5) < 1e-9 * 2e5
    assert abs(s.beta - 1.0) < 1e-9


def test_nilpotent_three_type_chain():
    # f(s) = 0.5 s + 0.35 s^2; m f(R) = 1 is a quadratic in R
    t = make_finite_triplet([[0.0, 0.5, 0.0], [0.0, 0.0, 0.7], [0.0, 0.0, 0.0]],
                            [1.0, 0.0, 0.0], 0.5)
    law = LifeLengthLaw(t)
    assert law.radius() == math.inf
    assert abs(law.f_eval(3.0) - (1.5 + 0.35 * 9.0)) < 1e-12
    s = classify(t)
    R = (-0.25 + math.sqrt(0.25 ** 2 + 4 * 0.175)) / (2 * 0.175)
    assert s.R_star == math.inf and s.recurrence == "R-positive"
    assert abs(s.R - R) < 1e-12
    assert abs(s.beta - 0.5 * R * (0.5 + 0.7 * R)) < 1e-9
    # gamma = delta_0, so gamma K^(s)(E) is the resolvent mass K^(s)(0, E)
    assert abs(spectral.gamma_resolvent(t, 10.0).mass() - (1.0 + 5.0 + 0.35 * 100.0)) < 1e-12


# -- one resolvent per family ---------------------------------------------------------


def _u_oracle(t, R, x):
    """u(x) = (1+m) sum_{n>=1} R^n K^n(x, E) on the block of what x reaches."""
    reach = {x}
    while True:
        more = {int(j) for i in reach for j in np.flatnonzero(t.K[i] > 0)} - reach
        if not more:
            break
        reach |= more
    idx = sorted(reach)
    B = t.K[np.ix_(idx, idx)]
    if R * np.abs(np.linalg.eigvals(B)).max() >= 1.0:
        return math.inf
    w = np.linalg.solve(np.eye(len(idx)) - R * B, R * B.sum(axis=1))
    return (1.0 + t.m) * w[idx.index(x)]


def test_u_vector_matches_a_per_state_solve():
    rng = streams.stream(412, 0)
    for i in range(60):
        d = int(rng.integers(2, 63)) if i % 2 else int(rng.integers(2, 8))
        K = rng.random((d, d)) * (rng.random((d, d)) < rng.uniform(0.1, 1.0))
        K = (K, np.triu(K), np.triu(K, 1))[i % 3]   # full, reducible, nilpotent
        K[0, 1] += 0.1
        K *= rng.uniform(0.05, 0.95, (d, 1)) / np.maximum(K.sum(axis=1, keepdims=True), 1e-300)
        gam = rng.random(d) * (rng.random(d) < 0.5)
        gam[0] += 0.1
        m = 10.0 ** rng.uniform(-2.0, 2.0)
        R = classify(make_finite_triplet(K, gam / gam.sum(), m)).R
        # two states gamma never reaches, each on its own loop and leading
        # into state 0: one just below 1/R, one above it when 1/R < 1
        K2 = np.zeros((d + 2, d + 2))
        K2[:d, :d] = K
        K2[d, d], K2[d, 0] = 0.999 * min(1.0 / R, 0.95), 0.001
        K2[d + 1, d + 1] = min(1.001 / R, 0.95)
        K2[d + 1, 0] = 0.01
        t = make_finite_triplet(K2, np.append(gam / gam.sum(), [0.0, 0.0]), m)
        s = classify(t)
        assert s.R == R
        pair = eigen_build(t, s)
        u = pair.u_vector
        want = np.array([_u_oracle(t, R, x) for x in range(d + 2)])
        assert np.array_equal(np.isinf(u), np.isinf(want)), i
        ok = np.isfinite(want)
        np.testing.assert_allclose(u[ok], want[ok], rtol=1e-12, atol=0.0)
        # gamma and nu vanish on the states where u is infinite
        assert abs(pair.u_gamma_integral() - (1.0 + m) / m) < 1e-9 * (1.0 + m) / m
        assert abs(pair.u_nu_integral() - s.beta) < 1e-8 * max(1.0, s.beta)


@pytest.mark.parametrize("lam,mu,m", [
    (1.0, 1.0, 2.0), (1.3, 0.7, 0.5), (0.2, 5.0, 1e-3), (7.0, 0.3, 1e-20),
    (0.5, 2.0, 1e-100), (1.7, 0.6, 1e-300), (0.1, 0.1, 1e-300),
])
def test_exp_f_and_u_match_a_40_digit_series(lam, mu, m):
    t = make_exp_triplet(lam, mu, m)
    R = classify(t).R
    law, pair = LifeLengthLaw(t), eigen_build(t)
    xs = (0.5, 1.0, 2.0)
    with mp.workdps(40):
        r, f, df, u = mp.mpf(R), mp.mpf(0), mp.mpf(0), [mp.mpf(0)] * 3
        c, n = mp.mpf(1), 0
        while True:               # c = R^n c_n
            c *= r * lam / (lam + n)
            n += 1
            d = c * mu / (mu + n)
            f, df = f + d, df + n * d / r
            u = [ui + c * mp.exp(-n * x) for ui, x in zip(u, xs)]
            if n > r * lam and c < mp.mpf(10) ** -45 * f:
                break
        want = [f, df] + [(1 + m) * ui for ui in u]
    got = [law.f_eval(R), law.f_derivative(R)] + [pair.u(x) for x in xs]
    for g, w in zip(got, want):
        assert abs(g - float(w)) <= 1e-13 * float(w)


@pytest.mark.parametrize("lam,mu,m", [(1.0, 1.0, 2.0), (1.3, 0.7, 0.5),
                                      (1.2, 0.7, 1.6595995495146982)])
def test_exp_pf_limit_rows_match_the_exact_generation_mass(lam, mu, m):
    t = make_exp_triplet(lam, mu, m)
    R = classify(t).R
    for r in pf_limit_check(t, 1.5, n_max=40):
        want = R ** r.n * evolve(t, r.n).mn_mass(1.5)
        assert abs(r.scaled_mass - want) <= 1e-12 * want
