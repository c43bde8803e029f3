"""Exact generation laws: recursion identities, functionals, sampling."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp import evolution, hypoexp, streams
from lfbp.evolution import evolve, gen_functional, survival_prob
from lfbp.recursions import renewal
from lfbp.spectral import LifeLengthLaw
from lfbp.stats import chi_square_geometric, probe
from lfbp.typespace import make_exp_triplet, make_finite_triplet

from conftest import random_triplet
from oracles import gen_functional_iterated, generation_law_loop


# -- recursion identities --------------------------------------------------------


def test_g_h_sequences_are_series_inverses():
    # h expands 1/(1 - m f) with f(s) = sum_{i>=1} d_i s^i, so convolving h
    # against (delta - m f) must give back delta; g expands (sum d_j s^j) h
    rng = streams.stream(31, 0)
    d = np.concatenate([[1.0], rng.random(12) * 0.4])
    m = 1.3
    h, scale = renewal(m * d[1:], [1.0], len(d) - 1)
    assert scale == 1.0
    f_coef = d.copy()
    f_coef[0] = 0.0
    conv = h - m * np.convolve(f_coef, h)[: len(d)]
    want = np.zeros(len(d))
    want[0] = 1.0
    assert np.max(np.abs(conv - want)) < 1e-12
    g, scale = renewal(m * d[1:], d, len(d) - 1)
    assert scale == 1.0
    gh = np.convolve(d, h)[: len(d)]
    assert np.max(np.abs(g - gh)) < 1e-12


def test_renewal_solves_the_toeplitz_system():
    # c = b + T(a) c with T(a) strictly lower triangular Toeplitz, i.e.
    # (I - T(a)) c = b
    rng = streams.stream(33, 0)
    n = 50
    for p in (3, 20, n):
        a = rng.random(p) * (1.5 / p)
        b = rng.random(int(rng.integers(1, n + 2)))
        c, scale = renewal(a, b, n)
        assert scale == 1.0
        T = np.zeros((n + 1, n + 1))
        for k in range(1, p + 1):
            T += np.diag(np.full(n + 1 - k, a[k - 1]), -k)
        rhs = np.zeros(n + 1)
        rhs[: len(b)] = b
        want = np.linalg.solve(np.eye(n + 1) - T, rhs)
        assert np.max(np.abs(c - want) / np.abs(want)) < 1e-12


def test_renewal_sums_each_step_in_order():
    # every step is summed a_1 c_{j-1} + a_2 c_{j-2} + ... left to right and
    # then b_j added, whatever the number of lags, so the bits are pinned
    rng = streams.stream(34, 0)
    n = 60
    for p in (3, 16, 40):
        a = rng.random(p) * (1.2 / p)
        b = rng.random(5)
        c, scale = renewal(a, b, n)
        want = []
        for j in range(n + 1):
            v = 0.0
            for k in range(1, min(j, p) + 1):
                v += float(a[k - 1]) * want[j - k]
            want.append(v + (float(b[j]) if j < len(b) else 0.0))
        assert scale == 1.0 and c.tolist() == want


def test_renewal_rescales_by_powers_of_two():
    # c_j = 2^(300 j) leaves float64 at j = 4; the scaled entries stay
    # exactly scale * 2^(300 j)
    c, scale = renewal([2.0 ** 300], [1.0], 3)
    assert scale == 2.0 ** -901
    assert c.tolist() == [math.ldexp(scale, 300 * j) for j in range(4)]


# -- one-step consistency ----------------------------------------------------------


def test_generation_one_reproduces_triplet():
    rng = streams.stream(32, 0)
    for _ in range(10):
        t = random_triplet(rng)
        law = evolve(t, 1)
        eps = np.finfo(float).eps
        assert abs(law.m_n - t.m) <= 4 * eps * max(1.0, t.m)
        assert np.max(np.abs(law.gamma_n.vector - t.gamma_vector)) <= 4 * eps
        assert np.max(np.abs(law.Kn - t.K)) <= 4 * eps


def test_generation_one_exp_family(exp_super):
    law = evolve(exp_super, 1)
    assert abs(law.m_n - exp_super.m) < 1e-14
    # gamma_1 = gamma: compare CDFs
    for y in (0.3, 1.0, 2.5):
        assert abs(law.gamma_n.cdf(y) - (1.0 - math.exp(-y))) < 1e-12


def test_evolve_rejects_n_zero(scalar_sub):
    with pytest.raises(ValueError):
        evolve(scalar_sub, 0)


# -- the augmented-power engine against the generation loop ------------------------

SWEEP_N = (1, 2, 3, 7, 60, 800)      # grid and seed fixed before the first run


def _sweep_triplets(seed=2022):
    """d in {1, 2, 5, 16}, irreducible and (d > 1) upper-triangular K, each at
    m f(1) = 0.6, 1 and 1.8."""
    rng = np.random.default_rng(seed)
    for d in (1, 2, 5, 16):
        for reducible in (False, True)[: 1 + (d > 1)]:
            for target in (0.6, 1.0, 1.8):
                K = rng.random((d, d)) + 0.01
                if reducible:
                    K = np.triu(K)
                K *= rng.uniform(0.05, 0.95, (d, 1)) / K.sum(axis=1, keepdims=True)
                gamma = rng.random(d) + 0.01
                gamma /= gamma.sum()
                f1 = LifeLengthLaw(make_finite_triplet(K, gamma, 1.0)).f_eval(1.0)
                yield make_finite_triplet(K, gamma, target / f1)


def _close(got, want, scale=None, rel=1e-11, floor=1e-300):
    scale = np.abs(want) if scale is None else scale
    return bool(np.all(np.abs(got - want) <= rel * scale + floor))


def _check_against_loop(t, n):
    m_n, gamma_n, Mn, Kn = generation_law_loop(t, n)
    if not math.isfinite(m_n):
        with pytest.raises(ValueError, match=rf"m = {t.m!r}, n = {n}:"):
            evolve(t, n)
        return
    law = evolve(t, n)
    assert _close(law.m_n, m_n), (n, law.m_n, m_n)
    assert _close(law.gamma_n.vector, gamma_n), n
    frac = m_n / (1.0 + m_n)
    # both sides form K_n as a difference, so it is held to its terms' size
    terms = Mn + frac * np.outer(Mn @ np.ones(t.d), gamma_n)
    assert _close(law.Kn, Kn, scale=terms), n
    for x in range(t.d):
        assert _close(law.mean_power(x).vector, Mn[x]), (n, x)
        s = Mn[x].sum() / (1.0 + m_n)
        assert _close(law.survival(x), s), (n, x)
        for spec, h in (("const:0.5", np.full(t.d, 0.5)),
                        ("tilt:1.0", np.exp(-np.arange(t.d)))):
            # F_n = 1 - M^n(x, 1-h)/(1 + m_n gamma_n(1-h)), no cancellation
            want = 1.0 - (Mn[x] @ (1.0 - h)) / (1.0 + m_n * (gamma_n @ (1.0 - h)))
            assert _close(law.functional(x, probe(spec)), want), (n, x, spec)


@pytest.mark.parametrize("t", list(_sweep_triplets()))
def test_generation_law_matches_the_loop(t):
    for n in SWEEP_N:
        _check_against_loop(t, n)


@pytest.mark.parametrize("m", [1e160, 1e300])
def test_generation_law_on_a_reducible_triplet_with_huge_m(m):
    # K's own entry 0.9 sits 1/m below the restart column; M^n(1, 1) = 0.9^n
    # and M^n(1, 0) = m 0.9^n are built from it
    t = make_finite_triplet([[0.0, 0.0], [0.0, 0.9]], [1.0, 0.0], m)
    for n in SWEEP_N:
        _check_against_loop(t, n)


def test_generation_law_rejects_an_overflowing_mean():
    t = make_finite_triplet([[0.5, 0.4], [0.4, 0.5]], [0.5, 0.5], 9.0)
    assert generation_law_loop(t, 800)[0] == math.inf
    _check_against_loop(t, 800)


def test_exp_mean_builds_no_hypoexponential_law():
    hypoexp.gamma_chain_law.cache_clear()
    law = evolve(make_exp_triplet(1.2, 0.8, 1.0), 3000)
    assert math.isfinite(law.m_n)
    assert hypoexp.gamma_chain_law.cache_info().currsize == 0


# -- survival ------------------------------------------------------------------------


def test_critical_scalar_survival_exact(scalar_crit):
    for n in range(1, 101):
        assert abs(survival_prob(scalar_crit, 0, n) - 1.0 / (1.0 + n)) < 1e-14


def test_critical_m2_survival_exact(scalar_crit_m2):
    # k = 1/3, m = 2: m_n = 2n and survival = 1/(1 + 2n)
    for n in (1, 5, 50):
        law = evolve(scalar_crit_m2, n)
        assert abs(law.m_n - 2.0 * n) < 1e-10 * n
        assert abs(law.survival(0) - 1.0 / (1.0 + 2.0 * n)) < 1e-13


def test_survival_matches_evolved_law(exp_super, scalar_sub):
    for t, x in ((exp_super, 0.7), (scalar_sub, 0)):
        for n in (1, 3, 9):
            assert abs(survival_prob(t, x, n) - evolve(t, n).survival(x)) < 1e-12


def test_survival_n_zero_is_one(scalar_sub):
    assert survival_prob(scalar_sub, 0, 0) == 1.0


def test_survival_deep_generations_no_overflow(scalar_super, exp_super):
    # rho^n dwarfs float range long before n = 5000; rescaling must hold
    p_fin = survival_prob(scalar_super, 0, 5000)
    assert 0.0 < p_fin < 1.0
    assert abs(p_fin - 0.5) < 1e-6  # scalar k=0.75, m=1 limit is 1/2
    p_exp = survival_prob(exp_super, 1.0, 2000)
    assert 0.0 < p_exp < 1.0


def _mp_exp_survival(lam, mu, m, x, n):
    """P_x(Z_n > 0) for the exp family from the g recursion at 40 digits."""
    with mpmath.workdps(40):
        lam, mu, m, x = (mpmath.mpf(v) for v in (lam, mu, m, x))
        c = [mpmath.mpf(1)]
        for j in range(n):
            c.append(c[-1] * lam / (lam + j))
        d = [c[j] * mu / (mu + j) for j in range(n + 1)]
        g = [mpmath.mpf(1)]
        for j in range(1, n):
            g.append(d[j] + m * mpmath.fsum(d[i] * g[j - i]
                                            for i in range(1, j + 1)))
        mass = c[n] * mpmath.exp(-n * x) + m * mpmath.fsum(
            c[i] * mpmath.exp(-i * x) * g[n - i] for i in range(1, n + 1))
        return float(mass / (1 + m * mpmath.fsum(g)))


@pytest.mark.parametrize("lam,mu,m,rescaled", [
    (1.0, 1.0, 1.0 / (math.e - 2.0), False),    # critical
    (1.7, 0.9, 6.0, True),                      # rho = 3.2: g passes 2^512
])
def test_exp_survival_against_mpmath(lam, mu, m, rescaled):
    n, x = 400, 0.7
    t = make_exp_triplet(lam, mu, m)
    d = t.d_sequence(n)
    assert (renewal(m * d[1:n], d[:n], n - 1)[1] < 1.0) == rescaled
    want = _mp_exp_survival(lam, mu, m, x, n)
    assert abs(survival_prob(t, x, n) - want) <= 1e-12 * want


@pytest.mark.parametrize("k,m,n", [(0.5, 1e300, 5), (0.5, 1e300, 60),
                                   (0.3, 1e200, 40), (0.9, 1e12, 500)])
def test_scalar_survival_with_huge_m(k, m, n):
    # rho^n / (1 + m sum_{j<n} rho^j) = 1 / (rho^-n + m sum_{j=1..n} rho^-j),
    # rho = k (1 + m), summed in logs
    log_rho = math.log(k) + math.log1p(m)
    j = np.arange(1, n + 1)
    want = math.exp(-np.logaddexp.reduce(
        np.append(math.log(m) - j * log_rho, -n * log_rho)))
    got = survival_prob(make_finite_triplet([[k]], [1.0], m), 0, n)
    assert abs(got - want) <= 1e-12 * want


def test_exp_survival_with_huge_m():
    lam, mu, m, x, n = 1.0, 1.0, 1e300, 0.8, 50
    t = make_exp_triplet(lam, mu, m)
    logc = np.log(t.c_sequence(n))
    logd = np.log(t.d_sequence(n))
    logg = [0.0]
    for j in range(1, n):
        logg.append(np.logaddexp(logd[j], math.log(m) + np.logaddexp.reduce(
            logd[1: j + 1] + np.array(logg[::-1]))))
    idx = np.arange(1, n + 1)
    log_mass = np.logaddexp(logc[n] - n * x, math.log(m) + np.logaddexp.reduce(
        logc[1:] - idx * x + np.array(logg[::-1])))
    log_den = np.logaddexp(0.0, math.log(m) + np.logaddexp.reduce(logg))
    want = math.exp(log_mass - log_den)
    assert abs(survival_prob(t, x, n) - want) <= 1e-10 * want


@pytest.mark.parametrize("t", [make_finite_triplet([[0.5]], [1.0], 1e300),
                               make_exp_triplet(1.0, 1.0, 1e300)])
def test_overflowing_mean_is_rejected(t):
    evolve(t, 1)
    with pytest.raises(ValueError, match=r"m = 1e\+300, n = 5"):
        evolve(t, 5)


def test_subcritical_survival_decays(scalar_sub):
    # rho = 0.8: survival must shrink geometrically
    p10 = survival_prob(scalar_sub, 0, 10)
    p20 = survival_prob(scalar_sub, 0, 20)
    assert p20 < p10 * 0.2


# -- functionals -----------------------------------------------------------------------


def test_functional_against_iterated_oracle():
    rng = streams.stream(33, 0)
    for _ in range(20):
        t = random_triplet(rng)
        n = int(rng.integers(1, 21))
        h = rng.random(t.d)
        a = gen_functional(t, 0, n, h)
        b = gen_functional_iterated(t, 0, n, h)
        assert abs(a - b) <= 1e-10


def test_functional_near_h_one_at_a_huge_mean():
    # rho = 1.2 and m_n = 3.4e16 at n = 200; K_n(0, h) would cancel here
    t = make_finite_triplet([[0.6]], [1.0], 1.0)
    law = evolve(t, 200)
    assert law.functional(0, [1.0]) == 1.0
    for h in (0.999999, 0.999, 0.9):
        assert abs(law.functional(0, [h]) - gen_functional_iterated(t, 0, 200, [h])) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=20))
def test_functional_iteration_property(seed, n):
    rng = streams.stream(9100, seed)
    t = random_triplet(rng)
    h = rng.random(t.d)
    x = int(rng.integers(0, t.d))
    assert abs(gen_functional(t, x, n, h)
               - gen_functional_iterated(t, x, n, h)) <= 1e-10


def test_functional_extremes(scalar_sub, exp_super):
    for t, x in ((scalar_sub, 0), (exp_super, 0.8)):
        law = evolve(t, 7)
        ones = np.ones(1) if t.family == "finite" else (lambda y: np.ones_like(y))
        zeros = np.zeros(1) if t.family == "finite" else (lambda y: np.zeros_like(y))
        assert abs(law.functional(x, ones) - 1.0) < 1e-9
        assert abs(law.functional(x, zeros) - (1.0 - law.survival(x))) < 1e-9


def test_functional_rejects_out_of_range(scalar_sub):
    law = evolve(scalar_sub, 3)
    with pytest.raises(AssertionError):
        law.functional(0, np.array([1.7]))


def test_pmf_is_shifted_geometric(exp_super):
    law = evolve(exp_super, 4)
    x = 1.2
    s = law.survival(x)
    assert abs(law.pmf(x, 0) - (1.0 - s)) < 1e-15
    total = sum(law.pmf(x, k) for k in range(0, 400))
    assert abs(total - 1.0) < 1e-12
    # mean of the shifted geometric given survival is 1 + m_n
    mean = sum(k * law.pmf(x, k) for k in range(1, 2000)) / s
    assert abs(mean - (1.0 + law.m_n)) < 1e-8


# -- exp-family internals -----------------------------------------------------------


def test_exp_mean_power_mass_matches_kernel_identity(exp_super):
    # M^n(x, E) = K^n(x, E) + m sum_{r<n} K^(n-r)... collapsed: compare with
    # the rescaled survival recursion, an independent code path
    law = evolve(exp_super, 6)
    for x in (0.4, 1.0, 2.0):
        lhs = law.mn_mass(x)
        rhs = survival_prob(exp_super, x, 6) * (1.0 + law.m_n)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, lhs)


def test_exp_gamma_n_is_probability(exp_super):
    law = evolve(exp_super, 5)
    assert abs(law.gamma_n.mass() - 1.0) < 1e-12
    got = law.gamma_n.integrate(lambda y: np.ones_like(y))
    assert abs(got - 1.0) < 1e-9


def test_kn_tilt_matches_quadrature(exp_super):
    law = evolve(exp_super, 5)
    for x, theta in ((0.6, 0.5), (1.5, 1.0), (0.9, 2.0)):
        exact = law.kn_tilt(x, theta)
        quad = law.kn_integrate(x, lambda y: np.exp(-theta * y))
        assert abs(exact - quad) < 1e-8


def test_kn_pdf_integrates_to_survival(exp_super):
    from lfbp import quadrature
    law = evolve(exp_super, 4)
    x = 1.0
    val = quadrature.integrate(lambda y: law.kn_pdf(x, y), 0.0, 60.0,
                               tol=1e-9, panels=40)
    assert abs(val - law.survival(x)) < 1e-7


# -- sampling ---------------------------------------------------------------------------


def test_marked_sample_finite_matches_kn_row():
    rng = streams.stream(34, 0)
    t = random_triplet(rng, 3)
    law = evolve(t, 4)
    row = np.maximum(law.Kn[0], 0.0)
    row /= row.sum()
    draws = np.array([law.marked_sample(0, streams.stream(34, 1, i))
                      for i in range(4000)])
    for j in range(3):
        frac = float((draws == j).mean())
        se = math.sqrt(row[j] * (1.0 - row[j]) / 4000)
        assert abs(frac - row[j]) < 4.0 * se + 1e-12


def test_marked_sample_exp_matches_kn_cdf(exp_super):
    law = evolve(exp_super, 3)
    x = 1.0
    rng = streams.stream(35, 0)
    draws = np.array([law.marked_sample(x, rng) for i in range(4000)])
    from lfbp import quadrature
    s = law.survival(x)
    for T in (0.5, 1.0, 2.0):
        p = quadrature.integrate(lambda y: law.kn_pdf(x, y), 0.0, T,
                                 tol=1e-9, panels=16) / s
        se = math.sqrt(p * (1.0 - p) / 4000)
        assert abs(float((draws <= T).mean()) - p) < 4.0 * se


def test_conditional_generation_size_law(scalar_crit):
    law = evolve(scalar_crit, 6)
    rng = streams.stream(36, 0)
    sizes = np.array([law.conditional_generation(0, rng).points.size
                      for _ in range(20_000)])
    stat, dof, p = chi_square_geometric(sizes, law.m_n)
    assert p > 0.01 and dof >= 1
    snap = law.conditional_generation(0, rng)
    assert snap.generation == 6 and snap.points.size >= 1 and snap.marked
