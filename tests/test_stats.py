"""Statistical machinery and the three regime verifiers."""

import math

import numpy as np
import pytest

from lfbp import stats, streams
from lfbp.errors import RegimeError
from lfbp.stats import (KS_MIN, YAGLOM_MIN, chi_square_geometric,
                        detect_convergence, ks_one_sample, ks_two_sample,
                        limit_critical, limit_report, limit_subcritical,
                        limit_supercritical, mc_mean_se, probe,
                        renewal_sequence, richardson, yaglom_sample)


# -- KS and chi-square ---------------------------------------------------------


def test_ks_two_sample_calibration():
    # same law: p should rarely dip below 0.01
    low = 0
    for s in range(30):
        rng = streams.stream(700, s)
        x = rng.exponential(1.0, 800)
        y = rng.exponential(1.0, 800)
        _, p = ks_two_sample(x, y)
        if p <= 0.01:
            low += 1
    assert low <= 2


def test_ks_two_sample_power():
    rng = streams.stream(701, 0)
    x = rng.exponential(1.0, 3000)
    y = rng.exponential(1.4, 3000)
    _, p = ks_two_sample(x, y)
    assert p < 1e-6


def test_ks_one_sample_calibration_and_power():
    rng = streams.stream(702, 0)
    x = rng.exponential(2.0, 2000)
    cdf = lambda v: 1.0 - np.exp(-np.asarray(v) / 2.0)
    _, p = ks_one_sample(x, cdf)
    assert p > 0.01
    bad = lambda v: 1.0 - np.exp(-np.asarray(v) / 3.0)
    _, p2 = ks_one_sample(x, bad)
    assert p2 < 1e-6


def test_ks_requires_minimum_sample():
    with pytest.raises(ValueError):
        ks_two_sample(np.ones(KS_MIN - 1), np.ones(KS_MIN))
    with pytest.raises(ValueError):
        ks_one_sample(np.ones(10), lambda v: np.asarray(v))


def test_chi_square_geometric_calibration_and_power():
    rng = streams.stream(703, 0)
    m_n = 3.0
    v = 1 + streams.geometric(rng, m_n, size=20_000)
    _, _, p = chi_square_geometric(v, m_n)
    assert p > 0.01
    _, _, p_bad = chi_square_geometric(v, 4.5)
    assert p_bad < 1e-10
    with pytest.raises(ValueError):
        chi_square_geometric(np.zeros(200, dtype=int) + 1, 2.0)[0]
        chi_square_geometric(np.array([0, 1, 2] * 100), 2.0)
    with pytest.raises(ValueError):
        chi_square_geometric(np.array([0, 1, 2] * 100), 2.0)


def test_mc_mean_se():
    mean, se = mc_mean_se(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mean == 2.5
    assert abs(se - np.std([1, 2, 3, 4], ddof=1) / 2.0) < 1e-15


# -- convergence helpers -----------------------------------------------------------


def test_detect_convergence():
    ok, idx = detect_convergence([5.0, 3.0, 2.01, 2.002, 2.0021, 2.0020])
    assert ok and idx is not None
    bad, idx2 = detect_convergence([5.0, 3.0, 2.0, 1.0])
    assert not bad and idx2 is None


def test_richardson_kills_first_order_term():
    f = lambda n: 2.0 + 3.0 / n + 1.0 / n ** 2
    got = richardson(f(100), f(200))
    assert abs(got - 2.0) < 1e-3 / 4
    assert abs(got - 2.0) < abs(f(200) - 2.0) / 50


# -- probes -------------------------------------------------------------------------


def test_probe_parsing():
    c = probe("const:0.6")
    assert np.allclose(c(np.arange(3)), 0.6)
    assert np.allclose(probe("const")(np.zeros(2)), 1.0)
    t = probe("tilt:1.5")
    assert t.theta == 1.5
    assert np.allclose(t(np.array([0.0, 1.0])), [1.0, math.exp(-1.5)])
    ind = probe("indicator:2.0")
    assert np.allclose(ind(np.array([1.0, 3.0])), [1.0, 0.0])
    assert ind.breaks == (0.0, 2.0)
    ab = probe("indicator:1.0,2.0")
    assert np.allclose(ab(np.array([0.5, 1.5, 2.5])), [0.0, 1.0, 0.0])
    ex = probe("expr:np.minimum(y, 1.0)")
    assert np.allclose(ex(np.array([0.5, 2.0])), [0.5, 1.0])
    with pytest.raises(ValueError, match="unknown probe"):
        probe("spline:3")


# -- renewal sequences -----------------------------------------------------------------


def test_renewal_fair_coin_limit():
    r = renewal_sequence([0.5, 0.5], [1.0], 200)
    assert abs(r.c[200] - 2.0 / 3.0) < 1e-3
    assert abs(r.limit - 2.0 / 3.0) < 1e-15
    assert r.period == 1 and r.converged
    assert r.as_dict()["c_tail"][-1] == r.c[-1]


def test_renewal_periodic_flagged():
    with pytest.warns(RuntimeWarning, match="period 2"):
        r = renewal_sequence([0.0, 1.0], [1.0], 100)
    assert r.period == 2
    assert not r.converged
    assert r.tail_deviation > 0.4          # oscillates between 0 and 1
    # the limit still holds in the averaged sense along even steps
    assert abs((r.c[99] + r.c[100]) / 2.0 - r.limit) < 1e-12


def test_renewal_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        renewal_sequence([0.4, 0.4], [1.0], 10)
    with pytest.raises(ValueError, match="nonnegative"):
        renewal_sequence([1.2, -0.2], [1.0], 10)
    with pytest.raises(ValueError, match="finite"):
        renewal_sequence([float("nan"), 0.5], [1.0], 10)


# -- regime verifiers: exact scalar constants ----------------------------------------------
# scalar (k, m): u = (1+m)(1/(1 - kR(1+m)) ... closed forms below were worked
# out by hand: u = 2 for each fixture, beta = (1+m)/m


def test_subcritical_report_scalar(scalar_sub):
    rep = limit_subcritical(scalar_sub, 0)
    assert rep.regime == "subcritical"
    assert rep.passed()
    assert abs(rep.constants["survival_scale"]["derived"] - 1.0 / 6.0) < 1e-12
    assert abs(rep.constants["limit_mean"]["derived"] - 5.0) < 1e-12
    assert abs(rep.constants["conditional:const:0.6"]["derived"] - 0.2) < 1e-12
    assert rep.converged["m_n"]
    d = rep.as_dict()
    assert d["schema"] == stats.REPORT_SCHEMA
    assert len(d["tests"]) == len(rep.tests)


def test_subcritical_exp_family(exp_sub):
    rep = limit_subcritical(exp_sub, 0.5, n_grid=(10, 20, 30, 40),
                            probes=("tilt:1.0", "const:0.6"))
    assert rep.passed()
    # limit kernel mass exactly one is part of the report
    names = [t.name for t in rep.tests]
    assert "limit kernel has mass one" in names


def test_subcritical_requires_regime(scalar_crit):
    with pytest.raises(RegimeError, match="critical"):
        limit_subcritical(scalar_crit, 0)


def test_critical_report_exact_only(scalar_crit):
    rep = limit_critical(scalar_crit, 0)
    assert rep.regime == "critical"
    assert rep.passed()
    c = rep.constants
    assert abs(c["n_survival"]["derived"] - 1.0) < 1e-12
    assert abs(c["n_survival"]["printed"] - 2.0) < 1e-12
    assert abs(c["mean_slope"]["derived"] - 1.0) < 1e-12
    assert abs(c["yaglom_mean"]["derived"] - 1.0) < 1e-12
    assert abs(c["yaglom_mean"]["printed"] - 2.0) < 1e-12
    kinds = {t.name: t for t in rep.tests}
    refute = kinds["n * survival refutes printed constant"]
    assert refute.passed and refute.kind == "refutation"


def test_critical_mc_requires_seed(scalar_crit):
    with pytest.raises(ValueError, match="seed"):
        limit_critical(scalar_crit, 0, n_grid=(10, 20), reps=100)


def test_critical_mc_insufficient_power(scalar_crit_m2):
    rep = limit_critical(scalar_crit_m2, 0, n_grid=(50, 100), reps=2000,
                         seed=3)
    # ~2000/201 conditioned survivors, far below the verdict floor
    assert any("insufficient power" in n for n in rep.notes)
    withheld = [t for t in rep.tests if t.kind == "mc"][0]
    assert withheld.passed is None
    assert rep.passed()  # withheld rows do not fail the report


def test_critical_mc_powered(scalar_crit_m2):
    rep = limit_critical(scalar_crit_m2, 0, n_grid=(10, 20), reps=30_000,
                         seed=5, workers=4)
    mc_rows = [t for t in rep.tests if t.kind == "mc"]
    assert all(t.passed for t in mc_rows)
    mean_row = [t for t in mc_rows if "scaled mean" in t.name][0]
    assert mean_row.sample_size >= YAGLOM_MIN
    assert abs(rep.constants["yaglom_mean"]["measured"] - 2.0) < 0.2


def test_yaglom_sample_typed_probe_matches_const(scalar_crit):
    # const probe fast path and the trajectory path must agree in law;
    # with w = const:1 they agree replicate by replicate
    a = yaglom_sample(scalar_crit, 5, 300, seed=9, w="const")
    b = yaglom_sample(scalar_crit, 5, 300, seed=9, w="expr:np.ones_like(y)")
    assert np.array_equal(a, b)


def test_supercritical_report_scalar(scalar_super):
    rep = limit_supercritical(scalar_super, 0)
    assert rep.regime == "supercritical"
    assert rep.passed()
    c = rep.constants
    assert abs(c["survival"]["derived"] - 0.5) < 1e-9
    assert abs(c["survival"]["printed"] - 1.0) < 1e-9
    assert abs(c["mn_scaled"]["derived"] - 2.0) < 1e-9
    refuted = [t for t in rep.tests if t.kind == "refutation"]
    assert refuted and all(t.passed for t in refuted)


def test_supercritical_mc_tail(scalar_super):
    rep = limit_supercritical(scalar_super, 0, n_grid=(4, 8), reps=4000,
                              seed=11)
    mc = [t for t in rep.tests if t.kind == "mc"]
    assert mc and all(t.passed for t in mc if t.passed is not None)


def test_limit_report_dispatch(scalar_sub, scalar_crit, scalar_super):
    assert limit_report(scalar_sub, 0).regime == "subcritical"
    assert limit_report(scalar_crit, 0).regime == "critical"
    assert limit_report(scalar_super, 0).regime == "supercritical"
