"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test prints ``ACCEPTANCE nn: PASS/FAIL`` before asserting, so the
transcript always carries one line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from lfbp import evolution, simulate, stats, streams
from lfbp.cli import main as cli_main
from lfbp.evolution import evolve, gen_functional, survival_prob
from lfbp.spectral import LifeLengthLaw, classify, eigen_build, eigen_residuals
from lfbp.typespace import make_exp_triplet, make_finite_triplet

from conftest import random_supercritical, random_triplet
from oracles import gen_functional_iterated, power_iteration

SUB = make_finite_triplet([[0.4]], [1.0], 1.0)
CRIT = make_finite_triplet([[0.5]], [1.0], 1.0)
CRIT_M2 = make_finite_triplet([[1.0 / 3.0]], [1.0], 2.0)
SUPER = make_finite_triplet([[0.75]], [1.0], 1.0)
EXP11 = make_exp_triplet(1.0, 1.0, 2.0)


def _line(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_functional_vs_composition_oracle():
    t0 = time.perf_counter()
    rng = streams.stream(101, 0)
    worst = 0.0
    for _ in range(100):
        t = random_triplet(rng)
        n = int(rng.integers(1, 21))
        h = rng.random(t.d)
        x = int(rng.integers(0, t.d))
        diff = abs(gen_functional(t, x, n, h)
                   - gen_functional_iterated(t, x, n, h))
        worst = max(worst, diff)
    wall = time.perf_counter() - t0
    _line(1, worst <= 1e-10 and wall < 10.0,
          f"100 random triplets, max |closed form - iterated| = {worst:.2e}, "
          f"{wall:.1f} s")


def test_criterion_02_generation_one_consistency():
    rng = streams.stream(102, 0)
    eps = np.finfo(float).eps
    worst = 0.0
    for _ in range(100):
        t = random_triplet(rng)
        law = evolve(t, 1)
        worst = max(worst,
                    abs(law.m_n - t.m) / max(1.0, t.m),
                    float(np.max(np.abs(law.gamma_n.vector - t.gamma_vector))),
                    float(np.max(np.abs(law.Kn - t.K))))
    _line(2, worst <= 8 * eps,
          f"m_1, gamma_1, K_1 reproduce the triplet to {worst:.2e} "
          f"(cancellation level, tolerance {8 * eps:.2e})")


def test_criterion_03_critical_survival_exact_and_mc():
    exact_ok = all(abs(survival_prob(CRIT, 0, n) - 1.0 / (1.0 + n)) < 1e-14
                   for n in range(1, 101))
    worst_z = 0.0
    for n in range(1, 11):
        zs = simulate.replicate_zn(CRIT, n, 100_000, seed=500 + n, workers=4)
        p = 1.0 / (1.0 + n)
        se = math.sqrt(p * (1.0 - p) / zs.reps)
        worst_z = max(worst_z, abs(zs.survival_rate() - p) / se)
    _line(3, exact_ok and worst_z <= 3.0,
          f"P(Z_n>0) = 1/(1+n) exact for n <= 100; Monte Carlo at 1e5 reps "
          f"within {worst_z:.2f} se for n <= 10")


def test_criterion_04_perron_frobenius_cross_oracle():
    rng = streams.stream(104, 0)
    worst_gap, worst_res = 0.0, 0.0
    for _ in range(50):
        t = random_supercritical(rng)
        s = classify(t)
        rho_m, _, _, _ = power_iteration(t.M)
        worst_gap = max(worst_gap, abs(1.0 / s.R - rho_m))
        res = eigen_residuals(t, eigen_build(t, s))
        worst_res = max(worst_res, res["right"], res["left"])
    _line(4, worst_gap <= 1e-8 and worst_res <= 1e-6,
          f"50 supercritical triplets: max |1/R - Perron root| = "
          f"{worst_gap:.2e}, max eigen residual = {worst_res:.2e}")


def test_criterion_05_exp_family_closed_forms():
    law = LifeLengthLaw(EXP11)
    d = law.tails(20)
    d_err = max(abs(d[n] - 1.0 / math.factorial(n + 1)) for n in range(21))
    f1_err = abs(law.f_eval(1.0) - (math.e - 2.0))
    x = law.sample(streams.stream(105, 0), size=1_000_000)
    mean, se = stats.mc_mean_se(x.astype(float))
    el_gap = abs(mean - (math.e - 1.0)) / se
    mstar = classify(make_exp_triplet(1.0, 1.0, 1.0 / (math.e - 2.0)))
    crit_err = abs(mstar.mf1 - 1.0)
    ok = (d_err <= 1e-14 and f1_err <= 1e-12 and el_gap <= 3.0
          and crit_err <= 1e-10)
    _line(5, ok,
          f"d_n = 1/(n+1)! to {d_err:.1e}; f(1) - (e-2) = {f1_err:.1e}; "
          f"E[L] within {el_gap:.2f} se at 1e6 draws; "
          f"m* criticality error {crit_err:.1e}")


_INSTANCES = (("subcritical", SUB), ("critical", CRIT), ("supercritical", SUPER))


def _simulator_samples(reps=10_000):
    out = {}
    for name, t in _INSTANCES:
        for n in (3, 6):
            for idx, sim in enumerate(simulate.SIMULATORS):
                zs = simulate.replicate_zn(t, n, reps,
                                           seed=600 + 1_000_003 * idx,
                                           simulator=sim, workers=4)
                out[(name, n, sim)] = zs
    return out


def test_criterion_06_and_07_simulator_agreement_and_geometric_law():
    t0 = time.perf_counter()
    samples = _simulator_samples()
    min_p = 1.0
    for name, _ in _INSTANCES:
        for n in (3, 6):
            sims = simulate.SIMULATORS
            for i in range(3):
                for j in range(i + 1, 3):
                    _, p = stats.ks_two_sample(
                        samples[(name, n, sims[i])].values,
                        samples[(name, n, sims[j])].values)
                    min_p = min(min_p, p)
    wall = time.perf_counter() - t0
    _line(6, min_p > 0.01 and wall < 120.0,
          f"pairwise KS across bgw/cmj/contour, 3 regimes x n in (3,6) at "
          f"1e4 reps: min p = {min_p:.3f}, {wall:.0f} s")

    min_chi = 1.0
    for name, t in _INSTANCES:
        for n in (3, 6):
            law = evolve(t, n)
            cond = samples[(name, n, "bgw")].conditioned()
            _, _, p = stats.chi_square_geometric(cond, law.m_n)
            min_chi = min(min_chi, p)
    _line(7, min_chi > 0.01,
          f"Z_n | Z_n>0 vs 1 + geometric(m_n), same instances: "
          f"min chi-square p = {min_chi:.3f}")


def test_criterion_08_subcritical_limits_by_n60():
    R = classify(SUB).R
    surv_err = abs(survival_prob(SUB, 0, 60) * R ** 60 - 1.0 / 6.0)
    mn_err = abs(evolve(SUB, 60).m_n - 5.0)
    _line(8, surv_err <= 1e-3 and mn_err <= 1e-3,
          f"scalar k=0.4: |rho^-60 P - 1/6| = {surv_err:.2e}, "
          f"|m_60 - 5| = {mn_err:.2e}")


def test_criterion_09_certify_derived_refute_printed():
    t0 = time.perf_counter()
    rep_c = stats.limit_critical(CRIT, 0)
    rep_s = stats.limit_supercritical(SUPER, 0)
    ok = rep_c.passed() and rep_s.passed()
    both_stated = all(
        co["printed"] != co["derived"]
        for co in (rep_c.constants["n_survival"], rep_s.constants["survival"]))
    refutes = [t for t in rep_c.tests + rep_s.tests if t.kind == "refutation"]
    ok = ok and both_stated and len(refutes) >= 2 and all(t.passed for t in refutes)
    wall = time.perf_counter() - t0
    _line(9, ok and wall < 1.0,
          f"derived constants certified (critical n*P -> "
          f"{rep_c.constants['n_survival']['derived']:.3f}, supercritical "
          f"P -> {rep_s.constants['survival']['derived']:.3f}); printed "
          f"beta-bearing variants refuted; both stated; {wall:.2f} s")


def test_criterion_10_yaglom_critical_mc():
    # scalar critical with m = 2: the derived mean (1+m)/beta equals 2
    n, reps = 200, 200_000
    vals = stats.yaglom_sample(CRIT_M2, n, reps, seed=77, workers=4)
    cond = vals[vals > 0.0] / n
    mean, se = stats.mc_mean_se(cond)
    gap = abs(mean - 2.0) / se
    _, p = stats.ks_one_sample(cond,
                               lambda v: 1.0 - np.exp(-np.asarray(v) / 2.0))
    _line(10, gap <= 3.0 and p > 0.01,
          f"conditioned Z_200/200 at 2e5 reps: mean {mean:.3f} "
          f"({gap:.2f} se from 2), KS vs Exp(mean 2) p = {p:.3f} "
          f"({len(cond)} survivors)")


def test_criterion_11_renewal_utility():
    r = stats.renewal_sequence([0.5, 0.5], [1.0], 200)
    err = abs(r.c[200] - 2.0 / 3.0)
    with pytest.warns(RuntimeWarning, match="period"):
        rp = stats.renewal_sequence([0.0, 1.0], [1.0], 100)
    _line(11, err <= 1e-3 and rp.period == 2 and not rp.converged,
          f"|c_200 - 2/3| = {err:.2e}; periodic support flagged "
          f"(period {rp.period}, tail deviation {rp.tail_deviation:.2f})")


def test_criterion_12_phase_grid_contour(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "grid.csv"
    rc = cli_main(["phase-grid", "--m", "2", "--lambda-range", "0.25:3.0",
                   "--mu-range", "0.25:3.0", "--grid", "50",
                   "--out", str(out)])
    wall = time.perf_counter() - t0
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [ln.split(",") for ln in lines[2:]]
    assert len(data) == 2500
    # m f(1) = m (E L - 1) from the mean_life column
    mf1 = np.array([2.0 * (float(r[4]) - 1.0) for r in data]).reshape(50, 50)
    label = np.array([r[5] for r in data]).reshape(50, 50)
    sign = np.sign(mf1 - 1.0)
    flips = 0
    worst = 0.0
    for axis in (0, 1):
        a = np.moveaxis(sign, axis, 0)
        v = np.moveaxis(mf1, axis, 0)
        for i in range(49):
            flip = a[i] * a[i + 1] < 0
            flips += int(flip.sum())
            if flip.any():
                near = np.minimum(np.abs(v[i][flip] - 1.0),
                                  np.abs(v[i + 1][flip] - 1.0))
                step = np.abs(v[i][flip] - v[i + 1][flip])
                worst = max(worst, float(np.max(near - step)))
    labels_consistent = np.all(
        (label == "supercritical") == (mf1 > 1.0 + 1e-10))
    ok = flips > 0 and worst <= 0.0 and bool(labels_consistent) and wall < 30.0
    _line(12, ok,
          f"50x50 grid in {wall:.1f} s; {flips} contour crossings, each "
          f"endpoint within one grid step of m f(1) = 1; labels consistent")
