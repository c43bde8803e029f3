"""The three simulators against the exact engine and each other."""

import math

import numpy as np
import pytest

from lfbp import evolution, simulate, streams
from lfbp.errors import PopulationCapError, WalkCapError
from lfbp.simulate import (SIMULATORS, replicate_zn, simulate_bgw,
                           simulate_cmj, simulate_contour,
                           simulate_typed_lineage)
from lfbp.spectral import LifeLengthLaw
from lfbp.typespace import make_exp_triplet, make_finite_triplet

from conftest import random_triplet


def _pmf_check(values, law, x, kmax=6, nse=4.0):
    """Empirical frequencies of Z_n against the exact pmf, nse sigma."""
    n = len(values)
    for k in range(kmax):
        p = law.pmf(x, k)
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
        assert abs(float((values == k).mean()) - p) < nse * se + 1e-9, k


# -- direct simulator checks ------------------------------------------------------


def test_bgw_snapshots_shape(scalar_crit):
    rng = streams.stream(50, 0)
    snaps = simulate_bgw(scalar_crit, "gamma", 5, rng)
    assert [s.generation for s in snaps] == list(range(6))
    assert all(s.points.dtype == np.int64 for s in snaps)
    # extinction is absorbing
    sizes = [s.points.size for s in snaps]
    for a, b in zip(sizes[:-1], sizes[1:]):
        assert not (a == 0 and b > 0)


def test_bgw_exp_family_points_positive(exp_super):
    rng = streams.stream(50, 1)
    snaps = simulate_bgw(exp_super, 1.0, 3, rng)
    assert snaps[0].points.dtype == float
    for s in snaps:
        assert np.all(s.points > 0)


def test_contour_generation_one_matches_exact_pmf(scalar_sub):
    # Z_1: mass 1-k at zero, then k m^(j-1)/(1+m)^j
    law = evolution.evolve(scalar_sub, 1)
    zs = replicate_zn(scalar_sub, 1, 20_000, seed=51, simulator="contour")
    assert zs.discarded == 0
    _pmf_check(zs.values, law, 0)


def test_cmj_generation_one_matches_exact_pmf(scalar_sub):
    law = evolution.evolve(scalar_sub, 1)
    zs = replicate_zn(scalar_sub, 1, 20_000, seed=52, simulator="cmj")
    _pmf_check(zs.values, law, 0)


@pytest.mark.parametrize("sim", SIMULATORS)
def test_survival_rate_matches_exact(sim, scalar_crit):
    n = 4
    zs = replicate_zn(scalar_crit, n, 20_000, seed=53, simulator=sim)
    p = evolution.survival_prob(scalar_crit, 0, n)
    se = math.sqrt(p * (1.0 - p) / zs.reps)
    assert abs(zs.survival_rate() - p) < 4.0 * se


def test_bgw_exp_survival_matches_exact(exp_super):
    # gamma-averaged survival; n = 2 keeps populations small
    n = 2
    zs = replicate_zn(exp_super, n, 20_000, seed=54, simulator="bgw")
    from lfbp import quadrature
    want = quadrature.exp_weighted(
        lambda y: np.array([evolution.survival_prob(exp_super, float(v), n)
                            for v in np.atleast_1d(y)]), 1.0)
    se = math.sqrt(want * (1.0 - want) / zs.reps)
    assert abs(zs.survival_rate() - want) < 4.0 * se


def test_cmj_counts_against_mean_growth(scalar_sub):
    # E Z_t = (k(1+m))^t from a gamma ancestor; scalar k=0.4, m=1 gives 0.8^t
    rng_mean = np.zeros(4)
    reps = 30_000
    for i in range(reps):
        counts = simulate_cmj(scalar_sub, 3, streams.stream(55, i))
        rng_mean += counts
    rng_mean /= reps
    for t in range(4):
        want = 0.8 ** t
        assert abs(rng_mean[t] - want) < 0.02, t


# -- life lengths and lineages ------------------------------------------------------


def test_sample_life_length_capped_law(scalar_sub):
    law = LifeLengthLaw(scalar_sub)
    rng = streams.stream(56, 0)
    x = law.sample_capped(rng, 3, size=50_000)
    d = law.tails(3)
    # P(min(L, 4) > n) = d_n for n <= 3
    for n in range(1, 4):
        frac = float((x > n).mean())
        se = math.sqrt(d[n] * (1.0 - d[n]) / 50_000)
        assert abs(frac - d[n]) < 4.0 * se
    assert np.all(x <= 4)


def test_typed_lineage_survival_step(exp_super):
    # P(len > 1 | start x) = K(x, E) = exp(-x)
    x = 0.9
    want = math.exp(-x)
    rng = streams.stream(57, 0)
    lens = np.array([simulate_typed_lineage(exp_super, x, rng).size
                     for _ in range(20_000)])
    frac = float((lens > 1).mean())
    se = math.sqrt(want * (1.0 - want) / 20_000)
    assert abs(frac - want) < 4.0 * se
    assert np.all(lens >= 1)


def test_typed_lineage_finite_matches_tails():
    rng = streams.stream(58, 0)
    t = random_triplet(rng, 3)
    law = LifeLengthLaw(t)
    # lineage from a gamma start has P(len > n) = d_n
    lens = np.empty(20_000, dtype=np.int64)
    for i in range(len(lens)):
        r = streams.stream(58, 1, i)
        x0 = int(r.choice(3, p=t.gamma_vector))
        lens[i] = simulate_typed_lineage(t, x0, r).size
    d = law.tails(3)
    for n in range(1, 4):
        frac = float((lens > n).mean())
        se = math.sqrt(d[n] * (1.0 - d[n]) / len(lens))
        assert abs(frac - d[n]) < 4.0 * se


def test_typed_lineage_step_cap():
    t = make_finite_triplet([[1.0 - 1e-12]], [1.0], 1.0)
    with pytest.raises(WalkCapError):
        simulate_typed_lineage(t, 0, streams.stream(59, 0), step_cap=50)


# -- caps and discards ----------------------------------------------------------------


def test_bgw_population_cap_raises(scalar_super):
    rng = streams.stream(60, 4)
    with pytest.raises(PopulationCapError) as exc:
        # force survival-heavy growth with a deep horizon and a tiny cap
        for i in range(200):
            simulate_bgw(scalar_super, 0, 40, streams.stream(60, i), cap=50)
    assert exc.value.cap == 50
    assert exc.value.size > 50


def test_replicate_discards_capped_runs(scalar_super):
    zs = replicate_zn(scalar_super, 25, 400, seed=61, cap=200)
    assert zs.discarded > 0
    assert zs.raw is not None and (zs.raw < 0).sum() == zs.discarded
    assert np.array_equal(zs.values, zs.raw[zs.raw >= 0])
    assert zs.reps == 400
    assert np.all(zs.conditioned() > 0)


def test_unknown_simulator_rejected(scalar_crit):
    with pytest.raises(ValueError, match="unknown simulator"):
        replicate_zn(scalar_crit, 2, 10, seed=0, simulator="exactish")


# -- replicate driver determinism ------------------------------------------------------


@pytest.mark.parametrize("sim", SIMULATORS)
def test_worker_count_invariance(sim, scalar_crit):
    a = replicate_zn(scalar_crit, 5, 64, seed=62, simulator=sim, workers=1)
    b = replicate_zn(scalar_crit, 5, 64, seed=62, simulator=sim, workers=4)
    assert np.array_equal(a.raw, b.raw)


def test_replicates_reproducible(exp_super):
    a = replicate_zn(exp_super, 3, 50, seed=63, simulator="bgw")
    b = replicate_zn(exp_super, 3, 50, seed=63, simulator="bgw")
    assert np.array_equal(a.values, b.values)
    c = replicate_zn(exp_super, 3, 50, seed=64, simulator="bgw")
    assert not np.array_equal(a.values, c.values)
