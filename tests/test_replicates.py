"""The one replicate map and the Monte Carlo paths built on it.

The batched engines of all three simulators are checked in law against the
exact generation-n law at fixed seeds; for bgw also on the path where a
crowded block finishes its replicates one at a time.
"""

import numpy as np
import pytest
from scipy import stats

from lfbp import simulate, streams
from lfbp.errors import PopulationCapError
from lfbp.evolution import evolve
from lfbp.measures import probe
from lfbp.simulate import (BLOCK, DEFAULT_CAP, bgw_block, bgw_sample,
                           cmj_block, contour_block, replicate_map,
                           replicate_zn, simulate_bgw, simulate_cmj,
                           simulate_contour)
from lfbp.spectral import LifeLengthLaw
from lfbp.stats import yaglom_sample
from lfbp.typespace import make_exp_triplet, make_finite_triplet

TRIPLETS = {
    "scalar": make_finite_triplet([[0.5]], [1.0], 1.0),
    "3-type": make_finite_triplet([[0.3, 0.2, 0.1], [0.1, 0.5, 0.2],
                                   [0.2, 0.2, 0.3]], [0.2, 0.3, 0.5], 1.2),
    "exp": make_exp_triplet(1.2, 0.7, 1.5),
}
TYPED_START = {"scalar": 0, "3-type": 1, "exp": 0.5}


def _uniforms(scale, key, size):
    return scale * streams.stream(*key).random(size)


def test_replicate_map_keys_block_b_to_stream_b():
    # 12 whole blocks and a one-replicate block, so workers=3 pools
    reps = 12 * BLOCK + 1
    got = replicate_map(_uniforms, (2.0,), reps, seed=5)
    sizes = [BLOCK] * 12 + [1]
    want = 2.0 * np.concatenate([streams.stream(5, b).random(size)
                                 for b, size in enumerate(sizes)])
    assert np.array_equal(got, want)
    pooled = replicate_map(_uniforms, (2.0,), reps, seed=5, workers=3)
    assert np.array_equal(got, pooled)


def test_yaglom_typed_probe_worker_invariance():
    t = make_exp_triplet(1.2, 0.7, 1.5)
    a = yaglom_sample(t, 5, 3000, seed=4, w="tilt:0.7", workers=1)
    b = yaglom_sample(t, 5, 3000, seed=4, w="tilt:0.7", workers=3)
    assert a.dtype == float and len(a) == 3000
    assert np.array_equal(a, b)


@pytest.mark.parametrize("family,start",
                         [("exp", "gamma"), ("finite", "gamma"), ("finite", 1)])
def test_one_replicate_block_matches_simulate_bgw_on_the_same_stream(family,
                                                                     start):
    # block 0 of a one-replicate run draws from stream (seed, 0) exactly as
    # simulate_bgw does, so its Z_n and probe sum are the last snapshot's
    t = TRIPLETS["3-type" if family == "finite" else "exp"]
    w = probe("tilt:0.7")
    for seed in range(100):
        last = simulate_bgw(t, start, 6, streams.stream(seed, 0))[6].points
        z, s = bgw_block(t, start, 6, DEFAULT_CAP, w.spec, False, (seed, 0), 1)[0]
        assert z == len(last) and s == pytest.approx(float(w(last).sum()))
        assert replicate_zn(t, 6, 1, seed, start=start).raw[0] == len(last)


@pytest.mark.parametrize("name", list(TRIPLETS))
def test_one_replicate_block_matches_cmj_and_contour_on_the_same_stream(name):
    t = TRIPLETS[name]
    law = LifeLengthLaw(t)
    for seed in range(100):
        counts = simulate_cmj(t, 6, streams.stream(seed, 0))
        assert cmj_block(law, 6, DEFAULT_CAP, (seed, 0), 1)[0] == counts[6]
        walk = simulate_contour(t, 6, streams.stream(seed, 0))
        assert contour_block(law, 6, simulate._WALK_CAP, (seed, 0), 1)[0] == walk


def test_a_scalar_probe_value_counts_at_every_point():
    # expr:1 evaluates to one number for a whole generation; it weighs each
    # point as const does, not each replicate once
    t = TRIPLETS["3-type"]
    const = yaglom_sample(t, 5, 3000, seed=9, w="const")
    assert np.array_equal(yaglom_sample(t, 5, 3000, seed=9, w="expr:1"), const)
    assert const.max() > 1.0


@pytest.mark.parametrize("w", ["const", "tilt:0.5"])
def test_yaglom_cap_raises_population_cap_error_for_every_probe(w):
    t = make_finite_triplet([[0.75]], [1.0], 1.0)
    with pytest.raises(PopulationCapError) as exc:
        yaglom_sample(t, 25, 400, seed=61, w=w, cap=200)
    assert exc.value.cap == 200 and exc.value.size > 200


# -- batched engine against the exact law --------------------------------------------


def _gamma_mean(t, n, w):
    """gamma M^n w = (m_{n+1} gamma_{n+1}(w) - m_n gamma_n(w)) / m."""
    a, b = evolve(t, n), evolve(t, n + 1)
    return (b.m_n * w.apply(b.gamma_n) - a.m_n * w.apply(a.gamma_n)) / t.m


def _exact_pmf(t, n, start, k):
    """P(Z_n = k) from ``start``: GenerationLaw.pmf, gamma-averaged for 'gamma'."""
    law = evolve(t, n)
    if start != "gamma":
        return law.pmf(start, k)
    if t.family == "finite":
        return sum(g * law.pmf(x, k) for x, g in enumerate(t.gamma_vector))
    s = _gamma_mean(t, n, probe("const")) / (1.0 + law.m_n)
    return 1.0 - s if k == 0 else s * law.pmf(1.0, k) / law.survival(1.0)


def _chi_square_p(zn, t, n, start):
    """Chi-square p of Z_n counts against the exact pmf; bins hold >= 5 expected."""
    reps, probs = len(zn), []
    while reps * (1.0 - sum(probs)) >= 10.0:
        probs.append(_exact_pmf(t, n, start, len(probs)))
    probs[-1] = 1.0 - sum(probs[:-1])          # last bin is the tail
    obs = np.bincount(np.minimum(zn, len(probs) - 1), minlength=len(probs))
    return stats.chisquare(obs, reps * np.array(probs)).pvalue


@pytest.mark.parametrize("name", list(TRIPLETS))
@pytest.mark.parametrize("typed", [False, True])
def test_batched_zn_matches_exact_pmf(name, typed):
    t = TRIPLETS[name]
    start = TYPED_START[name] if typed else "gamma"
    zs = replicate_zn(t, 5, 20_000, seed=71, start=start)
    assert zs.discarded == 0
    assert _chi_square_p(zs.raw, t, 5, start) > 1e-3


@pytest.mark.parametrize("name", list(TRIPLETS))
@pytest.mark.parametrize("sim", ["cmj", "contour"])
def test_cmj_and_contour_blocks_match_exact_pmf(name, sim):
    t = TRIPLETS[name]
    zs = replicate_zn(t, 5, 20_000, seed=79, simulator=sim)
    assert zs.discarded == 0
    assert _chi_square_p(zs.raw, t, 5, "gamma") > 1e-3


@pytest.mark.parametrize("name", ["3-type", "exp"])
def test_batched_tilt_sum_mean_matches_gamma_mn_w(name):
    t, w = TRIPLETS[name], probe("tilt:0.7")
    zw = bgw_sample(t, 5, 20_000, seed=72, w=w.spec)
    # 0 < w <= 1 at every type, e^-1.4 <= w on the three finite types
    low = np.exp(-1.4) if t.family == "finite" else 0.0
    assert np.all((zw[:, 0] * low <= zw[:, 1]) & (zw[:, 1] <= zw[:, 0]))
    assert np.array_equal(zw[:, 1] > 0, zw[:, 0] > 0)
    se = zw[:, 1].std(ddof=1) / np.sqrt(len(zw))
    assert abs(zw[:, 1].mean() - _gamma_mean(t, 5, w)) < 4.0 * se


@pytest.mark.parametrize("name", ["3-type", "exp"])
def test_a_lone_survivor_carries_the_marked_law(name):
    # given Z_n = 1 the one point is the marked individual, drawn from
    # K_n(x, .)/K_n(x, E); a probe sum credited to the wrong replicate would
    # mix in gamma_n-typed points
    t, x, w = TRIPLETS[name], TYPED_START[name], probe("tilt:0.7")
    law = evolve(t, 3)
    zw = bgw_sample(t, 3, 20_000, seed=77, start=x, w=w.spec)
    one = zw[zw[:, 0] == 1, 1]
    se = one.std(ddof=1) / np.sqrt(len(one))
    assert abs(one.mean() - law.kn_tilt(x, 0.7) / law.kn_mass(x)) < 4.0 * se


@pytest.mark.parametrize("name", list(TRIPLETS))
def test_split_blocks_keep_the_exact_law(name, monkeypatch):
    # a live bound just above BLOCK lets blocks step together for a few
    # generations and then finish their replicates one at a time on streams
    # (seed, b, j + 1)
    t = TRIPLETS[name]
    monkeypatch.setattr(simulate, "_LIVE", 1100)
    paths = []
    real = simulate.stream
    monkeypatch.setattr(simulate, "stream",
                        lambda *key: paths.append(len(key)) or real(*key))
    zs = replicate_zn(t, 5, 20_000, seed=73)
    assert paths.count(3) > 1000
    assert _chi_square_p(zs.raw, t, 5, "gamma") > 1e-3
    w = probe("tilt:0.7")
    zw = bgw_sample(t, 5, 20_000, seed=74, w=w.spec)
    se = zw[:, 1].std(ddof=1) / np.sqrt(len(zw))
    assert abs(zw[:, 1].mean() - _gamma_mean(t, 5, w)) < 4.0 * se


def test_split_streams_differ_from_every_other_stream(monkeypatch):
    # SeedSequence pads its entropy with zeros, so stream(s, b, 0) is
    # stream(s, b): a split replicate keyed that way would replay its block's
    # uniforms. No particle ever dies here, so every replicate splits.
    t = make_finite_triplet([[1.0]], [1.0], 0.1)
    monkeypatch.setattr(simulate, "_LIVE", 1100)
    keys = []
    real = simulate.stream
    monkeypatch.setattr(simulate, "stream",
                        lambda *key: keys.append(key) or real(*key))
    bgw_sample(t, 3, 2 * BLOCK + 5, seed=78, start=0)
    assert sum(len(key) == 3 for key in keys) == 2 * BLOCK
    assert len({real(*key).random() for key in keys}) == len(keys)


def test_split_blocks_discard_per_replicate(monkeypatch):
    # a replicate that dies out never reaches the cap of 200, so the extinct
    # count follows the exact P(Z_25 = 0) whichever path discards the others
    t = make_finite_triplet([[0.75]], [1.0], 1.0)
    q = 1.0 - evolve(t, 25).survival(0)
    whole = replicate_zn(t, 25, 400, seed=61, cap=200)
    monkeypatch.setattr(simulate, "_LIVE", 64)
    split = replicate_zn(t, 25, 400, seed=61, cap=200)
    for zs in (whole, split):
        assert zs.discarded > 0
        assert np.array_equal(zs.values, zs.raw[zs.raw >= 0])
        assert zs.values.max() <= 200
        zeros = int((zs.raw == 0).sum())
        assert abs(zeros - 400 * q) < 4.0 * np.sqrt(400 * q * (1.0 - q))


def test_cmj_cap_discards_per_replicate():
    # a replicate that dies out rarely has 200 births, so the extinct count
    # follows the exact P(Z_25 = 0) while growing replicates pass the cap
    t = make_finite_triplet([[0.75]], [1.0], 1.0)
    q = 1.0 - evolve(t, 25).survival(0)
    zs = replicate_zn(t, 25, 400, seed=80, simulator="cmj", cap=200)
    assert zs.discarded > 0
    assert np.array_equal(zs.values, zs.raw[zs.raw >= 0])
    zeros = int((zs.raw == 0).sum())
    assert abs(zeros - 400 * q) < 4.0 * np.sqrt(400 * q * (1.0 - q))


def test_contour_step_cap_discards_per_walk():
    # one step allowed: a walk finishes only if it starts at height 0
    # (L = 1) or starts at 1 (L = 2) and steps down; it then counts 0
    t = TRIPLETS["scalar"]
    law = LifeLengthLaw(t)
    d = law.tails(2)
    kept = (1.0 - d[1]) + (d[1] - d[2]) / (1.0 + t.m)
    zn = np.concatenate([contour_block(law, 5, 1, (81, b), BLOCK)
                         for b in range(4)])
    assert set(np.unique(zn)) == {-1, 0}
    hits, reps = int((zn == 0).sum()), len(zn)
    assert abs(hits - reps * kept) < 4.0 * np.sqrt(reps * kept * (1.0 - kept))


@pytest.mark.parametrize("workers", [2, 3])
def test_blocks_are_byte_identical_across_workers(workers):
    # 12 whole blocks and a one-replicate block: both pools split blocks
    t, reps = TRIPLETS["exp"], 12 * BLOCK + 1
    one = bgw_sample(t, 4, reps, seed=75, w="tilt:0.7")
    many = bgw_sample(t, 4, reps, seed=75, w="tilt:0.7", workers=workers)
    assert one.shape == (reps, 2) and one.tobytes() == many.tobytes()
    for sim in ("bgw", "cmj", "contour"):
        a = replicate_zn(TRIPLETS["3-type"], 4, reps, seed=76, simulator=sim)
        b = replicate_zn(TRIPLETS["3-type"], 4, reps, seed=76, simulator=sim,
                         workers=workers)
        assert a.raw.tobytes() == b.raw.tobytes()
