"""The one replicate map and the Monte Carlo paths built on it."""

import numpy as np
import pytest

from lfbp import streams
from lfbp.errors import PopulationCapError
from lfbp.simulate import (bgw_generation, replicate_map, replicate_zn,
                           simulate_bgw)
from lfbp.stats import yaglom_sample
from lfbp.typespace import make_exp_triplet, make_finite_triplet


def _first_uniform(scale):
    return lambda rng: scale * rng.random()


def test_replicate_map_keys_replicate_i_to_stream_i():
    got = replicate_map(_first_uniform, (2.0,), 12, seed=5)
    want = [2.0 * streams.stream(5, i).random() for i in range(12)]
    assert np.array_equal(got, want)
    pooled = replicate_map(_first_uniform, (2.0,), 12, seed=5, workers=3)
    assert np.array_equal(got, pooled)


def test_yaglom_typed_probe_worker_invariance():
    t = make_exp_triplet(1.2, 0.7, 1.5)
    a = yaglom_sample(t, 5, 3000, seed=4, w="tilt:0.7", workers=1)
    b = yaglom_sample(t, 5, 3000, seed=4, w="tilt:0.7", workers=3)
    assert a.dtype == float and len(a) == 3000
    assert np.array_equal(a, b)


def test_exp_replicate_zn_matches_simulate_bgw_on_the_same_stream():
    t = make_exp_triplet(1.2, 0.7, 1.5)
    n, seed = 5, 17
    zs = replicate_zn(t, n, 200, seed)
    for i in range(200):
        snaps = simulate_bgw(t, "gamma", n, streams.stream(seed, i))
        assert zs.raw[i] == snaps[n].size
    assert zs.survival_rate() > 0.0


@pytest.mark.parametrize("start", ["gamma", 1])
def test_bgw_generation_equals_last_snapshot(start):
    t = make_finite_triplet([[0.3, 0.2, 0.1], [0.1, 0.5, 0.2],
                             [0.2, 0.2, 0.3]], [0.2, 0.3, 0.5], 1.2)
    for i in range(100):
        pts = bgw_generation(t, start, 6, streams.stream(23, i))
        snaps = simulate_bgw(t, start, 6, streams.stream(23, i))
        assert pts.dtype == np.int64
        assert np.array_equal(pts, snaps[6].points)


@pytest.mark.parametrize("w", ["const", "tilt:0.5"])
def test_yaglom_cap_raises_population_cap_error_for_every_probe(w):
    t = make_finite_triplet([[0.75]], [1.0], 1.0)
    with pytest.raises(PopulationCapError) as exc:
        yaglom_sample(t, 25, 400, seed=61, w=w, cap=200)
    assert exc.value.cap == 200 and exc.value.size > 200
