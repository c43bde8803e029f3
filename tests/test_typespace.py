"""Triplet construction, validation, closed-form kernel sequences."""

import math

import numpy as np
import pytest

from lfbp.errors import TripletFormatError
from lfbp.typespace import (make_exp_triplet, make_finite_triplet,
                            triplet_from_dict, triplet_to_dict)

from conftest import random_triplet


def test_finite_validation_messages():
    with pytest.raises(TripletFormatError, match="sub-stochastic"):
        make_finite_triplet([[0.6, 0.6], [0.1, 0.1]], [0.5, 0.5], 1.0)
    with pytest.raises(TripletFormatError, match="gamma"):
        make_finite_triplet([[0.5]], [0.9], 1.0)
    with pytest.raises(TripletFormatError, match="'m'"):
        make_finite_triplet([[0.5]], [1.0], -2.0)
    with pytest.raises(TripletFormatError, match="square"):
        make_finite_triplet([[0.5, 0.5]], [1.0], 1.0)


def test_exp_validation():
    with pytest.raises(TripletFormatError):
        make_exp_triplet(0.0, 1.0, 1.0)
    with pytest.raises(TripletFormatError):
        make_exp_triplet(1.0, 1.0, float("nan"))


def test_mean_kernel_rank_one_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_triplet(rng)
        expect = t.K + t.m * np.outer(t.K.sum(axis=1), t.gamma_vector)
        assert np.allclose(t.M, expect, atol=0, rtol=0)


def test_row_mass_and_gamma_cdf_cached():
    t = make_finite_triplet([[0.2, 0.3], [0.1, 0.4]], [0.6, 0.4], 1.0)
    assert np.allclose(t.K_row_mass, [0.5, 0.5])
    assert np.allclose(t.gamma_cdf, [0.6, 1.0])
    assert t.K_row_mass is t.K_row_mass  # cached


def test_validate_point():
    t = make_finite_triplet([[0.5]], [1.0], 1.0)
    assert t.validate_point(0) == 0
    with pytest.raises(ValueError):
        t.validate_point(3)
    e = make_exp_triplet(1.0, 1.0, 1.0)
    assert e.validate_point(0.7) == 0.7
    with pytest.raises(ValueError):
        e.validate_point(-0.1)


def test_exp_c_sequence_closed_form():
    # c_{j+1} = c_j lam/(lam+j)
    lam = 1.7
    t = make_exp_triplet(lam, 0.9, 1.0)
    c = t.c_sequence(12)
    want = 1.0
    for j in range(12):
        assert abs(c[j] - want) < 1e-15 * max(1.0, want)
        want *= lam / (lam + j)


def test_exp_d_sequence_factorial_oracle():
    # lam = mu = 1: d_n = 1/(n+1)!
    t = make_exp_triplet(1.0, 1.0, 1.0)
    d = t.d_sequence(21)
    for n in range(1, 21):
        assert abs(d[n] - 1.0 / math.factorial(n + 1)) <= 1e-14


def test_finite_kernel_power_mass():
    rng = np.random.default_rng(5)
    t = random_triplet(rng, 4)
    M3 = np.linalg.matrix_power(t.K, 3)
    for x in range(4):
        # gamma = delta_x makes d_3 the mass K^3(x, E)
        at_x = make_finite_triplet(t.K, np.eye(4)[x], t.m)
        assert abs(at_x.d_sequence(3)[3] - M3[x].sum()) < 1e-14


def test_json_round_trip():
    rng = np.random.default_rng(11)
    t = random_triplet(rng, 3)
    t2 = triplet_from_dict(triplet_to_dict(t))
    assert np.array_equal(t.K, t2.K) and np.array_equal(
        t.gamma_vector, t2.gamma_vector) and t.m == t2.m
    e = make_exp_triplet(1.25, 0.75, 2.0)
    e2 = triplet_from_dict(triplet_to_dict(e))
    assert (e2.lam, e2.mu, e2.m) == (1.25, 0.75, 2.0)
    with pytest.raises(TripletFormatError, match="family"):
        triplet_from_dict({"family": "weird"})
    with pytest.raises(TripletFormatError, match="missing"):
        triplet_from_dict({"family": "finite", "K": [[0.5]]})


def test_marked_sampling_matches_kernel_row():
    rng = np.random.default_rng(7)
    t = make_finite_triplet([[0.1, 0.3], [0.25, 0.25]], [0.5, 0.5], 1.0)
    draws = np.array([t.kernel.sample_marked(0, rng) for _ in range(4000)])
    # conditional on the marked child existing, its type is K row / row mass
    frac1 = (draws == 1).mean()
    assert abs(frac1 - 0.75) < 3 * math.sqrt(0.75 * 0.25 / 4000)
