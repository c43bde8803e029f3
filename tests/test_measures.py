"""The two measure classes and the exact probe dispatch."""

import time

import numpy as np
import pytest

from lfbp import streams
from lfbp.evolution import evolve
from lfbp.measures import probe
from lfbp.spectral import NuMeasure, classify
from lfbp.stats import limit_triplet_measures
from lfbp.typespace import make_exp_triplet, make_finite_triplet


def _exp_measures():
    t = make_exp_triplet(1.2, 0.7, 1.5)
    s = classify(t)
    law = evolve(t, 4)
    gamma_tilde, kappa_tilde = limit_triplet_measures(t, s.R, s.f1, s.mf1)
    return {"gamma_n": law.gamma_n, "kn_measure": law.kn_measure(0.8),
            "nu": NuMeasure(t, s.R), "gamma_tilde": gamma_tilde,
            "kappa_tilde": kappa_tilde}


@pytest.mark.parametrize("name", ["gamma_n", "kn_measure", "nu",
                                  "gamma_tilde", "kappa_tilde"])
def test_exact_probe_paths_match_quadrature(name):
    mu = _exp_measures()[name]
    ind = probe("indicator:0.5,2.0")
    quad = mu.integrate(ind.fn, breaks=(0.5, 2.0))
    assert abs(ind.apply(mu) - quad) < 1e-9
    assert probe("const:0.6").apply(mu) == 0.6 * mu.mass()


def test_indicator_counts_both_endpoints_on_finite_types():
    t = make_finite_triplet([[0.2, 0.1, 0.1], [0.3, 0.2, 0.1], [0.1, 0.1, 0.5]],
                            [0.2, 0.3, 0.5], 1.2)
    law = evolve(t, 3)
    for mu in (law.gamma_n, law.kn_measure(1)):
        v = mu.vector
        assert abs(probe("indicator:1,2").apply(mu) - (v[1] + v[2])) < 1e-15
        assert abs(probe("indicator:0.5,1.5").apply(mu) - v[1]) < 1e-15
        assert probe("indicator:1").apply(mu) == pytest.approx(v[0] + v[1], abs=1e-15)
        assert abs(probe("tilt:0.7").apply(mu)
                   - v @ np.exp(-0.7 * np.arange(3))) < 1e-15


def test_single_component_mixture_draws_no_index():
    t = make_exp_triplet(1.0, 0.8, 2.0)
    got = t.gamma.sample(streams.stream(5, 0))
    want = streams.stream(5, 0).exponential(1.0 / 0.8)
    assert got == want
    got = t.gamma.sample(streams.stream(5, 1), size=4)
    assert np.array_equal(got, streams.stream(5, 1).exponential(1.0 / 0.8, 4))


@pytest.mark.parametrize("spec", [
    'expr:__import__("os").getpid()+0*y',
    "expr:y.__class__",
    "expr:np.load",
    "expr:open('x')",
    "expr:'a'",
    "expr:np.minimum(y, out=y)",
    "expr:(",
])
def test_expr_probe_rejects_code(spec):
    with pytest.raises(ValueError):
        probe(spec)


def test_expr_probe_allows_numpy_arithmetic():
    y = np.array([0.5, 2.0])
    assert np.allclose(probe("expr:np.minimum(y, 1.0)")(y), [0.5, 1.0])
    assert np.allclose(probe("expr:np.ones_like(y)")(y), [1.0, 1.0])
    assert np.allclose(probe("expr:-1.0 * (y > 1) + 2 * y ** 2 / 4")(y),
                       [0.125, 1.0])


def test_expr_probes_match_exact_paths_on_deep_kn():
    kn = evolve(make_exp_triplet(1.3, 0.7, 1.5), 40).kn_measure(1.0)
    assert abs(probe("expr:np.exp(-0.7*y)").apply(kn)
               - probe("tilt:0.7").apply(kn)) <= 1e-12
    assert abs(probe("expr:(y<=2.0)*1.0").apply(kn)
               - probe("indicator:2.0").apply(kn)) <= 1e-12
    t0 = time.perf_counter()
    val = probe("expr:np.minimum(y,2)/3").apply(kn)
    assert time.perf_counter() - t0 < 1.0
    # min(y, 2)/3 lies between 0 and 2/3 on a nonnegative part of K_n
    assert 0.0 < val < (2.0 / 3.0) * kn.mass()
