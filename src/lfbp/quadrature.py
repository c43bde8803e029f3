"""Composite Gauss-Legendre quadrature for exponentially damped integrands.

All continuous-family integrals in the package reduce to integrals of bounded
functions against exponential weights on [0, inf). The interval is cut at T
with the discarded mass below ``tail`` (default 1e-14), split into panels of
roughly one e-folding of the fastest-varying rate, and the per-panel node
count is doubled until two successive refinements agree within ``tol``.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_MAX_DOUBLINGS = 7  # 8 -> 1024 nodes per panel before giving up


def _panel_nodes(a: float, b: float, k: int):
    x, w = np.polynomial.legendre.leggauss(k)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def integrate(f, a: float, b: float, *, tol: float = 1e-10, panels: int = 8,
              nodes: int = 16) -> float:
    """Integrate callable ``f`` over [a, b] with doubling until ``tol`` is met.

    ``f`` must accept a numpy array of abscissae and return an array.
    Raises QuadratureError when the doubling budget is exhausted.
    """
    if b <= a:
        return 0.0
    edges = np.linspace(a, b, panels + 1)
    prev = None
    err = float("inf")
    k = nodes
    for _ in range(_MAX_DOUBLINGS + 1):
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            x, w = _panel_nodes(lo, hi, k)
            total += float(np.dot(w, f(x)))
        if prev is not None:
            err = abs(total - prev)
            if err <= tol * max(1.0, abs(total)):
                return total
        prev = total
        k *= 2
    raise QuadratureError(prev, err, tol)


def exp_weighted(g, rate: float, *, tol: float = 1e-10,
                 tail: float = 1e-14) -> float:
    """Compute integral of g(t) * rate * exp(-rate t) over t in [0, inf).

    ``g`` is assumed bounded; the cutoff T satisfies exp(-rate T) < ``tail``
    so the discarded mass is below tail * sup|g|.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    T = -np.log(tail) / rate
    panels = max(8, int(np.ceil(rate * T / 2.0)))
    panels = min(panels, 64)
    val = integrate(lambda t: g(t) * rate * np.exp(-rate * t), 0.0, T,
                    tol=tol, panels=panels)
    return val


def density_weighted(g, pdf, T: float, *, tol: float = 1e-10,
                     panels: int = 24, breaks=()) -> float:
    """Compute integral of g(t) * pdf(t) over [0, T] for a supplied density.

    ``breaks`` lists interior points where g has a kink (indicator edges and
    the like); the integral is split there so Gauss-Legendre keeps its rate.
    """
    cuts = sorted({0.0, T, *(b for b in breaks if 0.0 < b < T)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        frac = (hi - lo) / T
        sub_panels = max(4, int(np.ceil(panels * frac)))
        total += integrate(lambda t: g(t) * pdf(t), lo, hi, tol=tol,
                           panels=sub_panels)
    return total
