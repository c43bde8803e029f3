"""Adaptive quadrature: one QUADPACK call (Piessens et al. 1983) per integral.

Known kinks (indicator edges, mixture shifts) are passed as break points;
adaptive bisection finds the rest. scipy.integrate is imported on first use.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError


def integrate(f, a: float, b: float, *, tol: float = 1e-10, panels: int = 1,
              points=()) -> float:
    """Integrate ``f`` over [a, b] to error tol * max(1, |integral|).

    ``f`` maps a numpy array of abscissae to an array; QUADPACK feeds it one
    point at a time. The range is first cut into ``panels`` equal pieces and
    at ``points``. Raises QuadratureError when the error estimate stays
    above the tolerance.
    """
    if b <= a:
        return 0.0
    from scipy.integrate import quad
    cuts = sorted({float(p) for p in (*np.linspace(a, b, panels + 1)[1:-1], *points)
                   if a < p < b})
    val, err, _, *failed = quad(lambda x: f(np.array([x]))[0], a, b,
                                points=cuts or None, epsabs=tol, epsrel=tol,
                                limit=500, full_output=1)
    if failed:
        raise QuadratureError(val, err, tol)
    return float(val)


def exp_weighted(g, rate: float, *, tol: float = 1e-10,
                 tail: float = 1e-14) -> float:
    """Compute integral of g(t) * rate * exp(-rate t) over t in [0, inf).

    ``g`` is assumed bounded; the cutoff T satisfies exp(-rate T) < ``tail``
    so the discarded mass is below tail * sup|g|.
    """
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    return integrate(lambda t: g(t) * rate * np.exp(-rate * t), 0.0,
                     -np.log(tail) / rate, tol=tol)


def density_weighted(g, pdf, T: float, *, tol: float = 1e-10, breaks=()) -> float:
    """Compute integral of g(t) * pdf(t) over [0, T], split at the kinks ``breaks``."""
    return integrate(lambda t: g(t) * pdf(t), 0.0, T, tol=tol, points=breaks)
