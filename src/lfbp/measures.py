"""Measures on the type space, and the probes that integrate against them.

Every measure the package handles has one of two shapes:

* ``VectorMeasure``: a vector of masses on the finite types 0..d-1;
* ``MixtureMeasure``: a weighted sum of shifted hypoexponential laws,
  sum_i w_i Law(s_i + S_i), on (0, inf).

gamma, gamma_n, M^n(x, .), K_n(x, .), the eigen-measure nu and the
subcritical limit pair are all one of these. Weights may be signed (K_n is
a difference of two mixtures); ``sample`` needs a nonnegative measure.

A ``Probe`` is a named test function h. ``Probe.apply(measure)`` integrates
h against a measure in closed form for the tilt, const and indicator
probes; only ``expr:`` probes reach quadrature.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import quadrature
from .hypoexp import Uniformized


def as_array_callable(g) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a scalar-or-vector callable so quadrature can feed it arrays."""
    def f(t):
        try:
            out = np.asarray(g(t), dtype=float)
            if out.shape == np.shape(t):
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(g(ti)) for ti in np.atleast_1d(t)])
    return f


def as_finite_vector(g, d: int) -> np.ndarray:
    """Coerce a test function (callable or length-d sequence) to a vector."""
    if callable(g):
        return np.array([float(g(j)) for j in range(d)])
    gv = np.asarray(g, dtype=float)
    if gv.shape != (d,):
        raise ValueError(f"test function vector must have shape ({d},), got {gv.shape}")
    return gv


class VectorMeasure:
    """A measure on the finite types 0..d-1, held as its vector of masses."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)

    def __rmul__(self, c: float) -> VectorMeasure:
        return VectorMeasure(c * self.vector)

    def __sub__(self, other: VectorMeasure) -> VectorMeasure:
        return VectorMeasure(self.vector - other.vector)

    def mass(self) -> float:
        return float(self.vector.sum())

    def cdf(self, t: float) -> float:
        """Mass of the types j <= t."""
        return float(self.vector[np.arange(len(self.vector)) <= t].sum())

    def integrate(self, g, breaks=()) -> float:
        """Sum of g(j) times the mass at j; ``breaks`` is accepted and unused."""
        return float(self.vector @ as_finite_vector(g, len(self.vector)))

    def integrate_exp_tilt(self, theta: float) -> float:
        """Sum of exp(-theta j) times the mass at j."""
        return self.integrate(np.exp(-theta * np.arange(len(self.vector))))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draws from the normalized measure."""
        p = self.vector / self.vector.sum()
        out = rng.choice(len(p), p=p, size=size)
        return int(out) if size is None else out.astype(np.int64)


class MixtureMeasure:
    """sum_i w_i Law(s_i + S_i) for hypoexponential S_i and signed weights w_i.

    ``components`` are ``hypoexp.Hypoexp`` laws; ``shifts`` default to zero.
    """

    def __init__(self, weights, components, shifts=None):
        self.weights = np.asarray(weights, dtype=float)
        self.components = list(components)
        self.shifts = (np.zeros(len(self.components)) if shifts is None
                       else np.asarray(shifts, dtype=float))

    def _terms(self):
        return zip(self.weights, self.components, self.shifts)

    def __rmul__(self, c: float) -> MixtureMeasure:
        return MixtureMeasure(c * self.weights, self.components, self.shifts)

    def __sub__(self, other: MixtureMeasure) -> MixtureMeasure:
        """Signed difference; components present in both (same rates and shift) merge."""
        terms: dict = {}
        for sign, mu in ((1.0, self), (-1.0, other)):
            for w, comp, s in mu._terms():
                key = (comp.rates, float(s))
                if key in terms:
                    terms[key][0] += sign * w
                else:
                    terms[key] = [sign * w, comp, s]
        weights, comps, shifts = zip(*terms.values())
        return MixtureMeasure(weights, comps, shifts)

    def mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def _laws(self) -> list:
        """(shift, Uniformized law) for each distinct shift."""
        groups: dict = {}
        for w, comp, s in self._terms():
            groups.setdefault(float(s), []).append((w, comp.rates))
        return [(s, Uniformized(*zip(*g))) for s, g in groups.items()]

    def pdf(self, y):
        return sum(law.pdf(np.subtract(y, s)) for s, law in self._laws)

    def cdf(self, y):
        return sum(law.cdf(np.subtract(y, s)) for s, law in self._laws)

    def integrate(self, g, breaks=()) -> float:
        """Integral of g in one adaptive integral of g times the signed density.

        It spans the smallest shift to where every law has < 1e-18 of its mass
        left, split at the shifts, at ``breaks`` (kinks of g) and where only a
        law's slowest phase is left. Error: QUADPACK's 1e-12 max(1, |I|), plus
        1e-12 (the density's accuracy) times the integral of |g|.
        """
        gv = as_array_callable(g)
        return quadrature.integrate(
            lambda y: gv(y) * self.pdf(y), float(self.shifts.min()),
            max(s + law.horizon for s, law in self._laws), tol=1e-12,
            points=(*self.shifts, *(s + law.settle for s, law in self._laws), *breaks))

    def integrate_exp_tilt(self, theta: float) -> float:
        """Integral of exp(-theta y), exact through the component MGFs."""
        return float(sum(w * math.exp(-theta * s) * comp.mgf_neg(theta)
                         for w, comp, s in self._terms()))

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draws from the normalized measure (nonnegative weights only).

        A single component is sampled directly, without drawing an index.
        """
        if len(self.components) == 1:
            draw = self.shifts[0] + self.components[0].sample(rng, size)
            return float(draw) if size is None else draw
        p = self.weights / self.weights.sum()
        if size is None:
            j = int(rng.choice(len(p), p=p))
            return float(self.shifts[j] + self.components[j].sample(rng))
        out = np.empty(size)
        for i, j in enumerate(rng.choice(len(p), p=p, size=size)):
            out[i] = self.shifts[j] + self.components[j].sample(rng)
        return out


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """Named scalar function of the type variable.

    ``fn`` evaluates it pointwise (a length-d vector also serves for the
    finite types). ``theta``, ``const`` and ``interval`` are set for the
    tilt, const and indicator probes, whose integrals have closed forms;
    ``breaks`` lists kinks so quadrature can split panels there.
    """

    spec: str
    fn: object
    breaks: tuple = ()
    theta: float | None = None
    const: float | None = None
    interval: tuple | None = None

    def __call__(self, y):
        return self.fn(y)

    def apply(self, measure) -> float:
        """Integral of the probe against a VectorMeasure or MixtureMeasure."""
        if self.theta is not None:
            return measure.integrate_exp_tilt(self.theta)
        if self.const is not None:
            return self.const * measure.mass()
        if self.interval is not None:
            a, b = self.interval
            # F(b) - F(a-) counts an atom at a; for densities F(a-) = F(a)
            return measure.cdf(b) - measure.cdf(np.nextafter(a, -np.inf))
        return measure.integrate(self.fn, breaks=self.breaks)


# numpy functions an expr: probe may call; nothing else is reachable
_EXPR_NUMPY = frozenset({
    "abs", "ceil", "clip", "cos", "exp", "expm1", "floor", "full_like",
    "heaviside", "log", "log1p", "maximum", "minimum", "ones_like", "power",
    "sign", "sin", "sqrt", "tanh", "where", "zeros_like",
})
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Load,
               ast.operator, ast.UAdd, ast.USub, ast.cmpop)


def _check_expr(text: str) -> ast.Expression:
    """Parse an expr: probe body, allowing only arithmetic in y and numpy calls."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"probe expression {text!r} does not parse: {exc.msg}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            ok = node.id in ("y", "np")
        elif isinstance(node, ast.Attribute):
            ok = (isinstance(node.value, ast.Name) and node.value.id == "np"
                  and node.attr in _EXPR_NUMPY)
        elif isinstance(node, ast.Call):
            ok = isinstance(node.func, ast.Attribute) and not node.keywords
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
        else:
            ok = isinstance(node, _EXPR_NODES)
        if not ok:
            what = getattr(node, "id", None) or getattr(node, "attr", None) \
                or type(node).__name__
            raise ValueError(f"probe expression {text!r}: {what!r} is not allowed")
    return tree


def probe(spec: str) -> Probe:
    """Parse a probe spec: ``const[:c]``, ``tilt:theta``, ``indicator:T``
    (or ``indicator:a,b``), or ``expr:<numpy expression in y>``."""
    name, _, arg = spec.partition(":")
    if name == "const":
        c = float(arg) if arg else 1.0
        return Probe(spec, lambda y, c=c: np.full_like(np.asarray(y, dtype=float), c),
                     const=c)
    if name == "tilt":
        th = float(arg)
        return Probe(spec, lambda y, th=th: np.exp(-th * np.asarray(y, dtype=float)),
                     theta=th)
    if name == "indicator":
        parts = [float(p) for p in arg.split(",")]
        a, b = (0.0, parts[0]) if len(parts) == 1 else parts
        def ind(y, a=a, b=b):
            y = np.asarray(y, dtype=float)
            return ((y >= a) & (y <= b)).astype(float)
        return Probe(spec, ind, breaks=(a, b), interval=(a, b))
    if name == "expr":
        code = compile(_check_expr(arg), "<probe>", "eval")
        def ev(y, code=code):
            env = {"__builtins__": {}, "np": np, "y": np.asarray(y, dtype=float)}
            return np.asarray(eval(code, env))
        return Probe(spec, ev)
    raise ValueError(f"unknown probe {spec!r}")
