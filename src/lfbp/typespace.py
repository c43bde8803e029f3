"""Type spaces, kernels, and the defining triplet of a linear-fractional process.

A process is specified by a triplet (K, gamma, m): a sub-stochastic kernel K
on the type space, a probability measure gamma supplying the types of the
unmarked offspring, and the mean m of the geometric litter size. An
individual of type x has no children with probability 1 - K(x, E); otherwise
the total offspring count N satisfies

    P(N = k | N > 0) = m^(k-1) / (1 + m)^k,    k >= 1,

one child (the marked one) has type law K(x, .) / K(x, E) and the remaining
k - 1 are i.i.d. gamma. The one-step mean kernel is the rank-one perturbation

    M(x, A) = K(x, A) + K(x, E) * m * gamma(A).

Exactly two families exist: a finite type space (K a matrix, gamma a
``VectorMeasure``) and the exponential family on (0, inf) with K(x, A) =
exp(-x) P(x + Y in A), Y ~ Exp(lambda), gamma = Exp(mu) as a one-component
``MixtureMeasure``. Every layer above this one handles both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import hypoexp
from .errors import TripletFormatError
from .measures import MixtureMeasure, VectorMeasure

FAMILY_FINITE = "finite"
FAMILY_EXP = "exp"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class FiniteKernel:
    """K(x, .) as row x of a sub-stochastic matrix."""

    def __init__(self, K: np.ndarray):
        self.K = K
        self.row_mass = K.sum(axis=1)

    def mass(self, x):
        """K(x, E), the marked line's survival probability; x may be an array."""
        return self.row_mass[x]

    def sample_marked(self, x, rng):
        """Draw from K(x, .) / K(x, E), one uniform per draw.

        An array ``x`` draws per entry by inverse cdf on the unnormalized rows.
        """
        if np.ndim(x):
            u = rng.random(len(x)) * self.row_mass[x]
            return (np.cumsum(self.K[x], axis=1) < u[:, None]).sum(axis=1)
        row = self.K[x]
        return int(rng.choice(len(row), p=row / self.row_mass[x]))


class ExpKernel:
    """K(x, A) = exp(-x) P(x + Y in A), Y ~ Exp(lambda)."""

    def __init__(self, lam: float):
        self.lam = lam

    def mass(self, x):
        # math.exp on scalars: numpy's vector exp may differ in the last bit
        return np.exp(-x) if np.ndim(x) else math.exp(-x)

    def sample_marked(self, x, rng):
        """x + Exp(lambda), per entry when ``x`` is an array of parents."""
        return x + rng.exponential(1.0 / self.lam, size=np.shape(x) or None)


# ---------------------------------------------------------------------------
# triplets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LFTriplet:
    """Container for (kernel, gamma, m) plus a family tag.

    Instances are immutable; the finite/exp constructors validate model
    invariants and freeze their arrays.
    """

    kernel: FiniteKernel | ExpKernel
    gamma: VectorMeasure | MixtureMeasure
    m: float
    family: str


@dataclass(frozen=True, eq=False)
class FiniteTriplet(LFTriplet):
    K: np.ndarray = field(default=None)
    gamma_vector: np.ndarray = field(default=None)
    point_dtype = np.int64

    @property
    def d(self) -> int:
        return self.K.shape[0]

    @property
    def M(self) -> np.ndarray:
        """Mean matrix K + m * (K 1) gamma^T."""
        kmass = self.K.sum(axis=1)
        return self.K + self.m * np.outer(kmass, self.gamma_vector)

    @cached_property
    def K_row_mass(self) -> np.ndarray:
        out = self.K.sum(axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def gamma_cdf(self) -> np.ndarray:
        out = np.cumsum(self.gamma_vector)
        out.setflags(write=False)
        return out

    def validate_point(self, x):
        xi = int(x)
        if xi != x or not (0 <= xi < self.d):
            raise ValueError(f"type point {x!r} is not an index in [0, {self.d})")
        return xi

    def d_sequence(self, n: int) -> np.ndarray:
        """d_0..d_n with d_j the gamma-average of K^j(., E)."""
        out = np.empty(n + 1)
        v = self.gamma_vector.copy()
        out[0] = v.sum()
        for j in range(1, n + 1):
            v = v @ self.K
            out[j] = v.sum()
        return out

    def sample_gamma(self, rng, size: int) -> np.ndarray:
        """``size`` i.i.d. gamma types by inverse cdf."""
        return np.searchsorted(self.gamma_cdf, rng.random(size), side="right")


@dataclass(frozen=True, eq=False)
class ExpFamilyTriplet(LFTriplet):
    lam: float = field(default=None)
    mu: float = field(default=None)
    point_dtype = float

    def validate_point(self, x):
        xf = float(x)
        if not (xf > 0.0) or not math.isfinite(xf):
            raise ValueError(f"type point {x!r} must be a positive real")
        return xf

    def c_sequence(self, n: int) -> np.ndarray:
        """c_0..c_n with c_j = lambda^j Gamma(lambda) / Gamma(lambda + j).

        c_j is the x-free factor of K^j(x, E) = c_j exp(-j x). Computed by the
        stable ratio recurrence c_{j+1} = c_j * lambda / (lambda + j).
        """
        c = np.empty(n + 1)
        c[0] = 1.0
        for j in range(n):
            c[j + 1] = c[j] * self.lam / (self.lam + j)
        return c

    def d_sequence(self, n: int) -> np.ndarray:
        """d_j = c_j * mu / (mu + j): life-length weights of the exponential family."""
        return self.d_from_c(self.c_sequence(n))

    def d_from_c(self, c: np.ndarray) -> np.ndarray:
        """d_0..d_q from c_0..c_q, as in ``d_sequence``."""
        return c * self.mu / (self.mu + np.arange(c.size))

    def sample_gamma(self, rng, size: int) -> np.ndarray:
        """``size`` i.i.d. Exp(mu) types."""
        return rng.exponential(1.0 / self.mu, size=size)


def _real_array(field: str, value) -> np.ndarray:
    """``value`` as a float array of finite entries, else TripletFormatError.

    Bools and strings are rejected here because numpy would quietly turn
    them into numbers.
    """
    raw = np.asarray(value, dtype=object)
    for tp in set(map(type, raw.flat)):
        if tp is bool or not issubclass(tp, numbers.Real):
            bad = next(v for v in raw.flat if type(v) is tp)
            raise TripletFormatError(field, f"must hold real numbers, got {bad!r}")
    out = raw.astype(float)
    bad = out[~np.isfinite(out)]
    if bad.size:
        raise TripletFormatError(field, f"must be finite, got {float(bad[0])}")
    return out


def _positive_real(field: str, value) -> float:
    val = _real_array(field, value)
    if val.ndim != 0 or not val > 0.0:
        raise TripletFormatError(field, f"must be a positive real, got {value!r}")
    return float(val)


def make_finite_triplet(K, gamma, m: float) -> FiniteTriplet:
    """Validate and build a finite-family triplet.

    Raises TripletFormatError naming the offending field.
    """
    K = _real_array("K", K)
    gamma = _real_array("gamma", gamma)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] == 0:
        raise TripletFormatError("K", f"must be a nonempty square matrix, got shape {K.shape}")
    d = K.shape[0]
    if np.any(K < -1e-15):
        i, j = np.argwhere(K < -1e-15)[0]
        raise TripletFormatError("K", f"entry ({i},{j}) is negative: {K[i, j]}")
    K = np.clip(K, 0.0, None)
    sums = K.sum(axis=1)
    if np.any(sums > 1.0 + 1e-12):
        i = int(np.argmax(sums))
        raise TripletFormatError("K", f"row {i} sums to {sums[i]:.12g} > 1 (kernel must be sub-stochastic)")
    if gamma.ndim != 1 or gamma.shape[0] != d:
        raise TripletFormatError("gamma", f"must be a length-{d} vector, got shape {gamma.shape}")
    if np.any(gamma < -1e-15):
        i = int(np.argwhere(gamma < -1e-15)[0])
        raise TripletFormatError("gamma", f"entry {i} is negative: {gamma[i]}")
    gamma = np.clip(gamma, 0.0, None)
    if abs(gamma.sum() - 1.0) > 1e-12:
        raise TripletFormatError("gamma", f"entries sum to {gamma.sum():.12g}, expected 1")
    m = _positive_real("m", m)
    K.setflags(write=False)
    gamma.setflags(write=False)
    return FiniteTriplet(kernel=FiniteKernel(K), gamma=VectorMeasure(gamma),
                         m=m, family=FAMILY_FINITE, K=K, gamma_vector=gamma)


def make_exp_triplet(lam: float, mu: float, m: float) -> ExpFamilyTriplet:
    """Validate and build an exponential-family triplet."""
    lam, mu, m = (_positive_real(name, val)
                  for name, val in (("lambda", lam), ("mu", mu), ("m", m)))
    return ExpFamilyTriplet(kernel=ExpKernel(lam),
                            gamma=MixtureMeasure([1.0], [hypoexp.Hypoexp((mu,))]),
                            m=m, family=FAMILY_EXP, lam=lam, mu=mu)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def triplet_from_dict(doc: dict) -> LFTriplet:
    if not isinstance(doc, dict):
        raise TripletFormatError("<root>", f"expected a JSON object, got {type(doc).__name__}")
    family = doc.get("family")
    if family == FAMILY_FINITE:
        for key in ("K", "gamma", "m"):
            if key not in doc:
                raise TripletFormatError(key, "missing required field")
        return make_finite_triplet(doc["K"], doc["gamma"], doc["m"])
    if family == FAMILY_EXP:
        for key in ("lambda", "mu", "m"):
            if key not in doc:
                raise TripletFormatError(key, "missing required field")
        return make_exp_triplet(doc["lambda"], doc["mu"], doc["m"])
    raise TripletFormatError("family", f"must be 'finite' or 'exp', got {family!r}")


def triplet_to_dict(triplet: LFTriplet) -> dict:
    if triplet.family == FAMILY_FINITE:
        return {"family": FAMILY_FINITE, "K": triplet.K.tolist(),
                "gamma": triplet.gamma_vector.tolist(), "m": triplet.m}
    return {"family": FAMILY_EXP, "lambda": triplet.lam, "mu": triplet.mu,
            "m": triplet.m}


# ---------------------------------------------------------------------------
# generations
# ---------------------------------------------------------------------------

@dataclass
class GenerationSnapshot:
    """A generation of the process: the multiset of type points alive.

    ``points`` is an integer array of type indices (finite family) or a float
    array of positive reals (continuous). When the snapshot was produced by a
    law that distinguishes a marked individual, it sits at index 0 and
    ``marked`` is True.
    """

    generation: int
    points: np.ndarray
    marked: bool = False

    @property
    def size(self) -> int:
        return len(self.points)

