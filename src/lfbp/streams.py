"""Reproducible random-number streams.

Every stochastic routine in the package takes an explicit ``numpy`` Generator.
Streams are derived from a master seed and an integer path with a documented,
platform-independent scheme so that results are reproducible and independent
of how replicates are distributed across workers:

    stream(seed, i) == Generator(Philox(SeedSequence((seed, i))))

Philox is counter-based, so distinct key material yields statistically
independent streams without coordination.
"""

from __future__ import annotations

import numpy as np


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the Generator for ``(seed, *path)``.

    ``path`` is typically a replicate index; nested components append further
    integers. The same tuple always yields the same stream.
    """
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def geometric(rng: np.random.Generator, m: float, size: int | None = None):
    """Geometric litter sizes with mean ``m``: P(j) = m^j / (1+m)^(j+1), j >= 0.

    Sampled by inversion, floor(log U / log(m/(1+m))), so every consumer of
    geometric variates draws them identically.
    """
    if m <= 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    q = m / (1.0 + m)
    # 1 - U lies in (0, 1], keeping the log finite.
    u = 1.0 - rng.random(size)
    out = np.floor(np.log(u) / np.log(q))
    if size is None:
        return int(out)
    return out.astype(np.int64)


def geometric_sum(rng: np.random.Generator, m: float, count) -> np.ndarray:
    """Per entry of ``count``, the sum of that many independent geometric
    litters of mean ``m``: NB(count, 1/(1+m)), one draw per entry.

    Drawn as the gamma-Poisson mixture Poisson(m Gamma(count)), which allows
    a count of 0 and any m. A Poisson rate above 2^62, a litter far past any
    population cap, is drawn at 2^62.
    """
    rate = m * rng.standard_gamma(np.asarray(count, dtype=float))
    return rng.poisson(np.minimum(rate, 2.0 ** 62))
