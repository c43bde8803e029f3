"""Three independent simulators of the same branching process.

* simulate_bgw: direct generation-by-generation branching, one vectorized
  step for both families; ``bgw_block`` steps a block of replicates at once.
* simulate_cmj: the embedded population whose individuals are maximal marked
  lineages; an individual born at b lives through [b, b+L-1] and drops a
  geometric(mean m) litter of new individuals at each age 1..L-1. The count
  of individuals alive at time n equals Z_n in law. ``cmj_block`` keeps the
  age-class counts of a block of replicates.
* simulate_contour: depth-first walk around the same lineage tree truncated
  at height n. An up-jump of size L seeds a lineage; from each height a
  Bernoulli(m/(1+m)) trial either seeds a sibling lineage (the geometric
  litter, consumed one child at a time) or steps down. Every lineage whose
  height range reaches n contributes one level-n excursion, so the excursion
  count is Z_n in law. Memorylessness of the geometric litters is what lets
  the walk forget which lineage's litter it is consuming, so no stack is
  kept. ``contour_block`` advances a block of walks in chunks of steps.

All three agree in law with the exact engine; cross-validation is their
purpose. Each ``simulate_*`` is its block function for one replicate on the
caller's stream. ``replicate_map`` runs every replicate loop in blocks of
BLOCK replicates, block b on stream (seed, b), so results do not depend on
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PopulationCapError, WalkCapError
from .measures import probe
from .spectral import LifeLengthLaw
from .streams import geometric, geometric_sum, stream
from .typespace import GenerationSnapshot, LFTriplet

DEFAULT_CAP = 10_000_000
_WALK_CAP = 100_000_000
BLOCK = 1024          # replicates that step together on one stream
_LIVE = 1 << 16       # points a bgw block holds before its replicates finish alone
_CHUNK = 1 << 16      # walk steps a contour chunk holds over all its walks


# ---------------------------------------------------------------------------
# direct branching
# ---------------------------------------------------------------------------

def _start_points(triplet: LFTriplet, start, rng, size: int = 1):
    if isinstance(start, str):
        if start != "gamma":
            raise ValueError("start must be a type point or 'gamma'")
        return triplet.gamma.sample(rng, size)
    return np.full(size, triplet.validate_point(start), dtype=triplet.point_dtype)


def _bgw_step(t: LFTriplet, cur: np.ndarray, ids, rng, cap: int, gen: int,
              dropped=None):
    """One generation: survival coins, marked children, litters, gamma extras.

    Returns the new points and ``ids``, the replicate of each point (None for
    one replicate). A replicate whose generation would exceed ``cap`` is set
    in ``dropped`` and loses its points before its extras are drawn; with no
    ``dropped`` it raises PopulationCapError.
    """
    alive = rng.random(len(cur)) < t.kernel.mass(cur)
    parents = cur[alive]
    ids = ids if ids is None else ids[alive]
    if len(parents) == 0:
        return parents, ids
    marked = t.kernel.sample_marked(parents, rng)
    extras = geometric(rng, t.m, size=len(parents))
    sizes = (np.array([len(parents) + extras.sum()]) if ids is None
             else np.bincount(ids, weights=extras + 1.0))
    over = sizes > cap
    if over.any():
        if dropped is None:
            raise PopulationCapError(gen, int(sizes[over][0]), cap)
        dropped[:len(over)] |= over
        if ids is None:
            return parents[:0], None
        keep = ~over[ids]
        marked, extras, ids = marked[keep], extras[keep], ids[keep]
    total_extra = int(extras.sum())
    if total_extra:
        marked = np.concatenate([marked, t.sample_gamma(rng, total_extra)])
        if ids is not None:
            ids = np.concatenate([ids, np.repeat(ids, extras)])
    return marked, ids


def simulate_bgw(triplet: LFTriplet, start, n: int, rng: np.random.Generator,
                 cap: int = DEFAULT_CAP) -> list[GenerationSnapshot]:
    """Direct simulation; returns snapshots of generations 0..n.

    ``start`` is a type point or the string "gamma" for a gamma-drawn
    ancestor. Raises PopulationCapError when a generation would exceed
    ``cap``; the caller discards the run.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cur = _start_points(triplet, start, rng)
    snaps = [GenerationSnapshot(0, cur)]
    for gen in range(1, n + 1):
        if len(cur):
            cur, _ = _bgw_step(triplet, cur, None, rng, cap, gen)
        snaps.append(GenerationSnapshot(gen, cur))
    return snaps


def bgw_block(triplet: LFTriplet, start, n: int, cap: int, w: str,
              discard: bool, key: tuple, size: int) -> np.ndarray:
    """(Z_n, sum of probe ``w`` over generation n) of a block's ``size``
    replicates, stepped together on ``stream(*key)``; shape (size, 2).

    Past _LIVE points the block finishes its replicates one at a time,
    replicate j on ``stream(*key, j + 1)``: ``stream(*key, 0)`` is the block's
    own stream. A replicate whose generation would exceed ``cap`` gets Z_n =
    -1 if ``discard``, else raises PopulationCapError. A scalar probe value
    counts at every point.
    """
    w, rng = probe(w), stream(*key)
    dropped = np.zeros(size, dtype=bool) if discard else None
    cur = _start_points(triplet, start, rng, size)
    ids = np.arange(size)
    out = np.zeros((size, 2))
    for gen in range(1, n + 1):
        if size > 1 and len(cur) > _LIVE:
            order = np.argsort(ids, kind="stable")
            live, first = np.unique(ids[order], return_index=True)
            for j, pts in zip(live, np.split(cur[order], first[1:])):
                sub = stream(*key, j + 1)
                one = None if dropped is None else dropped[j:j + 1]
                for g in range(gen, n + 1):
                    if len(pts):
                        pts, _ = _bgw_step(triplet, pts, None, sub, cap, g, one)
                out[j] = len(pts), np.broadcast_to(w(pts), pts.shape).sum()
            break
        if len(cur):
            cur, ids = _bgw_step(triplet, cur, ids, rng, cap, gen, dropped)
    else:
        out[:, 0] = np.bincount(ids, minlength=size)
        out[:, 1] = np.bincount(ids, weights=np.broadcast_to(w(cur), cur.shape),
                                minlength=size)
    if discard:
        out[dropped] = -1.0, 0.0
    return out


# ---------------------------------------------------------------------------
# embedded CMJ population
# ---------------------------------------------------------------------------

def _cmj_counts(law: LifeLengthLaw, n: int, rng, cap: int, size: int,
                dropped=None) -> np.ndarray:
    """Alive counts at times 0..n of ``size`` embedded populations; shape
    (size, n + 1).

    ages[r, a] holds replicate r's individuals of age a. A step thins age
    a - 1 to a by Binomial(N, d_a / d_{a-1}), which gives every individual
    P(L > a) = d_a, and each replicate's survivors drop NB(parents, 1/(1+m))
    newborns of age 0, the sum of their geometric litters. A replicate whose
    births would exceed ``cap`` is set in ``dropped`` and emptied; with no
    ``dropped`` it raises PopulationCapError.
    """
    d = law.tails(n)
    keep = np.minimum(np.divide(d[1:], d[:-1], out=np.zeros(n),
                                where=d[:-1] > 0.0), 1.0)
    ages = np.zeros((size, n + 1), dtype=np.int64)
    ages[:, 0] = 1
    born = np.ones(size, dtype=np.int64)
    counts = np.ones((size, n + 1), dtype=np.int64)
    for t in range(1, n + 1):
        ages[:, 1:t + 1] = rng.binomial(ages[:, :t], keep[:t])
        parents = ages[:, 1:t + 1].sum(axis=1)
        kids = geometric_sum(rng, law.triplet.m, parents)
        born += kids
        over = born > cap
        if over.any():
            if dropped is None:
                raise PopulationCapError(t, int(born[over][0]), cap)
            dropped |= over
            ages[over] = kids[over] = parents[over] = 0
        ages[:, 0] = kids
        counts[:, t] = parents + kids
    return counts


def simulate_cmj(triplet: LFTriplet, n: int, rng: np.random.Generator,
                 cap: int = DEFAULT_CAP, law: LifeLengthLaw | None = None):
    """Embedded population; returns alive counts at times 0..n.

    Seeds one individual at time 0. Each individual draws L from the life
    length law (gamma-mixed ancestry), is alive during [b, b+L-1], and at
    each age 1..L-1 produces geometric(mean m) newborns. The newborn of a
    litter dropped at time k first counts at its own birth time k; the
    original drawing stamps the birth one step earlier (at the parent's
    reproduction) and adds the newborn a step later, which shifts labels but
    not the law of the counts. Raises PopulationCapError when the births
    would exceed ``cap``. This is ``cmj_block`` for one replicate on ``rng``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return _cmj_counts(law or LifeLengthLaw(triplet), n, rng, cap, 1)[0]


def cmj_block(law: LifeLengthLaw, n: int, cap: int, key: tuple,
              size: int) -> np.ndarray:
    """Z_n of a block's ``size`` embedded populations, stepped together on
    ``stream(*key)``; a replicate whose births would exceed ``cap`` gets -1."""
    dropped = np.zeros(size, dtype=bool)
    zn = _cmj_counts(law, n, stream(*key), cap, size, dropped)[:, n]
    zn[dropped] = -1
    return zn


# ---------------------------------------------------------------------------
# contour walk
# ---------------------------------------------------------------------------

def _contour_counts(law: LifeLengthLaw, n: int, rng, step_cap: int, size: int,
                    dropped=None) -> np.ndarray:
    """Level-n excursion counts of ``size`` contour walks, advanced in chunks.

    A step is X = L - 1 with probability m/(1+m) (a sibling lineage seeded
    from the current height) and -1 otherwise. The height capped at n is
    h_k = S_k + min(h_0, n - max_{j<=k} S_j) for the partial sums S of the
    steps, and drawing L capped at n is exact for it. Every h_k = n before
    the walk's first h_k = 0 is one level-n excursion. A chunk holds at most
    _CHUNK steps over all live walks. A walk still live after ``step_cap``
    steps is set in ``dropped``; with no ``dropped`` it raises WalkCapError.
    """
    p_up = law.triplet.m / (1.0 + law.triplet.m)
    h = np.minimum(law.sample_capped(rng, n, size=size) - 1, n)
    count = (h == n).astype(np.int64)
    live = np.flatnonzero(h > 0)
    steps, width = 0, 8
    while len(live):
        if steps >= step_cap:
            if dropped is None:
                raise WalkCapError(steps + 1, step_cap)
            dropped[live] = True
            break
        width = min(2 * width, _CHUNK // len(live), step_cap - steps)
        up = rng.random((len(live), width)) < p_up
        x = np.full(up.shape, -1, dtype=np.int64)
        x[up] = law.sample_capped(rng, n, size=int(up.sum())) - 1
        s = np.cumsum(x, axis=1)
        hk = s + np.minimum(h[live, None], n - np.maximum.accumulate(s, axis=1))
        zero = hk == 0
        end = np.where(zero.any(axis=1), zero.argmax(axis=1), width)
        count[live] += ((hk == n) & (np.arange(width) < end[:, None])).sum(axis=1)
        h[live] = hk[:, -1]
        live = live[end == width]
        steps += width
    return count


def simulate_contour(triplet: LFTriplet, n: int, rng: np.random.Generator,
                     law: LifeLengthLaw | None = None,
                     step_cap: int = _WALK_CAP):
    """Level-n excursion count of the contour walk; equals Z_n in law.

    Each up-jump draws L (capped at n, which is exact for the count); a
    lineage seeded at height h covers heights h..h+L-1 and contributes one
    excursion iff that range reaches n. Between up-jumps the walk descends
    by unit steps, each down step taken with probability 1/(1+m) against
    m/(1+m) for seeding the next sibling. Raises WalkCapError past
    ``step_cap`` steps. This is ``contour_block`` for one walk on ``rng``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return int(_contour_counts(law or LifeLengthLaw(triplet), n, rng,
                               step_cap, 1)[0])


def contour_block(law: LifeLengthLaw, n: int, step_cap: int, key: tuple,
                  size: int) -> np.ndarray:
    """Level-n excursion counts of a block's ``size`` walks, advanced together
    on ``stream(*key)``; a walk past ``step_cap`` steps gets -1."""
    dropped = np.zeros(size, dtype=bool)
    zn = _contour_counts(law, n, stream(*key), step_cap, size, dropped)
    zn[dropped] = -1
    return zn


# ---------------------------------------------------------------------------
# marked lineage chain
# ---------------------------------------------------------------------------

def simulate_typed_lineage(triplet: LFTriplet, x, rng: np.random.Generator,
                           step_cap: int = 1_000_000) -> np.ndarray:
    """Type path of one marked lineage until absorption.

    Starts at x; at each step the particle survives with probability
    K(x, E) and moves by the normalized kernel, else is absorbed. The path
    length is L started from this x (so d_n-tailed from a gamma start).
    """
    x = triplet.validate_point(x)
    path = [x]
    kernel = triplet.kernel
    while rng.random() < kernel.mass(path[-1]):
        path.append(kernel.sample_marked(path[-1], rng))
        if len(path) > step_cap:
            raise WalkCapError(len(path), step_cap)
    return np.array(path, dtype=triplet.point_dtype)


# ---------------------------------------------------------------------------
# replicate drivers
# ---------------------------------------------------------------------------

SIMULATORS = ("bgw", "cmj", "contour")


@dataclass
class ZnSample:
    """Replicated Z_n draws plus discard bookkeeping.

    ``values`` holds completed replicates in replicate order; ``raw`` keeps
    the full per-replicate array with -1 marking capped-and-discarded runs,
    so exports can preserve replicate indices.
    """

    values: np.ndarray
    discarded: int
    simulator: str
    n: int
    seed: int
    raw: np.ndarray | None = None

    @property
    def reps(self) -> int:
        return len(self.values) + self.discarded

    def survival_rate(self) -> float:
        return float((self.values > 0).mean())

    def conditioned(self) -> np.ndarray:
        return self.values[self.values > 0]


def replicate_map(make, args: tuple, reps: int, seed: int,
                  workers: int = 1) -> np.ndarray:
    """Values of replicates 0..reps-1 in order.

    Block b holds replicates [bB, min(reps, (b+1)B)) for B = BLOCK, valued
    ``make(*args, (seed, b), size)``. A process pool runs chunks of whole
    blocks when there are at least four per worker; ``make`` and ``args``
    must then pickle.
    """
    blocks = -(-reps // BLOCK)
    if workers <= 1 or blocks < 4 * workers:
        return _map_chunk(make, args, seed, reps, 0, blocks)
    import concurrent.futures
    bounds = np.linspace(0, blocks, workers + 1, dtype=int)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(_map_chunk, make, args, seed, reps, int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:])]
        return np.concatenate([f.result() for f in futs])


def _map_chunk(make, args, seed, reps, lo, hi):
    return np.concatenate([make(*args, (seed, b), min(BLOCK, reps - b * BLOCK))
                           for b in range(lo, hi)])


def bgw_sample(triplet: LFTriplet, n: int, reps: int, seed: int, start="gamma",
               w: str = "const", workers: int = 1, cap: int = DEFAULT_CAP,
               discard: bool = False) -> np.ndarray:
    """``bgw_block`` values of ``reps`` replicates in blocks of BLOCK, block b
    on stream (seed, b); shape (reps, 2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return replicate_map(bgw_block, (triplet, start, n, cap, w, discard), reps,
                         seed, workers)


def replicate_zn(triplet: LFTriplet, n: int, reps: int, seed: int,
                 simulator: str = "bgw", start="gamma", workers: int = 1,
                 cap: int = DEFAULT_CAP) -> ZnSample:
    """Draw Z_n ``reps`` times in blocks of BLOCK replicates, block b on
    stream (seed, b), so results are identical for any worker count.

    Only bgw takes a typed ``start``; cmj and contour draw their ancestor
    from gamma. ``cap`` bounds a bgw generation or the births of a cmj
    population. Capped runs are discarded and counted, never silently
    truncated.
    """
    if simulator not in SIMULATORS:
        raise ValueError(f"unknown simulator {simulator!r}; pick from {SIMULATORS}")
    if simulator != "bgw" and start != "gamma":
        raise ValueError(f"--start {start}: {simulator} draws its ancestor from "
                         f"gamma; only --simulator bgw takes a typed start")
    if n < 0:
        raise ValueError("n must be >= 0")
    if simulator == "bgw":
        raw = bgw_sample(triplet, n, reps, seed, start, workers=workers,
                         cap=cap, discard=True)[:, 0]
    else:
        block, limit = ((cmj_block, cap) if simulator == "cmj"
                        else (contour_block, _WALK_CAP))
        raw = replicate_map(block, (LifeLengthLaw(triplet), n, limit), reps,
                            seed, workers)
    raw = raw.astype(np.int64)
    keep = raw[raw >= 0]
    return ZnSample(keep, int((raw < 0).sum()), simulator, n, seed, raw)
