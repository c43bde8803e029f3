"""Span tracer that wraps lfbp's public functions from the benchmark's side.

Nothing under ``src/`` knows about it. ``Tracer.installed()`` replaces each
wrapped function on every module or class that holds it (``lfbp.simulate``
imports ``stream`` by name, so ``streams.stream``, ``simulate.stream`` and
``stats.stream`` are all replaced) and restores the originals on exit.

A span records name, start, end and parent index in flat arrays that stay in
memory until ``dump``. A span's self time is its duration minus the time its
child spans cover. Pool workers are forked copies: what they record stays in
the child, so the parent sees a pool only as the ``simulate.pool`` span it
spends waiting on it.

With ``timed=False`` only the census hooks run: plain counters on the
hypoexponential evaluator, with no clock reads and no spans. The untimed
census is what the end-to-end runs carry, so they can report the workload
properties (points on the 60-digit path, longest rate list) at a cost below
the run-to-run noise.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

MP_THRESHOLD_DEFAULT = 1e10


def _arg(a, k, i, name, default=None):
    if len(a) > i:
        return a[i]
    return k.get(name, default)


class Tracer:
    """In-memory spans plus counters for one benchmark run."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def peak(self, key: str, value: float):
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {nm: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, nm in enumerate(self.names)}

    def dump(self, path):
        """Write every span as flat arrays (name ids index ``names``)."""
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64))

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name, pre=None, post=None, span=True):
        tracer = self
        timed = span and self.timed

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if not tracer.on:
                return fn(*a, **k)
            if pre is not None:
                a, k = pre(tracer, a, k)
            if timed:
                idx = tracer.open(name(a, k) if callable(name) else name)
                try:
                    out = fn(*a, **k)
                finally:
                    tracer.close(idx)
            else:
                out = fn(*a, **k)
            if post is not None:
                post(tracer, a, k, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every hook in ``hooks()`` (census hooks only when untimed)."""
        saved = []
        made: dict[int, object] = {}
        for name, owners, pre, post, span, census in hooks():
            if not (self.timed or census):
                continue
            for owner, attr in owners:
                fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if fn is None:
                    continue
                if id(fn) not in made:
                    made[id(fn)] = self._wrap(fn, name, pre, post, span)
                saved.append((owner, attr, fn))
                setattr(owner, attr, made[id(fn)])
        if self.timed:
            saved.append((concurrent.futures, "ProcessPoolExecutor",
                          concurrent.futures.ProcessPoolExecutor))
            concurrent.futures.ProcessPoolExecutor = _traced_pool(self)
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _traced_pool(tracer: Tracer):
    base = concurrent.futures.ProcessPoolExecutor

    class TracedPool(base):
        def __enter__(self):
            self._bench_span = tracer.open("simulate.pool") if tracer.on else None
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                if self._bench_span is not None:
                    tracer.close(self._bench_span)

    return TracedPool


# ---------------------------------------------------------------------------
# hooks: (span name, owners, pre, post, span?, census?)
# ---------------------------------------------------------------------------

def _count_nodes(tr, a, k):
    f = _arg(a, k, 0, "f")

    def counted(x):
        tr.counts["quadrature.nodes"] += np.size(x)
        return f(x)
    if len(a) > 0:
        return (counted,) + tuple(a[1:]), k
    return a, {**k, "f": counted}


def _count_points(kind, mp_threshold):
    def pre(tr, a, k):
        size = int(np.size(_arg(a, k, 1, "t")))
        tr.counts[f"hypoexp.{kind}.points"] += size
        if getattr(a[0], "condition", 0.0) > mp_threshold:
            tr.counts["hypoexp.points_mp"] += size
        return a, k
    return pre


def _eval_name(mp_threshold):
    def name(a, k):
        return "hypoexp.eval.mp" if getattr(a[0], "condition", 0.0) > mp_threshold \
            else "hypoexp.eval.f64"
    return name


def _after_build(tr, a, k, out):
    h = a[0]
    tr.peak("hypoexp.max_condition", float(getattr(h, "condition", 0.0)))
    tr.peak("hypoexp.max_rates", float(len(getattr(h, "rates", ()))))


def _pooled(a, k) -> bool:
    workers = _arg(a, k, 6, "workers", 1)
    return workers > 1 and _arg(a, k, 2, "reps") >= 4 * workers


def _replicate_name(a, k):
    sim = _arg(a, k, 4, "simulator", "bgw")
    t = a[0]
    family = "scalar" if getattr(t, "family", "") == "finite" and t.d == 1 else t.family
    return f"simulate.replicate_zn.{sim}.{family}" + (".pool" if _pooled(a, k) else "")


def _after_replicate(tr, a, k, out):
    sim = _arg(a, k, 4, "simulator", "bgw")
    reps = int(_arg(a, k, 2, "reps"))
    tr.counts[f"simulate.reps.{sim}"] += reps
    if not _pooled(a, k):
        tr.counts[f"simulate.reps_in_process.{sim}"] += reps
    tr.counts["simulate.discards"] += int(getattr(out, "discarded", 0))
    if not _pooled(a, k):
        tr.counts[f"reps:{_replicate_name(a, k)}"] += reps


def _after_power(tr, a, k, out):
    tr.counts["spectral.power_iteration.iters"] += int(out[3])


def _counter(key):
    def pre(tr, a, k):
        tr.counts[key] += 1
        return a, k
    return pre


def _evolve_name(a, k):
    return f"evolution.evolve.{getattr(a[0], 'family', 'other')}"


def hooks():
    from lfbp import (cli, evolution, hypoexp, quadrature, recursions,
                      simulate, spectral, stats, streams, typespace)
    life = spectral.LifeLengthLaw
    # Hypoexp evaluates in 60-digit mpmath above this weight condition number
    mp = getattr(hypoexp, "_FLOAT64_SAFE", MP_THRESHOLD_DEFAULT)
    return [
        ("cli", [(cli, "main")], None, None, True, False),
        ("cli.parse_triplet", [(cli, "parse_triplet")], None, None, True, False),
        ("typespace.triplet_from_dict",
         [(typespace, "triplet_from_dict"), (cli, "triplet_from_dict")],
         None, None, True, False),
        ("typespace.d_sequence",
         [(typespace.FiniteTriplet, "d_sequence"),
          (typespace.ExpFamilyTriplet, "d_sequence")], None, None, True, False),
        ("streams.stream",
         [(streams, "stream"), (simulate, "stream"), (stats, "stream")],
         None, None, True, False),
        ("streams.geometric",
         [(streams, "geometric"), (simulate, "geometric"),
          (evolution, "geometric"), (typespace, "geometric")],
         _counter("streams.geometric.calls"), None, False, False),
        ("quadrature.integrate", [(quadrature, "integrate")],
         _count_nodes, None, True, False),
        ("hypoexp.build", [(hypoexp.Hypoexp, "__init__")],
         None, _after_build, True, True),
        (_eval_name(mp), [(hypoexp.Hypoexp, "pdf")], _count_points("pdf", mp),
         None, True, True),
        (_eval_name(mp), [(hypoexp.Hypoexp, "cdf")], _count_points("cdf", mp),
         None, True, True),
        ("recursions",
         [(recursions, "g_sequence"), (recursions, "h_sequence"),
          (evolution, "g_sequence"), (evolution, "h_sequence")],
         None, None, True, False),
        ("spectral.classify", [(spectral, "classify"), (stats, "classify")],
         None, None, True, False),
        ("spectral.power_iteration", [(spectral, "power_iteration")],
         None, _after_power, True, False),
        ("spectral.f_eval", [(life, "f_eval")], _counter("spectral.f_eval.calls"),
         None, False, False),
        ("spectral.eigen_build", [(spectral, "eigen_build"), (stats, "eigen_build")],
         None, None, True, False),
        ("spectral.LifeLengthLaw", [(life, "__init__")], None, None, True, False),
        (_evolve_name, [(evolution, "evolve"), (stats, "evolve")],
         None, None, True, False),
        ("evolution.survival_prob",
         [(evolution, "survival_prob"), (stats, "survival_prob")],
         None, None, True, False),
        ("evolution.functional", [(evolution.GenerationLaw, "functional")],
         None, None, True, False),
        (_replicate_name, [(simulate, "replicate_zn"), (stats, "replicate_zn")],
         None, _after_replicate, True, False),
        ("simulate.simulate_bgw",
         [(simulate, "simulate_bgw"), (stats, "simulate_bgw")],
         _counter("simulate.simulate_bgw.calls"), None, True, False),
        ("stats.limit_report", [(stats, "limit_report")], None, None, True, False),
        ("stats.yaglom_sample", [(stats, "yaglom_sample")], None, None, True, False),
        ("stats.ks", [(stats, "ks_two_sample"), (stats, "ks_one_sample")],
         None, None, True, False),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SIMS = ("bgw", "cmj", "contour")


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced round: name -> (value, unit)."""
    spans = tr.span_table()
    c = tr.counts
    per = 1.0 / max(rounds, 1)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def own(*names):
        return sum(spans.get(nm, (0, 0.0, 0.0))[2] for nm in names)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "cli.self_s": (own("cli") * per, "s"),
        "cli.parse_triplet.calls": (calls("cli.parse_triplet") * per, "count"),
        "cli.parse_triplet.self_s": (own("cli.parse_triplet") * per, "s"),
        "typespace.triplet_from_dict.self_s": (own("typespace.triplet_from_dict") * per, "s"),
        "typespace.d_sequence.self_s": (own("typespace.d_sequence") * per, "s"),
        "streams.stream.calls": (calls("streams.stream") * per, "count"),
        "streams.stream.us_per_call": (1e6 * ratio(own("streams.stream"), calls("streams.stream")), "us"),
        "streams.geometric.calls": (c["streams.geometric.calls"] * per, "count"),
        "quadrature.integrate.calls": (calls("quadrature.integrate") * per, "count"),
        "quadrature.integrate.self_s": (own("quadrature.integrate") * per, "s"),
        "quadrature.nodes": (c["quadrature.nodes"] * per, "count"),
        "quadrature.nodes_per_call": (ratio(c["quadrature.nodes"], calls("quadrature.integrate")), "count"),
        "hypoexp.build.self_s": (own("hypoexp.build") * per, "s"),
        "hypoexp.weights.hits": (c["hypoexp.weights.hits"] * per, "count"),
        "hypoexp.weights.misses": (c["hypoexp.weights.misses"] * per, "count"),
        "hypoexp.pdf.points": (c["hypoexp.pdf.points"] * per, "count"),
        "hypoexp.cdf.points": (c["hypoexp.cdf.points"] * per, "count"),
        "hypoexp.points_mp": (c["hypoexp.points_mp"] * per, "count"),
        "hypoexp.eval.self_s": (own("hypoexp.eval.f64", "hypoexp.eval.mp") * per, "s"),
        "hypoexp.us_per_point.f64": (1e6 * ratio(own("hypoexp.eval.f64"),
                                                 c["hypoexp.pdf.points"] + c["hypoexp.cdf.points"]
                                                 - c["hypoexp.points_mp"]), "us"),
        "hypoexp.us_per_point.mp": (1e6 * ratio(own("hypoexp.eval.mp"), c["hypoexp.points_mp"]), "us"),
        "hypoexp.max_condition": (tr.maxima.get("hypoexp.max_condition", 0.0), "1"),
        "recursions.self_s": (own("recursions") * per, "s"),
        "spectral.classify.calls": (calls("spectral.classify") * per, "count"),
        "spectral.classify.self_s": (own("spectral.classify") * per, "s"),
        "spectral.power_iteration.iters": (c["spectral.power_iteration.iters"] * per, "count"),
        "spectral.power_iteration.self_s": (own("spectral.power_iteration") * per, "s"),
        "spectral.f_eval.calls": (c["spectral.f_eval.calls"] * per, "count"),
        "spectral.eigen_build.self_s": (own("spectral.eigen_build") * per, "s"),
        "spectral.LifeLengthLaw.self_s": (own("spectral.LifeLengthLaw") * per, "s"),
        "evolution.evolve.exp.self_s": (own("evolution.evolve.exp") * per, "s"),
        "evolution.evolve.finite.self_s": (own("evolution.evolve.finite") * per, "s"),
        "evolution.survival_prob.self_s": (own("evolution.survival_prob") * per, "s"),
        "evolution.functional.self_s": (own("evolution.functional") * per, "s"),
    }
    for sim in SIMS:
        out[f"simulate.reps.{sim}"] = (c[f"simulate.reps.{sim}"] * per, "count")
    for sim in SIMS:
        prefix = f"simulate.replicate_zn.{sim}."
        busy = sum(v[1] for nm, v in spans.items()
                   if nm.startswith(prefix) and not nm.endswith(".pool"))
        out[f"simulate.us_per_rep.{sim}"] = (
            1e6 * ratio(busy, c[f"simulate.reps_in_process.{sim}"]), "us")
    out.update({
        "simulate.discards": (c["simulate.discards"] * per, "count"),
        "simulate.simulate_bgw.calls": (c["simulate.simulate_bgw.calls"] * per, "count"),
        "simulate.pool_wait_s": (own("simulate.pool") * per, "s"),
        "stats.limit_report.self_s": (own("stats.limit_report") * per, "s"),
        "stats.yaglom_sample.self_s": (own("stats.yaglom_sample") * per, "s"),
        "stats.ks.self_s": (own("stats.ks") * per, "s"),
    })
    out["trace.self_total_s"] = (sum(v[2] for v in spans.values()) * per, "s")
    return out
