"""lfbp benchmark: seeded CLI workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact-exp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each op is one ``lfbp.cli.main(argv)`` call made in this process by a single
closed-loop client: the next op starts when the previous one returns, as a
researcher running CLI commands one after another would. The ops come in
rounds of fixed composition with fresh parameters (see ``workloads``);
rounds repeat for about ``--seconds``. Every op's output is checked after
its timer stops.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` replays each round with the tracer installed and reports the
per-layer metrics, per round; spans go to ``.perfbench/`` when the run ends.
The last stdout line is the JSON result; the lines above it name every
metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3          # at the start; one more follows every round
MIN_ROUNDS = 2
# host adjustment: times are scaled by REF_NOMINAL_S / (median reference
# kernel time in the run); one kernel sample per REF_EVERY_S of op time
REF_NOMINAL_S = 1e-3
REF_EVERY_S = 0.05
REF_MAX_PER_OP = 20
_REF_A = np.random.default_rng(0).random((24, 24)) + 4.0 * np.eye(24)
# op_tail_ms is this quantile of op latency; the run keeps going until at
# least 10 ops lie beyond it
TAIL_Q = {"exact-exp": 0.64, "mc-sim": 0.76, "spectral-scan": 0.95}
SIM_NAMES = ("bgw", "cmj", "contour")
OP_KINDS = ("classify", "survive", "distribution", "limits", "phase-grid",
            "renewal", "simulate", "crosscheck", "yaglom")
D_BUCKETS = ((1, 1), (2, 4), (5, 16), (17, 64))
# per-layer counts each workload's design needs to stay zero
BYPASSES = {
    "exact-exp": ("streams.stream.calls", "simulate.simulate_bgw.calls",
                  "spectral.power_iteration.iters"),
    "mc-sim": ("quadrature.integrate.calls", "hypoexp.pdf.points",
               "hypoexp.cdf.points"),
    "spectral-scan": ("quadrature.integrate.calls", "hypoexp.pdf.points",
                      "hypoexp.cdf.points", "streams.stream.calls"),
}


@dataclass
class Result:
    kind: str
    tags: dict
    latency: float
    error: str | None


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_lfbp():
    if not (SRC / "lfbp" / "cli.py").is_file():
        fail(f"no lfbp sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import lfbp.cli
    if Path(lfbp.cli.__file__).resolve().parent != (SRC / "lfbp").resolve():
        fail(f"imported lfbp from {lfbp.cli.__file__}, not from {SRC}")
    return lfbp.cli


def measure_setup(samples: int, warm: bool = True) -> list[float]:
    """Wall times of fresh interpreters importing lfbp.cli.

    The warm-up import writes the bytecode caches a user's install already has.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", "import lfbp.cli"]
    out = []
    for i in range(samples + warm):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        out.append(time.perf_counter() - t0)
    return out[warm:]


def clear_caches():
    """Empty every lru_cache in lfbp so each round starts as a fresh process does."""
    for name, mod in list(sys.modules.items()):
        if name == "lfbp" or name.startswith("lfbp."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _weights_info():
    hx = sys.modules.get("lfbp.hypoexp")
    fn = getattr(hx, "_weights", None)
    return fn.cache_info() if hasattr(fn, "cache_info") else None


def reference_kernel() -> float:
    """A fixed slice of work in lfbp's mix (small numpy solves, a Python loop).

    Its wall time tracks how fast the host runs this process right now.
    Nothing in it depends on lfbp, so a change to lfbp cannot move it.
    """
    t0 = time.perf_counter()
    v, acc, seen = np.ones(24), 0.0, {}
    for i in range(60):
        v = np.linalg.solve(_REF_A, v + 1.0)
        acc += float(v @ v)
        seen[i % 7] = seen.get(i % 7, 0.0) + acc
        acc += sum(j * j for j in range(80)) * 1e-12
    return time.perf_counter() - t0


def run_ops(cli, ops, tracer, ref: list | None = None) -> list[Result]:
    """Run ops back to back; only the ``cli.main`` call is inside the timer.

    With ``ref``, reference-kernel samples follow each op, one per
    REF_EVERY_S of its latency, so they weight host speed by time spent.
    """
    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        before = _weights_info()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            tracer.on = True
            t0 = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except BaseException as exc:           # SystemExit from argparse too
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            tracer.on = False
        after = _weights_info()
        if before is not None and after is not None:
            tracer.counts["hypoexp.weights.hits"] += after.hits - before.hits
            tracer.counts["hypoexp.weights.misses"] += after.misses - before.misses
        if error is None and rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                error = op.check(out.getvalue())
            except Exception as exc:
                error = f"oracle could not read the output: {type(exc).__name__}: {exc}"
        results.append(Result(op.kind, op.tags, latency, error))
        if ref is not None:
            n = max(1, min(REF_MAX_PER_OP, round(latency / REF_EVERY_S)))
            ref += [reference_kernel() for _ in range(n)]
    return results


def min_ops(name: str) -> int:
    """Ops needed for at least 10 beyond the workload's tail quantile."""
    return math.ceil(10 / (1 - TAIL_Q[name]))


def measure(cli, round_ops, seed: int, seconds: float, trace: bool, least_ops: int):
    """Run rounds until ``seconds`` have passed, ``least_ops`` ops are done,
    and at least MIN_ROUNDS rounds are done.

    The caches are emptied before every round. With ``trace`` each round is
    replayed at once with the tracer installed, so the traced and untraced
    walls of a round see the same host conditions. Fresh-import samples for
    ``setup_s`` are taken between rounds, so they span the run as well.
    """
    census, tracer = Tracer(timed=False), Tracer(timed=True)
    setup = measure_setup(SETUP_SAMPLES)
    results, traced, walls, traced_walls, refs = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    k = n_ops = 0
    while k < MIN_ROUNDS or n_ops < least_ops or time.perf_counter() < deadline:
        ops = round_ops(seed, k)
        clear_caches()
        refs.append([])
        with census.installed():
            res = run_ops(cli, ops, census, refs[-1])
        results.append(res)
        n_ops += len(res)
        walls.append(sum(r.latency for r in res))
        if trace:
            clear_caches()
            with tracer.installed():
                res = run_ops(cli, ops, tracer)
            traced += res
            traced_walls.append(sum(r.latency for r in res))
        setup += measure_setup(1, warm=False)
        k += 1
    flat = [r for res in results for r in res]
    return {"results": flat, "by_round": results, "executions": flat + traced,
            "walls": walls, "census": census, "traced": traced,
            "traced_walls": traced_walls, "tracer": tracer, "rounds": k,
            "setup": setup, "refs": refs}


def quantile(values, q: float) -> float:
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def _times(name: str, run: dict, adjusted: bool) -> dict:
    """Time figures; ``adjusted`` scales each round by its host factor."""
    factors = [host_factor(ref) if adjusted else 1.0 for ref in run["refs"]]
    lat = [(r, r.latency * f) for res, f in zip(run["by_round"], factors) for r in res]
    setup_f = host_factor([t for ref in run["refs"] for t in ref]) if adjusted else 1.0
    values = [t for _, t in lat]
    out = {
        "setup_s": (statistics.median(run["setup"]) * setup_f, "s"),
        "wall_s": (statistics.median(w * f for w, f in zip(run["walls"], factors)), "s"),
        "op_p50_ms": (1e3 * statistics.median(values), "ms"),
        "op_tail_ms": (1e3 * quantile(values, TAIL_Q[name]), "ms"),
    }
    for sim in SIM_NAMES:
        sims = [(r, t) for r, t in lat
                if r.kind == "simulate" and r.tags.get("simulator") == sim]
        busy = sum(t for _, t in sims)
        out[f"{sim}_reps_per_s"] = (sum(r.tags["reps"] for r, _ in sims) / busy
                                    if busy else None, "1/s")
    return out


def host_factor(ref: list[float]) -> float:
    """REF_NOMINAL_S over the median reference-kernel time in ``ref``."""
    return REF_NOMINAL_S / statistics.median(ref)


def end_to_end(name: str, run: dict) -> dict:
    """End-to-end figures, times host-adjusted round by round."""
    out = _times(name, run, adjusted=True)
    failed = sum(r.error is not None for r in run["executions"])
    out["fail_frac"] = (failed / len(run["executions"]), "ratio")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def workload_properties(results: list[Result], census, rounds: int) -> dict:
    """Counters that say which inputs a claim holds for, per round."""
    c = census.counts
    points = c["hypoexp.pdf.points"] + c["hypoexp.cdf.points"]
    lookups = c["hypoexp.weights.hits"] + c["hypoexp.weights.misses"]
    out = {
        "workload.hypoexp.mp_point_share": (c["hypoexp.points_mp"] / points if points else 0.0, "ratio"),
        "workload.hypoexp.longest_rates": (census.maxima.get("hypoexp.max_rates", 0.0), "count"),
        "workload.hypoexp.weights_hit_ratio": (c["hypoexp.weights.hits"] / lookups if lookups else 0.0, "ratio"),
    }
    for sim in SIM_NAMES:
        reps = sum(r.tags.get("reps", 0) for r in results
                   if r.kind == "simulate" and r.tags.get("simulator") == sim)
        out[f"workload.simulate.reps.{sim}"] = (reps / rounds, "count")
    for kind in OP_KINDS:
        out[f"workload.ops.{kind}"] = (sum(r.kind == kind for r in results) / rounds, "count")
    for lo, hi in D_BUCKETS:
        n = sum(lo <= r.tags.get("d", 0) <= hi for r in results)
        out[f"workload.ops.d{lo}-{hi}"] = (n / rounds, "count")
    return out


def per_layer(name: str, run: dict) -> dict:
    """Traced per-layer figures, plus the untraced figures every run prints
    that BENCHMARK.json cannot hold as end-to-end metrics (they are zero or
    undefined on some workloads)."""
    rounds = len(run["traced_walls"])
    out = layer_metrics(run["tracer"], rounds)
    self_total = out.pop("trace.self_total_s")[0]
    # each round's traced replay runs right after it, so the pair shares host
    # conditions
    out["trace.overhead_frac"] = (statistics.median(
        t / u for t, u in zip(run["traced_walls"], run["walls"])) - 1.0, "ratio")
    out["trace.accounted_frac"] = (self_total * rounds / sum(run["traced_walls"]), "ratio")
    e2e = end_to_end(name, run)
    out["fail_frac"] = e2e["fail_frac"]
    for sim in SIM_NAMES:
        value, unit = e2e[f"{sim}_reps_per_s"]
        out[f"{sim}_reps_per_s"] = (value or 0.0, unit)
    out.update(workload_properties(run["traced"], run["tracer"], rounds))
    return out


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.6g}"


def print_table(title: str, metrics: dict):
    print(title)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {_fmt(value):>14} {unit}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(name: str, seed: int, run: dict, trace: bool, spec: dict) -> str:
    """Print every metric by name with its unit; return the JSON result line."""
    res = run["executions"]
    failed = [r for r in res if r.error is not None]
    for r in failed[:10]:
        print(f"perfbench: {r.kind} failed its oracle: {r.error}", file=sys.stderr)
    e2e = end_to_end(name, run)
    print(f"workload {name} seed {seed}: {run['rounds']} rounds, "
          f"{len(run['results'])} ops, op_tail_ms at p{round(100 * TAIL_Q[name])}, "
          f"setup samples {len(run['setup'])}")
    print_table("end to end (tracing off; times host-adjusted):", e2e)
    ref = [t for r in run["refs"] for t in r]
    print(f"host reference kernel: median {1e3 * statistics.median(ref):.4f} ms over "
          f"{len(ref)} samples; round factors "
          + " ".join(f"{host_factor(r):.3f}" for r in run["refs"]))
    print_table("measured before adjustment:",
                {f"raw.{k}": v for k, v in _times(name, run, adjusted=False).items()})
    print_table("workload properties (per round):",
                workload_properties(run["results"], run["census"], run["rounds"]))
    bypassed = True
    if trace:
        layers = per_layer(name, run)
        print_table("per layer (traced replay, per round):", layers)
        reconcile(layers, run["tracer"])
        for key in BYPASSES[name]:
            if layers[key][0]:
                bypassed = False
                print(f"perfbench: {name} relies on {key} == 0, got {layers[key][0]}",
                      file=sys.stderr)
        wanted, table = spec["per_layer"], layers
    else:
        wanted, table = spec["end_to_end"], e2e
    missing = [m["name"] for m in wanted if m["name"] not in table]
    if missing:
        fail(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": not failed and bypassed, "attempted": len(res), "failed": len(failed),
        "metrics": {m["name"]: {"value": table[m["name"]][0], "unit": table[m["name"]][1]}
                    for m in wanted}})


def run_one(args) -> int:
    cli = import_lfbp()
    run = measure(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), min_ops(args.workload))
    line = report(args.workload, args.seed, run, bool(args.trace), load_spec())
    if args.trace:
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        run["tracer"].dump(spans_dir / f"spans-{args.workload}.npz")
    print(line)
    return 0


# ROADMAP figures measured by hand on the seed commit: replicate_zn with 10k
# reps on the critical scalar at n=10, and per-stream setup cost
ROADMAP_S_PER_10K = {"bgw": 0.82, "cmj": 1.40, "contour": 0.85}
ROADMAP_STREAM_US = (15.0, 25.0)


def reconcile(layers: dict, tracer):
    """Print traced per-call costs beside the ROADMAP's quoted figures."""
    us = layers["streams.stream.us_per_call"][0]
    lo, hi = ROADMAP_STREAM_US
    if us:
        verdict = "within" if lo <= us <= hi else "outside"
        print(f"reconcile: stream setup {us:.1f} us/call, {verdict} ROADMAP {lo:g}-{hi:g} us")
    spans = tracer.span_table()
    for sim in SIM_NAMES:
        name = f"simulate.replicate_zn.{sim}.scalar"
        reps = tracer.counts[f"reps:{name}"]
        if reps:
            s_10k = spans[name][1] / reps * 1e4
            print(f"reconcile: {sim} {s_10k:.2f} s per 10k reps on near-critical scalars "
                  f"at n=10; ROADMAP {ROADMAP_S_PER_10K[sim]:.2f} s (k=0.5, m=1, n=10), "
                  f"ratio {s_10k / ROADMAP_S_PER_10K[sim]:.2f}")
    f64, mp = layers["hypoexp.us_per_point.f64"][0], layers["hypoexp.us_per_point.mp"][0]
    if f64 or mp:
        print(f"reconcile: hypoexp pdf/cdf {f64:.2f} us/point at condition <= 1e10, "
              f"{mp:.1f} us/point above")


def run_all(args) -> int:
    spec = load_spec()
    code = 0
    for w in spec["workloads"]:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", w["name"], "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, check=False)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lfbp" / "cli.py").is_file():
        fail(f"no lfbp sources under {SRC}; run from a repository checkout")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
