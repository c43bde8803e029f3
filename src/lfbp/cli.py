"""Command-line surface: classify, evolve, simulate, verify, export.

Every report embeds the resolved configuration and the library version so a
result file is self-describing. Stochastic commands require --seed. Every
simulator runs replicates in blocks of simulate.BLOCK, block b on stream
(seed, b), and the merge is deterministic, so output bytes do not depend on
--workers.

CSV output uses '.' decimals, '\n' line endings, and a header row; a
leading '#' comment line carries the configuration. JSON reports carry a
schema tag.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import __version__, evolution, simulate, spectral, stats
from .errors import (PopulationCapError, QuadratureError, RegimeError,
                     TripletFormatError, WalkCapError)
from .typespace import (FAMILY_FINITE, LFTriplet, make_exp_triplet,
                        triplet_from_dict, triplet_to_dict)

JSON_SCHEMA = "lfbp.report/1"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def parse_triplet(spec: str) -> LFTriplet:
    """Inline JSON (starts with '{') or a path to a JSON file.

    ``{"family": "scalar", "k": ..., "m": ...}`` is accepted as sugar for
    the one-state finite family.
    """
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise TripletFormatError("<path>", f"cannot read {spec!r}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TripletFormatError("<json>", f"invalid JSON: {exc}")
    if isinstance(doc, dict) and doc.get("family") == "scalar":
        for key in ("k", "m"):
            if key not in doc:
                raise TripletFormatError(key, "missing required field")
        doc = {"family": "finite", "K": [[doc["k"]]], "gamma": [1.0],
               "m": doc["m"]}
    return triplet_from_dict(doc)


def _parse_point(raw: str | None, triplet: LFTriplet):
    # exp-family types live on (0, inf), so the default must be interior
    if raw is None:
        return 0 if triplet.family == FAMILY_FINITE else 1.0
    return int(raw) if triplet.family == FAMILY_FINITE else float(raw)


def _count(least: int):
    """argparse type: an integer >= ``least``."""
    def count(raw: str) -> int:
        if int(raw) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {raw}")
        return int(raw)
    return count


def _tolerance(raw: str) -> float:
    """argparse type: a positive finite float."""
    if not 0.0 < float(raw) < np.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw}")
    return float(raw)


def _parse_list(raw: str, kind=float) -> list:
    return [kind(p) for p in raw.split(",") if p.strip() != ""]


def _config(args, triplet=None, **extra) -> dict:
    """Resolved configuration echoed into every report.

    Deliberately excludes the worker count: it never influences results
    (streams are keyed by block or replicate, never by worker), so identical
    configurations must give byte-identical reports at any parallelism.
    """
    cfg = {"command": args.command, "version": __version__}
    for key in ("seed", "reps", "n", "tol", "format", "x",
                "simulator", "start", "w"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if triplet is not None:
        cfg["triplet"] = triplet_to_dict(triplet)
    cfg.update(extra)
    return cfg


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, args):
    _emit(json.dumps(report, indent=2, allow_nan=True) + "\n", args.out)


def _csv_text(config: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# config " + json.dumps(config) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_cell(v) for v in row) + "\n")
    return buf.getvalue()


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    t = parse_triplet(args.triplet)
    summary = spectral.classify(t)
    report = {"schema": JSON_SCHEMA, "config": _config(args, t)}
    report.update(summary.as_dict())
    _emit_json(report, args)
    return 0


def cmd_phase_grid(args) -> int:
    lo_l, hi_l = (float(p) for p in args.lambda_range.split(":"))
    lo_m, hi_m = (float(p) for p in args.mu_range.split(":"))
    if lo_l <= 0 or lo_m <= 0:
        raise ValueError("ranges must be positive")
    g = args.grid
    lams = np.linspace(lo_l, hi_l, g)
    mus = np.linspace(lo_m, hi_m, g)
    rows = []
    for lam in lams:
        for mu in mus:
            s = spectral.classify(make_exp_triplet(float(lam), float(mu),
                                                   args.m))
            rows.append((float(lam), float(mu), s.alpha, s.beta,
                         s.mean_life, s.criticality))
    cfg = _config(args, None, m=args.m, lambda_range=args.lambda_range,
                  mu_range=args.mu_range, grid=g)
    text = _csv_text(cfg, ["lam", "mu", "alpha", "beta", "mean_life",
                           "criticality"], rows)
    _emit(text, args.out)
    return 0


def cmd_survive(args) -> int:
    t = parse_triplet(args.triplet)
    x = _parse_point(args.x, t)
    p = evolution.survival_prob(t, x, args.n)
    report = {"schema": JSON_SCHEMA, "config": _config(args, t),
              "n": args.n, "x": x, "survival": p}
    _emit_json(report, args)
    return 0


def cmd_distribution(args) -> int:
    t = parse_triplet(args.triplet)
    x = _parse_point(args.x, t)
    law = evolution.evolve(t, args.n)
    functionals = {spec: law.functional(x, stats.probe(spec))
                   for spec in ("const:0.5", "tilt:1.0")}
    report = {"schema": JSON_SCHEMA, "config": _config(args, t),
              "n": args.n, "x": x, "m_n": law.m_n,
              "survival": law.survival(x),
              "functionals": functionals,
              "pmf_head": [law.pmf(x, k) for k in range(6)]}
    _emit_json(report, args)
    return 0


def cmd_simulate(args) -> int:
    t = parse_triplet(args.triplet)
    start = args.start
    if start != "gamma" and args.simulator == "bgw":
        start = _parse_point(start, t)
    zs = simulate.replicate_zn(t, args.n, args.reps, args.seed,
                               simulator=args.simulator, start=start,
                               workers=args.workers)
    cfg = _config(args, t, block=simulate.BLOCK, discarded=zs.discarded)
    rows = []
    for i, z in enumerate(zs.raw):
        if z < 0:
            rows.append((i, args.n, None, None))
        else:
            rows.append((i, args.n, int(z), int(z > 0)))
    _emit(_csv_text(cfg, ["replicate", "n", "zn", "survived"], rows), args.out)
    return 0


def cmd_crosscheck(args) -> int:
    t = parse_triplet(args.triplet)
    sims = list(simulate.SIMULATORS)
    samples = []
    discarded = {}
    for idx, sim in enumerate(sims):
        # distinct seed offsets keep the three samples independent
        zs = simulate.replicate_zn(t, args.n, args.reps,
                                   args.seed + 1_000_003 * idx,
                                   simulator=sim, workers=args.workers)
        discarded[sim] = zs.discarded
        samples.append(zs.values)
    k = len(sims)
    dmat = [[0.0] * k for _ in range(k)]
    pmat = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d, p = stats.ks_two_sample(samples[i], samples[j])
            dmat[i][j] = dmat[j][i] = d
            pmat[i][j] = pmat[j][i] = p
    report = {"schema": JSON_SCHEMA, "config": _config(args, t),
              "simulators": sims, "discarded": discarded,
              "ks_stat": dmat, "p_value": pmat,
              "min_p": min(pmat[i][j] for i in range(k)
                           for j in range(k) if i != j)}
    if args.format == "csv":
        rows = [(sims[i], sims[j], dmat[i][j], pmat[i][j])
                for i in range(k) for j in range(k)]
        _emit(_csv_text(report["config"],
                        ["sim_a", "sim_b", "ks_stat", "p_value"], rows),
              args.out)
    else:
        _emit_json(report, args)
    return 0


def cmd_limits(args) -> int:
    t = parse_triplet(args.triplet)
    x = _parse_point(args.x, t)
    grid = _parse_list(args.grid, int) if args.grid else None
    out = stats.limit_report(t, x, grid, args.tol or 1e-3, w=args.w or "const",
                             reps=args.reps, seed=args.seed,
                             workers=args.workers).as_dict()
    out["config"] = _config(args, t)
    _emit_json(out, args)
    return 0


def cmd_yaglom(args) -> int:
    t = parse_triplet(args.triplet)
    summary = spectral.classify(t)
    if summary.criticality != spectral.CRITICAL:
        raise RegimeError(f"yaglom needs a critical triplet, got "
                          f"{summary.criticality}")
    measured, rows = stats.yaglom_rows(t, summary, args.n, args.reps, args.seed,
                                       args.w or "const", args.workers)
    mean, ks = rows[0], rows[-1]
    report = {"schema": JSON_SCHEMA, "config": _config(args, t),
              "n": args.n, "reps": args.reps, "conditioned": mean.sample_size,
              "survival_rate": mean.sample_size / args.reps,
              "mean": {"printed": 1.0 + t.m, "derived": mean.target,
                       "measured": measured}}
    if mean.passed is None:
        report["verdict"] = "insufficient power"
    else:
        report.update(se=mean.se, ks_stat=ks.statistic, p_value=ks.value,
                      verdict="pass" if mean.passed and ks.passed else "fail")
    _emit_json(report, args)
    return 0


def cmd_renewal(args) -> int:
    a = _parse_list(args.a)
    b = _parse_list(args.b)
    r = stats.renewal_sequence(a, b, args.n, rel=args.tol or 1e-3)
    if args.format == "csv":
        cfg = _config(args, None, a=a, b=b)
        rows = [(k, float(c)) for k, c in enumerate(r.c)]
        _emit(_csv_text(cfg, ["k", "c_k"], rows), args.out)
    else:
        report = {"schema": JSON_SCHEMA,
                  "config": _config(args, None, a=a, b=b)}
        report.update(r.as_dict())
        _emit_json(report, args)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lfbp",
        description="Linear-fractional branching processes: exact generation "
                    "laws, spectral classification, simulators, and "
                    "limit-theorem verifiers.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, triplet=True, seed=False, reps=False, n=None,
               formats=("json",), tol=False, workers=False):
        # --tol and --workers only where read; --format offers what p writes
        if triplet:
            p.add_argument("--triplet", required=True,
                           help="inline JSON or path to a JSON file")
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="base seed of the replicate streams")
        if reps:
            p.add_argument("--reps", type=_count(1), required=True)
        if n:
            p.add_argument("--n", type=n, required=True,
                           help="generation horizon")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default=formats[0])
        if workers:
            p.add_argument("--workers", type=_count(1), default=1)
        if tol:
            p.add_argument("--tol", type=_tolerance, default=None)

    p = sub.add_parser("classify", help="criticality, R, rho, alpha, beta, E[L]")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("phase-grid",
                       help="CSV of (lam, mu, alpha, beta, E[L], class) nodes")
    common(p, triplet=False, formats=("csv",))
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--lambda-range", required=True, metavar="LO:HI")
    p.add_argument("--mu-range", required=True, metavar="LO:HI")
    p.add_argument("--grid", type=int, default=50)
    p.set_defaults(fn=cmd_phase_grid)

    p = sub.add_parser("survive", help="exact P_x(Z_n > 0)")
    common(p, n=int)
    p.add_argument("--x", help="ancestor type (index, default 0; or real, default 1.0)")
    p.set_defaults(fn=cmd_survive)

    p = sub.add_parser("distribution",
                       help="exact generation-n law: m_n, survival, functionals")
    common(p, n=int)
    p.add_argument("--x", help="ancestor type (index, default 0; or real, default 1.0)")
    p.set_defaults(fn=cmd_distribution)

    p = sub.add_parser("simulate", help="per-replicate Z_n CSV")
    common(p, seed=True, reps=True, n=int, formats=("csv",), workers=True)
    p.add_argument("--simulator", choices=simulate.SIMULATORS, default="bgw")
    p.add_argument("--start", default="gamma",
                   help="'gamma' or an ancestor type (bgw only)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("crosscheck",
                       help="pairwise KS table across the three simulators")
    common(p, seed=True, reps=True, n=int, formats=("json", "csv"), workers=True)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("limits", help="regime limit-theorem verification report")
    common(p, tol=True, workers=True)
    p.add_argument("--x", help="ancestor type (index, default 0; or real, default 1.0)")
    p.add_argument("--grid", help="comma-separated n grid")
    p.add_argument("--reps", type=_count(0), default=0,
                   help="enable the Monte Carlo checks (0 = off)")
    p.add_argument("--seed", type=int, help="required when --reps > 0")
    p.add_argument("--w", help="probe for the scaled-population checks")
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("yaglom",
                       help="conditioned scaled-population law vs exponential")
    common(p, seed=True, reps=True, n=_count(1), workers=True)
    p.add_argument("--w", help="probe (default const)")
    p.set_defaults(fn=cmd_yaglom)

    p = sub.add_parser("renewal", help="c_n = b_n + sum a_k c_{n-k} utility")
    common(p, triplet=False, n=_count(0), formats=("json", "csv"), tol=True)
    p.add_argument("--a", required=True, help="comma list, lag 1 first")
    p.add_argument("--b", required=True, help="comma list, lag 0 first")
    p.set_defaults(fn=cmd_renewal)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TripletFormatError, RegimeError, ValueError) as exc:
        print(f"lfbp {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (PopulationCapError, WalkCapError) as exc:
        print(f"lfbp {args.command}: simulation cap exceeded: {exc}",
              file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"lfbp {args.command}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
