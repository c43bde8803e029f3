"""Command-line surface: one subcommand per entry of COMMANDS below.

Every report echoes the resolved configuration and the library version, so a
result file says what produced it; a "finite" triplet document is echoed as
its d, m and the SHA-256 of its bytes, which ``sha256sum`` gives for a file.
Stochastic commands require --seed. Every simulator runs replicates in
blocks of simulate.BLOCK, block b on stream (seed, b), and the merge is
deterministic, so output bytes do not depend on --workers.

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

JSON_SCHEMA = "lfbp.report/2"


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def parse_triplet(spec: str) -> tuple[LFTriplet, dict]:
    """The triplet that ``spec`` (inline JSON starting with '{', or a path to
    a JSON file) names, and its echo for reports.

    ``{"family": "scalar", "k": ..., "m": ...}`` is accepted as sugar for
    the one-state finite family. Scalar and exp documents are echoed whole,
    a "finite" one as d, m and the SHA-256 of the bytes read (UTF-8 inline).
    """
    if spec.lstrip().startswith("{"):
        text = spec
    else:
        try:
            with open(spec, "rb") as fh:
                text = fh.read()
        except OSError as exc:
            raise TripletFormatError("<path>", f"cannot read {spec!r}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TripletFormatError("<json>", f"invalid JSON: {exc}")
    family = doc.get("family") if isinstance(doc, dict) else None
    if family == "scalar":
        for key in ("k", "m"):
            if key not in doc:
                raise TripletFormatError(key, "missing required field")
        doc = {"family": "finite", "K": [[doc["k"]]], "gamma": [1.0],
               "m": doc["m"]}
    triplet = triplet_from_dict(doc)
    if family != FAMILY_FINITE:
        return triplet, triplet_to_dict(triplet)
    import hashlib                      # only finite documents are digested
    raw = text if isinstance(text, bytes) else text.encode("utf-8", "surrogateescape")
    return triplet, {"family": FAMILY_FINITE, "d": triplet.d, "m": triplet.m,
                     "sha256": hashlib.sha256(raw).hexdigest()}


def _parse_point(raw: str | None, triplet: LFTriplet, flag: str):
    """The type point ``flag`` names, else ValueError naming the flag."""
    finite = triplet.family == FAMILY_FINITE
    # exp-family types live on (0, inf), so the default must be interior
    if raw is None:
        return 0 if finite else 1.0
    try:
        point = int(raw) if finite else float(raw)
    except ValueError:
        kind = "an integer type index" if finite else "a real type point"
        raise ValueError(f"{flag} {raw}: must be {kind}") from None
    try:
        return triplet.validate_point(point)
    except ValueError as exc:
        raise ValueError(f"{flag} {raw}: {exc}") from None


def _parse_range(raw: str, flag: str) -> tuple[float, float]:
    """LO:HI with 0 < LO <= HI < inf, else ValueError naming the flag."""
    try:
        lo, hi = (float(p) for p in raw.split(":"))
    except ValueError:
        raise ValueError(f"{flag} {raw}: must be LO:HI") from None
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError(f"{flag} {raw}: must have 0 < LO <= HI < inf")
    return lo, hi


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


def _config(args, echo=None, **extra) -> dict:
    """Resolved configuration, with ``parse_triplet``'s echo, for every report.

    Deliberately excludes the worker count: it never influences results
    (streams are keyed by block or replicate, never by worker), so identical
    configurations must give byte-identical reports at any parallelism.
    """
    cfg = {"command": args.command, "version": __version__}
    for key in ("seed", "reps", "n", "tol", "format", "x",
                "simulator", "start", "w"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if echo is not None:
        cfg["triplet"] = echo
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
    t, echo = parse_triplet(args.triplet)
    summary = spectral.classify(t)
    report = {"schema": JSON_SCHEMA, "config": _config(args, echo)}
    report.update(summary.as_dict())
    _emit_json(report, args)
    return 0


def cmd_phase_grid(args) -> int:
    lo_l, hi_l = _parse_range(args.lambda_range, "--lambda-range")
    lo_m, hi_m = _parse_range(args.mu_range, "--mu-range")
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
    t, echo = parse_triplet(args.triplet)
    x = _parse_point(args.x, t, "--x")
    p = evolution.survival_prob(t, x, args.n)
    report = {"schema": JSON_SCHEMA, "config": _config(args, echo),
              "n": args.n, "x": x, "survival": p}
    _emit_json(report, args)
    return 0


def cmd_distribution(args) -> int:
    t, echo = parse_triplet(args.triplet)
    x = _parse_point(args.x, t, "--x")
    law = evolution.evolve(t, args.n)
    functionals = {spec: law.functional(x, stats.probe(spec))
                   for spec in ("const:0.5", "tilt:1.0")}
    report = {"schema": JSON_SCHEMA, "config": _config(args, echo),
              "n": args.n, "x": x, "m_n": law.m_n,
              "survival": law.survival(x),
              "functionals": functionals,
              "pmf_head": [law.pmf(x, k) for k in range(6)]}
    _emit_json(report, args)
    return 0


def cmd_simulate(args) -> int:
    t, echo = parse_triplet(args.triplet)
    start = args.start
    if start != "gamma" and args.simulator == "bgw":
        start = _parse_point(start, t, "--start")
    zs = simulate.replicate_zn(t, args.n, args.reps, args.seed,
                               simulator=args.simulator, start=start,
                               workers=args.workers)
    cfg = _config(args, echo, block=simulate.BLOCK, discarded=zs.discarded)
    rows = []
    for i, z in enumerate(zs.raw):
        if z < 0:
            rows.append((i, args.n, None, None))
        else:
            rows.append((i, args.n, int(z), int(z > 0)))
    _emit(_csv_text(cfg, ["replicate", "n", "zn", "survived"], rows), args.out)
    return 0


def cmd_crosscheck(args) -> int:
    t, echo = parse_triplet(args.triplet)
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
    report = {"schema": JSON_SCHEMA, "config": _config(args, echo),
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
    t, echo = parse_triplet(args.triplet)
    x = _parse_point(args.x, t, "--x")
    grid = _parse_list(args.grid, int) if args.grid else None
    out = stats.limit_report(t, x, grid, args.tol or 1e-3, w=args.w or "const",
                             reps=args.reps, seed=args.seed,
                             workers=args.workers).as_dict()
    out["config"] = _config(args, echo)
    _emit_json(out, args)
    return 0


def cmd_yaglom(args) -> int:
    t, echo = parse_triplet(args.triplet)
    summary = spectral.classify(t)
    if summary.criticality != spectral.CRITICAL:
        raise RegimeError(f"yaglom needs a critical triplet, got "
                          f"{summary.criticality}")
    measured, rows = stats.yaglom_rows(t, summary, args.n, args.reps, args.seed,
                                       args.w or "const", args.workers)
    mean, ks = rows[0], rows[-1]
    report = {"schema": JSON_SCHEMA, "config": _config(args, echo),
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
    import warnings
    a = _parse_list(args.a)
    b = _parse_list(args.b)
    # a warning goes to stderr as one plain line, without the source location
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r = stats.renewal_sequence(a, b, args.n, rel=args.tol or 1e-3)
    for w in caught:
        print(f"lfbp renewal: warning: {w.message}", file=sys.stderr)
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

def _common(p, triplet=True, seed=False, reps=False, n=None, formats=("json",),
            tol=False, workers=False):
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


_ANCESTOR = ("--x", dict(help="ancestor type (index, default 0; or real, default 1.0)"))

# name: (handler, help, _common options, the command's own flags in order)
COMMANDS = {
    "classify": (cmd_classify, "criticality, R, rho, alpha, beta, E[L]", {}, []),
    "phase-grid": (
        cmd_phase_grid, "CSV of (lam, mu, alpha, beta, E[L], class) nodes",
        dict(triplet=False, formats=("csv",)),
        [("--m", dict(type=float, required=True)),
         ("--lambda-range", dict(required=True, metavar="LO:HI")),
         ("--mu-range", dict(required=True, metavar="LO:HI")),
         ("--grid", dict(type=_count(1), default=50))]),
    "survive": (cmd_survive, "exact P_x(Z_n > 0)", dict(n=int), [_ANCESTOR]),
    "distribution": (
        cmd_distribution, "exact generation-n law: m_n, survival, functionals",
        dict(n=int), [_ANCESTOR]),
    "simulate": (
        cmd_simulate, "per-replicate Z_n CSV",
        dict(seed=True, reps=True, n=int, formats=("csv",), workers=True),
        [("--simulator", dict(choices=simulate.SIMULATORS, default="bgw")),
         ("--start", dict(default="gamma",
                          help="'gamma' or an ancestor type (bgw only)"))]),
    "crosscheck": (
        cmd_crosscheck, "pairwise KS table across the three simulators",
        dict(seed=True, reps=True, n=int, formats=("json", "csv"), workers=True),
        []),
    "limits": (
        cmd_limits, "regime limit-theorem verification report",
        dict(tol=True, workers=True),
        [_ANCESTOR,
         ("--grid", dict(help="comma-separated n grid")),
         ("--reps", dict(type=_count(0), default=0,
                         help="enable the Monte Carlo checks (0 = off)")),
         ("--seed", dict(type=int, help="required when --reps > 0")),
         ("--w", dict(help="probe for the scaled-population checks"))]),
    "yaglom": (
        cmd_yaglom, "conditioned scaled-population law vs exponential",
        dict(seed=True, reps=True, n=_count(1), workers=True),
        [("--w", dict(help="probe (default const)"))]),
    "renewal": (
        cmd_renewal, "c_n = b_n + sum a_k c_{n-k} utility",
        dict(triplet=False, n=_count(0), formats=("json", "csv"), tol=True),
        [("--a", dict(required=True, help="comma list, lag 1 first")),
         ("--b", dict(required=True, help="comma list, lag 0 first"))]),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or the top level with only ``command``'s subparser.

    The one-command parser lists every command in its usage line, so each
    usage, help and error text it prints is the full parser's, byte for byte.
    """
    ap = argparse.ArgumentParser(
        prog="lfbp",
        description="Linear-fractional branching processes: exact generation "
                    "laws, spectral classification, simulators, and "
                    "limit-theorem verifiers.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else [command]:
        fn, help_, common, flags = COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        _common(p, **common)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's subparser is built; anything else (-h,
    # --version, a typo, no command) gets the full parser and its messages
    args = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None
                         ).parse_args(argv)
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
