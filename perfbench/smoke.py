"""Smoke check for the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/smoke.py

For each workload it runs a few cheap ops through the same measure/report
path as ``run.py``, with and without tracing, and asserts that every metric
the benchmark defines is printed by name with its unit and lands in the JSON
result. It then feeds one op a deliberately wrong oracle value and asserts
that the op is counted as failed in ``fail_frac`` and ``failed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

# the nine end-to-end figures every run prints, BENCHMARK.json or not
PRINTED = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
           "fail_frac": "ratio", "peak_rss_mb": "MB", "bgw_reps_per_s": "1/s",
           "cmj_reps_per_s": "1/s", "contour_reps_per_s": "1/s"}


def tiny(name, make):
    """A cheap slice of each round: the first ops of each kind, small sizes."""
    def round_ops(seed, k):
        keep, seen = [], {}
        for op in make(seed, k):
            if op.kind in ("limits", "yaglom") or seen.get(op.kind, 0) >= 2:
                continue
            if op.tags.get("n", 0) > 4 and op.kind == "distribution":
                continue
            seen[op.kind] = seen.get(op.kind, 0) + 1
            keep.append(op)
        return keep
    return round_ops


def printed(text: str, name: str, unit: str) -> bool:
    return re.search(rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", text,
                     re.MULTILINE) is not None


def check_workload(cli, spec, name, make, trace: bool):
    run = bench.measure(cli, tiny(name, make), seed=7, seconds=0.0, trace=trace,
                        least_ops=1)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = bench.report(name, 7, run, trace, spec)
    text = buf.getvalue()
    result = json.loads(line)
    assert result["correct"] and result["failed"] == 0, (name, result)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not trace:
        wanted.update(PRINTED)
    for metric, unit in wanted.items():
        assert printed(text, metric, unit), f"{name}: {metric} [{unit}] not printed"
        if metric in spec_names(spec, trace):
            assert result["metrics"][metric]["unit"] == unit, (name, metric)
    assert set(result["metrics"]) == spec_names(spec, trace), name
    return run


def spec_names(spec, trace: bool) -> set:
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_wrong_oracle(cli, spec):
    """A critical-scalar survive op checked against 1/(1 + 1.01 m n) must fail."""
    from workloads import Op, _critical_scalar_check
    m, n = 1.0, 10
    argv = ["survive", "--triplet",
            json.dumps({"family": "scalar", "k": 1.0 / (1.0 + m), "m": m}), "--n", str(n)]
    ops = [Op("survive", argv, _critical_scalar_check(m, n)),
           Op("survive", argv, _critical_scalar_check(1.01 * m, n))]
    run = bench.measure(cli, lambda seed, k: ops, seed=0, seconds=0.0, trace=False,
                        least_ops=1)
    assert [r.error is None for r in run["results"][:2]] == [True, False], run["results"]
    assert [r.error is None for r in run["executions"]].count(False) == len(run["executions"]) // 2
    frac = bench.end_to_end("spectral-scan", run)["fail_frac"][0]
    assert frac == 0.5, frac
    with contextlib.redirect_stdout(io.StringIO()):
        result = json.loads(bench.report("spectral-scan", 0, run, False, spec))
    assert not result["correct"] and result["failed"] == result["attempted"] // 2, result


def main() -> int:
    cli = bench.import_lfbp()
    from workloads import WORKLOADS
    spec = bench.load_spec()
    for name, make in WORKLOADS.items():
        for trace in (False, True):
            check_workload(cli, spec, name, make, trace)
            print(f"smoke: {name} trace={int(trace)} ok")
    check_wrong_oracle(cli, spec)
    print("smoke: wrong oracle counted in fail_frac ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
