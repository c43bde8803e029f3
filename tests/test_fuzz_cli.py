"""Generated `limits`, `yaglom`, `renewal`, `survive`, `distribution`,
`classify`, `simulate`, `crosscheck` and `phase-grid` command lines never
crash.

Every run ends in a documented exit code with no traceback, and a report
that exits 0 states no NaN or infinity (bar the R_star of an exp triplet or
of a nilpotent finite block).
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lfbp import simulate
from lfbp.cli import main

EXIT_CODES = {0, 2, 3, 4}
ODD_FLOATS = ["nan", "inf", "-inf", "-1", "0"]


@st.composite
def scalar_triplet(draw):
    m = draw(st.floats(0.1, 2.0))
    k = draw(st.one_of(st.just(1.0 / (1.0 + m)), st.floats(0.05, 0.9)))
    return json.dumps({"family": "scalar", "k": k, "m": m})


def number_list(values, min_size=0):
    return st.lists(values, min_size=min_size, max_size=4).map(
        lambda v: ",".join(map(str, v)))


tols = st.one_of(st.none(), st.sampled_from(ODD_FLOATS),
                 st.floats(1e-6, 0.5).map(repr))
deep_grids = number_list(st.integers(-2, 5000))


@st.composite
def limits_argv(draw):
    argv = ["limits", "--triplet", draw(scalar_triplet())]
    reps = draw(st.sampled_from([0, 0, 50, 600]))
    # a Monte Carlo run stays shallow so a supercritical population is small;
    # an empty --grid means the default grid
    grid = number_list(st.integers(1, 4), min_size=1) if reps else deep_grids
    argv += ["--grid", draw(grid)] if draw(st.booleans()) or reps else []
    if reps:
        argv += ["--reps", str(reps), "--seed", str(draw(st.integers(0, 99)))]
    return argv


@st.composite
def yaglom_argv(draw):
    return ["yaglom", "--triplet", draw(scalar_triplet()),
            "--n", str(draw(st.integers(-1, 12))),
            "--reps", str(draw(st.sampled_from([1, 200, 1500]))),
            "--seed", str(draw(st.integers(0, 99)))]


@st.composite
def renewal_argv(draw):
    coef = st.one_of(st.sampled_from(ODD_FLOATS), st.floats(0.0, 1.0).map(repr))
    return ["renewal", "--a", draw(number_list(coef)),
            "--b", draw(number_list(coef)),
            "--n", str(draw(st.integers(-3, 300)))]


@st.composite
def exact_argv(draw):
    # m log-uniform up to 1e300: a huge m must give a probability or exit 2
    m = 10.0 ** draw(st.floats(-1.0, 300.0))
    k = draw(st.floats(0.05, 0.95))
    doc = json.dumps({"family": "scalar", "k": k, "m": m})
    return [draw(st.sampled_from(["survive", "distribution"])), "--triplet",
            doc, "--n", str(draw(st.integers(0, 400)))]


@st.composite
def classify_argv(draw):
    # m log-uniform over the positive float64 range, 5e-324 to 1.78e308: the
    # root of m f(R) = 1 is resolved or the run exits 2
    m = 10.0 ** draw(st.floats(-323.3, 308.25))
    if draw(st.booleans()):
        doc = {"family": "scalar", "k": draw(st.floats(1e-3, 0.999)), "m": m}
    else:
        doc = {"family": "exp", "lambda": draw(st.floats(0.1, 10.0)),
               "mu": draw(st.floats(0.1, 10.0)), "m": m}
    return ["classify", "--triplet", json.dumps(doc)]


@st.composite
def exp_limits_argv(draw):
    # m down to 1e-300 puts R in the hundreds
    lam, mu = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
    doc = {"family": "exp", "lambda": lam, "mu": mu,
           "m": 10.0 ** draw(st.floats(-300.0, 0.0))}
    return ["limits", "--triplet", json.dumps(doc), "--grid",
            draw(number_list(st.integers(1, 30), min_size=1))]


@st.composite
def finite_argv(draw):
    # full, reducible (upper triangular) or nilpotent (strictly upper) K with
    # d <= 8, and gamma on a subset of the states that includes state 0
    d = draw(st.integers(2, 8))
    K = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d * d,
                               max_size=d * d))).reshape(d, d)
    K = (K, np.triu(K), np.triu(K, 1))[draw(st.integers(0, 2))]
    K[0, 1] += 0.1                               # gamma sees a live state
    rows = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=d, max_size=d)))
    K *= rows[:, None] / np.maximum(K.sum(axis=1, keepdims=True), 1e-300)
    gam = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    gam *= np.array([True] + draw(st.lists(st.booleans(), min_size=d - 1,
                                           max_size=d - 1)))
    doc = {"family": "finite", "K": K.tolist(), "gamma": (gam / gam.sum()).tolist(),
           "m": 10.0 ** draw(st.floats(-3.0, 3.0))}
    cmd = draw(st.sampled_from([["classify"], ["limits", "--grid", "5,10"]]))
    return [cmd[0], "--triplet", json.dumps(doc), *cmd[1:]]


@st.composite
def phase_grid_argv(draw):
    # valid ranges, and ranges in either order, with zero, negative, NaN,
    # infinite or missing ends; grids down to -3
    pos = st.floats(0.05, 4.0)
    good = st.tuples(pos, pos).map(lambda v: f"{min(v)!r}:{max(v)!r}")
    end = st.one_of(st.sampled_from(ODD_FLOATS), pos.map(repr))
    ranges = st.one_of(good, good, st.tuples(end, end).map(":".join), end)
    m = draw(st.one_of(pos.map(repr), pos.map(repr), st.sampled_from(ODD_FLOATS)))
    # --flag=value, so that argparse never reads a value such as -inf:1 as a flag
    return ["phase-grid", f"--m={m}", f"--lambda-range={draw(ranges)}",
            f"--mu-range={draw(ranges)}", f"--grid={draw(st.integers(-3, 4))}"]


@st.composite
def simulation_doc(draw):
    # supercritical scalar and 3-type documents grow past the small live
    # bound and cap that test_simulations_exit_cleanly sets
    kind = draw(st.sampled_from(["scalar", "super", "exp", "finite"]))
    if kind == "scalar":
        return draw(scalar_triplet())
    m = draw(st.floats(0.2, 3.0))
    if kind == "super":
        k = draw(st.floats(1.5, 3.0)) / (1.0 + m)
        return json.dumps({"family": "scalar", "k": k, "m": m})
    if kind == "exp":
        lam, mu = (draw(st.floats(0.3, 3.0)) for _ in range(2))
        return json.dumps({"family": "exp", "lambda": lam, "mu": mu, "m": m})
    rows = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=9, max_size=9)))
    K = rows.reshape(3, 3) / 3.0
    return json.dumps({"family": "finite", "K": K.tolist(),
                       "gamma": [0.2, 0.3, 0.5], "m": m})


@st.composite
def simulation_argv(draw):
    cmd = draw(st.sampled_from(["simulate", "crosscheck"]))
    argv = [cmd, "--triplet", draw(simulation_doc()),
            "--n", str(draw(st.integers(-1, 5))),
            "--reps", str(draw(st.sampled_from([1, 7, 120, 120]))),
            "--seed", str(draw(st.integers(0, 99)))]
    if cmd == "simulate":
        sim = draw(st.sampled_from(simulate.SIMULATORS))
        argv += ["--simulator", sim]
        if sim == "bgw" and draw(st.booleans()):
            argv += ["--start", draw(st.sampled_from(["0", "1", "0.5", "-1", "x"]))]
    return argv


def run_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:     # argparse rejected a flag
            rc = exc.code
    assert rc in EXIT_CODES, (argv, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 0:
        text = out.getvalue()
        if argv[0] == "classify":     # R_* is infinite without a cycle
            text = text.replace('"R_star": Infinity', "")
        assert "NaN" not in text and "Infinity" not in text, (argv, text)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(limits_argv(), yaglom_argv(), renewal_argv(), exact_argv()),
       tols)
def test_cli_exits_cleanly(argv, tol):
    # only limits and renewal take --tol
    if tol is not None and argv[0] in ("limits", "renewal"):
        argv = argv + ["--tol", tol]
    run_cleanly(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(classify_argv())
def test_classify_exits_cleanly(argv):
    run_cleanly(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(exp_limits_argv(), finite_argv()))
def test_generated_documents_exit_cleanly(argv):
    run_cleanly(argv)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(simulation_argv())
def test_simulations_exit_cleanly(argv):
    # a live bound of 256 points, a cap of 50 and a walk cap of 40 steps let
    # small runs reach the split of a crowded bgw block and the per-replicate
    # discards of bgw, cmj and contour
    real = simulate.replicate_zn

    def capped(*args, **kwargs):
        return real(*args, **{**kwargs, "cap": 50})
    with mock.patch.object(simulate, "_LIVE", 256), \
            mock.patch.object(simulate, "_WALK_CAP", 40), \
            mock.patch.object(simulate, "replicate_zn", capped):
        run_cleanly(argv)


def _valid_range(raw):
    ends = raw.split(":")
    return len(ends) == 2 and 0.0 < float(ends[0]) <= float(ends[1]) < np.inf


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phase_grid_argv())
def test_phase_grid_exits_cleanly(argv):
    # a run exits 0 exactly when every input is valid, with grid^2 rows;
    # otherwise it exits 2 naming the first bad flag
    rc, out, err = run_cleanly(argv)
    m, lam, mu, grid = (arg.split("=", 1)[1] for arg in argv[1:])
    grid = int(grid)
    bad = next((flag for flag, ok in (
        ("--grid", grid >= 1), ("--lambda-range", _valid_range(lam)),
        ("--mu-range", _valid_range(mu))) if not ok), None)
    if bad is None:
        assert rc in (0, 2), argv
        if rc == 0:
            assert len(out.splitlines()) == 2 + grid * grid
        else:                       # only the litter mean is left to reject
            assert not 0.0 < float(m) < np.inf and "'m'" in err, (argv, err)
    else:
        assert rc == 2 and bad in err, (argv, err)
