"""Malformed CLI input exits 2 and names what is wrong."""

import json

import pytest

from lfbp.cli import main

SCALAR_CRIT = json.dumps({"family": "scalar", "k": 0.5, "m": 1.0})
EXP_CRIT = json.dumps({"family": "exp", "lambda": 1.2, "mu": 0.7,
                       "m": 1.6595995495146982})


@pytest.mark.parametrize("doc,field", [
    ('{"family": "finite", "K": [[0.5]], "gamma": [1.0], "m": true}', "m"),
    ('{"family": "finite", "K": [[NaN]], "gamma": [1.0], "m": 1.0}', "K"),
    ('{"family": "finite", "K": [[0.5, Infinity], [0.1, 0.1]], '
     '"gamma": [0.5, 0.5], "m": 1.0}', "K"),
    ('{"family": "finite", "K": [[0.5]], "gamma": [NaN], "m": 1.0}', "gamma"),
    ('{"family": "finite", "K": [[0.5]], "gamma": [true], "m": 1.0}', "gamma"),
    ('{"family": "exp", "lambda": "1", "mu": 1.0, "m": 1.0}', "lambda"),
    ('{"family": "exp", "lambda": 1.0, "mu": Infinity, "m": 1.0}', "mu"),
    ('{"family": "exp", "lambda": 1.0, "mu": 1.0, "m": NaN}', "m"),
])
def test_bad_numbers_exit_2_naming_the_field(doc, field, capsys):
    assert main(["survive", "--triplet", doc, "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err
    assert "Traceback" not in err


def test_negative_generation_exits_2(capsys):
    assert main(["survive", "--triplet", SCALAR_CRIT, "--n", "-2"]) == 2
    assert "n must be >= 0" in capsys.readouterr().err


def test_probe_expression_cannot_run_code(capsys):
    rc = main(["yaglom", "--triplet", SCALAR_CRIT, "--n", "5", "--reps", "200",
               "--seed", "1", "--w", 'expr:__import__("os").getpid()+0*y'])
    assert rc == 2
    assert "not allowed" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["yaglom", "--n", "5", "--seed", "1", "--reps", "0"], "--reps"),
    (["simulate", "--n", "5", "--seed", "1", "--reps", "-5"], "--reps"),
    (["crosscheck", "--n", "5", "--seed", "1", "--reps", "0"], "--reps"),
    (["simulate", "--n", "5", "--seed", "1", "--reps", "20",
      "--workers", "-3"], "--workers"),
    (["yaglom", "--n", "5", "--seed", "1", "--reps", "20",
      "--workers", "0"], "--workers"),
    (["limits", "--reps", "-4", "--seed", "1"], "--reps"),
    (["yaglom", "--n", "0", "--seed", "1", "--reps", "20"], "--n"),
    (["renewal", "--n", "-3", "--a", "1", "--b", "1"], "--n"),
])
def test_bad_count_flags_exit_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--triplet", SCALAR_CRIT])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be >= " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["limits", "--triplet", SCALAR_CRIT, "--grid", "10,20"],
    ["renewal", "--a", "0.5,0.5", "--b", "1", "--n", "10"],
])
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_tol_must_be_positive_and_finite(argv, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", tol])
    assert exc.value.code == 2
    assert f"argument --tol: must be positive and finite, got {tol}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("triplet,grid,named", [
    (SCALAR_CRIT, ",", "--grid needs at least one n"),
    (SCALAR_CRIT, "0,5", "--grid n = 0"),
    ('{"family": "scalar", "k": 0.75, "m": 1}', "1000,2000", "--grid n = 2000"),
    ('{"family": "finite", "K": [[0, 0.5], [0, 0]], "gamma": [1, 0], '
     '"m": 1e-5}', None, "--grid n = 60"),
])
def test_limits_grid_edges_exit_2_naming_the_grid(triplet, grid, named, capsys):
    flags = [] if grid is None else ["--grid", grid]
    assert main(["limits", "--triplet", triplet] + flags) == 2
    out, err = capsys.readouterr()
    assert named in err and out == ""
    assert "Traceback" not in err


def test_limits_reps_zero_means_off(capsys):
    assert main(["limits", "--triplet", SCALAR_CRIT, "--grid", "10,20",
                 "--reps", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not [t for t in report["tests"] if t["kind"] == "mc"]


@pytest.mark.parametrize("sim", ["bgw", "cmj", "contour"])
def test_negative_horizon_exits_2_for_every_simulator(sim, capsys):
    assert main(["simulate", "--triplet", SCALAR_CRIT, "--n", "-1", "--reps",
                 "3", "--seed", "1", "--simulator", sim]) == 2
    assert "n must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("sim", ["cmj", "contour"])
@pytest.mark.parametrize("start", ["1", "x"])
def test_typed_start_exits_2_for_cmj_and_contour(sim, start, capsys):
    # gamma starts every replicate at type 0, which dies at once; a typed
    # start of 1 would survive, so ignoring it reported Z_3 = 0 throughout
    doc = ('{"family": "finite", "K": [[0.0, 0.0], [0.0, 0.9]], '
           '"gamma": [1.0, 0.0], "m": 1.0}')
    argv = ["simulate", "--triplet", doc, "--n", "3", "--reps", "40",
            "--seed", "3", "--start", start]
    assert main(argv + ["--simulator", sim]) == 2
    err = capsys.readouterr().err
    assert f"--start {start}" in err and "Traceback" not in err


def test_quadrature_failure_exits_4_naming_estimate_and_tol(monkeypatch, capsys):
    from lfbp.errors import QuadratureError
    from lfbp.measures import MixtureMeasure

    def fail(self, g, breaks=()):
        raise QuadratureError(0.25, 3.5e-9, 1e-13)

    monkeypatch.setattr(MixtureMeasure, "integrate", fail)
    rc = main(["yaglom", "--triplet", EXP_CRIT, "--n", "5", "--reps", "50",
               "--seed", "1", "--w", "expr:np.minimum(y, 2)"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "estimate 3.500e-09 > tol 1.000e-13" in err
    assert "Traceback" not in err and err.count("\n") == 1


# each command takes --tol and --workers only when it reads them, and --format
# only with the formats it writes
@pytest.mark.parametrize("argv,flag", [
    (["classify", "--triplet", SCALAR_CRIT], ["--tol", "1e-3"]),
    (["classify", "--triplet", SCALAR_CRIT], ["--workers", "2"]),
    (["classify", "--triplet", SCALAR_CRIT], ["--format", "csv"]),
    (["phase-grid", "--m", "2", "--lambda-range", "1:2", "--mu-range", "1:2",
      "--grid", "2"], ["--tol", "1e-3"]),
    (["phase-grid", "--m", "2", "--lambda-range", "1:2", "--mu-range", "1:2",
      "--grid", "2"], ["--workers", "2"]),
    (["phase-grid", "--m", "2", "--lambda-range", "1:2", "--mu-range", "1:2",
      "--grid", "2"], ["--format", "json"]),
    (["survive", "--triplet", SCALAR_CRIT, "--n", "3"], ["--tol", "1e-3"]),
    (["survive", "--triplet", SCALAR_CRIT, "--n", "3"], ["--workers", "2"]),
    (["survive", "--triplet", SCALAR_CRIT, "--n", "3"], ["--format", "csv"]),
    (["distribution", "--triplet", SCALAR_CRIT, "--n", "3"], ["--tol", "1e-3"]),
    (["distribution", "--triplet", SCALAR_CRIT, "--n", "3"], ["--workers", "2"]),
    (["distribution", "--triplet", SCALAR_CRIT, "--n", "3"], ["--format", "csv"]),
    (["simulate", "--triplet", SCALAR_CRIT, "--n", "3", "--reps", "5",
      "--seed", "1"], ["--tol", "1e-3"]),
    (["simulate", "--triplet", SCALAR_CRIT, "--n", "3", "--reps", "5",
      "--seed", "1"], ["--format", "json"]),
    (["crosscheck", "--triplet", SCALAR_CRIT, "--n", "3", "--reps", "100",
      "--seed", "1"], ["--tol", "1e-3"]),
    (["limits", "--triplet", SCALAR_CRIT, "--grid", "10,20"], ["--format", "csv"]),
    (["yaglom", "--triplet", SCALAR_CRIT, "--n", "5", "--reps", "20",
      "--seed", "1"], ["--tol", "1e-9"]),
    (["yaglom", "--triplet", SCALAR_CRIT, "--n", "5", "--reps", "20",
      "--seed", "1"], ["--format", "csv"]),
    (["renewal", "--a", "0.5,0.5", "--b", "1", "--n", "10"], ["--workers", "2"]),
])
def test_flags_a_command_ignores_exit_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert flag[0] in err and out == ""


def test_limits_at_an_ancestor_outside_E_R_exits_2_naming_x(capsys):
    # state 0 reaches only its own class, Perron root 0.9 > rho = 1/R = 0.6,
    # so u(0) is infinite; state 1 is the one gamma sees
    doc = json.dumps({"family": "finite", "K": [[0.9, 0.0], [0.0, 0.3]],
                      "gamma": [0.0, 1.0], "m": 1.0})
    assert main(["limits", "--triplet", doc, "--x", "0"]) == 2
    out, err = capsys.readouterr()
    assert "--x 0: u(x) is infinite" in err and out == ""
    assert "Traceback" not in err
    assert main(["limits", "--triplet", doc, "--x", "1"]) == 0
    assert "Infinity" not in capsys.readouterr().out


@pytest.mark.parametrize("argv,named", [
    (["simulate", "--triplet", SCALAR_CRIT, "--n", "3", "--reps", "5",
      "--seed", "1", "--start", "x"], "--start x: must be an integer type index"),
    (["simulate", "--triplet", SCALAR_CRIT, "--n", "3", "--reps", "5",
      "--seed", "1", "--start", "4"], "--start 4: type point 4 is not an index"),
    (["survive", "--triplet", SCALAR_CRIT, "--n", "3", "--x", "x"],
     "--x x: must be an integer type index"),
    (["survive", "--triplet", EXP_CRIT, "--n", "3", "--x", "x"],
     "--x x: must be a real type point"),
    (["distribution", "--triplet", SCALAR_CRIT, "--n", "3", "--x", "x"],
     "--x x: must be an integer type index"),
    (["limits", "--triplet", SCALAR_CRIT, "--grid", "10,20", "--x", "x"],
     "--x x: must be an integer type index"),
])
def test_a_bad_type_point_exits_2_naming_its_flag(argv, named, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert named in err and out == ""
    assert "Traceback" not in err


PHASE = ["phase-grid", "--m", "2"]


@pytest.mark.parametrize("flags,named", [
    (["--lambda-range", "1:2", "--mu-range", "1:2", "--grid", "0"],
     "argument --grid: must be >= 1, got 0"),
    (["--lambda-range", "1:2", "--mu-range", "1:2", "--grid", "-2"],
     "argument --grid: must be >= 1, got -2"),
    (["--lambda-range", "3:0.25", "--mu-range", "1:2"],
     "--lambda-range 3:0.25: must have 0 < LO <= HI < inf"),
    (["--lambda-range", "1:2", "--mu-range", "0:2"],
     "--mu-range 0:2: must have 0 < LO <= HI < inf"),
    (["--lambda-range", "1:nan", "--mu-range", "1:2"],
     "--lambda-range 1:nan: must have 0 < LO <= HI < inf"),
    (["--lambda-range", "1:2", "--mu-range", "1"], "--mu-range 1: must be LO:HI"),
])
def test_phase_grid_input_exits_2_naming_the_flag(flags, named, capsys):
    try:
        rc = main(PHASE + flags)
    except SystemExit as exc:       # argparse rejected the flag
        rc = exc.code
    assert rc == 2
    out, err = capsys.readouterr()
    assert named in err and out == ""
    assert "Traceback" not in err
