"""What the command line loads at start-up and at run time, and the deep
exp-family paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lfbp

SRC = str(Path(lfbp.__file__).resolve().parent.parent)

FOUND_YAGLOM = ["yaglom", "--triplet",
                '{"family": "exp", "lambda": 1.2, "mu": 0.7, "m": 1.6595995495146982}',
                "--n", "20", "--reps", "300", "--seed", "41",
                "--w", "expr:np.minimum(y, 2)"]

SCALAR = '{"family": "scalar", "k": 0.5, "m": 1.0}'
FINITE = '{"family": "finite", "K": [[0.2, 0.3], [0.1, 0.4]], "gamma": [0.5, 0.5], "m": 1.2}'
EXP = '{"family": "exp", "lambda": 1.3, "mu": 0.7, "m": 0.5}'
# commands that need neither scipy nor a process pool
LEAN = [["classify", "--triplet", FINITE], ["classify", "--triplet", EXP],
        ["survive", "--triplet", SCALAR, "--n", "50"],
        ["survive", "--triplet", EXP, "--n", "50"],
        ["renewal", "--a", "0.5,0.5", "--b", "1", "--n", "20"],
        ["distribution", "--triplet", FINITE, "--n", "5"],
        ["limits", "--triplet", SCALAR, "--grid", "10,20"],
        ["limits", "--triplet", EXP, "--grid", "6,12"],
        *(["simulate", "--triplet", t, "--n", "5", "--reps", "200", "--seed", "1",
           "--simulator", sim] for t in (SCALAR, FINITE, EXP)
          for sim in ("bgw", "cmj", "contour"))]
CROSSCHECK = ["crosscheck", "--triplet", SCALAR, "--n", "6", "--reps", "400", "--seed", "1"]

SCRIPT = f"""
import contextlib, io, json, sys
import lfbp.cli
lazy = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.startswith("concurrent.futures"))
lean = {{"import": heavy()}}
with contextlib.redirect_stdout(io.StringIO()):
    lean["rcs"] = [lfbp.cli.main(argv) for argv in {LEAN!r}]
    lean["after"] = heavy()
    lean["crosscheck"] = lfbp.cli.main({CROSSCHECK!r})
lean["special"] = "scipy.special" in sys.modules
print(json.dumps(lean))
rcs = []
with contextlib.redirect_stdout(io.StringIO()):
    rcs.append(lfbp.cli.main(["distribution", "--triplet",
        '{{"family": "exp", "lambda": 1.3, "mu": 0.7, "m": 0.5}}', "--n", "6"]))
    rcs.append(lfbp.cli.main({FOUND_YAGLOM!r}))
print(json.dumps({{"lazy": lazy, "rcs": rcs, "mpmath": "mpmath" in sys.modules}}))
"""


def test_cli_runs_without_mpmath_and_defers_scipy_integrate():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    lean_json, got_json = out.stdout.strip().splitlines()[-2:]
    got = json.loads(got_json)
    assert got == {"lazy": [], "rcs": [0, 0], "mpmath": False}
    # start-up loads numpy and lfbp only, and so do the commands that never
    # call scipy.special or a process pool; a later crosscheck still loads it
    lean = json.loads(lean_json)
    assert lean == {"import": [], "rcs": [0] * len(LEAN), "after": [],
                    "crosscheck": 0, "special": True}


def test_import_skips_the_version_lookup_and_hashlib():
    # __version__ is a literal, and only a finite echo needs a digest
    out = subprocess.run([sys.executable, "-c", "import sys, lfbp.cli; print(sorted("
                          "m for m in ('importlib.metadata', 'hashlib') if m in sys.modules))"],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"
