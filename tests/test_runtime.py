"""What the command line loads at run time, and the deep exp-family paths."""

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

SCRIPT = f"""
import contextlib, io, json, sys
import lfbp.cli
lazy = [m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules]
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
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"lazy": [], "rcs": [0, 0], "mpmath": False}
