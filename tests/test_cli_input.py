"""Malformed CLI input exits 2 and names what is wrong."""

import json

import pytest

from lfbp.cli import main

SCALAR_CRIT = json.dumps({"family": "scalar", "k": 0.5, "m": 1.0})


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
