"""``main`` builds only the subparser its first argument names.

Whatever it prints (help, usage, errors) and whatever it exits with must be
what the full parser prints for the same command line.
"""

import contextlib
import io

import pytest

from lfbp import cli

SCALAR = '{"family": "scalar", "k": 0.5, "m": 1.0}'


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full(argv):
    return _outcome(cli._build_parser().parse_args, argv)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@pytest.mark.parametrize("tail", [
    ["-h"],                                  # help
    [],                                      # missing required flags
    ["--triplet", SCALAR, "--bogus", "1"],   # top-level unrecognized arguments
])
def test_one_command_parser_prints_what_the_full_parser_prints(command, tail):
    argv = [command] + tail
    full = _full(argv)
    assert full[0] in (0, 2) and full[1] + full[2]
    assert _outcome(cli.main, argv) == full


@pytest.mark.parametrize("argv", [["-h"], ["--version"], ["bogus"], ["surv"],
                                  []])
def test_non_commands_get_the_full_parser(argv):
    assert _outcome(cli.main, argv) == _full(argv)


def test_main_builds_only_the_named_command(monkeypatch, capsys):
    built = []
    real = cli._build_parser

    def spy(command=None):
        built.append(command)
        return real(command)
    monkeypatch.setattr(cli, "_build_parser", spy)
    assert cli.main(["survive", "--triplet", SCALAR, "--n", "3"]) == 0
    assert '"survival": 0.25' in capsys.readouterr().out
    assert built == ["survive"]
