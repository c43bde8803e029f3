"""End-to-end CLI behavior through main(argv), no subprocesses."""

import hashlib
import json
import math

import numpy as np
import pytest

from lfbp import __version__, simulate, stats
from lfbp.cli import JSON_SCHEMA, main
from lfbp.stats import conditioned_scaled_sample
from lfbp.typespace import triplet_from_dict

EXP_TRIPLET = '{"family":"exp","lambda":1.0,"mu":1.0,"m":2.0}'
SCALAR_CRIT = '{"family":"scalar","k":0.5,"m":1.0}'
SCALAR_SUB = '{"family":"scalar","k":0.4,"m":1.0}'


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


# -- classify -----------------------------------------------------------------


def test_classify_exp_oracle(capsys):
    rep = run_json(capsys, ["classify", "--triplet", EXP_TRIPLET])
    assert rep["criticality"] == "supercritical"
    assert rep["recurrence"] == "R-positive"
    assert abs(rep["R"] - 0.7626885608503393) < 1e-12
    assert abs(rep["alpha"] + math.log(0.7626885608503393)) < 1e-12
    assert abs(rep["beta"] - 1.288065682551018) < 1e-9
    assert abs(rep["m_f1"] - 2.0 * (math.e - 2.0)) < 1e-12
    assert abs(rep["mean_life"] - (math.e - 1.0)) < 1e-12
    cfg = rep["config"]
    assert cfg["command"] == "classify"
    assert cfg["version"] == __version__
    assert cfg["triplet"]["family"] == "exp"


def test_classify_scalar_sugar(capsys):
    rep = run_json(capsys, ["classify", "--triplet", SCALAR_CRIT])
    assert rep["criticality"] == "critical"
    assert abs(rep["alpha"]) < 1e-12
    rep = run_json(capsys, ["classify", "--triplet", SCALAR_SUB])
    assert abs(rep["R"] - 1.25) < 1e-12
    assert rep["config"]["triplet"]["family"] == "finite"


def test_classify_triplet_from_file(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(EXP_TRIPLET)
    rep = run_json(capsys, ["classify", "--triplet", str(p)])
    assert rep["criticality"] == "supercritical"


# -- report echoes --------------------------------------------------------------

FINITE_DOC = ('{"family": "finite", "K": [[0.2, 0.3], [0.4, 0.1]], '
              '"gamma": [0.5, 0.5], "m": 1.5}')


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def test_schema_strings(capsys):
    assert JSON_SCHEMA == "lfbp.report/2"
    assert stats.REPORT_SCHEMA == "lfbp.limit-report/2"
    assert run_json(capsys, ["classify", "--triplet", SCALAR_SUB])["schema"] == JSON_SCHEMA


def test_inline_finite_document_echoes_its_digest(capsys):
    rep = run_json(capsys, ["classify", "--triplet", FINITE_DOC])
    assert rep["config"]["triplet"] == {"family": "finite", "d": 2, "m": 1.5,
                                        "sha256": _digest(FINITE_DOC.encode())}


def test_finite_file_digest_covers_its_bytes_as_read(tmp_path, capsys):
    # CRLF line endings: a text-mode read would digest LF bytes instead
    p = tmp_path / "t.json"
    p.write_bytes(b'{"family": "finite",\r\n "K": [[0.2, 0.3], [0.4, 0.1]],\r\n'
                  b' "gamma": [0.5, 0.5], "m": 1.5}\r\n')
    rep = run_json(capsys, ["survive", "--triplet", str(p), "--n", "4"])
    assert rep["config"]["triplet"]["sha256"] == _digest(p.read_bytes())


def test_scalar_and_exp_echoes_are_whole(capsys):
    rep = run_json(capsys, ["classify", "--triplet", SCALAR_CRIT])
    assert rep["config"]["triplet"] == {"family": "finite", "K": [[0.5]],
                                        "gamma": [1.0], "m": 1.0}
    rep = run_json(capsys, ["classify", "--triplet", EXP_TRIPLET])
    assert rep["config"]["triplet"] == {"family": "exp", "lambda": 1.0,
                                        "mu": 1.0, "m": 2.0}


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "3", "--reps", "5", "--seed", "1"],
    ["crosscheck", "--n", "3", "--reps", "200", "--seed", "1", "--format", "csv"]])
def test_csv_config_line_echoes_the_finite_digest(argv, capsys):
    assert main(argv + ["--triplet", FINITE_DOC]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("# config ")
    cfg = json.loads(first[len("# config "):])
    assert cfg["triplet"] == {"family": "finite", "d": 2, "m": 1.5,
                              "sha256": _digest(FINITE_DOC.encode())}


def test_a_64_type_report_stays_small(capsys):
    rng = np.random.default_rng(64)
    K = rng.random((64, 64))
    K *= 0.9 / K.sum(axis=1, keepdims=True)
    doc = json.dumps({"family": "finite", "K": K.tolist(),
                      "gamma": (np.ones(64) / 64).tolist(), "m": 0.5})
    assert main(["classify", "--triplet", doc]) == 0
    out = capsys.readouterr().out
    assert len(doc) > 70_000 and len(out.encode()) < 1024
    assert json.loads(out)["config"]["triplet"]["d"] == 64


# -- exact laws -----------------------------------------------------------------


def test_survive_critical_scalar(capsys):
    rep = run_json(capsys, ["survive", "--triplet", SCALAR_CRIT, "--n", "10"])
    assert abs(rep["survival"] - 1.0 / 11.0) < 1e-12
    assert f'{rep["survival"]:.6f}' == "0.090909"
    assert rep["x"] == 0 and rep["n"] == 10


@pytest.mark.parametrize("lam,m,n", [(1000, 1e308, 300), (30, 1e300, 200)])
def test_long_lived_exp_survival_at_huge_m(lam, m, n, capsys):
    doc = json.dumps({"family": "exp", "lambda": lam, "mu": lam, "m": m})
    rep = run_json(capsys, ["survive", "--triplet", doc, "--n", str(n)])
    assert abs(rep["survival"] - math.exp(-1.0)) < 1e-15


def test_huge_m_survives_and_overflowing_distribution_exits_2(capsys):
    doc = '{"family": "scalar", "k": 0.5, "m": 1e300}'
    rep = run_json(capsys, ["survive", "--triplet", doc, "--n", "5"])
    assert 0.0 < rep["survival"] < 1.0
    rc = main(["distribution", "--triplet", doc, "--n", "5"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "m = 1e+300, n = 5" in captured.err


def test_distribution_report(capsys):
    rep = run_json(capsys, ["distribution", "--triplet", EXP_TRIPLET,
                            "--n", "3", "--x", "1.0"])
    assert len(rep["pmf_head"]) == 6
    assert abs(rep["pmf_head"][0] - (1.0 - rep["survival"])) < 1e-12
    assert rep["m_n"] > 0
    assert "functionals" in rep


# -- simulation ---------------------------------------------------------------------


def test_simulate_csv_worker_byte_identity(tmp_path, capsys):
    f1, f4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = ["simulate", "--triplet", SCALAR_CRIT, "--n", "4", "--reps", "64",
            "--seed", "7"]
    assert main(base + ["--workers", "1", "--out", str(f1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(f4)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f4.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "replicate,n,zn,survived"
    assert len(lines) == 2 + 64
    cfg = json.loads(lines[0][len("# config "):])
    assert "workers" not in cfg      # worker count never changes results
    assert cfg["seed"] == 7
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "4"


@pytest.mark.parametrize("sim", ["bgw", "cmj", "contour"])
def test_simulate_config_echoes_the_bgw_block(sim, capsys):
    # every simulator draws block b from stream (seed, b)
    assert main(["simulate", "--triplet", SCALAR_CRIT, "--n", "2", "--reps",
                 "3", "--seed", "7", "--simulator", sim]) == 0
    cfg = json.loads(capsys.readouterr().out.splitlines()[0][len("# config "):])
    assert cfg["block"] == simulate.BLOCK == 1024


def test_crosscheck_diagonal_and_agreement(capsys):
    rep = run_json(capsys, ["crosscheck", "--triplet", SCALAR_CRIT,
                            "--n", "3", "--reps", "2000", "--seed", "5"])
    assert rep["simulators"] == ["bgw", "cmj", "contour"]
    p = rep["p_value"]
    for i in range(3):
        assert p[i][i] == 1.0
        for j in range(3):
            assert p[i][j] == p[j][i]
    assert rep["min_p"] > 0.01
    assert all(v == 0 for v in rep["discarded"].values())


# -- verifiers ------------------------------------------------------------------------


def test_limits_report_schema(capsys):
    rep = run_json(capsys, ["limits", "--triplet", SCALAR_SUB])
    assert rep["schema"] == "lfbp.limit-report/2"
    assert rep["regime"] == "subcritical"
    assert all(t["passed"] in (True, None) for t in rep["tests"])
    assert rep["config"]["command"] == "limits"


def test_limits_with_mc(capsys):
    rep = run_json(capsys, ["limits", "--triplet", SCALAR_CRIT,
                            "--grid", "10,20", "--reps", "5000",
                            "--seed", "3"])
    kinds = [t["kind"] for t in rep["tests"]]
    assert "mc" in kinds


def test_yaglom_insufficient_power(capsys):
    rep = run_json(capsys, ["yaglom", "--triplet", SCALAR_CRIT, "--n", "60",
                            "--reps", "2000", "--seed", "1"])
    assert rep["verdict"] == "insufficient power"
    assert rep["conditioned"] < 500
    assert abs(rep["mean"]["derived"] - 1.0) < 1e-9  # (1+m)/beta


def test_yaglom_powered_verdict(capsys):
    rep = run_json(capsys, ["yaglom", "--triplet", SCALAR_CRIT, "--n", "30",
                            "--reps", "20000", "--seed", "2",
                            "--workers", "4"])
    assert rep["verdict"] == "pass"
    assert rep["p_value"] > 0.01
    assert abs(rep["mean"]["measured"] - 1.0) < 3.5 * rep["se"] + 0.1


CRIT_2TYPE = json.dumps({"family": "finite", "K": [[0.2, 0.3], [0.1, 0.4]],
                         "gamma": [0.5, 0.5], "m": 1.0})      # f(1) = 1


def test_yaglom_conditions_on_survival(capsys):
    # some survivors hold no type-1 particle; they stay in the sample
    runs = {w: run_json(capsys, ["yaglom", "--triplet", CRIT_2TYPE, "--n", "10",
                                 "--reps", "2000", "--seed", "4", "--w", w])
            for w in ("const", "indicator:1,1")}
    assert runs["const"]["conditioned"] == runs["indicator:1,1"]["conditioned"]
    t = triplet_from_dict(json.loads(CRIT_2TYPE))
    zeros = conditioned_scaled_sample(t, 1.0, 10, 10, 2000, 4, "indicator:1,1")
    assert (zeros == 0.0).any()


@pytest.mark.parametrize("w", ["const:0", "const:-1", "indicator:5,6"])
def test_yaglom_rejects_probe_with_no_nu_mass(w, capsys):
    rc = main(["yaglom", "--triplet", SCALAR_CRIT, "--n", "5", "--reps", "600",
               "--seed", "1", "--w", w])
    assert rc == 2
    assert f"--w {w}" in capsys.readouterr().err


def test_yaglom_rejects_noncritical(capsys):
    rc = main(["yaglom", "--triplet", SCALAR_SUB, "--n", "5",
               "--reps", "100", "--seed", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "critical" in err


SCALAR_SUPER = '{"family":"scalar","k":0.75,"m":1.0}'
# report row names are part of the output format: consumers match on them
CRIT_EXACT = ["n * survival matches derived constant",
              "n * survival refutes printed constant", "m_n / n -> (1+m)/beta"]
SUPER_EXACT = ["survival limit matches derived constant",
               "survival limit refutes printed constant",
               "rho^-n m_n -> (1+m)/(beta (rho-1))"]


@pytest.mark.parametrize("triplet,flags,tests,constants,rows", [
    (SCALAR_SUB, ["--grid", "10,20,30"],
     ["rho^-n survival -> (1-mf(1)) u / ((1+m) beta)",
      "m_n -> m(1+f(1))/(1-mf(1))", "limit kernel has mass one",
      "conditional functional at const:0.6"],
     ["survival_scale", "limit_mean", "conditional:const:0.6"],
     ["n_survival_scaled", "m_n", "conditional:const:0.6"]),
    (SCALAR_CRIT, ["--grid", "2,4", "--reps", "4000", "--seed", "3"],
     CRIT_EXACT + ["yaglom scaled mean (3 se)",
                   "yaglom mean refutes printed 1+m",
                   "yaglom KS vs Exp(derived mean), p > 0.01"],
     ["n_survival", "mean_slope", "yaglom_mean"], ["n_survival", "m_n_over_n"]),
    (SCALAR_CRIT, ["--grid", "5,10", "--reps", "300", "--seed", "3"],
     CRIT_EXACT + ["yaglom scaled mean"],
     ["n_survival", "mean_slope", "yaglom_mean"], ["n_survival", "m_n_over_n"]),
    (SCALAR_SUPER, ["--grid", "4,8", "--reps", "2000", "--seed", "11"],
     SUPER_EXACT + ["tail rate matches derived (4 se)",
                    "tail KS vs fitted exponential, p > 0.01"],
     ["survival", "mn_scaled", "tail_rate"], ["survival", "mn_scaled"]),
    (SCALAR_SUPER, ["--grid", "4,8", "--reps", "300", "--seed", "11"],
     SUPER_EXACT + ["tail rate"],
     ["survival", "mn_scaled", "tail_rate"], ["survival", "mn_scaled"]),
])
def test_limits_report_shape(triplet, flags, tests, constants, rows, capsys):
    rep = run_json(capsys, ["limits", "--triplet", triplet] + flags)
    assert [t["name"] for t in rep["tests"]] == tests
    assert list(rep["constants"]) == constants
    assert list(rep["rows"]) == rows
    assert list(rep["converged"]) == rows


def test_limits_classifies_once(monkeypatch, capsys):
    from lfbp import spectral, stats
    calls = []

    def counting(t, real=spectral.classify):
        calls.append(t)
        return real(t)
    monkeypatch.setattr(spectral, "classify", counting)
    monkeypatch.setattr(stats, "classify", counting)
    run_json(capsys, ["limits", "--triplet", SCALAR_CRIT, "--grid", "5,10",
                      "--reps", "300", "--seed", "1"])
    assert len(calls) == 1


@pytest.mark.parametrize("n,reps", [(4, 4000), (10, 1000)])
def test_yaglom_verdict_is_the_limits_yaglom_rows(n, reps, capsys):
    flags = ["--reps", str(reps), "--seed", "6", "--w", "const:2"]
    yag = run_json(capsys, ["yaglom", "--triplet", SCALAR_CRIT, "--n", str(n)]
                   + flags)
    lim = run_json(capsys, ["limits", "--triplet", SCALAR_CRIT, "--grid",
                            f"{n // 2},{n}"] + flags)
    assert yag["mean"]["measured"] == lim["constants"]["yaglom_mean"]["measured"]
    rows = [t for t in lim["tests"] if t["name"].startswith("yaglom")]
    if yag["verdict"] == "insufficient power":
        assert [t["passed"] for t in rows] == [None]
        return
    mean_row, ks_row = rows[0], rows[-1]
    assert yag["se"] == mean_row["se"]
    assert yag["p_value"] == ks_row["value"]
    assert yag["verdict"] == ("pass" if mean_row["passed"] and ks_row["passed"]
                              else "fail")


# -- renewal ---------------------------------------------------------------------------


def test_renewal_fair_coin(capsys):
    rep = run_json(capsys, ["renewal", "--a", "0.5,0.5", "--b", "1",
                            "--n", "200"])
    assert abs(rep["limit"] - 2.0 / 3.0) < 1e-12
    assert abs(rep["c_tail"][-1] - 2.0 / 3.0) < 1e-3
    assert rep["converged"] and rep["period"] == 1


def test_renewal_csv(capsys):
    rc = main(["renewal", "--a", "0.5,0.5", "--b", "1", "--n", "10",
               "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "k,c_k"
    assert len(lines) == 2 + 11
    assert lines[2] == "0,1"


def test_renewal_periodic_flag(capsys):
    rc = main(["renewal", "--a", "0,1", "--b", "1", "--n", "100"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ("lfbp renewal: warning: renewal support has period 2; c_n "
                   "oscillates and the mean limit only holds along subsequences\n")
    rep = json.loads(out)
    assert rep["period"] == 2 and not rep["converged"]


# -- phase grid ---------------------------------------------------------------------------


def test_phase_grid_small(capsys):
    rc = main(["phase-grid", "--m", "2", "--lambda-range", "0.5:2.0",
               "--mu-range", "0.5:2.0", "--grid", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "lam,mu,alpha,beta,mean_life,criticality"
    assert len(lines) == 2 + 25
    cells = lines[2].split(",")
    assert len(cells) == 6
    assert cells[-1] in ("subcritical", "critical", "supercritical")
    # decimal points, not commas, in numeric cells
    assert "." in cells[0]


# -- errors and version ------------------------------------------------------------------


def test_bad_triplet_exits_2(capsys):
    rc = main(["classify", "--triplet", '{"family":"finite","K":[[0.9,0.9]],'
               '"gamma":[1.0],"m":1.0}'])
    err = capsys.readouterr().err
    assert rc == 2 and "error" in err


def test_unresolvable_root_exits_2_naming_m(capsys):
    # R lies within float64 rounding of R_* = 1/rho(K), so m f(R) = 1 has no
    # float64 solution
    rc = main(["classify", "--triplet", '{"family":"finite","K":[[0.5,0.2],[0.1,0.3]],'
               '"gamma":[1.0,0.0],"m":1e-20}'])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "m = 1e-20" in captured.err


def test_missing_triplet_file_exits_2(capsys, tmp_path):
    rc = main(["classify", "--triplet", str(tmp_path / "nope.json")])
    assert rc == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_limits_on_an_exp_triplet_with_tiny_m(capsys):
    # R is near 50 here; building gamma K^(R) once raised OverflowError
    rep = run_json(capsys, ["limits", "--triplet", '{"family": "exp", "lambda": 1.0, '
                            '"mu": 1.0, "m": 1e-20}', "--grid", "10,20"])
    assert rep["regime"] == "subcritical"
    text = json.dumps(rep)
    assert "NaN" not in text and "Infinity" not in text
