"""The command-line front end, called in-process through main(argv)."""

import csv
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from slopeflow.bundle_geometry import BundleParams
from slopeflow.calabi_profiles import special_cotangent_profile
from slopeflow.cli import main
from slopeflow.energy_functionals import (
    dhym_volume,
    dhym_volume_split,
    energy_infimum,
    futaki_invariant,
    l2_slope_deviation,
    minimizing_profile,
    pl_limit_hamiltonian,
)
from slopeflow.errors import MonitorViolationError
from slopeflow.flow_engine import COMPACT_MARGIN
from slopeflow.surface_lattice import DivisorClass, load_surface_model
from slopeflow.surface_slopes import UNSTABLE, j_slope_certificate

FLOW_ARGS = ["--grid", "64", "--dt", "0.05"]


@pytest.fixture
def blowup(tmp_path):
    """The plane blown up in one point, basis (H, -E), as a surface config file."""
    path = tmp_path / "blowup.ini"
    path.write_text("[surface]\nbasis = H, -E\nform = 1, 0; 0, -1\ncurves = 0, -1; 1, 1; 1, 0\nkahler = 3, 1\n")
    return str(path)


def _as_json(payload: dict) -> dict:
    return json.loads(json.dumps(payload))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _last_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    t_last = rows[-1]["t"]
    last = [r for r in rows if r["t"] == t_last]
    return np.array([float(r["x"]) for r in last]), np.array([float(r["diagnostic"]) for r in last])


@pytest.mark.parametrize(
    "argv,window",
    [
        (["flow", "j", "--params", "0,1,1,2"], (0.0 + COMPACT_MARGIN, 1.0 - COMPACT_MARGIN)),
        (["flow", "cotangent", "--bpq", "2,3,1"], (1.0 + COMPACT_MARGIN, 2.0 - COMPACT_MARGIN)),
    ],
)
def test_flow_converges_and_csv_matches_plateau(capsys, tmp_path, argv, window):
    code, out = _run(capsys, argv + FLOW_ARGS + ["--out", str(tmp_path)])
    assert code == 0
    assert '"converged": true' in out
    summary = json.loads(out)
    assert summary == json.loads((tmp_path / "summary.json").read_text())
    # the plateau is the mean cell flux; the CSV's nodal field is O(h^2) off
    x, diag = _last_checkpoint(tmp_path / "trace.csv")
    sel = (x >= window[0]) & (x <= window[1])
    h, ref = summary["meta"]["h"], summary["reference_constant"]
    assert abs(np.mean(diag[sel]) - ref) <= 2 * h * h
    assert abs(summary["terminal_constant"] - ref) <= 1e-7


def test_bundle_slopes_exit_codes(capsys):
    code, out = _run(capsys, ["bundle", "slopes", "--params", "0,1,4,1"])
    assert code == 0
    assert json.loads(out)["verdict"] == UNSTABLE
    code, _ = _run(capsys, ["bundle", "slopes", "--params", "1,2"])
    assert code == 1


def test_bundle_slopes_near_semistable_exits_0(capsys):
    """n = 1, m = 2, a = 2 and b just below 1/3, where mu0 = n."""
    code, out = _run(capsys, ["bundle", "slopes", "--params", f"2,1,2,{F(1, 3) * (1 - F(1, 2**16))}"])
    assert code == 0
    assert json.loads(out)["verdict"] == UNSTABLE


def test_run_config_drives_a_flow(capsys, tmp_path):
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(
        "[experiment]\n"
        "command = flow j\n"
        "[geometry]\n"
        "params = 0,1,1,2\n"
        "[solver]\n"
        "grid = 64\n"
        "dt = 0.05\n"
    )
    code, out = _run(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    assert '"converged": true' in out


def test_flow_without_step_flags_takes_implicit_steps(capsys):
    code, out = _run(capsys, ["flow", "j", "--params", "0,1,1,2", "--grid", "64"])
    assert code == 0
    summary = json.loads(out)
    assert summary["converged"] and summary["meta"]["dt"] == 0.05


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "j", "--params", "0,1,1,2", "--bogus"],
        ["flow", "j", "--params", "0,1,1,2", "--cfl", "0.5"],
        ["flow", "cotangent", "--bpq", "2,3,1", "--dt-policy", "explicit"],
        ["flow", "j", "--grid", "64"],
        ["flow", "j", "--params", "0,1,1,2", "--grid", "sixty-four"],
    ],
)
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("flag", ["--dt", "--t-max", "--checkpoint-interval", "--grid"])
def test_zero_step_setting_exits_1(capsys, flag):
    """A zero step setting is passed on and rejected, not replaced by its default."""
    argv = ["flow", "j", "--params", "0,1,1,2", "--grid", "64", flag, "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("command", [["flow", "cotangent"] + FLOW_ARGS, ["energy", "dhym-volume"]])
@pytest.mark.parametrize("bpq", ["2,3", "2,3,0,1", "2,x,0", "2,3,1/0", ""])
def test_malformed_bpq_exits_1(capsys, command, bpq):
    assert main(command + ["--bpq", bpq]) == 1
    assert capsys.readouterr().err == "input error: expected b,p,q\n"


@pytest.mark.parametrize(
    "command",
    [["bundle", "slopes"], ["energy", "futaki"], ["energy", "infimum"], ["flow", "j", "--grid", "64"]],
)
@pytest.mark.parametrize("params", ["0,1,4,1/0", "0,1,4,1,0/0", "0,x,4,1", "0,1,4", "0,1,4,1,1,1"])
def test_malformed_params_exits_1(capsys, command, params):
    assert main(command + ["--params", params]) == 1
    assert capsys.readouterr().err == "input error: expected m,n,a,b[,d]\n"


@pytest.mark.parametrize("grid", ["-5", "0", "1"])
def test_dhym_volume_grid_below_2_exits_1(capsys, grid):
    assert main(["energy", "dhym-volume", "--bpq", "2,3,0", "--grid", grid]) == 1
    assert capsys.readouterr().err == "input error: dhym-volume needs --grid >= 2\n"


def test_run_config_with_a_removed_option_exits_1(capsys, tmp_path):
    cfg = tmp_path / "experiment.ini"
    cfg.write_text("[experiment]\ncommand = flow j\n[geometry]\nparams = 0,1,1,2\n[solver]\ndt_policy = explicit\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "unrecognized arguments: --dt-policy explicit" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["flow", "j", "--help"])
    assert exc.value.code == 0
    assert "--dt" in capsys.readouterr().out


def test_run_config_reader_conventions(capsys, tmp_path):
    # a top-level command before any section, mixed-case keys and sections,
    # inline comments and a duplicate key whose last value wins
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(
        "Command = bundle slopes  # dispatched verbatim\n"
        "[Geometry]\n"
        "params = 1,2\n"
        "PARAMS = 0,1,4,1\n"
    )
    code, out = _run(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["verdict"] == UNSTABLE


def test_run_config_that_runs_a_config_exits_1(capsys, tmp_path):
    cfg = tmp_path / "self.ini"
    cfg.write_text(f"[experiment]\ncommand = run --config {cfg}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "cannot run another config" in capsys.readouterr().err


def test_main_calls_in_a_row_parse_independently(capsys, tmp_path):
    """The parser is built once and shared; no argument of one call leaks
    into the next."""
    out_dir = tmp_path / "out"
    code, first = _run(capsys, ["bundle", "slopes", "--params", "0,1,4,1", "--out", str(out_dir)])
    assert code == 0 and (out_dir / "bundle_slopes.json").exists()
    (out_dir / "bundle_slopes.json").unlink()
    code, second = _run(capsys, ["bundle", "slopes", "--params", "0,1,3,1"])
    assert code == 0 and not (out_dir / "bundle_slopes.json").exists()
    assert json.loads(first)["lambda"] != json.loads(second)["lambda"]
    code, third = _run(capsys, ["bundle", "slopes", "--params", "0,1,4,1"])
    assert code == 0 and third == first


def test_run_config_malformed_exits_1(capsys, tmp_path):
    cfg = tmp_path / "experiment.ini"
    cfg.write_text("[experiment]\ncommand = bundle slopes\nparams 0,1,4,1\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "malformed config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,offender",
    [
        (
            "[experiment]\ncommand = flow j\n[geometry]\nparams = 0,1,1,2\n[solvr]\ngrid = 64\ndt = 0\n",
            "unknown section [solvr]",
        ),
        ("[experiment]\ncommand = bundle slopes\nparams = 0,1,4,1\n", "unknown key 'params' in [experiment]"),
    ],
    ids=["section", "key"],
)
def test_run_config_with_an_unknown_section_or_key_exits_1(capsys, tmp_path, text, offender):
    """A misspelled section or a stray [experiment] key is reported, not
    dropped: the flow above would otherwise run at the default grid."""
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg)]) == 1
    assert offender in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "futaki", "--params", "0,1,4,1", "--breakpoints", count]
        for count in ("-5", "0", "3")
    ]
    + [
        ["energy", "minimizing-seq", "--params", "0,1,4,1"] + flags
        for flags in (["--k-step", "0"], ["--k-step", "-4"], ["--k", "2", "--k-min", "4"])
    ],
)
def test_energy_counts_it_cannot_honour_exit_1(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("input error: ")


def test_energy_infimum_exits_0(capsys):
    code, out = _run(capsys, ["energy", "infimum", "--params", "0,1,4,1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["value"] == pytest.approx(rep["interior"] + rep["bubble"], rel=1e-12)


def test_slope_dhym_exits_0(capsys, blowup):
    code, out = _run(capsys, ["slope", "dhym", "--surface", blowup, "--alpha", "3,-1/2", "--beta", "2,1"])
    assert code == 0
    cert = json.loads(out)
    # the unstable blow-up pair (b, p) = (2, 3) has slope bp - sqrt((p^2+1)(b^2-1))
    assert cert["verdict"] == UNSTABLE
    assert cert["slope"] == pytest.approx(6 - math.sqrt(30), abs=1e-15)


@pytest.mark.parametrize(
    "line",
    ["kahler =", "form = 1, 0; 0, 1/0", "form = 1, 0; 0, minus one", "kahler = 3, 1; 2, 1"],
)
def test_slope_with_a_bad_surface_config_exits_1(capsys, tmp_path, line):
    """A missing row, a zero denominator or a bad number is an input error."""
    key = line.split()[0]
    lines = ["[surface]", "basis = H, -E", "form = 1, 0; 0, -1", "curves = 0, -1; 1, 1; 1, 0", "kahler = 3, 1"]
    path = tmp_path / "bad.ini"
    path.write_text("\n".join([line if row.startswith(key) else row for row in lines]) + "\n")
    assert main(["slope", "dhym", "--surface", str(path), "--alpha", "2,1", "--beta", "2,1"]) == 1
    assert capsys.readouterr().err.startswith("input error: ")


def test_slope_j_matches_library(capsys, blowup):
    code, out = _run(capsys, ["slope", "j", "--surface", blowup, "--alpha", "2,3/10", "--beta", "3,1"])
    assert code == 0
    cert = j_slope_certificate(DivisorClass.parse("2,3/10"), DivisorClass.parse("3,1"), load_surface_model(blowup))
    assert cert.verdict == UNSTABLE
    assert json.loads(out) == _as_json(cert.to_dict())


def test_energy_futaki_matches_library(capsys):
    code, out = _run(capsys, ["energy", "futaki", "--params", "0,1,4,1", "--breakpoints", "16"])
    assert code == 0
    params = BundleParams(n=1, m=0, a=4, b=1)
    rep = futaki_invariant(pl_limit_hamiltonian(params, 16), params).to_dict()
    rep["l2_slope_deviation"] = l2_slope_deviation(params)
    assert json.loads(out) == _as_json(rep)


def test_energy_minimizing_seq_matches_library(capsys):
    code, out = _run(capsys, ["energy", "minimizing-seq", "--params", "0,1,4,1", "--k-min", "4", "--k", "8"])
    assert code == 0
    rep = json.loads(out)
    params = BundleParams(n=1, m=0, a=4, b=1)
    ref = energy_infimum(params).value
    assert rep["reference"] == ref
    assert [row["k"] for row in rep["sequence"]] == [4, 8]
    for row in rep["sequence"]:
        assert row["energy"] == minimizing_profile(params, row["k"])[1]
        assert abs(row["signed_error"]) == row["rel_error"]
        assert math.copysign(1.0, row["signed_error"]) == math.copysign(1.0, row["energy"] - ref)


def test_energy_dhym_volume_matches_library(capsys):
    code, out = _run(capsys, ["energy", "dhym-volume", "--bpq", "2,3,0", "--profile", "special", "--grid", "128"])
    assert code == 0
    b, p, q = F(2), F(3), F(0)
    rep = dhym_volume(special_cotangent_profile(b, p, q, 129), b, p, q).to_dict()
    rep["split"] = dhym_volume_split(b, p, q).to_dict()
    assert json.loads(out) == _as_json(rep)


def test_verify_identities_exits_0(capsys):
    code, out = _run(capsys, ["verify", "identities"])
    assert code == 0
    assert all(check["passed"] for check in json.loads(out)["checks"])


def test_monitor_violation_exits_2(capsys, monkeypatch):
    def violate(*args, **kwargs):
        raise MonitorViolationError("J-admissibility lost at t=1")

    monkeypatch.setattr("slopeflow.cli.run_j_flow", violate)
    assert main(["flow", "j", "--params", "0,1,1,2"] + FLOW_ARGS) == 2
    assert "J-admissibility lost" in capsys.readouterr().err
