"""The command-line front end, called in-process through main(argv)."""

import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import slopeflow
from slopeflow import bundle_geometry, cli
from slopeflow.bundle_geometry import BundleParams
from slopeflow.calabi_profiles import MomentProfile, pointwise_angle, pointwise_slope, special_cotangent_profile
from slopeflow.cli import main
from slopeflow.energy_functionals import (
    dhym_volume,
    dhym_volume_split,
    energy_infimum,
    futaki_invariant,
    l2_slope_deviation,
    minimizing_sequence,
    pl_limit_hamiltonian,
)
from slopeflow.errors import MonitorViolationError
from slopeflow.flow_engine import COMPACT_MARGIN, DT_CAP
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
    with open(tmp_path / "checkpoints.csv", encoding="utf-8") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert float(last["plateau"]) == summary["terminal_constant"]
    assert float(last["t"]) == summary["t_final"]
    rows = np.load(tmp_path / "profiles.npy")
    assert rows.shape == (summary["steps"] + 1, 65)
    # the plateau is the mean cell flux; the nodal field of the saved last
    # row is O(h^2) off
    final = MomentProfile(np.load(tmp_path / "grid.npy"), rows[-1], (rows[-1, 0], rows[-1, -1]))
    if summary["kind"] == "j":
        diag = pointwise_slope(final, BundleParams.parse(argv[3]))
    else:
        diag = 1 / np.tan(pointwise_angle(final))
    sel = (final.grid >= window[0]) & (final.grid <= window[1])
    h, ref = summary["meta"]["h"], summary["reference_constant"]
    assert abs(np.mean(diag[sel]) - ref) <= 2 * h * h
    assert abs(summary["terminal_constant"] - ref) <= 1e-7


def test_flow_grid_defaults_to_the_config():
    """--grid has no parser default: a flow without it takes FlowConfig's."""
    from slopeflow.flow_engine import FlowConfig

    ns = cli.build_parser().parse_args(["flow", "j", "--params", "0,1,1,2"])
    assert ns.grid_size is None
    assert cli._flow_config(ns).grid_size == FlowConfig().grid_size == 512


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


@pytest.mark.parametrize("argv", [["flow", "j", "--params", "0,1,1,2"], ["flow", "cotangent", "--bpq", "2,3,0"]])
def test_flow_from_the_steady_start_takes_no_step(capsys, argv):
    """--init steady starts an exact case at its discrete limit: exit 0 after
    no step."""
    code, out = _run(capsys, argv + ["--grid", "64", "--init", "steady"])
    assert code == 0
    assert json.loads(out)["steps"] == 0


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


@pytest.mark.parametrize("flag", ["--dt", "--t-max", "--grid"])
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


def test_removed_checkpoint_interval_exits_1(capsys, tmp_path):
    """Every accepted step is a checkpoint, so the interval option is gone:
    as a flag and as a config key it is an unrecognized argument."""
    assert main(["flow", "j", "--params", "0,1,1,2", "--grid", "64", "--checkpoint-interval", "1"]) == 1
    assert "unrecognized arguments: --checkpoint-interval 1" in capsys.readouterr().err
    cfg = tmp_path / "experiment.ini"
    cfg.write_text("[experiment]\ncommand = flow j\n[geometry]\nparams = 0,1,1,2\n[solver]\ncheckpoint_interval = 1\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "unrecognized arguments: --checkpoint-interval 1" in capsys.readouterr().err


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


def test_slope_dhym_prints_the_float_nearest_the_root(capsys, blowup):
    """bp - sqrt((p^2+1)(b^2-1)) for (b, p) = (41/19, 177/71) lies 1.3877637e-17
    from the upper end of its bracket and 1.3877939e-17 from the lower one."""
    code, out = _run(capsys, ["slope", "dhym", "--surface", blowup, "--alpha", "177/71,0", "--beta", "41/19,1"])
    assert code == 0
    cert = json.loads(out)
    assert cert["bracket"] == [0.24328434281804986, 0.2432843428180499]
    assert cert["slope"] == 0.2432843428180499


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


def test_slope_with_a_missing_surface_file_exits_1(capsys, tmp_path):
    """A --surface path that names no file is reported as such, not read as
    config text."""
    path = str(tmp_path / "missing.ini")
    assert main(["slope", "j", "--surface", path, "--alpha", "3,1", "--beta", "2,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and repr(path) in err and "does not exist" in err


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


def test_energy_dhym_volume_steady_counts_the_wall_jump(capsys):
    """The sampled steady profile of the unstable (2, 3, 0) starts at
    xi = 6 - sqrt(30) above q = 0: the jump up to it is the bubble of
    `dhym_volume_split`, and the volume lies just above the lower bound."""
    for grid, (lo, hi) in (("512", (0.0026, 0.0028)), ("2", (0.0, 0.01))):
        code, out = _run(capsys, ["energy", "dhym-volume", "--bpq", "2,3,0", "--profile", "steady", "--grid", grid])
        assert code == 0
        rep = json.loads(out)
        assert rep["bubble"] == rep["split"]["bubble"] > 1.0
        assert rep["value"] == rep["interior"] + rep["bubble"]
        assert lo < rep["rel_error"] < hi


def test_energy_dhym_volume_refuses_a_profile_below_q(capsys, monkeypatch):
    """A profile whose left value lies below q is refused with exit 1."""
    from slopeflow import calabi_profiles

    def below(b, p, s, num):
        prof = special_cotangent_profile(b, p, 0, num)
        prof.values[0] = -0.5
        return prof

    monkeypatch.setattr(calabi_profiles, "sample_steady_profile_dhym", below)
    assert main(["energy", "dhym-volume", "--bpq", "2,3,0", "--profile", "steady"]) == 1
    assert capsys.readouterr().err == "input error: the profile's left value -0.5 lies below q = 0\n"


def test_energy_minimizing_seq_with_m_1_exits_0(capsys):
    code, out = _run(capsys, ["energy", "minimizing-seq", "--params", "1,1,3,1/2"])
    assert code == 0
    rows = json.loads(out)["sequence"]
    assert [row["k"] for row in rows] == [4, 8, 12, 16, 20]
    assert all(row["rel_error"] < 1e-3 for row in rows)


def test_energy_minimizing_seq_matches_library(capsys):
    code, out = _run(capsys, ["energy", "minimizing-seq", "--params", "0,1,4,1", "--k-min", "4", "--k", "8"])
    assert code == 0
    rep = json.loads(out)
    params = BundleParams(n=1, m=0, a=4, b=1)
    ref = energy_infimum(params).value
    assert rep["reference"] == ref
    assert [row["k"] for row in rep["sequence"]] == [4, 8]
    for row in rep["sequence"]:
        assert row["energy"] == minimizing_sequence(params, [row["k"]])[0][1]
        assert abs(row["signed_error"]) == row["rel_error"]
        assert math.copysign(1.0, row["signed_error"]) == math.copysign(1.0, row["energy"] - ref)


@pytest.mark.parametrize("profile", ["special", "steady"])
@pytest.mark.parametrize("bpq,reason", [("1,3,0", "need b > 1"), ("1/2,3,0", "need b > 1"), ("2,1,3", "need bp > q")])
def test_dhym_volume_outside_the_certificate_exits_1(capsys, bpq, reason, profile):
    """Both profiles reject a triple that the blow-up certificate rejects,
    with the certificate's message."""
    assert main(["energy", "dhym-volume", "--bpq", bpq, "--profile", profile]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and reason in err


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


@pytest.mark.parametrize(
    "flags,sizes",
    [
        ([], (500, 135, 144, 120)),
        (["--max-mn", "2", "--max-sq", "6"], (150, 135, 36, 36)),
        (["--max-mn", "1", "--max-sq", "2"], (50, 135, 4, 12)),
    ],
)
def test_verify_identities_sweep_sizes(capsys, flags, sizes):
    """--max-mn bounds the slope and blow-up sweeps, (max-mn + 1) max-mn
    shapes of 25 (a, b) and of 3 s with 2 comparisons each; --max-sq the
    binomial sweep; the pairing sweep is always n <= 6, r <= 6."""
    code, out = _run(capsys, ["verify", "identities"] + flags)
    assert code == 0
    assert [c["detail"] for c in json.loads(out)["checks"]] == [f"0 mismatches in {k} cases" for k in sizes]


@pytest.mark.parametrize(
    "flags", [["--max-mn", "0", "--max-sq", "0"], ["--max-mn", "-3"], ["--max-sq", "0"]]
)
def test_verify_identities_empty_sweep_exits_1(capsys, flags):
    """A sweep that would check no case is an input error, not a pass."""
    assert main(["verify", "identities"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("input error: ")


def _verify_details(capsys):
    code, out = _run(capsys, ["verify", "identities", "--max-mn", "2", "--max-sq", "6"])
    return code, {c["name"]: c["detail"] for c in json.loads(out)["checks"]}


@pytest.fixture
def fresh_ring_tables():
    """The per-shape ring tables, emptied before and after the test."""
    tables = (bundle_geometry._eta_power, bundle_geometry._fold_table, bundle_geometry._top_table)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


def test_verify_identities_runs_through_the_ring(capsys, monkeypatch, fresh_ring_tables):
    """One wrong coefficient in the relation eta^r = sum ... reaches every
    ring-side check of the sweep, so none of them reads a stored answer."""
    real = bundle_geometry._eta_power

    def broken(r, l):
        out = real(r, l)
        if l == r:
            (j, c), *rest = out
            return ((j, c + 1), *rest)
        return out

    monkeypatch.setattr(bundle_geometry, "_eta_power", broken)
    code, details = _verify_details(capsys)
    assert code == 2
    assert details == {
        "slope closed form vs ring oracle": "120 mismatches in 150 cases",
        "pairing recursion": "105 mismatches in 135 cases",
        "binomial identity": "0 mismatches in 36 cases",
        "blow-up intersection identities": "36 mismatches in 36 cases",
    }


def test_verify_identities_compares_every_b(capsys, monkeypatch):
    """The ring's pairings are shared over b, but each b is still compared
    with its own closed form: one wrong closed form is one mismatch."""
    real = cli.steady_slope

    def off_by_one(params, s):
        value = real(params, s)
        return value + 1 if (params.n, params.m, params.a, params.b) == (2, 1, F(2, 3), F(4, 3)) else value

    monkeypatch.setattr(cli, "steady_slope", off_by_one)
    code, details = _verify_details(capsys)
    assert code == 2
    assert details["slope closed form vs ring oracle"] == "1 mismatches in 150 cases"


def test_monitor_violation_exits_2(capsys, monkeypatch):
    def violate(*args, **kwargs):
        raise MonitorViolationError("J-admissibility lost at t=1")

    monkeypatch.setattr("slopeflow.flow_engine.run_j_flow", violate)
    assert main(["flow", "j", "--params", "0,1,1,2"] + FLOW_ARGS) == 2
    assert "J-admissibility lost" in capsys.readouterr().err


def _fresh_interpreter(code: str, *args: str) -> list:
    """Run `code` in a new interpreter on this checkout's sources; its last
    stdout line, read as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slopeflow.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_exact_subcommands_load_neither_numpy_nor_scipy(blowup, tmp_path):
    """slope, bundle, verify, energy infimum, energy futaki and run of a
    slope config stay in exact arithmetic; the first flow loads numpy."""
    cfg = tmp_path / "slope.ini"
    cfg.write_text(f"[experiment]\ncommand = slope j\n[geometry]\nsurface = {blowup}\nalpha = 2,3/10\nbeta = 3,1\n")
    code = (
        "import contextlib, io, json, sys\n"
        "import slopeflow.cli as cli\n"
        "ini, cfg = sys.argv[1:]\n"
        "exact = [\n"
        "    ['bundle', 'slopes', '--params', '0,1,4,1'],\n"
        "    ['slope', 'j', '--surface', ini, '--alpha', '2,3/10', '--beta', '3,1'],\n"
        "    ['verify', 'identities', '--max-mn', '1', '--max-sq', '2'],\n"
        "    ['run', '--config', cfg],\n"
        "    ['energy', 'infimum', '--params', '0,1,4,1'],\n"
        "    ['energy', 'futaki', '--params', '0,1,4,1', '--breakpoints', '256'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in exact]\n"
        "    loaded = ['numpy' in sys.modules, 'scipy' in sys.modules]\n"
        "    flow = cli.main(['flow', 'j', '--params', '0,1,1,2', '--grid', '64'])\n"
        "print(json.dumps([codes, loaded, flow, 'numpy' in sys.modules]))\n"
    )
    codes, loaded, flow, numpy_after_flow = _fresh_interpreter(code, blowup, str(cfg))
    assert codes == [0, 0, 0, 0, 0, 0]
    assert loaded == [False, False]
    assert flow == 0 and numpy_after_flow


def test_dt_help_prints_the_step_cap_without_numpy():
    """The --dt help prints flow_engine.DT_CAP, and neither building the
    parser nor formatting that help loads numpy."""
    code = (
        "import contextlib, io, json, sys\n"
        "from slopeflow.cli import main\n"
        "text = io.StringIO()\n"
        "with contextlib.redirect_stdout(text), contextlib.suppress(SystemExit):\n"
        "    main(['flow', 'j', '--help'])\n"
        "print(json.dumps(['numpy' in sys.modules, text.getvalue()]))\n"
    )
    numpy_loaded, text = _fresh_interpreter(code)
    assert not numpy_loaded
    assert f"later steps grow up to {DT_CAP:g}" in " ".join(text.split())
