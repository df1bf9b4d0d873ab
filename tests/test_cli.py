"""The command-line front end, called in-process through main(argv)."""

import csv
import json

import numpy as np
import pytest

from slopeflow.cli import main
from slopeflow.flow_engine import COMPACT_MARGIN
from slopeflow.surface_slopes import UNSTABLE

FLOW_ARGS = ["--grid", "64", "--dt-policy", "implicit", "--dt", "0.05"]


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
    x, diag = _last_checkpoint(tmp_path / "trace.csv")
    sel = (x >= window[0]) & (x <= window[1])
    assert np.mean(diag[sel]) == pytest.approx(summary["terminal_constant"], abs=1e-9)


def test_bundle_slopes_exit_codes(capsys):
    code, out = _run(capsys, ["bundle", "slopes", "--params", "0,1,4,1"])
    assert code == 0
    assert json.loads(out)["verdict"] == UNSTABLE
    code, _ = _run(capsys, ["bundle", "slopes", "--params", "1,2"])
    assert code == 1


def test_run_config_drives_a_flow(capsys, tmp_path):
    cfg = tmp_path / "experiment.ini"
    cfg.write_text(
        "[experiment]\n"
        "command = flow j\n"
        "[geometry]\n"
        "params = 0,1,1,2\n"
        "[solver]\n"
        "grid = 64\n"
        "dt_policy = implicit\n"
        "dt = 0.05\n"
    )
    code, out = _run(capsys, ["run", "--config", str(cfg)])
    assert code == 0
    assert '"converged": true' in out
