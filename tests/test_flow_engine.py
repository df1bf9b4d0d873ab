"""Fast flow-engine checks: stationarity, short-run monitors, configs.

The long convergence runs against the closed-form limits live in the
acceptance suite, test_flow_limits.py; here we verify scheme consistency
and plumbing at small grids and short horizons.
"""

import math

import numpy as np
import pytest

from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.calabi_profiles import (
    MomentProfile,
    background_potential,
    sample_steady_profile_dhym,
    sample_steady_profile_j,
    special_cotangent_profile,
    straight_line_profile,
)
from slopeflow.errors import InputError
from slopeflow.flow_engine import FlowConfig, monitor_suite, run_cotangent_flow, run_j_flow


@pytest.fixture(scope="module")
def unstable():
    return BundleParams(n=1, m=0, a=4, b=1)


@pytest.fixture(scope="module")
def stable():
    return BundleParams(n=1, m=0, a=1, b=2)


def test_config_validation():
    with pytest.raises(InputError):
        FlowConfig(grid_size=32)
    with pytest.raises(InputError):
        FlowConfig(cfl=1.5)
    with pytest.raises(InputError):
        FlowConfig(dt_policy="implicit")  # needs dt
    with pytest.raises(InputError):
        FlowConfig(dt_policy="rk4")
    FlowConfig(dt_policy="implicit", dt=1e-3)


def test_steady_init_is_stationary_j(stable):
    init = sample_steady_profile_j(stable, 0.0, 129)
    cfg = FlowConfig(grid_size=128, t_max=0.5, checkpoint_interval=0.25)
    tr = run_j_flow(stable, init, cfg=cfg)
    # discretization residual only: sup rate is O(h^2)
    assert tr.checkpoints[0].sup_rate < 1e-2
    assert abs(tr.terminal_constant - 10 / 3) < 1e-3


def test_initial_rate_sign_j_line(unstable):
    # Q(psi0) (b-a) n / (a (1+x)^2) <= 0 for the straight line
    init = straight_line_profile(unstable, 129)
    cfg = FlowConfig(grid_size=128, t_max=0.05, checkpoint_interval=0.05)
    tr = run_j_flow(unstable, init, cfg=cfg)
    assert tr.checkpoints[0].max_rate <= 1e-12


def test_steady_init_is_stationary_cotangent():
    xi = 6 - math.sqrt(30)
    cfg = FlowConfig(grid_size=128, t_max=0.5, checkpoint_interval=0.25)
    tr = run_cotangent_flow(2, 3, 0, "steady", cfg=cfg)
    # away from the pinned wall the steady data barely moves
    x = tr.terminal_profile.grid
    ref = tr.reference_profile.values
    sel = x >= 1.2
    assert np.max(np.abs(tr.terminal_profile.values[sel] - ref[sel])) < 2e-3


def test_initial_rate_sign_cotangent_special():
    cfg = FlowConfig(grid_size=128, t_max=0.05, checkpoint_interval=0.05)
    tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert tr.checkpoints[0].min_rate >= -1e-12


def test_j_flow_self_convergence_on_compact(unstable):
    """Halving h changes the short-horizon solution by O(h^2) on compacts."""
    t_end = 2.0
    sols = {}
    for grid in (64, 128, 256):
        cfg = FlowConfig(
            grid_size=grid, t_max=t_end, checkpoint_interval=t_end, convergence_tol=1e-14
        )
        tr = run_j_flow(unstable, "line", cfg=cfg)
        sols[grid] = tr.terminal_profile
    coarse = sols[64]
    sel = (coarse.grid >= 0.8) & (coarse.grid <= 3.2)
    xs = coarse.grid[sel]
    e1 = np.max(np.abs(coarse.values[sel] - np.interp(xs, sols[128].grid, sols[128].values)))
    e2 = np.max(
        np.abs(
            np.interp(xs, sols[128].grid, sols[128].values)
            - np.interp(xs, sols[256].grid, sols[256].values)
        )
    )
    assert e1 / e2 > 2.5


def test_cotangent_self_convergence_on_compact():
    t_end = 2.0
    sols = {}
    for grid in (64, 128, 256):
        cfg = FlowConfig(
            grid_size=grid, t_max=t_end, checkpoint_interval=t_end, convergence_tol=1e-14
        )
        tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
        sols[grid] = tr.terminal_profile
    coarse = sols[64]
    sel = (coarse.grid >= 1.2) & (coarse.grid <= 1.8)
    xs = coarse.grid[sel]
    e1 = np.max(np.abs(coarse.values[sel] - np.interp(xs, sols[128].grid, sols[128].values)))
    e2 = np.max(
        np.abs(
            np.interp(xs, sols[128].grid, sols[128].values)
            - np.interp(xs, sols[256].grid, sols[256].values)
        )
    )
    assert e1 / e2 > 2.5


def test_implicit_matches_explicit_j(stable):
    cfg_e = FlowConfig(grid_size=128, t_max=1.0, checkpoint_interval=1.0)
    cfg_i = FlowConfig(
        grid_size=128, t_max=1.0, dt_policy="implicit", dt=2e-4, checkpoint_interval=1.0
    )
    tr_e = run_j_flow(stable, "line", cfg=cfg_e)
    tr_i = run_j_flow(stable, "line", cfg=cfg_i)
    assert np.max(np.abs(tr_e.terminal_profile.values - tr_i.terminal_profile.values)) < 5e-4


def test_implicit_j_step_solves_backward_euler(unstable):
    """The chord flux is linear in psi, so one implicit step with Q lagged is
    exact backward Euler; this pins the tridiagonal assembly."""
    dt = 0.5
    cfg = FlowConfig(grid_size=64, t_max=dt, dt_policy="implicit", dt=dt, checkpoint_interval=dt)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    assert tr.steps == 1
    x = tr.profiles[0].grid
    psi0, psi1 = tr.profiles[0].values, tr.profiles[-1].values
    h = x[1] - x[0]
    xh = 0.5 * (x[1:] + x[:-1])
    chord = np.diff(psi1) / h + 0.5 * (psi1[1:] + psi1[:-1]) / (1 + xh) + 1 / (1 + xh)
    q0 = psi0[1:-1] * (1 - psi0[1:-1])  # Q(psi) = psi (b - psi)/b with b = 1
    residual = (psi1[1:-1] - psi0[1:-1]) / dt - q0 * np.diff(chord) / h
    assert np.max(np.abs(residual)) < 1e-10


def test_implicit_matches_explicit_cotangent():
    cfg_e = FlowConfig(grid_size=128, t_max=1.0, checkpoint_interval=1.0)
    cfg_i = FlowConfig(
        grid_size=128, t_max=1.0, dt_policy="implicit", dt=2e-4, checkpoint_interval=1.0
    )
    tr_e = run_cotangent_flow(2, 3, 1, "special", cfg=cfg_e)
    tr_i = run_cotangent_flow(2, 3, 1, "special", cfg=cfg_i)
    assert np.max(np.abs(tr_e.terminal_profile.values - tr_i.terminal_profile.values)) < 5e-4


def test_monitor_report_structure(unstable):
    cfg = FlowConfig(grid_size=64, t_max=1.0, checkpoint_interval=0.5)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    rep = monitor_suite(tr)
    assert "monotone_decreasing" in rep.entries
    assert "energy_nonincreasing" in rep.entries
    d = rep.to_dict()
    assert set(d) == {"passed", "monitors"}
    assert all(np.diff(tr.times) > 0)


def test_checkpoint_profiles_admissible(unstable):
    cfg = FlowConfig(grid_size=64, t_max=3.0, checkpoint_interval=0.5)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    for ck in tr.checkpoints:
        assert ck.admissible


def test_input_validation_j(unstable):
    bad = MomentProfile(np.linspace(0, 3, 65), np.linspace(0, 1, 65), (0.0, 1.0))
    with pytest.raises(InputError):
        run_j_flow(unstable, bad)
    with pytest.raises(InputError):
        run_j_flow(unstable, "sawtooth")
    wrong_bg = background_potential("cotangent", 2)
    with pytest.raises(InputError):
        run_j_flow(unstable, "line", bg=wrong_bg)


def test_input_validation_cotangent():
    with pytest.raises(InputError):
        run_cotangent_flow(2, 3, 0, "garbage")
    prof = special_cotangent_profile(2, 3, 1, 65)
    with pytest.raises(InputError):
        run_cotangent_flow(2, 3, 0, prof)  # boundary mismatch


def test_trace_csv_and_summary(tmp_path, unstable):
    cfg = FlowConfig(grid_size=64, t_max=0.5, checkpoint_interval=0.25)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    csv = tmp_path / "trace.csv"
    js = tmp_path / "summary.json"
    tr.to_csv(str(csv))
    tr.save_summary(str(js))
    header = csv.read_text().splitlines()[0]
    assert header == "t,x,psi,diagnostic"
    import json

    payload = json.loads(js.read_text())
    assert payload["schema"] == 1
    assert payload["kind"] == "j"
