"""Fast flow-engine checks: stationarity, short-run monitors, configs.

The long convergence runs against the closed-form limits live in the
acceptance suite, test_flow_limits.py; here we verify scheme consistency
and plumbing at small grids and short horizons.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import slopeflow
from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.calabi_profiles import (
    ADMISSIBILITY_TOL,
    MomentProfile,
    _angle_field,
    _slope_field,
    _slope_grid,
    admissible_dhym,
    admissible_j,
    sample_steady_profile_dhym,
    sample_steady_profile_j,
    special_cotangent_profile,
    straight_line_profile,
)
from slopeflow.energy_functionals import dhym_volume
from slopeflow import flow_engine
from slopeflow.errors import AdmissibilityError, InputError, MonitorViolationError, TimeStepError
from slopeflow.flow_engine import (
    DT_CAP,
    JACOBIAN_LAG,
    ROW_BUDGET,
    FlowConfig,
    _CotScheme,
    _gradient,
    _JScheme,
    monitor_suite,
    run_cotangent_flow,
    run_j_flow,
    solve_banded,
)


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
        FlowConfig(dt=0)
    with pytest.raises(InputError):
        FlowConfig(dt_policy="rk4")
    with pytest.raises(InputError, match="explicit stepping was removed"):
        FlowConfig(dt_policy="explicit")
    FlowConfig(dt=1e-3)


def test_config_defaults_to_implicit_steps():
    cfg = FlowConfig()
    assert cfg.dt_policy == "implicit" and cfg.dt == 0.05
    assert not hasattr(cfg, "cfl")


def test_steady_init_is_stationary_j(stable):
    init = sample_steady_profile_j(stable, 0.0, 129)
    cfg = FlowConfig(grid_size=128, t_max=0.5)
    tr = run_j_flow(stable, init, cfg=cfg)
    # discretization residual only: sup rate is O(h^2)
    assert tr.checkpoints[0].sup_rate < 1e-2
    assert abs(tr.terminal_constant - 10 / 3) < 1e-3


def test_initial_rate_sign_j_line(unstable):
    # Q(psi0) (b-a) n / (a (1+x)^2) <= 0 for the straight line
    init = straight_line_profile(unstable, 129)
    cfg = FlowConfig(grid_size=128, t_max=0.05)
    tr = run_j_flow(unstable, init, cfg=cfg)
    assert tr.checkpoints[0].max_rate <= 1e-12


def test_steady_init_is_stationary_cotangent():
    xi = 6 - math.sqrt(30)
    cfg = FlowConfig(grid_size=128, t_max=0.5)
    tr = run_cotangent_flow(2, 3, 0, "steady", cfg=cfg)
    # away from the pinned wall the steady data barely moves
    x = tr.terminal_profile.grid
    ref = tr.reference_profile.values
    sel = x >= 1.2
    assert np.max(np.abs(tr.terminal_profile.values[sel] - ref[sel])) < 2e-3


def test_initial_rate_sign_cotangent_special():
    cfg = FlowConfig(grid_size=128, t_max=0.05)
    tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert tr.checkpoints[0].min_rate >= -1e-12


def test_j_flow_self_convergence_on_compact(unstable):
    """Halving h changes the short-horizon solution by O(h^2) on compacts."""
    t_end = 2.0
    sols = {}
    for grid in (64, 128, 256):
        cfg = FlowConfig(grid_size=grid, t_max=t_end, convergence_tol=1e-14)
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
        cfg = FlowConfig(grid_size=grid, t_max=t_end, convergence_tol=1e-14)
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


def _forward_euler(scheme, t_end: float, dt: float) -> np.ndarray:
    """Reference solution: fixed forward-Euler steps psi += dt Q dc / h on
    the scheme's own flux (the chord flux for J, cot(theta) with the wall
    jump flux for the cotangent flow); dt must respect the CFL bound ~ h^2."""
    psi = scheme.psi.copy()
    for _ in range(round(t_end / dt)):
        c = scheme.flux(psi)
        psi[1:-1] += dt * scheme.Q(psi) * (c[1:] - c[:-1]) / scheme.h
    return psi


def test_implicit_matches_explicit_j(stable):
    cfg = FlowConfig(grid_size=128, t_max=1.0, dt=2e-4)
    tr = run_j_flow(stable, "line", cfg=cfg)
    ref = _forward_euler(_JScheme(stable, "line", cfg), 1.0, 4e-5)
    assert np.max(np.abs(ref - tr.terminal_profile.values)) < 5e-4


def test_implicit_j_step_solves_backward_euler(unstable):
    """The chord flux is linear in psi, so one implicit step with Q lagged is
    exact backward Euler; this pins the tridiagonal assembly."""
    dt = 0.5
    cfg = FlowConfig(grid_size=64, t_max=dt, dt=dt)
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
    cfg = FlowConfig(grid_size=128, t_max=1.0, dt=2e-4)
    tr = run_cotangent_flow(2, 3, 1, "special", cfg=cfg)
    ref = _forward_euler(_CotScheme(2, 3, 1, "special", cfg), 1.0, 1e-4)
    assert np.max(np.abs(ref - tr.terminal_profile.values)) < 5e-4


def test_monitor_report_structure(unstable):
    cfg = FlowConfig(grid_size=64, t_max=1.0)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    rep = monitor_suite(tr)
    assert "monotone_decreasing" in rep.entries
    assert "energy_nonincreasing" in rep.entries
    d = rep.to_dict()
    assert set(d) == {"passed", "monitors"}
    assert all(np.diff(tr.times) > 0)


def test_monitor_scan_keeps_the_first_worst_value():
    """A checkpoint monitor's `worst` is the first value of largest
    magnitude, so of v and -v the earlier wins, and its first violation is
    the first checkpoint that fails."""
    cks = [
        flow_engine.Checkpoint(
            t=t, sup_rate=0.0, max_rate=rate, min_rate=0.0, energy=1.0, comparison_gap=gap, plateau=0.5,
            min_forward_diff=0.1, max_derivative=1.0,
        )
        for t, rate, gap in ((0.0, -3.0, 0.0), (1.0, 3.0, -1.0), (2.0, 1.0, 1.0))
    ]
    trace = flow_engine.FlowTrace(
        kind="j", times=[ck.t for ck in cks], checkpoints=cks, profiles=[], terminal_profile=None,
        terminal_constant=0.5, reference_constant=0.5, reference_profile=None, sup_error_on_compact=0.0,
        lambda_estimate=0.0, converged=True, steps=2, energy_max_violation=0.0,
        meta={"monitors": list(flow_engine.J_MONITORS), "h": 0.01},
    )
    entries = monitor_suite(trace).entries
    fail = {"passed": False, "first_violation": {"checkpoint": 1, "t": 1.0}}
    assert entries["monotone_decreasing"] == {**fail, "worst": -3.0}
    assert entries["above_singular_limit"] == {**fail, "worst": -1.0}
    assert entries["derivative_bounded"] == {"passed": True, "worst": 1.0, "first_violation": None}
    assert all(type(e["worst"]) is float for e in entries.values())


def test_inadmissible_step_at_the_first_dt_raises(unstable, monkeypatch):
    """A step that breaks admissibility at cfg.dt cannot be halved further:
    the run raises on its first solve."""
    solves = []

    def counting_solve(*args):
        solves.append(1)
        return solve_banded(*args)

    monkeypatch.setattr(flow_engine, "solve_banded", counting_solve)
    cfg = FlowConfig(grid_size=128, dt=5.0)
    with pytest.raises(MonitorViolationError, match="J-admissibility lost at t=5"):
        run_j_flow(unstable, "line", cfg=cfg)
    assert len(solves) == 1


def test_sensitivities_serve_jacobian_lag_steps_and_are_fresh_for_a_retry(monkeypatch):
    """The cotangent sensitivities are evaluated at the profile a step starts
    from: on the first step, once JACOBIAN_LAG accepted steps have used them,
    and before the retry of a rejected step, after which the count restarts."""
    evaluated, tries = [], []
    sensitivities, admissible = _CotScheme.sensitivities, _CotScheme.admissible

    def recording(self, pv):
        evaluated.append(pv.copy())
        return sensitivities(self, pv)

    def refuse_the_sixth_try(self, pv):
        tries.append(1)
        return len(tries) != 6 and admissible(self, pv)

    monkeypatch.setattr(_CotScheme, "sensitivities", recording)
    monkeypatch.setattr(_CotScheme, "admissible", refuse_the_sixth_try)
    tr = run_cotangent_flow(2, 3, 0, "special", cfg=FlowConfig(grid_size=64, dt=0.05))
    assert tr.converged and tr.meta["rejected"] == 1 and JACOBIAN_LAG == 4
    # step 5 is tried on step 4's sensitivities and retried on its own
    starts = [0, 4] + list(range(5, tr.steps, JACOBIAN_LAG))
    assert len(evaluated) == len(starts)
    for pv, k in zip(evaluated, starts):
        assert pv.tobytes() == tr.profiles[k].values.tobytes()


def test_a_run_past_its_row_budget_raises_within_seconds():
    """A first step of 1e-12 grows too slowly to reach t_max: once the kept
    rows pass ROW_BUDGET values, the run raises, naming t and the step
    count, within seconds where it used to run for minutes and fill memory."""
    cfg = FlowConfig(grid_size=64, dt=1e-12, t_max=20.0)
    start = time.perf_counter()
    with pytest.raises(TimeStepError, match=r"at t=\S+ after \d+ steps") as err:
        run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert time.perf_counter() - start < 20
    # the initial profile and one per step: the budget holds ROW_BUDGET // 65 rows
    assert f" after {ROW_BUDGET // 65} steps" in str(err.value)


@pytest.mark.parametrize("flow", ["cotangent", "j"])
def test_every_accepted_step_is_one_checkpoint(flow):
    """The initial profile and every accepted step are checkpointed once, at
    strictly increasing times, up to a run that ends on t_max with steps at
    DT_CAP, for both schemes."""
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=20.0)
    if flow == "j":
        tr = run_j_flow(BundleParams(n=1, m=1, a=2, b=1), "line", cfg=cfg)
    else:
        tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert tr.meta["dt_max"] == DT_CAP
    assert len(tr.checkpoints) == len(tr.profiles) == tr.steps + 1
    assert all(np.diff(tr.times) > 0) and tr.times[-1] == 20.0


def test_trace_profiles_share_one_read_only_grid():
    """Every kept profile and the reference sit on one read-only copy of the
    initial grid; the caller's profile is left as it was."""
    init = special_cotangent_profile(2, 3, 0, 65)
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=2.0)
    tr = run_cotangent_flow(2, 3, 0, init, cfg=cfg)
    grid = tr.reference_profile.grid
    assert len(tr.profiles) > 5
    assert all(prof.grid is grid for prof in tr.profiles + [tr.terminal_profile])
    assert not grid.flags.writeable and init.grid.flags.writeable
    assert grid is not init.grid and np.array_equal(grid, init.grid)


def _slope_reference(x, psi, d, n, m):
    """sigma = psi' + psi (n/(1+x) + m/x) + n/(1+x), with m psi' at x = 0,
    written out in full: the bitwise reference for the shared slope field."""
    g = n / (1 + x)
    out = d + psi * g + g
    if m:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(x > 0, psi / np.where(x > 0, x, 1.0), d)
        out = out + m * ratio
    return out


@pytest.mark.parametrize("nm", [(1, 0), (1, 1), (2, 2)])
def test_j_step_decay_is_the_slope_field_bit_for_bit(nm):
    """The J scheme's per-step energy, evaluated over a block of stacked
    profiles on grid terms built once per solve, is row by row the trapezoid
    of the written-out slope formula exactly, and `_slope_field` equals that
    formula on one profile and on the block."""
    params = BundleParams(n=nm[0], m=nm[1], a=2, b=1)
    scheme = _JScheme(params, "line", FlowConfig(grid_size=64))
    x, h = scheme.x, scheme.h
    block = np.stack([scheme.psi, x**2 / 4, np.sqrt(x / 2)])
    energies = scheme.decay_values(block)
    grid_terms = _slope_grid(x, nm[0])
    assert np.array_equal(_slope_field(block, _gradient(block, h), nm[1], grid_terms),
                          [_slope_reference(x, pv, _gradient(pv, h), *nm) for pv in block])
    for pv, energy in zip(block, energies.tolist()):
        d = _gradient(pv, h)
        ref = _slope_reference(x, pv, d, *nm)
        assert np.array_equal(_slope_field(pv, d, nm[1], grid_terms), ref)
        assert energy == float(np.dot(ref * ref, scheme.tw))


def test_scheme_diffusion_coefficients():
    """Q(y) = y (b - y)/b of the J scheme and Q(x) = (x-1)(b-x)/(b-1) of the
    cotangent scheme: their values, and their simple zeros at the ends."""
    cfg = FlowConfig(grid_size=64)
    j = _JScheme(BundleParams(n=1, m=0, a=1, b=1), "line", cfg)
    assert np.array_equal(j.Q(np.array([9.0, 0.5, 0.0, 1.0, 9.0])), [0.25, 0.0, 0.0])
    cot = _CotScheme(2, 3, 1, "special", cfg)
    qc, h = cot.Q(None), cot.h
    assert cot.x[32] == pytest.approx(1.5) and qc[31] == pytest.approx(0.25)
    assert qc[0] == pytest.approx(h * (1 - h)) == qc[-1]
    with pytest.raises(InputError, match="need b > 1"):
        run_cotangent_flow(1, 3, 0, "special", cfg=cfg)


def test_admissibility_predicates_agree():
    """`admissible_j`, `admissible_dhym` and both schemes' `admissible` give
    one verdict: a dip of half the slack passes, a NaN or a dip of twice the
    slack fails."""
    cfg = FlowConfig(grid_size=64)
    j = _JScheme(BundleParams(n=1, m=0, a=4, b=1), "line", cfg)
    cot = _CotScheme(2, 3, 0, "special", cfg)
    for scheme, predicate in ((j, admissible_j), (cot, admissible_dhym)):
        # w psi is the sequence each predicate keeps nondecreasing
        w = np.ones_like(scheme.x) if scheme is j else scheme.x
        for dip, ok in ((math.nan, False), (2 * ADMISSIBILITY_TOL, False), (ADMISSIBILITY_TOL / 2, True)):
            vals = scheme.psi.copy()
            vals[20] = (w[19] * vals[19] - dip) / w[20]
            assert scheme.admissible(vals) is ok
            assert predicate(MomentProfile(scheme.x, vals, scheme.boundary)) is ok


def test_checkpoint_profiles_admissible(unstable):
    cfg = FlowConfig(grid_size=64, t_max=3.0)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    assert len(tr.profiles) == len(tr.checkpoints) > 1
    assert all(admissible_j(prof) for prof in tr.profiles)


def test_input_validation_j(unstable):
    bad = MomentProfile(np.linspace(0, 3, 65), np.linspace(0, 1, 65), (0.0, 1.0))
    with pytest.raises(InputError):
        run_j_flow(unstable, bad)
    with pytest.raises(InputError):
        run_j_flow(unstable, "sawtooth")


def test_input_validation_cotangent():
    with pytest.raises(InputError):
        run_cotangent_flow(2, 3, 0, "garbage")
    prof = special_cotangent_profile(2, 3, 1, 65)
    with pytest.raises(InputError):
        run_cotangent_flow(2, 3, 0, prof)  # boundary mismatch


@pytest.mark.parametrize("flow", ["j", "cotangent"])
def test_inadmissible_initial_profile_is_an_input_error(unstable, flow):
    """An initial profile that breaks admissibility is bad input: it raises
    AdmissibilityError, not a monitor violation at t = 0."""
    init = straight_line_profile(unstable, 65) if flow == "j" else special_cotangent_profile(2, 3, 0, 65)
    x, vals = init.grid, init.values.copy()
    vals[20] = vals[19] * x[19] / x[20] - 0.01  # psi and x psi both fall across one cell
    bad = MomentProfile(x, vals, init.boundary)
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=1.0)
    with pytest.raises(AdmissibilityError):
        if flow == "j":
            run_j_flow(unstable, bad, cfg=cfg)
        else:
            run_cotangent_flow(2, 3, 0, bad, cfg=cfg)


def test_checkpoint_volume_is_dhym_volume():
    """Each checkpoint's volume is `dhym_volume` of its profile, bit for bit."""
    cfg = FlowConfig(grid_size=128, dt=0.05, t_max=5.0)
    tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert len(tr.checkpoints) > 5
    for ck, prof in zip(tr.checkpoints, tr.profiles):
        assert ck.volume == dhym_volume(prof, 2, 3, 0).value


def test_an_angle_outside_the_range_raises_with_its_rows_time():
    """A block whose rows 1 and 2 leave (0, pi) raises when it is evaluated,
    with the time of row 1, the first offending checkpoint."""
    scheme = _CotScheme(2, 3, 0, "special", FlowConfig(grid_size=64))
    block = np.stack([scheme.psi] * 4)
    block[1:3, 20] = block[1:3, 19] - 5.0  # x psi' + psi < 0 next to node 20
    fields = scheme.block_fields(block[[0, 3]], [0.25, 1.75])
    assert ((0 < fields["theta_min"]) & (fields["theta_max"] < math.pi)).all()
    with pytest.raises(MonitorViolationError, match=r"angle left \(0, pi\) at t=0\.75$"):
        scheme.block_fields(block, [0.25, 0.75, 1.25, 1.75])


def test_decay_monitors_report_their_first_violation(monkeypatch):
    """The energy and volume monitors name the first checkpoint whose value
    rose above the slack; a passing run names none."""
    cfg = FlowConfig(grid_size=256, dt=0.05)
    fault = run_j_flow(BundleParams(2, 1, 3, 1), "line", cfg=cfg)
    entry = fault.monitor_report.entries["energy_nonincreasing"]
    assert not entry["passed"] and entry["worst"] > flow_engine.ENERGY_SLACK
    first = entry["first_violation"]
    assert set(first) == {"checkpoint", "t"} and 0 < first["checkpoint"] <= fault.steps
    assert 0 < first["t"] < fault.times[-1]
    passing = run_j_flow(BundleParams(1, 0, 2, 2 / 3), "line", cfg=FlowConfig(grid_size=128, dt=0.05))
    assert passing.monitor_report.entries["energy_nonincreasing"] == {"passed": True, "worst": 0.0, "first_violation": None}
    # with no slack the volume's first rise counts: it names that checkpoint
    cot = run_cotangent_flow(2, 3, 0, "special", cfg=FlowConfig(grid_size=128, dt=0.05))
    assert cot.monitor_report.entries["volume_nonincreasing"]["first_violation"] is None
    monkeypatch.setattr(flow_engine, "_decay_slack", lambda decay, h: 0.0)
    cot = run_cotangent_flow(2, 3, 0, "special", cfg=FlowConfig(grid_size=128, dt=0.05))
    volumes = [ck.volume for ck in cot.checkpoints]
    k = next(i for i in range(1, len(volumes)) if volumes[i] > volumes[i - 1])
    entry = cot.monitor_report.entries["volume_nonincreasing"]
    assert entry["first_violation"] == {"checkpoint": k, "t": cot.times[k]} and not entry["passed"]


def test_checkpoint_plateau_is_the_flux_plateau():
    """Each checkpoint's plateau and spread are the mean and max - min of its
    profile's cell fluxes `flux` over the cells whose two end nodes
    lie in the compact window, for both schemes."""
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=2.0)
    params = BundleParams(n=1, m=1, a=2, b=1)
    runs = [
        (_JScheme(params, "line", cfg), run_j_flow(params, "line", cfg=cfg)),
        (_CotScheme(2, 3, 0, "special", cfg), run_cotangent_flow(2, 3, 0, "special", cfg=cfg)),
    ]
    for scheme, tr in runs:
        assert len(tr.checkpoints) > 5
        x, (lo, hi) = scheme.x, scheme.window
        cells = (x[:-1] >= lo) & (x[1:] <= hi)
        assert 0 < cells.sum() < x.size - 1
        for ck, prof in zip(tr.checkpoints, tr.profiles):
            flux = scheme.flux(prof.values)[cells]
            assert ck.plateau == np.mean(flux)
            assert ck.plateau_spread == flux.max() - flux.min()
        assert tr.terminal_constant == tr.checkpoints[-1].plateau


def test_trace_csv_and_summary(tmp_path, unstable):
    cfg = FlowConfig(grid_size=64, t_max=0.5)
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


def _old_csv(trace, path):
    """The per-row f-string writer that `FlowTrace.to_csv` replaced: the byte reference."""
    h = trace.meta["h"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,psi,diagnostic\n")
        for t, prof in zip(trace.times, trace.profiles):
            x, psi = prof.grid, prof.values
            d = _gradient(psi, h)
            if trace.kind == "j":
                diag = _slope_reference(x, psi, d, trace.meta["params"]["n"], trace.meta["params"]["m"])
            else:
                diag = _angle_field(x, psi, d)[0]
            for xv, v, dg in zip(x, psi, diag):
                fh.write(f"{t:.10g},{xv:.17g},{v:.17g},{dg:.17g}\n")


@pytest.mark.parametrize("flow", ["j", "cotangent"])
def test_trace_csv_matches_per_row_writer(tmp_path, flow):
    cfg = FlowConfig(grid_size=64, t_max=2.0, dt=0.05)
    if flow == "j":
        # (1, 1, 2, 2) would not do: its straight line is an exact discrete
        # steady state, so that run stops at t = 0 on one checkpoint
        tr = run_j_flow(BundleParams(n=1, m=1, a=2, b=1), "line", cfg=cfg)
    else:
        tr = run_cotangent_flow(2, 3, 1, "special", cfg=cfg)
    tr.to_csv(str(tmp_path / "new.csv"))
    _old_csv(tr, str(tmp_path / "old.csv"))
    new = (tmp_path / "new.csv").read_bytes()
    assert len(tr.times) > 5 and new.count(b"\n") == 1 + 65 * len(tr.times)
    assert new == (tmp_path / "old.csv").read_bytes()


def test_flow_from_a_steady_state_takes_no_step():
    """The straight line of (1, 1, 2, 2) is a discrete steady state: the run
    converges at t = 0 and writes its one checkpoint once."""
    cfg = FlowConfig(grid_size=128, dt=0.05)
    tr = run_j_flow(BundleParams(n=1, m=1, a=2, b=2), "line", cfg=cfg)
    assert tr.steps == 0 and tr.converged
    assert tr.times == [0.0] and len(tr.checkpoints) == len(tr.profiles) == 1
    assert tr.meta["residual"] < cfg.convergence_tol and tr.meta["dt_max"] == 0.0
    assert tr.summary()["stop_reason"] == "converged"


def test_last_step_lands_on_t_max(unstable):
    """An unconverged run stops exactly at t_max, checkpointed once there,
    and reports the steady residual of that final profile."""
    cfg = FlowConfig(grid_size=64, t_max=0.33)
    tr = run_j_flow(unstable, "line", cfg=cfg)
    assert not tr.converged
    assert tr.times[-1] == 0.33 and all(np.diff(tr.times) > 0)
    assert tr.meta["residual"] >= cfg.convergence_tol
    summary = tr.summary()
    assert summary["t_final"] == 0.33
    assert summary["stop_reason"] == "t_max"
    assert summary["meta"]["residual"] == tr.meta["residual"]
    assert summary["meta"]["dt_max"] == tr.meta["dt_max"] > 0


def _tridiagonal(n, seed):
    """A random strictly diagonally dominant system: the three diagonals, the
    right-hand side and the dense matrix."""
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
    diag = rng.choice([-1.0, 1.0], n) * rng.uniform(2.1, 3.0, n)
    rhs = rng.uniform(-1, 1, n)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    return lower, diag, upper, rhs, dense


@pytest.mark.parametrize("n", [63, 127, 511])
def test_solve_banded_matches_dense_solve(n):
    lower, diag, upper, rhs, dense = _tridiagonal(n, n)
    x = solve_banded(lower.copy(), diag.copy(), upper.copy(), rhs.copy())
    ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "diag",
    [
        [1.0, 2.0, 1.0],  # [[1, 1, 0], [1, 2, 1], [0, 1, 1]]: an exactly zero pivot
        [1.0, np.inf, 1.0],  # gtsv returns a finite solution for this one
        [1.0, np.nan, 1.0],
    ],
)
def test_solve_banded_singular_or_non_finite_raises(diag):
    with pytest.raises(TimeStepError):
        solve_banded(np.ones(2), np.array(diag), np.ones(2), np.array([1.0, 2.0, 3.0]))


def test_solve_banded_consumes_its_arguments():
    """gtsv works in place: the caller's diagonals hold the factorization
    afterwards, and writing over them leaves the solution intact."""
    lower, diag, upper, rhs, dense = _tridiagonal(127, 0)
    args = lower.copy(), diag.copy(), upper.copy(), rhs.copy()
    x = solve_banded(*args)
    assert not np.array_equal(args[1], diag)
    for arr in args[:3]:
        arr[:] = np.nan
    ref = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_scipy_loads_on_first_implicit_step():
    """Importing the CLI leaves scipy unloaded; one implicit flow loads it."""
    code = (
        "import sys\n"
        "import slopeflow.cli\n"
        "print('scipy' in sys.modules)\n"
        "from slopeflow.bundle_geometry import BundleParams\n"
        "from slopeflow.flow_engine import FlowConfig, run_j_flow\n"
        "cfg = FlowConfig(grid_size=64, dt=0.05, t_max=0.1)\n"
        "run_j_flow(BundleParams(n=1, m=0, a=1, b=2), 'line', cfg=cfg)\n"
        "print('scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(slopeflow.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False", "True"]
