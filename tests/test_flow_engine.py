"""Fast flow-engine checks: stationarity, short-run monitors, configs.

The long convergence runs against the closed-form limits live in the
acceptance suite, test_flow_limits.py; here we verify scheme consistency
and plumbing at small grids and short horizons.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

import slopeflow
from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.calabi_profiles import (
    ADMISSIBILITY_TOL,
    MomentProfile,
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
from slopeflow import calabi_profiles, flow_engine
from slopeflow.errors import AdmissibilityError, InputError, MonitorViolationError, TimeStepError
from slopeflow.flow_engine import (
    DT_CAP,
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


def test_monitor_scan_reports_the_most_violating_value():
    """A checkpoint monitor's `worst` is its most violating value, the
    minimum under a lower bound and the maximum under an upper one, even
    where a value of larger magnitude passes; its first violation is the
    first checkpoint that fails.  A decay monitor scans the rises of its
    column: its worst is the largest rise, 0.0 when nothing rose, and its
    first violation the checkpoint after the first rise above the slack."""
    h = 0.01

    def trace(kind, columns, monitors):
        return flow_engine.FlowTrace(
            kind=kind, columns=columns, blocks=[], terminal_profile=None, reference_constant=0.5,
            reference_profile=None, sup_error_on_compact=0.0, lambda_estimate=0.0, converged=True,
            meta={"monitors": list(monitors), "h": h},
        )

    columns = {
        "t": np.array([0.0, 1.0, 2.0]), "sup_rate": np.zeros(3), "max_rate": np.array([-3.0, 3.0, 1.0]),
        "min_rate": np.zeros(3), "plateau": np.full(3, 0.5), "energy": np.ones(3),
        "comparison_gap": np.array([0.0, -1.0, 2.0]), "min_forward_diff": np.full(3, 0.1),
        "max_derivative": np.ones(3),
    }
    entries = monitor_suite(trace("j", columns, flow_engine.J_MONITORS)).entries
    fail = {"passed": False, "first_violation": {"checkpoint": 1, "t": 1.0}}
    assert entries["monotone_decreasing"] == {**fail, "worst": 3.0}
    assert entries["above_singular_limit"] == {**fail, "worst": -1.0}
    assert entries["derivative_bounded"] == {"passed": True, "worst": 1.0, "first_violation": None}
    assert entries["energy_nonincreasing"] == {"passed": True, "worst": 0.0, "first_violation": None}
    assert all(type(e["worst"]) is float for e in entries.values())

    t = np.array([0.0, 0.5, 1.5, 2.5])
    for kind, decay, slack in (("j", "energy", 1e-10), ("cotangent", "volume", max(1e-10, h**1.5))):
        name = f"{decay}_nonincreasing"
        # a rise under the slack, one over it, and a fall larger than both
        v = np.cumsum([2.0, 0.5 * slack, 3 * slack, -1.0])
        entries = monitor_suite(trace(kind, {"t": t, decay: v}, [decay])).entries
        fail = {"passed": False, "first_violation": {"checkpoint": 2, "t": 1.5}}
        assert entries == {name: {**fail, "worst": float(v[2] - v[1])}}
        assert type(entries[name]["worst"]) is float
        falling = np.array([2.0, 1.5, 1.0, 0.5])
        entries = monitor_suite(trace(kind, {"t": t, decay: falling}, [decay])).entries
        assert entries == {name: {"passed": True, "worst": 0.0, "first_violation": None}}


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


def test_sensitivities_are_evaluated_once_per_step_and_serve_its_retry(monkeypatch):
    """The cotangent sensitivities are evaluated once per step, at the
    profile the step starts from, from the cells its flux kept.  A rejected
    candidate's flux replaces those cells, and the retry solves on the
    sensitivities of the step's start, not the candidate's: at half the step,
    its sub-diagonal is the first try's halved, bit for bit."""
    evaluated, fluxes, subs = [], [], []
    sensitivities, flux = _CotScheme.sensitivities, _CotScheme.flux

    def recording(self, pv, out=None):
        entries = sensitivities(self, pv, out)
        evaluated.append((pv.copy(), [e.tobytes() for e in entries]))
        return entries

    def refuse_the_21st_candidate(self, pv, out=None):
        # the first flux is the initial profile's
        c = flux(self, pv, out)
        fluxes.append(1)
        return None if len(fluxes) == 22 else c

    def recording_solve(lower, diag, upper, rhs):
        subs.append(lower.copy())
        return solve_banded(lower, diag, upper, rhs)

    monkeypatch.setattr(_CotScheme, "sensitivities", recording)
    monkeypatch.setattr(_CotScheme, "flux", refuse_the_21st_candidate)
    monkeypatch.setattr(flow_engine, "solve_banded", recording_solve)
    cfg = FlowConfig(grid_size=64, dt=0.05)
    tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert tr.converged and tr.meta["rejected"] == 1 and len(subs) == tr.steps + 1
    # step 21 is tried at more than twice the first step, so its retry is at half
    assert tr.times[21] - tr.times[20] > cfg.dt
    assert subs[21].tobytes() == (subs[20] / 2).tobytes()
    assert len(evaluated) == tr.steps
    monkeypatch.undo()
    fresh = _CotScheme(2, 3, 0, "special", cfg)
    for (pv, entries), prof in zip(evaluated, tr.profiles):
        assert pv.tobytes() == prof.values.tobytes()
        fresh.flux(pv)
        assert entries == [e.tobytes() for e in fresh.sensitivities(pv)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("flow", ["j", "cotangent"])
def test_a_non_finite_update_raises(flow, bad, monkeypatch):
    """An update holding a NaN or an inf raises TimeStepError with the time
    the step would reach, before its candidate is tested."""

    def poisoned_solve(*args):
        delta = solve_banded(*args)
        delta[delta.size // 2] = bad
        return delta

    monkeypatch.setattr(flow_engine, "solve_banded", poisoned_solve)
    cfg = FlowConfig(grid_size=64, dt=0.05)
    with pytest.raises(TimeStepError, match=r"non-finite update at t=0\.05; time step too large"):
        if flow == "j":
            run_j_flow(BundleParams(n=1, m=0, a=4, b=1), "line", cfg=cfg)
        else:
            run_cotangent_flow(2, 3, 0, "special", cfg=cfg)


@pytest.mark.parametrize("flow", ["j", "cotangent"])
def test_a_nonuniform_init_grid_raises(flow):
    """An initial grid whose spacings differ from the first by more than
    1e-14 + 1e-10 h raises for both flows, and so does a NaN spacing; a
    grid within that tolerance runs."""
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=0.1)
    params = BundleParams(n=1, m=0, a=4, b=1)
    init = straight_line_profile(params, 65) if flow == "j" else special_cotangent_profile(2, 3, 0, 65)

    def run(shift):
        grid = init.grid.copy()
        grid[32] += shift * (grid[1] - grid[0])
        prof = MomentProfile(grid, init.values, init.boundary)
        if flow == "j":
            return run_j_flow(params, prof, cfg=cfg)
        return run_cotangent_flow(2, 3, 0, prof, cfg=cfg)

    with pytest.raises(InputError, match="flow grids must be uniform"):
        run(1e-3)
    assert run(1e-12).steps > 0
    # the profile refuses a NaN node, so the spacing test sees one only directly
    with pytest.raises(InputError, match="flow grids must be uniform"):
        flow_engine._uniform_spacing(np.array([0.0, 1.0, math.nan, 3.0]))


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
    energies = scheme.block_fields(block, np.zeros(len(block)))["energy"]
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
    """The J flux is None exactly where `admissible_j` fails: at a NaN or a
    dip of twice the slack, not at a dip of half of it.  The cotangent flux
    is None at all three dips, the half-slack one that `admissible_dhym`
    passes included."""
    cfg = FlowConfig(grid_size=64)
    j = _JScheme(BundleParams(n=1, m=0, a=4, b=1), "line", cfg)
    cot = _CotScheme(2, 3, 0, "special", cfg)
    for scheme, predicate in ((j, admissible_j), (cot, admissible_dhym)):
        # w psi is the sequence each predicate keeps nondecreasing
        w = np.ones_like(scheme.x) if scheme is j else scheme.x
        for dip, ok in ((math.nan, False), (2 * ADMISSIBILITY_TOL, False), (ADMISSIBILITY_TOL / 2, True)):
            vals = scheme.psi.copy()
            vals[20] = (w[19] * vals[19] - dip) / w[20]
            assert predicate(MomentProfile(scheme.x, vals, scheme.boundary)) is ok
            assert (scheme.flux(vals) is not None) is (ok and scheme is j)


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
    AdmissibilityError, not a monitor violation at t = 0.  So does a
    cotangent start whose x psi dips by half of ADMISSIBILITY_TOL, inside
    the slack that `admissible_dhym` forgives and the flux does not."""
    init = straight_line_profile(unstable, 65) if flow == "j" else special_cotangent_profile(2, 3, 0, 65)
    x, vals = init.grid, init.values.copy()
    vals[20] = vals[19] * x[19] / x[20] - 0.01  # psi and x psi both fall across one cell
    starts = [vals]
    if flow == "cotangent":
        vals = init.values.copy()
        vals[20] = (x[19] * vals[19] - ADMISSIBILITY_TOL / 2) / x[20]
        assert admissible_dhym(MomentProfile(x, vals, init.boundary))
        starts.append(vals)
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=1.0)
    for vals in starts:
        bad = MomentProfile(x, vals, init.boundary)
        with pytest.raises(AdmissibilityError, match="^the initial profile breaks (J-|dHYM )admissibility$"):
            if flow == "j":
                run_j_flow(unstable, bad, cfg=cfg)
            else:
                run_cotangent_flow(2, 3, 0, bad, cfg=cfg)


#: the exact cases of the named "steady" start: the J pairs whose singular
#: limit is a discrete steady state, and the cotangent triples of each class.
#: The unstable J pair (1, 0, 4, 1) is left out: started at its own singular
#: limit it takes 72 steps at grid 128 and fails a monitor (fault 1)
STEADY_STARTS = [
    ("j", BundleParams(n=1, m=0, a=1, b=2)),
    ("j", BundleParams(n=1, m=0, a=2, b=F(2, 3))),
    ("cotangent", (2, 3, 1)),
    ("cotangent", (2, 3, 0)),
    ("cotangent", (3, 1, -1)),
]


@pytest.mark.parametrize("grid", [64, 128])
@pytest.mark.parametrize("flow,case", STEADY_STARTS)
def test_the_steady_start_of_an_exact_case_is_at_rest(flow, case, grid):
    """A run from the named "steady" start of an exact case takes no step:
    its plateau is the certificate's constant to a few ulps, its sup error
    is 0, and every monitor passes."""
    cfg = FlowConfig(grid_size=grid)
    tr = run_j_flow(case, "steady", cfg=cfg) if flow == "j" else run_cotangent_flow(*case, "steady", cfg=cfg)
    ref = tr.reference_constant
    assert tr.steps == 0 and tr.converged and tr.monitor_report.passed
    assert abs(tr.terminal_constant - ref) <= 4 * np.spacing(abs(ref))
    assert tr.sup_error_on_compact == 0.0


def test_the_steady_j_start_computes_its_certificate_once(monkeypatch):
    """The steady start and the reference profile share one certificate,
    counted where the flow engine and the profiles look it up."""
    calls = []
    real = flow_engine.min_slope_certificate

    def counting(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(flow_engine, "min_slope_certificate", counting)
    monkeypatch.setattr(calabi_profiles, "min_slope_certificate", counting)
    params = BundleParams(n=1, m=0, a=4, b=1)
    run_j_flow(params, "steady", cfg=FlowConfig(grid_size=64, t_max=0.5))
    assert calls == [params]


def test_the_steady_j_start_is_its_own_reference(monkeypatch):
    """The named steady start builds the singular-limit profile once and reads
    the reference off it: its reference and trace are, bit for bit, those of
    a run from the same profile passed in, which builds the reference anew."""
    calls = []
    real = flow_engine.singular_limit_profile_j

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow_engine, "singular_limit_profile_j", counting)
    params, cfg = BundleParams(n=1, m=0, a=4, b=1), FlowConfig(grid_size=64, t_max=0.5)
    steady = run_j_flow(params, "steady", cfg=cfg)
    assert len(calls) == 1
    start = real(params, 65, lam=min_slope_certificate(params).lam)
    given = run_j_flow(params, start, cfg=cfg)
    assert len(calls) == 2 and steady.steps > 0
    assert steady.reference_profile.values.tobytes() == given.reference_profile.values.tobytes()
    assert steady.reference_profile.values.tobytes() == start.values.tobytes()
    assert steady.columns.keys() == given.columns.keys()
    assert all(steady.columns[k].tobytes() == given.columns[k].tobytes() for k in steady.columns)
    assert [b.tobytes() for b in steady.blocks] == [b.tobytes() for b in given.blocks]
    assert json.dumps(steady.summary()) == json.dumps(given.summary())


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


def _lean_step_case(case, cfg):
    """A fresh scheme and its run for the lean-step tests."""
    if case == "cotangent":
        # (2, 3, 0) switches the wall's jump flux on
        return _CotScheme(2, 3, 0, "special", cfg), lambda: run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    params = BundleParams(n=1, m=0, a=2, b=F(2, 3)) if case == "j" else BundleParams(n=1, m=1, a=3, b=1)
    return _JScheme(params, "line", cfg), lambda: run_j_flow(params, "line", cfg=cfg)


@pytest.mark.parametrize("case", ["j", "j m=1", "cotangent"])
def test_plateau_columns_span_every_block_of_flux_rows(case, monkeypatch):
    """The loop keeps its flux rows in one reusable block and closes each
    profile block once, when it fills and after the loop: over at least
    three profile blocks, the last of them partial, every block is read-only,
    the plateau columns are bit for bit the window mean and max - min of
    `cell_flux` recomputed on every kept row, and the scheme's field columns
    are those of `block_fields` on all the rows at once."""
    cfg = FlowConfig(grid_size=64, dt=0.05, t_max=3.0)
    scheme, run = _lean_step_case(case, cfg)
    rows = run().steps + 1
    size = next(s for s in range(rows // 3, 0, -1) if rows % s)
    assert rows // size >= 3 and rows % size
    monkeypatch.setattr(flow_engine, "CHUNK_ELEMS", size * scheme.x.size)
    tr = run()
    assert [len(block) for block in tr.blocks] == [size] * (rows // size) + [rows % size]
    x, (lo, hi) = scheme.x, scheme.window
    # the window's cells as a slice, so that each row sums in place as the
    # run's rows do (a boolean index copies the window column-major)
    cells = np.flatnonzero((x[:-1] >= lo) & (x[1:] <= hi))
    window = scheme.cell_flux(np.concatenate(tr.blocks))[:, cells[0] : cells[-1] + 1]
    assert tr.columns["plateau"].tobytes() == (window.sum(axis=1) / window.shape[1]).tobytes()
    assert tr.columns["plateau_spread"].tobytes() == (window.max(axis=1) - window.min(axis=1)).tobytes()
    assert not any(block.flags.writeable for block in tr.blocks)
    fields = scheme.block_fields(np.concatenate(tr.blocks), tr.columns["t"])
    assert {name: tr.columns[name].tobytes() for name in fields} == {name: col.tobytes() for name, col in fields.items()}


@pytest.mark.parametrize("case", ["j", "cotangent"])
def test_flux_into_a_row_is_the_flux(case):
    """`flux(pv, out=row)` returns row, holding the bytes of `flux(pv)`, and
    `Q` and `sensitivities` keep the same contract: `Q(pv, out=row)` returns
    row and `sensitivities(pv, out=rows)` its three rows, holding the bytes
    of the call without out.  The cotangent rows are those of a run, on which
    the wall's jump flux switches on."""
    scheme, run = _lean_step_case(case, FlowConfig(grid_size=64))
    n = scheme.psi.size
    rows = np.concatenate(run().blocks) if case == "cotangent" else [scheme.psi]
    jumps = set()
    for pv in rows:
        row = np.empty((2, n - 1))[1]
        assert scheme.flux(pv, out=row) is row
        q = np.empty((2, n - 2))[1]
        assert scheme.Q(pv, out=q) is q
        out = (np.empty((2, n - 1))[1], np.empty((2, n - 1))[1], np.empty((2, n - 2))[1])
        entries = scheme.sensitivities(pv, out=out)
        assert len(entries) == 3 and all(e is o for e, o in zip(entries, out))
        jumps.add(getattr(scheme, "c_jump", None) is not None)
        assert row.tobytes() == scheme.flux(pv).tobytes()
        assert q.tobytes() == scheme.Q(pv).tobytes()
        assert [o.tobytes() for o in out] == [e.tobytes() for e in scheme.sensitivities(pv)]
    assert jumps == ({True, False} if case == "cotangent" else {False})


@pytest.mark.parametrize("case", ["j", "cotangent"])
def test_flux_and_sensitivities_results_own_their_memory(case):
    """An array that `flux`, `cell_flux`, `Q` or `sensitivities` returned
    without out keeps its values through later calls on other profiles, with
    and without out: no per-scheme buffer leaks into a result."""
    scheme, _ = _lean_step_case(case, FlowConfig(grid_size=64))
    first, other = scheme.psi, scheme.psi.copy()
    other[1:-1] += 0.01 * np.sin(np.pi * (scheme.x[1:-1] - scheme.x[0]) / (scheme.x[-1] - scheme.x[0]))
    results = [scheme.flux(first), scheme.cell_flux(first), scheme.Q(first)]
    results += scheme.sensitivities(first)
    kept = [r.tobytes() for r in results]
    n = first.size
    scheme.flux(other)
    scheme.sensitivities(other)
    scheme.flux(other, out=np.empty(n - 1))
    scheme.sensitivities(other, out=(np.empty(n - 1), np.empty(n - 1), np.empty(n - 2)))
    scheme.Q(other)
    scheme.Q(other, out=np.empty(n - 2))
    scheme.cell_flux(other)
    assert [r.tobytes() for r in results] == kept


def test_a_kept_trace_survives_later_solves():
    """No buffer of one solve reaches another: in one process, J
    (1, 0, 2, 2/3), then the cotangent (2, 3, 0), then the J case again, at
    grid 64.  The second J trace equals the first byte for byte, its
    columns, blocks and `summary()`; the first trace's arrays are unchanged
    after the later runs; and the reference profile is read-only."""
    cfg = FlowConfig(grid_size=64)
    params = BundleParams(n=1, m=0, a=2, b=F(2, 3))

    def held(tr):
        return (
            {name: col.tobytes() for name, col in tr.columns.items()},
            [(block.shape, block.tobytes()) for block in tr.blocks],
            json.dumps(tr.summary()),
            [prof.values.tobytes() for prof in (tr.terminal_profile, tr.reference_profile)],
            tr.terminal_profile.grid.tobytes(),
        )

    first = run_j_flow(params, "line", cfg=cfg)
    kept = held(first)
    cot = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert cot.steps > 0 and held(first) == kept
    assert held(run_j_flow(params, "line", cfg=cfg)) == kept
    assert held(first) == kept
    for tr in (first, cot):
        assert not tr.reference_profile.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tr.reference_profile.values[1] = 0.0


@pytest.mark.parametrize("flow", ["j", "cotangent"])
def test_trace_save_round_trips(tmp_path, flow):
    """`save` writes the columns, the rows and the grid bit for bit: every
    checkpoints.csv field parses back to its column value, and the .npy files
    hold the profiles' values and their grid."""
    cfg = FlowConfig(grid_size=64, t_max=2.0, dt=0.05)
    if flow == "j":
        # (1, 1, 2, 2) would not do: its straight line is an exact discrete
        # steady state, so that run stops at t = 0 on one checkpoint
        tr = run_j_flow(BundleParams(n=1, m=1, a=2, b=1), "line", cfg=cfg)
    else:
        # (2, 3, 0) switches the wall's jump flux on
        tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    tr.save(str(tmp_path))
    header, *lines = (tmp_path / "checkpoints.csv").read_text(encoding="utf-8").splitlines()
    assert header.split(",") == list(tr.columns) and len(lines) == tr.steps + 1 > 5
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines])
    for name, col in zip(tr.columns, parsed.T):
        assert col.tobytes() == tr.columns[name].tobytes(), name
    rows = np.load(tmp_path / "profiles.npy")
    assert rows.shape == (tr.steps + 1, 65)
    assert rows.tobytes() == np.array([p.values for p in tr.profiles]).tobytes()
    assert np.load(tmp_path / "grid.npy").tobytes() == tr.terminal_profile.grid.tobytes()
    assert sorted(os.listdir(tmp_path)) == ["checkpoints.csv", "grid.npy", "profiles.npy"]


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


def _fresh_stdout(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter on this slopeflow."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(slopeflow.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return out.stdout


_ONE_J_FLOW = (
    "from slopeflow.bundle_geometry import BundleParams\n"
    "from slopeflow.flow_engine import FlowConfig, run_j_flow\n"
    "run_j_flow(BundleParams(n=1, m=0, a=1, b=2), 'line', cfg=FlowConfig(grid_size=64, dt=0.05, t_max=0.1))\n"
)


def test_scipy_loads_on_first_implicit_step():
    """Importing the CLI leaves scipy unloaded; one implicit flow loads scipy
    and its LAPACK extension, but not the scipy.linalg package or
    numpy.f2py.  A later import of scipy.linalg reuses that extension and its
    dgtsv."""
    code = (
        "import sys\n"
        "import slopeflow.cli\n"
        "print('scipy' in sys.modules)\n"
        + _ONE_J_FLOW
        + "print(*(name in sys.modules for name in ('scipy', 'scipy.linalg._flapack', 'scipy.linalg', 'numpy.f2py')))\n"
        "import scipy.linalg\n"
        "from slopeflow import flow_engine\n"
        "print(scipy.linalg.lapack.dgtsv is flow_engine._gtsv)\n"
        "print(scipy.linalg.lapack._flapack is sys.modules['scipy.linalg._flapack'])\n"
    )
    assert _fresh_stdout(code).split() == ["False", "True", "True", "False", "False", "True", "True"]


def test_flow_reuses_an_imported_scipy_linalg():
    """With scipy.linalg imported first, the flow takes its dgtsv and loads
    no scipy module."""
    code = (
        "import sys\n"
        "import scipy.linalg\n"
        "before = {name for name in sys.modules if name.startswith('scipy')}\n"
        + _ONE_J_FLOW
        + "from slopeflow import flow_engine\n"
        "print(flow_engine._gtsv is scipy.linalg.lapack.dgtsv)\n"
        "print(sorted({name for name in sys.modules if name.startswith('scipy')} - before))\n"
    )
    assert _fresh_stdout(code).splitlines() == ["True", "[]"]


#: solves 16 seeded tridiagonal systems of 127 to 511 unknowns by
#: `solve_banded`, checks each residual and prints each solution's bytes in
#: hex, then whether scipy.linalg is loaded.  MODE "loaded" takes the
#: extension loaded by file, "scipy" imports scipy.linalg first, and
#: "fallback" makes the file lookup fail: no extension suffix names a file
_SOLVE_SYSTEMS = """
import importlib.machinery, sys
import numpy as np
if MODE == "scipy":
    import scipy.linalg
elif MODE == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES = [".no-such-suffix"]
from slopeflow.flow_engine import solve_banded
rng = np.random.default_rng(20231206)
for k in range(16):
    n = int(rng.integers(127, 512))
    lower = rng.uniform(0.1, 1, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    upper = rng.uniform(0.1, 1, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    off = np.zeros(n)
    off[1:] += np.abs(lower)
    off[:-1] += np.abs(upper)
    # strictly dominant by at least 1, or weakly: equality on every row but the first
    margin = rng.uniform(1, 2, n) if k % 2 else np.r_[0.5, np.zeros(n - 1)]
    diag = rng.choice([-1.0, 1.0], n) * (off + margin)
    rhs = rng.uniform(-1, 1, n)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    x = solve_banded(lower.copy(), diag.copy(), upper.copy(), rhs.copy())
    assert np.abs(dense @ x - rhs).max() <= 1e-13 * (np.abs(dense) @ np.abs(x)).max()
    print(x.tobytes().hex())
print("scipy.linalg" in sys.modules)
"""


def test_gtsv_paths_give_the_same_bits():
    """The extension loaded by file, scipy.linalg.lapack's dgtsv and the
    fallback after a failed file lookup solve strongly and weakly diagonally
    dominant systems to the same bytes."""
    outs = {mode: _fresh_stdout(f"MODE = {mode!r}" + _SOLVE_SYSTEMS).split() for mode in ("loaded", "scipy", "fallback")}
    assert [outs[mode][-1] for mode in outs] == ["False", "True", "True"]
    assert len(outs["loaded"]) == 17 and outs["loaded"][:-1] == outs["scipy"][:-1] == outs["fallback"][:-1]
