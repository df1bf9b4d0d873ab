"""Acceptance suite: both flows run to convergence and land on the limits
their certificates predict.

Every run is implicit (first step 0.05), each certified case on 64- and
128-cell grids.  On these cases the discrete steady state of either scheme
carries the certificate's constant as its cell flux and the limit profile
at its nodes, whatever the grid: the plateau, the mean cell flux on the
compact, must sit within 1e-7 of the certificate's constant and the sup
error within 1e-6; for semistable J pairs the puncture estimate must reach
0 within 2 h.  The unstable J flow stays out until its monotonicity defect
is fixed; n = 2 J pairs stay out until the fitted J flux, since their flux
plateau is off by up to 4e-6.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from slopeflow import flow_engine
from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.calabi_profiles import admissible_j
from slopeflow.flow_engine import DT_CAP, FlowConfig, run_cotangent_flow, run_j_flow, solve_banded
from slopeflow.surface_slopes import SEMISTABLE, STABLE, UNSTABLE, one_point_blowup_certificate

GRID = 128
CFG = FlowConfig(grid_size=GRID, dt=0.05)
#: the grids of the certified cases
GRIDS = (64, GRID)
#: bounds on the plateau's and the sup error's distance from the limit
PLATEAU_TOL, SUP_TOL = 1e-7, 1e-6

J_CASES = [
    ((1, 0, 1, 2), STABLE),
    ((1, 1, 2, 2), STABLE),
    ((1, 0, 2, Fraction(2, 3)), SEMISTABLE),
    ((1, 0, Fraction(3, 2), Fraction(9, 20)), SEMISTABLE),
    # an interval of 0.15: the plateau window keeps a quarter of it each side
    ((1, 0, Fraction(3, 20), Fraction(1, 10)), STABLE),
]

COT_CASES = [
    ((2, 3, 1), STABLE),
    ((2, 3, 3), STABLE),
    ((3, 1, -1), SEMISTABLE),
    ((2, 3, 0), UNSTABLE),
    # pinned just below the singular limit: the wall cell takes the jump flux
    ((2, 3, Fraction(1, 2)), UNSTABLE),
    ((2, 3, Fraction(1, 4)), UNSTABLE),
    ((Fraction(9, 4), 3, Fraction(1, 8)), UNSTABLE),
]


def _assert_limit(tr):
    assert tr.converged
    assert tr.monitor_report.passed, tr.monitor_report.to_dict()
    assert abs(tr.terminal_constant - tr.reference_constant) <= PLATEAU_TOL
    assert tr.sup_error_on_compact <= SUP_TOL


@pytest.mark.parametrize("nmab,verdict", J_CASES)
def test_j_flow_reaches_certified_limit(nmab, verdict):
    params = BundleParams(*nmab)
    cert = min_slope_certificate(params)
    assert cert.verdict == verdict
    for grid in GRIDS:
        tr = run_j_flow(params, "line", cfg=FlowConfig(grid_size=grid, dt=0.05))
        assert tr.reference_constant == cert.zeta_inv
        _assert_limit(tr)
        if verdict == SEMISTABLE:
            assert tr.lambda_estimate <= 2 * float(params.a) / grid


@pytest.mark.parametrize("bpq,verdict", COT_CASES)
def test_cotangent_flow_reaches_certified_limit(bpq, verdict):
    cert = one_point_blowup_certificate(*bpq)
    assert cert.verdict == verdict
    if bpq == (2, 3, 0):
        assert cert.slope == pytest.approx(6 - math.sqrt(30), abs=1e-14)
    for grid in GRIDS:
        tr = run_cotangent_flow(*bpq, "special", cfg=FlowConfig(grid_size=grid, dt=0.05))
        assert tr.reference_constant == cert.slope
        _assert_limit(tr)


#: a semistable J pair and an unstable cotangent pair, run from two first steps
PSEUDO_TRANSIENT_CASES = [
    ("j", (1, 0, 2, Fraction(2, 3))),
    ("cotangent", (2, 3, 0)),
]


def _run(flow, args, cfg):
    """Run a J pair from its straight line or a cotangent triple from its
    special profile."""
    if flow == "j":
        return run_j_flow(BundleParams(*args), "line", cfg=cfg)
    return run_cotangent_flow(*args, "special", cfg=cfg)


@pytest.mark.parametrize("flow,args", PSEUDO_TRANSIENT_CASES)
def test_pseudo_transient_steps_reach_the_same_limit(flow, args):
    """The step grows from cfg.dt with the falling residual up to DT_CAP,
    and the limit does not depend on the first step."""
    plateaus = []
    for dt in (0.02, 0.05):
        cfg = FlowConfig(grid_size=GRID, dt=dt)
        tr = _run(flow, args, cfg)
        _assert_limit(tr)
        assert tr.meta["residual"] < cfg.convergence_tol
        assert tr.meta["dt"] == dt < tr.meta["dt_max"] == DT_CAP
        assert all(b > a for a, b in zip(tr.times, tr.times[1:])) and tr.times[-1] <= cfg.t_max
        assert tr.steps < 400
        plateaus.append(tr.terminal_constant)
    assert abs(plateaus[0] - plateaus[1]) <= PLATEAU_TOL


#: step budgets at grid 128: dt scaled by the plain residual ratio took 103
#: (cotangent) and 76 (J) steps, by its square 68 and 55; each budget is the
#: latter plus 15 %
STEP_BUDGET_CASES = [
    ("cotangent", (2, 3, 0), 78),
    ("j", (1, 0, Fraction(3, 2), Fraction(9, 20)), 63),
]


@pytest.mark.parametrize("flow,args,budget", STEP_BUDGET_CASES)
def test_squared_residual_ratio_shortens_the_ramp(flow, args, budget):
    """Growing dt by the squared fall of the residual reaches DT_CAP in about
    half the steps, and the run still lands on its certified limit."""
    tr = _run(flow, args, CFG)
    _assert_limit(tr)
    assert tr.steps <= budget


@pytest.mark.parametrize("output", [{"t_max": 400.0}, {"checkpoint_interval": 2.0}])
@pytest.mark.parametrize("flow,args", PSEUDO_TRANSIENT_CASES + [("j", (1, 0, 4, 1))])
def test_step_cap_ignores_output_settings(flow, args, output):
    """A later t_max or sparser checkpoints leave the largest step at DT_CAP
    and every step as it was: a run that converges at the default settings
    takes the same steps to the same terminal profile."""
    cfg = FlowConfig(grid_size=GRID, dt=0.05, **output)
    tr = _run(flow, args, cfg)
    base = _run(flow, args, CFG)
    assert tr.meta["dt_max"] == DT_CAP == 2.0
    assert all(ck.admissible for ck in tr.checkpoints) and tr.times[-1] <= cfg.t_max
    if base.converged:
        assert (tr.steps, tr.meta["rejected"]) == (base.steps, base.meta["rejected"])
        assert np.array_equal(tr.terminal_profile.values, base.terminal_profile.values)
        assert tr.terminal_constant == base.terminal_constant
    if args != (1, 0, 4, 1):  # the unstable J flow's known defect fails its monitors
        _assert_limit(tr)


def test_inadmissible_steps_are_rejected_and_halved(monkeypatch):
    """The unstable J pair (1, 0, 4, 1) overshoots at steps near DT_CAP: those
    steps are retried at half the step, so the run finishes, every recorded
    profile is admissible, and `steps` counts only the accepted solves."""
    solves = []

    def counting_solve(*args):
        solves.append(1)
        return solve_banded(*args)

    monkeypatch.setattr(flow_engine, "solve_banded", counting_solve)
    cfg = FlowConfig(grid_size=GRID, dt=0.05, t_max=400.0)
    tr = run_j_flow(BundleParams(1, 0, 4, 1), "line", cfg=cfg)
    assert tr.converged and tr.meta["rejected"] >= 1
    assert tr.summary()["meta"]["rejected"] == tr.meta["rejected"]
    assert all(admissible_j(prof) for prof in tr.profiles)
    assert len(solves) == tr.steps + tr.meta["rejected"]
