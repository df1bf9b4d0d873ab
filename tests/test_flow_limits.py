"""Acceptance suite: both flows run to convergence and land on the limits
their certificates predict.

Every run is implicit (first step 0.05), each certified case on 64- and
128-cell grids.  On these cases the discrete steady state of either scheme
carries the certificate's constant as its cell flux and the limit profile
at its nodes, whatever the grid: the plateau, the mean cell flux on the
compact, must sit within 1e-7 of the certificate's constant and the sup
error within 1e-6; for semistable J pairs the puncture estimate must reach
0 within 2 h.  Two short unstable cotangent triples also pass at grid 256;
(17/16, 3, 0) stays out, since its steep cells next to the wall break the
monotone cell condition of the flux during the transient and fail
monotone_increasing at every grid.  The unstable J flow stays out until its
monotonicity defect is fixed; n = 2 J pairs stay out until the fitted J
flux, since their flux plateau is off by up to 4e-6.  The J flow is a
minimizing sequence: on unstable and stable pairs alike, its terminal
energy lies above the closed-form infimum, bubble term included, by at most
C h^2 of it.

Both schemes are in flux-difference form, so a weighted sum of their cell
fluxes is fixed by the pinned ends at every profile, not only at the limit:
the J chord flux for n = 1, m = 0, and the cotangent flux, where a wall
cell on the jump flux counts as a cell from the wall trace of its steady
member.  Those identities hold at every checkpoint to a few ulps.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from slopeflow import flow_engine
from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.calabi_profiles import ADMISSIBILITY_TOL, MomentProfile, admissible_dhym, admissible_j
from slopeflow.energy_functionals import energy_infimum
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
    # short unstable intervals, which failed monotone_increasing while the
    # flux sensitivities were reused over several steps
    ((Fraction(9, 8), Fraction(29, 8), 0), UNSTABLE),
    ((Fraction(9, 8), Fraction(29, 8), Fraction(1, 16)), UNSTABLE),
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


#: short unstable triples that also pass at grid 256.  (17/16, 3, 0) is left
#: out: its steep cells next to the wall break the flux's monotone cell
#: condition and fail monotone_increasing at grids 64 to 256 (by -0.0094 at
#: 128), which hybrid upwinding of those cells is to mend
SHORT_COT_CASES_256 = [
    (Fraction(9, 8), Fraction(29, 8), Fraction(1, 16)),
    (Fraction(5, 4), Fraction(29, 8), Fraction(1, 16)),
]


@pytest.mark.parametrize("bpq", SHORT_COT_CASES_256)
def test_short_unstable_cotangent_flow_reaches_its_limit_at_grid_256(bpq):
    assert one_point_blowup_certificate(*bpq).verdict == UNSTABLE
    _assert_limit(run_cotangent_flow(*bpq, "special", cfg=FlowConfig(grid_size=256, dt=0.05)))


#: J pairs whose terminal energy is pinned to the infimum: the four unstable
#: pairs of the free-boundary fault, which still reach the bubble term, and
#: three stable ones
ENERGY_CASES = [(1, 0, 4, 1), (1, 0, 3, 1), (2, 0, 2, 1), (2, 1, 3, 1), (1, 0, 1, 2), (2, 0, 1, 3), (1, 1, 2, 2)]
#: E - E_inf <= ENERGY_GAP_C h^2 E_inf; the largest C these cases need at
#: grids 128 and 256 is 0.129, on (2, 0, 1, 3)
ENERGY_GAP_C = 0.25


@pytest.mark.parametrize("grid", (128, 256))
@pytest.mark.parametrize("nmab", ENERGY_CASES)
def test_terminal_j_energy_lies_just_above_the_infimum(nmab, grid):
    """Run to t_max 300, where every case converges, the terminal checkpoint
    energy E and the closed-form infimum E_inf satisfy
    0 <= E - E_inf <= ENERGY_GAP_C h^2 E_inf with h = a / grid."""
    params = BundleParams(*nmab)
    tr = run_j_flow(params, "line", cfg=FlowConfig(grid_size=grid, dt=0.05, t_max=300.0))
    energy, infimum = tr.checkpoints[-1].energy, energy_infimum(params).value
    h = float(params.a) / grid
    assert tr.converged
    assert infimum <= energy <= infimum + ENERGY_GAP_C * h * h * infimum


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


@pytest.mark.parametrize("output", [{"t_max": 400.0}])
@pytest.mark.parametrize("flow,args", PSEUDO_TRANSIENT_CASES + [("j", (1, 0, 4, 1))])
def test_step_cap_ignores_output_settings(flow, args, output):
    """A later t_max leaves the largest step at DT_CAP and every step as it
    was: a run that converges at the default settings takes the same steps
    to the same terminal profile."""
    cfg = FlowConfig(grid_size=GRID, dt=0.05, **output)
    tr = _run(flow, args, cfg)
    base = _run(flow, args, CFG)
    assert tr.meta["dt_max"] == DT_CAP == 2.0
    admissible = admissible_j if flow == "j" else admissible_dhym
    assert all(admissible(prof) for prof in tr.profiles) and tr.times[-1] <= cfg.t_max
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


def test_a_candidate_in_the_admissibility_slack_is_rejected(monkeypatch):
    """A candidate with one cell at d(x psi) = -ADMISSIBILITY_TOL / 2 passes
    `admissible_dhym`, but lies off the cotangent flux's domain: the step is
    rejected and retried at half the step, and the run goes on to its limit."""
    cfg = FlowConfig(grid_size=64, dt=0.05)
    scheme = flow_engine._CotScheme(2, 3, 0, "special", cfg)
    x, psi = scheme.x, scheme.psi.copy()
    solves = []

    def denting_solve(*args):
        delta = solve_banded(*args)
        solves.append(1)
        if len(solves) < 5:
            # every earlier step is accepted: follow the run's profile
            psi[1:-1] += delta
            return delta
        if len(solves) == 5:
            # the fifth step, longer than the first: dent cell (20, 21)
            delta[20] = (x[20] * (psi[20] + delta[19]) - ADMISSIBILITY_TOL / 2) / x[21] - psi[21]
            cand = psi.copy()
            cand[1:-1] += delta
            assert -ADMISSIBILITY_TOL < x[21] * cand[21] - x[20] * cand[20] < 0
            assert admissible_dhym(MomentProfile(x, cand, scheme.boundary))
        return delta

    monkeypatch.setattr(flow_engine, "solve_banded", denting_solve)
    tr = run_cotangent_flow(2, 3, 0, "special", cfg=cfg)
    assert tr.meta["rejected"] == 1 and len(solves) == tr.steps + 1
    _assert_limit(tr)


def _assert_conserved(fluxes, weights, total):
    """sum c_i w_i equals `total` within 8 ulps of sum |c_i| w_i."""
    got = math.fsum(fluxes * weights)
    assert abs(got - total) <= 8 * math.ulp(math.fsum(np.abs(fluxes) * weights)), (got, total)


#: J pairs with n = 1, m = 0, where the chord flux conserves its mean
CONSERVING_J = [
    (1, 0, 1, 2),
    (1, 0, Fraction(3, 2), Fraction(9, 20)),
    (1, 0, 2, Fraction(2, 3)),
    (1, 0, 3, 1),
    (1, 0, 4, 1),
]


@pytest.mark.parametrize("grid", (128, 512))
@pytest.mark.parametrize("nmab", CONSERVING_J)
def test_j_flux_conserves_its_weighted_sum(nmab, grid):
    """With W_i the integral of 1 + x over cell i, sum c_i W_i telescopes to
    b (1 + a) + a at every checkpoint: the mean flux is that over the
    integral of 1 + x over [0, a], not zeta, on unstable pairs."""
    params = BundleParams(*nmab)
    cfg = FlowConfig(grid_size=grid, dt=0.05)
    scheme, tr = flow_engine._JScheme(params, "line", cfg), run_j_flow(params, "line", cfg=cfg)
    x = tr.terminal_profile.grid
    weights = (x[1:] - x[:-1]) * (1 + (x[1:] + x[:-1]) / 2)
    a, b = float(params.a), float(params.b)
    for prof in tr.profiles:
        _assert_conserved(scheme.flux(prof.values), weights, b * (1 + a) + a)


@pytest.mark.parametrize("grid", (128, 512))
def test_cotangent_flux_conserves_its_weighted_sum(grid):
    """On (2, 3, 1) the jump flux never switches on, and the mean-value flux
    satisfies c_i D_i(x psi) = D_i((psi^2 - x^2) / 2) on every cell, so
    sum c_i D_i(x psi) = c0 sum D_i(x psi) at every checkpoint."""
    bpq = (2, 3, 1)
    cfg = FlowConfig(grid_size=grid, dt=0.05)
    scheme, tr = flow_engine._CotScheme(*bpq, "special", cfg), run_cotangent_flow(*bpq, "special", cfg=cfg)
    x = tr.terminal_profile.grid
    c0 = tr.meta["c0"]
    for prof in tr.profiles:
        psi = prof.values
        assert scheme._jump(psi) is None
        weights = x[1:] * psi[1:] - x[:-1] * psi[:-1]
        _assert_conserved(scheme.cell_flux(psi), weights, c0 * math.fsum(weights))


#: triples whose wall takes the jump flux at some checkpoints
JUMP_BPQ = [
    (2, 3, 0),
    (2, Fraction(5, 2), Fraction(-1, 2)),
    (2, 3, Fraction(1, 2)),
    (Fraction(9, 4), 3, Fraction(1, 8)),
    (Fraction(9, 4), 3, Fraction(-1, 4)),
]


@pytest.mark.parametrize("grid", (128, 512))
@pytest.mark.parametrize("bpq", JUMP_BPQ)
def test_cotangent_jump_flux_conserves_its_weighted_sum(bpq, grid):
    """The jump flux c of the wall cell is the constant of the steady member
    through (x1, psi1), whose value s at x = 1 solves
    s^2 - 2 c s + 2 K - 1 = 0 with K = c x1 psi1 - psi1^2 / 2 + x1^2 / 2.  So
    the wall cell acts as a cell from (1, s) to (x1, psi1): weighted by
    x1 psi1 - s and every other cell by D_i(x psi), sum c_i w_i equals
    ((p^2 - b^2) - (s^2 - 1)) / 2 at every checkpoint.  The discriminant
    c^2 + 1 - 2K is (x1 psi1 - c)^2 - (x1^2 - 1)(psi1^2 + 1), which vanishes
    for the jump flux: s = c is a double root, and rounding leaves the
    discriminant a few ulps either side of 0.  The identity's error is
    second order in s - c, so clamping it at 0 is exact to rounding."""
    cfg = FlowConfig(grid_size=grid, dt=0.05)
    scheme, tr = flow_engine._CotScheme(*bpq, "special", cfg), run_cotangent_flow(*bpq, "special", cfg=cfg)
    x = tr.terminal_profile.grid
    x1 = float(x[1])
    b, p = (float(v) for v in bpq[:2])
    jumps = 0
    for prof in tr.profiles:
        psi = prof.values
        c = scheme._jump(psi)
        if c is None:
            continue
        jumps += 1
        psi1 = float(psi[1])
        k = c * x1 * psi1 - psi1 * psi1 / 2 + x1 * x1 / 2
        disc = c * c + 1 - 2 * k
        assert abs(disc) <= 8 * math.ulp(c * c + 1 + 2 * abs(c * x1 * psi1) + psi1 * psi1 + x1 * x1), disc
        s = c + math.sqrt(max(disc, 0.0))
        weights = x[1:] * psi[1:] - x[:-1] * psi[:-1]
        weights[0] = x1 * psi1 - s
        _assert_conserved(scheme.flux(psi), weights, ((p * p - b * b) - (s * s - 1)) / 2)
    assert jumps > 0
