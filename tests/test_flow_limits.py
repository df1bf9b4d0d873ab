"""Acceptance suite: both flows run to convergence and land on the limits
their certificates predict.

Every run is implicit (dt 0.05) on a 128-cell grid.  Plateau and sup error
on the compact must sit within 2 h^2 of the certificate's constant; for
semistable J pairs the puncture estimate must reach 0 within 2 h.  The
unstable J flow stays out until its monotonicity defect is fixed.
"""

import math
from fractions import Fraction

import pytest

from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.flow_engine import FlowConfig, run_cotangent_flow, run_j_flow
from slopeflow.surface_slopes import SEMISTABLE, STABLE, UNSTABLE, one_point_blowup_certificate

GRID = 128
CFG = FlowConfig(grid_size=GRID, dt_policy="implicit", dt=0.05)

J_CASES = [
    ((1, 0, 1, 2), STABLE),
    ((1, 1, 2, 2), STABLE),
    ((1, 0, 2, Fraction(2, 3)), SEMISTABLE),
    ((1, 0, Fraction(3, 2), Fraction(9, 20)), SEMISTABLE),
]

COT_CASES = [
    ((2, 3, 1), STABLE),
    ((2, 3, 3), STABLE),
    ((3, 1, -1), SEMISTABLE),
    ((2, 3, 0), UNSTABLE),
]


def _assert_limit(tr, h):
    assert tr.converged
    assert tr.monitor_report.passed, tr.monitor_report.to_dict()
    assert abs(tr.terminal_constant - tr.reference_constant) <= 2 * h * h
    assert tr.sup_error_on_compact <= 2 * h * h


@pytest.mark.parametrize("nmab,verdict", J_CASES)
def test_j_flow_reaches_certified_limit(nmab, verdict):
    params = BundleParams(*nmab)
    cert = min_slope_certificate(params)
    assert cert.verdict == verdict
    tr = run_j_flow(params, "line", cfg=CFG)
    assert tr.reference_constant == cert.zeta_inv
    h = float(params.a) / GRID
    _assert_limit(tr, h)
    if verdict == SEMISTABLE:
        assert tr.lambda_estimate <= 2 * h


@pytest.mark.parametrize("bpq,verdict", COT_CASES)
def test_cotangent_flow_reaches_certified_limit(bpq, verdict):
    cert = one_point_blowup_certificate(*bpq)
    assert cert.verdict == verdict
    if bpq == (2, 3, 0):
        assert cert.slope == pytest.approx(6 - math.sqrt(30), abs=1e-14)
    tr = run_cotangent_flow(*bpq, "special", cfg=CFG)
    assert tr.reference_constant == cert.slope
    _assert_limit(tr, (bpq[0] - 1) / GRID)
