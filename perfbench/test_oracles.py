"""The benchmark's reference values and checks against known closed forms.

A wrong checker would let a wrong program pass, so each reference is pinned
to a value known in closed form, and each check is shown to reject an output
that misses it.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402


def test_j_surface_limit_unstable_chamber():
    # alpha = 2H - 0.3E, beta = 3H - E: E destabilizes, xi = (b + sqrt(b^2-1))/p
    p, q, b = Fraction(2), Fraction(3, 10), Fraction(3)
    assert oracles.j_surface_verdict(p, q, b) == oracles.UNSTABLE
    assert math.isclose(oracles.j_surface_limit(p, q, b), (3 + 2 * math.sqrt(2)) / 2, rel_tol=1e-15)


def test_j_surface_limit_stable_is_topological_slope():
    p, q, b = Fraction(3), Fraction(3, 2), Fraction(2)
    assert oracles.j_surface_verdict(p, q, b) == oracles.STABLE
    assert oracles.j_surface_limit(p, q, b) == float(2 * (b * p - q) / (p * p - q * q))


def test_cot_limit_unstable_and_stable():
    assert math.isclose(oracles.cot_limit(2, 3, 0), 6 - math.sqrt(30), rel_tol=1e-15)
    # (2, 3, 1): xi = 6 - sqrt(30) < q, so the limit is c0 = (9 - 1 - 4 + 1)/(2 * 5)
    assert math.isclose(oracles.cot_limit(2, 3, 1), 0.5, rel_tol=1e-15)


def test_bundle_limit_headline_pair():
    verdict, lam, zeta = oracles.bundle_limit(1, 0, 4, 1)
    # (1+lam)^2 - 20(1+lam) + 25 = 0, so 1 + lam = 10 - 5 sqrt(3)
    assert verdict == oracles.UNSTABLE
    assert math.isclose(lam, 9 - 5 * math.sqrt(3), rel_tol=1e-13)
    assert math.isclose(zeta, 0.7464102, rel_tol=1e-7)
    assert math.isclose(oracles.min_slope_on_grid(1, 0, 4, 1), zeta, rel_tol=1e-6)


def test_bundle_limit_semistable_and_stable():
    assert oracles.bundle_limit(1, 0, 2, Fraction(2, 3)) == (oracles.SEMISTABLE, 0.0, 1.0)
    verdict, lam, zeta = oracles.bundle_limit(1, 0, 1, 2)
    assert (verdict, lam) == (oracles.STABLE, None)
    assert math.isclose(zeta, 10 / 3, rel_tol=1e-14)


def test_energy_infimum_closed_form():
    closed = 6 + 4 * math.sqrt(3) + 2 * math.log(10 - 5 * math.sqrt(3))
    assert math.isclose(oracles.energy_infimum_1041(), closed, rel_tol=1e-15)
    assert math.isclose(oracles.energy_infimum(1, 0, 4, 1), closed, rel_tol=1e-12)


def test_semistable_generators_are_exact():
    assert workloads._semistable_b(1, 0, Fraction(2)) == Fraction(2, 3)
    mu0 = oracles.bundle_slope(2, 1, 2.0, float(workloads._semistable_b(2, 1, Fraction(2))), 0.0)[0]
    assert math.isclose(mu0, 2.0, rel_tol=1e-14)


def test_bracket_check_rejects_a_missed_root():
    target = (3 + 2 * math.sqrt(2)) / 2
    check = workloads._check_bracket(lambda: target, oracles.UNSTABLE)
    good = SimpleNamespace(bracket=(target - 1e-13, target + 1e-13), verdict=oracles.UNSTABLE)
    off = SimpleNamespace(bracket=(target + 1e-12, target + 2e-12), verdict=oracles.UNSTABLE)
    wrong_verdict = SimpleNamespace(bracket=good.bracket, verdict=oracles.STABLE)
    assert check(good) is None
    assert check(off) is not None
    assert check(wrong_verdict) is not None


def test_flow_check_rejects_plateau_off_by_more_than_c_h2():
    h = 4 / 512
    check = workloads._check_flow(lambda: 0.7464102, h)
    report = SimpleNamespace(entries={"admissible": {"passed": True}})

    def trace(plateau, converged=True, sup=0.0):
        return SimpleNamespace(converged=converged, times=[0.0, 50.0], monitor_report=report,
                               terminal_constant=plateau, sup_error_on_compact=sup)

    assert check(trace(0.7464102 + h * h)) is None
    assert check(trace(0.7464102 + 3 * h * h)) is not None
    assert check(trace(0.7464102, converged=False)) is not None
    assert check(trace(0.7464102, sup=3 * h * h)) is not None


def test_bundle_check_rejects_a_wrong_minimal_slope():
    check = workloads._check_bundle_cert(1, 0, Fraction(4), Fraction(1))
    lam = 9 - 5 * math.sqrt(3)
    good = SimpleNamespace(verdict=oracles.UNSTABLE, zeta_inv=1 / (1 + lam), lam=lam)
    assert check(good) is None
    assert check(SimpleNamespace(verdict=oracles.UNSTABLE, zeta_inv=0.7465, lam=lam)) is not None


def test_minimizing_judge_needs_decreasing_errors():
    judge = workloads._judge_minimizing(lambda: 10.0)
    rows = [{"rel_error": e} for e in (3e-3, 4e-4, 6e-5)]
    assert judge({"reference": 10.0, "sequence": rows}) is None
    rows[1]["rel_error"] = 4e-3
    assert judge({"reference": 10.0, "sequence": rows}) is not None
