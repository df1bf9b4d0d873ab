"""Steady profiles, slope/angle functionals, admissibility."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.calabi_profiles import (
    MomentProfile,
    admissible_dhym,
    admissible_j,
    invert_steady_profile_j,
    pointwise_angle,
    pointwise_slope,
    sample_steady_profile_dhym,
    sample_steady_profile_j,
    singular_limit_profile_j,
    special_cotangent_profile,
    steady_cot_slope,
    steady_profile_dhym,
    steady_profile_j,
    steady_profile_j_derivative,
    straight_line_profile,
)
from slopeflow.errors import AdmissibilityError, InputError, NoMonotoneSolutionError


@pytest.fixture(scope="module")
def unstable():
    return BundleParams(n=1, m=0, a=4, b=1)


@pytest.fixture(scope="module")
def lam(unstable):
    return min_slope_certificate(unstable).lam


def test_boundary_values_j(unstable, lam):
    assert steady_profile_j(unstable, lam, lam) == 0.0
    assert steady_profile_j(unstable, lam, 4.0) == pytest.approx(1.0, abs=1e-14)
    assert steady_profile_j(unstable, 0.0, 4.0) == pytest.approx(1.0, abs=1e-14)


def test_domain_guard_j(unstable, lam):
    with pytest.raises(InputError):
        steady_profile_j(unstable, lam, lam - 0.1)
    with pytest.raises(InputError):
        steady_profile_j(unstable, lam, 4.5)


def test_quadratic_contact_matches_half_coefficient(unstable, lam):
    # psi(lam + eps)/eps^2 tends to psi''(lam)/2 = n/(2 (1+lam)^2); the
    # doubled constant quoted alongside the expansion does not match.
    target = 1.0 / (2 * (1 + lam) ** 2)
    for eps in (1e-3, 1e-4, 1e-5):
        val = steady_profile_j(unstable, lam, lam + eps) / eps**2
        assert abs(val - target) < 0.01 * target or eps > 1e-4
    assert val == pytest.approx(target, rel=1e-4)


def test_steady_ode_residual_second_order(unstable, lam):
    errs = []
    for num in (101, 201, 401):
        prof = sample_steady_profile_j(unstable, lam, num)
        hgrid = prof.grid[1] - prof.grid[0]
        d = (prof.values[2:] - prof.values[:-2]) / (2 * hgrid)
        xin = prof.grid[1:-1]
        mu = 1.0 / (1 + lam)
        res = d + prof.values[1:-1] / (1 + xin) + 1 / (1 + xin) - mu
        errs.append(np.abs(res).max())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_derivative_consistency(unstable, lam):
    x = np.linspace(lam + 0.01, 3.99, 31)
    d_closed = steady_profile_j_derivative(unstable, lam, x)
    eps = 1e-6
    d_fd = (steady_profile_j(unstable, lam, x + eps) - steady_profile_j(unstable, lam, x - eps)) / (2 * eps)
    assert np.max(np.abs(d_closed - d_fd)) < 1e-8


def test_inversion_roundtrip(unstable, lam):
    for y in (0.01, 0.2, 0.5, 0.9):
        xv = invert_steady_profile_j(unstable, lam, y)
        assert steady_profile_j(unstable, lam, xv) == pytest.approx(y, abs=1e-12)


def test_comparison_family_j(unstable, lam):
    # every other puncture gives a strictly smaller profile in the interior
    x = np.linspace(0.5, 3.9, 25)
    top = steady_profile_j(unstable, lam, x)
    for s in (0.05, 0.2, lam * 0.9, lam * 1.2, 0.8, 1.5):
        xs = x[x > s + 1e-9]
        vals = steady_profile_j(unstable, s, xs)
        assert np.all(vals < top[x > s + 1e-9] + 1e-14)


def test_dhym_steady_boundaries():
    xi = 6 - math.sqrt(30)
    assert steady_profile_dhym(2, 3, xi, 1.0) == pytest.approx(xi, abs=1e-14)
    assert steady_profile_dhym(2, 3, xi, 2.0) == pytest.approx(3.0, abs=1e-14)
    assert steady_profile_dhym(2, 3, 1.0, 2.0) == pytest.approx(3.0, abs=1e-14)


def test_dhym_steady_identity_profile():
    # balanced pair: c vanishes and the profile is the identity
    assert steady_cot_slope(2, 2, 1) == pytest.approx(0.0)
    x = np.linspace(1, 2, 9)
    assert np.allclose(steady_profile_dhym(2, 2, 1, x), x, atol=1e-14)


def test_dhym_negative_branch_excluded():
    # s below the steady cotangent requires the decreasing branch
    c = steady_cot_slope(2, 3, 0)
    assert c == pytest.approx(0.5)
    with pytest.raises(NoMonotoneSolutionError):
        steady_profile_dhym(2, 3, 0, 1.5)


def test_dhym_integrated_relation_pointwise():
    # psi^2 - 2 c x psi - x^2 is constant along the closed form
    b, p, s = 2.0, 3.0, 0.9
    c = steady_cot_slope(b, p, s)
    A = s * s - 2 * c * s - 1
    x = np.linspace(1, 2, 501)
    psi = steady_profile_dhym(b, p, s, x)
    rel = psi**2 - 2 * c * x * psi - x**2
    assert np.max(np.abs(rel - A)) < 1e-12


def test_dhym_elementary_inequalities():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b = 1.0 + 3.0 * rng.random()
        p = 0.2 + 5.0 * rng.random()
        s = b * p - 0.05 - 6.0 * rng.random()
        if b * p <= s:
            continue
        c = steady_cot_slope(b, p, s)
        assert c < min(p / b, (p - s) / (b - 1), b * p) + 1e-12


def test_dhym_cot_concave_max_at_root():
    b, p = 2.0, 3.0
    xi = 6 - math.sqrt(30)
    s_grid = np.linspace(-3.0, b * p - 0.2, 400)
    c_vals = np.array([steady_cot_slope(b, p, s) for s in s_grid])
    second = c_vals[:-2] - 2 * c_vals[1:-1] + c_vals[2:]
    assert np.all(second < 1e-12)
    assert abs(s_grid[np.argmax(c_vals)] - xi) < 0.05
    assert np.max(c_vals) == pytest.approx(xi, abs=1e-3)


def test_dhym_comparison_family():
    b, p = 2.0, 3.0
    xi = 6 - math.sqrt(30)
    x = np.linspace(1.0, 2.0, 41)
    lower = steady_profile_dhym(b, p, xi, x)
    prev = lower
    for s in (0.8, 1.4, 2.5, 4.0):
        vals = steady_profile_dhym(b, p, s, x)
        assert np.all(vals[:-1] > prev[:-1] - 1e-12)
        assert vals[-1] == pytest.approx(p, abs=1e-12)
        prev = vals


def test_special_initial_data_below_steady():
    xi = 6 - math.sqrt(30)
    prof = special_cotangent_profile(2, 3, 0, 301)
    steady = steady_profile_dhym(2, 3, xi, prof.grid)
    gap = steady - prof.values
    assert np.all(gap[:-1] > 0)
    assert gap[-1] == pytest.approx(0.0, abs=1e-12)


def test_pointwise_slope_examples(unstable):
    stable = BundleParams(n=1, m=0, a=1, b=2)
    prof = sample_steady_profile_j(stable, 0.0, 801)
    sig = pointwise_slope(prof, stable)
    assert np.max(np.abs(sig[1:-1] - 10 / 3)) < 1e-4
    line = straight_line_profile(unstable, 257)
    sig_line = pointwise_slope(line, unstable)
    assert sig_line[-1] == pytest.approx(0.65, abs=1e-12)
    zero = MomentProfile(np.linspace(0, 4, 17), np.zeros(17), (0.0, 0.0))
    sig_zero = pointwise_slope(zero, unstable)
    assert np.allclose(sig_zero, 1 / (1 + zero.grid), atol=1e-14)


def test_pointwise_slope_rejects_decreasing(unstable):
    bad = MomentProfile(np.linspace(0, 4, 9), np.linspace(1, 0, 9), (1.0, 0.0))
    with pytest.raises(AdmissibilityError):
        pointwise_slope(bad, unstable)


def test_pointwise_angle_examples():
    idp = MomentProfile(np.linspace(1, 2, 101), np.linspace(1, 2, 101), (1.0, 2.0))
    th = pointwise_angle(idp)
    assert np.max(np.abs(th - math.pi / 2)) < 1e-12

    xi = 6 - math.sqrt(30)
    steady = sample_steady_profile_dhym(2, 3, xi, 2001)
    th2 = pointwise_angle(steady)
    cots = 1 / np.tan(th2[1:-1])
    away = steady.grid[1:-1] > 1.05  # centered differences blur the layer edge
    assert np.max(np.abs(cots[away] - xi)) < 1e-5

    sp = special_cotangent_profile(2, 3, 0, 4001)
    th3 = pointwise_angle(sp)
    # analytic cot at x = 1 is (mu^2 - 1 - lam^2/x^4)/(2 mu) = -1/4
    assert 1 / math.tan(th3[0]) == pytest.approx(-0.25, abs=2e-3)


def test_angle_stays_in_range():
    sp = special_cotangent_profile(2, 3, 0, 257)
    th = pointwise_angle(sp)
    assert np.all(th > 0) and np.all(th < math.pi)


def test_admissibility_predicates():
    grid = np.linspace(0, 4, 33)
    rising = MomentProfile(grid, grid / 4, (0.0, 1.0))
    assert admissible_j(rising)
    flat = MomentProfile(grid, np.zeros_like(grid), (0.0, 0.0))
    assert admissible_j(flat)  # degenerate-monotone allowed within tolerance
    gridc = np.linspace(1, 2, 33)
    # x psi = 3x - 1 is increasing, so psi = 3 - 1/x is admissible even
    # though it is concave; psi = 1/x^2 has x psi decreasing
    assert admissible_dhym(MomentProfile(gridc, 3 - 1 / gridc, (2.0, 2.5)))
    assert not admissible_dhym(MomentProfile(gridc, 1.0 / gridc**2, (1.0, 0.25)))


def test_singular_limit_profile(unstable, lam):
    prof = singular_limit_profile_j(unstable, 513)
    below = prof.grid <= lam
    assert np.all(prof.values[below] == 0)
    assert prof.values[-1] == 1.0
    assert admissible_j(prof)


def test_profile_validation():
    with pytest.raises(InputError):
        MomentProfile(np.array([0.0, 1.0, 0.5]), np.zeros(3), (0.0, 0.0))
    with pytest.raises(InputError):
        MomentProfile(np.linspace(0, 1, 9), np.linspace(0, 1, 9), (0.0, 2.0))


def test_profile_pins_its_own_copy_of_the_values():
    v = np.array([1e-10, 0.5, 1 - 1e-10])
    prof = MomentProfile(np.array([0.0, 1.0, 2.0]), v, (0.0, 1.0))
    assert v.tolist() == [1e-10, 0.5, 1 - 1e-10]
    assert prof.values.tolist() == [0.0, 0.5, 1.0]
