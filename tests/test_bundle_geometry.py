"""Exact bundle intersection theory: ring oracle, slopes, identities."""

import math
from fractions import Fraction as F

import pytest

from slopeflow.bundle_geometry import (
    BundleParams,
    ChowElement,
    blowup_mixed_power,
    blowup_mixed_power_sum,
    blowup_top_power,
    blowup_top_power_sum,
    combinatorial_identity_check,
    count_compositions,
    critical_polynomial,
    intersection_number,
    min_slope_certificate,
    pairing_number,
    steady_slope,
    steady_slope_chow,
    weight_integral,
)
from slopeflow.energy_functionals import energy_infimum, l2_slope_deviation
from slopeflow.errors import InputError
from slopeflow.surface_slopes import SEMISTABLE, STABLE, UNSTABLE


def test_weight_integral_exact_values():
    assert weight_integral(0, 1, 0, 4) == 12          # int_0^4 (1+t) dt
    assert weight_integral(1, 1, 0, 1) == F(5, 6)     # 1/2 + 1/3
    assert weight_integral(3, 2, F(1, 2), F(1, 2)) == 0


def test_pairing_small_fiber():
    # r = 2, l = 1 on the (m,n,d) = (0,1,1) bundle: eta^2 pairs to 1
    params = BundleParams(n=1, m=0, a=1, b=1)
    assert pairing_number(1, params) == 1
    # l = 0 is the section pairing h^n eta^(r-1) = d
    params_d = BundleParams(n=1, m=0, a=1, b=1, d=F(7, 3))
    assert pairing_number(0, params_d) == F(7, 3)


def test_top_power_via_ring_and_closed_form():
    params = BundleParams(n=1, m=1, a=1, b=1)
    alpha = ChowElement.fiber_class(params, 1)
    assert intersection_number([alpha**3], params) == 5
    assert blowup_top_power(params, 0) == 5


def test_degree_mismatch_warns_and_returns_zero():
    params = BundleParams(n=1, m=0, a=1, b=1)
    h = ChowElement.hyperplane(params)
    with pytest.warns(RuntimeWarning):
        assert intersection_number([h], params) == 0


def test_pairing_recursion_matches_binomials():
    for n in range(1, 7):
        for r in range(2, 7):
            params = BundleParams(n=n, m=r - 2, a=1, b=1, d=F(3, 2))
            for l in range(0, n + 1):
                assert pairing_number(l, params) == math.comb(r + l - 2, l) * F(3, 2)


def test_steady_slope_examples():
    assert steady_slope(BundleParams(n=1, m=0, a=1, b=2), 0) == F(10, 3)
    assert steady_slope(BundleParams(n=1, m=0, a=4, b=1), 0) == F(3, 4)


def test_steady_slope_diverges_at_puncture_limit():
    params = BundleParams(n=1, m=0, a=4, b=1)
    assert steady_slope(params, 4 - F(1, 10**6)) > 10**5
    with pytest.raises(InputError):
        steady_slope(params, 4)


def test_slope_oracle_equivalence_grid():
    grid = [F(1, 2), F(2, 3), F(1), F(7, 4), F(3)]
    for m in range(0, 5):
        for n in range(1, 5):
            for a in grid:
                for b in grid:
                    params = BundleParams(n=n, m=m, a=a, b=b)
                    assert steady_slope(params, 0) == steady_slope_chow(params)


def test_blowup_identities_exact():
    for m in range(0, 4):
        for n in range(1, 4):
            params = BundleParams(n=n, m=m, a=2, b=F(5, 4), d=F(2, 3))
            for s in (F(1, 3), F(1), F(7, 4)):
                assert blowup_top_power(params, s) == blowup_top_power_sum(params, s)
                assert blowup_mixed_power(params, s) == blowup_mixed_power_sum(params, s)


def test_unstable_certificate_closed_form():
    params = BundleParams(n=1, m=0, a=4, b=1)
    cert = min_slope_certificate(params)
    assert cert.verdict == UNSTABLE
    # oracle: lambda solves lambda^2 - 18 lambda + 6 = 0
    lam_exact = 9 - 5 * math.sqrt(3)
    assert abs(cert.lam - lam_exact) < 1e-12
    zeta_exact = (2 + math.sqrt(3)) / 5
    assert abs(cert.zeta_inv - zeta_exact) < 1e-12
    assert cert.zeta_inv < float(cert.mu0)
    poly = critical_polynomial(params)
    # p(s) = -3 + 9s - s^2/2 up to normalization
    assert [poly[0], poly[1], poly[2]] == [F(-3), F(9), F(-1, 2)]


def test_stable_certificate():
    cert = min_slope_certificate(BundleParams(n=1, m=0, a=1, b=2))
    assert cert.verdict == STABLE
    assert cert.lam is None
    assert cert.zeta_inv == pytest.approx(10 / 3)


def test_semistable_tuning():
    # b = a^2 / (2(1+a)) makes mu0 = n exactly
    cert = min_slope_certificate(BundleParams(n=1, m=0, a=4, b=F(8, 5)))
    assert cert.mu0 == 1
    assert cert.verdict == SEMISTABLE
    assert cert.lam == 0.0
    assert cert.zeta_inv == 1.0


#: (m, k) with n = 1, a = 2 and b = b*(1 - 2^-k) just below the semistable height
#: b* = 4/(3(m+2)); mu0 - n/(1+root) is then below what one float step of the
#: puncture resolves, so the minimal slope at the float puncture can pass mu0
NEAR_SEMISTABLE = [(2, k) for k in (16, 18, 19, 21, 22, 23, 24, 25, 27)] + [
    (3, k) for k in (11, 13, 19, 20, 22, 23, 24, 25, 26, 27)
]


@pytest.mark.parametrize("m,k", NEAR_SEMISTABLE)
def test_near_semistable_certificate_and_energies(m, k):
    params = BundleParams(n=1, m=m, a=2, b=F(4, 3 * (m + 2)) * (1 - F(1, 2**k)))
    cert = min_slope_certificate(params)
    assert cert.verdict == UNSTABLE
    lo, hi = cert.bracket
    assert 0 < lo < hi == math.nextafter(lo, math.inf) and cert.lam in (lo, hi)
    assert cert.zeta_inv == pytest.approx(float(cert.mu0), rel=1e-6)
    assert energy_infimum(params).value > 0
    assert 0 <= l2_slope_deviation(params) < 1e-10


def test_slope_function_convex_with_unique_minimum():
    params = BundleParams(n=1, m=0, a=4, b=1)
    cert = min_slope_certificate(params)
    vals = [float(steady_slope(params, F(k, 100))) for k in range(0, 390)]
    second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
    assert all(s > -1e-12 for s in second)
    first = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
    sign_changes = sum(
        1 for f1, f2 in zip(first, first[1:]) if (f1 < 0) != (f2 < 0)
    )
    assert sign_changes == 1
    k_min = min(range(len(vals)), key=vals.__getitem__)
    assert abs(k_min / 100 - cert.lam) < 0.02
    assert min(vals) == pytest.approx(cert.zeta_inv, abs=1e-4)


def test_combinatorial_identity_examples():
    # (s,q) = (1,2): 2*2 - 1*1 = 3 = C(3,2)
    assert combinatorial_identity_check(1, 2)
    assert count_compositions(1, 2) == 3


def test_combinatorial_identity_sweep():
    assert all(
        combinatorial_identity_check(s, q)
        for s in range(1, 13)
        for q in range(1, 13)
    )


def test_params_validation():
    with pytest.raises(InputError):
        BundleParams(n=0, m=0, a=1, b=1)
    with pytest.raises(InputError):
        BundleParams(n=1, m=0, a=-1, b=1)
    p = BundleParams.parse("1,2,3,4,5")
    assert (p.m, p.n, p.a, p.b, p.d) == (1, 2, F(3), F(4), F(5))


def _as(kind, value: F):
    """value as an argument of the given type."""
    return value if kind is F else kind(value) if kind is not str else str(value)


@pytest.mark.parametrize("kind", [F, int, str, float])
def test_params_errors_equality_and_hash_across_input_types(kind):
    """Fraction, int, str and float heights give the same errors, and equal
    values give equal params with equal hashes, holding Fractions."""
    one, three = _as(kind, F(1)), _as(kind, F(3))
    with pytest.raises(InputError, match=r"^need base dimension n >= 1 and m >= 0$"):
        BundleParams(n=0, m=0, a=three, b=one)
    with pytest.raises(InputError, match=r"^need base dimension n >= 1 and m >= 0$"):
        # the dimensions are checked before the heights
        BundleParams(n=1, m=-1, a=_as(kind, F(-1)), b=one)
    for bad in (F(0), F(-2)):
        for slot in ("a", "b", "d"):
            args = {"a": three, "b": one, "d": one, slot: _as(kind, bad)}
            with pytest.raises(InputError, match=r"^a, b, d must be positive$"):
                BundleParams(n=1, m=0, **args)
    p = BundleParams(n=2, m=1, a=three, b=one, d=_as(kind, F(2)))
    ref = BundleParams(n=2, m=1, a=F(3), b=F(1), d=F(2))
    assert p == ref and hash(p) == hash(ref)
    assert all(type(v) is F for v in (p.a, p.b, p.d))
    if kind is not int:
        half = BundleParams(n=1, m=0, a=_as(kind, F(3, 2)), b=_as(kind, F(1, 4)))
        assert half == BundleParams(n=1, m=0, a=F(3, 2), b=F(1, 4)) and half.a == F(3, 2)
        assert hash(half) == hash(BundleParams(n=1, m=0, a=F(3, 2), b=F(1, 4)))
    if kind is str:
        with pytest.raises(ValueError):
            BundleParams(n=1, m=0, a="x", b=one)


def test_invariant_vs_surface_minimal_slope():
    """On the surface instance the bundle slope agrees with the Zariski route.

    The (m,n) = (0,1) bundle over the line is the one-point blow-up of the
    plane; the invariant minimal slope there should coincide with the
    J-slope root computed through volumes, with the puncture matching the
    witness weight.  This checks the conjectured equality in the one case
    where both machines apply.
    """
    from slopeflow.surface_lattice import DivisorClass
    from slopeflow.surface_slopes import blowup_plane_model, j_slope_certificate

    model = blowup_plane_model()
    for a, b in [(4, 1), (3, 1), (5, 2)]:
        params = BundleParams(n=1, m=0, a=a, b=b)
        bundle = min_slope_certificate(params)
        alpha = DivisorClass.of(1 + a, 1)  # [omega] + a eta = (1+a)H - E
        beta = DivisorClass.of(1 + b, 1)
        surface = j_slope_certificate(alpha, beta, model)
        assert surface.verdict == bundle.verdict
        assert abs(float(bundle.mu0) - surface.topological_slope) < 1e-12
        assert abs(bundle.zeta_inv - surface.slope) < 1e-9
        if bundle.lam is not None and surface.witness is not None:
            weight = -float(surface.witness.coeffs[1])
            assert abs(weight - bundle.lam) < 1e-9
