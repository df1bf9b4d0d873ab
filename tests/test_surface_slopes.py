"""Slope certificates on surfaces: roots, witnesses, verdicts."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from slopeflow.errors import InputError
from slopeflow.surface_lattice import DivisorClass, _sign, intersect, volume, zariski
from slopeflow.surface_slopes import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    _rounded_root,
    bigness_threshold,
    dhym_slope_certificate,
    j_slope_certificate,
    one_point_blowup_certificate,
)


def test_j_unstable_closed_form_root(blp2):
    alpha = DivisorClass.of(2, "0.3")
    beta = DivisorClass.of(3, 1)
    cert = j_slope_certificate(alpha, beta, blp2)
    # oracle: root of (2-3s)^2 = 8 s^2 gives xi = (3 + 2 sqrt 2)/2
    xi_exact = (3 + 2 * math.sqrt(2)) / 2
    assert abs(cert.slope - xi_exact) < 1e-14
    assert cert.verdict == UNSTABLE
    assert cert.topological_slope == pytest.approx(11.4 / 3.91, rel=1e-14)
    assert cert.slope < cert.topological_slope
    assert cert.bracket[0] <= cert.slope <= cert.bracket[1]
    # witness divisor is (5.7 - 4 sqrt 2) E, negative part of the Zariski split
    assert cert.witness is not None
    w = -float(cert.witness.coeffs[1])  # E-multiple in the (H, -E) basis
    assert abs(w - (5.7 - 4 * math.sqrt(2))) < 1e-14
    assert abs(cert.witness_slope - xi_exact) < 1e-14


def test_j_witness_realizes_slope_exactly(blp2):
    alpha = DivisorClass.of(2, "0.3")
    beta = DivisorClass.of(3, 1)
    cert = j_slope_certificate(alpha, beta, blp2)
    ap = alpha - cert.witness
    recomputed = 2 * intersect(ap, beta, blp2) / intersect(ap, ap, blp2)
    assert abs(float(recomputed) - cert.slope) < 1e-9


def test_j_stable_curve_slopes(blp2):
    alpha = DivisorClass.of(2, 1)   # 2H - E
    beta = DivisorClass.of(3, 1)    # 3H - E
    cert = j_slope_certificate(alpha, beta, blp2)
    mu = F(10, 3)
    slopes = [
        intersect(beta, c, blp2) / intersect(alpha, c, blp2) for c in blp2.curves
    ]
    assert slopes == [F(1), F(2), F(3, 2)]
    assert all(s < mu for s in slopes)
    assert cert.verdict == STABLE
    assert cert.slope == pytest.approx(float(mu), abs=1e-12)
    assert cert.residual == 0.0


def test_j_alpha_equals_beta(blp2):
    alpha = DivisorClass.of(2, "0.5")
    cert = j_slope_certificate(alpha, alpha, blp2)
    assert cert.slope == pytest.approx(2.0, abs=1e-12)
    assert cert.verdict == STABLE


def test_j_requires_kahler_inputs(blp2):
    with pytest.raises(InputError):
        j_slope_certificate(DivisorClass.of(1, 1), DivisorClass.of(3, 1), blp2)


def test_j_destabilizing_witness_property(blp2):
    alpha = DivisorClass.of(2, "0.3")
    beta = DivisorClass.of(3, 1)
    cert = j_slope_certificate(alpha, beta, blp2)
    d = cert.witness
    mu = 2 * intersect(alpha, beta, blp2) / intersect(alpha, alpha, blp2)
    assert intersect(beta, d, blp2) / intersect(alpha, d, blp2) > mu


def test_j_decreasing_volume_ratio(blp2):
    # f(s) = vol(alpha - s beta)/(s^2 beta^2) strictly decreasing on the bracket
    alpha = DivisorClass.of(2, "0.3")
    beta = DivisorClass.of(3, 1)
    b2 = intersect(beta, beta, blp2)
    mu = 2 * intersect(alpha, beta, blp2) / intersect(alpha, alpha, blp2)
    values = []
    for k in range(40):
        s = (1 / mu) * (1 + F(k, 60))
        v = volume(alpha - s * beta, blp2) / (s * s * b2)
        if v == 0:
            break
        values.append(v)
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))


def test_dhym_unstable_root(blp2):
    alpha = DivisorClass.of(3, 0)
    beta = DivisorClass.of(2, 1)
    cert = dhym_slope_certificate(alpha, beta, blp2)
    xi_exact = 6 - math.sqrt(30)  # root of t^2 - 12t + 6 = 0
    assert abs(cert.slope - xi_exact) < 1e-14
    assert cert.verdict == UNSTABLE
    assert cert.topological_slope == pytest.approx(0.5, abs=1e-15)
    assert cert.slope >= cert.topological_slope
    assert abs(cert.witness_slope - cert.slope) < 1e-14


def test_dhym_alpha_equals_beta(blp2):
    alpha = DivisorClass.of(2, 1)
    cert = dhym_slope_certificate(alpha, alpha, blp2)
    assert cert.slope == pytest.approx(0.0, abs=1e-15)
    assert cert.verdict == STABLE


def test_dhym_stable_case(blp2):
    alpha = DivisorClass.of(3, 1)   # 3H - E
    beta = DivisorClass.of(2, 1)    # 2H - E
    cert = dhym_slope_certificate(alpha, beta, blp2)
    assert cert.topological_slope == pytest.approx(0.5)
    assert cert.verdict == STABLE
    assert cert.slope == pytest.approx(0.5, abs=1e-12)


def test_dhym_sign_convention_guard(blp2):
    with pytest.raises(InputError):
        dhym_slope_certificate(DivisorClass.of(-3, 0), DivisorClass.of(2, 1), blp2)


def test_dhym_volume_equation_convexity(blp2):
    # f(t) = vol(alpha - t beta) - (1+t^2) beta^2 has nonnegative second
    # differences on a uniform grid inside the big range
    alpha = DivisorClass.of(3, 0)
    beta = DivisorClass.of(2, 1)
    b2 = intersect(beta, beta, blp2)
    ts = [F(1, 2) + F(k, 100) for k in range(60)]
    vals = [volume(alpha - t * beta, blp2) - (1 + t * t) * b2 for t in ts]
    second = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, len(vals) - 1)]
    assert all(s >= 0 for s in second)


def test_bigness_threshold(blp2):
    alpha = DivisorClass.of(3, 0)
    beta = DivisorClass.of(2, 1)
    # alpha - t beta = (3-2t)H + tE is big for t < 3/2
    assert bigness_threshold(alpha, beta, blp2) == 1.5


def test_closed_form_matches_paper_example():
    cert = one_point_blowup_certificate(2, 3, 0)
    assert abs(cert.slope - (6 - math.sqrt(30))) < 1e-12
    assert cert.verdict == UNSTABLE
    assert cert.topological_slope == pytest.approx(0.5)


def test_closed_form_semistable_boundary():
    # (b,p,q) = (3,1,-1): the discriminant is a perfect square and q = c0,
    # so the trichotomy sits exactly on the semistable boundary
    cert = one_point_blowup_certificate(3, 1, -1)
    assert cert.verdict == SEMISTABLE
    assert cert.slope == pytest.approx(-1.0, abs=1e-12)
    assert cert.topological_slope == pytest.approx(-1.0, abs=1e-15)


def test_closed_form_balanced_pair_is_stable():
    cert = one_point_blowup_certificate(2, 2, 1)
    assert cert.verdict == STABLE
    assert cert.slope == pytest.approx(0.0, abs=1e-15)


def test_closed_form_near_boundary_instance():
    # q = 1/2 sits just below c0 = 23/44, hence unstable with the generic root
    cert = one_point_blowup_certificate(2, 3, F(1, 2))
    assert cert.topological_slope == pytest.approx(float(F(23, 44)), abs=1e-15)
    assert cert.verdict == UNSTABLE
    assert abs(cert.slope - (6 - math.sqrt(30))) < 1e-12


def test_closed_form_input_guards():
    with pytest.raises(InputError):
        one_point_blowup_certificate(1, 3, 0)
    with pytest.raises(InputError):
        one_point_blowup_certificate(2, 1, 5)


def test_closed_form_agrees_with_volume_solver(blp2):
    rng = np.random.default_rng(20240817)
    agree = 0
    while agree < 100:
        b = F(int(rng.integers(11, 40)), 10)
        p = F(int(rng.integers(5, 60)), 10)
        q = F(int(rng.integers(-20, int(10 * float(b * p)) - 1)), 10)
        if b * p <= q:
            continue
        closed = one_point_blowup_certificate(b, p, q)
        alpha = DivisorClass((p, q))
        beta = DivisorClass((b, F(1)))
        general = dhym_slope_certificate(alpha, beta, blp2)
        assert (closed.slope, closed.bracket) == (general.slope, general.bracket), (b, p, q)
        assert (closed.witness, closed.witness_slope) == (general.witness, general.witness_slope), (b, p, q)
        assert closed.verdict == general.verdict, (b, p, q)
        assert closed.residual == general.residual, (b, p, q)
        # every field, the equation and the topological slope included
        assert closed == general, (b, p, q)
        _assert_exact(general, alpha, beta, blp2)
        agree += 1


def test_certificate_serialization(blp2):
    cert = dhym_slope_certificate(DivisorClass.of(3, 0), DivisorClass.of(2, 1), blp2)
    d = cert.to_dict()
    assert d["schema"] == 1
    assert d["verdict"] == UNSTABLE
    assert isinstance(d["witness"]["coeffs"][1], float)


def _volume_gap(equation, alpha, beta, model, xi):
    """f(xi) of the certificate's volume equation, exactly: J in xi = 1/t."""
    xi = F(xi)
    b2 = intersect(beta, beta, model)
    if equation == "j":
        return volume(alpha - (1 / xi) * beta, model) - b2 / (xi * xi)
    return volume(alpha - xi * beta, model) - (1 + xi * xi) * b2


def _assert_exact(cert, alpha, beta, model):
    """The bracket is at most 2 ulps wide and straddles the volume equation."""
    lo, hi = cert.bracket
    assert lo <= cert.slope <= hi
    assert hi <= math.nextafter(math.nextafter(lo, math.inf), math.inf)
    f_lo = _volume_gap(cert.equation, alpha, beta, model, lo)
    f_hi = _volume_gap(cert.equation, alpha, beta, model, hi)
    # J: f < 0 below the root and > 0 above; dHYM: the other way round
    sign = -1 if cert.equation == "j" else 1
    assert sign * f_lo >= 0 >= sign * f_hi


WALL_CROSSING = ("dhym", "two_point", "1,-4,-1", "3,1,1")

EXACT_CASES = [
    ("j", "blp2", "2,0.3", "3,1"),
    ("j", "blp2", "2,1", "3,1"),
    ("j", "blp2", "2,0.5", "2,0.5"),
    ("dhym", "blp2", "3,0", "2,1"),
    ("dhym", "blp2", "2,1", "2,1"),
    ("dhym", "blp2", "3,1", "2,1"),
    WALL_CROSSING,
]


@pytest.mark.parametrize("equation,model_name,alpha,beta", EXACT_CASES)
def test_certificate_bracket_is_exact(equation, model_name, alpha, beta, request):
    model = request.getfixturevalue(model_name)
    alpha, beta = DivisorClass.parse(alpha), DivisorClass.parse(beta)
    solve = j_slope_certificate if equation == "j" else dhym_slope_certificate
    _assert_exact(solve(alpha, beta, model), alpha, beta, model)


def test_dhym_root_past_a_chamber_wall(two_point):
    # alpha = H + 4E1 + E2, beta = 3H - E1 - E2: the negative part of
    # alpha - t beta is supported on E1 at c0 and on E1 + E2 at the root,
    # where the volume equation reads t^2 - 3t - 3 = 0
    _, _, alpha, beta = WALL_CROSSING
    alpha, beta = DivisorClass.parse(alpha), DivisorClass.parse(beta)
    cert = dhym_slope_certificate(alpha, beta, two_point)
    c0 = F(-23, 16)
    assert cert.topological_slope == float(c0)
    assert [i for i, _ in zariski(alpha - c0 * beta, two_point).negative] == [0]
    assert cert.verdict == UNSTABLE
    assert cert.witness.coeffs[0] == 0
    assert cert.witness.coeffs[1] < 0 and cert.witness.coeffs[2] < 0
    # (3 - sqrt 21)/2 lies in the bracket: compare (3 - 2x)^2 with 21 exactly
    lo, hi = (F(x) for x in cert.bracket)
    assert 3 - 2 * lo > 0 and (3 - 2 * lo) ** 2 >= 21 >= (3 - 2 * hi) ** 2
    assert cert.slope == pytest.approx((3 - math.sqrt(21)) / 2, abs=1e-15)
    assert abs(cert.witness_slope - cert.slope) < 1e-14


def _nearer_end(r, s, d, lo, hi):
    """The end of [lo, hi] nearer the irrational root r + s sqrt(d): the root
    lies above the midpoint exactly when s sqrt(d) > midpoint - r, which is
    decided by signs and then by comparing squares."""
    u = (F(lo) + F(hi)) / 2 - r
    above = s > 0 if (s > 0) != (u > 0) else (s * s * d > u * u) == (s > 0)
    return hi if above else lo


def _near_midpoint(r, s, d, lo, hi):
    """Whether r + s sqrt(d) lies within 2^-64 relative of the midpoint of
    [lo, hi], where a float of a 2^-64 approximant may be the farther end."""
    mid = (F(lo) + F(hi)) / 2
    eps = abs(mid) / 2**64
    return _sign(mid + eps - r, -s, d) > 0 > _sign(mid - eps - r, -s, d)


#: roots (r, s, d) so near the midpoint of their float bracket that the first
#: float `_nearest_float` takes, from isqrt with 65 spare bits, is the farther
#: end, so only its midpoint test picks the nearer one; both signs of the
#: root, and both of its first-float formulas (a b >= 0 and a b < 0)
NEAR_TIES = [
    (F(-41683, 2121), F(-5891, 892), F(5256)),
    (F(-27596, 3437), F(2599, 254), F(614497, 665)),
    (F(8348, 9421), F(-139, 718), F(452021, 96)),
    (F(69240, 8941), F(6959, 929), F(357866, 565)),
    (F(-5767, 562), F(6466, 535), F(439939, 499)),
    (F(57941, 3338), F(-2469, 110), F(714195, 919)),
]


@pytest.mark.parametrize("r,s,d", NEAR_TIES)
def test_rounded_root_near_a_tie_is_the_nearer_float(r, s, d):
    x, (lo, hi), xf = _rounded_root(r, s, d)
    assert lo < hi and x == _nearer_end(r, s, d, lo, hi) and xf == F(x)
    assert _near_midpoint(r, s, d, lo, hi)


def test_rounded_root_sweep_is_the_nearer_float():
    """Random roots, rational ones (s = 0 or a square d) among them, and roots
    built within 2^-100 of their bracket's midpoint on either side: each
    rounds to the nearer end of the bracket, and the third value is the exact
    root when it is rational, else the float as a Fraction."""
    rng = random.Random(19)
    cases = []
    for _ in range(2000):
        cases.append((
            F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)),
            F(rng.choice([-1, 1]) * rng.randint(1, 10**4), rng.randint(1, 10**3)),
            F(rng.randint(1, 10**6), rng.randint(1, 10**3)),
        ))
    for _ in range(300):
        # a power-of-two denominator makes some rational roots floats
        r = F(rng.randint(-10**6, 10**6), rng.choice((1, 2, 64, 3, 7, 10**4)))
        s = F(rng.randint(-1000, 1000), rng.randint(1, 100))
        d = F(rng.randint(0, 300), rng.randint(1, 20)) ** 2
        cases += [(r, F(0), F(rng.randint(0, 10**5), rng.randint(1, 1000))), (r, s, d)]
    for _ in range(300):
        x = rng.uniform(-100, 100)
        mid = (F(x) + F(math.nextafter(x, math.inf))) / 2
        d = rng.randint(2, 10**6)
        s = F(rng.choice([-1, 1]))
        # r + s sqrt(d) = mid + s (sqrt(d) - floor(sqrt(d) 2^100) / 2^100)
        cases.append((mid - s * F(math.isqrt(d << 200), 1 << 100), s, F(d)))
    ties = exact = 0
    for r, s, d in cases:
        x, (lo, hi), xf = _rounded_root(r, s, d)
        assert type(xf) is F
        n = d.numerator * d.denominator
        if not s or math.isqrt(n) ** 2 == n:
            root = r + s * F(math.isqrt(n), d.denominator)
            assert xf == root and x == float(root), (r, s, d)
            assert F(lo) <= root <= F(hi) and (lo == hi) == (F(x) == root)
            exact += lo == hi
            continue
        assert lo < hi and x == _nearer_end(r, s, d, lo, hi) and xf == F(x), (r, s, d)
        assert _sign(F(lo) - r, -s, d) < 0 < _sign(F(hi) - r, -s, d)
        ties += _near_midpoint(r, s, d, lo, hi)
    assert ties > 0 and exact > 0


def test_one_point_blowup_slope_is_the_nearer_float():
    cert = one_point_blowup_certificate(F(41, 19), F(177, 71), 0)
    assert cert.bracket == (0.24328434281804986, 0.2432843428180499)
    assert cert.slope == 0.2432843428180499
    assert cert.witness.coeffs == (0, -F(cert.slope))
