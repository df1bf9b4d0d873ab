"""The exact kernels against the Fraction loops they replaced.

Each oracle below is the straightforward Fraction computation: per-segment
polynomial integration of PL data, the worklist reduction of the Chow ring
(also over the pairing sweep of `verify identities`), the Fraction weight
integral, slope, limit-Hamiltonian data and PL slopes that the integer
kernels replaced, direct evaluation and binomial expansion of the critical
polynomial and of the weight integral, and the Fraction pairing, eliminations and Zariski
decomposition of the surface lattice, on which the surface certificates are
also rerun; the Fraction rounding of a quadratic-surd root and the Fraction
one-point blow-up certificate against their integer kernels.  The kernels in src/ must agree with them exactly.  The
float steady J profile is checked bit for bit against its binomial
expansion, its inverse against the 80 halvings that Newton replaced, and
the closed-form L2 slope deviation against Simpson's rule
and, near semistability, against its Taylor series summed in Fraction.
The flows' checkpoint diagnostics, computed over blocks of stacked
profiles, are checked bit for bit against the time loop that computed them
one checkpoint at a time; the implicit step's matrix entries against central
differences of the flux they linearize; and the factored calibration volume
against its expanded integrand.
"""

import itertools
import math
import random
import warnings
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopeflow import calabi_profiles, energy_functionals, flow_engine
from slopeflow.bundle_geometry import (
    BundleParams,
    ChowElement,
    _alpha_pairings,
    _antiderivative_at,
    _chow_slope,
    _energy_constant,
    critical_polynomial,
    intersection_number,
    min_slope_certificate,
    pairing_number,
    steady_slope,
    steady_slope_chow,
    weight_integral,
)
from slopeflow.calabi_profiles import (
    ADMISSIBILITY_TOL,
    _NEWTON_CAP,
    _angle,
    _invert_profile,
    _slope_field,
    _steady_j,
    invert_steady_profile_j,
    special_cotangent_profile,
    steady_profile_j,
    steady_profile_j_derivative,
)
from slopeflow.energy_functionals import (
    PLTestConfig,
    _exact_sum,
    _pl_integrals,
    _rounded_sum,
    _volume_geometry,
    _volume_values,
    energy_infimum,
    futaki_invariant,
    l2_slope_deviation,
    minimizing_sequence,
    pl_limit_hamiltonian,
)
from slopeflow import surface_slopes
from slopeflow.errors import InputError, NotBigError
from slopeflow.surface_lattice import (
    DivisorClass,
    _sign,
    intersect,
    is_kahler,
    is_nef,
    to_fraction,
    volume,
    zariski,
)
from slopeflow.surface_slopes import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    SlopeCertificate,
    bigness_threshold,
    dhym_slope_certificate,
    j_slope_certificate,
    one_point_blowup_certificate,
)

# ---------------------------------------------------------------------------
# PL integrals: one polynomial product and integral per segment


def _binomial_poly(m, k):
    """Ascending coefficients of x^m (1+x)^k."""
    out = [F(0)] * (m + k + 1)
    for j in range(k + 1):
        out[m + j] = F(math.comb(k, j))
    return out


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_int(coeffs, lo, hi):
    return sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))


def _integrate_pl(cfg, weight, square=False):
    """Exact integral of h (or h^2) against a polynomial weight, segment by segment."""
    total = F(0)
    for b1, b2, v1, v2 in zip(cfg.breakpoints, cfg.breakpoints[1:], cfg.values, cfg.values[1:]):
        s = (v2 - v1) / (b2 - b1)
        seg = [v1 - s * b1, s]  # h(x) = v1 + s (x - b1)
        if square:
            seg = _poly_mul(seg, seg)
        total += _poly_int(_poly_mul(seg, weight), b1, b2)
    return total


def _oracle_integrals(cfg, m, n):
    w = _binomial_poly(m, n)
    return (
        _integrate_pl(cfg, w),
        _integrate_pl(cfg, _binomial_poly(m, n - 1)),
        _integrate_pl(cfg, w, square=True),
    )


@st.composite
def convex_pl(draw):
    """Convex PL data on [0, a] with a flat last segment, rational everywhere."""
    k = draw(st.integers(1, 7))
    widths = draw(st.lists(st.fractions(F(1, 9), F(3), max_denominator=12), min_size=k + 1, max_size=k + 1))
    rises = draw(st.lists(st.fractions(0, F(5), max_denominator=10), min_size=k, max_size=k))
    # slopes -(r_1 + ... + r_k), ..., -r_k, 0 are nondecreasing
    slopes = [-sum(rises[i:]) for i in range(k)] + [F(0)]
    bps, vals = [F(0)], [draw(st.fractions(-3, 3, max_denominator=7))]
    for w, s in zip(widths, slopes):
        bps.append(bps[-1] + w)
        vals.append(vals[-1] + s * w)
    return PLTestConfig(breakpoints=tuple(bps), values=tuple(vals))


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


def _pl_exact(cfg, m, n):
    """int h w, int h v and int h^2 w from `_pl_integrals`, the square summed
    by the exact tree, and the square's float from `_rounded_sum`."""
    (u, v, den), square = _pl_integrals(cfg, m, n)
    return (F(u, den), F(v, den), F(*_exact_sum(square))), _rounded_sum(square)


@settings(max_examples=60, deadline=None)
@given(cfg=convex_pl(), m=st.integers(0, 3), n=st.integers(1, 4))
def test_pl_integrals_match_segment_oracle(cfg, m, n):
    exact, rounded = _pl_exact(cfg, m, n)
    oracle = _oracle_integrals(cfg, m, n)
    assert exact == oracle
    assert _bits(math.sqrt(rounded)) == _bits(math.sqrt(float(oracle[2])))


@pytest.mark.parametrize("params", [BundleParams(n=1, m=0, a=4, b=1), BundleParams(n=2, m=1, a=3, b=1)])
@pytest.mark.parametrize("breakpoints", [16, 64, 256])
def test_pl_integrals_match_oracle_on_limit_hamiltonian(params, breakpoints, monkeypatch):
    """b0, b0', fut and the norm are the oracle's; with no guard bits the
    square goes through the exact tree, after the one tree of b0 and b0'."""
    cfg = pl_limit_hamiltonian(params, breakpoints)
    b0, tail, square = _oracle_integrals(cfg, params.m, params.n)
    assert _pl_exact(cfg, params.m, params.n)[0] == (b0, tail, square)
    rep = futaki_invariant(cfg, params)
    b0p = params.n * tail + cfg.values[-1] * params.a**params.m * (1 + params.a) ** params.n * params.b
    assert (rep.b0, rep.b0_prime, rep.fut) == (b0, b0p, steady_slope(params, 0) * b0 - b0p)
    assert _bits(rep.norm) == _bits(math.sqrt(float(square)))
    widths = []

    def tree(terms):
        widths.append(len(terms[0]))
        return _exact_sum(terms)

    monkeypatch.setattr(energy_functionals, "_exact_sum", tree)
    monkeypatch.setattr(energy_functionals, "_GUARD_BITS", 0)
    assert futaki_invariant(cfg, params) == rep
    assert widths == [3, 2]


@pytest.mark.parametrize(
    "terms,falls_back",
    [
        # exactly halfway between two floats: 1 + 2^-53 rounds to 1
        ([(1, 1), (1, 2**53)], True),
        # cancellation past the guard bits: 1/3 - (1/3 - 2^-200)
        ([(1, 3), (-(2**200 - 3), 3 * 2**200)], True),
        # terms that cancel to zero
        ([(5, 7), (-10, 14)], True),
        # large terms, whose scale 2^K is below 1
        ([(3**300, 7), (-(3**300), 11), (1, 5)], False),
    ],
)
def test_rounded_sum_falls_back_to_the_exact_tree(monkeypatch, terms, falls_back):
    """Sums on a rounding boundary, or cancelling past the guard bits, fail
    the floor test and fall back to the exact tree; with no guard bits every
    sum falls back.  Either way the float is the exact sum's, correctly
    rounded."""
    exact = float(sum(F(num, den) for num, den in terms))
    calls = []

    def tree(t):
        calls.append(t)
        return _exact_sum(t)

    monkeypatch.setattr(energy_functionals, "_exact_sum", tree)
    assert _bits(_rounded_sum(terms)) == _bits(exact)
    assert calls == ([terms] if falls_back else [])
    calls.clear()
    monkeypatch.setattr(energy_functionals, "_GUARD_BITS", 0)
    assert _bits(_rounded_sum(terms)) == _bits(exact)
    assert calls == [terms]


# ---------------------------------------------------------------------------
# Chow ring: Fraction products reduced by a worklist against eta^r


def _worklist_reduce(terms, n, r):
    out, work = {}, dict(terms)
    while work:
        pending = {}
        for (k, l), v in work.items():
            if v == 0 or k > n:
                continue
            if l < r:
                out[(k, l)] = out.get((k, l), F(0)) + v
                continue
            for j in range(1, r):
                key = (k + j, l - j)
                pending[key] = pending.get(key, F(0)) + (-1) ** (j - 1) * math.comb(r - 1, j) * v
        work = pending
    return {key: v for key, v in out.items() if v != 0}


def _worklist_pairing(factors, params):
    n, r = params.n, params.r
    product = {(0, 0): F(1)}
    for f in factors:
        out = {}
        for (k1, l1), v1 in product.items():
            for (k2, l2), v2 in f.items():
                key = (k1 + k2, l1 + l2)
                out[key] = out.get(key, F(0)) + v1 * v2
        product = _worklist_reduce(out, n, r)
    return product.get((n, r - 1), F(0)) * params.d


def test_intersection_numbers_match_worklist_oracle():
    heights = (F(0), F(1), F(-2, 3), F(5, 4), F(7, 2))
    checked = 0
    for n, m in itertools.product(range(1, 4), range(0, 3)):
        params = BundleParams(n=n, m=m, a=F(3, 2), b=F(2, 5), d=F(4, 3))
        for hs in itertools.combinations_with_replacement(heights, params.dim):
            factors = [{(1, 0): F(1), (0, 1): t} for t in hs]
            ring = intersection_number([ChowElement.fiber_class(params, t) for t in hs], params)
            assert ring == _worklist_pairing(factors, params)
            checked += 1
        # mixed-degree and out-of-basis input goes through the constructor
        raw = {(0, 2 * params.r + 1): F(3, 5), (1, params.r): F(-1, 4), (n + 1, 0): F(9), (0, 1): F(2, 7)}
        elem = ChowElement(params, raw)
        assert elem.coeffs == _worklist_reduce(raw, n, params.r)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert intersection_number([elem] * params.dim, params) == _worklist_pairing([raw] * params.dim, params)
    assert checked > 100


def test_chow_element_arithmetic_keeps_its_interface():
    params = BundleParams(n=2, m=1, a=2, b=1)
    h, eta = ChowElement.hyperplane(params), ChowElement.infinity(params)
    alpha = ChowElement.fiber_class(params, F(3, 4))
    assert alpha.coeffs == {(1, 0): 1, (0, 1): F(3, 4)}
    assert (h + F(3, 4) * eta).coeffs == alpha.coeffs
    assert (alpha * 0).coeffs == {}
    assert (alpha**2).degrees() == {2}
    top = alpha ** params.dim
    assert top.top_coefficient() == _worklist_pairing([alpha.coeffs] * params.dim, params) / params.d


def test_pairing_sweep_matches_worklist_oracle():
    """The sweep of `verify identities`: h^(n-l) eta^(r-1+l) for n <= 6 and
    r <= 6, and the powers of eta it takes, folded far past eta^r."""
    for n, r in itertools.product(range(1, 7), range(2, 7)):
        params = BundleParams(n=n, m=r - 2, a=1, b=1)
        eta = ChowElement.infinity(params)
        for l in range(n + 1):
            power = {(0, r - 1 + l): F(1)}
            assert (eta ** (r - 1 + l)).coeffs == _worklist_reduce(power, n, r)
            want = _worklist_pairing([{(n - l, 0): F(1)}, power], params)
            assert pairing_number(l, params) == want == math.comb(r + l - 2, l)


def _ref_pow(x, e):
    """x^e by repeated squaring, as `ChowElement.__pow__` computes powers of
    elements that are not of degree 1."""
    out, base = None, x
    while e > 0:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return ChowElement.one(x.params) if out is None else out


def test_power_of_a_degree_1_class_matches_repeated_squaring():
    """A power of (c0 eta + c1 h)/den is one folded binomial row: the same
    rows over the same denominator as the repeated products, the zero
    element past the top degree and `one` at e = 0."""
    for n, r in itertools.product(range(1, 7), range(2, 7)):
        params = BundleParams(n=n, m=r - 2, a=1, b=1)
        classes = [ChowElement.hyperplane(params), ChowElement.infinity(params)]
        classes += [ChowElement.fiber_class(params, t) for t in (0, -3, 2, F(-5, 7), F(7, 3))]
        classes.append(F(3, 4) * ChowElement.fiber_class(params, F(-2, 5)))
        for x, e in itertools.product(classes, range(n + r + 1)):
            got, want = x**e, _ref_pow(x, e)
            assert got.coeffs == want.coeffs, (n, r, e)
            assert got.degrees() == want.degrees(), (n, r, e)
            for d in want.degrees():
                assert [c * want._den for c in got._rows[d]] == [c * got._den for c in want._rows[d]], (n, r, e)
        assert (classes[-1] ** (n + r)).coeffs == {}
        assert (classes[-1] ** 0).coeffs == {(0, 0): 1}


def test_degree_mismatch_still_warns():
    params = BundleParams(n=2, m=1, a=2, b=1)
    alpha = ChowElement.fiber_class(params, F(3, 4))
    with pytest.warns(RuntimeWarning, match="total degree 2 does not match dimension 4"):
        assert intersection_number([alpha, alpha], params) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert intersection_number([alpha] * params.dim, params) != 0
        # a factor of mixed degree is not checked
        assert intersection_number([alpha + ChowElement.one(params)], params) == 0


def test_top_coefficient_pairing_matches_worklist_oracle():
    """The last factor is paired through the top-degree coefficient, not
    multiplied in: degree-1 classes at mixed heights, powers by the binomial
    row and by repeated squaring, mixed-degree elements, one factor, and
    products that miss the top degree, which warn and pair to 0."""
    rng = random.Random(23)
    heights = (F(0), F(1), F(-2, 3), F(5, 4), F(7, 2), F(-3))
    for n, m in itertools.product(range(1, 5), range(0, 4)):
        params = BundleParams(n=n, m=m, a=F(3, 2), b=F(2, 5), d=F(4, 3))
        N, r = params.dim, params.r
        cls = lambda t: ChowElement.fiber_class(params, t)
        raw = lambda t: {(1, 0): F(1), (0, 1): t}
        for _ in range(6):
            hs = [rng.choice(heights) for _ in range(N)]
            assert intersection_number([cls(t) for t in hs], params) == _worklist_pairing([raw(t) for t in hs], params)
        x, y = ChowElement.fiber_class(params, F(-5, 7)) * F(3, 4), cls(F(7, 3))
        for e in range(N + 1):
            want = _worklist_pairing([x.coeffs] * e + [y.coeffs] * (N - e), params)
            assert intersection_number([x**e, y ** (N - e)], params) == want, (n, m, e)
            assert intersection_number([_ref_pow(x, e), _ref_pow(y, N - e)], params) == want, (n, m, e)
            assert intersection_number([x**e] + [y] * (N - e), params) == want, (n, m, e)
        # out-of-basis and mixed-degree input, reduced by the constructor
        mixed = {(0, r + 1): F(3, 5), (1, r - 1): F(-1, 4), (n + 1, 0): F(9), (0, 1): F(2, 7), (n, 0): F(1, 3)}
        elem = ChowElement(params, mixed)
        for e in range(N + 1):
            want = _worklist_pairing([mixed] + [raw(F(-2, 3))] * e, params)
            assert intersection_number([elem, cls(F(-2, 3)) ** e], params) == want, (n, m, e)
            assert intersection_number([cls(F(-2, 3)) ** e, elem], params) == want, (n, m, e)
        # one factor: its own top coefficient
        assert intersection_number([x**N], params) == _worklist_pairing([x.coeffs] * N, params)
        assert intersection_number([elem], params) == _worklist_pairing([mixed], params)
        for factors in ([x] * (N - 1), [x**2, x ** (N - 1)], [cls(1) ** N, cls(2)]):
            with pytest.warns(RuntimeWarning, match="does not match dimension"):
                assert intersection_number(factors, params) == 0


def test_shared_alpha_pairings_give_every_slope():
    """alpha^(N-1).h, alpha^(N-1).eta and alpha^N do not depend on b: the
    slope combined from them, for each b, is the oracle's slope and the
    worklist's (n+m+1) alpha^(N-1).beta / alpha^N."""
    grid = [F(k, 3) for k in range(1, 6)]
    for n, m, a in itertools.product(range(1, 5), range(0, 5), grid):
        pairings = _alpha_pairings(BundleParams(n=n, m=m, a=a, b=1))
        alpha = {(1, 0): F(1), (0, 1): a}
        power = [alpha] * (n + m)
        for b in grid:
            params = BundleParams(n=n, m=m, a=a, b=b)
            want = params.dim * _worklist_pairing(power + [{(1, 0): F(1), (0, 1): b}], params)
            want /= _worklist_pairing(power + [alpha], params)
            assert _chow_slope(params, pairings) == steady_slope_chow(params) == want, (n, m, a, b)


# ---------------------------------------------------------------------------
# the integer weight integral, slope and PL data against the Fraction
# arithmetic they replaced


def _ref_weight_integral(m, n, s, x):
    s, x = to_fraction(s), to_fraction(x)
    return F(*_antiderivative_at(m, n, 1, x)) - F(*_antiderivative_at(m, n, 1, s))


def _ref_steady_slope(params, s):
    s = to_fraction(s)
    n, m, a, b = params.n, params.m, params.a, params.b
    num = (1 + a) ** n * a**m * b + n * _ref_weight_integral(m, n - 1, s, a)
    return num / _ref_weight_integral(m, n, s, a)


def _ref_pl_slopes(breakpoints, values):
    return tuple((v2 - v1) / (b2 - b1) for b1, b2, v1, v2 in zip(breakpoints, breakpoints[1:], values, values[1:]))


def _ref_pl_limit_hamiltonian(params, num_breakpoints):
    cert = min_slope_certificate(params)
    n, a, mu0 = params.n, params.a, cert.mu0
    lam = to_fraction(repr(cert.lam))
    left = num_breakpoints // 2
    right = num_breakpoints - left
    bps = [lam * F(i, left) for i in range(left)]
    bps += [lam + (a - lam) * F(i, right) for i in range(right + 1)]
    values = [n / (1 + min(x, lam)) - mu0 for x in bps]
    return tuple(bps), tuple(values)


def _seeded_params(rng, count, unstable=False):
    """(n, m, a, b) with n <= 6, m <= 4 and rational a, b; unstable ones only
    when asked."""
    out = []
    while len(out) < count:
        n, m = rng.randint(1, 6), rng.randint(0, 4)
        a = F(rng.randint(1, 40), rng.choice((1, 2, 3, 7, 8, 12)))
        b = F(rng.randint(1, 40), rng.choice((1, 4, 5, 16, 64)))
        params = BundleParams(n=n, m=m, a=a, b=b)
        if not unstable or min_slope_certificate(params).verdict == UNSTABLE:
            out.append(params)
    return out


def _punctures(rng, a):
    """0, a dyadic float below a, the decimal repr of that float (the puncture
    of the PL data), and rationals below a."""
    x = rng.uniform(0.0, float(a))
    while F(x) >= a:
        x = rng.uniform(0.0, float(a))
    return [F(0), F(x), F(repr(x)), a * F(rng.randint(0, 99), 100), a * F(rng.randint(1, 10**6), 10**6 + 1)]


def test_weight_integral_and_steady_slope_match_fraction_reference():
    rng = random.Random(23)
    for params in _seeded_params(rng, 80):
        n, m, a = params.n, params.m, params.a
        for s in _punctures(rng, a):
            assert steady_slope(params, s) == _ref_steady_slope(params, s)
            for k in (n - 1, n):
                assert weight_integral(m, k, s, a) == _ref_weight_integral(m, k, s, a)
                assert weight_integral(m, k, s, s) == 0
                assert weight_integral(m, k, 0, s) == _ref_weight_integral(m, k, 0, s)


def test_pl_limit_hamiltonian_matches_fraction_reference():
    rng = random.Random(29)
    for params, breakpoints in zip(_seeded_params(rng, 24, unstable=True), itertools.cycle((4, 7, 16, 256))):
        cfg = pl_limit_hamiltonian(params, breakpoints)
        bps, values = _ref_pl_limit_hamiltonian(params, breakpoints)
        assert (cfg.breakpoints, cfg.values) == (bps, values)
        assert cfg.slopes == _ref_pl_slopes(bps, values)
        assert all(type(v) is F for v in (*cfg.breakpoints, *cfg.values, *cfg.slopes))


@settings(max_examples=60, deadline=None)
@given(cfg=convex_pl())
def test_pl_slopes_match_fraction_reference(cfg):
    assert cfg.slopes == _ref_pl_slopes(cfg.breakpoints, cfg.values)


# ---------------------------------------------------------------------------
# bundle puncture: the bracket straddles the exact root


def _p(poly, x):
    return sum(c * F(x) ** k for k, c in enumerate(poly))


@pytest.mark.parametrize(
    "n,m,a,b",
    [(1, 0, 4, 1), (1, 0, 3, 1), (2, 0, 2, 1), (2, 1, 3, 1), (1, 1, 2, F(1, 4)), (3, 3, 2, F(1, 4)),
     (4, 2, 2, F(1, 4)), (1, 0, 100, F(1, 100)), (6, 4, F(7, 3), F(1, 9))],
)
def test_bundle_root_bracket_straddles(n, m, a, b):
    params = BundleParams(n=n, m=m, a=a, b=b)
    cert = min_slope_certificate(params)
    assert cert.verdict == UNSTABLE
    lo, hi = cert.bracket
    assert math.nextafter(lo, math.inf) == hi
    poly = critical_polynomial(params)
    assert _p(poly, lo) < 0 <= _p(poly, hi)
    assert cert.lam in (lo, hi)
    # lam is the nearer end: the midpoint's sign says which
    mid = (F(lo) + F(hi)) / 2
    assert cert.lam == (lo if _p(poly, mid) > 0 else hi)
    assert cert.to_dict()["bracket"] == [lo, hi]


def test_bundle_root_bracket_holds_closed_form():
    # (1,0,4,1): the puncture is 9 - 5 sqrt(3)
    lo, hi = min_slope_certificate(BundleParams(n=1, m=0, a=4, b=1)).bracket
    below = [9 - F(x) > 0 and (9 - F(x)) ** 2 > 75 for x in (lo, hi)]
    assert below == [True, False]


# ---------------------------------------------------------------------------
# the weight x^m (1+x)^n: binomial expansion term by term


def _weight_integral_loop(m, n, s, x):
    return sum((F(math.comb(n, k), m + k + 1) * (x ** (m + k + 1) - s ** (m + k + 1)) for k in range(n + 1)), F(0))


def _critical_polynomial_loops(params):
    """(1+s) C - (1+s) n I_{m,n-1,0}(s) - n I_{m,n,0}(a) + n I_{m,n,0}(s), expanded."""
    n, m, a, b = params.n, params.m, params.a, params.b
    coeffs = [F(0)] * (params.dim + 1)
    const = (1 + a) ** n * a**m * b + n * _weight_integral_loop(m, n - 1, 0, a)
    coeffs[0] += const - n * _weight_integral_loop(m, n, 0, a)
    coeffs[1] += const
    for k in range(n):
        p = m + k + 1
        c = F(n * math.comb(n - 1, k), p)
        coeffs[p] -= c
        coeffs[p + 1] -= c
    for k in range(n + 1):
        p = m + k + 1
        coeffs[p] += F(n * math.comb(n, k), p)
    return coeffs


def test_weight_integral_and_critical_polynomial_match_loops_on_sweep():
    s, x = F(2, 7), F(9, 4)
    for m, n in itertools.product(range(4), range(5)):
        assert weight_integral(m, n, s, x) == _weight_integral_loop(m, n, s, x)
        assert weight_integral(m, n, 0, x) == _weight_integral_loop(m, n, 0, x)
        if n:
            params = BundleParams(n=n, m=m, a=F(5, 3), b=F(3, 8), d=F(2))
            assert critical_polynomial(params) == _critical_polynomial_loops(params)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 3),
    n=st.integers(1, 4),
    s=st.fractions(0, F(3), max_denominator=50),
    width=st.fractions(0, F(3), max_denominator=50),
    b=st.fractions(F(1, 20), F(4), max_denominator=20),
)
def test_weight_integral_and_critical_polynomial_match_loops(m, n, s, width, b):
    assert weight_integral(m, n, s, s + width) == _weight_integral_loop(m, n, s, s + width)
    if width:
        params = BundleParams(n=n, m=m, a=s + width, b=b)
        assert critical_polynomial(params) == _critical_polynomial_loops(params)


# ---------------------------------------------------------------------------
# the float steady J profile: binomial coefficients comb(n, k)/p, Horner's rule


def _weight_poly_coeffs(m, n, s):
    coeffs = np.zeros(m + n + 2)
    const = 0.0
    for k in range(n + 1):
        p = m + k + 1
        c = math.comb(n, k) / p
        coeffs[p] = c
        const += c * s**p
    coeffs[0] = -const
    return coeffs


def _polyval_ascending(coeffs, x):
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _jet(params, mu, s):
    n, m = params.n, params.m
    gp = n / (1 + s) ** 2
    if m and s == 0.0:
        d1 = (mu - n) / (1 + m)
        return d1, (gp - n * d1) / (1 + m / 2)
    d1 = mu - n / (1 + s)
    return d1, gp - (n / (1 + s) + (m / s if m else 0.0)) * d1


def _profile_expanded(params, s, x):
    a, s = float(params.a), float(s)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu = float(steady_slope(params, to_fraction(repr(s))))
    n, m = params.n, params.m
    I1 = _polyval_ascending(_weight_poly_coeffs(m, n, s), x)
    I2 = _polyval_ascending(_weight_poly_coeffs(m, n - 1, s), x)
    pos = x > s
    out = np.where(pos, (mu * I1 - n * I2) / ((1 + x) ** n * np.where(pos, x, 1.0) ** m), 0.0)
    near = pos & (x < s + 1e-5 * max(a, 1.0))
    if np.any(near):
        d1, d2 = _jet(params, mu, s)
        dx = x[near] - s
        out[near] = d1 * dx + 0.5 * d2 * dx * dx
    return out


def _derivative_expanded(params, s, x):
    s = float(s)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = _profile_expanded(params, s, x)
    mu = float(steady_slope(params, to_fraction(repr(s))))
    n, m = params.n, params.m
    d1, d2 = _jet(params, mu, s)
    safe = x > s + 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        p = n / (1 + x) + (m / np.where(safe, x, 1.0) if m else 0.0)
    return np.where(safe, mu - n / (1 + x) - psi * p, d1 + d2 * (x - s))


def _invert_expanded(params, s, y):
    """The library's Newton solve, run on the expanded profile."""
    s = float(s)
    mu = float(steady_slope(params, to_fraction(repr(s))))
    prof = SimpleNamespace(
        values=lambda x: _profile_expanded(params, s, x),
        s=s, a=float(params.a), n=params.n, m=params.m, mu=mu, jet=_jet(params, mu, s),
    )
    return _invert_profile(prof, np.asarray(y, dtype=float))


STEADY_PAIRS = [BundleParams(n=2, m=0, a=3, b=1), BundleParams(n=2, m=1, a=3, b=1), BundleParams(n=1, m=1, a=3, b=F(1, 2))]


@pytest.mark.parametrize("params", STEADY_PAIRS)
def test_steady_profile_j_matches_binomial_expansion_bitwise(params):
    lam = min_slope_certificate(params).lam
    a = float(params.a)
    for s in (lam, 0.0):
        # the Taylor window next to the puncture, the bulk, and both ends
        x = np.concatenate(([s], s + np.geomspace(1e-9, 1e-4, 17), np.linspace(s, a, 257)[1:]))
        assert steady_profile_j(params, s, x).tobytes() == _profile_expanded(params, s, x).tobytes()
        assert steady_profile_j_derivative(params, s, x).tobytes() == _derivative_expanded(params, s, x).tobytes()
        y = _profile_expanded(params, s, x)
        assert invert_steady_profile_j(params, s, y).tobytes() == _invert_expanded(params, s, y).tobytes()
        assert invert_steady_profile_j(params, s, float(y[40])) == _invert_expanded(params, s, y[40:41])[0]


@pytest.mark.parametrize("params", STEADY_PAIRS[:2])
def test_minimizing_profile_matches_binomial_expansion_bitwise(params, monkeypatch):
    prof, energy = minimizing_sequence(params, [2.0])[0]
    n, m = params.n, params.m
    table = _weight_poly_coeffs(m, n, 0.0)
    monkeypatch.setattr(calabi_profiles, "invert_steady_profile_j", _invert_expanded)
    monkeypatch.setattr(calabi_profiles, "steady_profile_j_derivative", _derivative_expanded)
    monkeypatch.setattr(calabi_profiles, "_steady_j", lambda p, s: SimpleNamespace(integral=lambda y: _polyval_ascending(table, y)))
    ref, ref_energy = minimizing_sequence(params, [2.0])[0]
    for got, want in ((prof.rho, ref.rho), (prof.dv, ref.dv), (prof.d2v, ref.d2v)):
        assert got.tobytes() == want.tobytes()
    assert energy == ref_energy


# ---------------------------------------------------------------------------
# the inverse of the steady J profile: the 80 simultaneous halvings of [s, a]
# that the table-seeded Newton solve replaced


def _invert_bisect(params, s, y):
    s = float(s)
    prof = _steady_j(params, s)
    y = np.asarray(y, dtype=float)
    lo, hi = np.full_like(y, s), np.full_like(y, float(params.a))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = prof.values(mid) < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _count_values(monkeypatch):
    """Patch `_SteadyJ.values` to count its calls; returns the counter."""
    calls = [0]
    values = calabi_profiles._SteadyJ.values

    def counted(self, x):
        calls[0] += 1
        return values(self, x)

    monkeypatch.setattr(calabi_profiles._SteadyJ, "values", counted)
    return calls


#: the steady pairs, plus an unstable pair with (n, m) = (1, 2)
INVERT_PAIRS = STEADY_PAIRS + [BundleParams(n=1, m=2, a=2, b=F(1, 4))]
MINIMIZING_PAIRS = [BundleParams(n=2, m=0, a=3, b=1), BundleParams(n=1, m=0, a=4, b=1)]


@pytest.mark.parametrize("params", INVERT_PAIRS)
def test_invert_steady_profile_j_is_as_close_as_bisection(params, monkeypatch):
    # at s = 0 the profile of an unstable pair dips below zero first; y <= 0
    # gives s there, and y > 0 has one preimage, on the rising branch; every
    # other grid point is a node of the seed table
    a, b = float(params.a), float(params.b)
    slack = 8 * np.finfo(float).eps * max(1.0, b)
    calls = _count_values(monkeypatch)
    for s in (min_slope_certificate(params).lam, 0.0):
        prof = _steady_j(params, s)
        x = np.concatenate(([s], s + np.geomspace(1e-9, 1e-4, 17), np.linspace(s, a, 257)[1:]))
        y = prof.values(x)
        calls[0] = 0
        got = invert_steady_profile_j(params, s, y)
        assert calls[0] <= 8
        ref = _invert_bisect(params, s, y)
        assert np.all((got >= s) & (got <= a))
        pos = y > 0
        assert np.all(np.abs(prof.values(got) - y)[pos] <= np.abs(prof.values(ref) - y)[pos] + slack)
        assert np.all(got[~pos] == s)
        top = prof.values(np.array([a]))[0]
        edges = invert_steady_profile_j(params, s, np.array([-1.0, 0.0, top, b, b + 1.0]))
        assert edges.tolist() == [s, s, a, a, a]
        mid = invert_steady_profile_j(params, s, 0.5 * b)
        assert type(mid) is float and mid == invert_steady_profile_j(params, s, np.array([0.5 * b]))[0]
        # a point ends where it would alone, whenever the others converge
        assert [invert_steady_profile_j(params, s, yk) for yk in y[::7].tolist()] == got[::7].tolist()


@pytest.mark.parametrize("params", INVERT_PAIRS)
def test_invert_falls_back_to_halving_when_newton_leaves_the_bracket(params, monkeypatch):
    """A slope of the wrong sign sends every Newton step out of its bracket:
    the solve still ends at rounding level, by halving, within the cap."""
    s = min_slope_certificate(params).lam
    prof = _steady_j(params, s)
    wrong = SimpleNamespace(values=prof.values, s=s, a=prof.a, n=prof.n, m=prof.m, mu=-10.0, jet=(-1.0, -1.0))
    y = prof.values(np.concatenate((s + np.geomspace(1e-9, 1e-4, 5), np.linspace(s, prof.a, 33)[1:-1])))
    calls = _count_values(monkeypatch)
    got = _invert_profile(wrong, y)
    assert calls[0] <= _NEWTON_CAP + 1
    slack = 8 * np.finfo(float).eps * max(1.0, float(params.b))
    ref = _invert_bisect(params, s, y)
    assert np.all(np.abs(prof.values(got) - y) <= np.abs(prof.values(ref) - y) + slack)


@pytest.mark.parametrize("params", MINIMIZING_PAIRS)
def test_invert_takes_at_most_8_evaluations_on_minimizing_inputs(params, monkeypatch):
    calls = _count_values(monkeypatch)
    counts = []

    def counted(*args):
        calls[0] = 0
        x = invert_steady_profile_j(*args)
        counts.append(calls[0])
        return x

    monkeypatch.setattr(calabi_profiles, "invert_steady_profile_j", counted)
    for k in range(4, 21):
        minimizing_sequence(params, [k])
    assert len(counts) == 17 and max(counts) <= 8


@pytest.mark.parametrize("params", MINIMIZING_PAIRS)
def test_minimizing_energies_match_the_bisection_path(params, monkeypatch):
    energies = [minimizing_sequence(params, [k])[0][1] for k in range(4, 21)]
    monkeypatch.setattr(calabi_profiles, "invert_steady_profile_j", _invert_bisect)
    for k, energy in zip(range(4, 21), energies):
        ref = minimizing_sequence(params, [k])[0][1]
        assert abs(energy - ref) <= 1e-14 * abs(ref)


# ---------------------------------------------------------------------------
# L2 slope deviation: Simpson's rule on 20001 points up to the puncture


def _l2_deviation_simpson(params):
    cert = min_slope_certificate(params)
    n, m, mu0, lam = params.n, params.m, float(cert.mu0), cert.lam
    x = np.linspace(0.0, lam, 20001)
    f = (n / (1 + x) - mu0) ** 2 * x**m * (1 + x) ** n
    h = x[1] - x[0]
    first = h / 3 * (f[0] + f[-1] + 4 * np.sum(f[1:-1:2]) + 2 * np.sum(f[2:-1:2]))
    second = (cert.zeta_inv - mu0) ** 2 * float(weight_integral(m, n, to_fraction(repr(lam)), params.a))
    return math.sqrt(first + second)


@pytest.mark.parametrize(
    "n,m,a,b", [(1, 0, 4, 1), (1, 1, 3, F(1, 2)), (1, 1, 2, F(1, 8)), (2, 1, 3, 1), (2, 0, 2, 1)]
)
def test_l2_slope_deviation_matches_simpson(n, m, a, b):
    params = BundleParams(n=n, m=m, a=a, b=b)
    want = _l2_deviation_simpson(params)
    assert l2_slope_deviation(params) == pytest.approx(want, rel=1e-12, abs=0)


def _l2_deviation_taylor(params, terms=40):
    """n = 1 near semistability: on [0, lam] the integrand x^m (1+x) (1/(1+x) - mu0)^2
    is x^m ((1 - mu0)^2 + (mu0^2 - 1) x + sum_(j>=2) (-x)^j), integrated term by term
    in Fraction; for lam near 1e-3 the 40-term tail, about lam^(m+41), is far below the ulp."""
    cert = min_slope_certificate(params)
    m, mu0 = params.m, cert.mu0
    lam = to_fraction(repr(cert.lam))
    coeffs = [(1 - mu0) ** 2, mu0**2 - 1] + [F((-1) ** j) for j in range(2, terms)]
    first = sum(c * lam ** (m + j + 1) / (m + j + 1) for j, c in enumerate(coeffs))
    second = (1 / (1 + lam) - mu0) ** 2 * weight_integral(m, 1, lam, params.a)
    return math.sqrt(first + second)


@pytest.mark.parametrize(
    "m,b,lam",
    [(2, F(511, 1536), 1.2e-3), (2, F(1365, 4096), 1.5e-4), (3, F(511, 1920), 1.2e-3), (3, F(273, 1024), 1.5e-4)],
)
def test_l2_slope_deviation_near_semistable_matches_taylor(m, b, lam):
    # the three pieces of the integrand each integrate to about lam^(m+1), their sum to lam^(m+3)
    params = BundleParams(n=1, m=m, a=2, b=b)
    assert min_slope_certificate(params).lam == pytest.approx(lam, rel=0.05)
    assert l2_slope_deviation(params) == pytest.approx(_l2_deviation_taylor(params), rel=1e-14, abs=0)


def _bubble_series(m, lam, terms=80):
    """int_0^lam x^m/(1+x) dx = sum_j (-1)^j lam^(m+j+1)/(m+j+1), summed in
    Fraction; for lam below 0.34 the 80-term tail is far below the ulp."""
    return sum(F((-1) ** j) * lam ** (m + j + 1) / (m + j + 1) for j in range(terms))


@pytest.mark.parametrize(
    "m,a,b",
    [(1, 2, F(1, 4)), (2, 2, F(21, 64)), (3, 2, F(17, 64)), (5, 2, F(3, 16)), (5, 2, F(341, 1792))],
)
def test_energy_infimum_n1_bubble_matches_series(m, a, b):
    # n = 1, m >= 1 below lam = 1/2: the float closed form cancels to lam^(m+1)/(m+1)
    params = BundleParams(n=1, m=m, a=a, b=b)
    lam = min_slope_certificate(params).lam
    assert 0 < lam < 0.34
    want = float(_energy_constant(params)) * float(_bubble_series(m, to_fraction(repr(lam))))
    assert energy_infimum(params).bubble == pytest.approx(want, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# Surface lattice: the Fraction kernels the integer views replaced


def _ref_intersect(a, b, model):
    x, y = a.coeffs, b.coeffs
    return sum((v * x[i] * y[j] for i, row in enumerate(model.form) for j, v in enumerate(row)), F(0))


def _ref_is_nef(a, model):
    return all(_ref_intersect(a, c, model) >= 0 for c in model.curves)


def _ref_is_kahler(a, model):
    return all(_ref_intersect(a, c, model) > 0 for c in model.curves) and _ref_intersect(a, a, model) > 0


def _ref_solve_rational(gram, rhs):
    """Gaussian elimination over Fraction; None if the matrix is singular."""
    k = len(rhs)
    aug = [list(gram[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][k] for i in range(k)]


def _ref_det_rational(mat):
    k = len(mat)
    mat = [list(row) for row in mat]
    det = F(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, k):
            f = mat[r][col] / mat[col][col]
            mat[r] = [v - f * w for v, w in zip(mat[r], mat[col])]
    return det


def _ref_is_negative_definite(gram):
    """Sign-alternating leading principal minors, computed exactly."""
    for size in range(1, len(gram) + 1):
        det = _ref_det_rational([row[:size] for row in gram[:size]])
        if det == 0 or (det > 0) != (size % 2 == 0):
            return False
    return True


def _ref_minus(a, b, t=1):
    """a - t b on the Fraction coefficients."""
    return DivisorClass(tuple(u - t * v for u, v in zip(a.coeffs, b.coeffs, strict=True)))


def _ref_curve_sum(pairs, model):
    acc = DivisorClass(tuple(F(0) for _ in range(model.rank)))
    for idx, w in pairs:
        acc = _ref_minus(acc, model.curves[idx], -w)
    return acc


def _ref_try_zariski(a, model):
    """(positive coefficients, negative pairs) by support growth, or None when a is not big."""
    support = [i for i, c in enumerate(model.curves) if _ref_intersect(a, c, model) < 0]
    while True:
        gram = [[_ref_intersect(model.curves[i], model.curves[j], model) for j in support] for i in support]
        if not _ref_is_negative_definite(gram):
            return None
        weights = _ref_solve_rational(gram, [_ref_intersect(a, model.curves[i], model) for i in support])
        z = _ref_minus(a, _ref_curve_sum(zip(support, weights), model))
        to_add = [
            i for i, c in enumerate(model.curves) if i not in support and _ref_intersect(z, c, model) < 0
        ]
        if not to_add:
            break
        support.extend(to_add)
    if any(w < 0 for w in weights):
        return None
    if _ref_intersect(z, z, model) <= 0 or _ref_intersect(z, model.kahler_ref, model) <= 0:
        return None
    return z.coeffs, tuple((i, w) for i, w in zip(support, weights) if w != 0)


def _ref_volume(a, model):
    dec = _ref_try_zariski(a, model)
    if dec is None:
        return F(0)
    z = DivisorClass(dec[0])
    return _ref_intersect(z, z, model)


def _ref_volume_root(alpha, beta, model, t0, quad):
    """The chamber walk of surface_lattice._volume_root on the Fraction kernels."""
    A, B, C = quad
    curves = model.curves
    support, lo = [], t0
    while True:
        gram = [[_ref_intersect(curves[i], curves[j], model) for j in support] for i in support]
        if not _ref_is_negative_definite(gram):
            raise AssertionError(f"not big at t = {lo}")
        rhs = [[_ref_intersect(cls, curves[i], model) for i in support] for cls in (alpha, beta)]
        n_alpha, n_beta = (_ref_curve_sum(zip(support, _ref_solve_rational(gram, v)), model) for v in rhs)
        p0, p1 = _ref_minus(alpha, n_alpha), _ref_minus(beta, n_beta)
        outside = [j for j in range(len(curves)) if j not in support]
        pairings = {j: (_ref_intersect(p0, curves[j], model), _ref_intersect(p1, curves[j], model)) for j in outside}
        grow = [j for j, (u, v) in pairings.items() if u - lo * v < 0]
        if grow:
            support += grow
            continue
        a = _ref_intersect(p1, p1, model) - C
        b = -2 * _ref_intersect(p0, p1, model) - B
        c = _ref_intersect(p0, p0, model) - A
        if a * lo * lo + b * lo + c == 0:
            return (lo, F(0), F(0)), (n_alpha, n_beta)
        walls = {}
        for j, (u, v) in pairings.items():
            if v > 0:
                walls.setdefault(u / v, []).append(j)
        hi = min(walls, default=None)
        if a:
            disc = b * b - 4 * a * c
            root = (-b / (2 * a), -1 / (2 * a), disc) if disc >= 0 else None
        else:
            root = (-c / b, F(0), F(0)) if b else None
        if root is not None:
            r, s, d = root
            if _sign(r - lo, s, d) > 0 and (hi is None or _sign(r - hi, s, d) <= 0):
                return root, (n_alpha, n_beta)
        support += walls[hi]
        lo = hi


#: what surface_slopes imports from surface_lattice, as Fraction kernels
FRACTION_KERNELS = {
    "intersect": _ref_intersect,
    "is_nef": _ref_is_nef,
    "is_kahler": _ref_is_kahler,
    "volume": _ref_volume,
    "_volume_root": _ref_volume_root,
}


def _surface_classes(model, seed, count):
    """Random classes with small denominators, then for each curve C and class a
    the class a - (a.C)/(h.C) h, h the Kahler reference, which pairs to 0 with C."""
    rng = random.Random(seed)
    out = [
        DivisorClass(tuple(F(rng.randint(-8, 16), rng.choice((1, 2, 4, 3))) for _ in range(model.rank)))
        for _ in range(count)
    ]
    h = model.kahler_ref
    for a in out[: count // 2]:
        for c in model.curves:
            out.append(_ref_minus(a, h, _ref_intersect(a, c, model) / _ref_intersect(h, c, model)))
    return out


def _assert_lattice_matches(a, model, b):
    """Every lattice answer for a (and its pairing with b) against the oracle; returns
    the oracle's decomposition."""
    assert intersect(a, b, model) == _ref_intersect(a, b, model)
    assert intersect(a, a, model) == _ref_intersect(a, a, model)
    assert is_nef(a, model) == _ref_is_nef(a, model)
    assert is_kahler(a, model) == _ref_is_kahler(a, model)
    assert volume(a, model) == _ref_volume(a, model)
    ref = _ref_try_zariski(a, model)
    if ref is None:
        with pytest.raises(NotBigError):
            zariski(a, model)
    else:
        dec = zariski(a, model)
        assert (dec.positive.coeffs, dec.negative) == ref
        assert all(type(w) is F for _, w in dec.negative)
        assert dec.reconstruct(model) == a
    return ref


@pytest.mark.parametrize("model_name", ["blp2", "two_point"])
def test_surface_lattice_matches_fraction_oracle(model_name, request):
    model = request.getfixturevalue(model_name)
    classes = _surface_classes(model, model_name, 40)
    refs = [_assert_lattice_matches(a, model, b) for a, b in zip(classes, classes[1:] + classes[:1])]
    # the sample holds zero pairings, classes that are not big and nontrivial negative parts
    assert any(_ref_intersect(a, c, model) == 0 for a in classes for c in model.curves)
    assert None in refs and any(ref and ref[1] for ref in refs)


_quarters = st.fractions(-4, 6, max_denominator=8)


@settings(max_examples=25, deadline=None)
@given(x=st.tuples(_quarters, _quarters, _quarters), y=st.tuples(_quarters, _quarters, _quarters))
def test_surface_lattice_matches_fraction_oracle_on_draws(blp2, two_point, x, y):
    for model in (blp2, two_point):
        k = model.rank
        _assert_lattice_matches(DivisorClass(x[:k]), model, DivisorClass(y[:k]))


def test_class_arithmetic_matches_fraction_coefficients():
    a, b = DivisorClass.of(F(3, 4), -2, "0.3"), DivisorClass.of(F(-5, 6), F(1, 4), 0)
    assert (a + b).coeffs == tuple(u + v for u, v in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple(u - v for u, v in zip(a.coeffs, b.coeffs))
    assert (F(2, 9) * a).coeffs == (a * F(2, 9)).coeffs == tuple(F(2, 9) * u for u in a.coeffs)
    assert (-a).coeffs == tuple(-u for u in a.coeffs)
    assert all(type(c) is F for c in (a - b).coeffs)
    # a class made by arithmetic equals, and hashes as, the one made from its coefficients
    made = (a + b) - b
    assert made == a and hash(made) == hash(a) and str(made) == str(a)
    assert (a - a).is_zero() and not a.is_zero()
    with pytest.raises(ValueError):
        a + DivisorClass.of(1, 2)


def _certificate_pairs(model, seed, count):
    """(equation, alpha, beta) draws with beta Kahler: J pairs with alpha Kahler,
    dHYM pairs with alpha.beta > 0 and alpha - c0 beta big."""
    rng = random.Random(seed)

    def draw():
        return DivisorClass(tuple(F(rng.randint(-4, 24), rng.choice((1, 2, 4, 8))) for _ in range(model.rank)))

    pairs = []
    while len(pairs) < 2 * count:
        alpha, beta = draw(), draw()
        if not _ref_is_kahler(beta, model):
            continue
        if len(pairs) < count:
            if _ref_is_kahler(alpha, model):
                pairs.append(("j", alpha, beta))
            continue
        ab = _ref_intersect(alpha, beta, model)
        if ab > 0:
            c0 = (_ref_intersect(alpha, alpha, model) - _ref_intersect(beta, beta, model)) / (2 * ab)
            if _ref_volume(_ref_minus(alpha, beta, c0), model) > 0:
                pairs.append(("dhym", alpha, beta))
    return pairs


def _surface_outputs(model, pairs):
    out = []
    for equation, alpha, beta in pairs:
        cert_of = j_slope_certificate if equation == "j" else dhym_slope_certificate
        out.append(cert_of(alpha, beta, model).to_dict())
        if _ref_volume(alpha, model) > 0:
            out.append(bigness_threshold(alpha, beta, model))
    return out


@pytest.mark.parametrize("model_name", ["blp2", "two_point"])
def test_certificates_and_threshold_match_fraction_oracle(model_name, request, monkeypatch):
    model = request.getfixturevalue(model_name)
    pairs = _certificate_pairs(model, model_name, 12 if model_name == "blp2" else 6)
    if model_name == "blp2":
        # semistable J (alpha.E / beta.E = mu) and dHYM (alpha - c0 beta = 4H pairs 0 with E)
        pairs += [("j", DivisorClass.of(3, 1), DivisorClass.of(F(5, 3), 1))]
        pairs += [("dhym", DivisorClass.of(1, -1), DivisorClass.of(3, 1))]
    want = _surface_outputs(model, pairs)
    assert {STABLE, UNSTABLE} <= {d["verdict"] for d in want if isinstance(d, dict)}
    if model_name == "blp2":
        assert [d["verdict"] for d in want if isinstance(d, dict)][-2:] == [SEMISTABLE, SEMISTABLE]
    for name, ref in FRACTION_KERNELS.items():
        monkeypatch.setattr(surface_slopes, name, ref)
    assert _surface_outputs(model, pairs) == want


def _ref_approx_root(r, s, d):
    """r + s sqrt(d) to within 2^-64 relative, exactly when sqrt(d) is rational.

    sqrt(d) comes from math.isqrt; when r and s sqrt(d) have opposite signs the
    root is taken as (r^2 - s^2 d) / (r - s sqrt(d)) so nothing cancels.
    """
    n = d.numerator * d.denominator
    k = max(0, 65 - n.bit_length() // 2)
    m = math.isqrt(n << 2 * k)
    root_d = F(2 * m + (m * m != n << 2 * k), d.denominator << k + 1)
    return r + s * root_d if r * s >= 0 else (r * r - s * s * d) / (r - s * root_d)


def _ref_rounded_root(r, s, d):
    """The Fraction rounding of r + s sqrt(d): the float of its 2^-64
    approximant, bracketed by Fraction signs, and the exact midpoint test only
    when the approximant's error can reach the bracket's midpoint."""
    approx = _ref_approx_root(r, s, d)
    x = float(approx)
    n = d.numerator * d.denominator
    exact = not s or math.isqrt(n) ** 2 == n
    side = _sign(F(x) - r, -s, d)
    lo, hi = bracket = (
        x if side <= 0 else math.nextafter(x, -math.inf),
        x if side >= 0 else math.nextafter(x, math.inf),
    )
    if not exact and lo != hi:
        (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
        mid_n, mid_d = n_lo * d_hi + n_hi * d_lo, 2 * d_lo * d_hi
        a_n, a_d = approx.numerator, approx.denominator
        if abs(a_n * mid_d - mid_n * a_d) << 63 <= abs(a_n) * mid_d:
            x = lo if _sign(F(mid_n, mid_d) - r, -s, d) > 0 else hi
    return x, bracket, approx if exact else F(x)


def _ref_one_point_blowup_certificate(b, p, q):
    """The closed-form blow-up certificate in Fraction arithmetic."""
    b, p, q = to_fraction(b), to_fraction(p), to_fraction(q)
    if b <= 1:
        raise InputError("need b > 1 so that beta = bH - E is Kahler")
    if b * p <= q:
        raise InputError("need bp > q so that alpha.beta > 0")
    c0 = (p * p - q * q - b * b + 1) / (2 * (b * p - q))
    if q <= c0:
        verdict = UNSTABLE if q < c0 else SEMISTABLE
        xi, bracket, xf = _ref_rounded_root(b * p, F(-1), (p * p + 1) * (b * b - 1))
        witness = None if xf == q else DivisorClass((F(0), q - xf))
        witness_slope = float((p * p - xf * xf - b * b + 1) / (2 * (b * p - xf)))
        residual = 0.0 if xf != xi else float(abs((p - xf * b) ** 2 - (1 + xf * xf) * (b * b - 1)))
    else:
        verdict = STABLE
        xi, bracket, _ = _ref_rounded_root(c0, F(0), F(0))
        witness, witness_slope, residual = None, xi, 0.0
    return SlopeCertificate(
        equation="dhym", slope=xi, bracket=bracket, witness=witness, verdict=verdict,
        topological_slope=float(c0), residual=residual, witness_slope=witness_slope,
    )


def _blowup_triples(seed, count):
    """Random (b, p, q) with b > 1, and from Pythagorean b and p, where
    (p^2 + 1)(b^2 - 1) is a rational square, the semistable q = c0 and rational
    unstable roots."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.choice((1, 2, 3, 4, 8, 16, 7, 97))
        out.append((F(rng.randint(den + 1, 6 * den), den), F(rng.randint(-4 * den, 10 * den), den), F(rng.randint(-6 * den, 10 * den), den)))
    for u, v, s, t in [(2, 1, 2, 1), (3, 1, 3, 2), (3, 2, 4, 1), (5, 2, 5, 3), (4, 1, 1, 2)]:
        b, p = F(u * u + v * v, 2 * u * v), F(s * s - t * t, 2 * s * t)
        root = b * p - F(u * u - v * v, 2 * u * v) * F(s * s + t * t, 2 * s * t)
        out += [(b, p, root), (b, p, root - F(1, 3)), (b, p, root + F(1, 7)), (b, p, 2 * root - b * p)]
    return out + [(F(41, 19), F(177, 71), 0), (1, 3, 0), (2, 1, 5), (F(3, 2), F(2), 3)]


def test_one_point_blowup_certificate_matches_fraction_oracle():
    verdicts, rational = set(), 0
    for b, p, q in _blowup_triples(29, 1500):
        try:
            want = _ref_one_point_blowup_certificate(b, p, q).to_dict()
        except InputError as exc:
            with pytest.raises(InputError, match=str(exc)):
                one_point_blowup_certificate(b, p, q)
            continue
        got = one_point_blowup_certificate(b, p, q).to_dict()
        assert repr(got) == repr(want), (b, p, q)
        verdicts.add(want["verdict"])
        rational += want["verdict"] != STABLE and want["witness"] is not None and want["residual"] == 0.0
    assert verdicts == {STABLE, SEMISTABLE, UNSTABLE} and rational > 0


# ---------------------------------------------------------------------------
# flow checkpoints: the per-checkpoint diagnostics and monitor scans that the
# chunked post-loop pass and the numpy scans replaced


def _ref_gradient(psi, h):
    d = np.empty_like(psi)
    d[1:-1] = (psi[2:] - psi[:-2]) / (2 * h)
    d[0] = (psi[1] - psi[0]) / h
    d[-1] = (psi[-1] - psi[-2]) / h
    return d


def _ref_volume_value(values, geometry):
    """One row's calibration volume in the factored form of `_volume_values`,
    sqrt(1 + s^2) times the Gauss sum of sqrt(x^2 + psi^2) on each cell of
    slope s, with its operations in the same order."""
    nodes, offsets, weights, dx = geometry
    s = (values[1:] - values[:-1]) / dx
    psi = s * offsets + values[:-1]
    gauss = (np.sqrt(psi**2 + nodes**2) * weights).sum(axis=0)
    return 2.0 * float((gauss * np.sqrt(s**2 + 1.0)).sum())


def _expanded_volume_value(values, geometry):
    """One row's calibration volume from the expanded integrand
    sqrt((x psi' + psi)^2 + (psi psi' - x)^2) at every Gauss node."""
    nodes, offsets, weights, dx = geometry
    s = (values[1:] - values[:-1]) / dx
    psi = values[:-1] + s * offsets
    f = np.sqrt((nodes * s + psi) ** 2 + (psi * s - nodes) ** 2)
    return 2.0 * float((weights * f).sum())


def _ref_energy(scheme, pv):
    s = _slope_field(pv, _ref_gradient(pv, scheme.h), scheme.m, scheme.slope_grid)
    return float(np.dot(s * s, scheme.tw))


def _ref_checkpoint_fields(scheme, pv, t):
    if scheme.kind == "j":
        diffs = pv[1:] - pv[:-1]
        dmin, dmax = diffs.min(), diffs.max()
        return {
            "comparison_gap": float((pv - scheme.ref).min()),
            "min_forward_diff": float(dmin),
            "max_derivative": float(max(dmax, -dmin) / scheme.h),
        }
    theta = _angle(scheme.x, pv, _ref_gradient(pv, scheme.h))
    tmin, tmax = float(theta.min()), float(theta.max())
    assert 0 < tmin and tmax < math.pi
    return {"comparison_gap": float((scheme.ref - pv).min()), "theta_min": tmin, "theta_max": tmax}


def _ref_integrate(scheme, cfg):
    """The time loop with one pass of diagnostics per checkpoint, one for the
    initial profile and one per accepted step, and the decaying functional
    one profile at a time: (times, checkpoints, profile values, the decay
    series, the largest rise).  The flux sensitivities are evaluated at the
    profile each step starts from, and each candidate's flux once, right
    after its solve: a flux of None rejects the candidate."""
    x, h, psi = scheme.x, scheme.h, scheme.psi.copy()
    decay = "energy" if scheme.kind == "j" else "volume"
    lo, hi = scheme.window
    first = int(np.searchsorted(x, lo))
    cells = slice(first, max(first, int(np.searchsorted(x, hi, side="right")) - 1))
    geometry = _volume_geometry(x)
    dt = cfg.dt
    t, res_prev, cand = 0.0, None, psi.copy()
    times, checkpoints, profiles, series = [], [], [], []
    step_rate = None
    c = scheme.flux(psi)
    while True:
        if scheme.kind == "j":
            series.append(_ref_energy(scheme, psi))
        else:
            series.append(_ref_volume_value(psi, geometry))
        Qv = scheme.Q(psi)
        rate = Qv * (c[1:] - c[:-1]) / h
        res = float(np.abs(rate).max())
        converged = res < cfg.convergence_tol
        flux = c[cells]
        sampled = rate if step_rate is None else step_rate
        rmax, rmin = sampled.max(), sampled.min()
        checkpoints.append(flow_engine.Checkpoint(
            t=t,
            sup_rate=float(max(rmax, -rmin)),
            max_rate=float(rmax),
            min_rate=float(rmin),
            plateau=float(flux.sum() / flux.size),
            plateau_spread=float(flux.max() - flux.min()),
            **{**_ref_checkpoint_fields(scheme, psi, t), decay: series[-1]},
        ))
        times.append(t)
        profiles.append(psi.copy())
        if converged or t >= cfg.t_max:
            break
        if res_prev is not None:
            dt = max(cfg.dt, min(dt * (res_prev / res) ** flow_engine.SER_EXPONENT, flow_engine.DT_CAP))
        res_prev = res
        right, left, mid = scheme.sensitivities(psi)
        while True:
            last = t + dt >= cfg.t_max
            step = cfg.t_max - t if last else dt
            dtQ = step * Qv
            delta = flow_engine.solve_banded(
                -dtQ[1:] * left[1:-1], 1 + dtQ * mid, -dtQ[:-1] * right[1:-1], step * rate
            )
            np.add(psi[1:-1], delta, out=cand[1:-1])
            c = scheme.flux(cand)
            if c is not None:
                break
            dt = max(cfg.dt, step / 2)
        psi, cand = cand, psi
        step_rate = delta / step
        t = cfg.t_max if last else t + step
    rise = 0.0
    for before, after in zip(series, series[1:]):
        rise = max(rise, after - before)
    return times, checkpoints, profiles, series, rise


def _ref_scan(series, ok, lower, cks):
    """A checkpoint monitor's entry by a plain loop over its series; the
    worst value is the smallest under a lower bound, the largest under an
    upper one."""
    first_fail = None
    extremal = None
    for i, v in enumerate(series):
        if v is None:
            continue
        if extremal is None or (v < extremal if lower else v > extremal):
            extremal = v
        if first_fail is None and not ok(v):
            first_fail = i
    return {
        "passed": first_fail is None,
        "worst": extremal,
        "first_violation": None if first_fail is None else {"checkpoint": first_fail, "t": cks[first_fail].t},
    }


def _ref_checkpoint_monitors(kind, monitors, cks):
    """Every checkpoint monitor's entry, each scanned by `_ref_scan`."""
    j = kind == "j"
    scans = []
    if "monotone" in monitors:
        if j:
            scans.append(("monotone_decreasing", "max_rate", lambda v: v <= flow_engine.MONO_TOL, False))
        else:
            scans.append(("monotone_increasing", "min_rate", lambda v: v >= -flow_engine.MONO_TOL, True))
    if "comparison" in monitors:
        name = "above_singular_limit" if j else "below_steady_limit"
        scans.append((name, "comparison_gap", lambda v: v >= -flow_engine.COMP_TOL, True))
    if "derivative" in monitors:
        scans.append(("forward_differences_nonnegative", "min_forward_diff", lambda v: v >= -ADMISSIBILITY_TOL, True))
        scans.append(("derivative_bounded", "max_derivative", lambda v: v < 1e6, False))
    if "angle" in monitors:
        scans.append(("angle_above_zero", "theta_min", lambda v: v > 0, True))
        scans.append(("angle_below_pi", "theta_max", lambda v: v < math.pi, False))
    return {name: _ref_scan([getattr(c, f) for c in cks], ok, lower, cks) for name, f, ok, lower in scans}


#: (flow, arguments, grid, FlowConfig overrides)
FLOW_CHECKPOINT_CASES = [
    ("j", (1, 0, 2, F(2, 3)), 64, {}),
    ("j", (1, 1, 2, 1), 64, {}),
    ("j", (2, 0, 2, 1), 64, {}),
    # the energy of this unstable pair rises at grid 256
    ("j", (2, 1, 3, 1), 256, {}),
    ("cotangent", (2, 3, 1), 64, {}),
    ("cotangent", (2, 3, 0), 128, {}),
    # stopped at t_max, short of convergence
    ("j", (1, 0, 4, 1), 64, {"t_max": 3.0}),
    # the unstable cotangent pair on the coarsest grid
    ("cotangent", (2, 3, 0), 64, {}),
    # more checkpoints (and J steps) than a chunk holds
    ("j", (1, 0, 2, F(2, 3)), 512, {}),
    ("cotangent", (2, 3, 0), 512, {}),
    # a short unstable triple that fails monotone_increasing, while the
    # largest magnitude of its rates is a rise
    ("cotangent", (F(17, 16), 3, 0), 128, {}),
]


@pytest.mark.parametrize("flow,args,grid,overrides", FLOW_CHECKPOINT_CASES)
def test_flow_checkpoint_blocks_match_per_checkpoint_diagnostics(flow, args, grid, overrides):
    """Every Checkpoint field, every kept profile, and the decay monitor's
    largest rise and first rise above the slack are bit for bit those of the
    per-checkpoint loop; the chunked trace's profiles are read-only rows on
    one grid.  Every checkpoint monitor's verdict, worst value and first
    violation are those of a plain loop over the oracle's checkpoints."""
    cfg = flow_engine.FlowConfig(grid_size=grid, dt=0.05, **overrides)
    if flow == "j":
        params = BundleParams(*args)
        scheme, trace = flow_engine._JScheme(params, "line", cfg), flow_engine.run_j_flow(params, "line", cfg=cfg)
    else:
        scheme = flow_engine._CotScheme(*args, "special", cfg)
        trace = flow_engine.run_cotangent_flow(*args, "special", cfg=cfg)
    times, checkpoints, profiles, series, rise = _ref_integrate(scheme, cfg)
    decay = "energy" if flow == "j" else "volume"
    assert trace.times == times and len(times) == trace.steps + 1
    assert len(trace.checkpoints) == len(checkpoints) == len(trace.profiles)
    for got, want in zip(trace.checkpoints, checkpoints):
        for name in flow_engine.Checkpoint.__dataclass_fields__:
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (name, got.t)
    for prof, values in zip(trace.profiles, profiles):
        assert prof.values.tobytes() == values.tobytes() and not prof.values.flags.writeable
        assert prof.grid is trace.reference_profile.grid
    assert trace.terminal_profile is trace.profiles[-1]
    entry = trace.monitor_report.entries[f"{decay}_nonincreasing"]
    assert _bits(entry["worst"]) == _bits(rise)
    slack = flow_engine._decay_slack(decay, scheme.h)
    rises = [k for k in range(1, len(series)) if series[k] - series[k - 1] > slack]
    want = {"checkpoint": rises[0], "t": times[rises[0]]} if rises else None
    assert entry["first_violation"] == want and entry["passed"] is (want is None)
    scans = _ref_checkpoint_monitors(flow, trace.meta["monitors"], checkpoints)
    assert set(trace.monitor_report.entries) == {*scans, f"{decay}_nonincreasing"}
    for name, ref in scans.items():
        got = trace.monitor_report.entries[name]
        assert (got["passed"], got["first_violation"]) == (ref["passed"], ref["first_violation"]), name
        assert type(got["worst"]) is float and _bits(got["worst"]) == _bits(ref["worst"]), name
    if args == (F(17, 16), 3, 0):
        entry = trace.monitor_report.entries["monotone_increasing"]
        rates = trace.columns["min_rate"]
        assert not entry["passed"] and entry["worst"] == rates.min() < 0 < -rates.min() < rates.max()
    if args == (2, 1, 3, 1):
        assert want is not None
        # the unstable pair's known fault: it dips below the singular limit
        assert scans["above_singular_limit"]["first_violation"] is not None
    if grid == 512:
        rows = flow_engine.CHUNK_ELEMS // (grid + 1)
        assert len(times) > rows and (flow != "j" or trace.steps > rows)
    if "t_max" in overrides:
        assert not trace.converged and times[-1] == cfg.t_max


def _run_case(flow, args, grid, overrides):
    cfg = flow_engine.FlowConfig(grid_size=grid, dt=0.05, **overrides)
    if flow == "j":
        return flow_engine.run_j_flow(BundleParams(*args), "line", cfg=cfg)
    return flow_engine.run_cotangent_flow(*args, "special", cfg=cfg)


@pytest.mark.parametrize("flow,args,grid,overrides", [FLOW_CHECKPOINT_CASES[1], FLOW_CHECKPOINT_CASES[4]])
def test_flow_trace_does_not_depend_on_the_block_size(flow, args, grid, overrides, monkeypatch):
    """Blocks of 1, 2 or 3 rows, or of exactly the run's rows, give every
    Checkpoint field, every profile's bytes and the monitor report of the
    default blocks: this covers the allocation of a block, the trim of the
    last one, and a run that ends on the last row of a block."""
    ref = _run_case(flow, args, grid, overrides)
    rows = len(ref.times)
    assert rows > 3 and len(ref.blocks) == 1
    for per_block in (1, 2, 3, rows):
        monkeypatch.setattr(flow_engine, "CHUNK_ELEMS", per_block * (grid + 1))
        trace = _run_case(flow, args, grid, overrides)
        *full, last = map(len, trace.blocks)
        assert full == [per_block] * (-(-rows // per_block) - 1) and last == rows - per_block * len(full)
        assert trace.times == ref.times and len(trace.checkpoints) == rows
        for got, want in zip(trace.checkpoints, ref.checkpoints):
            for name in flow_engine.Checkpoint.__dataclass_fields__:
                assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (per_block, name, got.t)
        for got, want in zip(trace.profiles, ref.profiles):
            assert got.values.tobytes() == want.values.tobytes() and not got.values.flags.writeable
        assert trace.terminal_profile is trace.profiles[-1]
        assert trace.monitor_report == ref.monitor_report


def _random_admissible_rows(rng, b, p, q, n, count):
    """`count` random admissible perturbations of the special profile on n
    nodes, stacked."""
    grid = np.linspace(1.0, b, n)
    base = special_cotangent_profile(b, p, q, n).values
    rows = []
    while len(rows) < count:
        bump = np.sin(math.pi * (grid - 1) / (b - 1)) * rng.uniform(-0.5, 0.8)
        bump += np.sin(2 * math.pi * (grid - 1) / (b - 1)) * rng.uniform(-0.3, 0.3)
        vals = base + bump * (grid - 1) * (b - grid)
        if np.all(np.diff(grid * vals) > 0):
            rows.append(vals)
    return grid, np.array(rows)


#: (flow, arguments, nodes) of the sensitivity test; "cotangent run" takes
#: the kept rows of a run from the special profile, on which the wall's jump
#: flux switches on, where the perturbed special profiles keep it off
SENSITIVITY_CASES = [
    ("cotangent", (2, 3, 1), 65),
    ("cotangent", (3, 2, -1), 129),
    ("cotangent", (1.5, 4, 0.5), 257),
    ("cotangent run", (2, 3, 0), 65),
    ("j", (1, 0, 4, 1), 65),
    ("j", (2, 1, 3, 1), 65),
]
#: the central differences' step, and their largest error relative to
#: max(1, |entry|); the worst of these cases is 1.2e-8
FD_STEP, FD_TOL = 1e-6, 1e-7


@pytest.mark.parametrize("flow,args,n", SENSITIVITY_CASES)
def test_sensitivities_are_central_differences_of_the_flux(flow, args, n):
    """On seeded admissible rows, the implicit step's entries are the flux's
    derivatives: at each interior node j, h right[j-1] and -h left[j] are
    the central differences of cells j - 1 and j in psi_j within FD_TOL
    relative, no other cell moves, and mid[j-1] is left[j] + right[j-1].
    The cotangent rows take the wall's jump flux both on and off."""
    rng = np.random.default_rng(n)
    cfg = flow_engine.FlowConfig(grid_size=n - 1, dt=0.05)
    if flow == "j":
        params = BundleParams(*args)
        scheme = flow_engine._JScheme(params, "line", cfg)
        rises = np.cumsum(rng.uniform(0.0, 1.0, (8, n)), axis=1)
        rows = float(params.b) * (rises - rises[:, :1]) / (rises[:, -1:] - rises[:, :1])
    else:
        scheme = flow_engine._CotScheme(*args, "special", cfg)
        if flow == "cotangent run":
            blocks = flow_engine.run_cotangent_flow(*args, "special", cfg=cfg).blocks
            rows = np.concatenate(blocks)[:: 4]
        else:
            grid, rows = _random_admissible_rows(rng, *args, n, 8)
            assert np.array_equal(grid, scheme.x)

    def flux(pv):
        """The flux, and whether it took the wall's jump flux."""
        return scheme.flux(pv), getattr(scheme, "c_jump", None) is not None

    jumps = set()
    for pv in rows:
        _, jump = flux(pv)
        jumps.add(jump)
        right, left, mid = scheme.sensitivities(pv)
        assert mid.tobytes() == (left[1:] + right[:-1]).tobytes()
        for j in range(1, n - 1):
            up, down = pv.copy(), pv.copy()
            up[j] += FD_STEP
            down[j] -= FD_STEP
            (c_up, jump_up), (c_down, jump_down) = flux(up), flux(down)
            assert jump_up is jump_down is jump
            diff = (c_up - c_down) / (2 * FD_STEP)
            want = np.zeros(n - 1)
            want[j - 1], want[j] = scheme.h * right[j - 1], -scheme.h * left[j]
            assert np.all(np.abs(diff - want) <= FD_TOL * np.maximum(1.0, np.abs(want))), j
    assert jumps == ({True, False} if flow == "cotangent run" else {False})


@pytest.mark.parametrize("bpq,n", [((2, 3, 0), 257), ((2, 3, 1), 65), ((3, 2, -1), 129), ((1.5, 4, 0.5), 513)])
def test_factored_volume_matches_the_expanded_integrand(bpq, n):
    """`_volume_values`, which takes sqrt(1 + psi'^2) out of each cell's Gauss
    sum, is within 1e-15 relative of the expanded integrand, and bit for bit
    the one-row factored form, on random admissible profiles."""
    grid, rows = _random_admissible_rows(np.random.default_rng(n), *bpq, n, 40)
    geometry = _volume_geometry(grid)
    got = _volume_values(rows, geometry)
    for value, row in zip(got.tolist(), rows):
        assert abs(value / _expanded_volume_value(row, geometry) - 1) <= 1e-15
        assert value == _ref_volume_value(row, geometry)


@pytest.mark.parametrize("flow,args,grid,overrides", [case for case in FLOW_CHECKPOINT_CASES if case[0] == "cotangent"])
def test_factored_volume_matches_the_expanded_integrand_on_flow_rows(flow, args, grid, overrides):
    """Each cotangent checkpoint's volume is within 1e-15 relative of the
    expanded integrand on its profile."""
    trace = flow_engine.run_cotangent_flow(*args, "special", cfg=flow_engine.FlowConfig(grid_size=grid, **overrides))
    geometry = _volume_geometry(trace.terminal_profile.grid)
    for ck, prof in zip(trace.checkpoints, trace.profiles):
        assert abs(ck.volume / _expanded_volume_value(prof.values, geometry) - 1) <= 1e-15
