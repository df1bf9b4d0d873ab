"""The exact kernels against the Fraction loops they replaced.

Each oracle below is the straightforward Fraction computation: per-segment
polynomial integration of PL data, the worklist reduction of the Chow ring,
and direct evaluation of the critical polynomial.  The kernels in src/ must
agree with them exactly.
"""

import itertools
import math
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopeflow.bundle_geometry import (
    BundleParams,
    ChowElement,
    critical_polynomial,
    intersection_number,
    min_slope_certificate,
)
from slopeflow.energy_functionals import (
    PLTestConfig,
    _pl_integrals,
    futaki_invariant,
    pl_limit_hamiltonian,
)
from slopeflow.surface_slopes import UNSTABLE

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


@settings(max_examples=60, deadline=None)
@given(cfg=convex_pl(), m=st.integers(0, 3), n=st.integers(1, 4))
def test_pl_integrals_match_segment_oracle(cfg, m, n):
    assert _pl_integrals(cfg, m, n) == _oracle_integrals(cfg, m, n)


@pytest.mark.parametrize("params", [BundleParams(n=1, m=0, a=4, b=1), BundleParams(n=2, m=1, a=3, b=1)])
@pytest.mark.parametrize("breakpoints", [16, 64, 256])
def test_pl_integrals_match_oracle_on_limit_hamiltonian(params, breakpoints):
    cfg = pl_limit_hamiltonian(params, breakpoints)
    b0, tail, square = _oracle_integrals(cfg, params.m, params.n)
    assert _pl_integrals(cfg, params.m, params.n) == (b0, tail, square)
    rep = futaki_invariant(cfg, params)
    b0p = params.n * tail + cfg.values[-1] * params.a**params.m * (1 + params.a) ** params.n * params.b
    assert (rep.b0, rep.b0_prime) == (b0, b0p)
    assert rep.norm == math.sqrt(float(square))


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
