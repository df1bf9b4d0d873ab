"""Exact intersection theory on P(O + L^(m+1)) and its zero-section blow-up.

The cohomology of the bundle is generated over the base by the class eta of
the infinity divisor, subject to one relation of degree r = m + 2; products
are reduced against that relation and paired in the top degree.  The same
recursion on the exceptional divisor of the zero-section blow-up gives the
closed forms for the slope function of punctured steady profiles, its convex
minimizer, and the invariant minimal slope.

Every quantity on the bundle integrates the weight x^m (1+x)^k, and only
this module expands it: every closed-form integral of it, here and in the
energy and profile modules, reads the exact antiderivative table
`_antiderivative`.

Everything exact runs on Python integers.  A ring element keeps, for each
degree d, one row of integer numerators for the monomials h^k eta^(d-k) of
the basis, all over one denominator; a product convolves the rows degree by
degree and folds the powers of eta past the relation back into the basis
through a table cached per degree.  A pairing never forms its last product:
the top-degree fold table gives the coefficient t[k] of the top monomial in
each h^k eta^(N-k), and two rows of complementary degrees pair to the sum of
x_i y_j t[i + j].  Weight integrals and slopes are integer numerators over
integer denominators until one Fraction at the end; the minimal-slope
certificate's one Fraction is its mu0, and each of its floats is one
correctly rounded integer division.  The puncture, a root of
a polynomial with no closed form, is bracketed by adjacent floats at which
the exact sign of that polynomial, cleared of denominators, changes.  The
ring (`ChowElement`, `intersection_number`, `pairing_number`) never reads
the antiderivative table, so the command line's `verify identities` checks
the closed forms here against intersection numbers of the ring.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import warnings

from .errors import InputError
from .surface_lattice import to_fraction
from .surface_slopes import SEMISTABLE, STABLE, UNSTABLE

__all__ = [
    "BundleParams",
    "ChowElement",
    "BundleSlopeCertificate",
    "weight_integral",
    "intersection_number",
    "pairing_number",
    "steady_slope",
    "critical_polynomial",
    "min_slope_certificate",
    "blowup_top_power",
    "blowup_mixed_power",
]


@dataclass(frozen=True)
class BundleParams:
    """Geometry of the projectivized bundle over an n-dimensional base.

    n: base dimension; m: the fiber is P^(m+1); d: degree of the base class;
    a, b: the two fiber heights, giving the classes h + a*eta and h + b*eta.
    """

    n: int
    m: int
    a: Fraction
    b: Fraction
    d: Fraction = Fraction(1)

    def __post_init__(self):
        a, b, d = to_fraction(self.a), to_fraction(self.b), to_fraction(self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        if self.n < 1 or self.m < 0:
            raise InputError("need base dimension n >= 1 and m >= 0")
        # a Fraction's denominator is positive, so its numerator has its sign
        if a.numerator <= 0 or b.numerator <= 0 or d.numerator <= 0:
            raise InputError("a, b, d must be positive")

    @property
    def r(self) -> int:
        return self.m + 2

    @property
    def dim(self) -> int:
        """Total dimension n + m + 1."""
        return self.n + self.r - 1

    @classmethod
    def parse(cls, text: str) -> "BundleParams":
        toks = [t.strip() for t in text.split(",")]
        try:
            if len(toks) not in (4, 5):
                raise ValueError
            m, n = int(toks[0]), int(toks[1])
            a, b = Fraction(toks[2]), Fraction(toks[3])
            d = Fraction(toks[4]) if len(toks) == 5 else Fraction(1)
        except (ValueError, ZeroDivisionError):
            raise InputError("expected m,n,a,b[,d]") from None
        return cls(n=n, m=m, a=a, b=b, d=d)


def _eval_poly(coeffs: list[int], num: int, den: int) -> int:
    """den^deg p(num/den) for the integer coefficients (ascending) of p: its
    sign is the exact sign of p(num/den) for den > 0."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc


@lru_cache(maxsize=None)
def _antiderivative(m: int, k: int, q: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients c (ascending) and a denominator L such that
    sum c_i x^i / L is the q-th antiderivative of x^m (1+x)^k vanishing at 0."""
    coeffs = [Fraction(0)] * (m + k + q + 1)
    for j in range(k + 1):
        p = m + j
        coeffs[p + q] = Fraction(math.comb(k, j) * math.factorial(p), math.factorial(p + q))
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def _antiderivative_at(m: int, k: int, q: int, x: Fraction) -> tuple[int, int]:
    """The q-th antiderivative of x^m (1+x)^k at x, as an unreduced (num, den)."""
    coeffs, den = _antiderivative(m, k, q)
    return _eval_poly(coeffs, x.numerator, x.denominator), den * x.denominator ** (len(coeffs) - 1)


def _weight_integral_pair(m: int, n: int, s: Fraction, x: Fraction) -> tuple[int, int]:
    """The integral of (1+t)^n t^m from s to x as an unreduced (num, den), den > 0."""
    (u, v), (w, z) = _antiderivative_at(m, n, 1, x), _antiderivative_at(m, n, 1, s)
    return u * z - w * v, v * z


def weight_integral(m: int, n: int, s, x) -> Fraction:
    """Exact integral of (1+t)^n t^m from s to x: W(x) - W(s) for the
    antiderivative W of the weight that vanishes at 0, reduced once."""
    if m < 0 or n < 0:
        raise InputError("need m >= 0 and n >= 0")
    s, x = to_fraction(s), to_fraction(x)
    if s > x:
        raise InputError("need s <= x")
    return Fraction(*_weight_integral_pair(m, n, s, x))


def _slope_numerator(params: BundleParams, s: Fraction) -> tuple[int, int]:
    """(1+a)^n a^m b + n I_{m,n-1,s}(a) as an unreduced (num, den), den > 0."""
    n, m, a, b = params.n, params.m, params.a, params.b
    p, q = a.numerator, a.denominator
    u, v = _weight_integral_pair(m, n - 1, s, a)
    scale = q ** (n + m) * b.denominator
    return (q + p) ** n * p**m * b.numerator * v + n * u * scale, scale * v


def _energy_constant(params: BundleParams) -> Fraction:
    """c_{n,m} d = (n+m+1) C(n+m, n) d, the normalization of the energies and
    of the top power of the blow-up class."""
    return params.dim * math.comb(params.dim - 1, params.n) * params.d


@lru_cache(maxsize=None)
def _eta_power(r: int, l: int) -> tuple[tuple[int, int], ...]:
    """eta^l reduced against the relation of degree r: the pairs (j, c), j
    ascending, with eta^l = sum c h^j eta^(l-j) and l - j < r."""
    if l < r:
        return ((0, 1),)
    out: dict[int, int] = {}
    for j, c in _eta_power(r, l - 1):
        if l - j < r:
            out[j] = out.get(j, 0) + c
        else:  # eta^r = sum_i (-1)^(i-1) C(r-1, i) h^i eta^(r-i)
            for i in range(1, r):
                out[j + i] = out.get(j + i, 0) + (-1) ** (i - 1) * math.comb(r - 1, i) * c
    return tuple((j, c) for j, c in sorted(out.items()) if c)


@lru_cache(maxsize=None)
def _fold_table(n: int, r: int, d: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """How a row of degree d folds into the basis: (lo, rules).

    The basis monomials of degree d are h^k eta^(d-k) with lo <= k <= min(n, d),
    those with d - k < r.  For k < lo, rules[k] lists the pairs (k' - lo, c)
    of eta^(d-k) reduced, c h^k' eta^(d-k') with k' <= n; terms past h^n drop.
    """
    lo = max(0, d - r + 1)
    rules = tuple(tuple((k + j - lo, c) for j, c in _eta_power(r, d - k) if k + j <= n) for k in range(lo))
    return lo, rules


def _fold(n: int, r: int, d: int, row: list[int]) -> list[int]:
    """The reduced row of degree d of the integer terms row[k] h^k eta^(d-k),
    k <= min(n, d); a row with nothing to fold is returned as it is."""
    lo, rules = _fold_table(n, r, d)
    if not lo:
        return row
    out = row[lo:]
    for k, v in enumerate(row[:lo]):
        if v:
            for i, c in rules[k]:
                out[i] += c * v
    return out


def _nonzero(rows: dict[int, list[int]]) -> dict[int, list[int]]:
    """The rows that are not all zero, so that an element's degrees are its keys."""
    return {d: row for d, row in rows.items() if any(row)}


class ChowElement:
    """Polynomial in the base hyperplane class h and the fiber class eta.

    Coefficients are stored reduced: powers of h above n vanish and eta^r is
    rewritten through the defining relation
    eta^r = sum_j (-1)^(j-1) C(r-1, j) h^j eta^(r-j).
    The ring is graded, and the element keeps one row of integer numerators
    per degree d, over one common denominator: entry i of the row is the
    coefficient of h^k eta^(d-k), k = max(0, d - r + 1) + i, so the row runs
    over the basis monomials of that degree.  A product convolves the rows
    degree by degree and folds the terms with eta^l, l >= r, back into the
    basis through a table cached per (n, r, d); degrees above n + r - 1 vanish.
    `coeffs` gives the coefficients as Fractions keyed by (k, l).
    """

    def __init__(self, params: BundleParams, coeffs: dict[tuple[int, int], Fraction] | None = None):
        values = {key: to_fraction(v) for key, v in (coeffs or {}).items()}
        den = math.lcm(*(v.denominator for v in values.values()))
        n, top = params.n, params.dim
        raw: dict[int, list[int]] = {}
        for (k, l), v in values.items():
            if k <= n and k + l <= top:
                row = raw.setdefault(k + l, [0] * (min(n, k + l) + 1))
                row[k] += v.numerator * (den // v.denominator)
        self.params = params
        self._rows = _nonzero({d: _fold(n, params.r, d, row) for d, row in raw.items()})
        self._den = den

    @classmethod
    def _of(cls, params: BundleParams, rows: dict[int, list[int]], den: int) -> "ChowElement":
        """The element rows/den, every row reduced and nonzero, den > 0."""
        out = cls.__new__(cls)
        out.params, out._rows, out._den = params, rows, den
        return out

    @classmethod
    def one(cls, params: BundleParams) -> "ChowElement":
        return cls._of(params, {0: [1]}, 1)

    @classmethod
    def hyperplane(cls, params: BundleParams) -> "ChowElement":
        return cls._of(params, {1: [0, 1]}, 1)

    @classmethod
    def infinity(cls, params: BundleParams) -> "ChowElement":
        return cls._of(params, {1: [1, 0]}, 1)

    @classmethod
    def fiber_class(cls, params: BundleParams, height) -> "ChowElement":
        """h + height * eta, the class at fiber height `height`: (Q h + P eta)/Q."""
        height = to_fraction(height)
        return cls._of(params, {1: [height.numerator, height.denominator]}, height.denominator)

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        r = self.params.r
        return {
            (k, d - k): Fraction(c, self._den)
            for d, row in self._rows.items()
            for k, c in enumerate(row, max(0, d - r + 1))
            if c
        }

    def __add__(self, other: "ChowElement") -> "ChowElement":
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        rows = {d: [c * s for c in row] for d, row in self._rows.items()}
        for d, row in other._rows.items():
            if d in rows:
                rows[d] = [c + e * t for c, e in zip(rows[d], row)]
            else:
                rows[d] = [e * t for e in row]
        return ChowElement._of(self.params, _nonzero(rows), den)

    def __mul__(self, other) -> "ChowElement":
        if isinstance(other, ChowElement):
            params = self.params
            n, r = params.n, params.m + 2
            top = n + r - 1
            raw: dict[int, list[int]] = {}
            for d1, row1 in self._rows.items():
                lo1 = d1 - r + 1 if d1 >= r else 0
                for d2, row2 in other._rows.items():
                    d = d1 + d2
                    if d > top:
                        continue
                    width = min(n, d) + 1
                    acc = raw.get(d)
                    if acc is None:
                        acc = raw[d] = [0] * width
                    for i, x in enumerate(row1, lo1 + (d2 - r + 1 if d2 >= r else 0)):
                        if i >= width:
                            break
                        if x:
                            for k, y in enumerate(row2[: width - i], i):
                                acc[k] += x * y
            rows = _nonzero({d: _fold(n, r, d, row) for d, row in raw.items()})
            return ChowElement._of(params, rows, self._den * other._den)
        f = to_fraction(other)
        rows = {d: [c * f.numerator for c in row] for d, row in self._rows.items()} if f else {}
        return ChowElement._of(self.params, rows, self._den * f.denominator)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "ChowElement":
        params = self.params
        if e > 0 and list(self._rows) == [1]:
            # (c0 eta + c1 h)^e is the binomial row C(e, k) c1^k c0^(e-k) of
            # h^k eta^(e-k), folded once; powers of h above n drop.  Of a
            # monomial (c0 or c1 zero) it has the one entry c^e, at k = 0 or e
            n, r = params.n, params.r
            c0, c1 = self._rows[1]
            rows = {}
            if e <= params.dim:
                if c0 and c1:
                    row = [math.comb(e, k) * c1**k * c0 ** (e - k) for k in range(min(n, e) + 1)]
                else:
                    row = [0] * (min(n, e) + 1)
                    k = 0 if c0 else e
                    if k <= n:
                        row[k] = (c0 or c1) ** e
                rows = _nonzero({e: _fold(n, r, e, row)})
            return ChowElement._of(params, rows, self._den**e)
        out, base = None, self
        while e > 0:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return ChowElement.one(params) if out is None else out

    def degrees(self) -> set[int]:
        return set(self._rows)

    def top_coefficient(self) -> Fraction:
        """Coefficient of h^n eta^(r-1), the only monomial of top degree."""
        row = self._rows.get(self.params.dim)
        return Fraction(row[0] if row else 0, self._den)


def intersection_number(factors, params: BundleParams) -> Fraction:
    """Exact pairing of a product of ChowElements against the fundamental class.

    The reduced top monomial h^n eta^(r-1) pairs to d; products whose total
    degree misses the dimension pair to zero (a warning is emitted when the
    factors are homogeneous and their degrees visibly cannot reach it).
    All factors but the last are multiplied out; the last is paired with
    that product through the top-degree coefficient, without forming it:
    h^k eta^(N-k) reduces to t[k] h^n eta^(r-1), so rows of degrees d and
    N - d pair to the sum of x_i y_j t[i + j] over their monomials.
    """
    product = last = None
    declared = 0
    homogeneous = True
    for f in factors:
        if len(f._rows) == 1:
            declared += next(iter(f._rows))
        else:
            homogeneous = False
        if last is not None:
            product = last if product is None else product * last
        last = f
    if homogeneous and declared != params.dim:
        warnings.warn(
            f"total degree {declared} does not match dimension {params.dim}; pairing is 0",
            RuntimeWarning,
            stacklevel=2,
        )
    if product is None:
        top = ChowElement.one(params) if last is None else last
        row = top._rows.get(params.dim)
        num, den = row[0] if row else 0, top._den
    else:
        num, den = _top_pairing(params, product._rows, last._rows), product._den * last._den
    return Fraction(num * params.d.numerator, den * params.d.denominator)


@lru_cache(maxsize=None)
def _top_table(n: int, r: int) -> tuple[int, ...]:
    """t[k], k <= n: the coefficient of h^n eta^(r-1) in h^k eta^(n+r-1-k)
    reduced, read off the fold table of the top degree (whose basis is that
    one monomial)."""
    _, rules = _fold_table(n, r, n + r - 1)
    return tuple(sum(c for _, c in rule) for rule in rules) + (1,)


def _top_pairing(params: BundleParams, rows1: dict[int, list[int]], rows2: dict[int, list[int]]) -> int:
    """The numerator of the top coefficient of the product of two elements,
    given by their rows, over the product of their denominators."""
    n, r = params.n, params.m + 2
    top, t = n + r - 1, _top_table(n, r)
    total = 0
    for d1, row1 in rows1.items():
        row2 = rows2.get(top - d1)
        if row2 is None:
            continue
        # entry j of row2 is h^(lo2 + j), so the product monomial is h^(i + j);
        # t[i:] is empty past h^n
        lo = max(0, d1 - r + 1) + max(0, top - d1 - r + 1)
        for i, x in enumerate(row1, lo):
            if x:
                total += x * sum(map(operator.mul, row2, t[i:]))
    return total


def pairing_number(l: int, params: BundleParams) -> Fraction:
    """h^(n-l) . eta^(r-1+l), computed by ring reduction."""
    if l < 0 or l > params.n:
        raise InputError("need 0 <= l <= n")
    h = ChowElement.hyperplane(params)
    eta = ChowElement.infinity(params)
    return intersection_number([h ** (params.n - l), eta ** (params.r - 1 + l)], params)


def steady_slope(params: BundleParams, s) -> Fraction:
    """Slope constant of the steady profile punctured at s, exact.

    ((1+a)^n a^m b + n I_{m,n-1,s}(a)) / I_{m,n,s}(a) for 0 <= s < a; at
    s = 0 this is the topological slope of the pair.  Numerator and
    denominator are integers until the one Fraction at the end.
    """
    s = to_fraction(s)
    if s < 0 or s >= params.a:
        raise InputError("need 0 <= s < a")
    num, den = _slope_numerator(params, s)
    u, v = _weight_integral_pair(params.m, params.n, s, params.a)
    return Fraction(num * v, den * u)


def _critical_coeffs(params: BundleParams) -> tuple[list[int], int]:
    """The coefficients of `critical_polynomial` as integers over one positive
    denominator, in lowest terms."""
    n, m = params.n, params.m
    (cn, cd), (wn, wd) = _slope_numerator(params, 0), _antiderivative_at(m, n, 1, params.a)
    upper, du = _antiderivative(m, n, 1)
    lower, dl = _antiderivative(m, n - 1, 1)
    scale = cd * wd * dl  # du divides wd
    coeffs = [n * c * (scale // du) for c in upper]
    const = cn * (scale // cd)
    coeffs[0] += const - n * wn * (scale // wd)
    coeffs[1] += const
    for i, c in enumerate(lower):
        term = n * c * (scale // dl)
        coeffs[i] -= term
        coeffs[i + 1] -= term
    g = math.gcd(scale, *coeffs)
    return [c // g for c in coeffs], scale // g


def critical_polynomial(params: BundleParams) -> list[Fraction]:
    """Coefficients (ascending) of p(s) = (mu_s (1+s) - n) I_{m,n,s}(a).

    p is a degree n+m+1 polynomial, strictly increasing on (0, a), negative
    at 0 exactly in the unstable case and positive at a; its root is the
    puncture location of the singular limit.  With W_k the antiderivative of
    x^m (1+x)^k vanishing at 0 and C = (1+a)^n a^m b + n W_(n-1)(a),
    p(s) = (1+s) (C - n W_(n-1)(s)) - n (W_n(a) - W_n(s)).
    """
    coeffs, scale = _critical_coeffs(params)
    return [Fraction(c, scale) for c in coeffs]


def _newton(coeffs: list[float], lo: float, hi: float) -> float:
    """Float Newton on an increasing polynomial, kept inside (lo, hi), which
    the float sign of p narrows; a step that would leave it bisects instead."""
    x = 0.5 * (lo + hi)
    for _ in range(100):
        p = dp = 0.0
        for c in reversed(coeffs):
            dp = dp * x + p
            p = p * x + c
        if p == 0:
            return x
        if p < 0:
            lo = x
        else:
            hi = x
        nxt = x - p / dp if dp > 0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-16 * x:
            return nxt
        x = nxt
    return x


def _float_bits(x: float) -> int:
    """The bit pattern of a nonnegative float, an integer increasing with x."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _straddle(coeffs: list[int], x: float, top: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with p(lo) < 0 <= p(hi), exactly, for p
    increasing on [0, top] with p(0) < 0 <= p(top).

    Gallops from x in steps of 1, 2, 4, ... floats until the exact sign
    changes, then halves; a start within an ulp of the root costs two signs.
    """

    def negative(k: int) -> bool:
        return _eval_poly(coeffs, *_bits_float(k).as_integer_ratio()) < 0

    lo, hi = 0, _float_bits(top)
    k, step = min(max(_float_bits(x), lo), hi), 1
    if negative(k):
        lo = k
        while hi - lo > 1:
            k = min(lo + step, hi - 1)
            if not negative(k):
                hi = k
                break
            lo, step = k, 2 * step
    else:
        hi = k
        while hi - lo > 1:
            k = max(hi - step, lo + 1)
            if negative(k):
                lo = k
                break
            hi, step = k, 2 * step
    while hi - lo > 1:
        k = (lo + hi) // 2
        if negative(k):
            lo = k
        else:
            hi = k
    return _bits_float(lo), _bits_float(hi)


@dataclass
class BundleSlopeCertificate:
    """Verdict and singular-limit data for the symmetric pair on the bundle.

    lam      the puncture: None when stable, 0.0 when semistable, else the
             float nearest the exact root of the critical polynomial
    bracket  the adjacent floats lo < hi with p(lo) < 0 <= p(hi), so the
             exact root lies in (lo, hi]; (0.0, 0.0) when semistable, None
             when stable
    residual |p(lam)| of the critical polynomial, rounded from its exact value
    """

    mu0: Fraction
    n: int
    verdict: str
    lam: float | None
    bracket: tuple[float, float] | None
    zeta_inv: float
    residual: float
    alpha_lambda_top_power: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "mu0": float(self.mu0),
            "mu0_exact": str(self.mu0),
            "n": self.n,
            "verdict": self.verdict,
            "lambda": self.lam,
            "bracket": None if self.bracket is None else list(self.bracket),
            "zeta_inv": self.zeta_inv,
            "residual": self.residual,
            "alpha_lambda_top_power": self.alpha_lambda_top_power,
        }


def min_slope_certificate(params: BundleParams) -> BundleSlopeCertificate:
    """Minimizer of the slope function over punctures and the invariant slope.

    Stable when mu0 > n (no puncture), semistable when mu0 = n (puncture 0),
    unstable when mu0 < n: then the puncture is the unique root of the
    polynomial p, increasing on (0, a), and the minimal slope is n/(1+root).
    Float Newton finds the root; the exact sign of p at adjacent floats then
    brackets it, and lam is the end of that bracket nearer the root.  The
    exact straddle p(lo) < 0 <= p(hi) is the certificate: no tolerance enters.
    """
    n, m, a = params.n, params.m, params.a
    # mu0 = mn / md = C / W_n(a)
    (sn, sd), (wn, wd) = _slope_numerator(params, 0), _antiderivative_at(m, n, 1, a)
    mn, md = sn * wd, sd * wn
    if mn >= n * md:
        verdict, lam, bracket = (STABLE, None, None) if mn > n * md else (SEMISTABLE, 0.0, (0.0, 0.0))
        zeta_inv, residual, num, den = mn / md, 0.0, 0, 1
    else:
        verdict = UNSTABLE
        coeffs, scale = _critical_coeffs(params)
        top = a.numerator / a.denominator
        tn, td = top.as_integer_ratio()
        if tn * a.denominator < a.numerator * td:
            top = math.nextafter(top, math.inf)
        lo, hi = bracket = _straddle(coeffs, _newton([c / scale for c in coeffs], 0.0, top), top)
        # the midpoint of the bracket decides which end is nearer the root
        (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
        lam = lo if _eval_poly(coeffs, n_lo * d_hi + n_hi * d_lo, 2 * d_lo * d_hi) > 0 else hi
        num, den = lam.as_integer_ratio()
        # p(hi) >= 0 puts the root at or below hi, so n / (1 + hi) < mu0 holds exactly;
        # zeta, at lam = lo, can pass mu0 when mu0 - n / (1 + root) is below float resolution
        assert n * d_hi * md < mn * (d_hi + n_hi), "minimal slope must undercut the topological slope when unstable"
        zeta_inv = n * den / (den + num)
        residual = abs(_eval_poly(coeffs, num, den)) / (scale * den ** (len(coeffs) - 1))
    # the top power at the puncture num / den: c_{n,m} d (W_n(a) - W_n(num / den)), W_n(num / den) = ln / ld
    upper, du = _antiderivative(m, n, 1)
    ln, ld = _eval_poly(upper, num, den), du * den ** (len(upper) - 1)
    cn = params.dim * math.comb(params.dim - 1, n) * params.d.numerator
    return BundleSlopeCertificate(
        mu0=Fraction(mn, md),
        n=n,
        verdict=verdict,
        lam=lam,
        bracket=bracket,
        zeta_inv=zeta_inv,
        residual=residual,
        alpha_lambda_top_power=cn * (wn * ld - ln * wd) / (params.d.denominator * wd * ld),
    )


def blowup_top_power(params: BundleParams, s) -> Fraction:
    """Top self-intersection of the blow-up class at puncture s, closed form."""
    return _energy_constant(params) * weight_integral(params.m, params.n, to_fraction(s), params.a)


def blowup_mixed_power(params: BundleParams, s) -> Fraction:
    """Pairing of the (N-1)-st power of the blow-up class with the pullback."""
    s = to_fraction(s)
    n, m, a, b, d, N = params.n, params.m, params.a, params.b, params.d, params.dim
    return d * math.comb(N - 1, n) * ((1 + a) ** n * a**m * b + n * weight_integral(m, n - 1, s, a))
