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

Everything exact runs on Python integers: ring elements are integer
numerators over one denominator, and the puncture, a root of a polynomial
with no closed form, is bracketed by adjacent floats at which the exact sign
of that polynomial, cleared of denominators, changes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import warnings

from .errors import InputError
from .surface_lattice import to_fraction

__all__ = [
    "BundleParams",
    "ChowElement",
    "BundleSlopeCertificate",
    "weight_integral",
    "intersection_number",
    "pairing_number",
    "steady_slope",
    "steady_slope_chow",
    "critical_polynomial",
    "min_slope_certificate",
    "blowup_top_power",
    "blowup_top_power_sum",
    "blowup_mixed_power",
    "blowup_mixed_power_sum",
    "count_compositions",
    "combinatorial_identity_check",
]


def _binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


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
        object.__setattr__(self, "a", to_fraction(self.a))
        object.__setattr__(self, "b", to_fraction(self.b))
        object.__setattr__(self, "d", to_fraction(self.d))
        if self.n < 1 or self.m < 0:
            raise InputError("need base dimension n >= 1 and m >= 0")
        if self.a <= 0 or self.b <= 0 or self.d <= 0:
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
        if len(toks) not in (4, 5):
            raise InputError("expected m,n,a,b[,d]")
        m, n = int(toks[0]), int(toks[1])
        a, b = Fraction(toks[2]), Fraction(toks[3])
        d = Fraction(toks[4]) if len(toks) == 5 else Fraction(1)
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


def weight_integral(m: int, n: int, s, x) -> Fraction:
    """Exact integral of (1+t)^n t^m from s to x: W(x) - W(s) for the
    antiderivative W of the weight that vanishes at 0."""
    if m < 0 or n < 0:
        raise InputError("need m >= 0 and n >= 0")
    s, x = to_fraction(s), to_fraction(x)
    if s > x:
        raise InputError("need s <= x")
    return Fraction(*_antiderivative_at(m, n, 1, x)) - Fraction(*_antiderivative_at(m, n, 1, s))


def _energy_constant(params: BundleParams) -> Fraction:
    """c_{n,m} d = (n+m+1) C(n+m, n) d, the normalization of the energies and
    of the top power of the blow-up class."""
    return params.dim * _binom(params.dim - 1, params.n) * params.d


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
                out[j + i] = out.get(j + i, 0) + (-1) ** (i - 1) * _binom(r - 1, i) * c
    return tuple((j, c) for j, c in sorted(out.items()) if c)


def _reduce(params: BundleParams, terms: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """Integer terms {(k, l): c} of any degree rewritten in the basis
    h^k eta^l, k <= n, l < r; zero coefficients dropped."""
    n, r = params.n, params.r
    out: dict[tuple[int, int], int] = {}
    for (k, l), c in terms.items():
        if not c or k > n:
            continue
        for j, t in _eta_power(r, l):
            if k + j > n:
                break
            key = (k + j, l - j)
            out[key] = out.get(key, 0) + t * c
    return {key: c for key, c in out.items() if c}


class ChowElement:
    """Polynomial in the base hyperplane class h and the fiber class eta.

    Coefficients are stored reduced: powers of h above n vanish and eta^r is
    rewritten through the defining relation
    eta^r = sum_j (-1)^(j-1) C(r-1, j) h^j eta^(r-j).
    They are held as integer numerators over one common denominator, and a
    product is reduced against the cached integer powers of eta; `coeffs`
    gives them as Fractions.
    """

    def __init__(self, params: BundleParams, coeffs: dict[tuple[int, int], Fraction] | None = None):
        values = {key: to_fraction(v) for key, v in (coeffs or {}).items()}
        den = math.lcm(*(v.denominator for v in values.values()))
        self.params = params
        self._num = _reduce(params, {key: v.numerator * (den // v.denominator) for key, v in values.items()})
        self._den = den

    @classmethod
    def _of(cls, params: BundleParams, num: dict[tuple[int, int], int], den: int) -> "ChowElement":
        """The element num/den, num already reduced, den > 0."""
        out = cls.__new__(cls)
        out.params, out._num, out._den = params, num, den
        return out

    @classmethod
    def one(cls, params: BundleParams) -> "ChowElement":
        return cls._of(params, {(0, 0): 1}, 1)

    @classmethod
    def hyperplane(cls, params: BundleParams) -> "ChowElement":
        return cls._of(params, {(1, 0): 1}, 1)

    @classmethod
    def infinity(cls, params: BundleParams) -> "ChowElement":
        return cls._of(params, {(0, 1): 1}, 1)

    @classmethod
    def fiber_class(cls, params: BundleParams, height) -> "ChowElement":
        """h + height * eta, the class at fiber height `height`: (Q h + P eta)/Q."""
        height = to_fraction(height)
        q = height.denominator
        return cls._of(params, _reduce(params, {(1, 0): q, (0, 1): height.numerator}), q)

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        return {key: Fraction(c, self._den) for key, c in self._num.items()}

    def __add__(self, other: "ChowElement") -> "ChowElement":
        den = math.lcm(self._den, other._den)
        out = {key: c * (den // self._den) for key, c in self._num.items()}
        scale = den // other._den
        for key, c in other._num.items():
            out[key] = out.get(key, 0) + c * scale
        return ChowElement._of(self.params, {key: c for key, c in out.items() if c}, den)

    def __mul__(self, other) -> "ChowElement":
        if isinstance(other, ChowElement):
            n = self.params.n
            out: dict[tuple[int, int], int] = {}
            for (k1, l1), v1 in self._num.items():
                for (k2, l2), v2 in other._num.items():
                    if k1 + k2 <= n:
                        key = (k1 + k2, l1 + l2)
                        out[key] = out.get(key, 0) + v1 * v2
            return ChowElement._of(self.params, _reduce(self.params, out), self._den * other._den)
        f = to_fraction(other)
        return ChowElement._of(
            self.params,
            {key: c * f.numerator for key, c in self._num.items()} if f else {},
            self._den * f.denominator,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "ChowElement":
        out = ChowElement.one(self.params)
        base = self
        while e > 0:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def degrees(self) -> set[int]:
        return {k + l for k, l in self._num}

    def top_coefficient(self) -> Fraction:
        """Coefficient of h^n eta^(r-1), the only monomial of top degree."""
        return Fraction(self._num.get((self.params.n, self.params.r - 1), 0), self._den)


def intersection_number(factors, params: BundleParams) -> Fraction:
    """Exact pairing of a product of ChowElements against the fundamental class.

    The reduced top monomial h^n eta^(r-1) pairs to d; products whose total
    degree misses the dimension pair to zero (a warning is emitted when the
    factors are homogeneous and their degrees visibly cannot reach it).
    """
    product = ChowElement.one(params)
    declared = 0
    homogeneous = True
    for f in factors:
        degs = f.degrees()
        if len(degs) == 1:
            declared += next(iter(degs))
        else:
            homogeneous = False
        product = product * f
    if homogeneous and declared != params.dim:
        warnings.warn(
            f"total degree {declared} does not match dimension {params.dim}; pairing is 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return product.top_coefficient() * params.d


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
    s = 0 this is the topological slope of the pair.
    """
    s = to_fraction(s)
    if s < 0 or s >= params.a:
        raise InputError("need 0 <= s < a")
    n, m, a, b = params.n, params.m, params.a, params.b
    num = (1 + a) ** n * a**m * b + n * weight_integral(m, n - 1, s, a)
    den = weight_integral(m, n, s, a)
    return num / den


def steady_slope_chow(params: BundleParams) -> Fraction:
    """(n+m+1) alpha^(n+m).beta / alpha^(n+m+1) via the ring oracle."""
    alpha = ChowElement.fiber_class(params, params.a)
    beta = ChowElement.fiber_class(params, params.b)
    N = params.dim
    num = intersection_number([alpha ** (N - 1), beta], params)
    den = intersection_number([alpha**N], params)
    return N * num / den


def critical_polynomial(params: BundleParams) -> list[Fraction]:
    """Coefficients (ascending) of p(s) = (mu_s (1+s) - n) I_{m,n,s}(a).

    p is a degree n+m+1 polynomial, strictly increasing on (0, a), negative
    at 0 exactly in the unstable case and positive at a; its root is the
    puncture location of the singular limit.  With W_k the antiderivative of
    x^m (1+x)^k vanishing at 0 and C = (1+a)^n a^m b + n W_(n-1)(a),
    p(s) = (1+s) (C - n W_(n-1)(s)) - n (W_n(a) - W_n(s)).
    """
    n, m, a, b = params.n, params.m, params.a, params.b
    const = (1 + a) ** n * a**m * b + n * weight_integral(m, n - 1, 0, a)
    upper, den = _antiderivative(m, n, 1)
    coeffs = [Fraction(n * c, den) for c in upper]
    coeffs[0] += const - n * weight_integral(m, n, 0, a)
    coeffs[1] += const
    lower, den = _antiderivative(m, n - 1, 1)
    for i, c in enumerate(lower):
        term = Fraction(n * c, den)
        coeffs[i] -= term
        coeffs[i + 1] -= term
    return coeffs


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
    from .surface_slopes import SEMISTABLE, STABLE, UNSTABLE

    n = params.n
    mu0 = steady_slope(params, 0)
    if mu0 >= n:
        stable = mu0 > n
        return BundleSlopeCertificate(
            mu0=mu0,
            n=n,
            verdict=STABLE if stable else SEMISTABLE,
            lam=None if stable else 0.0,
            bracket=None if stable else (0.0, 0.0),
            zeta_inv=float(mu0),
            residual=0.0,
            alpha_lambda_top_power=float(blowup_top_power(params, 0)),
        )
    poly = critical_polynomial(params)
    scale = math.lcm(*(c.denominator for c in poly))
    coeffs = [c.numerator * (scale // c.denominator) for c in poly]
    top = float(params.a)
    if top < params.a:
        top = math.nextafter(top, math.inf)
    lo, hi = _straddle(coeffs, _newton([float(c) for c in poly], 0.0, top), top)
    # the midpoint of the bracket decides which end is nearer the root
    (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
    lam = lo if _eval_poly(coeffs, n_lo * d_hi + n_hi * d_lo, 2 * d_lo * d_hi) > 0 else hi
    num, den = lam.as_integer_ratio()
    zeta = Fraction(n * den, den + num)
    # p(hi) >= 0 puts the root at or below hi, so n / (1 + hi) < mu0 holds exactly;
    # zeta, at lam = lo, can pass mu0 when mu0 - n / (1 + root) is below float resolution
    assert Fraction(n * d_hi, d_hi + n_hi) < mu0, "minimal slope must undercut the topological slope when unstable"
    return BundleSlopeCertificate(
        mu0=mu0,
        n=n,
        verdict=UNSTABLE,
        lam=lam,
        bracket=(lo, hi),
        zeta_inv=float(zeta),
        residual=abs(_eval_poly(coeffs, num, den)) / (scale * den ** (len(coeffs) - 1)),
        alpha_lambda_top_power=float(blowup_top_power(params, Fraction(num, den))),
    )


def blowup_top_power(params: BundleParams, s) -> Fraction:
    """Top self-intersection of the blow-up class at puncture s, closed form."""
    return _energy_constant(params) * weight_integral(params.m, params.n, to_fraction(s), params.a)


def blowup_top_power_sum(params: BundleParams, s) -> Fraction:
    """Same number via alpha^N from the ring minus the exceptional corrections.

    The corrections pair powers of the exceptional divisor against the base
    class; each pairing value is C(r-2+l, l) d by the recursion on the
    projectivized normal bundle.
    """
    s = to_fraction(s)
    N, n, r, d = params.dim, params.n, params.r, params.d
    alpha = ChowElement.fiber_class(params, params.a)
    total = intersection_number([alpha**N], params)
    for l in range(0, n + 1):
        total -= _binom(N, n - l) * s ** (r - 1 + l) * _binom(r - 2 + l, l) * d
    return total


def blowup_mixed_power(params: BundleParams, s) -> Fraction:
    """Pairing of the (N-1)-st power of the blow-up class with the pullback."""
    s = to_fraction(s)
    n, m, a, b, d, N = params.n, params.m, params.a, params.b, params.d, params.dim
    return d * _binom(N - 1, n) * ((1 + a) ** n * a**m * b + n * weight_integral(m, n - 1, s, a))


def blowup_mixed_power_sum(params: BundleParams, s) -> Fraction:
    s = to_fraction(s)
    N, n, r, d = params.dim, params.n, params.r, params.d
    alpha = ChowElement.fiber_class(params, params.a)
    beta = ChowElement.fiber_class(params, params.b)
    total = intersection_number([alpha ** (N - 1), beta], params)
    for l in range(0, n):
        total -= _binom(N - 1, n - 1 - l) * s ** (r - 1 + l) * _binom(r - 2 + l, l) * d
    return total


@lru_cache(maxsize=None)
def count_compositions(parts: int, total: int) -> int:
    """Number of nonnegative integer solutions of x_0 + ... + x_parts = total.

    Dynamic-programming enumeration; serves as the independent oracle for the
    binomial identity below.
    """
    if parts == 0:
        return 1
    return sum(count_compositions(parts - 1, total - x) for x in range(total + 1))


def combinatorial_identity_check(s: int, q: int) -> bool:
    """Check sum_j (-1)^(j-1) C(s+1,j) C(s+q-j, q-j) = C(q+s, q), three ways."""
    if s < 1 or q < 1:
        raise InputError("need positive integers s and q")
    lhs = sum((-1) ** (j - 1) * _binom(s + 1, j) * _binom(s + q - j, q - j) for j in range(1, s + 2))
    rhs = _binom(q + s, q)
    return lhs == rhs == count_compositions(s, q)
