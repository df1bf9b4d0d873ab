"""Exact intersection theory on P(O + L^(m+1)) and its zero-section blow-up.

The cohomology of the bundle is generated over the base by the class eta of
the infinity divisor, subject to one relation of degree r = m + 2; products
are reduced against that relation and paired in the top degree.  The same
recursion on the exceptional divisor of the zero-section blow-up gives the
closed forms for the slope function of punctured steady profiles, its convex
minimizer, and the invariant minimal slope.
"""

from __future__ import annotations

import math
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


def weight_integral(m: int, n: int, s, x) -> Fraction:
    """Exact integral of (1+t)^n t^m from s to x, by binomial expansion."""
    if m < 0 or n < 0:
        raise InputError("need m >= 0 and n >= 0")
    s, x = to_fraction(s), to_fraction(x)
    if s > x:
        raise InputError("need s <= x")
    total = Fraction(0)
    for k in range(n + 1):
        p = m + k + 1
        total += Fraction(_binom(n, k), p) * (x**p - s**p)
    return total


class ChowElement:
    """Polynomial in the base hyperplane class h and the fiber class eta.

    Coefficients are stored reduced: powers of h above n vanish and eta^r is
    rewritten through the defining relation
    eta^r = sum_j (-1)^(j-1) C(r-1, j) h^j eta^(r-j).
    """

    def __init__(self, params: BundleParams, coeffs: dict[tuple[int, int], Fraction] | None = None):
        self.params = params
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            for (k, l), v in coeffs.items():
                if v != 0:
                    self.coeffs[(k, l)] = self.coeffs.get((k, l), Fraction(0)) + to_fraction(v)
        self._reduce()

    @classmethod
    def one(cls, params: BundleParams) -> "ChowElement":
        return cls(params, {(0, 0): Fraction(1)})

    @classmethod
    def hyperplane(cls, params: BundleParams) -> "ChowElement":
        return cls(params, {(1, 0): Fraction(1)})

    @classmethod
    def infinity(cls, params: BundleParams) -> "ChowElement":
        return cls(params, {(0, 1): Fraction(1)})

    @classmethod
    def fiber_class(cls, params: BundleParams, height) -> "ChowElement":
        """h + height * eta, the class at fiber height `height`."""
        return cls(params, {(1, 0): Fraction(1), (0, 1): to_fraction(height)})

    def _reduce(self) -> None:
        n, r = self.params.n, self.params.r
        work = self.coeffs
        out: dict[tuple[int, int], Fraction] = {}
        while work:
            pending: dict[tuple[int, int], Fraction] = {}
            for (k, l), v in work.items():
                if v == 0 or k > n:
                    continue
                if l < r:
                    out[(k, l)] = out.get((k, l), Fraction(0)) + v
                    continue
                for j in range(1, r):
                    sign = Fraction((-1) ** (j - 1))
                    key = (k + j, l - j)
                    pending[key] = pending.get(key, Fraction(0)) + sign * _binom(r - 1, j) * v
            work = pending
        self.coeffs = {key: v for key, v in out.items() if v != 0}

    def __add__(self, other: "ChowElement") -> "ChowElement":
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + v
        return ChowElement(self.params, out)

    def __mul__(self, other) -> "ChowElement":
        if isinstance(other, ChowElement):
            out: dict[tuple[int, int], Fraction] = {}
            for (k1, l1), v1 in self.coeffs.items():
                for (k2, l2), v2 in other.coeffs.items():
                    key = (k1 + k2, l1 + l2)
                    out[key] = out.get(key, Fraction(0)) + v1 * v2
            return ChowElement(self.params, out)
        return ChowElement(
            self.params, {k: v * to_fraction(other) for k, v in self.coeffs.items()}
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
        return {k + l for k, l in self.coeffs}

    def top_coefficient(self) -> Fraction:
        """Coefficient of h^n eta^(r-1), the only monomial of top degree."""
        return self.coeffs.get((self.params.n, self.params.r - 1), Fraction(0))


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
    puncture location of the singular limit.
    """
    n, m, a, b = params.n, params.m, params.a, params.b
    N = params.dim
    coeffs = [Fraction(0)] * (N + 1)
    const = (1 + a) ** n * a**m * b + n * weight_integral(m, n - 1, 0, a)
    # (1+s) * const
    coeffs[0] += const
    coeffs[1] += const
    # -(1+s) * n * I_{m,n-1,0}(s): I(s) = sum_k C(n-1,k) s^(m+k+1)/(m+k+1)
    for k in range(n):
        p = m + k + 1
        c = Fraction(n) * _binom(n - 1, k) / p
        coeffs[p] -= c
        coeffs[p + 1] -= c
    # -n * I_{m,n,0}(a) + n * I_{m,n,0}(s)
    coeffs[0] -= n * weight_integral(m, n, 0, a)
    for k in range(n + 1):
        p = m + k + 1
        coeffs[p] += Fraction(n) * _binom(n, k) / p
    return coeffs


def _eval_poly(coeffs: list[Fraction], s: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@dataclass
class BundleSlopeCertificate:
    """Verdict and singular-limit data for the symmetric pair on the bundle."""

    mu0: Fraction
    n: int
    verdict: str
    lam: float | None
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
            "zeta_inv": self.zeta_inv,
            "residual": self.residual,
            "alpha_lambda_top_power": self.alpha_lambda_top_power,
        }


#: relative width to which the puncture root is bisected; its polynomial has
#: degree n + m + 1 and no closed-form root
PUNCTURE_TOL = Fraction(1, 10**14)


def min_slope_certificate(params: BundleParams) -> BundleSlopeCertificate:
    """Minimizer of the slope function over punctures and the invariant slope.

    Stable when mu0 > n (no puncture), semistable when mu0 = n (puncture 0),
    unstable when mu0 < n: then the puncture is the unique root of the
    increasing polynomial p in (0, a) and the minimal slope is n/(1+root).
    """
    from .surface_slopes import SEMISTABLE, STABLE, UNSTABLE

    n = params.n
    mu0 = steady_slope(params, 0)
    if mu0 > n:
        return BundleSlopeCertificate(
            mu0=mu0,
            n=n,
            verdict=STABLE,
            lam=None,
            zeta_inv=float(mu0),
            residual=0.0,
            alpha_lambda_top_power=float(blowup_top_power(params, 0)),
        )
    if mu0 == n:
        return BundleSlopeCertificate(
            mu0=mu0,
            n=n,
            verdict=SEMISTABLE,
            lam=0.0,
            zeta_inv=float(n),
            residual=0.0,
            alpha_lambda_top_power=float(blowup_top_power(params, 0)),
        )
    poly = critical_polynomial(params)
    lo, hi = Fraction(0), params.a
    assert _eval_poly(poly, lo) < 0 < _eval_poly(poly, hi)
    while hi - lo > PUNCTURE_TOL * max(hi, Fraction(1)):
        mid = (lo + hi) / 2
        v = _eval_poly(poly, mid)
        if v == 0:
            lo = hi = mid
            break
        if v < 0:
            lo = mid
        else:
            hi = mid
    lam = (lo + hi) / 2
    zeta = Fraction(n) / (1 + lam)
    residual = abs(float(_eval_poly(poly, lam)))
    scale = float(weight_integral(params.m, params.n, 0, params.a))
    if residual > 1e-12 * max(scale, 1.0):
        raise InputError(f"puncture root residual {residual} too large")
    assert zeta < mu0, "minimal slope must undercut the topological slope when unstable"
    return BundleSlopeCertificate(
        mu0=mu0,
        n=n,
        verdict=UNSTABLE,
        lam=float(lam),
        zeta_inv=float(zeta),
        residual=residual,
        alpha_lambda_top_power=float(blowup_top_power(params, lam)),
    )


def blowup_top_power(params: BundleParams, s) -> Fraction:
    """Top self-intersection of the blow-up class at puncture s, closed form."""
    s = to_fraction(s)
    N, n, m = params.dim, params.n, params.m
    return params.d * N * _binom(N - 1, n) * weight_integral(m, n, s, params.a)


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
    n, m, a, b, d = params.n, params.m, params.a, params.b, params.d
    N = params.dim
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
