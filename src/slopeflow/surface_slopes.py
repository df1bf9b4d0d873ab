"""Slope certificates for the J-equation and the dHYM equation on surfaces.

Both slopes are read off one volume equation vol(alpha - t beta) = A + B t +
C t^2: the minimal J-slope xi solves it for t = 1/xi with (A, B, C) = (0, 0,
beta^2), the dHYM slope with (beta^2, 0, beta^2), and the bigness threshold
with (0, 0, 0).  The volume along the ray is piecewise quadratic between the
walls where the support of the Zariski negative part grows, so the root is
found exactly, as r + s sqrt(d) with rational r, s and d, by walking those
chambers.  The negative part at the root is the witness divisor achieving the
slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ModelInconsistencyError
from .surface_lattice import (
    DivisorClass,
    SurfaceModel,
    _sign,
    _volume_root,
    intersect,
    is_kahler,
    is_nef,
    to_fraction,
    volume,
)

__all__ = [
    "STABLE",
    "SEMISTABLE",
    "UNSTABLE",
    "SlopeCertificate",
    "j_slope_certificate",
    "dhym_slope_certificate",
    "one_point_blowup_certificate",
    "bigness_threshold",
    "blowup_plane_model",
]

STABLE = "Stable"
SEMISTABLE = "Semistable"
UNSTABLE = "Unstable"


@dataclass
class SlopeCertificate:
    """An exact slope root, rounded to a float and bracketed by floats.

    slope             root of the volume equation (zeta_min or zeta_H)
    bracket           the adjacent floats below and above the exact root
                      (equal when the root is a float)
    witness           negative part of the Zariski decomposition at the root,
                      None when the decomposition has no negative part
    verdict           Stable / Semistable / Unstable
    topological_slope mu = 2 a.b/a^2 for J, c0 = (a^2-b^2)/(2a.b) for dHYM
    residual          |f(slope)| of the defining volume equation
    witness_slope     slope recomputed from the witness divisor (cross-check)
    """

    equation: str
    slope: float
    bracket: tuple[float, float]
    witness: DivisorClass | None
    verdict: str
    topological_slope: float
    residual: float
    witness_slope: float | None = None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "equation": self.equation,
            "slope": self.slope,
            "bracket": list(self.bracket),
            "witness": None if self.witness is None else {
                "coeffs": self.witness.as_floats(),
                "coeffs_exact": [str(c) for c in self.witness.coeffs],
            },
            "verdict": self.verdict,
            "topological_slope": self.topological_slope,
            "residual": self.residual,
            "witness_slope": self.witness_slope,
        }


def _nearest_float(a: int, b: int, n: int, e: int) -> tuple[float, tuple[float, float], int | None]:
    """(a + b sqrt(n)) / e for integers n >= 0 and e > 0: the float nearest it,
    the floats lo <= root <= hi bracketing it (equal when the root is a
    float), and a + b sqrt(n) when that is an integer, else None.

    An irrational root's first float comes from isqrt with 65 bits to spare,
    as (a^2 - b^2 n) / (a - b sqrt(n)) when the two terms have opposite signs
    so nothing cancels; it is within one ulp, and exact integer signs then
    pick the bracket and its end nearer the root.
    """

    def above(yn: int, yd: int) -> int:
        """The exact sign of root - yn / yd, for yd > 0."""
        return _sign(a * yd - e * yn, b * yd, n)

    r = math.isqrt(n)
    if not b or r * r == n:
        num = a + b * r
        x = num / e  # int division rounds correctly
        side = above(*x.as_integer_ratio())
        lo = x if side >= 0 else math.nextafter(x, -math.inf)
        hi = x if side <= 0 else math.nextafter(x, math.inf)
        return x, (lo, hi), num
    k = max(0, 65 - n.bit_length() // 2)
    m = math.isqrt(n << 2 * k)  # m <= sqrt(n) 2^k < m + 1
    if a * b >= 0:
        x = ((a << k) + b * m) / (e << k)
    else:
        x = ((a * a - b * b * n) << k) / (e * ((a << k) - b * m))
    if above(*x.as_integer_ratio()) > 0:
        lo, hi = x, math.nextafter(x, math.inf)
    else:
        lo, hi = math.nextafter(x, -math.inf), x
    (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
    nearer = hi if above(n_lo * d_hi + n_hi * d_lo, 2 * d_lo * d_hi) > 0 else lo  # against the midpoint
    return nearer, (lo, hi), None


def _rounded_root(r: Fraction, s: Fraction, d: Fraction) -> tuple[float, tuple[float, float], Fraction]:
    """r + s sqrt(d) as the float nearest it, the floats bracketing it, and the
    exact root when it is rational, else its float (one end of the bracket) as
    a Fraction."""
    # r + s sqrt(d) = (r_n s_d d_d + s_n r_d sqrt(d_n d_d)) / (r_d s_d d_d)
    e = r.denominator * s.denominator * d.denominator
    x, bracket, num = _nearest_float(
        r.numerator * s.denominator * d.denominator, s.numerator * r.denominator, d.numerator * d.denominator, e
    )
    return x, bracket, Fraction(x) if num is None else Fraction(num, e)


def _topological_slope(equation: str, a: DivisorClass, b: DivisorClass, model) -> Fraction:
    """mu = 2 a.b/a^2 for J, c0 = (a^2 - b^2)/(2 a.b) for dHYM."""
    a2, ab = intersect(a, a, model), intersect(a, b, model)
    if equation == "j":
        return 2 * ab / a2
    return (a2 - intersect(b, b, model)) / (2 * ab)


def _certificate(equation, alpha, beta, model, verdict, topological) -> SlopeCertificate:
    """Walk the chambers to the exact root and check it against volume().

    J solves vol(alpha - t beta) = t^2 beta^2 for t = 1/xi from t = 1/mu;
    dHYM solves vol(alpha - t beta) = (1 + t^2) beta^2 for t = xi from c0.
    """
    b2 = intersect(beta, beta, model)
    if equation == "j":
        quad, t0, to_t = (0, 0, b2), 1 / topological, lambda xi: 1 / xi
    else:
        quad, t0, to_t = (b2, 0, b2), topological, lambda xi: xi
    (r, s, d), (n_alpha, n_beta) = _volume_root(alpha, beta, model, t0, quad)
    if equation == "j":  # xi = 1/t, still in Q(sqrt d)
        norm = r * r - s * s * d
        r, s = r / norm, -s / norm
    slope, bracket, xi_hat = _rounded_root(r, s, d)
    gaps = {}
    for xi in bracket:
        t = to_t(Fraction(xi))
        gaps[xi] = volume(alpha - t * beta, model) - (quad[0] + quad[1] * t + quad[2] * t * t)
    if gaps[bracket[0]] * gaps[bracket[1]] > 0:
        raise ModelInconsistencyError(f"{equation} bracket {bracket} does not straddle the volume equation")
    negative = n_alpha - to_t(xi_hat) * n_beta
    return SlopeCertificate(
        equation=equation,
        slope=slope,
        bracket=bracket,
        witness=None if negative.is_zero() else negative,
        verdict=verdict,
        topological_slope=float(topological),
        # 0 at a rational root, which the walk solved exactly (a float root has gap 0)
        residual=0.0 if xi_hat != slope else float(abs(gaps[slope])),
        witness_slope=float(_topological_slope(equation, alpha - negative, beta, model)),
    )


def j_slope_certificate(alpha: DivisorClass, beta: DivisorClass, model: SurfaceModel) -> SlopeCertificate:
    """Minimal J-slope certificate for two Kahler classes on a surface.

    The root xi of vol(alpha - beta/xi) = beta^2/xi^2 lies in (0, mu], with
    xi = mu exactly when alpha - beta/mu satisfies the equation.  The verdict
    compares curve slopes (beta.C)/(alpha.C) with mu over the curve list.
    """
    if not is_kahler(alpha, model):
        raise InputError("alpha is not Kahler on this model")
    if not is_kahler(beta, model):
        raise InputError("beta is not Kahler on this model")
    mu = _topological_slope("j", alpha, beta, model)
    curve_slopes = [intersect(beta, c, model) / intersect(alpha, c, model) for c in model.curves]
    if all(cs < mu for cs in curve_slopes):
        verdict = STABLE
    elif all(cs <= mu for cs in curve_slopes):
        verdict = SEMISTABLE
    else:
        verdict = UNSTABLE
    return _certificate("j", alpha, beta, model, verdict, mu)


def bigness_threshold(alpha: DivisorClass, beta: DivisorClass, model: SurfaceModel) -> float:
    """sup{t : alpha - t beta is big} for a nef beta, the root of vol = 0."""
    if volume(alpha, model) <= 0:
        raise InputError("alpha itself is not big; no positive threshold")
    if not is_nef(beta, model) or beta.is_zero():
        raise InputError("beta is not a nonzero nef class on this model")
    root, _ = _volume_root(alpha, beta, model, Fraction(0), (0, 0, 0))
    return _rounded_root(*root)[0]


def dhym_slope_certificate(alpha: DivisorClass, beta: DivisorClass, model: SurfaceModel) -> SlopeCertificate:
    """dHYM slope certificate: the root of vol(alpha - t beta) = (1+t^2) beta^2.

    f(t) = vol(alpha - t beta) - (1+t^2) beta^2 is convex with f(c0) >= 0
    (equality exactly when alpha - c0 beta is nef) and f < 0 beyond the
    bigness threshold, so the root in [c0, threshold) is unique.  Verdict:
    Stable if alpha - c0 beta is Kahler, Semistable if it is nef but not
    Kahler, Unstable otherwise.
    """
    if not is_kahler(beta, model):
        raise InputError("beta is not Kahler on this model")
    if intersect(alpha, beta, model) <= 0:
        raise InputError("alpha.beta <= 0; replace alpha by -alpha and retry")
    c0 = _topological_slope("dhym", alpha, beta, model)
    gamma0 = alpha - c0 * beta
    if is_kahler(gamma0, model):
        verdict = STABLE
    elif is_nef(gamma0, model):
        verdict = SEMISTABLE
    else:
        verdict = UNSTABLE
    return _certificate("dhym", alpha, beta, model, verdict, c0)


def blowup_plane_model() -> SurfaceModel:
    """The plane blown up in one point, in the basis (H, -E).

    With this basis a class entered as ``p,q`` means pH - qE, matching the
    conventions used for the one-point-blow-up closed forms.  The curve list
    is the exceptional curve, the strict transform of a line through the
    point, and a general line.
    """
    one, zero = Fraction(1), Fraction(0)
    return SurfaceModel(
        basis_labels=("H", "-E"),
        form=((one, zero), (zero, -one)),
        curves=(
            DivisorClass((zero, -one)),   # E
            DivisorClass((one, one)),     # H - E
            DivisorClass((one, zero)),    # H
        ),
        kahler_ref=DivisorClass((Fraction(3), one)),  # 3H - E
    )


def _blowup_residual(pn: int, pd: int, bn: int, bd: int, tn: int, td: int) -> float:
    """|f(t)| of f(t) = vol(alpha - t beta) - (1 + t^2) beta^2
    = (p - tb)^2 - (1 + t^2)(b^2 - 1) beyond q, as `_certificate` gives it
    at an irrational root, for p = pn/pd, b = bn/bd and t = tn/td: one exact
    integer fraction, rounded once."""
    num = (pn * td * bd - tn * bn * pd) ** 2 - pd * pd * (td * td + tn * tn) * (bn * bn - bd * bd)
    return abs(num) / (pd * td * bd) ** 2


def _blowup_c0(pn: int, pd: int, bn: int, bd: int, tn: int, td: int) -> tuple[int, int]:
    """(p^2 - t^2 - b^2 + 1) / (2(bp - t)) for p = pn/pd, b = bn/bd and
    t = tn/td, as an integer numerator and a denominator of the sign of bp - t."""
    pb = pd * bd
    num = (pn * bd * td) ** 2 - (tn * pb) ** 2 - (bn * pd * td) ** 2 + (pb * td) ** 2
    return num, 2 * (bn * pn * td - tn * pb) * pb * td


def one_point_blowup_certificate(b, p, q) -> SlopeCertificate:
    """Closed-form dHYM certificate on the one-point blow-up of the plane.

    For alpha = pH - qE and beta = bH - E with b > 1 and bp > q:
    c0 = (p^2 - q^2 - b^2 + 1)/(2(bp - q)); the slope is
    bp - sqrt((p^2+1)(b^2-1)) whenever that value is >= q, which is exactly
    when q <= c0, and c0 otherwise; it is rounded and bracketed by floats as
    in `dhym_slope_certificate`.  The trichotomy verdict is the sign of q - c0.
    All of it is integer arithmetic on the numerators and denominators of
    b, p and q.
    """
    (bn, bd), (pn, pd), (qn, qd) = (to_fraction(x).as_integer_ratio() for x in (b, p, q))
    if bn <= bd:
        raise InputError("need b > 1 so that beta = bH - E is Kahler")
    c0_n, c0_d = _blowup_c0(pn, pd, bn, bd, qn, qd)
    if c0_d <= 0:
        raise InputError("need bp > q so that alpha.beta > 0")
    if qn * c0_d <= c0_n * qd:  # q <= c0
        verdict = UNSTABLE if qn * c0_d < c0_n * qd else SEMISTABLE
        # bp - sqrt((p^2+1)(b^2-1)) >= q, squared and over 2(bp - q) > 0, is q <= c0;
        # it is (bn pn - sqrt(S)) / (bd pd) with S = (pn^2 + pd^2)(bn^2 - bd^2)
        xi, bracket, num = _nearest_float(bn * pn, -1, (pn * pn + pd * pd) * (bn * bn - bd * bd), bd * pd)
        xn, xd = xi.as_integer_ratio() if num is None else (num, bd * pd)
        # (xi - q) E in the (H, -E) basis carries coefficient q - xi.
        witness = None if xn * qd == qn * xd else DivisorClass((Fraction(0), Fraction(qn * xd - xn * qd, qd * xd)))
        ws_n, ws_d = _blowup_c0(pn, pd, bn, bd, xn, xd)
        witness_slope = ws_n / ws_d
        # 0 at a rational root, as in `_certificate`
        residual = 0.0 if num is not None else _blowup_residual(pn, pd, bn, bd, xn, xd)
    else:
        verdict = STABLE
        xi, bracket, _ = _nearest_float(c0_n, 0, 0, c0_d)
        witness, witness_slope, residual = None, xi, 0.0
    return SlopeCertificate(
        equation="dhym",
        slope=xi,
        bracket=bracket,
        witness=witness,
        verdict=verdict,
        topological_slope=c0_n / c0_d,
        residual=residual,
        witness_slope=witness_slope,
    )
