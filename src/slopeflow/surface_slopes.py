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


def _approx_root(r: Fraction, s: Fraction, d: Fraction) -> Fraction:
    """r + s sqrt(d) to within 2^-64 relative, exactly when sqrt(d) is rational.

    sqrt(d) comes from math.isqrt; when r and s sqrt(d) have opposite signs the
    root is taken as (r^2 - s^2 d) / (r - s sqrt(d)) so nothing cancels.
    """
    n = d.numerator * d.denominator
    k = max(0, 65 - n.bit_length() // 2)
    m = math.isqrt(n << 2 * k)
    root_d = Fraction(2 * m + (m * m != n << 2 * k), d.denominator << k + 1)
    return r + s * root_d if r * s >= 0 else (r * r - s * s * d) / (r - s * root_d)


def _float_bracket(r: Fraction, s: Fraction, d: Fraction, x: float) -> tuple[float, float]:
    """The floats lo <= r + s sqrt(d) <= hi next to x, a float within 1 ulp of it."""
    side = _sign(Fraction(x) - r, -s, d)
    return (
        x if side <= 0 else math.nextafter(x, -math.inf),
        x if side >= 0 else math.nextafter(x, math.inf),
    )


def _rounded_root(r: Fraction, s: Fraction, d: Fraction) -> tuple[float, tuple[float, float], Fraction]:
    """r + s sqrt(d) as the float nearest it, the floats bracketing it, and the
    exact root when it is rational, else its float (one end of the bracket) as
    a Fraction."""
    approx = _approx_root(r, s, d)
    x = float(approx)
    # rational exactly when s = 0 or d, in lowest terms, is a square
    n = d.numerator * d.denominator
    exact = not s or math.isqrt(n) ** 2 == n
    lo, hi = bracket = _float_bracket(r, s, d, x)
    if not exact and lo != hi:
        # float(approx) is the end nearer the root unless the approximant's
        # error, 2^-64 relative (here doubled), can reach the bracket's
        # midpoint; then the exact sign of the root against it decides
        (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
        mid_n, mid_d = n_lo * d_hi + n_hi * d_lo, 2 * d_lo * d_hi
        a_n, a_d = approx.numerator, approx.denominator
        if abs(a_n * mid_d - mid_n * a_d) << 63 <= abs(a_n) * mid_d:
            x = lo if _sign(Fraction(mid_n, mid_d) - r, -s, d) > 0 else hi
    return x, bracket, approx if exact else Fraction(x)


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
    return float(_approx_root(*root))


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


def _blowup_residual(p: Fraction, b: Fraction, t: Fraction) -> float:
    """|f(t)| of f(t) = vol(alpha - t beta) - (1 + t^2) beta^2
    = (p - tb)^2 - (1 + t^2)(b^2 - 1) beyond q, as `_certificate` gives it
    at an irrational root: one exact integer fraction, rounded once."""
    pn, pd, bn, bd, tn, td = p.numerator, p.denominator, b.numerator, b.denominator, t.numerator, t.denominator
    num = (pn * td * bd - tn * bn * pd) ** 2 - pd * pd * (td * td + tn * tn) * (bn * bn - bd * bd)
    return abs(num) / (pd * td * bd) ** 2


def one_point_blowup_certificate(b, p, q) -> SlopeCertificate:
    """Closed-form dHYM certificate on the one-point blow-up of the plane.

    For alpha = pH - qE and beta = bH - E with b > 1 and bp > q:
    c0 = (p^2 - q^2 - b^2 + 1)/(2(bp - q)); the slope is
    bp - sqrt((p^2+1)(b^2-1)) whenever that value is >= q, which is exactly
    when q <= c0, and c0 otherwise; it is rounded and bracketed by floats as
    in `dhym_slope_certificate`.  The trichotomy verdict is the sign of q - c0.
    """
    b, p, q = to_fraction(b), to_fraction(p), to_fraction(q)
    if b <= 1:
        raise InputError("need b > 1 so that beta = bH - E is Kahler")
    if b * p <= q:
        raise InputError("need bp > q so that alpha.beta > 0")
    c0 = (p * p - q * q - b * b + 1) / (2 * (b * p - q))
    if q <= c0:
        verdict = UNSTABLE if q < c0 else SEMISTABLE
        # bp - sqrt((p^2+1)(b^2-1)) >= q, squared and over 2(bp - q) > 0, is q <= c0
        xi, bracket, xf = _rounded_root(b * p, Fraction(-1), (p * p + 1) * (b * b - 1))
        # (xi - q) E in the (H, -E) basis carries coefficient q - xi.
        witness = None if xf == q else DivisorClass((Fraction(0), q - xf))
        witness_slope = float(
            (p * p - xf * xf - b * b + 1) / (2 * (b * p - xf))
        )
        # 0 at a rational root, as in `_certificate`
        residual = 0.0 if xf != xi else _blowup_residual(p, b, xf)
    else:
        verdict = STABLE
        xi, bracket, _ = _rounded_root(c0, Fraction(0), Fraction(0))
        witness, witness_slope, residual = None, xi, 0.0
    return SlopeCertificate(
        equation="dhym",
        slope=xi,
        bracket=bracket,
        witness=witness,
        verdict=verdict,
        topological_slope=float(c0),
        residual=residual,
        witness_slope=witness_slope,
    )
