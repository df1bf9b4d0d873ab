"""Reference values computed apart from slopeflow, used to check its outputs.

Nothing here imports slopeflow.  Integrals are Gauss-Legendre quadratures in
floating point (the program integrates exactly over Fraction), roots are
float bisections, and the surface values are the closed forms on the plane
blown up in one point, with alpha = pH - qE and beta = bH - E.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)

STABLE, SEMISTABLE, UNSTABLE = "Stable", "Semistable", "Unstable"


def quad(f, lo: float, hi: float, pieces: int = 4) -> float:
    """Composite 64-point Gauss-Legendre integral of a vectorized f over [lo, hi]."""
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, pieces + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    return float(np.sum(half[:, None] * _GL_W[None, :] * f(nodes)))


def _weight(n: int, m: int):
    return lambda t: (1.0 + t) ** n * t**m


def bundle_slope(n: int, m: int, a: float, b: float, s) -> np.ndarray:
    """mu_s = ((1+a)^n a^m b + n int_s^a (1+t)^(n-1) t^m) / int_s^a (1+t)^n t^m.

    Vectorized over s; both integrals are quadratures of polynomials, exact up
    to rounding.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    half = 0.5 * (a - s)
    nodes = 0.5 * (a + s)[:, None] + half[:, None] * _GL_X[None, :]
    w = _GL_W[None, :] * half[:, None]
    num = (1 + a) ** n * a**m * b + n * np.sum(w * (1 + nodes) ** (n - 1) * nodes**m, axis=1)
    den = np.sum(w * (1 + nodes) ** n * nodes**m, axis=1)
    return num / den


def bundle_limit(n: int, m: int, a, b) -> tuple[str, float | None, float]:
    """(verdict, puncture lambda, minimal slope zeta) of a symmetric bundle pair.

    lambda is the float root in (0, a) of mu_s (1+s) = n, found by bisection;
    zeta = n/(1+lambda).  Stable pairs have no root (zeta = mu_0), semistable
    ones have the root at 0 (zeta = n).
    """
    a, b = float(a), float(b)

    def g(s: float) -> float:
        return float(bundle_slope(n, m, a, b, s)[0]) * (1 + s) - n

    g0 = g(0.0)
    if abs(g0) <= 1e-12 * n:
        return SEMISTABLE, 0.0, float(n)
    if g0 > 0:
        return STABLE, None, g0 + n
    lo, hi = 0.0, a
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return UNSTABLE, lam, n / (1 + lam)


def min_slope_on_grid(n: int, m: int, a, b, points: int = 4001) -> float:
    """Minimum of mu_s over a uniform grid of punctures s in [0, a)."""
    a, b = float(a), float(b)
    s = np.linspace(0.0, a, points)[:-1]
    return float(np.min(bundle_slope(n, m, a, b, s)))


def cot_limit(b, p, q) -> float:
    """Limit cotangent of the dHYM pair on the one-point blow-up.

    xi = bp - sqrt((p^2+1)(b^2-1)) when that is at least q, else the
    topological c0 = (p^2 - q^2 - b^2 + 1) / (2(bp - q)).
    """
    b, p, q = float(b), float(p), float(q)
    xi = b * p - math.sqrt((p * p + 1) * (b * b - 1))
    if xi >= q:
        return xi
    return (p * p - q * q - b * b + 1) / (2 * (b * p - q))


def j_surface_verdict(p: Fraction, q: Fraction, b: Fraction) -> str:
    """J verdict of alpha = pH - qE, beta = bH - E from the three curve slopes.

    The curves are E, H - E and H; the topological slope is
    mu = 2 alpha.beta / alpha^2 = 2(bp - q)/(p^2 - q^2).
    """
    mu = 2 * (b * p - q) / (p * p - q * q)
    slopes = (1 / q, (b - 1) / (p - q), b / p)
    if all(s < mu for s in slopes):
        return STABLE
    if all(s <= mu for s in slopes):
        return SEMISTABLE
    return UNSTABLE


def j_surface_limit(p, q, b) -> float:
    """Minimal J-slope of alpha = pH - qE, beta = bH - E.

    The topological slope mu unless E destabilizes; then the root of
    vol(alpha - s beta) = s^2 beta^2 with the E-part removed,
    (p - s b)^2 = s^2 (b^2 - 1), gives xi = 1/s = (b + sqrt(b^2-1))/p.
    Raises ValueError when the instance lies outside that chamber.
    """
    p, q, b = Fraction(p), Fraction(q), Fraction(b)
    verdict = j_surface_verdict(p, q, b)
    mu = 2 * (b * p - q) / (p * p - q * q)
    if verdict != UNSTABLE:
        return float(mu)
    if not (1 / q > mu and (b - 1) / (p - q) <= mu and b / p <= mu):
        raise ValueError("only E may destabilize for the closed form to hold")
    bf, pf = float(b), float(p)
    s = pf / (bf + math.sqrt(bf * bf - 1))
    if s <= float(q):
        raise ValueError("root lies outside the chamber where E is negative")
    return (bf + math.sqrt(bf * bf - 1)) / pf


def energy_infimum(n: int, m: int, a, b, d=1) -> float:
    """Infimum of the moment-map energy by quadrature.

    c (zeta^2 int_lam^a (1+t)^n t^m + n^2 int_0^lam t^m (1+t)^(n-2)) with
    c = (n+m+1) C(n+m, n) d; lam = 0 and no bubble unless the pair is unstable.
    """
    _, lam, zeta = bundle_limit(n, m, a, b)
    lam = lam or 0.0
    c = (n + m + 1) * math.comb(n + m, n) * float(d)
    interior = zeta * zeta * quad(_weight(n, m), lam, float(a))
    bubble = n * n * quad(lambda t: t**m * (1.0 + t) ** (n - 2), 0.0, lam)
    return c * (interior + bubble)


def energy_infimum_1041() -> float:
    """Closed form for (n, m, a, b) = (1, 0, 4, 1): 6 + 4 sqrt3 + 2 log(10 - 5 sqrt3)."""
    r3 = math.sqrt(3.0)
    return 6 + 4 * r3 + 2 * math.log(10 - 5 * r3)


def l2_slope_deviation(n: int, m: int, a, b) -> float:
    """Weighted L2 distance from mu_0 of the limit slope profile.

    The limit slope is n/(1+x) up to the puncture and zeta beyond it.
    """
    verdict, lam, zeta = bundle_limit(n, m, a, b)
    if not lam:
        return 0.0
    mu0 = float(bundle_slope(n, m, float(a), float(b), 0.0)[0])
    inner = quad(lambda x: (n / (1 + x) - mu0) ** 2 * x**m * (1 + x) ** n, 0.0, lam)
    outer = (zeta - mu0) ** 2 * quad(_weight(n, m), lam, float(a))
    return math.sqrt(inner + outer)


def dhym_volume_bound(b, p, q) -> float:
    """Topological lower bound 2 sqrt(1 + c0^2) (bp - q) of the calibration volume."""
    b, p, q = float(b), float(p), float(q)
    c0 = (p * p - q * q - b * b + 1) / (2 * (b * p - q))
    return 2 * math.sqrt(1 + c0 * c0) * (b * p - q)


def dhym_volume_split(b, p, q) -> tuple[float, float]:
    """(interior, bubble) of the limiting calibration volume.

    The limit profile has boundary trace s = max(xi, q); its steady part
    contributes 2 sqrt(1 + c^2)(bp - s) with c its steady cotangent, and the
    jump from q up to s contributes 2 int_q^s sqrt(1 + y^2) dy.
    """
    b, p, q = float(b), float(p), float(q)
    s = max(b * p - math.sqrt((p * p + 1) * (b * b - 1)), q)
    c = (p * p - s * s - b * b + 1) / (2 * (b * p - s))
    interior = 2 * math.sqrt(1 + c * c) * (b * p - s)
    bubble = 2 * quad(lambda y: np.sqrt(1 + y * y), q, s)
    return interior, bubble
