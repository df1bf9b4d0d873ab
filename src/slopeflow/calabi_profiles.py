"""Closed-form steady momentum profiles and pointwise slope/angle functionals.

Under the symmetric ansatz every metric is encoded by a momentum profile: an
increasing function psi on the fiber-height interval.  This module provides
the closed-form steady profiles for both equations, the background potentials
whose degenerate diffusion coefficients drive the flows, the pointwise slope
and angle evaluations, admissibility predicates and small grid utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle_geometry import BundleParams, min_slope_certificate, steady_slope
from .errors import AdmissibilityError, InputError, NoMonotoneSolutionError
from .surface_lattice import to_fraction

__all__ = [
    "MomentProfile",
    "BackgroundPotential",
    "background_potential",
    "admissible_j",
    "admissible_dhym",
    "require_admissible_j",
    "require_admissible_dhym",
    "steady_profile_j",
    "steady_profile_j_derivative",
    "sample_steady_profile_j",
    "singular_limit_profile_j",
    "steady_cot_slope",
    "steady_profile_dhym",
    "sample_steady_profile_dhym",
    "pointwise_slope",
    "pointwise_angle",
    "straight_line_profile",
    "special_cotangent_profile",
    "graded_grid",
    "quadratic_contact_report",
    "invert_steady_profile_j",
]

#: default slack when checking monotonicity of sampled profiles; the singular
#: limits are flat on part of the interval, so exact strictness is reserved
#: for closed-form samples.
ADMISSIBILITY_TOL = 1e-10


@dataclass
class MomentProfile:
    """A sampled momentum function on an interval, endpoint values pinned."""

    grid: np.ndarray
    values: np.ndarray
    boundary: tuple[float, float]

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise InputError("grid and values must be 1-d arrays of equal length")
        if self.grid.size < 3:
            raise InputError("need at least three sample points")
        if not np.all(np.diff(self.grid) > 0):
            raise InputError("grid must be strictly increasing")
        lo, hi = self.boundary
        if abs(self.values[0] - lo) > 1e-9 or abs(self.values[-1] - hi) > 1e-9:
            raise InputError("endpoint values do not match the pinned boundary")
        self.values[0], self.values[-1] = lo, hi

    def derivative(self) -> np.ndarray:
        """Centered first derivative at interior nodes, one-sided at the ends."""
        return np.gradient(self.values, self.grid)

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,psi\n")
            for x, v in zip(self.grid, self.values):
                fh.write(f"{x:.17g},{v:.17g}\n")

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "boundary": list(self.boundary),
            "x": self.grid.tolist(),
            "psi": self.values.tolist(),
        }


def admissible_j(profile: MomentProfile, tol: float = ADMISSIBILITY_TOL) -> bool:
    """Nonnegative and monotone increasing up to `tol` slack.

    The singular limits are identically zero on part of the interval, so the
    numerically meaningful predicate allows flat stretches within tolerance.
    """
    return bool(
        np.all(profile.values >= -tol) and np.all(np.diff(profile.values) >= -tol)
    )


def admissible_dhym(profile: MomentProfile, tol: float = ADMISSIBILITY_TOL) -> bool:
    """x psi' + psi > 0 in the interior, checked as monotonicity of x*psi."""
    return bool(np.all(np.diff(profile.grid * profile.values) > -tol))


def require_admissible_j(profile: MomentProfile, tol: float = ADMISSIBILITY_TOL) -> None:
    if not admissible_j(profile, tol):
        raise AdmissibilityError("profile is not monotone-nonnegative")


def require_admissible_dhym(profile: MomentProfile, tol: float = ADMISSIBILITY_TOL) -> None:
    if not admissible_dhym(profile, tol):
        raise AdmissibilityError("profile violates x psi' + psi > 0")


@dataclass
class BackgroundPotential:
    """Degenerate diffusion coefficient of the reduced parabolic equation.

    For kind "j_flow" the coefficient is a function of the momentum value y
    on [0, b]; for kind "cotangent" it is a function of the space variable x
    on [1, b].  Both come from the canonical sigmoid potentials and vanish
    simply at the endpoints.
    """

    kind: str
    b: float
    Q: Callable[[np.ndarray], np.ndarray]


def background_potential(kind: str, b) -> BackgroundPotential:
    b = float(b)
    if kind == "j_flow":
        if b <= 0:
            raise InputError("need b > 0")

        def Q(y):
            return y * (b - y) / b

    elif kind == "cotangent":
        if b <= 1:
            raise InputError("need b > 1")

        def Q(x):
            return (x - 1.0) * (b - x) / (b - 1.0)

    else:
        raise InputError(f"unknown background kind {kind!r}")
    return BackgroundPotential(kind=kind, b=b, Q=Q)


def _weight_poly_coeffs(m: int, n: int, s: float) -> np.ndarray:
    """Ascending coefficients of the polynomial int_s^x (1+t)^n t^m dt."""
    coeffs = np.zeros(m + n + 2)
    const = 0.0
    for k in range(n + 1):
        p = m + k + 1
        c = math.comb(n, k) / p
        coeffs[p] = c
        const += c * s**p
    coeffs[0] = -const
    return coeffs


def _polyval_ascending(coeffs: np.ndarray, x):
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def steady_profile_j(params: BundleParams, s, x):
    """Closed-form steady profile punctured at s, evaluated at x in [s, a].

    (mu_s I_{m,n,s}(x) - n I_{m,n-1,s}(x)) / ((1+x)^n x^m), which vanishes at
    x = s and equals b at x = a.  Near the puncture the formula loses digits
    to cancellation, so a quadratic Taylor expansion takes over there.
    """
    a = float(params.a)
    s = float(s)
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < s - 1e-12) or np.any(x_arr > a + 1e-12):
        raise InputError("evaluation points must lie in [s, a]")
    mu = float(steady_slope(params, to_fraction(repr(s))))
    n, m = params.n, params.m
    I1 = _polyval_ascending(_weight_poly_coeffs(m, n, s), x_arr)
    I2 = _polyval_ascending(_weight_poly_coeffs(m, n - 1, s), x_arr) if n >= 1 else np.zeros_like(x_arr)
    pos = x_arr > s
    den = (1 + x_arr) ** n * np.where(pos, x_arr, 1.0) ** m
    out = np.where(pos, (mu * I1 - n * I2) / den, 0.0)
    near = pos & (x_arr < s + 1e-5 * max(a, 1.0))
    if np.any(near):
        d1, d2 = _steady_profile_j_jet(params, mu, s)
        dx = x_arr[near] - s
        out[near] = d1 * dx + 0.5 * d2 * dx * dx
    return float(out[0]) if scalar else out


def _steady_profile_j_jet(params: BundleParams, mu: float, s: float) -> tuple[float, float]:
    """(psi'(s), psi''(s)) of the punctured steady profile.

    From psi' = g - p psi with g = mu - n/(1+x), p = n/(1+x) + m/x; at the
    puncture psi vanishes, so psi' = g(s) and psi'' = g'(s) - p(s) psi'(s).
    The case s = 0 with m > 0 balances the m/x factor against psi ~ x.
    """
    n, m = params.n, params.m
    gp = n / (1 + s) ** 2
    if m and s == 0.0:
        d1 = (mu - n) / (1 + m)
        d2 = (gp - n * d1) / (1 + m / 2)
        return d1, d2
    d1 = mu - n / (1 + s)
    p = n / (1 + s) + (m / s if m else 0.0)
    d2 = gp - p * d1
    return d1, d2


def steady_profile_j_derivative(params: BundleParams, s, x):
    """psi' of the steady profile, from the first-order equation it solves."""
    s = float(s)
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    psi = np.atleast_1d(steady_profile_j(params, s, x_arr))
    mu = float(steady_slope(params, to_fraction(repr(s))))
    n, m = params.n, params.m
    d1, d2 = _steady_profile_j_jet(params, mu, s)
    safe = x_arr > s + 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        p = n / (1 + x_arr) + (m / np.where(safe, x_arr, 1.0) if m else 0.0)
    d = np.where(safe, mu - n / (1 + x_arr) - psi * p, d1 + d2 * (x_arr - s))
    return float(d[0]) if scalar else d


def invert_steady_profile_j(params: BundleParams, s, y):
    """x in [s, a] with steady_profile_j(params, s, x) = y, for a scalar or an
    array y; 80 simultaneous halvings of [s, a], which the monotone profile
    allows."""
    s = float(s)
    y_arr = np.asarray(y, dtype=float)
    lo = np.full_like(y_arr, s)
    hi = np.full_like(y_arr, float(params.a))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = steady_profile_j(params, s, mid) < y_arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    return float(x) if np.ndim(y) == 0 else x


def sample_steady_profile_j(
    params: BundleParams, s, num: int, graded: bool = False
) -> MomentProfile:
    """Steady profile sampled on [s, a] at arbitrary resolution."""
    a, b = float(params.a), float(params.b)
    s = float(s)
    grid = graded_grid(s, a, num, focus=s) if graded else np.linspace(s, a, num)
    vals = steady_profile_j(params, s, grid)
    vals = np.asarray(vals, dtype=float)
    vals[0], vals[-1] = 0.0, b
    return MomentProfile(grid=grid, values=vals, boundary=(0.0, b))


def singular_limit_profile_j(params: BundleParams, num: int, lam: float | None = None) -> MomentProfile:
    """The flow limit on [0, a]: zero up to the puncture, steady beyond it."""
    if lam is None:
        cert = min_slope_certificate(params)
        lam = cert.lam if cert.lam is not None else 0.0
    a, b = float(params.a), float(params.b)
    grid = np.linspace(0.0, a, num)
    vals = np.zeros_like(grid)
    above = grid > lam
    if np.any(above):
        vals[above] = steady_profile_j(params, lam, grid[above])
    vals[-1] = b
    return MomentProfile(grid=grid, values=vals, boundary=(0.0, b))


def steady_cot_slope(b, p, s) -> float:
    """Constant cotangent of the steady angle for boundary values (s, p).

    (p^2 - s^2 - b^2 + 1) / (2(pb - s)); the steady profile exists on the
    monotone branch exactly when s is at least this value.
    """
    b, p, s = float(b), float(p), float(s)
    if p * b - s <= 0:
        raise InputError("need s < pb")
    return (p * p - s * s - b * b + 1.0) / (2.0 * (p * b - s))


def steady_profile_dhym(b, p, s, x):
    """Closed-form steady profile c x + sqrt(A + (1+c^2) x^2) on [1, b].

    c is the steady cotangent for boundary value s and A = s^2 - 2 c s - 1;
    requires s >= c (otherwise only the excluded decreasing branch solves the
    boundary problem).
    """
    b, p, s = float(b), float(p), float(s)
    c = steady_cot_slope(b, p, s)
    if s < c - 1e-12 * max(1.0, abs(c)):
        raise NoMonotoneSolutionError(
            f"boundary value {s} below the steady cotangent {c}; no monotone profile"
        )
    A = s * s - 2.0 * c * s - 1.0
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 1.0 - 1e-12) or np.any(x_arr > b + 1e-12):
        raise InputError("evaluation points must lie in [1, b]")
    rad = np.maximum(A + (1.0 + c * c) * x_arr**2, 0.0)
    out = c * x_arr + np.sqrt(rad)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sample_steady_profile_dhym(b, p, s, num: int, graded: bool = False) -> MomentProfile:
    b, p, s = float(b), float(p), float(s)
    grid = graded_grid(1.0, b, num, focus=1.0) if graded else np.linspace(1.0, b, num)
    vals = np.asarray(steady_profile_dhym(b, p, s, grid), dtype=float)
    vals[0], vals[-1] = s, p
    return MomentProfile(grid=grid, values=vals, boundary=(s, p))


def pointwise_slope(profile: MomentProfile, params: BundleParams) -> np.ndarray:
    """sigma[psi] = psi' + psi (n/(1+x) + m/x) + n/(1+x) at all nodes.

    Centered differences in the interior, one-sided at the endpoints; the
    m/x factor is continued by m psi'(0) at x = 0 where psi vanishes.
    """
    require_admissible_j(profile)
    return _slope_field(profile.grid, profile.values, profile.derivative(), params.n, params.m)


def pointwise_angle(profile: MomentProfile) -> np.ndarray:
    """theta = arccot psi' + arccot(psi/x) with arccot valued in (0, pi)."""
    require_admissible_dhym(profile)
    return _angle_field(profile.grid, profile.values, profile.derivative())[1]


def _slope_field(x: np.ndarray, psi: np.ndarray, d: np.ndarray, n: int, m: int) -> np.ndarray:
    """sigma from samples psi and derivative samples d, unchecked."""
    g = n / (1 + x)
    out = d + psi * g + g
    if m:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(x > 0, psi / np.where(x > 0, x, 1.0), d)
        out = out + m * ratio
    return out


def _angle_field(x: np.ndarray, psi: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cot theta, theta) from samples psi and derivative samples d, unchecked.

    cot theta = (psi d - x)/(x d + psi) in closed form; theta itself is the
    arccot sum, which leaves (0, pi) when x d + psi changes sign.
    """
    return (psi * d - x) / (x * d + psi), _arccot(d) + _arccot(psi / x)


def _arccot(t):
    return 0.5 * math.pi - np.arctan(t)


def straight_line_profile(params: BundleParams, num: int) -> MomentProfile:
    """The straight-line initial profile (b/a) x on [0, a]."""
    a, b = float(params.a), float(params.b)
    grid = np.linspace(0.0, a, num)
    return MomentProfile(grid=grid, values=(b / a) * grid, boundary=(0.0, b))


def special_cotangent_profile(b, p, q, num: int) -> MomentProfile:
    """The constant-trace initial profile lam/x + mu x on [1, b].

    mu = (bp - q)/(b^2 - 1), lam = b(bq - p)/(b^2 - 1); the unique profile of
    this form matching the boundary values, with constant x psi' + psi.
    """
    b, p, q = float(b), float(p), float(q)
    mu = (b * p - q) / (b * b - 1.0)
    lam = b * (b * q - p) / (b * b - 1.0)
    grid = np.linspace(1.0, b, num)
    vals = lam / grid + mu * grid
    vals[0], vals[-1] = q, p
    return MomentProfile(grid=grid, values=vals, boundary=(q, p))


def graded_grid(lo: float, hi: float, num: int, focus: float, strength: float = 2.0) -> np.ndarray:
    """Grid on [lo, hi] refined near `focus` by a power-law stretching."""
    if not lo <= focus <= hi:
        raise InputError("focus must lie inside the interval")
    u = np.linspace(0.0, 1.0, num)
    span = hi - lo
    pivot = (focus - lo) / span if span > 0 else 0.0
    left = u <= pivot if pivot > 0 else np.zeros_like(u, dtype=bool)
    out = np.empty_like(u)
    if pivot > 0:
        t = u[left] / pivot
        out[left] = pivot - pivot * (1 - t) ** strength
    if pivot < 1:
        t = (u[~left] - pivot) / (1 - pivot)
        out[~left] = pivot + (1 - pivot) * t**strength
    grid = lo + span * out
    grid[0], grid[-1] = lo, hi
    return np.unique(grid)


def quadratic_contact_report(params: BundleParams, eps_grid=None) -> dict:
    """Measure psi(x)/(x - lam)^2 as x -> lam+ and compare both candidates.

    Differentiating the steady equation gives psi''(lam) = n/(1+lam)^2, so
    the quadratic Taylor coefficient is half of that; the literature also
    quotes the full n/(1+lam)^2 as the coefficient.  This reports the
    measured limit and which constant it matches, rather than resolving the
    discrepancy analytically.
    """
    cert = min_slope_certificate(params)
    if cert.lam is None or cert.lam == 0.0:
        raise InputError("quadratic contact is only defined for an interior puncture")
    lam = cert.lam
    n = params.n
    full = n / (1 + lam) ** 2
    half = 0.5 * full
    if eps_grid is None:
        eps_grid = [1e-3, 1e-4, 1e-5]
    measured = []
    for eps in eps_grid:
        x = lam + eps
        val = steady_profile_j(params, lam, x)
        measured.append(val / eps**2)
    m = measured[-1]
    matches = "half" if abs(m - half) < abs(m - full) else "full"
    return {
        "lambda": lam,
        "measured": measured,
        "ode_half_coefficient": half,
        "ode_full_coefficient": full,
        "matches": matches,
        "factor_two_flag": matches == "half",
    }
