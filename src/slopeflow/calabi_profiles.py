"""Closed-form steady momentum profiles and pointwise slope/angle functionals.

Under the symmetric ansatz every metric is encoded by a momentum profile: an
increasing function psi on the fiber-height interval.  This module provides
the closed-form steady profiles for both equations, the pointwise slope and
angle evaluations and the admissibility predicates.  The flow schemes call
the same slope field on their arrays; their fluxes test admissibility
themselves.

Each steady J profile is built once per puncture, its weight integrals
rounded from the exact antiderivative table of `bundle_geometry`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bundle_geometry import BundleParams, _antiderivative, min_slope_certificate, steady_slope
from .errors import AdmissibilityError, InputError, NoMonotoneSolutionError
from .surface_lattice import to_fraction

__all__ = [
    "MomentProfile",
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
    "invert_steady_profile_j",
]

#: slack of every admissibility check; the singular limits are flat on part
#: of the interval, so a flat stretch must pass
ADMISSIBILITY_TOL = 1e-10


@dataclass
class MomentProfile:
    """A sampled momentum function on an interval, endpoint values pinned."""

    grid: np.ndarray
    values: np.ndarray
    boundary: tuple[float, float]

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.array(self.values, dtype=float)  # a copy: the ends are pinned below
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise InputError("grid and values must be 1-d arrays of equal length")
        if self.grid.size < 3:
            raise InputError("need at least three sample points")
        if not (self.grid[1:] > self.grid[:-1]).all():
            raise InputError("grid must be strictly increasing")
        lo, hi = self.boundary
        if abs(self.values[0] - lo) > 1e-9 or abs(self.values[-1] - hi) > 1e-9:
            raise InputError("endpoint values do not match the pinned boundary")
        self.values[0], self.values[-1] = lo, hi

    @classmethod
    def _view(cls, grid: np.ndarray, values: np.ndarray, boundary: tuple[float, float]) -> MomentProfile:
        """A profile on arrays already checked and pinned, neither copied nor
        validated: the flows' checkpoint rows."""
        prof = object.__new__(cls)
        prof.grid, prof.values, prof.boundary = grid, values, boundary
        return prof

    def derivative(self) -> np.ndarray:
        """Centered first derivative at interior nodes, one-sided at the ends."""
        return np.gradient(self.values, self.grid)


def admissible_j(profile: MomentProfile) -> bool:
    """Nonnegative and monotone increasing up to ADMISSIBILITY_TOL slack;
    NaN fails.

    The singular limits are identically zero on part of the interval, so the
    numerically meaningful predicate allows flat stretches within tolerance.
    """
    values = profile.values
    return bool(
        np.minimum.reduce(values) >= -ADMISSIBILITY_TOL
        and np.minimum.reduce(values[1:] - values[:-1]) >= -ADMISSIBILITY_TOL
    )


def admissible_dhym(profile: MomentProfile) -> bool:
    """x psi' + psi > 0 in the interior, checked as monotonicity of x*psi up
    to ADMISSIBILITY_TOL slack; NaN fails."""
    xp = profile.grid * profile.values
    return bool(np.minimum.reduce(xp[1:] - xp[:-1]) > -ADMISSIBILITY_TOL)


def require_admissible_j(profile: MomentProfile) -> None:
    if not admissible_j(profile):
        raise AdmissibilityError("profile is not monotone-nonnegative")


def require_admissible_dhym(profile: MomentProfile) -> None:
    if not admissible_dhym(profile):
        raise AdmissibilityError("profile violates x psi' + psi > 0")


class _SteadyJ:
    """The steady J profile punctured at s: the slope mu_s, the float
    coefficients of I_{m,n,s} and I_{m,n-1,s} (highest degree first), each the
    correctly rounded quotient of the exact antiderivative table, and the jet
    (psi'(s), psi''(s)) at the puncture."""

    def __init__(self, params: BundleParams, s: float):
        n, m = params.n, params.m
        self.n, self.m, self.a, self.s = n, m, float(params.a), s
        self.mu = mu = float(steady_slope(params, to_fraction(repr(s))))
        self.upper, self.lower = (self._shifted(m, k, s) for k in (n, n - 1))
        # psi' = g - p psi, g = mu - n/(1+x), p = n/(1+x) + m/x, and psi(s) = 0 give
        # psi'(s) = g(s), psi''(s) = g'(s) - p(s) psi'(s); at s = 0, m/x meets psi ~ x
        gp = n / (1 + s) ** 2
        if m and s == 0.0:
            d1 = (mu - n) / (1 + m)
            self.jet = d1, (gp - n * d1) / (1 + m / 2)
        else:
            d1 = mu - n / (1 + s)
            self.jet = d1, gp - (n / (1 + s) + (m / s if m else 0.0)) * d1

    @staticmethod
    def _shifted(m: int, k: int, s: float) -> tuple[float, ...]:
        """I_{m,k,s}: the rounded table, less its float value at s."""
        ints, den = _antiderivative(m, k, 1)
        coeffs = [c / den for c in ints]
        const = 0.0
        for p in range(m + 1, len(coeffs)):
            const += coeffs[p] * s**p
        coeffs[0] = -const
        return tuple(reversed(coeffs))

    def integral(self, x: np.ndarray, lower: bool = False) -> np.ndarray:
        """I_{m,n,s}(x), or I_{m,n-1,s}(x) when `lower`, by Horner's rule."""
        acc = np.zeros_like(x)
        for c in self.lower if lower else self.upper:
            acc = acc * x + c
        return acc

    def values(self, x: np.ndarray) -> np.ndarray:
        """The profile at the points x of [s, a], unchecked."""
        n, m, s = self.n, self.m, self.s
        pos = x > s
        den = (1 + x) ** n * np.where(pos, x, 1.0) ** m
        out = np.where(pos, (self.mu * self.integral(x) - n * self.integral(x, lower=True)) / den, 0.0)
        near = pos & (x < s + 1e-5 * max(self.a, 1.0))
        if np.any(near):
            d1, d2 = self.jet
            dx = x[near] - s
            out[near] = d1 * dx + 0.5 * d2 * dx * dx
        return out


#: the builder of each (params, s), shared by every evaluation of that profile
_steady_j = lru_cache(maxsize=128)(_SteadyJ)


def steady_profile_j(params: BundleParams, s, x):
    """Closed-form steady profile punctured at s, evaluated at x in [s, a].

    (mu_s I_{m,n,s}(x) - n I_{m,n-1,s}(x)) / ((1+x)^n x^m), which vanishes at
    x = s and equals b at x = a.  Near the puncture the formula loses digits
    to cancellation, so a quadratic Taylor expansion takes over there.
    """
    s = float(s)
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < s - 1e-12) or np.any(x_arr > float(params.a) + 1e-12):
        raise InputError("evaluation points must lie in [s, a]")
    out = _steady_j(params, s).values(x_arr)
    return float(out[0]) if scalar else out


def steady_profile_j_derivative(params: BundleParams, s, x):
    """psi' of the steady profile, from the first-order equation it solves."""
    s = float(s)
    scalar = np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    psi = steady_profile_j(params, s, x_arr)
    prof = _steady_j(params, s)
    n, m, (d1, d2) = params.n, params.m, prof.jet
    safe = x_arr > s + 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        p = n / (1 + x_arr) + (m / np.where(safe, x_arr, 1.0) if m else 0.0)
    d = np.where(safe, prof.mu - n / (1 + x_arr) - psi * p, d1 + d2 * (x_arr - s))
    return float(d[0]) if scalar else d


def invert_steady_profile_j(params: BundleParams, s, y):
    """x in [s, a] with steady_profile_j(params, s, x) = y, for a scalar or an
    array y; y <= 0 gives s and y >= psi(a) gives a.

    Safeguarded Newton from a 129-node table of the profile, about five
    profile evaluations in all (see `_invert_profile`).
    """
    s = float(s)
    y_arr = np.asarray(y, dtype=float)
    x = _invert_profile(_steady_j(params, s), y_arr.ravel()).reshape(y_arr.shape)
    return float(x) if np.ndim(y) == 0 else x


#: nodes of the table that seeds the inversion, and the cap on its loop: a
#: point that falls back to halving its table cell ends within 2^-80 of the
#: cell's width, at adjacent floats unless its root is below 2^-36 (a - s)
_SEED_NODES = 129
_NEWTON_CAP = 80


def _invert_profile(prof, y: np.ndarray) -> np.ndarray:
    """The inverse of `prof.values` at the points of the 1-d array y, for
    anything with the attributes of `_SteadyJ`.

    The running maximum of the table brackets each y between two nodes with
    psi(lo) <= y < psi(hi), so a profile that dips below zero after its
    puncture (s below lambda) is inverted on its rising branch, and a y on a
    node starts there.  The start is the linear interpolant, or in the first
    cell the inverse of the jet: at a double zero a linear start makes Newton
    creep at half a step per iteration.  Newton steps take psi' from the
    value just computed, by the equation psi solves, or from the jet inside
    the Taylor window of `values`, so the slope matches the branch the value
    came from.  A step that leaves the bracket halves it instead (`rtsafe`,
    Numerical Recipes 9.4).  A point is done after a Newton step of at most
    1e-9 (a - s), which quadratic convergence puts at rounding level, or when
    its bracket is down to adjacent floats; past rounding level the steps
    chatter at 1e-13 in the flat region, so a stop rule in ulps never fires.
    """
    s, a, n, m, mu = prof.s, prof.a, prof.n, prof.m, prof.mu
    d1, d2 = prof.jet
    nodes = np.linspace(s, a, _SEED_NODES)
    table = np.maximum.accumulate(prof.values(nodes))
    out = np.where(y <= 0, s, a)
    inner = (y > 0) & (y < table[-1])
    y = y[inner]
    i = np.searchsorted(table, y, side="right")
    lo, hi, t_lo = nodes[i - 1], nodes[i], table[i - 1]
    x = lo + (y - t_lo) / (table[i] - t_lo) * (hi - lo)
    window = s + 1e-5 * max(a, 1.0)
    tol = 1e-9 * (a - s)
    done = np.zeros(y.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        jet = s + 2 * y / (d1 + np.sqrt(d1 * d1 + 2 * d2 * y))
        x = np.where((i == 1) & (jet > lo) & (jet < hi), jet, x)
        for _ in range(_NEWTON_CAP):
            v = prof.values(x)
            f = v - y
            below = f < 0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            g = n / (1 + x)
            p = g + m / x if m else g
            slope = np.where(x < window, d1 + d2 * (x - s), mu - g - p * v)
            nx = x - f / slope
            newton = (nx >= lo) & (nx <= hi)
            nx = np.where(newton, nx, 0.5 * (lo + hi))
            converged = (newton & (np.abs(nx - x) <= tol)) | (hi - lo <= 2 * np.spacing(hi))
            x = np.where(done, x, nx)
            done |= converged
            if done.all():
                break
    out[inner] = x
    return out


def sample_steady_profile_j(params: BundleParams, s, num: int) -> MomentProfile:
    """Steady profile sampled on [s, a] at arbitrary resolution."""
    a, b = float(params.a), float(params.b)
    s = float(s)
    grid = np.linspace(s, a, num)
    vals = steady_profile_j(params, s, grid)
    vals[0], vals[-1] = 0.0, b
    return MomentProfile(grid=grid, values=vals, boundary=(0.0, b))


def singular_limit_profile_j(params: BundleParams, num: int, lam: float | None = None) -> MomentProfile:
    """The flow limit on [0, a]: zero up to the puncture, steady beyond it."""
    if lam is None:
        lam = min_slope_certificate(params).lam or 0.0
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
    return float(out) if np.ndim(x) == 0 else out


def sample_steady_profile_dhym(b, p, s, num: int) -> MomentProfile:
    b, p, s = float(b), float(p), float(s)
    grid = np.linspace(1.0, b, num)
    vals = np.asarray(steady_profile_dhym(b, p, s, grid), dtype=float)
    vals[0], vals[-1] = s, p
    return MomentProfile(grid=grid, values=vals, boundary=(s, p))


def pointwise_slope(profile: MomentProfile, params: BundleParams) -> np.ndarray:
    """sigma[psi] = psi' + psi (n/(1+x) + m/x) + n/(1+x) at all nodes.

    Centered differences in the interior, one-sided at the endpoints; the
    m/x factor is continued by m psi'(0) at x = 0 where psi vanishes.
    """
    require_admissible_j(profile)
    return _slope_field(profile.values, profile.derivative(), params.m, _slope_grid(profile.grid, params.n))


def pointwise_angle(profile: MomentProfile) -> np.ndarray:
    """theta = arccot psi' + arccot(psi/x) with arccot valued in (0, pi)."""
    require_admissible_dhym(profile)
    return _angle(profile.grid, profile.values, profile.derivative())


def _slope_grid(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid-only terms of `_slope_field`: n/(1+x), the mask x > 0, and
    the divisor of psi/x with x = 0 replaced by 1 (sigma takes psi' there)."""
    pos = x > 0
    return n / (1 + x), pos, np.where(pos, x, 1.0)


def _slope_field(psi: np.ndarray, d: np.ndarray, m: int, grid_terms) -> np.ndarray:
    """sigma from samples psi and derivative samples d on `_slope_grid`
    terms, unchecked."""
    g, pos, safe = grid_terms
    out = d + psi * g + g
    if m:
        out = out + m * np.where(pos, psi / safe, d)
    return out


def _angle(x: np.ndarray, psi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """theta from samples psi and derivative samples d, unchecked: the
    arccot sum, which leaves (0, pi) when x d + psi changes sign.  Its
    cotangent is (psi d - x)/(x d + psi) in closed form."""
    return _arccot(d) + _arccot(psi / x)


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
