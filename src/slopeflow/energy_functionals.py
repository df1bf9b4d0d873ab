"""Moment-map energy, its infimum, Futaki invariants and the volume functional.

The reduced moment-map energy of a profile is the weighted L2 norm of its
pointwise slope; its infimum over a fixed class splits into an interior term,
carried by the punctured steady profile, and a bubble term concentrated at
the degenerating zero section.  Piecewise-linear convex data with rational
slopes encode algebraic degenerations whose normalized invariants recover
the L2 slope deviation; an explicit gluing construction realizes the
infimum.  For the dHYM side the calibration volume functional bounds below
by the topological angle and splits the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .bundle_geometry import (
    BundleParams,
    blowup_top_power,
    min_slope_certificate,
    steady_slope,
    weight_integral,
)
from .calabi_profiles import (
    MomentProfile,
    invert_steady_profile_j,
    pointwise_slope,
    require_admissible_dhym,
    steady_cot_slope,
    steady_profile_j_derivative,
)
from .errors import InputError
from .surface_lattice import to_fraction
from .surface_slopes import STABLE

__all__ = [
    "EnergyReport",
    "PLTestConfig",
    "FutakiReport",
    "RadialProfile",
    "moment_energy",
    "energy_infimum",
    "futaki_invariant",
    "pl_limit_hamiltonian",
    "l2_slope_deviation",
    "minimizing_profile",
    "dhym_volume",
    "dhym_volume_split",
]


@dataclass
class EnergyReport:
    """An energy value with its interior/bubble split and a reference."""

    value: float
    interior: float
    bubble: float
    reference: float | None = None
    rel_error: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise InputError("energies are nonnegative")

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "value": self.value,
            "interior": self.interior,
            "bubble": self.bubble,
            "reference": self.reference,
            "rel_error": self.rel_error,
        }


def _energy_constant(params: BundleParams) -> float:
    return float((params.n + params.m + 1) * math.comb(params.n + params.m, params.n) * params.d)


def moment_energy(profile: MomentProfile, params: BundleParams, centered: bool = False) -> float:
    """Composite-trapezoid quadrature of c_{n,m} int sigma[psi]^2 x^m (1+x)^n dx.

    With ``centered=True`` the integrand is (sigma - mu_0)^2 without the
    normalizing constant, the form compared against Futaki invariants.
    """
    sigma = pointwise_slope(profile, params)
    x = profile.grid
    w = x**params.m * (1 + x) ** params.n
    if centered:
        mu0 = float(steady_slope(params, 0))
        return float(np.trapezoid((sigma - mu0) ** 2 * w, x))
    return _energy_constant(params) * float(np.trapezoid(sigma**2 * w, x))


def _log_weighted_integral(m: int, lam: float) -> float:
    """int_0^lam x^m/(1+x) dx in closed form (polynomial part plus log)."""
    total = ((-1) ** m) * math.log1p(lam)
    for k in range(m):
        total += (-1) ** (m - 1 - k) * lam ** (k + 1) / (k + 1)
    return total


def energy_infimum(params: BundleParams) -> EnergyReport:
    """Closed-form infimum of the moment-map energy over the fixed class.

    Unstable pairs: zeta^2 c_{n,m} I_{m,n,lam}(a) from the punctured steady
    profile plus the bubble n^2 c_{n,m} int_0^lam x^m (1+x)^(n-2) dx carried
    by the degenerating fiber direction.  Semistable pairs have no bubble;
    stable pairs sit at the smooth solution with energy mu0^2 alpha^top.
    """
    cert = min_slope_certificate(params)
    c = _energy_constant(params)
    n, m = params.n, params.m
    if cert.verdict == STABLE or cert.lam is None or cert.lam == 0.0:
        top = float(blowup_top_power(params, 0))
        value = float(cert.mu0) ** 2 * top
        return EnergyReport(value=value, interior=value, bubble=0.0)
    lam = cert.lam
    lam_frac = to_fraction(repr(lam))
    interior = cert.zeta_inv**2 * c * float(weight_integral(m, n, lam_frac, params.a))
    if n >= 2:
        bubble = n**2 * c * float(weight_integral(m, n - 2, 0, lam_frac))
    else:
        bubble = n**2 * c * _log_weighted_integral(m, lam)
    return EnergyReport(value=interior + bubble, interior=interior, bubble=bubble)


# ---------------------------------------------------------------------------
# exact piecewise-polynomial integration for PL test data


def _binomial_poly(m: int, k: int) -> list[Fraction]:
    """Ascending coefficients of x^m (1+x)^k."""
    out = [Fraction(0)] * (m + k + 1)
    for j in range(k + 1):
        out[m + j] = Fraction(math.comb(k, j))
    return out


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _poly_int(coeffs: list[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    lo_pow, hi_pow = lo, hi
    for k, c in enumerate(coeffs):
        if c != 0:
            total += c * (hi_pow - lo_pow) / (k + 1)
        lo_pow *= lo
        hi_pow *= hi
    return total


@dataclass
class PLTestConfig:
    """Continuous convex piecewise-linear data with rational slopes on [0, a].

    Values are pinned at the breakpoints; convexity (nondecreasing slopes)
    and a flat final segment are validated exactly.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        self.breakpoints = tuple(to_fraction(x) for x in self.breakpoints)
        self.values = tuple(to_fraction(v) for v in self.values)
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise InputError("need matching breakpoints and values, at least two")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise InputError("breakpoints must increase strictly")
        slopes = self.slopes()
        if any(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
            raise InputError("slopes must be nondecreasing (convexity)")
        if slopes[-1] != 0:
            raise InputError("the final segment must be flat")

    def slopes(self) -> list[Fraction]:
        return [
            (v2 - v1) / (b2 - b1)
            for (b1, b2, v1, v2) in zip(
                self.breakpoints, self.breakpoints[1:], self.values, self.values[1:]
            )
        ]

    def __call__(self, x: float) -> float:
        return float(
            np.interp(
                x,
                [float(b) for b in self.breakpoints],
                [float(v) for v in self.values],
            )
        )


def _integrate_pl(cfg: PLTestConfig, weight: list[Fraction], square: bool = False) -> Fraction:
    """Exact integral of h (or h^2) against a polynomial weight."""
    total = Fraction(0)
    for b1, b2, v1, v2 in zip(cfg.breakpoints, cfg.breakpoints[1:], cfg.values, cfg.values[1:]):
        s = (v2 - v1) / (b2 - b1)
        seg = [v1 - s * b1, s]  # h(x) = v1 + s (x - b1)
        if square:
            seg = _poly_mul(seg, seg)
        total += _poly_int(_poly_mul(seg, weight), b1, b2)
    return total


@dataclass
class FutakiReport:
    b0: Fraction
    b0_prime: Fraction
    fut: Fraction
    norm: float

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "b0": float(self.b0),
            "b0_prime": float(self.b0_prime),
            "fut": float(self.fut),
            "norm": self.norm,
            "normalized": float(-self.fut) / self.norm if self.norm else None,
        }


def futaki_invariant(cfg: PLTestConfig, params: BundleParams) -> FutakiReport:
    """Exact weight asymptotics of the degeneration encoded by the PL data.

    b0 = int h x^m (1+x)^n, b0' = n int h x^m (1+x)^(n-1) + h(a) a^m (1+a)^n b,
    and the invariant is mu0 b0 - b0'.  The sign is fixed so destabilizing
    configurations are negative: -fut/norm is the Rayleigh quotient whose
    supremum is the L2 slope deviation, attained along PL approximations of
    the limit Hamiltonian.  norm is the weighted L2 norm of h.
    """
    n, m, a, b = params.n, params.m, params.a, params.b
    if cfg.breakpoints[0] != 0 or cfg.breakpoints[-1] != a:
        raise InputError("PL data must span [0, a]")
    w_n = _binomial_poly(m, n)
    w_n1 = _binomial_poly(m, n - 1)
    b0 = _integrate_pl(cfg, w_n)
    b0p = n * _integrate_pl(cfg, w_n1) + cfg.values[-1] * a**m * (1 + a) ** n * b
    mu0 = steady_slope(params, 0)
    fut = mu0 * b0 - b0p
    norm = math.sqrt(float(_integrate_pl(cfg, w_n, square=True)))
    return FutakiReport(b0=b0, b0_prime=b0p, fut=fut, norm=norm)


def pl_limit_hamiltonian(params: BundleParams, num_breakpoints: int) -> PLTestConfig:
    """PL approximation of the limit Hamiltonian n/(1+x) - mu0 capped at the
    puncture value, with the kink placed exactly at the puncture."""
    cert = min_slope_certificate(params)
    if cert.lam is None:
        raise InputError("stable pairs have no capped limit Hamiltonian")
    n = params.n
    a = params.a
    mu0 = cert.mu0
    lam = to_fraction(repr(cert.lam))
    if lam == 0:
        raise InputError("semistable pairs have a constant limit Hamiltonian")
    left = max(num_breakpoints // 2, 2)
    right = max(num_breakpoints - left, 2)
    bps: list[Fraction] = [lam * Fraction(i, left) for i in range(left)]
    bps += [lam + (a - lam) * Fraction(i, right) for i in range(right + 1)]
    values = [
        Fraction(n) / (1 + x) - mu0 if x <= lam else Fraction(n) / (1 + lam) - mu0
        for x in bps
    ]
    return PLTestConfig(breakpoints=tuple(bps), values=tuple(values))


def l2_slope_deviation(params: BundleParams, quad_points: int = 20001) -> float:
    """Weighted L2 distance of the limit slope profile from mu0, by quadrature.

    The limit slope is n/(1+x) up to the puncture and the minimal slope
    beyond it; the second piece integrates exactly, the first by Simpson.
    """
    cert = min_slope_certificate(params)
    if cert.lam is None or cert.lam == 0.0:
        return 0.0
    n, m = params.n, params.m
    mu0 = float(cert.mu0)
    lam = cert.lam
    x = np.linspace(0.0, lam, quad_points if quad_points % 2 == 1 else quad_points + 1)
    f = (n / (1 + x) - mu0) ** 2 * x**m * (1 + x) ** n
    h = x[1] - x[0]
    first = h / 3 * (f[0] + f[-1] + 4 * np.sum(f[1:-1:2]) + 2 * np.sum(f[2:-1:2]))
    tail_weight = float(weight_integral(m, n, to_fraction(repr(lam)), params.a))
    second = (cert.zeta_inv - mu0) ** 2 * tail_weight
    return math.sqrt(first + second)


# ---------------------------------------------------------------------------
# the explicit minimizing sequence


@dataclass
class RadialProfile:
    """First and second derivative samples of a potential in the log-radial
    coordinate."""

    rho: np.ndarray
    dv: np.ndarray
    d2v: np.ndarray


def _sigmoid(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _smoothstep(r: np.ndarray) -> np.ndarray:
    """C^infinity cutoff: 0 for r <= -1, 1 for r >= 1."""

    def bump(s):
        with np.errstate(over="ignore"):
            return np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-12)), 0.0)

    s = (r + 1.0) / 2.0
    num = bump(s)
    return num / (num + bump(1.0 - s))


def minimizing_profile(
    params: BundleParams,
    k: float,
    base_profile: tuple[Callable, Callable] | None = None,
    rho_step: float = 0.02,
    rho_margin: float = 35.0,
) -> tuple[RadialProfile, float]:
    """The k-th member of the explicit energy-minimizing sequence.

    Glues the singular-limit potential to a bubble potential translated k
    units toward the degenerate end through a smooth cutoff.  The glued
    first derivative is recovered by inverting the strictly increasing
    weight integral on the cumulative density, so the gluing solves the
    prescribed Monge-Ampere density exactly at the sample points; its energy
    is evaluated by trapezoidal quadrature in the log-radial coordinate and
    converges to the closed-form infimum as k grows.
    """
    cert = min_slope_certificate(params)
    if cert.verdict == STABLE:
        raise InputError("stable pairs do not bubble; the smooth solution minimizes")
    if k < 1:
        raise InputError("need k >= 1")
    lam = cert.lam or 0.0
    n, m = params.n, params.m
    a, b = float(params.a), float(params.b)
    height = a - lam

    if base_profile is None:
        zeta1 = lambda r: lam * _sigmoid(r)
        zeta2 = lambda r: lam * _sigmoid(r) * (1.0 - _sigmoid(r))
    else:
        zeta1, zeta2 = base_profile

    rho = np.arange(-k - rho_margin, rho_margin + rho_step, rho_step)
    sig = _sigmoid(rho)
    u1 = b * sig
    u2 = b * sig * (1.0 - sig)
    ut1 = height * sig
    ut2 = height * sig * (1.0 - sig)

    kappa = _smoothstep(rho + k)
    body = kappa > 0
    vt1 = np.zeros_like(rho)
    vt2 = np.zeros_like(rho)
    if np.any(body):
        x_of_rho = invert_steady_profile_j(params, lam, u1[body])
        dpsi = np.maximum(steady_profile_j_derivative(params, lam, x_of_rho), 1e-300)
        vt1[body] = x_of_rho - lam
        vt2[body] = u2[body] / dpsi

    F = kappa * (1 + vt1) ** n * vt1**m * vt2 + (1 - kappa) * (1 + ut1) ** n * ut1**m * ut2
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (F[1:] + F[:-1]) * np.diff(rho))))

    y_tab = np.linspace(0.0, 1.0000001 * height, 50001)
    from .calabi_profiles import _polyval_ascending, _weight_poly_coeffs

    I_tab = _polyval_ascending(_weight_poly_coeffs(m, n, 0.0), y_tab)
    theta1 = np.interp(cum, I_tab, y_tab)
    theta2 = F / ((1 + theta1) ** n * np.maximum(theta1, 1e-300) ** m)

    v1 = theta1 + zeta1(rho + k)
    v2 = theta2 + zeta2(rho + k)
    sigma = u2 / v2 + n * (1 + u1) / (1 + v1)
    if m:
        sigma = sigma + m * u1 / v1
    integrand = sigma**2 * (1 + v1) ** n * v1**m * v2
    energy = _energy_constant(params) * float(np.trapezoid(integrand, rho))
    return RadialProfile(rho=rho, dv=v1, d2v=v2), energy


# ---------------------------------------------------------------------------
# dHYM volume functional

_GAUSS_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GAUSS_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def dhym_volume(profile: MomentProfile, b, p, q) -> EnergyReport:
    """Calibration volume 2 int sqrt((x psi' + psi)^2 + (psi psi' - x)^2) dx.

    Quadrature is cellwise Gauss on the piecewise-linear interpolant, which
    resolves the square-root boundary layer of singular limits that plain
    node-trapezoid misses.  The normalization 2 makes the identity profile
    on the balanced pair attain exactly twice its self-pairing, so the
    topological lower bound 2 csc(angle) (bp - q) holds with constant 1.
    The reference field carries that bound.
    """
    require_admissible_dhym(profile)
    b, p, q = float(b), float(p), float(q)
    x0 = profile.grid[:-1]
    x1 = profile.grid[1:]
    v0 = profile.values[:-1]
    s = np.diff(profile.values) / np.diff(profile.grid)
    half = 0.5 * (x1 - x0)
    nodes = x0[:, None] + half[:, None] * (1.0 + _GAUSS_NODES[None, :])
    psi = v0[:, None] + s[:, None] * (nodes - x0[:, None])
    f = np.sqrt((nodes * s[:, None] + psi) ** 2 + (psi * s[:, None] - nodes) ** 2)
    value = 2.0 * float(np.sum(half[:, None] * _GAUSS_WEIGHTS[None, :] * f))
    c0 = steady_cot_slope(b, p, q)
    reference = 2.0 * math.sqrt(1.0 + c0 * c0) * (b * p - q)
    return EnergyReport(
        value=value,
        interior=value,
        bubble=0.0,
        reference=reference,
        rel_error=(value - reference) / reference,
    )


def dhym_volume_split(b, p, q) -> EnergyReport:
    """Interior + bubble decomposition of the limiting calibration volume.

    The steady singular profile contributes 2 csc(theta_min)(bp - xi); the
    boundary jump from q up to xi contributes 2 int_q^xi sqrt(1+y^2) dy.
    """
    from .surface_slopes import one_point_blowup_certificate

    cert = one_point_blowup_certificate(b, p, q)
    b, p, q = float(b), float(p), float(q)
    s_star = max(cert.slope, q)  # boundary trace of the limit profile
    cot = steady_cot_slope(b, p, s_star)
    interior = 2.0 * math.sqrt(1.0 + cot * cot) * (b * p - s_star)

    def antider(y):
        return y * math.sqrt(1.0 + y * y) + math.asinh(y)

    bubble = antider(s_star) - antider(q)
    return EnergyReport(
        value=interior + bubble, interior=interior, bubble=bubble, reference=None
    )
