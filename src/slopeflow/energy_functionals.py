"""Moment-map energy, its infimum, Futaki invariants and the volume functional.

The reduced moment-map energy of a profile is the weighted L2 norm of its
pointwise slope; its infimum over a fixed class splits into an interior term,
carried by the punctured steady profile, and a bubble term concentrated at
the degenerating zero section.  Piecewise-linear convex data with rational
slopes encode algebraic degenerations whose normalized invariants recover
the L2 slope deviation; an explicit gluing construction realizes the
infimum.  For the dHYM side the calibration volume functional bounds below
by the topological angle and splits the same way.

The integrals of the weight x^m (1+x)^k are exact, from the antiderivative
table of `bundle_geometry`; the only logarithm is the n = 1 bubble term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bundle_geometry import (
    BundleParams,
    _antiderivative_at,
    _energy_constant,
    blowup_top_power,
    min_slope_certificate,
    steady_slope,
    weight_integral,
)
from .calabi_profiles import (
    MomentProfile,
    _steady_j,
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


def moment_energy(profile: MomentProfile, params: BundleParams) -> float:
    """Composite-trapezoid quadrature of c_{n,m} int sigma[psi]^2 x^m (1+x)^n dx."""
    sigma = pointwise_slope(profile, params)
    x = profile.grid
    w = x**params.m * (1 + x) ** params.n
    return float(_energy_constant(params)) * float(np.trapezoid(sigma**2 * w, x))


def _bubble_weight(m: int, n: int, lam: float) -> Fraction | float:
    """int_0^lam x^m (1+x)^(n-2) dx: exact for n >= 2; for n = 1 and m >= 1
    its series below lam = 1/2, where the closed form cancels; otherwise the
    closed form in floats, a polynomial part plus a logarithm."""
    if n >= 2:
        return weight_integral(m, n - 2, 0, to_fraction(repr(lam)))
    if m and lam < 0.5:
        return _log_series(m, to_fraction(repr(lam)), Fraction(0))
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
    c = float(_energy_constant(params))
    n, m = params.n, params.m
    if cert.verdict == STABLE or cert.lam is None or cert.lam == 0.0:
        top = float(blowup_top_power(params, 0))
        value = float(cert.mu0) ** 2 * top
        return EnergyReport(value=value, interior=value, bubble=0.0)
    interior = cert.zeta_inv**2 * c * float(weight_integral(m, n, to_fraction(repr(cert.lam)), params.a))
    bubble = n**2 * c * float(_bubble_weight(m, n, cert.lam))
    return EnergyReport(value=interior + bubble, interior=interior, bubble=bubble)


# ---------------------------------------------------------------------------
# exact integration of PL test data against the polynomial weights


@dataclass
class PLTestConfig:
    """Continuous convex piecewise-linear data with rational slopes on [0, a].

    Values are pinned at the breakpoints; convexity (nondecreasing slopes)
    and a flat final segment are validated exactly.  `slopes` holds the slope
    of each segment, computed once here.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slopes: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.breakpoints = tuple(to_fraction(x) for x in self.breakpoints)
        self.values = tuple(to_fraction(v) for v in self.values)
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise InputError("need matching breakpoints and values, at least two")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise InputError("breakpoints must increase strictly")
        self.slopes = tuple(
            (v2 - v1) / (b2 - b1)
            for (b1, b2, v1, v2) in zip(
                self.breakpoints, self.breakpoints[1:], self.values, self.values[1:]
            )
        )
        if any(s2 < s1 for s1, s2 in zip(self.slopes, self.slopes[1:])):
            raise InputError("slopes must be nondecreasing (convexity)")
        if self.slopes[-1] != 0:
            raise InputError("the final segment must be flat")


def _exact_sum(terms: list[tuple[int, int]]) -> Fraction:
    """Sum of (num, den) pairs, den > 0, added pairwise in a balanced tree over
    common denominators and reduced once at the end."""
    while len(terms) > 1:
        merged = []
        for (a, b), (c, d) in zip(terms[::2], terms[1::2]):
            g = math.gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        terms = merged + terms[len(merged) * 2 :]
    return Fraction(*terms[0])


def _pl_integrals(cfg: PLTestConfig, m: int, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Exact int h w, int h v and int h^2 w over [0, a], where h is the PL data,
    w = x^m (1+x)^n and v = x^m (1+x)^(n-1), summed by parts.

    With W_q the q-th antiderivative of w vanishing at 0, s_i the slope right
    of breakpoint x_i (zero outside [0, a]) and J_i = s_i - s_(i-1):
        int h w   = h(a) W_1(a) + sum_i J_i W_2(x_i)
        int h^2 w = h(a)^2 W_1(a) + 2 sum_i J_i (h(x_i) W_2(x_i) - (s_i + s_(i-1)) W_3(x_i))
    and likewise for v, so only breakpoints where the slope jumps contribute.
    """
    a, ha = cfg.breakpoints[-1], cfg.values[-1]
    (w1, dw1), (v1, dv1) = _antiderivative_at(m, n, 1, a), _antiderivative_at(m, n - 1, 1, a)
    first = [(ha.numerator * w1, ha.denominator * dw1)]
    tail = [(ha.numerator * v1, ha.denominator * dv1)]
    square = [(ha.numerator**2 * w1, ha.denominator**2 * dw1)]
    slopes = (Fraction(0), *cfg.slopes, Fraction(0))
    for i, (x, h) in enumerate(zip(cfg.breakpoints, cfg.values)):
        jump = slopes[i + 1] - slopes[i]
        if not jump:
            continue
        s_sum = slopes[i + 1] + slopes[i]
        w2, dw2 = _antiderivative_at(m, n, 2, x)
        w3, dw3 = _antiderivative_at(m, n, 3, x)
        v2, dv2 = _antiderivative_at(m, n - 1, 2, x)
        first.append((jump.numerator * w2, jump.denominator * dw2))
        tail.append((jump.numerator * v2, jump.denominator * dv2))
        num = h.numerator * w2 * s_sum.denominator * dw3 - s_sum.numerator * w3 * h.denominator * dw2
        square.append((2 * jump.numerator * num, jump.denominator * h.denominator * dw2 * s_sum.denominator * dw3))
    return _exact_sum(first), _exact_sum(tail), _exact_sum(square)


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
    the limit Hamiltonian.  norm is the weighted L2 norm of h.  The integrals
    are exact, summed by parts over the breakpoints where the slope jumps
    (see `_pl_integrals`).
    """
    n, m, a, b = params.n, params.m, params.a, params.b
    if cfg.breakpoints[0] != 0 or cfg.breakpoints[-1] != a:
        raise InputError("PL data must span [0, a]")
    b0, tail, square = _pl_integrals(cfg, m, n)
    b0p = n * tail + cfg.values[-1] * a**m * (1 + a) ** n * b
    mu0 = steady_slope(params, 0)
    fut = mu0 * b0 - b0p
    norm = math.sqrt(float(square))
    return FutakiReport(b0=b0, b0_prime=b0p, fut=fut, norm=norm)


def pl_limit_hamiltonian(params: BundleParams, num_breakpoints: int) -> PLTestConfig:
    """PL approximation of the limit Hamiltonian n/(1+x) - mu0 capped at the
    puncture value, with the kink placed exactly at the puncture; at least
    two breakpoints fall on each side of it."""
    if num_breakpoints < 4:
        raise InputError(f"need at least 4 breakpoints, not {num_breakpoints}")
    cert = min_slope_certificate(params)
    if cert.lam is None:
        raise InputError("stable pairs have no capped limit Hamiltonian")
    n, a, mu0 = params.n, params.a, cert.mu0
    lam = to_fraction(repr(cert.lam))
    if lam == 0:
        raise InputError("semistable pairs have a constant limit Hamiltonian")
    left = num_breakpoints // 2
    right = num_breakpoints - left
    bps: list[Fraction] = [lam * Fraction(i, left) for i in range(left)]
    bps += [lam + (a - lam) * Fraction(i, right) for i in range(right + 1)]
    values = [n / (1 + min(x, lam)) - mu0 for x in bps]
    return PLTestConfig(breakpoints=tuple(bps), values=tuple(values))


def _log_series(m: int, lam: Fraction, rest: Fraction) -> float:
    """rest + int_0^lam x^m/(1+x) dx, 0 < lam = p/q < 1/2, by the series
    sum_j (-1)^j lam^(m+j+1)/(m+j+1).  Its partial sums bracket the integral,
    so stopping once the next term is below 2^-64 of the positive total keeps
    the total's relative error near 2^-64 however much rest cancels.  The sum
    is rounded once, by int division, without reducing the fraction."""
    p, q = lam.numerator, lam.denominator
    num, den = rest.numerator * q**m, rest.denominator * q**m
    pk, f, k, sign = p ** (m + 1), rest.denominator, m + 1, 1
    # den = rest.denominator q^(k-1) (k-1)!/m!; the next term is pk f / (den q k)
    while (pk * f) << 64 > abs(num) * q * k:
        num, den = num * q * k + sign * pk * f, den * q * k
        pk, f, k, sign = pk * p, f * k, k + 1, -sign
    return num / den


def l2_slope_deviation(params: BundleParams) -> float:
    """Weighted L2 distance of the limit slope profile from mu0, in closed form.

    The limit slope is n/(1+x) up to the puncture lam and n/(1+lam) beyond.
    On [0, lam] the squared distance times the weight w is n^2 x^m (1+x)^(n-2)
    - 2 n mu0 x^m (1+x)^(n-1) + mu0^2 w, whose integrals nearly cancel near
    semistability, so all is summed exactly.  For n = 1 the first integral has
    a logarithm: its series when lam < 1/2, else log1p, where little cancels.
    """
    cert = min_slope_certificate(params)
    if cert.lam is None or cert.lam == 0.0:
        return 0.0
    n, m, mu0 = params.n, params.m, cert.mu0
    lam = to_fraction(repr(cert.lam))
    total = mu0**2 * weight_integral(m, n, 0, lam) - 2 * n * mu0 * weight_integral(m, n - 1, 0, lam)
    total += (n / (1 + lam) - mu0) ** 2 * weight_integral(m, n, lam, params.a)
    if n == 1 and lam < Fraction(1, 2):
        return math.sqrt(_log_series(m, lam, total))
    return math.sqrt(n**2 * _bubble_weight(m, n, cert.lam) + total)


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


#: the last pair's weight table, keyed on (params, height)
_WEIGHT_TABLE: dict = {}


def _weight_heights(height: float) -> np.ndarray:
    return np.linspace(0.0, 1.0000001 * height, 50001)


def _weight_table(params: BundleParams, height: float) -> np.ndarray:
    """The (m+1)-th root of the weight integral I_{m,n,0} on
    `_weight_heights(height)`, read-only: every member of a minimizing
    sequence inverts the same table.  I grows like x^(m+1)/(m+1) from 0, so
    its root is close to linear there and interpolates well.  Only the last
    pair's table is kept, and it is dropped before the next one is built, so
    that two never live at once."""
    key = (params, height)
    if key not in _WEIGHT_TABLE:
        _WEIGHT_TABLE.clear()
        table = _steady_j(params, 0.0).integral(_weight_heights(height)) ** (1 / (params.m + 1))
        table.flags.writeable = False
        _WEIGHT_TABLE[key] = table
    return _WEIGHT_TABLE[key]


def minimizing_profile(params: BundleParams, k: float) -> tuple[RadialProfile, float]:
    """The k-th member of the explicit energy-minimizing sequence.

    Glues the singular-limit potential to a bubble potential translated k
    units toward the degenerate end through a smooth cutoff.  The body of the
    bubble takes its heights from `invert_steady_profile_j`, a safeguarded
    Newton solve to rounding level.  The glued first derivative is recovered
    by inverting the strictly increasing weight integral I on the cumulative
    density, which starts from the base member's mass left of the first
    sample; the inversion interpolates (m+1)-th roots, which are close to
    linear where I vanishes to order m + 1.  So the gluing solves the
    prescribed Monge-Ampere density exactly at the sample points; its energy
    is evaluated by trapezoidal quadrature in the log-radial coordinate and
    converges to the closed-form infimum as k grows.  The base potential is
    the sigmoid, sampled at steps of 0.02 in rho on [-k - 35, 35].
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

    rho = np.arange(-k - 35.0, 35.0 + 0.02, 0.02)
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
    # left of rho[0] the glued member is the base member alone, whose density
    # is d/drho I(ut1), so the cumulative density starts at I(ut1[0]) > 0
    mass0 = float(weight_integral(m, n, 0, Fraction(ut1[0])))
    cum = mass0 + np.concatenate(([0.0], np.cumsum(0.5 * (F[1:] + F[:-1]) * np.diff(rho))))

    theta1 = np.interp(cum ** (1 / (m + 1)), _weight_table(params, height), _weight_heights(height))
    theta2 = F / ((1 + theta1) ** n * np.maximum(theta1, 1e-300) ** m)

    base = _sigmoid(rho + k)
    v1 = theta1 + lam * base
    v2 = theta2 + lam * base * (1.0 - base)
    sigma = u2 / v2 + n * (1 + u1) / (1 + v1)
    if m:
        sigma = sigma + m * u1 / v1
    integrand = sigma**2 * (1 + v1) ** n * v1**m * v2
    energy = float(_energy_constant(params)) * float(np.trapezoid(integrand, rho))
    return RadialProfile(rho=rho, dv=v1, d2v=v2), energy


# ---------------------------------------------------------------------------
# dHYM volume functional

_GAUSS_NODES = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GAUSS_WEIGHTS = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


def _volume_geometry(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid-only half of `dhym_volume`'s cellwise Gauss rule, grid-major:
    the (4, N - 1) nodes, their offsets from each cell's left end, and
    half-width times weight, then the N - 1 cell widths.  A flow builds it
    once per solve."""
    x0 = grid[:-1]
    dx = grid[1:] - x0
    half = 0.5 * dx
    offsets = half * (1.0 + _GAUSS_NODES[:, None])
    return x0 + offsets, offsets, half * _GAUSS_WEIGHTS[:, None], dx


def _volume_values(values: np.ndarray, geometry) -> np.ndarray:
    """The calibration volume of each row of a (rows, N) chunk of node values
    on a `_volume_geometry`, unchecked.

    On a cell of slope s the interpolant has psi' = s, and the exact identity
    (x psi' + psi)^2 + (psi psi' - x)^2 = (1 + psi'^2)(x^2 + psi^2) takes the
    cell factor sqrt(1 + s^2) out of the Gauss sum of sqrt(x^2 + psi^2).  Its
    one (rows, 4, N - 1) temporary is updated in place, so each numpy loop
    runs along the grid and a chunk's memory stays down."""
    nodes, offsets, weights, dx = geometry
    s = (values[:, 1:] - values[:, :-1]) / dx
    f = s[:, None, :] * offsets
    f += values[:, None, :-1]
    f *= f
    f += nodes * nodes
    np.sqrt(f, out=f)
    f *= weights
    cells = f.sum(axis=1)
    s *= s
    s += 1.0
    np.sqrt(s, out=s)
    cells *= s
    return 2.0 * cells.sum(axis=1)


def dhym_volume(profile: MomentProfile, b, p, q) -> EnergyReport:
    """Calibration volume 2 int sqrt((x psi' + psi)^2 + (psi psi' - x)^2) dx.

    Quadrature is cellwise Gauss on the piecewise-linear interpolant, which
    resolves the square-root boundary layer of singular limits that plain
    node-trapezoid misses.  The integrand is evaluated as
    sqrt(1 + psi'^2) sqrt(x^2 + psi^2), by the exact identity
    (x psi' + psi)^2 + (psi psi' - x)^2 = (1 + psi'^2)(x^2 + psi^2), with the
    cell's constant sqrt(1 + psi'^2) taken out of its Gauss sum.  The
    normalization 2 makes the identity profile on the balanced pair attain
    exactly twice its self-pairing, so the topological lower bound
    2 csc(angle) (bp - q) holds with constant 1.  The reference field
    carries that bound.
    """
    require_admissible_dhym(profile)
    b, p, q = float(b), float(p), float(q)
    value = float(_volume_values(profile.values[None], _volume_geometry(profile.grid))[0])
    c0 = steady_cot_slope(b, p, q)
    reference = 2.0 * math.sqrt(1.0 + c0 * c0) * (b * p - q)
    return EnergyReport(
        value=value, interior=value, bubble=0.0, reference=reference, rel_error=(value - reference) / reference
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
    return EnergyReport(value=interior + bubble, interior=interior, bubble=bubble)
