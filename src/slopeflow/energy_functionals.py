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
PL data are integrated by parts on integers: each breakpoint where the slope
jumps adds integer terms, with the antiderivatives it needs evaluated over
one common denominator.  The terms of b0 and b0' share their denominators,
so one balanced tree sums both numerators, and b0, b0' and the Futaki
invariant are each reduced to a Fraction once.  Only the float of the
square's integral is used: it is rounded correctly from floors of its terms
scaled by a power of two, and the exact tree runs only when those cannot
decide the float.  The PL data of the limit Hamiltonian are written directly
as integers over the puncture P/E and over a.  Only the minimizing sequence,
the moment energy of a sampled profile and the dHYM volume import numpy, so
the infimum and Futaki commands run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .bundle_geometry import (
    BundleParams,
    _antiderivative,
    _antiderivative_at,
    _energy_constant,
    _eval_poly,
    blowup_top_power,
    min_slope_certificate,
    steady_slope,
    weight_integral,
)
from .errors import InputError
from .surface_lattice import to_fraction
from .surface_slopes import STABLE

if TYPE_CHECKING:  # numpy and the profiles load only where a function needs them
    import numpy as np

    from .calabi_profiles import MomentProfile

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
    "minimizing_sequence",
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
    import numpy as np

    from .calabi_profiles import pointwise_slope

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

    Values are pinned at the breakpoints.  `slope_pairs` holds the slope of
    each segment as an unreduced integer pair (numerator, positive
    denominator), on which convexity (nondecreasing slopes) and a flat final
    segment are validated exactly by cross-multiplication.  `slopes` holds
    the same slopes as reduced Fractions, built on first access.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    slope_pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.breakpoints = tuple(to_fraction(x) for x in self.breakpoints)
        self.values = tuple(to_fraction(v) for v in self.values)
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise InputError("need matching breakpoints and values, at least two")
        xs = [(x.numerator, x.denominator) for x in self.breakpoints]
        hs = [(v.numerator, v.denominator) for v in self.values]
        runs = [p2 * q1 - p1 * q2 for (p1, q1), (p2, q2) in zip(xs, xs[1:])]
        if any(run <= 0 for run in runs):
            raise InputError("breakpoints must increase strictly")
        # rise over run, both over the common denominators of their ends
        self.slope_pairs = pairs = tuple(
            ((u2 * v1 - u1 * v2) * q1 * q2, run * v1 * v2)
            for run, (_, q1), (_, q2), (u1, v1), (u2, v2) in zip(runs, xs, xs[1:], hs, hs[1:])
        )
        if any(p2 * q1 < p1 * q2 for (p1, q1), (p2, q2) in zip(pairs, pairs[1:])):
            raise InputError("slopes must be nondecreasing (convexity)")
        if pairs[-1][0]:
            raise InputError("the final segment must be flat")

    @cached_property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, q) for p, q in self.slope_pairs)


def _exact_sum(terms: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Sum of tuples (num_1, ..., num_k, den), den > 0, each numerator over
    its tuple's one denominator, added pairwise in a balanced tree over
    common denominators: one gcd per merge serves every numerator.  The sum
    comes back unreduced, as one such tuple."""
    while len(terms) > 1:
        merged = []
        for s, t in zip(terms[::2], terms[1::2]):
            b, d = s[-1], t[-1]
            g = math.gcd(b, d)
            b, d = b // g, d // g
            merged.append((*(x * d + y * b for x, y in zip(s[:-1], t[:-1])), b * t[-1]))
        terms = merged + terms[len(merged) * 2 :]
    return terms[0]


#: bits kept below the largest term when `_rounded_sum` bounds a sum by
#: floors; a sum that cancels past about 124 - 53 - log2(terms) of them falls
#: back to the exact tree
_GUARD_BITS = 124


def _over_power_of_two(x: int, k: int) -> float:
    """x / 2^k, correctly rounded, for any integer k."""
    return x / (1 << k) if k >= 0 else float(x << -k)


def _rounded_sum(terms: list[tuple[int, int]]) -> float:
    """float(sum num/den) of (num, den) pairs, den > 0, correctly rounded.

    With K set `_GUARD_BITS` bits below the largest term, the floors of the
    terms times 2^K sum to S with S <= 2^K sum < S + N for N terms.  When
    S/2^K and (S + N)/2^K round to the same nonzero float, rounding is
    monotone, so that float is the sum's (Ziv, ACM TOMS 17(3), 1991).
    Otherwise the exact tree `_exact_sum` decides.
    """
    k = _GUARD_BITS - max(num.bit_length() - den.bit_length() for num, den in terms)
    if k >= 0:
        s = sum((num << k) // den for num, den in terms)
    else:
        s = sum(num // (den << -k) for num, den in terms)
    lo = _over_power_of_two(s, k)
    if lo and lo == _over_power_of_two(s + len(terms), k):
        return lo
    num, den = _exact_sum(terms)
    return num / den


@lru_cache(maxsize=None)
def _by_parts_table(m: int, n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The antiderivatives W_2, W_3 of x^m (1+x)^n and V_2 of x^m (1+x)^(n-1)
    over one common denominator L: their integer coefficients (ascending,
    each padded to degree m+n+3), and L."""
    tables = (_antiderivative(m, n, 2), _antiderivative(m, n, 3), _antiderivative(m, n - 1, 2))
    common = math.lcm(*(den for _, den in tables))
    size = m + n + 4
    return tuple(tuple(c * (common // den) for c in coeffs) + (0,) * (size - len(coeffs)) for coeffs, den in tables), common


def _pl_integrals(
    cfg: PLTestConfig, m: int, n: int
) -> tuple[tuple[int, int, int], list[tuple[int, int]]]:
    """Exact int h w and int h v over [0, a], where h is the PL data,
    w = x^m (1+x)^n and v = x^m (1+x)^(n-1), summed by parts, and the terms
    whose sum is int h^2 w.

    With W_q the q-th antiderivative of w vanishing at 0, s_i the slope right
    of breakpoint x_i (zero outside [0, a]) and J_i = s_i - s_(i-1):
        int h w   = h(a) W_1(a) + sum_i J_i W_2(x_i)
        int h^2 w = h(a)^2 W_1(a) + 2 sum_i J_i (h(x_i) W_2(x_i) - (s_i + s_(i-1)) W_3(x_i))
    and likewise for v, so only breakpoints where the slope jumps contribute.
    The terms of int h w and int h v share their denominator term by term,
    so they are summed as (u, v, den) triples in one `_exact_sum` tree and
    come back unreduced: int h w = u/den and int h v = v/den.  The square's
    (num, den) terms are left for `_rounded_sum`, since only its float is
    used, or for `_exact_sum`.
    """
    a, ha = cfg.breakpoints[-1], cfg.values[-1]
    hp, hq = ha.numerator, ha.denominator
    (w1, dw1), (v1, dv1) = _antiderivative_at(m, n, 1, a), _antiderivative_at(m, n - 1, 1, a)
    d1 = math.lcm(dw1, dv1)
    pairs = [(hp * w1 * (d1 // dw1), hp * v1 * (d1 // dv1), hq * d1)]
    square = [(hp * hp * w1, hq * hq * dw1)]
    (cw2, cw3, cv2), common = _by_parts_table(m, n)
    slopes = [(0, 1), *cfg.slope_pairs, (0, 1)]
    for x, h, (p0, q0), (p1, q1) in zip(cfg.breakpoints, cfg.values, slopes, slopes[1:]):
        jump = p1 * q0 - p0 * q1
        if not jump:
            continue
        # J_i = jump/jd and s_i + s_(i-1) = total/sd, each reduced: the
        # same integers whether or not the slope pairs were
        g = math.gcd(jump, q0 * q1)
        jump, jd = jump // g, q0 * q1 // g
        total = p1 * q0 + p0 * q1
        g = math.gcd(total, q0 * q1)
        total, sd = total // g, q0 * q1 // g
        # W_2, W_3 and V_2 at x = p/q, all over the one denominator L q^(m+n+3)
        p, q = x.numerator, x.denominator
        w2, w3, v2 = _eval_poly(cw2, p, q), _eval_poly(cw3, p, q), _eval_poly(cv2, p, q)
        den = common * q ** (len(cw2) - 1)
        hn, hd = h.numerator, h.denominator
        pairs.append((jump * w2, jump * v2, jd * den))
        square.append((2 * jump * (hn * sd * w2 - total * hd * w3), jd * hd * sd * den))
    return _exact_sum(pairs), square


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
    (see `_pl_integrals`); norm is the square root of the correctly rounded
    float of int h^2 w (see `_rounded_sum`).
    """
    n, m, a, b = params.n, params.m, params.a, params.b
    if cfg.breakpoints[0] != 0 or cfg.breakpoints[-1] != a:
        raise InputError("PL data must span [0, a]")
    (u, v, den), square = _pl_integrals(cfg, m, n)
    # b0 = u/den, b0' = (n v cq + cp den)/(den cq) with h(a) a^m (1+a)^n b =
    # cp/cq, and fut = mu0 b0 - b0' with mu0 = M/D: each reduced once
    c = cfg.values[-1] * a**m * (1 + a) ** n * b
    cp, cq = c.numerator, c.denominator
    mu0 = steady_slope(params, 0)
    M, D = mu0.numerator, mu0.denominator
    b0p = n * v * cq + cp * den
    fut = Fraction(M * u * cq - D * b0p, D * den * cq)
    norm = math.sqrt(_rounded_sum(square))
    return FutakiReport(b0=Fraction(u, den), b0_prime=Fraction(b0p, den * cq), fut=fut, norm=norm)


def pl_limit_hamiltonian(params: BundleParams, num_breakpoints: int) -> PLTestConfig:
    """PL approximation of the limit Hamiltonian n/(1+x) - mu0 capped at the
    puncture value, with the kink placed exactly at the puncture; at least
    two breakpoints fall on each side of it."""
    if num_breakpoints < 4:
        raise InputError(f"need at least 4 breakpoints, not {num_breakpoints}")
    cert = min_slope_certificate(params)
    if cert.lam is None:
        raise InputError("stable pairs have no capped limit Hamiltonian")
    lam = to_fraction(repr(cert.lam))
    if lam == 0:
        raise InputError("semistable pairs have a constant limit Hamiltonian")
    # lam = P/E, a = A/B and mu0 = M/D; every breakpoint and value is one
    # Fraction of integers
    n = params.n
    (P, E), (A, B), (M, D) = (
        (f.numerator, f.denominator) for f in (lam, params.a, cert.mu0)
    )
    left = num_breakpoints // 2
    right = num_breakpoints - left
    # left of lam: x_i = P i / (E left), with value n / (1 + x_i) - mu0
    bps = [Fraction(P * i, E * left) for i in range(left)]
    values = [Fraction(n * E * left * D - M * (E * left + P * i), (E * left + P * i) * D) for i in range(left)]
    # from lam to a: x_i = lam + (a - lam) i / right, capped at the puncture value
    bps += [Fraction(P * B * right + (A * E - P * B) * i, E * B * right) for i in range(right + 1)]
    values += [Fraction(n * E * D - M * (E + P), (E + P) * D)] * (right + 1)
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
    import numpy as np

    out = np.empty_like(r)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _smoothstep(r: np.ndarray) -> np.ndarray:
    """C^infinity cutoff: 0 for r <= -1, 1 for r >= 1."""
    import numpy as np

    def bump(s):
        with np.errstate(over="ignore"):
            return np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-12)), 0.0)

    s = (r + 1.0) / 2.0
    num = bump(s)
    return num / (num + bump(1.0 - s))


#: lattice points per unit of rho: a minimizing sequence samples rho_j = j/50
_RHO_STEPS = 50


def minimizing_sequence(params: BundleParams, ks) -> list[tuple[RadialProfile, float]]:
    """The members k of the explicit energy-minimizing sequence, in the order
    of `ks`, each a pair (RadialProfile, energy).

    Member k glues the singular-limit potential to a bubble potential
    translated k units toward the degenerate end through a smooth cutoff.
    The body of the bubble takes its heights from `invert_steady_profile_j`,
    a safeguarded Newton solve to rounding level.  The glued first derivative
    is recovered by inverting the strictly increasing weight integral I on the
    cumulative density, which starts from the base member's mass left of the
    first sample; the inversion interpolates (m+1)-th roots, which are close
    to linear where I vanishes to order m + 1.  So the gluing solves the
    prescribed Monge-Ampere density exactly at the sample points; its energy
    is evaluated by trapezoidal quadrature in the log-radial coordinate and
    converges to the closed-form infimum as k grows.  The base potential is
    the sigmoid.

    Every member samples the one lattice rho_j = j/50: member k takes the
    points of [-k - 35, 35], the tail of the lattice of the largest k.  So
    the base member, the bubble's heights and their derivative, and the
    weight table are computed once for the whole sequence; the Newton solve
    freezes each point once it converges, so a member is bit for bit the one
    computed alone.  Each k is a whole number >= 1.
    """
    import numpy as np

    from .calabi_profiles import _steady_j, invert_steady_profile_j, steady_profile_j_derivative

    ks = list(ks)
    if not ks:
        raise InputError("need at least one k")
    cert = min_slope_certificate(params)
    if cert.verdict == STABLE:
        raise InputError("stable pairs do not bubble; the smooth solution minimizes")
    if any(k < 1 or k != int(k) for k in ks):
        raise InputError("need whole numbers k >= 1")
    lam = cert.lam or 0.0
    n, m = params.n, params.m
    a, b = float(params.a), float(params.b)
    height = a - lam
    k_max = int(max(ks))

    rho = np.arange(-(k_max + 35) * _RHO_STEPS, 35 * _RHO_STEPS + 1) / _RHO_STEPS
    rho.flags.writeable = False  # every member's rho is a view of it
    drho = np.diff(rho)
    sig = _sigmoid(rho)
    u1 = b * sig
    u2 = b * sig * (1.0 - sig)
    ut1 = height * sig
    base_density = (1 + ut1) ** n * ut1**m * (height * sig * (1.0 - sig))

    # the bubble's density on the widest body, rho + k_max > -1; the body of
    # every member lies inside it, and its density is 0 elsewhere
    wide = rho + k_max > -1
    body_density = np.zeros_like(rho)
    x_of_rho = invert_steady_profile_j(params, lam, u1[wide])
    dpsi = np.maximum(steady_profile_j_derivative(params, lam, x_of_rho), 1e-300)
    vt1 = x_of_rho - lam
    body_density[wide] = (1 + vt1) ** n * vt1**m * (u2[wide] / dpsi)

    heights = np.linspace(0.0, 1.0000001 * height, 50001)
    table = _steady_j(params, 0.0).integral(heights) ** (1 / (m + 1))
    c = float(_energy_constant(params))

    members = []
    for k in ks:
        i = (k_max - int(k)) * _RHO_STEPS
        r = rho[i:] + k
        # the cutoff is exactly 0 for r <= -1 and exactly 1 for r >= 1, so
        # it is evaluated only on the samples between
        lo, hi = np.searchsorted(r, -1.0, "right"), np.searchsorted(r, 1.0)
        kappa = np.zeros_like(r)
        kappa[lo:hi] = _smoothstep(r[lo:hi])
        kappa[hi:] = 1.0
        F = kappa * body_density[i:] + (1 - kappa) * base_density[i:]
        # left of rho[i] the glued member is the base member alone, whose
        # density is d/drho I(ut1), so the cumulative density starts at
        # I(ut1[i]) > 0
        mass0 = float(weight_integral(m, n, 0, Fraction(ut1[i])))
        cum = mass0 + np.concatenate(([0.0], np.cumsum(0.5 * (F[1:] + F[:-1]) * drho[i:])))

        theta1 = np.interp(cum ** (1 / (m + 1)), table, heights)
        theta2 = F / ((1 + theta1) ** n * np.maximum(theta1, 1e-300) ** m)

        base = _sigmoid(r)
        v1 = theta1 + lam * base
        v2 = theta2 + lam * base * (1.0 - base)
        sigma = u2[i:] / v2 + n * (1 + u1[i:]) / (1 + v1)
        if m:
            sigma = sigma + m * u1[i:] / v1
        integrand = sigma**2 * (1 + v1) ** n * v1**m * v2
        energy = c * float(np.trapezoid(integrand, rho[i:]))
        members.append((RadialProfile(rho=rho[i:], dv=v1, d2v=v2), energy))
    return members


# ---------------------------------------------------------------------------
# dHYM volume functional

#: the 4-point Gauss-Legendre rule on [-1, 1], made arrays where a volume needs them
_GAUSS_NODES = (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526)
_GAUSS_WEIGHTS = (0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538)


def _volume_geometry(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid-only half of `dhym_volume`'s cellwise Gauss rule, grid-major:
    the (4, N - 1) nodes, their offsets from each cell's left end, and
    half-width times weight, then the N - 1 cell widths.  A flow builds it
    once per solve."""
    import numpy as np

    x0 = grid[:-1]
    dx = grid[1:] - x0
    half = 0.5 * dx
    offsets = half * (1.0 + np.array(_GAUSS_NODES)[:, None])
    return x0 + offsets, offsets, half * np.array(_GAUSS_WEIGHTS)[:, None], dx


def _volume_values(values: np.ndarray, geometry) -> np.ndarray:
    """The calibration volume of each row of a (rows, N) chunk of node values
    on a `_volume_geometry`, unchecked.

    On a cell of slope s the interpolant has psi' = s, and the exact identity
    (x psi' + psi)^2 + (psi psi' - x)^2 = (1 + psi'^2)(x^2 + psi^2) takes the
    cell factor sqrt(1 + s^2) out of the Gauss sum of sqrt(x^2 + psi^2).  Its
    one (rows, 4, N - 1) temporary is updated in place, so each numpy loop
    runs along the grid and a chunk's memory stays down."""
    import numpy as np

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


def _jump_volume(y: float) -> float:
    """2 int_0^y sqrt(1 + t^2) dt, the antiderivative of a wall jump's
    calibration volume."""
    return y * math.sqrt(1.0 + y * y) + math.asinh(y)


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

    The profile runs from x = 1 to (b, p), and its left value psi(1) may lie
    above the pinned q, as the sampled steady profile of an unstable triple
    does: the wall jump from q up to psi(1) is the `bubble`,
    2 int_q^psi(1) sqrt(1 + y^2) dy, as in `dhym_volume_split`.  `interior`
    is the Gauss value and `value` their sum.  A profile whose left value
    lies below q, or that does not span [1, b] and end at p, raises
    InputError.
    """
    from .calabi_profiles import require_admissible_dhym, steady_cot_slope

    require_admissible_dhym(profile)
    b, p, q = float(b), float(p), float(q)
    grid, values = profile.grid, profile.values
    if abs(grid[0] - 1.0) > 1e-12 or abs(grid[-1] - b) > 1e-9 or abs(values[-1] - p) > 1e-9:
        raise InputError(f"the volume's profile must run from x = 1 to (b, p) = ({b:.6g}, {p:.6g})")
    left = float(values[0])
    if left < q:
        raise InputError(f"the profile's left value {left:.6g} lies below q = {q:.6g}")
    interior = float(_volume_values(values[None], _volume_geometry(grid))[0])
    bubble = _jump_volume(left) - _jump_volume(q) if left > q else 0.0
    value = interior + bubble
    c0 = steady_cot_slope(b, p, q)
    reference = 2.0 * math.sqrt(1.0 + c0 * c0) * (b * p - q)
    return EnergyReport(
        value=value, interior=interior, bubble=bubble, reference=reference, rel_error=(value - reference) / reference
    )


def dhym_volume_split(b, p, q) -> EnergyReport:
    """Interior + bubble decomposition of the limiting calibration volume.

    The steady singular profile contributes 2 csc(theta_min)(bp - xi); the
    boundary jump from q up to xi contributes 2 int_q^xi sqrt(1+y^2) dy.
    """
    from .calabi_profiles import steady_cot_slope
    from .surface_slopes import one_point_blowup_certificate

    cert = one_point_blowup_certificate(b, p, q)
    b, p, q = float(b), float(p), float(q)
    s_star = max(cert.slope, q)  # boundary trace of the limit profile
    cot = steady_cot_slope(b, p, s_star)
    interior = 2.0 * math.sqrt(1.0 + cot * cot) * (b * p - s_star)
    bubble = _jump_volume(s_star) - _jump_volume(q)
    return EnergyReport(value=interior + bubble, interior=interior, bubble=bubble)
