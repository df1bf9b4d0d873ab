"""Energies, Futaki invariants, minimizing sequences, volume functional."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopeflow import calabi_profiles, energy_functionals
from slopeflow.bundle_geometry import BundleParams, min_slope_certificate, steady_slope
from slopeflow.calabi_profiles import (
    MomentProfile,
    sample_steady_profile_dhym,
    sample_steady_profile_j,
    special_cotangent_profile,
)
from slopeflow.energy_functionals import (
    PLTestConfig,
    dhym_volume,
    dhym_volume_split,
    energy_infimum,
    futaki_invariant,
    l2_slope_deviation,
    minimizing_profile,
    moment_energy,
    pl_limit_hamiltonian,
)
from slopeflow.errors import InputError

UNSTABLE = BundleParams(n=1, m=0, a=4, b=1)
STABLE = BundleParams(n=1, m=0, a=1, b=2)
E_CLOSED = 6 + 4 * math.sqrt(3) + 2 * math.log(10 - 5 * math.sqrt(3))


def test_moment_energy_constant_slope():
    # constant slope mu0 gives exactly mu0^2 alpha^top = 100/3
    prof = sample_steady_profile_j(STABLE, 0.0, 4001)
    assert moment_energy(prof, STABLE) == pytest.approx(100 / 3, rel=1e-7)


def test_moment_energy_quadrature_self_convergence():
    errs = []
    for num in (201, 401, 801):
        prof = sample_steady_profile_j(STABLE, 0.0, num)
        errs.append(abs(moment_energy(prof, STABLE) - 100 / 3))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_energy_infimum_unstable_closed_form():
    rep = energy_infimum(UNSTABLE)
    lam = min_slope_certificate(UNSTABLE).lam
    assert rep.interior == pytest.approx(6 + 4 * math.sqrt(3), rel=1e-10)
    assert rep.bubble == pytest.approx(2 * math.log1p(lam), rel=1e-12)
    assert rep.value == pytest.approx(E_CLOSED, rel=1e-10)


def test_energy_infimum_matches_singular_profile_quadrature():
    # independent route: trapezoid of the singular limit's slope energy
    from slopeflow.calabi_profiles import singular_limit_profile_j

    prof = singular_limit_profile_j(UNSTABLE, 40001)
    assert moment_energy(prof, UNSTABLE) == pytest.approx(E_CLOSED, rel=2e-4)


def test_energy_infimum_stable_and_semistable():
    rep = energy_infimum(STABLE)
    assert rep.value == pytest.approx(100 / 3, rel=1e-12)
    assert rep.bubble == 0.0
    semi = energy_infimum(BundleParams(n=1, m=0, a=4, b=F(8, 5)))
    # mu0 = n = 1, alpha^top = 2 * I(4) = 24
    assert semi.value == pytest.approx(24.0, rel=1e-12)
    assert semi.bubble == 0.0


def test_energy_infimum_bubble_log_free_for_higher_base():
    # n = 2: the bubble integrand is a polynomial; check against quadrature
    params = BundleParams(n=2, m=0, a=4, b=F(1, 2))
    cert = min_slope_certificate(params)
    assert cert.verdict == "Unstable"
    rep = energy_infimum(params)
    lam = cert.lam
    xs = np.linspace(0, lam, 20001)
    c = float((params.n + params.m + 1) * math.comb(params.n + params.m, params.n))
    bubble_quad = params.n**2 * c * np.trapezoid(xs**params.m * (1 + xs) ** 0, xs)
    assert rep.bubble == pytest.approx(bubble_quad, rel=1e-8)


def test_futaki_exact_values_single_kink():
    cfg = PLTestConfig(breakpoints=(F(0), F(2), F(4)), values=(F(2), F(0), F(0)))
    rep = futaki_invariant(cfg, UNSTABLE)
    assert rep.b0 == F(10, 3)
    assert rep.b0_prime == F(2)
    # sign convention: destabilizing sequences get negative values, so the
    # invariant is mu0 b0 - b0'; this kink is not a destabilizer
    assert rep.fut == F(1, 2)
    # norm^2 = int_0^2 (2-x)^2 (1+x) dx = 4
    assert rep.norm == pytest.approx(2.0, rel=1e-12)


def test_futaki_vanishes_on_constants():
    for c in (F(1), F(-3), F(7, 2)):
        cfg = PLTestConfig(breakpoints=(F(0), F(4)), values=(c, c))
        assert futaki_invariant(cfg, UNSTABLE).fut == 0


@given(c=st.fractions(min_value=F(-5), max_value=F(5)))
@settings(max_examples=25, deadline=None)
def test_futaki_shift_invariance(c):
    base = pl_limit_hamiltonian(UNSTABLE, 16)
    shifted = PLTestConfig(
        breakpoints=base.breakpoints, values=tuple(v + c for v in base.values)
    )
    assert futaki_invariant(shifted, UNSTABLE).fut == futaki_invariant(base, UNSTABLE).fut


def test_futaki_convexity_validation():
    with pytest.raises(InputError):
        PLTestConfig(breakpoints=(F(0), F(2), F(4)), values=(F(0), F(2), F(2)))  # slope drops
    with pytest.raises(InputError):
        PLTestConfig(breakpoints=(F(0), F(4)), values=(F(1), F(0)))  # last slope nonzero


def test_futaki_normalized_matches_l2_deviation():
    dev = l2_slope_deviation(UNSTABLE)
    for nbp in (64, 256):
        cfg = pl_limit_hamiltonian(UNSTABLE, nbp)
        rep = futaki_invariant(cfg, UNSTABLE)
        ratio = float(-rep.fut) / rep.norm
        assert abs(ratio - dev) / dev < 0.01
    # the maximizer property: a generic convex datum does strictly worse
    generic = PLTestConfig(breakpoints=(F(0), F(2), F(4)), values=(F(2), F(0), F(0)))
    grep = futaki_invariant(generic, UNSTABLE)
    assert float(-grep.fut) / grep.norm < dev


def test_minimizing_sequence_converges():
    rep = energy_infimum(UNSTABLE)
    errs = {}
    for k in (6, 12, 20):
        _, e = minimizing_profile(UNSTABLE, k)
        errs[k] = abs(e - rep.value) / rep.value
    assert errs[20] < 0.01
    assert errs[20] < errs[6]


def test_minimizing_profile_structure():
    prof, _ = minimizing_profile(UNSTABLE, 8)
    # derivative data: dv spans (0, a) and is increasing
    assert prof.dv[0] == pytest.approx(0.0, abs=1e-6)
    assert prof.dv[-1] == pytest.approx(4.0, abs=0.05)
    assert np.all(np.diff(prof.dv) > -1e-12)
    assert np.all(prof.d2v >= -1e-12)


def test_minimizing_profile_builds_each_steady_profile_once(monkeypatch):
    calls = []

    def counted(params, s):
        calls.append(s)
        return steady_slope(params, s)

    monkeypatch.setattr(calabi_profiles, "steady_slope", counted)
    calabi_profiles._steady_j.cache_clear()
    energy_functionals._WEIGHT_TABLE.clear()
    # one build for the puncture's profile, one for the weight table at 0
    minimizing_profile(BundleParams(n=2, m=0, a=3, b=F(15, 16)), 4)
    assert len(calls) == 2


def test_minimizing_sequence_shares_one_weight_table(monkeypatch):
    """Members of one sequence build the pair's read-only weight table once,
    the next pair replaces it, and each energy is bitwise the one from a
    table built afresh."""
    builds = []
    steady_j = energy_functionals._steady_j
    monkeypatch.setattr(energy_functionals, "_steady_j", lambda p, s: builds.append(p) or steady_j(p, s))
    monkeypatch.setattr(energy_functionals, "_WEIGHT_TABLE", {})
    other = BundleParams(n=2, m=0, a=3, b=F(15, 16))
    members = [(UNSTABLE, 6), (UNSTABLE, 6), (UNSTABLE, 12), (other, 4)]
    energies = [minimizing_profile(p, k)[1] for p, k in members]
    assert builds == [UNSTABLE, other]
    assert energies[0] == energies[1]
    (table,) = energy_functionals._WEIGHT_TABLE.values()
    assert not table.flags.writeable
    fresh = []
    for p, k in members[1:]:
        energy_functionals._WEIGHT_TABLE.clear()
        fresh.append(minimizing_profile(p, k)[1])
    assert fresh == energies[1:]


def test_minimizing_profile_refuses_stable():
    with pytest.raises(InputError):
        minimizing_profile(STABLE, 5)
    with pytest.raises(InputError):
        minimizing_profile(UNSTABLE, 0)


def test_dhym_volume_calibrated_identity():
    # psi(x) = x on the balanced pair: V = 2(b^2-1) exactly
    grid = np.linspace(1, 2, 513)
    prof = MomentProfile(grid, grid.copy(), (1.0, 2.0))
    rep = dhym_volume(prof, 2, 2, 1)
    assert rep.value == pytest.approx(6.0, rel=1e-12)
    assert rep.reference == pytest.approx(6.0, rel=1e-15)


def test_dhym_volume_steady_saturates_bound():
    xi = 6 - math.sqrt(30)
    prof = sample_steady_profile_dhym(2, 3, xi, 4097)
    rep = dhym_volume(prof, 2, 3, xi)
    assert rep.value >= rep.reference - 1e-6
    assert rep.rel_error < 5e-6


def test_dhym_volume_lower_bound_random_profiles():
    rng = np.random.default_rng(123)
    b, p, q = 2.0, 3.0, 0.0
    grid = np.linspace(1, 2, 257)
    base = special_cotangent_profile(b, p, q, 257).values
    count = 0
    while count < 50:
        bump = np.sin(math.pi * (grid - 1)) * rng.uniform(-0.5, 0.8)
        bump += np.sin(2 * math.pi * (grid - 1)) * rng.uniform(-0.3, 0.3)
        vals = base + bump * (grid - 1) * (2 - grid)
        prof = MomentProfile(grid, vals, (q, p))
        if not np.all(np.diff(grid * vals) > 0):
            continue
        rep = dhym_volume(prof, b, p, q)
        assert rep.value >= rep.reference - 1e-6
        count += 1


def test_dhym_volume_split_values():
    spl = dhym_volume_split(2, 3, 0)
    xi = 6 - math.sqrt(30)
    assert spl.interior == pytest.approx(2 * math.sqrt(1 + xi**2) * (6 - xi), rel=1e-12)
    bubble = xi * math.sqrt(1 + xi**2) + math.asinh(xi)
    assert spl.bubble == pytest.approx(bubble, rel=1e-12)
    # stable pairs have no jump: the split degenerates to the steady volume
    spl_stable = dhym_volume_split(2, 3, 1)
    assert spl_stable.bubble == pytest.approx(0.0, abs=1e-12)


def test_energy_report_guard():
    from slopeflow.energy_functionals import EnergyReport

    with pytest.raises(InputError):
        EnergyReport(value=-1.0, interior=0.0, bubble=0.0)
