"""Energies, Futaki invariants, minimizing sequences, volume functional."""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopeflow import calabi_profiles
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
    minimizing_sequence,
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


@pytest.mark.parametrize(
    "breakpoints,values,message",
    [
        ((0, 2, 4), (1, 0), "need matching breakpoints and values, at least two"),
        ((0,), (1,), "need matching breakpoints and values, at least two"),
        ((0, 2, 2, 4), (3, 1, 1, 1), "breakpoints must increase strictly"),
        ((0, F(2, 3), F(3, 5)), (1, 0, 0), "breakpoints must increase strictly"),
        # a later order error is reported before an earlier convexity one
        ((0, 1, 2, 2), (0, 1, 1, 1), "breakpoints must increase strictly"),
        ((0, 2, 4), (0, 2, 2), "slopes must be nondecreasing (convexity)"),
        # slopes -3/14 then -3/7, over different denominators
        ((0, F(2, 3), 1, 3), (0, F(-1, 7), F(-2, 7), F(-2, 7)), "slopes must be nondecreasing (convexity)"),
        ((0, 4), (1, 0), "the final segment must be flat"),
        ((0, 2, 4), (2, 0, 1), "the final segment must be flat"),
    ],
)
def test_pl_config_rejects_bad_data_with_its_message(breakpoints, values, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        PLTestConfig(breakpoints=breakpoints, values=values)


def test_pl_config_accepts_equal_slopes_over_different_denominators():
    cfg = PLTestConfig(breakpoints=(0, F(1, 3), 1, 2), values=(0, F(-2, 3), -2, -2))
    assert cfg.slopes == (-2, -2, 0)
    assert all(type(s) is F for s in cfg.slopes)


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
        _, e = minimizing_sequence(UNSTABLE, [k])[0]
        errs[k] = abs(e - rep.value) / rep.value
    assert errs[20] < 0.01
    assert errs[20] < errs[6]


def test_minimizing_profile_structure():
    prof, _ = minimizing_sequence(UNSTABLE, [8])[0]
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
    # one build for the puncture's profile, one for the weight table at 0
    minimizing_sequence(BundleParams(n=2, m=0, a=3, b=F(15, 16)), [4])
    assert len(calls) == 2


def test_minimizing_sequence_shares_one_weight_table(monkeypatch):
    """A sequence builds its pair's weight table once, the next sequence
    builds its own, and each energy is bitwise the one from a table built
    afresh."""
    builds = []
    steady_j = calabi_profiles._steady_j
    # the weight table is the only user of the profile punctured at 0 here
    monkeypatch.setattr(calabi_profiles, "_steady_j", lambda p, s: (s == 0.0 and builds.append(p)) or steady_j(p, s))
    other = BundleParams(n=2, m=0, a=3, b=F(15, 16))
    members = [(UNSTABLE, 6), (UNSTABLE, 6), (UNSTABLE, 12), (other, 4)]
    energies = [e for _, e in minimizing_sequence(UNSTABLE, [6, 6, 12])]
    energies += [e for _, e in minimizing_sequence(other, [4])]
    assert builds == [UNSTABLE, other]
    assert energies[0] == energies[1]
    assert [minimizing_sequence(p, [k])[0][1] for p, k in members[1:]] == energies[1:]


#: unstable (n, m, a, b) with m >= 1: the weight integral vanishes to order
#: m + 1 at the degenerate end
HIGHER_M_PAIRS = [(1, 1, 3, F(1, 2)), (2, 1, 3, 1), (1, 2, 2, F(1, 4)), (2, 2, 2, F(1, 4)), (3, 3, 2, F(1, 4))]


@pytest.mark.parametrize("n,m,a,b", HIGHER_M_PAIRS)
def test_minimizing_sequence_with_m_at_least_1_nears_the_infimum(n, m, a, b):
    """The cumulative density starts at the base member's mass left of the
    first sample and is inverted in (m+1)-th roots, so theta1 stays positive
    and accurate next to the degenerate end, and every member's energy lies
    near the infimum."""
    params = BundleParams(n=n, m=m, a=a, b=b)
    ref = energy_infimum(params).value
    for k, bound in ((4, 1e-3), (8, 2e-5), (12, 2e-5), (16, 2e-5), (20, 2e-5)):
        prof, e = minimizing_sequence(params, [k])[0]
        assert prof.dv[0] > 0 and np.isfinite(prof.d2v).all()
        assert abs(e - ref) <= bound * ref, (k, (e - ref) / ref)


#: the unstable m = 0 pairs of the minimizing tests, then those with m >= 1
SEQUENCE_PAIRS = [(2, 0, 3, 1), (1, 0, 4, 1), *HIGHER_M_PAIRS]


@pytest.mark.parametrize("n,m,a,b", SEQUENCE_PAIRS)
def test_minimizing_sequence_is_its_members_computed_alone(n, m, a, b):
    params = BundleParams(n=n, m=m, a=a, b=b)
    for k, (prof, energy) in zip(range(4, 21), minimizing_sequence(params, range(4, 21))):
        alone, alone_energy = minimizing_sequence(params, [k])[0]
        for got, want in ((prof.rho, alone.rho), (prof.dv, alone.dv), (prof.d2v, alone.d2v)):
            assert got.tobytes() == want.tobytes(), k
        assert energy == alone_energy, k


def test_minimizing_members_sample_rho_on_the_lattice():
    """Member k samples rho = j/50 on [-k - 35, 35], both ends included."""
    for k in range(1, 41):
        rho = minimizing_sequence(UNSTABLE, [k])[0][0].rho
        assert rho[0] == -k - 35 and rho[-1] == 35.0, k
        assert rho.size == 50 * (k + 70) + 1, k
        assert np.array_equal(rho, np.arange(-50 * (k + 35), 50 * 35 + 1) / 50), k


def test_minimizing_sequence_inverts_differentiates_and_tabulates_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("invert_steady_profile_j", "steady_profile_j_derivative"):
        monkeypatch.setattr(calabi_profiles, name, counted(name, getattr(calabi_profiles, name)))
    steady_j = calabi_profiles._steady_j
    # the weight table is the only user of the profile punctured at 0 here
    monkeypatch.setattr(calabi_profiles, "_steady_j", lambda p, s: (s == 0.0 and calls.append("table")) or steady_j(p, s))
    for params in (UNSTABLE, BundleParams(n=2, m=1, a=3, b=1)):
        calls.clear()
        assert len(minimizing_sequence(params, range(4, 21))) == 17
        assert sorted(calls) == ["invert_steady_profile_j", "steady_profile_j_derivative", "table"]


def test_minimizing_sequence_keeps_the_order_and_repeats_of_ks():
    seq = minimizing_sequence(UNSTABLE, [12, 4, 12, 8, 4])
    assert [prof.rho[0] for prof, _ in seq] == [-47.0, -39.0, -47.0, -43.0, -39.0]
    assert [e for _, e in seq] == [minimizing_sequence(UNSTABLE, [k])[0][1] for k in (12, 4, 12, 8, 4)]


def test_minimizing_profile_refuses_stable():
    with pytest.raises(InputError):
        minimizing_sequence(STABLE, [5])
    with pytest.raises(InputError):
        minimizing_sequence(UNSTABLE, [0])


@pytest.mark.parametrize("params,ks", [(UNSTABLE, []), (UNSTABLE, [4, 0]), (UNSTABLE, [-3]), (UNSTABLE, [4.5]), (STABLE, [4])])
def test_minimizing_sequence_refuses_bad_input(params, ks):
    with pytest.raises(InputError):
        minimizing_sequence(params, ks)


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


def test_dhym_volume_counts_the_wall_jump():
    """A profile whose left value lies above q carries the wall jump from q
    up to it as its bubble, as `dhym_volume_split` does; its interior is the
    Gauss value alone."""
    xi = 6 - math.sqrt(30)
    prof = sample_steady_profile_dhym(2, 3, xi, 513)
    rep = dhym_volume(prof, 2, 3, 0)
    assert rep.bubble == dhym_volume_split(2, 3, 0).bubble > 1.0
    assert rep.interior == dhym_volume(prof, 2, 3, xi).value
    assert rep.value == rep.interior + rep.bubble
    assert 0.0026 < rep.rel_error < 0.0028


@pytest.mark.parametrize(
    "b,p,q,match",
    [
        (2, 3, 0.5, "left value 0 lies below q = 0.5"),
        (2, 2.5, 0, r"from x = 1 to \(b, p\) = \(2, 2.5\)"),
        (3, 3, 0, r"from x = 1 to \(b, p\) = \(3, 3\)"),
    ],
)
def test_dhym_volume_refuses_a_profile_off_its_ends(b, p, q, match):
    prof = special_cotangent_profile(2, 3, 0, 129)
    with pytest.raises(InputError, match=match):
        dhym_volume(prof, b, p, q)


def test_dhym_volume_refuses_a_profile_off_the_wall():
    grid = np.linspace(1.5, 2, 65)
    with pytest.raises(InputError, match=r"from x = 1 to \(b, p\)"):
        dhym_volume(MomentProfile(grid, 1 + grid, (2.5, 3.0)), 2, 3, 0)


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
