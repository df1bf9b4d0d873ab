"""Finite-difference integration of the reduced parabolic flows.

Both flows evolve a pinned momentum profile on a uniform grid in the
conservative form psi_t = Q (c[i+1/2] - c[i-1/2]) / h.  One integrator,
`_integrate`, owns the time loop, checkpoints, convergence test, runtime
monitors and backward-Euler step.  A small scheme per equation supplies the
half-node flux c (the pointwise slope for the J flow, cot(theta) for the
cotangent flow) and its partials in (delta, mean), Q at the interior nodes,
the explicit CFL step, the admissibility predicate, the checkpoint fields,
and the reference profile with its plateau window.

Explicit Euler steps under a CFL bound are the default.  The implicit step
is backward Euler in delta form, (I - dt Q dc) delta = dt rate, with each
half flux linearized and Q lagged: one tridiagonal solve.  Implicit J
linearizes the plain chord flux, without the contact-flux blend of the
explicit J flux: fed the blended flux, that step leaves semistable J flows
unconverged at t = 100.  Monitors track monotonicity and comparison with the
singular limit, energy or calibration-volume decay, admissibility and the
angle range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .bundle_geometry import BundleParams, min_slope_certificate
from .calabi_profiles import (
    ADMISSIBILITY_TOL,
    BackgroundPotential,
    MomentProfile,
    _angle_field,
    _slope_field,
    background_potential,
    sample_steady_profile_dhym,
    singular_limit_profile_j,
    special_cotangent_profile,
    steady_profile_dhym,
    straight_line_profile,
)
from .errors import InputError, MonitorViolationError, TimeStepError
from .surface_slopes import STABLE, one_point_blowup_certificate

__all__ = [
    "FlowConfig",
    "Checkpoint",
    "FlowTrace",
    "MonitorReport",
    "run_j_flow",
    "run_cotangent_flow",
    "monitor_suite",
]

J_MONITORS = ("admissible", "monotone", "comparison", "derivative", "energy")
COT_MONITORS = ("admissible", "monotone", "comparison", "angle", "volume")

#: a run has converged once sup |d psi/dt| stays below the tolerance for
#: this many consecutive steps
CONVERGENCE_STEPS = 100
#: slack of the monotonicity and comparison monitors
MONO_TOL = 1e-8
COMP_TOL = 1e-8
#: slack of the energy-decay monitor
ENERGY_SLACK = 1e-10
#: plateau and sup error are measured this far inside the puncture and ends
COMPACT_MARGIN = 0.1


@dataclass
class FlowConfig:
    """Discretization and stopping policy for a flow run."""

    grid_size: int = 512
    dt_policy: str = "explicit"
    cfl: float = 0.8
    dt: float | None = None
    t_max: float = 100.0
    convergence_tol: float = 1e-8
    checkpoint_interval: float | None = None

    def __post_init__(self):
        if self.grid_size < 64:
            raise InputError("grid_size must be at least 64")
        if self.dt_policy not in ("explicit", "implicit"):
            raise InputError("dt_policy must be 'explicit' or 'implicit'")
        if not (0.0 < self.cfl < 1.0):
            raise InputError("CFL factor must lie in (0, 1)")
        if self.dt_policy == "implicit" and (self.dt is None or self.dt <= 0):
            raise InputError("implicit stepping needs a positive fixed dt")
        for name, v in (("t_max", self.t_max), ("convergence_tol", self.convergence_tol)):
            if v <= 0:
                raise InputError(f"{name} must be positive")


@dataclass
class Checkpoint:
    """Per-checkpoint diagnostics; rate extrema are over the whole interval
    since the previous checkpoint, not just the sampled instant."""

    t: float
    sup_rate: float
    max_rate: float
    min_rate: float
    energy: float | None
    admissible: bool
    comparison_gap: float | None
    plateau: float
    slope_total_variation: float | None = None
    theta_min: float | None = None
    theta_max: float | None = None
    volume: float | None = None
    min_forward_diff: float | None = None
    max_derivative: float | None = None


@dataclass
class MonitorReport:
    entries: dict[str, dict]

    @property
    def passed(self) -> bool:
        return all(e["passed"] for e in self.entries.values())

    def to_dict(self) -> dict:
        return {"passed": self.passed, "monitors": self.entries}


@dataclass
class FlowTrace:
    """Checkpointed history of a flow run plus terminal measurements."""

    kind: str
    times: list[float]
    checkpoints: list[Checkpoint]
    profiles: list[MomentProfile]
    terminal_profile: MomentProfile
    terminal_constant: float
    reference_constant: float
    reference_profile: MomentProfile | None
    sup_error_on_compact: float | None
    lambda_estimate: float | None
    converged: bool
    steps: int
    energy_max_violation: float | None = None
    volume_max_violation: float | None = None
    monitor_report: MonitorReport | None = None
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "terminal_constant": self.terminal_constant,
            "reference_constant": self.reference_constant,
            "sup_error_on_compact": self.sup_error_on_compact,
            "lambda_estimate": self.lambda_estimate,
            "converged": self.converged,
            "steps": self.steps,
            "t_final": self.times[-1] if self.times else 0.0,
            "monitor_report": None if self.monitor_report is None else self.monitor_report.to_dict(),
            "meta": self.meta,
        }

    def to_csv(self, path: str) -> None:
        """Checkpoint profiles as rows t,x,psi,diagnostic, where the
        diagnostic is the pointwise slope (J) or cot(theta) (cotangent)."""
        h = self.meta["h"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,psi,diagnostic\n")
            for t, prof in zip(self.times, self.profiles):
                x, psi = prof.grid, prof.values
                d = _gradient(psi, h)
                if self.kind == "j":
                    diag = _slope_field(x, psi, d, self.meta["params"]["n"], self.meta["params"]["m"])
                else:
                    diag = _angle_field(x, psi, d)[0]
                for xv, v, dg in zip(x, psi, diag):
                    fh.write(f"{t:.10g},{xv:.17g},{v:.17g},{dg:.17g}\n")

    def save_summary(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)


def _smooth_switch(s: float) -> float:
    """C-infinity ramp: 0 for s <= -1, 1 for s >= 1."""
    if s <= -1.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    a = math.exp(-1.0 / (s + 1.0))
    b = math.exp(-1.0 / (1.0 - s))
    return a / (a + b)


def _uniform_spacing(grid: np.ndarray) -> float:
    h = np.diff(grid)
    if not np.allclose(h, h[0], rtol=1e-10, atol=1e-14):
        raise InputError("flow grids must be uniform")
    return float(h[0])


def _gradient(psi: np.ndarray, h: float) -> np.ndarray:
    """psi' on a uniform grid: centered inside, one-sided at the ends."""
    d = np.empty_like(psi)
    d[1:-1] = (psi[2:] - psi[:-2]) / (2 * h)
    d[0] = (psi[1] - psi[0]) / h
    d[-1] = (psi[-1] - psi[-2]) / h
    return d


def _plateau(x: np.ndarray, values: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """Mean and total variation of a sampled function restricted to [lo, hi]."""
    sel = (x >= lo) & (x <= hi)
    if not np.any(sel):
        return float("nan"), float("nan")
    v = values[sel]
    return float(np.mean(v)), float(np.sum(np.abs(np.diff(v))))


def _lambda_estimate(prof: MomentProfile, threshold: float = 1e-4) -> float:
    below = prof.values <= threshold
    if not below.any():
        return 0.0
    return float(prof.grid[np.nonzero(below)[0][-1]])


class _JScheme:
    """The scheme of `run_j_flow`: Q(psi) = psi (b - psi)/b and the flux
    sigma = psi' + (m/x + n/(1+x)) psi + n/(1+x), the pointwise slope."""

    kind, monitors = "j", J_MONITORS
    admissibility_lost = "J-admissibility lost"
    #: the decaying functional: its Checkpoint field, and how often it is measured
    decay, decay_every_step = "energy", True
    cfl_refresh = 0  # the CFL bound is fixed

    def __init__(self, params: BundleParams, init, bg: BackgroundPotential | None, cfg: FlowConfig):
        bg = bg or background_potential("j_flow", params.b)
        if bg.kind != "j_flow":
            raise InputError("run_j_flow needs a j_flow background")
        a, b = float(params.a), float(params.b)
        if isinstance(init, str):
            if init == "line":
                init = straight_line_profile(params, cfg.grid_size + 1)
            elif init == "steady":
                init = singular_limit_profile_j(params, cfg.grid_size + 1)
            else:
                raise InputError(f"unknown J initial profile {init!r}")
        if abs(init.grid[0]) > 1e-12 or abs(init.grid[-1] - a) > 1e-9:
            raise InputError("initial profile must live on [0, a]")
        if abs(init.boundary[0]) > 1e-12 or abs(init.boundary[1] - b) > 1e-9:
            raise InputError("initial profile must have boundary values (0, b)")

        cert = min_slope_certificate(params)
        lam = cert.lam if cert.lam is not None else 0.0
        self.reference_constant = cert.zeta_inv
        self.x = x = init.grid.copy()
        self.psi = init.values.copy()
        self.h = h = _uniform_spacing(x)
        n, m = params.n, params.m
        self.n, self.m, self.b = n, m, b
        self.bg = bg
        self.boundary = self.ref_boundary = (0.0, b)
        ref = singular_limit_profile_j(params, x.size, lam=lam)
        self.ref = np.interp(x, ref.grid, ref.values)
        self.window = (lam + COMPACT_MARGIN, a - COMPACT_MARGIN)
        # half-node data of the chord flux delta + p mean + g
        xh = 0.5 * (x[1:] + x[:-1])
        self.p_h = n / (1 + xh) + (m / xh if m else 0.0)
        self.g_h = n / (1 + xh)
        # energy weights: trapezoid of c_{n,m} sigma^2 x^m (1+x)^n
        tw = np.full_like(x, h)
        tw[0] = tw[-1] = h / 2
        self.tw = tw * (x**m * (1 + x) ** n * float((n + m + 1) * math.comb(n + m, n) * params.d))
        self.meta = {
            "params": {"n": n, "m": m, "a": a, "b": b, "d": float(params.d)},
            "verdict": cert.verdict,
            "lambda_ref": lam,
            "dt": cfg.dt if cfg.dt_policy == "implicit" else self.explicit_dt(None, cfg.cfl),
            "h": h,
        }

    def Q(self, pv: np.ndarray) -> np.ndarray:
        return self.bg.Q(pv[1:-1])

    def explicit_dt(self, pv, cfl: float) -> float:
        """Fixed CFL bound from the largest value b/4 of Q."""
        return cfl / (self.b / 4.0 * (2 / self.h**2 + np.max(np.abs(self.p_h)) / self.h))

    def linear_flux(self, pv: np.ndarray):
        """The chord flux, linear in psi, with its (delta, mean) partials."""
        c = (pv[1:] - pv[:-1]) / self.h + self.p_h * 0.5 * (pv[1:] + pv[:-1]) + self.g_h
        return c, 1.0, self.p_h

    def flux(self, pv: np.ndarray) -> np.ndarray:
        """The chord flux, blended toward the contact flux near a contact.

        A cell whose left value has flattened to zero while its right value
        fits the quadratic contact profile (inferred contact offset within a
        few cells) blends toward `_contact_flux`.  Profiles that pass
        through zero with positive slope infer an offset of order sqrt(h)
        and never trigger.
        """
        s = self.linear_flux(pv)[0]
        left, right = pv[:-1], pv[1:]
        flat_tol = 1e-6 * self.b
        # only the few transition cells: flat on the left, visible on the right
        cand = np.nonzero(
            (left < 3.0 * flat_tol) & (right > 2.0 * flat_tol) & (right < 0.2 * self.b)
        )[0]
        for i in cand:
            x_r = self.x[i + 1]
            c2 = self.n / (2.0 * (1.0 + x_r) ** 2)
            u = math.sqrt(right[i] / c2)
            w_flat = 1.0 - _smooth_switch((left[i] / flat_tol - 1.5) / 1.0)
            w_near = 1.0 - _smooth_switch((u / self.h - 2.5) / 1.0)
            w = w_flat * w_near
            if w > 0.0:
                s[i] = (1.0 - w) * s[i] + w * self._contact_flux(x_r, right[i])
        return s

    def _contact_flux(self, x_r: float, psi_r: float) -> float:
        """Slope constant of the degenerate-contact profile through (x_r, psi_r).

        Near a contact point x0 the punctured steady profile behaves like
        c2 (x-x0)^2 + c3 (x-x0)^3 with c2 = n/(2(1+x0)^2) and its slope
        functional is the constant n/(1+x0).  Inverting that expansion from
        a nearby sample fixes the discrete steady state's contact point to
        the true one, which the plain chord flux misses at O(h^2); without
        it the discrete limit undershoots the maximal member of the steady
        family near the contact.
        """
        n, m = self.n, self.m
        x0 = x_r
        for _ in range(3):
            c2 = n / (2.0 * (1.0 + x0) ** 2)
            p0 = n / (1.0 + x0) + (m / x0 if m and x0 > 0 else 0.0)
            c3 = (-2.0 * n / (1.0 + x0) ** 3 - p0 * n / (1.0 + x0) ** 2) / 6.0
            u1 = math.sqrt(max(psi_r, 0.0) / c2)
            u = u1 * (1.0 - 0.5 * (c3 / c2) * u1)
            x0 = max(x_r - u, 0.0)
        return n / (1.0 + x0)

    def diagnostic(self, pv: np.ndarray) -> np.ndarray:
        return _slope_field(self.x, pv, _gradient(pv, self.h), self.n, self.m)

    def admissible(self, pv: np.ndarray) -> bool:
        """Nonnegative and nondecreasing up to the admissibility slack."""
        return bool(pv.min() >= -ADMISSIBILITY_TOL and np.diff(pv).min() >= -ADMISSIBILITY_TOL)

    def decay_value(self, pv: np.ndarray) -> float:
        s = self.diagnostic(pv)
        return float(np.dot(s * s, self.tw))

    def checkpoint_fields(self, pv: np.ndarray, t: float) -> dict:
        diffs = np.diff(pv)
        return {
            "comparison_gap": float(np.min(pv - self.ref)),
            "min_forward_diff": float(np.min(diffs)),
            "max_derivative": float(np.max(np.abs(diffs)) / self.h),
        }


class _CotScheme:
    """The scheme of `run_cotangent_flow`: Q(x) = (x-1)(b-x)/(b-1) and the
    flux cot(theta) = (psi psi' - x)/(x psi' + psi) of the angle sum theta."""

    kind, monitors = "cotangent", COT_MONITORS
    admissibility_lost = "dHYM admissibility lost"
    decay, decay_every_step = "volume", False
    cfl_refresh = 16  # steps between CFL refreshes; the bound drifts slowly

    def __init__(self, b, p, q, init, bg: BackgroundPotential | None, cfg: FlowConfig):
        b, p, q = float(b), float(p), float(q)
        bg = bg or background_potential("cotangent", b)
        if bg.kind != "cotangent":
            raise InputError("run_cotangent_flow needs a cotangent background")
        cert = one_point_blowup_certificate(b, p, q)
        s_star = max(cert.slope, q)
        if isinstance(init, str):
            if init == "special":
                init = special_cotangent_profile(b, p, q, cfg.grid_size + 1)
            elif init == "steady":
                prof = sample_steady_profile_dhym(b, p, s_star, cfg.grid_size + 1)
                vals = prof.values.copy()
                vals[0] = q
                init = MomentProfile(prof.grid, vals, (q, p))
            else:
                raise InputError(f"unknown cotangent initial profile {init!r}")
        if abs(init.grid[0] - 1.0) > 1e-12 or abs(init.grid[-1] - b) > 1e-9:
            raise InputError("initial profile must live on [1, b]")
        if abs(init.boundary[0] - q) > 1e-9 or abs(init.boundary[1] - p) > 1e-9:
            raise InputError(f"initial profile must have boundary values ({q}, {p})")

        self.reference_constant = cert.slope
        self.x = x = init.grid.copy()
        self.psi = init.values.copy()
        self.h = _uniform_spacing(x)
        self.bpq = (b, p, q)
        self.Qx = bg.Q(x[1:-1])
        self.boundary = (q, p)
        self.ref = np.asarray(steady_profile_dhym(b, p, s_star, x), dtype=float)
        self.ref[0], self.ref[-1] = s_star, p
        self.ref_boundary = (self.ref[0], p)
        self.window = (1.0 + COMPACT_MARGIN, b - COMPACT_MARGIN)
        self.xh = 0.5 * (x[1:] + x[:-1])
        self.meta = {"bpq": [b, p, q], "verdict": cert.verdict, "c0": cert.topological_slope, "h": self.h}

    def Q(self, pv: np.ndarray) -> np.ndarray:
        return self.Qx

    def explicit_dt(self, pv: np.ndarray, cfl: float) -> float:
        _, a_half, b_half = self.linear_flux(pv)
        h = self.h
        stiff = self.Q(pv) * ((a_half[1:] + a_half[:-1]) / h**2 + (b_half[1:] + b_half[:-1]) / (2 * h))
        return cfl / float(np.max(stiff))

    def flux(self, pv: np.ndarray) -> np.ndarray:
        return self.linear_flux(pv, partials=False)[0]

    def linear_flux(self, pv: np.ndarray, partials: bool = True):
        """cot(theta) at half nodes and its partials in (delta, mean).

        c = (mean*delta - x)/(x*delta + mean) is strictly increasing in the
        difference quotient delta, which makes the flux-difference update a
        monotone scheme and preserves admissibility and the comparison
        principle at the discrete level.

        The first half node switches to the constant-angle jump flux
        x1 psi1 - sqrt((x1^2-1)(psi1^2+1)) once the wall cell is steeper
        than the neighboring cell can explain: a pinned boundary value below
        the singular limit concentrates into an unresolved jump there, and
        the mean-value flux through such a jump equilibrates at the wrong
        puncture trace.  The jump flux is exact along the entire singular
        steady profile, so the discrete steady state locks onto it.
        """
        xh, x1 = self.xh, self.x[1]
        delta = (pv[1:] - pv[:-1]) / self.h
        mean = 0.5 * (pv[1:] + pv[:-1])
        den = xh * delta + mean
        if np.any(den <= 0):
            raise MonitorViolationError("x psi' + psi reached zero; admissibility lost")
        c = (mean * delta - xh) / den
        dc_ddelta = dc_dmean = None
        if partials:
            dc_ddelta = (mean**2 + xh**2) / den**2
            dc_dmean = xh * (1 + delta**2) / den**2
        # wall-cell regime switch: ratio of first to second cell increments
        jump = pv[1] - pv[0]
        step2 = max(pv[2] - pv[1], 1e-300)
        wgt = float(_smooth_switch((jump / step2 - 5.0) / 2.0))
        if wgt > 0.0:
            c_jump = x1 * pv[1] - math.sqrt((x1 * x1 - 1.0) * (pv[1] * pv[1] + 1.0))
            c[0] = (1 - wgt) * c[0] + wgt * c_jump
            if partials:
                dc_jump = x1 - math.sqrt(x1 * x1 - 1.0) * pv[1] / math.sqrt(pv[1] * pv[1] + 1.0)
                # fold the psi1-sensitivity of the jump flux into the mean
                # slot (the assembly halves the mean sensitivity, hence the
                # factor 2; the pinned wall node is never an unknown)
                dc_ddelta[0] = (1 - wgt) * dc_ddelta[0]
                dc_dmean[0] = (1 - wgt) * dc_dmean[0] + 2.0 * wgt * dc_jump
        return c, dc_ddelta, dc_dmean

    def diagnostic(self, pv: np.ndarray) -> np.ndarray:
        return _angle_field(self.x, pv, _gradient(pv, self.h))[0]

    def admissible(self, pv: np.ndarray) -> bool:
        """x psi' + psi > 0, checked as monotonicity of x psi."""
        return bool(np.diff(self.x * pv).min() > -ADMISSIBILITY_TOL)

    def decay_value(self, pv: np.ndarray) -> float:
        from .energy_functionals import dhym_volume  # keeps it out of the CLI's import

        return dhym_volume(MomentProfile(self.x.copy(), pv.copy(), self.boundary), *self.bpq).value

    def checkpoint_fields(self, pv: np.ndarray, t: float) -> dict:
        theta = _angle_field(self.x, pv, _gradient(pv, self.h))[1]
        tmin, tmax = float(np.min(theta)), float(np.max(theta))
        if tmin <= 0 or tmax >= math.pi:
            raise MonitorViolationError(f"angle left (0, pi) at t={t:.6g}")
        return {"comparison_gap": float(np.min(self.ref - pv)), "theta_min": tmin, "theta_max": tmax}


def _integrate(scheme, cfg: FlowConfig) -> FlowTrace:
    """Step a scheme from its initial profile until convergence or t_max.

    Stops when sup |d psi/dt| stays below the tolerance for CONVERGENCE_STEPS
    consecutive steps.  Checkpoints record the profile and the monitor
    diagnostics; a profile that loses admissibility raises at once.
    """
    x, h, psi = scheme.x, scheme.h, scheme.psi
    lo, hi = scheme.window
    # stable limits are smooth: no monotone approach, no barrier to compare with
    stable = scheme.meta["verdict"] == STABLE
    monitors = [mn for mn in scheme.monitors if not (stable and mn in ("monotone", "comparison"))]
    implicit = cfg.dt_policy == "implicit"
    dt = cfg.dt if implicit else None
    banded = np.zeros((3, x.size - 2))
    ck_interval = cfg.checkpoint_interval or cfg.t_max / 200.0
    t, steps, quiet, converged = 0.0, 0, 0, False
    times, checkpoints, profiles = [], [], []
    run_max_rate, run_min_rate = -np.inf, np.inf
    decay_now, decay_violation = None, 0.0

    def track_decay():
        nonlocal decay_now, decay_violation
        value = scheme.decay_value(psi)
        if decay_now is not None:
            decay_violation = max(decay_violation, value - decay_now)
        decay_now = value

    def checkpoint(rate: np.ndarray):
        nonlocal run_max_rate, run_min_rate
        plateau, tv = _plateau(x, scheme.diagnostic(psi), lo, hi)
        if not scheme.decay_every_step:
            track_decay()
        fields = {"energy": None, **scheme.checkpoint_fields(psi, t), scheme.decay: decay_now}
        ck = Checkpoint(
            t=t,
            sup_rate=float(np.max(np.abs(rate))),
            max_rate=float(max(run_max_rate, np.max(rate))),
            min_rate=float(min(run_min_rate, np.min(rate))),
            admissible=scheme.admissible(psi),
            plateau=plateau,
            slope_total_variation=tv,
            **fields,
        )
        times.append(t)
        checkpoints.append(ck)
        profiles.append(MomentProfile(x.copy(), psi.copy(), scheme.boundary))
        run_max_rate, run_min_rate = -np.inf, np.inf
        if not ck.admissible:
            raise MonitorViolationError(f"{scheme.admissibility_lost} at t={t:.6g}")

    if scheme.decay_every_step:
        track_decay()
    c = scheme.flux(psi)
    checkpoint(scheme.Q(psi) * (c[1:] - c[:-1]) / h)
    next_ck = ck_interval

    while t < cfg.t_max and not converged:
        if implicit:
            # (I - dt Q dc) delta = dt rate, each half flux linearized
            c, dc_ddelta, dc_dmean = scheme.linear_flux(psi)
            d_h, m_2 = dc_ddelta / h, dc_dmean / 2
            # sensitivity of each half flux to its right and left node, over h
            right, left = (d_h + m_2) / h, (d_h - m_2) / h
            Qv = scheme.Q(psi)
            rate = Qv * (c[1:] - c[:-1]) / h
            banded[0, 1:] = -dt * Qv[:-1] * right[1:-1]
            banded[1, :] = 1 + dt * Qv * (left[1:] + right[:-1])
            banded[2, :-1] = -dt * Qv[1:] * left[1:-1]
            delta = solve_banded((1, 1), banded, dt * rate)
            rate = delta / dt
        else:
            if dt is None or (scheme.cfl_refresh and steps % scheme.cfl_refresh == 0):
                dt = scheme.explicit_dt(psi, cfg.cfl)
            c = scheme.flux(psi)
            rate = scheme.Q(psi) * (c[1:] - c[:-1]) / h
            delta = dt * rate
        psi[1:-1] += delta
        t += dt
        steps += 1
        sup = float(np.max(np.abs(rate)))
        if not math.isfinite(sup):
            raise TimeStepError(f"non-finite update at t={t:.6g}; time step too large")
        run_max_rate = max(run_max_rate, float(np.max(rate)))
        run_min_rate = min(run_min_rate, float(np.min(rate)))
        if not scheme.admissible(psi):
            raise MonitorViolationError(f"{scheme.admissibility_lost} at t={t:.6g}")
        if scheme.decay_every_step:
            track_decay()
        quiet = quiet + 1 if sup < cfg.convergence_tol else 0
        converged = quiet >= CONVERGENCE_STEPS
        if t >= next_ck or converged or t >= cfg.t_max:
            checkpoint(rate)
            next_ck += ck_interval

    terminal = MomentProfile(x.copy(), psi.copy(), scheme.boundary)
    plateau, _ = _plateau(x, scheme.diagnostic(psi), lo, hi)
    trace = FlowTrace(
        kind=scheme.kind,
        times=times,
        checkpoints=checkpoints,
        profiles=profiles,
        terminal_profile=terminal,
        terminal_constant=plateau,
        reference_constant=scheme.reference_constant,
        reference_profile=MomentProfile(x.copy(), scheme.ref.copy(), scheme.ref_boundary),
        sup_error_on_compact=float(np.max(np.abs((psi - scheme.ref)[x >= lo]))),
        lambda_estimate=_lambda_estimate(terminal) if scheme.kind == "j" else None,
        converged=converged,
        steps=steps,
        meta={**scheme.meta, "monitors": monitors},
        **{f"{scheme.decay}_max_violation": decay_violation},
    )
    trace.monitor_report = monitor_suite(trace)
    return trace


def run_j_flow(
    params: BundleParams,
    init: MomentProfile | str,
    bg: BackgroundPotential | None = None,
    cfg: FlowConfig | None = None,
) -> FlowTrace:
    """Integrate the reduced inverse-trace flow with pinned endpoints.

    d psi/dt = Q(psi) (psi'' + (m/x + n/(1+x)) psi'
                       - (m/x^2 + n/(1+x)^2) psi - n/(1+x)^2)

    with psi(0) = 0 and psi(a) = b; the diffusion coefficient vanishes at the
    endpoint values, consistent with the pinning.  Stops when the sup of
    |d psi/dt| stays below the tolerance for CONVERGENCE_STEPS steps, or at
    t_max.  Returns the terminal profile, the plateau value of the
    pointwise slope on the compact away from the puncture, and checkpointed
    monitor diagnostics.
    """
    cfg = cfg or FlowConfig()
    return _integrate(_JScheme(params, init, bg, cfg), cfg)


def run_cotangent_flow(
    b,
    p,
    q,
    init: MomentProfile | str,
    bg: BackgroundPotential | None = None,
    cfg: FlowConfig | None = None,
) -> FlowTrace:
    """Integrate the reduced cotangent flow with pinned endpoints.

    d psi/dt = Q(x) ((x^2+psi^2) psi'' + (1+psi'^2)(x psi' - psi))
               / (x psi' + psi)^2

    on [1, b] with psi(1) = q, psi(b) = p.  The prefactor is csc^2(theta)
    over (x^2+psi^2)(1+psi'^2), rewritten through the angle sum; the time
    step adapts to the current diffusion coefficient.  Classifies the run by
    the trichotomy in sign(q - c0) and measures the plateau of cot(theta).
    """
    cfg = cfg or FlowConfig()
    return _integrate(_CotScheme(b, p, q, init, bg, cfg), cfg)


def monitor_suite(trace: FlowTrace) -> MonitorReport:
    """Evaluate the per-checkpoint monitor verdicts recorded along a trace.

    For the inverse-trace flow: profiles decrease in time and stay above the
    singular limit, forward differences stay positive and bounded, energy
    never increases.  For the cotangent flow: profiles increase in time and
    stay below the steady limit, the angle stays inside (0, pi), and the
    calibration volume never increases.  Reports the first violating
    checkpoint of each monitor.
    """
    cks = trace.checkpoints
    monitors = trace.meta.get("monitors", [])
    j = trace.kind == "j"
    entries: dict[str, dict] = {}

    def scan(name, series, ok):
        first_fail = None
        extremal = None
        for i, v in enumerate(series):
            if v is None:
                continue
            extremal = v if extremal is None else (v if abs(v) > abs(extremal) else extremal)
            if first_fail is None and not ok(v):
                first_fail = i
        entries[name] = {
            "passed": first_fail is None,
            "worst": extremal,
            "first_violation": None
            if first_fail is None
            else {"checkpoint": first_fail, "t": cks[first_fail].t},
        }

    if "monotone" in monitors:
        if j:
            scan("monotone_decreasing", [c.max_rate for c in cks], lambda v: v <= MONO_TOL)
        else:
            scan("monotone_increasing", [c.min_rate for c in cks], lambda v: v >= -MONO_TOL)
    if "comparison" in monitors:
        name = "above_singular_limit" if j else "below_steady_limit"
        scan(name, [c.comparison_gap for c in cks], lambda v: v >= -COMP_TOL)
    if "derivative" in monitors:
        scan("forward_differences_nonnegative", [c.min_forward_diff for c in cks], lambda v: v >= -ADMISSIBILITY_TOL)
        scan("derivative_bounded", [c.max_derivative for c in cks], lambda v: v < 1e6)
    if "angle" in monitors:
        scan("angle_above_zero", [c.theta_min for c in cks], lambda v: v > 0)
        scan("angle_below_pi", [c.theta_max for c in cks], lambda v: v < math.pi)
    # the calibration volume is only measured to quadrature accuracy; the
    # sharpening boundary layer makes that drift like h^(3/2)
    vol_slack = max(ENERGY_SLACK, trace.meta.get("h", 0.0) ** 1.5)
    for decay, slack in (("energy", ENERGY_SLACK), ("volume", vol_slack)):
        if decay in monitors:
            v = getattr(trace, f"{decay}_max_violation")
            entries[f"{decay}_nonincreasing"] = {
                "passed": v is not None and v <= slack,
                "worst": v,
                "first_violation": None,
            }
    if "admissible" in monitors:
        scan("admissible", [1.0 if c.admissible else -1.0 for c in cks], lambda v: v > 0)
    return MonitorReport(entries=entries)
