"""Finite-difference integration of the reduced parabolic flows.

Both flows evolve a pinned momentum profile on a uniform grid in the
conservative form psi_t = Q (c[i+1/2] - c[i-1/2]) / h.  One integrator,
`_integrate`, owns the time loop, checkpoints, residual stop, runtime
monitors and backward-Euler step.  A small scheme per equation supplies the
half-node flux c (the pointwise slope for the J flow, cot(theta) for the
cotangent flow) and, apart, its node sensitivities, Q at the interior nodes,
the checkpoint fields, and the reference profile with its plateau window; its
admissibility test and slope field are those of `calabi_profiles`.

Every step is backward Euler in delta form, (I - dt Q dc) delta = dt rate,
with each half flux linearized and Q lagged: one tridiagonal solve by LAPACK
gtsv, called directly; scipy is imported on the first such solve.  The flux
c, and so the rate and the steady residual, is evaluated at every step; the
sensitivities dc are lagged: evaluated on the first step, once JACOBIAN_LAG
accepted steps have used them, and before every retry of a rejected step.
The J flux is the plain chord flux, linear in psi, so its sensitivities are
fixed and the lag changes none of its steps.  The cotangent flow keeps its
steady state and residual stop and only takes a slightly different path to
them: an inexact Jacobian, which pseudo-transient continuation allows
(Kelley & Keyes 1998).  A run is
pseudo-transient continuation: the first step is the configured dt, and each
later step is scaled by the squared fall of the steady residual since the
last (switched evolution relaxation, Mulder & van Leer 1985, here with the
ratio raised to SER_EXPONENT) and kept in [dt, max(dt, DT_CAP)], except that
the last step may be shortened to land on t_max.  Each step is solved into a
candidate profile.  A candidate that breaks admissibility is rejected: dt is
halved, down to the configured dt, and the step is solved again from the
same rate on sensitivities of the current profile.  A step that is
inadmissible at the configured dt raises, and so does a run whose kept rows
pass ROW_BUDGET values.  Rejected steps are counted apart and feed no
monitor.  A run stops once the steady residual
sup |Q (c[i+1/2] - c[i-1/2]) / h| falls below the tolerance, or at t_max.
Monitors track
monotonicity and comparison with the singular limit, energy or
calibration-volume decay, and the derivative bounds (J) or the angle range
(cotangent).  Admissibility is enforced rather than monitored: the scheme's
constructor checks the initial profile and the step loop every accepted
step, and both raise.

Every profile the run reaches is a checkpoint: the initial one and the one
each accepted step gives, so the last is the final profile.  It is taken at
the top of the time loop, where the residual has just evaluated the cell
fluxes of the current profile.  The time loop only appends.  Per checkpoint
it records a read-only copy of the profile as a row, t, the rate's sup, max
and min (the residual's for the initial profile, delta / step for every
later one), and the plateau and spread (mean and max - min) of the cell
fluxes c the scheme steps with, over the cells with both end nodes in the
window.  After the loop one pass computes the other diagnostics, one numpy
call each per chunk of max(1, CHUNK_ELEMS // N) rows, which bounds the
kernels' temporaries:
- the distance to the reference profile, and the forward-difference and
  derivative bounds (J) or the angle range (cotangent, from one angle
  evaluation); an angle outside (0, pi) raises with the t of the first
  offending checkpoint;
- the decaying functional: the J energy (one dot product per row), or the
  calibration volume from `dhym_volume`'s quadrature on a geometry built
  once per solve.
The kept profiles are views of the checkpoints' rows, on a read-only grid
shared with the reference profile of the solve, and are not validated again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bundle_geometry import BundleParams, _energy_constant, min_slope_certificate
from .calabi_profiles import (
    ADMISSIBILITY_TOL,
    MomentProfile,
    _admissible_dhym,
    _admissible_j,
    _angle,
    _angle_field,
    _slope_field,
    _slope_grid,
    require_admissible_dhym,
    require_admissible_j,
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

J_MONITORS = ("monotone", "comparison", "derivative", "energy")
COT_MONITORS = ("monotone", "comparison", "angle", "volume")

#: slack of the monotonicity and comparison monitors
MONO_TOL = 1e-8
COMP_TOL = 1e-8
#: slack of the energy-decay monitor
ENERGY_SLACK = 1e-10
#: the plateau window lies this far inside the puncture and the right end,
#: or a quarter of the interval between them when that is shorter; the sup
#: error runs from the window's left edge to the right end
COMPACT_MARGIN = 0.1
#: values per chunk of the post-loop diagnostics: max(1, CHUNK_ELEMS // N)
#: rows of N nodes, which bounds the kernels' temporaries
CHUNK_ELEMS = 8192
#: the largest step; backward Euler lags on the slow mode (e-folding time
#: about 5), so at a cap of 4 the slowest solves only just converge by t = 100
DT_CAP = 2.0
#: dt scales by (res_prev / res) ** SER_EXPONENT.  Under backward Euler the
#: slow mode's residual falls by about 1 + dt/5 per step, so the plain ratio
#: takes about 5/dt steps to ramp from the first step to the cap, and its
#: square about half that.  Larger steps early cost transient accuracy: the
#: J flow's error at t = 1 against fine explicit steps is 3.0e-4 at an
#: exponent of 2 and 5.05e-4 at 2.5, past the 5e-4 that tests allow.
SER_EXPONENT = 2
#: the flux sensitivities serve JACOBIAN_LAG accepted steps (and are evaluated
#: again before a retry).  The 57 cotangent solves of the flow-limits
#: benchmark's seeds 1, 2 and 71 take 2750 steps on fresh sensitivities, and
#: none is rejected at any lag; a lag of 2 takes 2759, 4 takes 2787, 8 takes
#: 2880 and fails 6 limit checks, and never evaluating them again loses
#: admissibility on 8 solves
JACOBIAN_LAG = 4
#: the most values (kept rows times N) a run may keep, 32 MiB of rows: a run
#: that passes it raises TimeStepError.  The largest run of the tests keeps
#: 311,148 (2412 rows at grid 128), and of the benchmark 54,891
ROW_BUDGET = 2**22


@dataclass
class FlowConfig:
    """Discretization and stopping policy for a flow run.

    Every run takes backward-Euler steps.  `dt` is the first step; later
    steps scale by the squared fall of the steady residual (SER_EXPONENT)
    and lie in [dt, max(dt, DT_CAP)], except that the last step may be
    shortened to land on t_max.  Each step evaluates the flux afresh; its
    sensitivities are evaluated on the first step, once JACOBIAN_LAG
    accepted steps have used them and before every retry, and reused in
    between.
    A step whose profile breaks admissibility is rejected and retried at
    half the step, down to `dt`; at `dt` it raises MonitorViolationError.
    The initial profile and every accepted step are recorded as checkpoints;
    a run that would keep more than ROW_BUDGET values raises TimeStepError.
    A run has converged once its steady residual drops below
    `convergence_tol`.  `dt_policy` accepts only "implicit".
    """

    grid_size: int = 512
    dt_policy: str = "implicit"
    dt: float = 0.05
    t_max: float = 100.0
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if self.grid_size < 64:
            raise InputError("grid_size must be at least 64")
        if self.dt_policy != "implicit":
            raise InputError(f"dt_policy must be 'implicit' (explicit stepping was removed), not {self.dt_policy!r}")
        for name, v in (("dt", self.dt), ("t_max", self.t_max), ("convergence_tol", self.convergence_tol)):
            if not v > 0:
                raise InputError(f"{name} must be positive")


@dataclass
class Checkpoint:
    """The diagnostics of one profile of a run: the initial one or the one an
    accepted step reached.  The rate extrema are those of the residual for the
    initial profile, and of delta / step, the step that reached it, for every
    later one."""

    t: float
    sup_rate: float
    max_rate: float
    min_rate: float
    plateau: float
    plateau_spread: float | None = None
    energy: float | None = None
    comparison_gap: float | None = None
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
    """Checkpointed history of a flow run plus terminal measurements.

    There is one checkpoint for the initial profile and one for each accepted
    step, so `times` are the times the run reached.  `profiles` are views of
    the read-only rows the loop kept, all on one read-only grid shared with
    the reference profile; `terminal_profile` is the last of them.
    `decay_first_violation` says where the decaying functional (the J energy
    or the calibration volume) first rose above its monitor's slack, as
    {"checkpoint", "t"}; None if it never did.
    `meta` carries the scheme's parameters, the grid step `h`, the monitors
    run, `dt`, the first step, `dt_max`, the largest step taken (0 for a run
    that took none), `rejected`, the number of steps rejected for breaking
    admissibility and retried at half the step (`steps` counts only accepted
    ones), and `residual`, the steady residual sup |d psi/dt| of the final
    profile.
    """

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
    decay_first_violation: dict | None = None
    monitor_report: MonitorReport | None = None
    meta: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """The run record; `stop_reason` is "converged" or "t_max"."""
        return {
            "schema": 1,
            "kind": self.kind,
            "terminal_constant": self.terminal_constant,
            "reference_constant": self.reference_constant,
            "sup_error_on_compact": self.sup_error_on_compact,
            "lambda_estimate": self.lambda_estimate,
            "converged": self.converged,
            "stop_reason": "converged" if self.converged else "t_max",
            "steps": self.steps,
            "t_final": self.times[-1] if self.times else 0.0,
            "monitor_report": None if self.monitor_report is None else self.monitor_report.to_dict(),
            "meta": self.meta,
        }

    def to_csv(self, path: str) -> None:
        """One block of rows t,x,psi,diagnostic per checkpoint, so per step,
        where the diagnostic is the nodal pointwise slope (J) or cot(theta)
        (cotangent) from centered differences; its mean over the window
        differs from the flux plateau by O(h^2)."""
        h = self.meta["h"]
        if self.kind == "j":
            params = self.meta["params"]
            # every profile of a solve shares one grid
            slope_grid = _slope_grid(self.terminal_profile.grid, params["n"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,psi,diagnostic\n")
            for t, prof in zip(self.times, self.profiles):
                x, psi = prof.grid, prof.values
                d = _gradient(psi, h)
                if self.kind == "j":
                    diag = _slope_field(psi, d, params["m"], slope_grid)
                else:
                    diag = _angle_field(x, psi, d)[0]
                row = f"{t:.10g},%.17g,%.17g,%.17g\n"
                fh.write("".join(map(row.__mod__, zip(x.tolist(), psi.tolist(), diag.tolist()))))

    def save_summary(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)


def _uniform_spacing(grid: np.ndarray) -> float:
    h = np.diff(grid)
    if not np.allclose(h, h[0], rtol=1e-10, atol=1e-14):
        raise InputError("flow grids must be uniform")
    return float(h[0])


def _gradient(psi: np.ndarray, h: float) -> np.ndarray:
    """psi' along the last axis on a uniform grid: centered inside, one-sided
    at the ends."""
    d = np.empty_like(psi)
    d[..., 1:-1] = (psi[..., 2:] - psi[..., :-2]) / (2 * h)
    d[..., 0] = (psi[..., 1] - psi[..., 0]) / h
    d[..., -1] = (psi[..., -1] - psi[..., -2]) / h
    return d


def _window(left: float, right: float) -> tuple[float, float]:
    """The plateau window: COMPACT_MARGIN inside both ends, or a quarter of
    a shorter interval."""
    margin = min(COMPACT_MARGIN, (right - left) / 4)
    return left + margin, right - margin


def _decay_slack(decay: str, h: float) -> float:
    """The rise the energy or volume monitor forgives between two values."""
    if decay == "energy":
        return ENERGY_SLACK
    # the calibration volume is only measured to quadrature accuracy; the
    # sharpening boundary layer makes that drift like h^(3/2)
    return max(ENERGY_SLACK, h**1.5)


def _lambda_estimate(prof: MomentProfile) -> float:
    """The last node where the profile is at most 1e-4, or 0."""
    below = prof.values <= 1e-4
    if not below.any():
        return 0.0
    return float(prof.grid[np.nonzero(below)[0][-1]])


def _chunks(rows: list[np.ndarray], size: int):
    """(start, stack) of each run of `size` consecutive rows; the last run
    may be shorter."""
    for start in range(0, len(rows), size):
        yield start, np.array(rows[start : start + size])


_gtsv = None


def solve_banded(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system by LAPACK gtsv, in place: the caller must not
    use its four arrays afterwards.  A singular or non-finite matrix, seen in
    the diagonal of its U factor, raises TimeStepError."""
    global _gtsv
    if _gtsv is None:
        from scipy.linalg.lapack import dgtsv as _gtsv
    _, u, _, x, info = _gtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info or not math.isfinite(u.sum()):
        raise TimeStepError(f"singular or non-finite implicit system (gtsv info {info})")
    return x


def _node_sensitivities(dc_ddelta, dc_dmean, h: float):
    """Sensitivity of each half flux to its right and left node, over h, and
    their sum at each interior node: the implicit step's matrix entries."""
    d_h, m_2 = dc_ddelta / h, dc_dmean / 2
    right, left = (d_h + m_2) / h, (d_h - m_2) / h
    return right, left, left[1:] + right[:-1]


class _JScheme:
    """The scheme of `run_j_flow`: Q(psi) = psi (b - psi)/b and the flux
    sigma = psi' + (m/x + n/(1+x)) psi + n/(1+x), the pointwise slope."""

    kind, monitors = "j", J_MONITORS
    admissibility_lost = "J-admissibility lost"
    #: the decaying functional's Checkpoint field
    decay = "energy"

    def __init__(self, params: BundleParams, init, cfg: FlowConfig):
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
        require_admissible_j(init)

        cert = min_slope_certificate(params)
        lam = cert.lam if cert.lam is not None else 0.0
        self.reference_constant = cert.zeta_inv
        self.x = x = init.grid.copy()
        self.boundary = self.ref_boundary = (0.0, b)
        self.psi = init.values.copy()
        self.psi[0], self.psi[-1] = self.boundary
        self.h = h = _uniform_spacing(x)
        n, m = params.n, params.m
        self.m, self.b = m, b
        ref = singular_limit_profile_j(params, x.size, lam=lam)
        self.ref = np.interp(x, ref.grid, ref.values)
        self.window = _window(lam, a)
        # half-node data of the chord flux delta + p mean + g
        xh = 0.5 * (x[1:] + x[:-1])
        self.p_h = n / (1 + xh) + (m / xh if m else 0.0)
        self.g_h = n / (1 + xh)
        # the chord flux is linear, so its implicit-step entries are fixed
        self.node_sensitivities = _node_sensitivities(1.0, self.p_h, h)
        self.slope_grid = _slope_grid(x, n)
        # energy weights: trapezoid of c_{n,m} sigma^2 x^m (1+x)^n
        tw = np.full_like(x, h)
        tw[0] = tw[-1] = h / 2
        self.tw = tw * (x**m * (1 + x) ** n * float(_energy_constant(params)))
        self.meta = {
            "params": {"n": n, "m": m, "a": a, "b": b, "d": float(params.d)},
            "verdict": cert.verdict,
            "lambda_ref": lam,
            "h": h,
        }

    def Q(self, pv: np.ndarray) -> np.ndarray:
        y = pv[1:-1]
        return y * (self.b - y) / self.b

    def flux(self, pv: np.ndarray) -> np.ndarray:
        """The chord flux, linear in psi."""
        return (pv[1:] - pv[:-1]) / self.h + self.p_h * 0.5 * (pv[1:] + pv[:-1]) + self.g_h

    def sensitivities(self, pv: np.ndarray):
        """The chord flux's fixed `_node_sensitivities`."""
        return self.node_sensitivities

    def admissible(self, pv: np.ndarray) -> bool:
        return _admissible_j(pv)

    def decay_values(self, block: np.ndarray) -> np.ndarray:
        """The J energy of each row of a chunk: the trapezoid of its nodal
        slope field, on the grid terms built once per solve, one dot product
        per row."""
        s = _slope_field(block, _gradient(block, self.h), self.m, self.slope_grid)
        s *= s
        return np.array([np.dot(row, self.tw) for row in s])

    def block_fields(self, block: np.ndarray, times: list[float]) -> dict[str, np.ndarray]:
        """The J-only Checkpoint fields of each row of a chunk."""
        diffs = block[:, 1:] - block[:, :-1]
        dmin, dmax = diffs.min(axis=1), diffs.max(axis=1)
        return {
            "comparison_gap": (block - self.ref).min(axis=1),
            "min_forward_diff": dmin,
            "max_derivative": np.maximum(dmax, -dmin) / self.h,
        }


class _CotScheme:
    """The scheme of `run_cotangent_flow`: Q(x) = (x-1)(b-x)/(b-1) and the
    flux cot(theta) = (psi psi' - x)/(x psi' + psi) of the angle sum theta."""

    kind, monitors = "cotangent", COT_MONITORS
    admissibility_lost = "dHYM admissibility lost"
    #: the decaying functional's Checkpoint field
    decay = "volume"

    def __init__(self, b, p, q, init, cfg: FlowConfig):
        b, p, q = float(b), float(p), float(q)
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
        require_admissible_dhym(init)

        self.reference_constant = cert.slope
        self.x = x = init.grid.copy()
        self.boundary = (q, p)
        self.psi = init.values.copy()
        self.psi[0], self.psi[-1] = self.boundary
        self.h = _uniform_spacing(x)
        xi = x[1:-1]
        self.Qx = (xi - 1.0) * (b - xi) / (b - 1.0)
        self.ref = np.asarray(steady_profile_dhym(b, p, s_star, x), dtype=float)
        self.ref[0], self.ref[-1] = s_star, p
        self.ref_boundary = (self.ref[0], p)
        self.window = _window(1.0, b)
        self.xh = 0.5 * (x[1:] + x[:-1])
        self.xh2 = self.xh**2
        from .energy_functionals import _volume_geometry  # keeps it out of the CLI's import

        self.volume_geometry = _volume_geometry(x)
        self.meta = {"bpq": [b, p, q], "verdict": cert.verdict, "c0": cert.topological_slope, "h": self.h}

    def Q(self, pv: np.ndarray) -> np.ndarray:
        return self.Qx

    def _cells(self, pv: np.ndarray):
        """Each cell's difference quotient, mean and x psi' + psi at its half
        node, which must stay positive."""
        delta = (pv[1:] - pv[:-1]) / self.h
        mean = 0.5 * (pv[1:] + pv[:-1])
        den = self.xh * delta + mean
        if den.min() <= 0:
            raise MonitorViolationError("x psi' + psi reached zero; admissibility lost")
        return delta, mean, den

    def _jump(self, pv: np.ndarray) -> float | None:
        """The constant-angle jump flux of the first half node when it
        exceeds the pinned wall value, else None."""
        x1, psi1 = self.x[1], float(pv[1])
        c_jump = x1 * psi1 - math.sqrt((x1 * x1 - 1.0) * (psi1 * psi1 + 1.0))
        return c_jump if c_jump > pv[0] else None

    def flux(self, pv: np.ndarray) -> np.ndarray:
        """cot(theta) at half nodes.

        c = (mean*delta - x)/(x*delta + mean) is strictly increasing in the
        difference quotient delta, which makes the flux-difference update a
        monotone scheme and preserves admissibility and the comparison
        principle at the discrete level.

        The first half node takes the constant-angle jump flux
        c_jump = x1 psi1 - sqrt((x1^2-1)(psi1^2+1)) exactly when c_jump
        exceeds the pinned wall value q, and the mean-value flux otherwise.
        A pinned value below the singular limit concentrates into an
        unresolved jump at the wall, and the mean-value flux through it
        equilibrates at the wrong puncture trace; in the viscosity sense the
        wall trace is max(q, c) (Crandall, Ishii & Lions 1992, section 7),
        and the two fluxes meet where the jump member's trace equals q.  The
        jump flux is exact along the entire singular steady profile, so the
        discrete steady state locks onto it.
        """
        delta, mean, den = self._cells(pv)
        c = (mean * delta - self.xh) / den
        c_jump = self._jump(pv)
        if c_jump is not None:
            c[0] = c_jump
        return c

    def sensitivities(self, pv: np.ndarray):
        """The `_node_sensitivities` of `flux` at a profile."""
        delta, mean, den = self._cells(pv)
        den2 = den**2
        dc_ddelta = (mean**2 + self.xh2) / den2
        dc_dmean = self.xh * (1 + delta**2) / den2
        if self._jump(pv) is not None:
            x1, psi1 = self.x[1], float(pv[1])
            # the jump flux depends on psi1 alone: put its sensitivity in the
            # mean slot (the assembly halves it, hence the factor 2; the
            # pinned wall node is never an unknown)
            dc_ddelta[0] = 0.0
            dc_dmean[0] = 2.0 * (x1 - math.sqrt(x1 * x1 - 1.0) * psi1 / math.sqrt(psi1 * psi1 + 1.0))
        return _node_sensitivities(dc_ddelta, dc_dmean, self.h)

    def admissible(self, pv: np.ndarray) -> bool:
        return _admissible_dhym(self.x, pv)

    def decay_values(self, block: np.ndarray) -> np.ndarray:
        """The calibration volume of each row of a chunk: `dhym_volume`'s
        value, on the quadrature geometry built once per solve."""
        from .energy_functionals import _volume_values

        return _volume_values(block, self.volume_geometry)

    def block_fields(self, block: np.ndarray, times: list[float]) -> dict[str, np.ndarray]:
        """The cotangent-only Checkpoint fields of each row of a chunk, from
        one angle evaluation; a row whose angle leaves (0, pi) raises with
        its time."""
        theta = _angle(self.x, block, _gradient(block, self.h))
        tmin, tmax = theta.min(axis=1), theta.max(axis=1)
        out = (tmin <= 0) | (tmax >= math.pi)
        if out.any():
            raise MonitorViolationError(f"angle left (0, pi) at t={times[int(out.argmax())]:.6g}")
        return {"comparison_gap": (self.ref - block).min(axis=1), "theta_min": tmin, "theta_max": tmax}


def _integrate(scheme, cfg: FlowConfig) -> FlowTrace:
    """Step a scheme from its initial profile until convergence or t_max.

    Stops once the steady residual sup |d psi/dt| at the current profile is
    below the tolerance, or at t_max, which the last step never passes.
    Each step is solved into a candidate; one that breaks admissibility is
    retried at half the step, and raises once the step is down to cfg.dt.
    The flux is evaluated at every step and its sensitivities on the first
    step, once JACOBIAN_LAG accepted steps have used them and before every
    retry.
    The loop only appends a checkpoint record per profile it reaches, and
    raises once the records would pass ROW_BUDGET values; one pass after it
    computes the monitor diagnostics by chunks of rows.
    """
    x, h, psi = scheme.x, scheme.h, scheme.psi
    # one read-only grid for every profile the trace keeps
    grid = x.copy()
    grid.flags.writeable = False
    # the plateau's cells: both end nodes in the window [lo, hi] of the sorted
    # grid, and at least one
    lo, hi = scheme.window
    first = min(int(np.searchsorted(x, lo)), x.size - 2)
    cells = slice(first, max(first + 1, int(np.searchsorted(x, hi, side="right")) - 1))
    # stable limits are smooth: no monotone approach, no barrier to compare with
    stable = scheme.meta["verdict"] == STABLE
    monitors = [mn for mn in scheme.monitors if not (stable and mn in ("monotone", "comparison"))]
    dt = cfg.dt
    t, steps, rejected = 0.0, 0, 0
    dt_max, res_prev = 0.0, None
    # accepted steps since the sensitivities were evaluated: they are due first
    age = JACOBIAN_LAG
    max_rows = ROW_BUDGET // x.size
    cand = psi.copy()  # the pinned ends never change
    # one record per checkpoint: a read-only copy of the profile, then the
    # Checkpoint's leading fields t, the rate's sup, max and min, and the
    # plateau and spread of its window fluxes (the fluxes themselves, kept for
    # the post-loop pass, would hold about 0.5 MB more at peak)
    records = []

    while True:
        # the steady residual: sup |d psi/dt| at the current profile
        c = scheme.flux(psi)
        Qv = scheme.Q(psi)
        rate = Qv * (c[1:] - c[:-1]) / h
        res = float(np.abs(rate).max())
        converged = res < cfg.convergence_tol
        if not records:
            # the initial profile records the residual's extrema, every later
            # one those of the step that reached it
            rmax, rmin = float(rate.max()), float(rate.min())
        row = psi.copy()
        row.flags.writeable = False
        flux = c[cells]
        plateau, spread = float(flux.sum() / flux.size), float(flux.max() - flux.min())
        records.append((row, t, max(rmax, -rmin), rmax, rmin, plateau, spread))
        if converged or t >= cfg.t_max:
            break
        if len(records) > max_rows:
            raise TimeStepError(
                f"{len(records)} kept profiles of {x.size} values pass the budget of {ROW_BUDGET}"
                f" at t={t:.6g} after {steps} steps; the first step dt is too small or the grid too fine"
            )
        if res_prev is not None:
            # switched evolution relaxation: dt grows by the squared fall of the residual
            dt = max(cfg.dt, min(dt * (res_prev / res) ** SER_EXPONENT, DT_CAP))
        res_prev = res
        while True:
            if age >= JACOBIAN_LAG:
                # the off-diagonals are negated once per evaluation
                right, left, mid = scheme.sensitivities(psi)
                lower, upper, age = -left[1:-1], -right[1:-1], 0
            last = t + dt >= cfg.t_max
            step = cfg.t_max - t if last else dt
            # (I - dt Q dc) delta = dt rate, each half flux linearized
            dtQ = step * Qv
            delta = solve_banded(dtQ[1:] * lower, 1 + dtQ * mid, dtQ[:-1] * upper, step * rate)
            if not math.isfinite(delta.sum()):
                raise TimeStepError(f"non-finite update at t={t + step:.6g}; time step too large")
            np.add(psi[1:-1], delta, out=cand[1:-1])
            if scheme.admissible(cand):
                break
            if step <= cfg.dt:
                raise MonitorViolationError(f"{scheme.admissibility_lost} at t={t + step:.6g}")
            # reject: retry at half the step, on sensitivities of this profile
            dt = max(cfg.dt, step / 2)
            rejected += 1
            age = JACOBIAN_LAG
        psi, cand = cand, psi
        t = cfg.t_max if last else t + step
        steps += 1
        age += 1
        dt_max = max(dt_max, step)
        # the step's rate delta / step: rounding keeps the order, so its
        # extrema are those of delta over the step
        rmax, rmin = float(delta.max()) / step, float(delta.min()) / step

    # the diagnostics, one numpy call each per chunk of rows
    rows, times = [rec[0] for rec in records], [rec[1] for rec in records]
    size = max(1, CHUNK_ELEMS // x.size)
    parts = [
        {scheme.decay: scheme.decay_values(chunk), **scheme.block_fields(chunk, times[start : start + size])}
        for start, chunk in _chunks(rows, size)
    ]
    cols = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    rises = cols[scheme.decay][1:] - cols[scheme.decay][:-1]
    over = np.flatnonzero(rises > _decay_slack(scheme.decay, h))
    first_rise = None if not over.size else {"checkpoint": int(over[0]) + 1, "t": times[int(over[0]) + 1]}
    values = zip(*(col.tolist() for col in cols.values()))
    checkpoints = [Checkpoint(*rec[1:], **dict(zip(cols, vals))) for rec, vals in zip(records, values)]
    profiles = [MomentProfile._view(grid, row, scheme.boundary) for row in rows]
    # every run ends on a checkpoint of its final profile
    terminal = profiles[-1]
    trace = FlowTrace(
        kind=scheme.kind,
        times=times,
        checkpoints=checkpoints,
        profiles=profiles,
        terminal_profile=terminal,
        terminal_constant=checkpoints[-1].plateau,
        reference_constant=scheme.reference_constant,
        reference_profile=MomentProfile(grid, scheme.ref, scheme.ref_boundary),
        sup_error_on_compact=float(np.max(np.abs((psi - scheme.ref)[first:]))),
        lambda_estimate=_lambda_estimate(terminal) if scheme.kind == "j" else None,
        converged=converged,
        steps=steps,
        decay_first_violation=first_rise,
        meta={
            **scheme.meta,
            "monitors": monitors,
            "dt": cfg.dt,
            "dt_max": dt_max,
            "rejected": rejected,
            "residual": res,
        },
        **{f"{scheme.decay}_max_violation": float(rises.max(initial=0.0))},
    )
    trace.monitor_report = monitor_suite(trace)
    return trace


def run_j_flow(
    params: BundleParams,
    init: MomentProfile | str,
    cfg: FlowConfig | None = None,
) -> FlowTrace:
    """Integrate the reduced inverse-trace flow with pinned endpoints.

    d psi/dt = Q(psi) (psi'' + (m/x + n/(1+x)) psi'
                       - (m/x^2 + n/(1+x)^2) psi - n/(1+x)^2)

    with psi(0) = 0 and psi(a) = b; the diffusion coefficient vanishes at the
    endpoint values, consistent with the pinning.  Stops once the steady
    residual sup |d psi/dt| falls below the tolerance, or at t_max.  Returns
    the terminal profile, the plateau of the chord flux (the pointwise slope
    of each cell) on the compact away from the puncture, and checkpointed
    monitor diagnostics.
    """
    cfg = cfg or FlowConfig()
    return _integrate(_JScheme(params, init, cfg), cfg)


def run_cotangent_flow(
    b,
    p,
    q,
    init: MomentProfile | str,
    cfg: FlowConfig | None = None,
) -> FlowTrace:
    """Integrate the reduced cotangent flow with pinned endpoints.

    d psi/dt = Q(x) ((x^2+psi^2) psi'' + (1+psi'^2)(x psi' - psi))
               / (x psi' + psi)^2

    on [1, b] with psi(1) = q, psi(b) = p.  The prefactor is csc^2(theta)
    over (x^2+psi^2)(1+psi'^2), rewritten through the angle sum.  Stops once
    the steady residual falls below the tolerance, or at t_max.  Classifies
    the run by the trichotomy in sign(q - c0) and measures the plateau as
    the mean of the cell fluxes cot(theta) over the compact.
    """
    cfg = cfg or FlowConfig()
    return _integrate(_CotScheme(b, p, q, init, cfg), cfg)


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
        # the worst value is the first of largest magnitude
        v = np.array(series, dtype=float)
        fails = np.flatnonzero(~ok(v))
        i = int(fails[0]) if fails.size else None
        entries[name] = {
            "passed": i is None,
            "worst": float(v[np.abs(v).argmax()]),
            "first_violation": None if i is None else {"checkpoint": i, "t": cks[i].t},
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
    for decay in ("energy", "volume"):
        if decay in monitors:
            v = getattr(trace, f"{decay}_max_violation")
            entries[f"{decay}_nonincreasing"] = {
                "passed": v is not None and v <= _decay_slack(decay, trace.meta.get("h", 0.0)),
                "worst": v,
                "first_violation": trace.decay_first_violation,
            }
    return MonitorReport(entries=entries)
