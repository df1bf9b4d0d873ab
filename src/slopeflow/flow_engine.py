"""Finite-difference integration of the reduced parabolic flows.

Both flows evolve a pinned momentum profile on a uniform grid in the
conservative form psi_t = Q (c[i+1/2] - c[i-1/2]) / h.  One integrator,
`_integrate`, owns the time loop, checkpoints, residual stop, runtime
monitors and backward-Euler step.  A small scheme per equation supplies the
half-node flux c (the pointwise slope for the J flow, cot(theta) for the
cotangent flow), defined only on admissible profiles, and, apart, its node
sensitivities, Q at the interior nodes, the checkpoint fields, and the
reference profile with its plateau window.

Every step is backward Euler in delta form, (I - dt Q dc) delta = dt rate,
with each half flux linearized at the profile the step starts from and Q
lagged: one tridiagonal solve by LAPACK gtsv, called directly, of the system
negated, -(I - dt Q dc) delta = -dt rate, whose off-diagonals are dt Q times
the sensitivities as they are.  gtsv's pivot choices and arithmetic are
symmetric under negation, so delta is the same bit for bit.  The first
such solve loads scipy's compiled LAPACK wrapper by its file path, without
the `scipy.linalg` package.  The sensitivities dc are evaluated once per
step, from the cells the flux kept; the J flux is the chord flux, linear in
psi, so its sensitivities are fixed.  A run is pseudo-transient continuation: the first step is the
configured dt, and each later step is scaled by the squared fall of the
steady residual since the last (switched evolution relaxation, Mulder &
van Leer 1985, here with the ratio raised to SER_EXPONENT) and kept in
[dt, max(dt, DT_CAP)], except that the last step may be shortened to land
on t_max.  Each step is solved into a candidate profile, whose flux is
evaluated once, right after the solve, for the next step.  A candidate off
the flux's domain, one that breaks admissibility, is rejected: dt is
halved, down to the configured dt, and the step is solved again from the
same rate and sensitivities.  A step that is inadmissible at the
configured dt raises, and so does a run whose kept rows pass ROW_BUDGET
values.  Rejected steps are counted apart and
feed no monitor.  A run stops once the steady residual
sup |Q (c[i+1/2] - c[i-1/2]) / h| falls below the tolerance, or at t_max.
Monitors track
monotonicity and comparison with the singular limit, energy or
calibration-volume decay, and the derivative bounds (J) or the angle range
(cotangent).  Admissibility is enforced rather than monitored, by the flux
alone, the cotangent one without ADMISSIBILITY_TOL's slack: a start off the
flux's domain raises AdmissibilityError, an InputError.  Both schemes build
their start, a profile or the name of one, through `_start`, which checks
its interval and boundary values, pins them and takes h.

Every profile the run reaches is a checkpoint: the initial one and the one
each accepted step gives, so the last is the final profile.  The profiles
are the rows of blocks of max(1, CHUNK_ELEMS // N) rows of N nodes, each
allocated when the one before it fills, with its pinned ends set once: each
step solves its candidate straight into the next free row, and a retry
overwrites a rejected one.  A step's arrays live in buffers made once per
solve, which the step writes with `out=`: the rate and its absolute value,
dt Q, the three diagonals and the right-hand side, whose four the solve
consumes in place, and the entries that change from step to step, J's Q
and the cotangent sensitivities.  The fixed entries, J's sensitivities and
the cotangent Q, are the scheme's own arrays, built once.  A scheme serves
one solve, and keeps buffers of its own for the cotangent cells u and du of
a flux written into a row and the h du of sensitivities written into
buffers.  `flux`, `Q` and `sensitivities` share one contract: given `out`,
they write into it and return it, with the bytes of the call without it;
without it, they return arrays that no later call writes.  Each profile's
cell fluxes c, the ones the step computes anyway, go into the row of one
reusable block of flux rows, as many as a block of profiles holds.  Per
checkpoint the loop records t and the rate's sup, max and min (the
residual's for the initial profile, delta / step for every later one).  Each block is closed once,
when it fills and, for the last, after the loop: it turns read-only, the
last trimmed to its rows by a view, and its columns are computed with one
numpy call each along its rows, which bounds the kernels' temporaries:
- the plateau and spread (mean and max - min) of the flux rows over the
  cells with both end nodes in the window.  The first cell, where the
  cotangent flux may take the wall's jump flux, is never among them.
- the scheme's fields: the distance to the reference profile, the decaying
  functional (the J energy, one `np.vecdot` of the rows, or the calibration
  volume from `dhym_volume`'s quadrature on a geometry built once per
  solve), and the forward-difference and derivative bounds (J) or the angle
  range (cotangent, from one angle evaluation); an angle outside (0, pi)
  raises with the t of the first offending checkpoint.
The trace keeps the blocks and one column per Checkpoint field, each
concatenated once from the blocks' columns.  Its step count, terminal
constant and every `monitor_suite` verdict are read off the columns; its
checkpoints and profiles are built from them on first access.
The profiles are views of the read-only rows, on a read-only grid shared
with the reference profile of the solve, a read-only view of the scheme's
pinned reference, and none is validated again.
`FlowTrace.save` writes what the trace holds and nothing recomputed: the
columns as checkpoints.csv, one line per checkpoint, and the rows and grid
as profiles.npy and grid.npy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bundle_geometry import BundleParams, _energy_constant, min_slope_certificate
from .calabi_profiles import (
    ADMISSIBILITY_TOL,
    MomentProfile,
    _angle,
    _slope_field,
    _slope_grid,
    sample_steady_profile_dhym,
    singular_limit_profile_j,
    special_cotangent_profile,
    steady_profile_dhym,
    straight_line_profile,
)
from .errors import AdmissibilityError, InputError, MonitorViolationError, TimeStepError
from .flow_steps import DT_CAP
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
#: values per block of kept rows: max(1, CHUNK_ELEMS // N) rows of N nodes,
#: which also sizes the reusable block of flux rows and bounds the
#: temporaries of the diagnostics taken as each block closes
CHUNK_ELEMS = 8192
#: dt scales by (res_prev / res) ** SER_EXPONENT.  Under backward Euler the
#: slow mode's residual falls by about 1 + dt/5 per step, so the plain ratio
#: takes about 5/dt steps to ramp from the first step to the cap, and its
#: square about half that.  Larger steps early cost transient accuracy: the
#: J flow's error at t = 1 against fine explicit steps is 3.0e-4 at an
#: exponent of 2 and 5.05e-4 at 2.5, past the 5e-4 that tests allow.
SER_EXPONENT = 2
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
    shortened to land on t_max.  Each step linearizes the flux at the
    profile it starts from.
    An initial profile that breaks admissibility raises AdmissibilityError.
    A step whose profile breaks it is rejected and retried at half the
    step, down to `dt`; at `dt` it raises MonitorViolationError.
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
    step.  `columns` holds one float array per Checkpoint field the run fills,
    one value per checkpoint in order; the "t" column gives the `times` the
    run reached.  `blocks` are read-only arrays whose rows, in order, are the
    profiles' values.  `checkpoints` and `profiles` are built from the two on
    first access and cached: the profiles are views of the rows, all on one
    read-only grid shared with the reference profile, whose values are
    read-only too, and the last of them is `terminal_profile`; `steps` and `terminal_constant`, the final plateau,
    are read off the columns.  `save` writes the columns, the rows and the
    grid as checkpoints.csv, profiles.npy and grid.npy.  The decay monitor's
    entry in `monitor_report` gives the largest rise of the J energy or
    calibration volume as `worst`, and where it first rose above its slack as
    `first_violation`.
    `meta` carries the scheme's parameters, the grid step `h`, the monitors
    run, `dt`, the first step, `dt_max`, the largest step taken (0 for a run
    that took none), `rejected`, the number of steps rejected for breaking
    admissibility and retried at half the step (`steps` counts only accepted
    ones), and `residual`, the steady residual sup |d psi/dt| of the final
    profile.
    """

    kind: str
    columns: dict[str, np.ndarray]
    blocks: list[np.ndarray]
    terminal_profile: MomentProfile
    reference_constant: float
    reference_profile: MomentProfile | None
    sup_error_on_compact: float | None
    lambda_estimate: float | None
    converged: bool
    monitor_report: MonitorReport | None = None
    meta: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.columns["t"]) - 1

    @property
    def terminal_constant(self) -> float:
        return float(self.columns["plateau"][-1])

    @cached_property
    def times(self) -> list[float]:
        return self.columns["t"].tolist()

    @cached_property
    def checkpoints(self) -> list[Checkpoint]:
        names = list(self.columns)
        return [Checkpoint(**dict(zip(names, vals))) for vals in zip(*(col.tolist() for col in self.columns.values()))]

    @cached_property
    def profiles(self) -> list[MomentProfile]:
        term = self.terminal_profile
        views = [MomentProfile._view(term.grid, row, term.boundary) for block in self.blocks for row in block]
        # the last row is the terminal profile's
        return views[:-1] + [term] if views else []

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
            "t_final": float(self.columns["t"][-1]),
            "monitor_report": None if self.monitor_report is None else self.monitor_report.to_dict(),
            "meta": self.meta,
        }

    def save(self, directory: str) -> None:
        """Write the trace into an existing directory as three files:
        checkpoints.csv, a header of the column names and one line per
        checkpoint with every column in shortest round-trip form;
        profiles.npy, the profile rows as one (steps + 1, N) array; and
        grid.npy, their shared grid."""
        rows = zip(*(col.tolist() for col in self.columns.values()))
        with open(os.path.join(directory, "checkpoints.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        np.save(os.path.join(directory, "profiles.npy"), np.concatenate(self.blocks))
        np.save(os.path.join(directory, "grid.npy"), self.terminal_profile.grid)


def _uniform_spacing(grid: np.ndarray) -> float:
    """The step h0 of a uniform grid: every spacing lies within
    1e-14 + 1e-10 |h0| of the first (the test of np.allclose, in one
    reduction), and NaN fails."""
    h = grid[1:] - grid[:-1]
    h0 = float(h[0])
    if not np.abs(h - h0).max() <= 1e-14 + 1e-10 * abs(h0):
        raise InputError("flow grids must be uniform")
    return h0


def _start(init, starts: dict, num: int, interval: tuple[float, float], boundary: tuple[float, float], left_tol: float):
    """The grid, the pinned values and h of a flow's start: `init`, or the
    start it names, one of `starts` built at num nodes.  The grid must span
    `interval`, its ends within 1e-12 and 1e-9, and the boundary values must
    be `boundary`, the left within left_tol and the right within 1e-9."""
    if isinstance(init, str):
        if init not in starts:
            raise InputError(f"unknown initial profile {init!r}: not one of {', '.join(starts)}")
        init = starts[init](num)
    (x0, x1), (v0, v1) = interval, boundary
    if abs(init.grid[0] - x0) > 1e-12 or abs(init.grid[-1] - x1) > 1e-9:
        raise InputError(f"initial profile must live on [{x0}, {x1}]")
    if abs(init.boundary[0] - v0) > left_tol or abs(init.boundary[1] - v1) > 1e-9:
        raise InputError(f"initial profile must have boundary values ({v0}, {v1})")
    x, psi = init.grid.copy(), init.values.copy()
    psi[0], psi[-1] = boundary
    return x, psi, _uniform_spacing(x)


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


def _new_block(shape: tuple[int, int], boundary: tuple[float, float]) -> np.ndarray:
    """An unfilled block of profile rows, its pinned ends set."""
    block = np.empty(shape)
    block[:, 0], block[:, -1] = boundary
    return block


#: scipy's compiled LAPACK wrapper, the one module of it the solves use
_FLAPACK = "scipy.linalg._flapack"
_gtsv = None


def _load_gtsv():
    """LAPACK dgtsv without the `scipy.linalg` package init, which loads
    hundreds of modules, numpy.f2py among them, for this one routine.

    A `_FLAPACK` already imported serves as it is.  Otherwise its file,
    linalg/_flapack<suffix> beside the installed scipy, is loaded under its
    own name and registered in sys.modules, so that a later
    `import scipy.linalg` reuses that module and the same dgtsv.  On any
    failure dgtsv comes from `scipy.linalg.lapack`."""
    try:
        import scipy  # its subpackages load lazily, so this runs no linalg code

        if _FLAPACK not in sys.modules:
            folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
            for suffix in importlib.machinery.EXTENSION_SUFFIXES:
                path = os.path.join(folder, "_flapack" + suffix)
                if os.path.isfile(path):
                    break
            else:
                raise ImportError(f"no _flapack extension in {folder}")
            loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader))
            loader.exec_module(module)
            sys.modules[_FLAPACK] = module
        return sys.modules[_FLAPACK].dgtsv
    except Exception:
        # the extension is private to scipy: whatever breaks its loading,
        # the public import serves, and raises if scipy itself is broken
        from scipy.linalg.lapack import dgtsv

        return dgtsv


def solve_banded(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system by LAPACK gtsv, in place: the caller must not
    use its four arrays afterwards.  The first call loads dgtsv by
    `_load_gtsv`.  A singular or non-finite matrix, seen in the diagonal of
    its U factor, raises TimeStepError."""
    global _gtsv
    if _gtsv is None:
        _gtsv = _load_gtsv()
    _, u, _, x, info = _gtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info or not math.isfinite(np.add.reduce(u)):
        raise TimeStepError(f"singular or non-finite implicit system (gtsv info {info})")
    return x


class _JScheme:
    """The scheme of `run_j_flow`: Q(psi) = psi (b - psi)/b and the flux
    sigma = psi' + (m/x + n/(1+x)) psi + n/(1+x), the pointwise slope."""

    kind, monitors = "j", J_MONITORS
    admissibility = "J-admissibility"

    def __init__(self, params: BundleParams, init, cfg: FlowConfig):
        a, b = float(params.a), float(params.b)
        starts = {
            "line": lambda num: straight_line_profile(params, num),
            "steady": lambda num: singular_limit_profile_j(params, num),
        }
        self.boundary = (0.0, b)
        self.x, self.psi, self.h = _start(init, starts, cfg.grid_size + 1, (0.0, a), self.boundary, 1e-12)
        x, h = self.x, self.h
        cert = min_slope_certificate(params)
        lam = cert.lam if cert.lam is not None else 0.0
        self.reference_constant = cert.zeta_inv
        n, m = params.n, params.m
        self.m, self.b = m, b
        ref = singular_limit_profile_j(params, x.size, lam=lam)
        self.ref = np.interp(x, ref.grid, ref.values)
        self.window = _window(lam, a)
        # half-node data of the chord flux delta + p mean + g
        xh = 0.5 * (x[1:] + x[:-1])
        self.p_h = n / (1 + xh) + (m / xh if m else 0.0)
        self.g_h = n / (1 + xh)
        self.half_p = self.p_h * 0.5
        # the chord flux is linear, so its implicit-step entries are fixed:
        # dc/dpsi+ = 1/h + p/2 and -dc/dpsi- = 1/h - p/2, over h
        d_h, m_2 = 1.0 / h, self.p_h / 2
        right, left = (d_h + m_2) / h, (d_h - m_2) / h
        self.node_sensitivities = right, left, left[1:] + right[:-1]
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

    def Q(self, pv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Q(psi) = psi (b - psi)/b at the interior nodes, written into out
        when given."""
        y = pv[1:-1]
        q = np.subtract(self.b, y, out=out)
        q *= y
        q /= self.b
        return q

    def flux(self, pv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | None:
        """The chord flux of each cell, along the last axis, linear in psi;
        written into out when given.  None unless `admissible_j` holds, read
        off the differences the flux takes."""
        hi, lo = pv[..., 1:], pv[..., :-1]
        delta = hi - lo
        # NaN fails both tests
        if not (
            np.minimum.reduce(pv, axis=None) >= -ADMISSIBILITY_TOL
            and np.minimum.reduce(delta, axis=None) >= -ADMISSIBILITY_TOL
        ):
            return None
        c = np.add(hi, lo, out=out)
        c *= self.half_p
        delta /= self.h
        c += delta
        c += self.g_h
        return c

    #: the chord flux has no wall flux to leave out
    cell_flux = flux

    def sensitivities(self, pv: np.ndarray, out: tuple[np.ndarray, ...] | None = None):
        """The chord flux's implicit-step entries right, left and mid, as for
        `_CotScheme.sensitivities`: fixed per solve, so they are the same
        arrays at every pv, or copied into the three arrays of out when
        given."""
        if out is None:
            return self.node_sensitivities
        for dst, src in zip(out, self.node_sensitivities):
            np.copyto(dst, src)
        return out

    def block_fields(self, block: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
        """The J-only Checkpoint fields of each row of a block.  The energy
        is the trapezoid of the nodal slope field, on the grid terms built
        once per solve: one `np.vecdot` over the rows, which takes the dot
        product of each row as `np.dot` does."""
        s = _slope_field(block, _gradient(block, self.h), self.m, self.slope_grid)
        s *= s
        diffs = block[:, 1:] - block[:, :-1]
        dmin, dmax = diffs.min(axis=1), diffs.max(axis=1)
        return {
            "energy": np.vecdot(s, self.tw),
            "comparison_gap": (block - self.ref).min(axis=1),
            "min_forward_diff": dmin,
            "max_derivative": np.maximum(dmax, -dmin) / self.h,
        }


class _CotScheme:
    """The scheme of `run_cotangent_flow`: Q(x) = (x-1)(b-x)/(b-1) and the
    flux cot(theta) = (psi psi' - x)/(x psi' + psi) of the angle sum theta,
    in each cell the secant (1/2) dw/du, with u = x psi and w = psi^2 - x^2."""

    kind, monitors = "cotangent", COT_MONITORS
    admissibility = "dHYM admissibility"

    def __init__(self, b, p, q, init, cfg: FlowConfig):
        b, p, q = float(b), float(p), float(q)
        cert = one_point_blowup_certificate(b, p, q)
        s_star = max(cert.slope, q)

        def steady(num):  # the steady profile at s_star, pinned to q at the wall
            prof = sample_steady_profile_dhym(b, p, s_star, num)
            return MomentProfile(prof.grid, np.r_[q, prof.values[1:]], (q, p))

        starts = {"special": lambda num: special_cotangent_profile(b, p, q, num), "steady": steady}
        self.boundary = (q, p)
        self.x, self.psi, self.h = _start(init, starts, cfg.grid_size + 1, (1.0, b), self.boundary, 1e-9)
        x = self.x
        self.reference_constant = cert.slope
        self.x1 = float(x[1])
        # sqrt(x1^2 - 1), the fixed factor of d c_jump / d psi1
        self.root1 = math.sqrt(self.x1 * self.x1 - 1.0)
        self.x_hi, self.x_lo = x[1:], x[:-1]
        # the cells u and du of a flux written into a row, and h du of the
        # sensitivities written into buffers: made once per solve
        self.u, self.du, self.hdu = np.empty(x.size), np.empty(x.size - 1), np.empty(x.size - 1)
        xi = x[1:-1]
        self.Qx = (xi - 1.0) * (b - xi) / (b - 1.0)
        self.ref = np.asarray(steady_profile_dhym(b, p, s_star, x), dtype=float)
        self.ref[0], self.ref[-1] = s_star, p
        self.window = _window(1.0, b)
        self.x2 = x * x
        from .energy_functionals import _volume_geometry  # keeps it out of the CLI's import

        self.volume_geometry = _volume_geometry(x)
        self.meta = {"bpq": [b, p, q], "verdict": cert.verdict, "c0": cert.topological_slope, "h": self.h}

    def Q(self, pv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Q(x) = (x-1)(b-x)/(b-1) at the interior nodes: fixed per solve, so
        the same array at every pv, or copied into out when given."""
        if out is None:
            return self.Qx
        np.copyto(out, self.Qx)
        return out

    def _jump(self, pv: np.ndarray) -> float | None:
        """The constant-angle jump flux of the first half node when it
        exceeds the pinned wall value, else None."""
        x1, psi1 = self.x1, float(pv[1])
        c_jump = x1 * psi1 - math.sqrt((x1 * x1 - 1.0) * (psi1 * psi1 + 1.0))
        return c_jump if c_jump > pv[0] else None

    def flux(self, pv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | None:
        """cot(theta) at half nodes of one profile, written into out when
        given; None unless du > 0 at every cell.

        The secant c = (1/2) dw/du, u = x psi and w = psi^2 - x^2, is in
        real arithmetic the mean-value flux (mean delta - x)/(x delta + mean)
        at the half node.  dc/dpsi+ = (psi+ - c x+)/du and
        dc/dpsi- = -(psi- - c x-)/du, so a cell is monotone while c <= psi/x
        at both of its nodes, its angle arccot c at least the base angle
        arccot(psi/x).  Where every cell is monotone, the flux-difference
        update is a monotone scheme and keeps admissibility and the
        comparison principle at the discrete level; a steep cell with
        c > psi/x at a node can break them, as on short unstable intervals
        during the transient.

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

        `sensitivities` reuses the cells and the jump flux kept here.
        """
        c = self.cell_flux(pv, out)
        if c is None:
            return None
        self.c_jump = self._jump(pv)
        if self.c_jump is not None:
            c[0] = self.c_jump
        return c

    def cell_flux(self, pv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray | None:
        """The secant flux of each cell along the last axis, written into out
        when given, which the first cell of `flux` may trade for the jump
        flux; None unless every du > 0.  It keeps du and c for
        `sensitivities`.  With out, which is then one profile's row, u and
        du go into the scheme's buffers, which the next such call
        overwrites; without it, into new arrays."""
        u, du = (None, None) if out is None else (self.u, self.du)
        u = np.multiply(self.x, pv, out=u)
        du = np.subtract(u[..., 1:], u[..., :-1], out=du)
        # NaN fails the test
        if not np.minimum.reduce(du, axis=None) > 0:
            return None
        w = np.multiply(pv, pv, out=u)
        w -= self.x2
        c = np.subtract(w[..., 1:], w[..., :-1], out=out)
        c /= du
        c *= 0.5
        self.cells = du, c
        return c

    def sensitivities(self, pv: np.ndarray, out: tuple[np.ndarray, ...] | None = None):
        """The implicit step's entries at pv, the profile `flux` last
        evaluated, from the cells and jump flux it kept: right and left,
        each half flux's dc/dpsi+ and -dc/dpsi- over h, (psi+ - c x+)/(h du)
        and (psi- - c x-)/(h du), and mid, their sum left[1:] + right[:-1]
        at each interior node.  They are written into the three arrays of
        out when given, and h du then into the scheme's buffer."""
        du, c = self.cells
        right, left, mid = (None, None, None) if out is None else out
        hdu = np.multiply(du, self.h, out=None if out is None else self.hdu)
        right = np.multiply(c, self.x_hi, out=right)
        np.subtract(pv[1:], right, out=right)
        right /= hdu
        left = np.multiply(c, self.x_lo, out=left)
        np.subtract(pv[:-1], left, out=left)
        left /= hdu
        if self.c_jump is not None:
            # the jump flux depends on psi1 alone; left[0] belongs to the
            # pinned wall node, which is never an unknown
            psi1 = float(pv[1])
            right[0] = (self.x1 - self.root1 * psi1 / math.sqrt(psi1 * psi1 + 1.0)) / self.h
        return right, left, np.add(left[1:], right[:-1], out=mid)

    def block_fields(self, block: np.ndarray, times: np.ndarray) -> dict[str, np.ndarray]:
        """The cotangent-only Checkpoint fields of each row of a block: the
        calibration volume, `dhym_volume`'s value on the quadrature geometry
        built once per solve, and the rest from one angle evaluation; a row
        whose angle leaves (0, pi) raises with its time."""
        from .energy_functionals import _volume_values

        theta = _angle(self.x, block, _gradient(block, self.h))
        tmin, tmax = theta.min(axis=1), theta.max(axis=1)
        out = (tmin <= 0) | (tmax >= math.pi)
        if out.any():
            raise MonitorViolationError(f"angle left (0, pi) at t={times[int(out.argmax())]:.6g}")
        return {
            "volume": _volume_values(block, self.volume_geometry),
            "comparison_gap": (self.ref - block).min(axis=1),
            "theta_min": tmin,
            "theta_max": tmax,
        }


def _integrate(scheme, cfg: FlowConfig) -> FlowTrace:
    """Step a scheme from its initial profile until convergence or t_max.

    Stops once the steady residual sup |d psi/dt| at the current profile is
    below the tolerance, or at t_max, which the last step never passes.
    The initial profile's flux is the start's admissibility test: None
    raises AdmissibilityError.  Each step takes the sensitivities at the
    profile it starts from and is solved into the next free row of the kept
    blocks, its flux into the matching flux row; a candidate whose flux is
    None is retried there at half the step, and raises once the step is
    down to cfg.dt.  A step writes its arrays into buffers made once per
    solve, and the solve consumes its four.  Each profile's fluxes fill a
    row of one reusable block of flux rows.  The loop records t and the
    rate's extrema per checkpoint, and raises once its rows would pass
    ROW_BUDGET values.  `close` ends each block of profiles once, when it
    fills and after the loop: read-only, trimmed, and its columns, the
    plateau and spread of its flux rows and the scheme's fields of its rows.
    """
    x, h = scheme.x, scheme.h
    # one read-only grid for every profile the trace keeps
    grid = x.copy()
    grid.flags.writeable = False
    # the plateau's cells: both end nodes in the window [lo, hi] of the sorted
    # grid, and at least one; lo lies past x[0], so the first cell, the one
    # the cotangent jump flux may take, is never among them
    lo, hi = scheme.window
    first = min(int(np.searchsorted(x, lo)), x.size - 2)
    cells = slice(first, max(first + 1, int(np.searchsorted(x, hi, side="right")) - 1))
    # stable limits are smooth: no monotone approach, no barrier to compare with
    stable = scheme.meta["verdict"] == STABLE
    monitors = [mn for mn in scheme.monitors if not (stable and mn in ("monotone", "comparison"))]
    dt0, t_max, tol = cfg.dt, cfg.t_max, cfg.convergence_tol
    dt, t, rejected = dt0, 0.0, 0
    dt_max, res_prev = 0.0, None
    max_rows = ROW_BUDGET // x.size
    size = max(1, CHUNK_ELEMS // x.size)
    blocks = [_new_block((size, x.size), scheme.boundary)]
    # psi is row k of the last block, and its cell fluxes row k of `fluxes`
    psi, k = blocks[0][0], 0
    psi[:] = scheme.psi
    # per checkpoint: t and the rate's sup, max and min; per closed block,
    # its columns of the plateau, the spread and the scheme's fields
    records, parts = [], []
    # per-solve buffers, which every step writes in place
    fluxes = np.empty((size, x.size - 1))
    rate, abs_rate, dtQ, diag, rhs = (np.empty(x.size - 2) for _ in range(5))
    sub, sup = np.empty(x.size - 3), np.empty(x.size - 3)
    dtQ_hi, dtQ_lo = dtQ[1:], dtQ[:-1]
    # the entries that change from step to step, J's Q and the cotangent
    # sensitivities, go into buffers; the fixed ones, J's sensitivities and
    # the cotangent Q, are the scheme's own arrays
    j = scheme.kind == "j"
    q_out = np.empty(x.size - 2) if j else None
    entries_out = None if j else (np.empty(x.size - 1), np.empty(x.size - 1), np.empty(x.size - 2))
    flux, Q, sensitivities, solve = scheme.flux, scheme.Q, scheme.sensitivities, solve_banded
    max_of, min_of, isfinite = np.maximum.reduce, np.minimum.reduce, math.isfinite

    def close(rows: int) -> None:
        # read-only before the trim, so that every view of a row inherits it
        blocks[-1].flags.writeable = False
        block = blocks[-1] = blocks[-1][:rows]
        window = fluxes[:rows, cells]
        part = {"plateau": window.sum(axis=1) / window.shape[1], "plateau_spread": window.max(axis=1) - window.min(axis=1)}
        parts.append(part | scheme.block_fields(block, [rec[0] for rec in records[-rows:]]))

    # the one admissibility test of the start: its flux
    c = flux(psi, out=fluxes[k])
    if c is None:
        raise AdmissibilityError(f"the initial profile breaks {scheme.admissibility}")
    while True:
        # the steady residual: sup |d psi/dt| at the current profile
        Qv = Q(psi, out=q_out)
        np.subtract(c[1:], c[:-1], out=rate)
        rate *= Qv
        rate /= h
        res = float(max_of(np.abs(rate, out=abs_rate)))
        converged = res < tol
        if not records:
            # the initial profile records the residual's extrema, every later
            # one those of the step that reached it
            rmax, rmin = float(max_of(rate)), float(min_of(rate))
        records.append((t, max(rmax, -rmin), rmax, rmin))
        if converged or t >= t_max:
            break
        if len(records) > max_rows:
            raise TimeStepError(
                f"{len(records)} kept profiles of {x.size} values pass the budget of {ROW_BUDGET}"
                f" at t={t:.6g} after {len(records) - 1} steps; the first step dt is too small or the grid too fine"
            )
        if res_prev is not None:
            # switched evolution relaxation: dt grows by the squared fall of the residual
            dt = max(dt0, min(dt * (res_prev / res) ** SER_EXPONENT, DT_CAP))
        res_prev = res
        # before a candidate's flux replaces the cells they read; a retry
        # reuses them
        right, left, mid = sensitivities(psi, out=entries_out)
        right_in, left_in = right[1:-1], left[1:-1]
        k += 1
        if k == size:
            close(size)
            blocks.append(_new_block((size, x.size), scheme.boundary))
            k = 0
        cand = blocks[-1][k]
        while True:
            last = t + dt >= t_max
            step = t_max - t if last else dt
            # (I - dt Q dc) delta = dt rate, each half flux linearized, solved
            # negated: -(I - dt Q dc) delta = -dt rate has the same delta bit
            # for bit and takes the entries in their own sign.  The solve
            # consumes its four buffers, so a retry fills them again
            np.multiply(Qv, step, out=dtQ)
            np.multiply(dtQ_hi, left_in, out=sub)
            np.multiply(dtQ, mid, out=diag)
            np.subtract(-1.0, diag, out=diag)
            np.multiply(dtQ_lo, right_in, out=sup)
            delta = solve(sub, diag, sup, np.multiply(rate, -step, out=rhs))
            # NaN propagates into both extrema, and an inf reaches one
            dmax, dmin = float(max_of(delta)), float(min_of(delta))
            if not (isfinite(dmax) and isfinite(dmin)):
                raise TimeStepError(f"non-finite update at t={t + step:.6g}; time step too large")
            np.add(psi[1:-1], delta, out=cand[1:-1])
            # the next step's flux, or None off the flux's domain
            c = flux(cand, out=fluxes[k])
            if c is not None:
                break
            if step <= dt0:
                raise MonitorViolationError(f"{scheme.admissibility} lost at t={t + step:.6g}")
            # reject: retry at half the step
            dt = max(dt0, step / 2)
            rejected += 1
        psi = cand
        t = t_max if last else t + step
        dt_max = max(dt_max, step)
        # the step's rate delta / step: rounding keeps the order, so its
        # extrema are those of delta over the step
        rmax, rmin = dmax / step, dmin / step

    close(k + 1)
    cols = dict(zip(("t", "sup_rate", "max_rate", "min_rate"), np.array(records).T))
    cols.update({name: np.concatenate([part[name] for part in parts]) for name in parts[0]})
    # every run ends on a checkpoint of its final profile
    terminal = MomentProfile._view(grid, blocks[-1][-1], scheme.boundary)
    # the scheme's pinned reference, read-only as the grid it lies on
    ref = scheme.ref.view()
    ref.flags.writeable = False
    trace = FlowTrace(
        kind=scheme.kind,
        columns=cols,
        blocks=blocks,
        terminal_profile=terminal,
        reference_constant=scheme.reference_constant,
        reference_profile=MomentProfile._view(grid, ref, (ref[0], ref[-1])),
        sup_error_on_compact=float(np.max(np.abs((terminal.values - scheme.ref)[first:]))),
        lambda_estimate=_lambda_estimate(terminal) if j else None,
        converged=converged,
        meta={
            **scheme.meta,
            "monitors": monitors,
            "dt": cfg.dt,
            "dt_max": dt_max,
            "rejected": rejected,
            "residual": res,
        },
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
    """Evaluate the per-checkpoint monitor verdicts recorded along a trace,
    scanning its columns.

    For the inverse-trace flow: profiles decrease in time and stay above the
    singular limit, forward differences stay positive and bounded, energy
    never increases.  For the cotangent flow: profiles increase in time and
    stay below the steady limit, the angle stays inside (0, pi), and the
    calibration volume never increases.  Reports the first violating
    checkpoint of each monitor and, as `worst`, its most violating value:
    the minimum of a quantity bounded below, the maximum of one bounded
    above.
    """
    cols = trace.columns
    monitors = trace.meta.get("monitors", [])
    j = trace.kind == "j"
    entries: dict[str, dict] = {}

    def scan(name, v, ok, worst):
        # worst is np.min under a lower bound and np.max under an upper one,
        # so it is the most violating value, whether or not any fails, and
        # NaN where one is NaN: only a worst that fails has a first violation
        w = worst(v)
        i = None if ok(w) else int(np.flatnonzero(~ok(v))[0])
        entries[name] = {
            "passed": i is None,
            "worst": float(w),
            "first_violation": None if i is None else {"checkpoint": i, "t": float(cols["t"][i])},
        }

    if "monotone" in monitors:
        if j:
            scan("monotone_decreasing", cols["max_rate"], lambda v: v <= MONO_TOL, np.max)
        else:
            scan("monotone_increasing", cols["min_rate"], lambda v: v >= -MONO_TOL, np.min)
    if "comparison" in monitors:
        name = "above_singular_limit" if j else "below_steady_limit"
        scan(name, cols["comparison_gap"], lambda v: v >= -COMP_TOL, np.min)
    if "derivative" in monitors:
        scan("forward_differences_nonnegative", cols["min_forward_diff"], lambda v: v >= -ADMISSIBILITY_TOL, np.min)
        scan("derivative_bounded", cols["max_derivative"], lambda v: v < 1e6, np.max)
    if "angle" in monitors:
        scan("angle_above_zero", cols["theta_min"], lambda v: v > 0, np.min)
        scan("angle_below_pi", cols["theta_max"], lambda v: v < math.pi, np.max)
    for decay in ("energy", "volume"):
        if decay in monitors:
            # each checkpoint's rise over the one before it, 0 after a fall
            # and at the first, so that the worst is the largest rise
            v = cols[decay]
            slack = _decay_slack(decay, trace.meta.get("h", 0.0))
            scan(f"{decay}_nonincreasing", np.maximum(np.diff(v, prepend=v[0]), 0.0), lambda r: r <= slack, np.max)
    return MonitorReport(entries=entries)
