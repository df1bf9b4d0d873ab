"""Seeded operation lists for the three workloads and the checks on their outputs.

Each workload is a fixed multiset of operations, built from the seed alone and
cycled in whole passes.  An operation runs one user-level call into slopeflow
and a check compares its output with ``oracles`` or with a property the method
must have.  Operations marked with a ``fault`` reproduce a known defect of the
program on inputs that do not depend on the seed; they fail on every run and
are counted, not hidden.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import oracles
from slopeflow import cli
from slopeflow.bundle_geometry import BundleParams, min_slope_certificate
from slopeflow.flow_engine import FlowConfig, run_cotangent_flow, run_j_flow
from slopeflow.surface_lattice import DivisorClass
from slopeflow.surface_slopes import (
    blowup_plane_model,
    dhym_slope_certificate,
    j_slope_certificate,
)

WORKLOADS = ("flow-limits", "certificates", "cli-energy")

#: implicit time step of every flow solve; the named faults show at 0.02 and
#: 0.05 alike, and the larger step fits several passes into one run
FLOW_DT = 0.05
#: plateau and sup error must lie within FLOW_C * h^2 of the limit
FLOW_C = 2.0
#: relative slack on certificate brackets, a few ulps of the float endpoints
BRACKET_SLACK = 1e-14

FAULT_UNSTABLE_J = "unstable J: implicit branch skips the contact-flux blend"
FAULT_NEAR_BOUNDARY = "near-boundary cotangent (2,3,1/2) dips below the steady limit"

SURFACE_INI = """[surface]
basis = H, -E
form = 1, 0; 0, -1
curves = 0, -1; 1, 1; 1, 0
kahler = 3, 1
"""


@dataclass
class Op:
    """One user-level operation: what it runs and how its output is judged."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None


def _near(rng: random.Random, center, half_width, den: int) -> Fraction:
    """Uniform rational with denominator den within half_width of center."""
    k = int(half_width * den)
    return Fraction(round(Fraction(center) * den) + rng.randint(-k, k), den)


def _draw(rng: random.Random, make, accept, tries: int = 10_000):
    for _ in range(tries):
        inst = make()
        if inst is not None and accept(inst):
            return inst
    raise RuntimeError("instance generator found no admissible draw")


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


# ---------------------------------------------------------------------------
# bundle and surface instance families
#
# Each family jitters a fixed centre by a few small-denominator steps, so the
# seed changes the inputs while the cost of a pass, which grows with the
# size of the fractions and the number of flow steps, stays nearly the same.


def _semistable_b(n: int, m: int, a: Fraction) -> Fraction:
    """The b at which mu_0 = n exactly: n (I_n - I_(n-1)) / ((1+a)^n a^m)."""

    def integral(k: int) -> Fraction:
        return sum(
            Fraction(math.comb(k, j), m + j + 1) * a ** (m + j + 1) for j in range(k + 1)
        )

    return n * (integral(n) - integral(n - 1)) / ((1 + a) ** n * a**m)


def _bundle(rng: random.Random, verdict: str, n: int, m: int, a0, b0=None):
    """(n, m, a, b) near (a0, b0) with the requested verdict and a margin from
    semistability; semistable pairs take the exact b for their a."""

    def make():
        a = _near(rng, a0, Fraction(1, 4), 8)
        if verdict == oracles.SEMISTABLE:
            return n, m, a, _semistable_b(n, m, a)
        return n, m, a, _near(rng, b0, Fraction(1, 8), 16)

    def accept(inst):
        _, _, a, b = inst
        mu0 = float(oracles.bundle_slope(n, m, float(a), float(b), 0.0)[0])
        if verdict == oracles.STABLE:
            return mu0 >= 1.05 * n
        if verdict == oracles.UNSTABLE:
            return mu0 <= 0.95 * n
        return True

    return _draw(rng, make, accept)


def _cot_pair(rng: random.Random, verdict: str, b0, p0, q0):
    """(b, p, q) near (b0, p0, q0) for the blow-up dHYM pair, away from the
    trichotomy boundary xi = bp - sqrt((p^2+1)(b^2-1)) = q: stable pairs by at
    least 1/4, unstable ones by at least 0.4, since unstable cotangent flows
    within about 0.3 of it show the near-boundary fault (see CHANGES.md).

    Semistable pairs need that square root rational: with D = p^2 + 1,
    b = (Dk^2+1)/(Dk^2-1) gives (p^2+1)(b^2-1) = (2Dk/(Dk^2-1))^2.  For them
    q0 is the centre of k instead.
    """

    def make():
        p = _near(rng, p0, Fraction(1, 4), 8)
        if verdict == oracles.SEMISTABLE:
            d = p * p + 1
            k = _near(rng, q0, Fraction(1, 16), 32)
            b = (d * k * k + 1) / (d * k * k - 1)
            return b, p, b * p - 2 * d * k / (d * k * k - 1)
        return _near(rng, b0, Fraction(1, 8), 8), p, _near(rng, q0, Fraction(1, 4), 8)

    def accept(inst):
        b, p, q = inst
        if b * p <= q or b <= 1:
            return False
        c0 = (p * p - q * q - b * b + 1) / (2 * (b * p - q))
        # the other two curves must stay positive on alpha - c0 beta
        if p - c0 * b <= 0 or p - q - c0 * (b - 1) <= 0:
            return False
        if verdict == oracles.SEMISTABLE:
            return q == c0
        gap = float(q) - oracles.cot_limit(b, p, q)
        return gap >= 0.25 if verdict == oracles.STABLE else gap <= -0.4

    return _draw(rng, make, accept)


def _j_pair(rng: random.Random, verdict: str, p0, q0, b0=None):
    """(p, q, b) near (p0, q0, b0) for alpha = pH - qE, beta = bH - E with the
    requested J verdict; semistable pairs take b = (p^2+q^2)/(2pq)."""

    def make():
        p = _near(rng, p0, Fraction(1, 4), 8)
        q = _near(rng, q0, Fraction(1, 8), 16)
        if verdict == oracles.SEMISTABLE:
            return p, q, (p * p + q * q) / (2 * p * q)
        return p, q, _near(rng, b0, Fraction(1, 4), 8)

    def accept(inst):
        p, q, b = inst
        if not 0 < q < p or b <= 1 or oracles.j_surface_verdict(p, q, b) != verdict:
            return False
        try:
            oracles.j_surface_limit(p, q, b)
        except ValueError:
            return False
        return True

    return _draw(rng, make, accept)


# ---------------------------------------------------------------------------
# flow-limits


def _check_flow(expected: Callable[[], float], h: float) -> Callable[[object], str | None]:
    tol = FLOW_C * h * h
    expected = functools.cache(expected)

    def check(tr) -> str | None:
        limit = expected()
        problems = []
        if not tr.converged:
            problems.append(f"not converged by t={tr.times[-1]:.4g}")
        failed = [k for k, v in tr.monitor_report.entries.items() if not v["passed"]]
        if failed:
            problems.append(f"monitors failed: {', '.join(failed)}")
        if not _within(tr.terminal_constant, limit, tol):
            problems.append(f"plateau {tr.terminal_constant:.9g} vs limit {limit:.9g} (tol {tol:.2g})")
        if not tr.sup_error_on_compact <= tol:
            problems.append(f"sup error {tr.sup_error_on_compact:.3g} above {tol:.2g}")
        return "; ".join(problems) or None

    return check


def _j_flow_op(n, m, a, b, grid, fault=None) -> Op:
    params = BundleParams(n=n, m=m, a=a, b=b)
    cfg = FlowConfig(grid_size=grid, dt_policy="implicit", dt=FLOW_DT)
    return Op(
        kind="j-flow",
        label=f"J ({n},{m},{a},{b}) grid {grid}",
        run=lambda: run_j_flow(params, "line", cfg=cfg),
        check=_check_flow(lambda: oracles.bundle_limit(n, m, a, b)[2], float(a) / grid),
        fault=fault,
    )


def _cot_flow_op(b, p, q, grid, fault=None) -> Op:
    cfg = FlowConfig(grid_size=grid, dt_policy="implicit", dt=FLOW_DT)
    return Op(
        kind="cot-flow",
        label=f"cotangent ({b},{p},{q}) grid {grid}",
        run=lambda: run_cotangent_flow(b, p, q, "special", cfg=cfg),
        check=_check_flow(lambda: oracles.cot_limit(b, p, q), float(b - 1) / grid),
        fault=fault,
    )


#: (verdict, centre, grid) of the seeded J solves; semistable J keeps
#: n = 1, m = 0 (see the FOUND lines in CHANGES.md)
J_FLOW_SLOTS = (
    (oracles.STABLE, (1, 0, 1, 2), 128),
    (oracles.STABLE, (2, 0, 1, 3), 256),
    (oracles.STABLE, (1, 1, 2, 2), 512),
    (oracles.SEMISTABLE, (1, 0, Fraction(3, 2), None), 128),
    (oracles.SEMISTABLE, (1, 0, 2, None), 256),
    (oracles.SEMISTABLE, (1, 0, Fraction(5, 2), None), 512),
)
#: (verdict, (b, p, q) centre, grid) of the seeded cotangent solves; a
#: semistable centre gives k in place of q
COT_FLOW_SLOTS = (
    (oracles.STABLE, (2, 3, 1), 128),
    (oracles.STABLE, (2, Fraction(5, 2), 2), 256),
    (oracles.STABLE, (Fraction(5, 2), 3, Fraction(3, 2)), 512),
    (oracles.SEMISTABLE, (None, 1, Fraction(5, 4)), 128),
    (oracles.SEMISTABLE, (None, Fraction(3, 2), 1), 256),
    (oracles.SEMISTABLE, (None, 2, Fraction(3, 4)), 512),
    (oracles.UNSTABLE, (2, 3, 0), 128),
    (oracles.UNSTABLE, (2, Fraction(5, 2), Fraction(-1, 2)), 256),
    (oracles.UNSTABLE, (Fraction(9, 4), 3, Fraction(-1, 4)), 512),
)
#: the unstable J pairs of the first named fault, fixed, with their grids
FAULT_J_FLOWS = (((1, 0, 4, 1), 512), ((1, 0, 3, 1), 256), ((2, 0, 2, 1), 128), ((2, 1, 3, 1), 256))


#: draws per seeded flow slot in one pass; the fixed fault solves run once
FLOW_REPEATS = 2


def flow_limits(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(FLOW_REPEATS):
        for verdict, (n, m, a0, b0), grid in J_FLOW_SLOTS:
            ops.append(_j_flow_op(*_bundle(rng, verdict, n, m, a0, b0), grid))
        for verdict, centre, grid in COT_FLOW_SLOTS:
            ops.append(_cot_flow_op(*_cot_pair(rng, verdict, *centre), grid))
    for (n, m, a, b), grid in FAULT_J_FLOWS:
        ops.append(_j_flow_op(n, m, Fraction(a), Fraction(b), grid, fault=FAULT_UNSTABLE_J))
    ops.append(_cot_flow_op(Fraction(2), Fraction(3), Fraction(1, 2), 256, fault=FAULT_NEAR_BOUNDARY))
    return ops


# ---------------------------------------------------------------------------
# certificates


def _check_bracket(expected: Callable[[], float], verdict: str) -> Callable[[object], str | None]:
    expected = functools.cache(expected)

    def check(cert) -> str | None:
        target = expected()
        lo, hi = cert.bracket
        slack = BRACKET_SLACK * max(1.0, abs(target))
        problems = []
        if not lo - slack <= target <= hi + slack:
            problems.append(f"bracket [{lo!r}, {hi!r}] misses {target!r}")
        if cert.verdict != verdict:
            problems.append(f"verdict {cert.verdict} vs {verdict}")
        return "; ".join(problems) or None

    return check


def _check_bundle_cert(n, m, a, b) -> Callable[[object], str | None]:
    @functools.cache
    def expected():
        return oracles.bundle_limit(n, m, a, b), oracles.min_slope_on_grid(n, m, a, b)

    def check(cert) -> str | None:
        (verdict, lam, zeta), grid_min = expected()
        problems = []
        if cert.verdict != verdict:
            problems.append(f"verdict {cert.verdict} vs {verdict}")
        if not _within(cert.zeta_inv, zeta, 1e-9 * zeta):
            problems.append(f"zeta {cert.zeta_inv!r} vs root {zeta!r}")
        # the grid minimum overshoots the true minimum by O(spacing^2) only
        if not (cert.zeta_inv <= grid_min * (1 + 1e-12) and grid_min - cert.zeta_inv <= 1e-6 * zeta):
            problems.append(f"zeta {cert.zeta_inv!r} vs grid minimum {grid_min!r}")
        if lam is not None and not _within(cert.lam, lam, 1e-9 * max(1.0, lam)):
            problems.append(f"lambda {cert.lam!r} vs root {lam!r}")
        return "; ".join(problems) or None

    return check


#: (verdict, (p, q, b) centre) of the J certificates, alpha = pH - qE, beta = bH - E
J_CERT_SLOTS = (
    (oracles.STABLE, (3, Fraction(3, 2), 2)),
    (oracles.STABLE, (Fraction(5, 2), 1, Fraction(3, 2))),
    (oracles.SEMISTABLE, (3, 1, None)),
    (oracles.UNSTABLE, (3, Fraction(1, 2), 2)),
    (oracles.UNSTABLE, (Fraction(5, 2), Fraction(1, 4), Fraction(3, 2))),
)
#: (verdict, (b, p, q) centre) of the dHYM certificates, as in COT_FLOW_SLOTS
DHYM_CERT_SLOTS = (
    (oracles.STABLE, (2, 3, Fraction(3, 2))),
    (oracles.STABLE, (Fraction(3, 2), Fraction(5, 2), 2)),
    (oracles.SEMISTABLE, (None, 1, Fraction(5, 4))),
    (oracles.UNSTABLE, (2, 3, Fraction(-1, 2))),
    (oracles.UNSTABLE, (Fraction(3, 2), Fraction(5, 2), 0)),
)
#: (verdict, (n, m, a, b) centre) of the bundle certificates, n <= 4, m <= 3
BUNDLE_CERT_SLOTS = (
    (oracles.STABLE, (1, 0, 2, 3)),
    (oracles.STABLE, (2, 1, 2, 3)),
    (oracles.STABLE, (3, 2, 2, 3)),
    (oracles.STABLE, (4, 3, 2, 3)),
    (oracles.SEMISTABLE, (2, 2, 2, None)),
    (oracles.SEMISTABLE, (3, 0, 2, None)),
    (oracles.UNSTABLE, (1, 1, 2, Fraction(1, 4))),
    (oracles.UNSTABLE, (2, 0, 2, Fraction(1, 4))),
    (oracles.UNSTABLE, (3, 3, 2, Fraction(1, 4))),
    (oracles.UNSTABLE, (4, 2, 2, Fraction(1, 4))),
)
#: draws per slot in one pass
CERT_REPEATS = 8


def certificates(rng: random.Random) -> list[Op]:
    model = blowup_plane_model()
    ops = []
    for _ in range(CERT_REPEATS):
        for verdict, centre in J_CERT_SLOTS:
            p, q, b = _j_pair(rng, verdict, *centre)
            alpha, beta = DivisorClass.of(p, q), DivisorClass.of(b, 1)
            ops.append(Op(
                kind="j-cert",
                label=f"J alpha=({p},{q}) beta=({b},1)",
                run=lambda alpha=alpha, beta=beta: j_slope_certificate(alpha, beta, model),
                check=_check_bracket(lambda p=p, q=q, b=b: oracles.j_surface_limit(p, q, b), verdict),
            ))
        for verdict, centre in DHYM_CERT_SLOTS:
            b, p, q = _cot_pair(rng, verdict, *centre)
            alpha, beta = DivisorClass.of(p, q), DivisorClass.of(b, 1)
            ops.append(Op(
                kind="dhym-cert",
                label=f"dHYM alpha=({p},{q}) beta=({b},1)",
                run=lambda alpha=alpha, beta=beta: dhym_slope_certificate(alpha, beta, model),
                check=_check_bracket(lambda b=b, p=p, q=q: oracles.cot_limit(b, p, q), verdict),
            ))
        for verdict, centre in BUNDLE_CERT_SLOTS:
            n, m, a, b = _bundle(rng, verdict, *centre)
            params = BundleParams(n=n, m=m, a=a, b=b)
            ops.append(Op(
                kind="bundle-cert",
                label=f"bundle ({n},{m},{a},{b})",
                run=lambda params=params: min_slope_certificate(params),
                check=_check_bundle_cert(n, m, a, b),
            ))
    return ops


# ---------------------------------------------------------------------------
# cli-energy


@dataclass
class CliResult:
    code: int
    payload: dict | None
    stderr: str


def _call_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    return CliResult(code, json.loads(text) if text.strip() else None, err.getvalue())


def _cli_op(kind: str, argv: list[str], judge: Callable[[dict], str | None], label: str | None = None) -> Op:
    def check(res: CliResult) -> str | None:
        if res.code != 0 or res.payload is None:
            return f"exit {res.code}: {res.stderr.strip()[:200]}"
        return judge(res.payload)

    return Op(kind=f"cli {kind}", label=label or " ".join(argv), run=lambda: _call_cli(argv), check=check)


def _params_arg(n, m, a, b) -> str:
    return f"{m},{n},{a},{b}"


def _judge_infimum(expected: Callable[[], float]) -> Callable[[dict], str | None]:
    expected = functools.cache(expected)

    def judge(rep):
        target = expected()
        ok = _within(rep["value"], target, 1e-9 * target)
        return None if ok else f"infimum {rep['value']!r} vs {target!r}"

    return judge


def _judge_futaki(expected: Callable[[], float]) -> Callable[[dict], str | None]:
    expected = functools.cache(expected)

    def judge(rep):
        deviation = expected()
        problems = []
        if not _within(rep["normalized"], deviation, 0.01 * deviation):
            problems.append(f"-fut/norm {rep['normalized']!r} vs L2 deviation {deviation!r}")
        if not _within(rep["l2_slope_deviation"], deviation, 1e-6 * deviation):
            problems.append(f"reported deviation {rep['l2_slope_deviation']!r} vs {deviation!r}")
        return "; ".join(problems) or None

    return judge


def _judge_minimizing(expected: Callable[[], float]) -> Callable[[dict], str | None]:
    expected = functools.cache(expected)

    def judge(rep):
        target = expected()
        errs = [row["rel_error"] for row in rep["sequence"]]
        problems = []
        if not _within(rep["reference"], target, 1e-9 * target):
            problems.append(f"reference {rep['reference']!r} vs {target!r}")
        if any(e2 >= e1 for e1, e2 in zip(errs, errs[1:])):
            problems.append(f"relative errors do not decrease: {errs}")
        if not errs or errs[-1] >= 0.01:
            problems.append(f"last relative error {errs[-1] if errs else None} not below 1%")
        return "; ".join(problems) or None

    return judge


def _judge_volume(b, p, q) -> Callable[[dict], str | None]:
    @functools.cache
    def expected():
        return oracles.dhym_volume_bound(b, p, q), oracles.dhym_volume_split(b, p, q)

    def judge(rep):
        bound, (interior, bubble) = expected()
        problems = []
        if rep["value"] < bound * (1 - 1e-12):
            problems.append(f"volume {rep['value']!r} below the bound {bound!r}")
        split = rep["split"]
        for key, want in (("interior", interior), ("bubble", bubble)):
            if not _within(split[key], want, 1e-9 * max(1.0, abs(want))):
                problems.append(f"split {key} {split[key]!r} vs {want!r}")
        return "; ".join(problems) or None

    return judge


def _judge_certificate(expected: Callable[[], float], verdict: str) -> Callable[[dict], str | None]:
    """The certificate check, on the JSON a slope command prints."""
    check = _check_bracket(expected, verdict)
    return lambda rep: check(SimpleNamespace(bracket=rep["bracket"], verdict=rep["verdict"]))


def _judge_bundle(n, m, a, b) -> Callable[[dict], str | None]:
    """The bundle certificate check, on the JSON `bundle slopes` prints."""
    check = _check_bundle_cert(n, m, a, b)
    return lambda rep: check(SimpleNamespace(verdict=rep["verdict"], zeta_inv=rep["zeta_inv"], lam=rep["lambda"]))


def _judge_verify(rep) -> str | None:
    return "; ".join(f"check failed: {c['name']} ({c['detail']})" for c in rep["checks"] if not c["passed"]) or None


#: times the cli-energy operation list is drawn in one pass
CLI_REPEATS = 6
#: (verdict, (n, m, a, b) centre) of `energy infimum` and `bundle slopes`; the
#: unstable ones, each one exact puncture bisection, are a third of the list
#: so that the median operation falls among them and not on the edge between
#: the millisecond commands and the 100 ms ones
INFIMUM_SLOTS = (
    (oracles.STABLE, (1, 0, 1, 2)),
    (oracles.UNSTABLE, (2, 0, 2, Fraction(1, 2))),
    (oracles.UNSTABLE, (1, 1, 2, Fraction(1, 4))),
)
BUNDLE_SLOTS = (
    (oracles.STABLE, (3, 2, 2, 3)),
    (oracles.UNSTABLE, (2, 1, 2, Fraction(1, 4))),
    (oracles.UNSTABLE, (3, 0, 2, Fraction(1, 4))),
    (oracles.UNSTABLE, (1, 2, 2, Fraction(1, 4))),
)


def cli_energy(rng: random.Random, workdir: str) -> list[Op]:
    surface = os.path.join(workdir, "blowup.ini")
    with open(surface, "w", encoding="utf-8") as fh:
        fh.write(SURFACE_INI)
    ops = []
    for rep in range(CLI_REPEATS):
        for centre in ((1, 0, 4, 1), (2, 1, 3, 1)):
            n, m, a, b = _bundle(rng, oracles.UNSTABLE, *centre)
            ops.append(_cli_op(
                "energy futaki",
                ["energy", "futaki", "--params", _params_arg(n, m, a, b), "--breakpoints", "256"],
                _judge_futaki(lambda n=n, m=m, a=a, b=b: oracles.l2_slope_deviation(n, m, a, b)),
            ))
        # m >= 1 and n = 1 are left out: see the FOUND lines in CHANGES.md
        n, m, a, b = _bundle(rng, oracles.UNSTABLE, 2, 0, 3, 1)
        ops.append(_cli_op(
            "energy minimizing-seq",
            ["energy", "minimizing-seq", "--params", _params_arg(n, m, a, b)],
            _judge_minimizing(lambda n=n, m=m, a=a, b=b: oracles.energy_infimum(n, m, a, b)),
        ))
        ops.append(_cli_op(
            "energy infimum",
            ["energy", "infimum", "--params", "0,1,4,1"],
            _judge_infimum(oracles.energy_infimum_1041),
        ))
        for verdict, centre in INFIMUM_SLOTS:
            n, m, a, b = _bundle(rng, verdict, *centre)
            ops.append(_cli_op(
                "energy infimum",
                ["energy", "infimum", "--params", _params_arg(n, m, a, b)],
                _judge_infimum(lambda n=n, m=m, a=a, b=b: oracles.energy_infimum(n, m, a, b)),
            ))
        # the steady profile of an unstable pair starts at xi > q, outside the
        # class the bound holds on, so that pair is measured on the special profile
        for verdict, centre, profile in (
            (oracles.UNSTABLE, (2, 3, 0), "special"),
            (oracles.STABLE, (2, 3, Fraction(3, 2)), "steady"),
        ):
            b, p, q = _cot_pair(rng, verdict, *centre)
            ops.append(_cli_op(
                "energy dhym-volume",
                ["energy", "dhym-volume", "--bpq", f"{b},{p},{q}", "--profile", profile],
                _judge_volume(b, p, q),
            ))
        for verdict, centre in BUNDLE_SLOTS:
            n, m, a, b = _bundle(rng, verdict, *centre)
            ops.append(_cli_op(
                "bundle slopes",
                ["bundle", "slopes", "--params", _params_arg(n, m, a, b)],
                _judge_bundle(n, m, a, b),
            ))
        for verdict, centre in ((oracles.UNSTABLE, (2, 3, Fraction(-1, 2))), (oracles.STABLE, (Fraction(3, 2), Fraction(5, 2), 2))):
            b, p, q = _cot_pair(rng, verdict, *centre)
            ops.append(_cli_op(
                "slope dhym",
                ["slope", "dhym", "--surface", surface, "--alpha", f"{p},{q}", "--beta", f"{b},1"],
                _judge_certificate(lambda b=b, p=p, q=q: oracles.cot_limit(b, p, q), verdict),
            ))
        p, q, b = _j_pair(rng, oracles.UNSTABLE, 3, Fraction(1, 2), 2)
        config = os.path.join(workdir, f"slope_j_{rep}.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(
                "command = slope j\n[geometry]\n"
                f"surface = {surface}\nalpha = {p},{q}\nbeta = {b},1\n"
            )
        ops.append(_cli_op(
            "run",
            ["run", "--config", config],
            _judge_certificate(lambda p=p, q=q, b=b: oracles.j_surface_limit(p, q, b), oracles.UNSTABLE),
            label=f"run --config (slope j --alpha {p},{q} --beta {b},1)",
        ))
        ops.append(_cli_op("verify", ["verify", "identities", "--max-mn", "2", "--max-sq", "6"], _judge_verify))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """The seeded operation list of one pass of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flow-limits":
        return flow_limits(rng)
    if workload == "certificates":
        return certificates(rng)
    if workload == "cli-energy":
        return cli_energy(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
