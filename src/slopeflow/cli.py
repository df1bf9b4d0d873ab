"""Command-line front end: slope certificates, flows, energies, verification.

Subcommands
    slope j | slope dhym      surface slope certificates from a config file
    bundle slopes             bundle verdict, puncture and minimal slope
    flow j | flow cotangent   integrate a reduced flow, write CSV + JSON
    energy infimum | futaki | minimizing-seq | dhym-volume
    verify identities         exact intersection-theory identity sweeps
    run                       drive any of the above from an experiment config

Exit codes: 0 success, 1 input error (a usage error included), 2 solver or
monitor failure.  Floats are printed in Python's shortest round-trip form;
JSON artifacts are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .bundle_geometry import (
    BundleParams,
    blowup_mixed_power,
    blowup_mixed_power_sum,
    blowup_top_power,
    blowup_top_power_sum,
    combinatorial_identity_check,
    min_slope_certificate,
    pairing_number,
    steady_slope,
    steady_slope_chow,
)
from .errors import InputError
from .flow_engine import DT_CAP, FlowConfig, run_cotangent_flow, run_j_flow
from .surface_lattice import DivisorClass, _read_ini, load_surface_model
from .surface_slopes import (
    dhym_slope_certificate,
    j_slope_certificate,
    one_point_blowup_certificate,
)

__all__ = ["ExperimentConfig", "run", "build_parser", "main"]


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


@dataclass
class ExperimentConfig:
    """Parsed description of one experiment: command, geometry, solver, output."""

    command: str
    geometry: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Read a config; a section other than these four, or a key other
        than `command` in [experiment], is an input error."""
        with open(path, "r", encoding="utf-8") as fh:
            sections = _read_ini(fh.read(), "experiment")
        known = ("experiment", "geometry", "solver", "output")
        unknown = [f"section [{name}]" for name in sections if name not in known]
        unknown += [f"key {key!r} in [experiment]" for key in sections["experiment"] if key != "command"]
        if unknown:
            raise InputError(f"experiment config has an unknown {', '.join(unknown)}")
        command = sections["experiment"].get("command")
        if not command:
            raise InputError("experiment config needs a 'command' entry")
        return cls(
            command=command,
            geometry=sections.get("geometry", {}),
            solver=sections.get("solver", {}),
            output=sections.get("output", {}),
        )


def _flow_config(ns) -> FlowConfig:
    flags = ("grid_size", "t_max", "dt", "checkpoint_interval")
    return FlowConfig(**{f: getattr(ns, f) for f in flags if getattr(ns, f, None) is not None})


def _parse_bpq(text: str) -> tuple[Fraction, Fraction, Fraction]:
    """The --bpq triple of rationals; anything else is an input error."""
    try:
        b, p, q = (Fraction(t.strip()) for t in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError("expected b,p,q") from None
    return b, p, q


def _outdir(ns) -> str | None:
    out = getattr(ns, "out", None)
    if out:
        os.makedirs(out, exist_ok=True)
    return out


def _cmd_slope(ns) -> int:
    model = load_surface_model(ns.surface)
    alpha = DivisorClass.parse(ns.alpha)
    beta = DivisorClass.parse(ns.beta)
    if ns.equation == "j":
        cert = j_slope_certificate(alpha, beta, model)
    else:
        cert = dhym_slope_certificate(alpha, beta, model)
    out = _outdir(ns)
    _emit(cert.to_dict(), os.path.join(out, "certificate.json") if out else None)
    return 0


def _cmd_bundle(ns) -> int:
    params = BundleParams.parse(ns.params)
    cert = min_slope_certificate(params)
    out = _outdir(ns)
    _emit(cert.to_dict(), os.path.join(out, "bundle_slopes.json") if out else None)
    return 0


def _cmd_flow(ns) -> int:
    cfg = _flow_config(ns)
    if ns.flow == "j":
        params = BundleParams.parse(ns.params)
        trace = run_j_flow(params, ns.init, cfg=cfg)
    else:
        b, p, q = _parse_bpq(ns.bpq)
        trace = run_cotangent_flow(b, p, q, ns.init, cfg=cfg)
    out = _outdir(ns)
    if out:
        trace.to_csv(os.path.join(out, "trace.csv"))
        trace.save_summary(os.path.join(out, "summary.json"))
    _emit(trace.summary(), None)
    if trace.monitor_report is not None and not trace.monitor_report.passed:
        return 2
    return 0


def _cmd_energy(ns) -> int:
    from .calabi_profiles import sample_steady_profile_dhym, special_cotangent_profile
    from .energy_functionals import (
        dhym_volume,
        dhym_volume_split,
        energy_infimum,
        futaki_invariant,
        l2_slope_deviation,
        minimizing_profile,
        pl_limit_hamiltonian,
    )

    out = _outdir(ns)
    if ns.energy == "infimum":
        params = BundleParams.parse(ns.params)
        rep = energy_infimum(params).to_dict()
        _emit(rep, os.path.join(out, "infimum.json") if out else None)
    elif ns.energy == "futaki":
        params = BundleParams.parse(ns.params)
        cfg = pl_limit_hamiltonian(params, ns.breakpoints)
        rep = futaki_invariant(cfg, params).to_dict()
        rep["l2_slope_deviation"] = l2_slope_deviation(params)
        _emit(rep, os.path.join(out, "futaki.json") if out else None)
    elif ns.energy == "minimizing-seq":
        if ns.k_step < 1 or ns.k < ns.k_min:
            raise InputError("minimizing-seq needs --k-step >= 1 and --k >= --k-min")
        params = BundleParams.parse(ns.params)
        ref = energy_infimum(params).value
        rows = []
        for k in range(ns.k_min, ns.k + 1, ns.k_step):
            _, e = minimizing_profile(params, k)
            rows.append({"k": k, "energy": e, "rel_error": abs(e - ref) / ref, "signed_error": (e - ref) / ref})
        _emit(
            {"schema": 1, "reference": ref, "sequence": rows},
            os.path.join(out, "minimizing_seq.json") if out else None,
        )
    else:  # dhym-volume
        if ns.grid < 2:
            raise InputError("dhym-volume needs --grid >= 2")
        b, p, q = _parse_bpq(ns.bpq)
        if ns.profile == "special":
            prof = special_cotangent_profile(b, p, q, ns.grid + 1)
        else:
            cert = one_point_blowup_certificate(b, p, q)
            prof = sample_steady_profile_dhym(b, p, max(cert.slope, float(q)), ns.grid + 1)
        rep = dhym_volume(prof, b, p, q).to_dict()
        rep["split"] = dhym_volume_split(b, p, q).to_dict()
        _emit(rep, os.path.join(out, "dhym_volume.json") if out else None)
    return 0


def _cmd_verify(ns) -> int:
    report = {"schema": 1, "checks": []}
    ok = True

    def record(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})

    grid = [Fraction(k, 3) for k in range(1, 6)]
    bad = 0
    for m in range(0, ns.max_mn + 1):
        for n in range(1, ns.max_mn + 1):
            for a in grid:
                for b in grid:
                    params = BundleParams(n=n, m=m, a=a, b=b)
                    if steady_slope(params, 0) != steady_slope_chow(params):
                        bad += 1
    record("slope closed form vs ring oracle", bad == 0, f"{bad} mismatches")

    bad = 0
    for n in range(1, 7):
        for r in range(2, 7):
            params = BundleParams(n=n, m=r - 2, a=1, b=1)
            for l in range(0, n + 1):
                if pairing_number(l, params) != math.comb(r + l - 2, l):
                    bad += 1
    record("pairing recursion", bad == 0, f"{bad} mismatches")

    bad = sum(
        0 if combinatorial_identity_check(s, qq) else 1
        for s in range(1, ns.max_sq + 1)
        for qq in range(1, ns.max_sq + 1)
    )
    record("binomial identity", bad == 0, f"{bad} mismatches")

    bad = 0
    for m in range(0, 4):
        for n in range(1, 4):
            params = BundleParams(n=n, m=m, a=2, b=1)
            for s in (Fraction(1, 3), Fraction(1), Fraction(3, 2)):
                if blowup_top_power(params, s) != blowup_top_power_sum(params, s):
                    bad += 1
                if blowup_mixed_power(params, s) != blowup_mixed_power_sum(params, s):
                    bad += 1
    record("blow-up intersection identities", bad == 0, f"{bad} mismatches")

    _emit(report, None)
    return 0 if ok else 2


def run(config: ExperimentConfig) -> int:
    """Dispatch a parsed experiment; returns the process exit status.  A
    config may not run another config, so `run` cannot recurse."""
    argv = config.command.split()
    if argv[:1] == ["run"]:
        raise InputError("an experiment config cannot run another config")
    for section in (config.geometry, config.solver, config.output):
        for key, val in section.items():
            argv += [f"--{key.replace('_', '-')}", str(val)]
    return main(argv)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError (exit 1), not
    SystemExit(2), which would read as a solver failure."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The slopeflow parser, built once: parsing leaves it unchanged, so every
    `main` call, `run --config` included, shares it."""
    ap = _Parser(prog="slopeflow", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sl = sub.add_parser("slope", help="surface slope certificates")
    sl_sub = sl.add_subparsers(dest="equation", required=True)
    for eq in ("j", "dhym"):
        s = sl_sub.add_parser(eq)
        s.add_argument("--surface", required=True, help="surface config file")
        s.add_argument("--alpha", required=True, help="comma list in the declared basis")
        s.add_argument("--beta", required=True)
        s.add_argument("--out")
        s.set_defaults(func=_cmd_slope)

    bu = sub.add_parser("bundle", help="bundle slope data")
    bu_sub = bu.add_subparsers(dest="what", required=True)
    bs = bu_sub.add_parser("slopes")
    bs.add_argument("--params", required=True, help="m,n,a,b[,d]")
    bs.add_argument("--out")
    bs.set_defaults(func=_cmd_bundle)

    fl = sub.add_parser("flow", help="integrate a reduced flow")
    fl_sub = fl.add_subparsers(dest="flow", required=True)
    fj = fl_sub.add_parser("j")
    fj.add_argument("--params", required=True, help="m,n,a,b[,d]")
    fj.add_argument("--init", default="line", help="line | steady")
    fc = fl_sub.add_parser("cotangent")
    fc.add_argument("--bpq", required=True, help="b,p,q")
    fc.add_argument("--init", default="special", help="special | steady")
    for f in (fj, fc):
        f.add_argument("--grid", dest="grid_size", type=int, default=512)
        f.add_argument("--t-max", dest="t_max", type=float)
        f.add_argument(
            "--dt",
            type=float,
            help=f"first backward-Euler step (default 0.05); later steps grow up to {DT_CAP:g}",
        )
        f.add_argument("--checkpoint-interval", dest="checkpoint_interval", type=float)
        f.add_argument("--out")
        f.set_defaults(func=_cmd_flow)

    en = sub.add_parser("energy", help="energies, invariants, volumes")
    en_sub = en.add_subparsers(dest="energy", required=True)
    ei = en_sub.add_parser("infimum")
    ei.add_argument("--params", required=True)
    ef = en_sub.add_parser("futaki")
    ef.add_argument("--params", required=True)
    ef.add_argument("--breakpoints", type=int, default=256)
    em = en_sub.add_parser("minimizing-seq")
    em.add_argument("--params", required=True)
    em.add_argument("--k", type=int, default=20)
    em.add_argument("--k-min", dest="k_min", type=int, default=4)
    em.add_argument("--k-step", dest="k_step", type=int, default=4)
    ev = en_sub.add_parser("dhym-volume")
    ev.add_argument("--bpq", required=True)
    ev.add_argument("--profile", default="steady", choices=("steady", "special"))
    ev.add_argument("--grid", type=int, default=512)
    for e in (ei, ef, em, ev):
        e.add_argument("--out")
        e.set_defaults(func=_cmd_energy)

    ve = sub.add_parser("verify", help="exact identity sweeps")
    ve_sub = ve.add_subparsers(dest="what", required=True)
    vi = ve_sub.add_parser("identities")
    vi.add_argument("--max-mn", dest="max_mn", type=int, default=4)
    vi.add_argument("--max-sq", dest="max_sq", type=int, default=12)
    vi.set_defaults(func=_cmd_verify)

    ru = sub.add_parser("run", help="drive an experiment from a config file")
    ru.add_argument("--config", required=True)
    ru.set_defaults(func=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        if ns.cmd == "run":
            return run(ExperimentConfig.from_file(ns.config))
        return ns.func(ns)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/monitor failures
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
