"""Command-line front end: slope certificates, flows, energies, verification.

Subcommands
    slope j | slope dhym      surface slope certificates from a config file
    bundle slopes             bundle verdict, puncture and minimal slope
    flow j | flow cotangent   integrate a reduced flow; --out writes its checkpoint
                              columns (CSV), profile rows and grid (.npy) and
                              summary (JSON)
    energy infimum | futaki | minimizing-seq | dhym-volume
    verify identities         exact intersection-theory identity sweeps
    run                       drive any of the above from an experiment config

Only `flow`, `energy minimizing-seq` and `energy dhym-volume` load numpy, on
their first use.  The first implicit solve loads scipy's LAPACK extension
alone, not the `scipy.linalg` package.  `slope`,
`bundle`, `verify`, `energy infimum` and `energy futaki`, and `run` of a
config for one of them, work in exact arithmetic and never load numpy.

The oracles of `verify identities` live here: they build the slope and
blow-up intersection numbers from `bundle_geometry`'s Chow ring, never from
its antiderivative table, and count compositions for the binomial identity.

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
from fractions import Fraction

from .bundle_geometry import (
    BundleParams,
    ChowElement,
    blowup_mixed_power,
    blowup_top_power,
    intersection_number,
    min_slope_certificate,
    pairing_number,
    steady_slope,
)
from .errors import InputError
from .flow_steps import DT_CAP
from .surface_lattice import DivisorClass, _read_ini, load_surface_model
from .surface_slopes import (
    dhym_slope_certificate,
    j_slope_certificate,
    one_point_blowup_certificate,
)

__all__ = ["build_parser", "main"]


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _flow_config(ns):
    """The FlowConfig of the flow flags that were given."""
    from .flow_engine import FlowConfig

    flags = ("grid_size", "t_max", "dt")
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
    # load_surface_model would read a path that is not a file as config text
    if not os.path.isfile(ns.surface):
        raise InputError(f"surface config {ns.surface!r} does not exist as a file")
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
    from .flow_engine import run_cotangent_flow, run_j_flow

    cfg = _flow_config(ns)
    if ns.flow == "j":
        params = BundleParams.parse(ns.params)
        trace = run_j_flow(params, ns.init, cfg=cfg)
    else:
        b, p, q = _parse_bpq(ns.bpq)
        trace = run_cotangent_flow(b, p, q, ns.init, cfg=cfg)
    out = _outdir(ns)
    if out:
        trace.save(out)
    _emit(trace.summary(), os.path.join(out, "summary.json") if out else None)
    if trace.monitor_report is not None and not trace.monitor_report.passed:
        return 2
    return 0


def _cmd_energy(ns) -> int:
    from .energy_functionals import (
        dhym_volume,
        dhym_volume_split,
        energy_infimum,
        futaki_invariant,
        l2_slope_deviation,
        minimizing_sequence,
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
        ks = range(ns.k_min, ns.k + 1, ns.k_step)
        rows = [
            {"k": k, "energy": e, "rel_error": abs(e - ref) / ref, "signed_error": (e - ref) / ref}
            for k, (_, e) in zip(ks, minimizing_sequence(params, ks))
        ]
        _emit(
            {"schema": 1, "reference": ref, "sequence": rows},
            os.path.join(out, "minimizing_seq.json") if out else None,
        )
    else:  # dhym-volume
        if ns.grid < 2:
            raise InputError("dhym-volume needs --grid >= 2")
        from .calabi_profiles import sample_steady_profile_dhym, special_cotangent_profile

        b, p, q = _parse_bpq(ns.bpq)
        # both profiles need b > 1 and bp > q: the certificate says so first
        cert = one_point_blowup_certificate(b, p, q)
        if ns.profile == "special":
            prof = special_cotangent_profile(b, p, q, ns.grid + 1)
        else:
            prof = sample_steady_profile_dhym(b, p, max(cert.slope, float(q)), ns.grid + 1)
        rep = dhym_volume(prof, b, p, q).to_dict()
        rep["split"] = dhym_volume_split(b, p, q).to_dict()
        _emit(rep, os.path.join(out, "dhym_volume.json") if out else None)
    return 0


def _alpha_pairings(params: BundleParams) -> tuple[Fraction, Fraction, Fraction]:
    """alpha^(N-1).h, alpha^(N-1).eta and alpha^N, alpha = h + a eta, by the
    ring: one power of alpha and three pairings.  They do not depend on b, so
    a sweep over b shares them."""
    alpha = ChowElement.fiber_class(params, params.a)
    power = alpha ** (params.dim - 1)
    classes = (ChowElement.hyperplane(params), ChowElement.infinity(params), alpha)
    return tuple(intersection_number([power, c], params) for c in classes)


def _mixed_pairing(params: BundleParams, pairings: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """alpha^(N-1).beta, beta = h + b eta, from the pairings of `_alpha_pairings`,
    as one Fraction of integers."""
    (u, v), (w, z), (p, q) = (x.as_integer_ratio() for x in (pairings[0], pairings[1], params.b))
    return Fraction(u * z * q + p * w * v, v * z * q)


def _chow_slope(params: BundleParams, pairings: tuple[Fraction, Fraction, Fraction]) -> Fraction:
    """(n+m+1) alpha^(N-1).beta / alpha^N from the pairings of `_alpha_pairings`."""
    mixed, total = _mixed_pairing(params, pairings), pairings[2]
    return Fraction(params.dim * mixed.numerator * total.denominator, mixed.denominator * total.numerator)


def _exceptional_sum(params: BundleParams, s: Fraction, M: int, k: int) -> Fraction:
    """sum_{l <= k} C(M, k-l) C(r-2+l, l) s^(r-1+l) d: the exceptional divisor's
    powers paired against the base class, each pairing C(r-2+l, l) d by the
    recursion on the projectivized normal bundle, summed over one denominator."""
    r, d = params.r, params.d
    p, q = s.numerator, s.denominator
    num = sum(math.comb(M, k - l) * math.comb(r - 2 + l, l) * p ** (r - 1 + l) * q ** (k - l) for l in range(k + 1))
    return Fraction(num * d.numerator, q ** (r - 1 + k) * d.denominator)


def _blowup_sums(params: BundleParams, pairings: tuple[Fraction, Fraction, Fraction], s: Fraction) -> tuple[Fraction, Fraction]:
    """The blow-up's top and mixed powers at puncture s: alpha^N and
    alpha^(N-1).beta, from the pairings of `_alpha_pairings`, minus their
    exceptional corrections."""
    N, n = params.dim, params.n
    return (
        pairings[2] - _exceptional_sum(params, s, N, n),
        _mixed_pairing(params, pairings) - _exceptional_sum(params, s, N - 1, n - 1),
    )


@functools.cache
def count_compositions(parts: int, total: int) -> int:
    """Number of nonnegative integer solutions of x_0 + ... + x_parts = total,
    by dynamic programming: the binomial identity's independent oracle."""
    if parts == 0:
        return 1
    return sum(count_compositions(parts - 1, total - x) for x in range(total + 1))


def combinatorial_identity_check(s: int, q: int) -> bool:
    """Check sum_j (-1)^(j-1) C(s+1,j) C(s+q-j, q-j) = C(q+s, q), three ways;
    the terms with j > q are zero."""
    if s < 1 or q < 1:
        raise InputError("need positive integers s and q")
    lhs = sum((-1) ** (j - 1) * math.comb(s + 1, j) * math.comb(s + q - j, q - j) for j in range(1, min(s + 1, q) + 1))
    return lhs == math.comb(q + s, q) == count_compositions(s, q)


def _cmd_verify(ns) -> int:
    """Each identity case by case, by exact equality.  `--max-mn` bounds n
    and m of the slope and blow-up sweeps, `--max-sq` both arguments of the
    binomial sweep; the pairing sweep is fixed.  The ring's pairings of one
    power of alpha serve every b of a slope case and every s of a blow-up
    case: they depend on neither."""
    if ns.max_mn < 1 or ns.max_sq < 1:
        raise InputError("verify identities needs --max-mn >= 1 and --max-sq >= 1")
    report = {"schema": 1, "checks": []}

    def record(name, results):
        bad = results.count(False)
        report["checks"].append({"name": name, "passed": bad == 0, "detail": f"{bad} mismatches in {len(results)} cases"})

    mn = [(n, m) for m in range(0, ns.max_mn + 1) for n in range(1, ns.max_mn + 1)]
    grid = [Fraction(k, 3) for k in range(1, 6)]
    results = []
    for n, m in mn:
        for a in grid:
            pairings = _alpha_pairings(BundleParams(n=n, m=m, a=a, b=1))
            for b in grid:
                params = BundleParams(n=n, m=m, a=a, b=b)
                results.append(steady_slope(params, 0) == _chow_slope(params, pairings))
    record("slope closed form vs ring oracle", results)

    results = [
        pairing_number(l, BundleParams(n=n, m=r - 2, a=1, b=1)) == math.comb(r + l - 2, l)
        for n in range(1, 7)
        for r in range(2, 7)
        for l in range(0, n + 1)
    ]
    record("pairing recursion", results)

    sq = range(1, ns.max_sq + 1)
    record("binomial identity", [combinatorial_identity_check(s, qq) for s in sq for qq in sq])

    results = []
    for n, m in mn:
        params = BundleParams(n=n, m=m, a=2, b=1)
        pairings = _alpha_pairings(params)
        for s in (Fraction(1, 3), Fraction(1), Fraction(3, 2)):
            top, mixed = _blowup_sums(params, pairings, s)
            results += [blowup_top_power(params, s) == top, blowup_mixed_power(params, s) == mixed]
    record("blow-up intersection identities", results)

    _emit(report, None)
    return 0 if all(c["passed"] for c in report["checks"]) else 2


def _cmd_run(ns) -> int:
    """Run an experiment config: its [experiment] `command`, with each key of
    [geometry], [solver] and [output] as a `--key value` flag.  A section
    other than these four, a key other than `command` in [experiment], or a
    command that runs another config, so that `run` would recurse, is an
    input error."""
    with open(ns.config, "r", encoding="utf-8") as fh:
        sections = _read_ini(fh.read(), "experiment")
    known = ("experiment", "geometry", "solver", "output")
    unknown = [f"section [{name}]" for name in sections if name not in known]
    unknown += [f"key {key!r} in [experiment]" for key in sections["experiment"] if key != "command"]
    if unknown:
        raise InputError(f"experiment config has an unknown {', '.join(unknown)}")
    argv = sections["experiment"].get("command", "").split()
    if not argv:
        raise InputError("experiment config needs a 'command' entry")
    if argv[0] == "run":
        raise InputError("an experiment config cannot run another config")
    for name in known[1:]:
        for key, val in sections.get(name, {}).items():
            argv += [f"--{key.replace('_', '-')}", val]
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
        f.add_argument("--grid", dest="grid_size", type=int)
        f.add_argument("--t-max", dest="t_max", type=float)
        f.add_argument(
            "--dt",
            type=float,
            help=f"first backward-Euler step (default 0.05); later steps grow up to {DT_CAP:g}",
        )
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
    vi = ve_sub.add_parser("identities", epilog="The pairing sweep always runs n <= 6, r <= 6.")
    vi.add_argument("--max-mn", dest="max_mn", type=int, default=4, help="bound on n and m of the slope and blow-up sweeps")
    vi.add_argument("--max-sq", dest="max_sq", type=int, default=12, help="bound on s and q of the binomial sweep")
    vi.set_defaults(func=_cmd_verify)

    ru = sub.add_parser("run", help="drive an experiment from a config file")
    ru.add_argument("--config", required=True)
    ru.set_defaults(func=_cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        return ns.func(ns)
    except (OSError, ValueError) as exc:  # InputError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/monitor failures
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
