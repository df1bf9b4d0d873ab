"""Spans around slopeflow's public functions, and the per-layer metrics they give.

``Tracer.install`` replaces every public function of the seven modules by a
wrapper that records a span (name, start, end, parent span, operation id).
The wrapper is bound wherever the function is looked up: in its own module,
in every module that imported it by name, and in the benchmark's modules, so
that calls through ``from .x import f`` are recorded too.  Spans stay in
memory until the run ends.  A span's self time is its duration minus that of
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from dataclasses import dataclass
from time import perf_counter

LAYERS = (
    "cli",
    "energy_functionals",
    "bundle_geometry",
    "surface_lattice",
    "surface_slopes",
    "calabi_profiles",
    "flow_engine",
)

#: form-pairing primitives called thousands of times per certificate; a span
#: per call would multiply the traced run's time and memory, and no metric
#: reads them
UNTRACED = {"surface_lattice.intersect", "surface_lattice.is_nef", "surface_lattice.is_kahler"}

#: Chow-ring reductions that `verify identities` uses as oracles
RING_ORACLES = {
    "bundle_geometry.steady_slope_chow",
    "bundle_geometry.pairing_number",
    "bundle_geometry.blowup_top_power_sum",
    "bundle_geometry.blowup_mixed_power_sum",
}


class Tracer:
    """Records spans of wrapped calls; ``op`` tags them with the current operation.

    The wrappers are made once, for the public functions of ``modules`` (and
    ``flow_engine``'s ``solve_banded``), and bound in ``namespaces`` only
    between ``install`` and ``uninstall``.
    """

    def __init__(self, modules: dict[str, object], namespaces: list[dict]):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in UNTRACED:
                    wrappers[id(fn)] = self._wrap(name, fn)
        flow = modules["flow_engine"]
        wrappers[id(flow.solve_banded)] = self._wrap("flow_engine.solve_banded", flow.solve_banded)
        self._bindings = [
            (ns, attr, value, wrappers[id(value)])
            for ns in namespaces
            for attr, value in ns.items()
            if id(value) in wrappers
        ]

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.op])
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[1], rec[2] = t0, t1

        return traced

    def install(self) -> None:
        for ns, attr, _, wrapper in self._bindings:
            ns[attr] = wrapper

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._bindings:
            ns[attr] = original

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: name, start and end in s, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


@dataclass
class OpRecord:
    """What the traced loop keeps of one operation."""

    kind: str
    seconds: float
    steps: int = 0
    checkpoints: int = 0
    trace_bytes: int = 0


def flow_stats(result) -> tuple[int, int, int]:
    """(steps, checkpoints, bytes of retained arrays) of a FlowTrace."""
    profiles = list(result.profiles) + [result.terminal_profile]
    if result.reference_profile is not None:
        profiles.append(result.reference_profile)
    nbytes = sum(p.grid.nbytes + p.values.nbytes for p in profiles)
    return result.steps, len(result.checkpoints), nbytes


def layer_metrics(spans: list[list], ops: list[OpRecord], import_ms: float,
                  scipy_ms: float, overhead_ms: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and operation records of traced passes."""
    n_ops = max(len(ops), 1)
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child[rec[3]] += rec[2] - rec[1]
    durs: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        durs.setdefault(name, []).append(t1 - t0)
        selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - child[i]

    def outermost(prefix: str) -> float:
        total = 0.0
        for name, t0, t1, parent, _ in spans:
            if not name.startswith(prefix):
                continue
            while parent is not None and not spans[parent][0].startswith(prefix):
                parent = spans[parent][3]
            if parent is None:
                total += t1 - t0
        return total

    def mean(name: str, scale: float) -> float:
        d = durs.get(name)
        return scale * statistics.fmean(d) if d else 0.0

    def median(name: str, scale: float) -> float:
        d = durs.get(name)
        return scale * statistics.median(d) if d else 0.0

    def per_op(name: str) -> float:
        return len(durs.get(name, ())) / n_ops

    cli_ops = sum(1 for o in ops if o.kind.startswith("cli"))
    verify_ops = sum(1 for o in ops if o.kind == "cli verify")
    cli_self = sum(v for k, v in selfs.items() if k.startswith("cli."))
    oracle = sum(sum(durs.get(k, ())) for k in RING_ORACLES)
    steps = sum(o.steps for o in ops)
    solve_self = selfs.get("flow_engine.run_j_flow", 0.0) + selfs.get("flow_engine.run_cotangent_flow", 0.0)
    return {
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_scipy_ms": (scipy_ms, "ms"),
        "cli.main_self_ms": (1e3 * cli_self / cli_ops if cli_ops else 0.0, "ms"),
        "energy_functionals.futaki_invariant_ms": (mean("energy_functionals.futaki_invariant", 1e3), "ms"),
        "energy_functionals.minimizing_profile_ms": (mean("energy_functionals.minimizing_profile", 1e3), "ms"),
        "energy_functionals.energy_infimum_ms": (mean("energy_functionals.energy_infimum", 1e3), "ms"),
        "energy_functionals.dhym_volume_us": (mean("energy_functionals.dhym_volume", 1e6), "us"),
        "energy_functionals.dhym_volume_calls_per_op": (per_op("energy_functionals.dhym_volume"), "count"),
        "bundle_geometry.min_slope_certificate_ms": (mean("bundle_geometry.min_slope_certificate", 1e3), "ms"),
        "bundle_geometry.min_slope_certificate_calls_per_op": (per_op("bundle_geometry.min_slope_certificate"), "count"),
        "bundle_geometry.ring_oracle_ms": (1e3 * oracle / verify_ops if verify_ops else 0.0, "ms"),
        "surface_lattice.volume_calls_per_op": (per_op("surface_lattice.volume"), "count"),
        "surface_lattice.volume_us": (mean("surface_lattice.volume", 1e6), "us"),
        "surface_lattice.zariski_calls_per_op": (per_op("surface_lattice.zariski"), "count"),
        "surface_slopes.j_slope_certificate_ms": (mean("surface_slopes.j_slope_certificate", 1e3), "ms"),
        "surface_slopes.dhym_slope_certificate_ms": (mean("surface_slopes.dhym_slope_certificate", 1e3), "ms"),
        "surface_slopes.bigness_threshold_ms": (mean("surface_slopes.bigness_threshold", 1e3), "ms"),
        "calabi_profiles.profile_ms_per_op": (1e3 * outermost("calabi_profiles.") / n_ops, "ms"),
        "flow_engine.steps_per_op": (steps / n_ops, "count"),
        "flow_engine.step_us": (1e6 * solve_self / steps if steps else 0.0, "us"),
        "flow_engine.tridiag_solve_us": (mean("flow_engine.solve_banded", 1e6), "us"),
        "flow_engine.checkpoints_per_op": (sum(o.checkpoints for o in ops) / n_ops, "count"),
        "flow_engine.monitor_suite_ms": (mean("flow_engine.monitor_suite", 1e3), "ms"),
        "flow_engine.j_solve_ms_p50": (median("flow_engine.run_j_flow", 1e3), "ms"),
        "flow_engine.cot_solve_ms_p50": (median("flow_engine.run_cotangent_flow", 1e3), "ms"),
        "flow_engine.trace_bytes_per_op": (sum(o.trace_bytes for o in ops) / n_ops, "B"),
        "trace.overhead_ms_per_op": (overhead_ms, "ms"),
    }
