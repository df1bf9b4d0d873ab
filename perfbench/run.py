"""slopeflow benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flow-limits --seed 1 --seconds 20 --trace 0

Workloads are ``flow-limits``, ``certificates`` and ``cli-energy`` (see
README.md).  The run imports slopeflow from the checkout's ``src``, in this
single process with a one-thread BLAS pool, cycles the workload's seeded
operation list in whole passes for about ``--seconds`` seconds, checks every
output, and prints one JSON object as its last line.  ``--trace 0`` reports
the end-to-end metrics, with every timing scaled to a reference speed by the
speed probes taken next to it (probe.py); ``--trace 1`` reports the
per-layer metrics of a traced run, in raw wall-clock time.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from probe import scaled, speed_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters per run for the cold-import part of setup_s
SETUP_REPEATS = 9
#: fresh interpreters per traced run for the scipy.linalg import share
IMPORTTIME_REPEATS = 5
CHILD_TIMEOUT_S = 60
#: longest stretch of operations between two speed probes
PROBE_GAP_S = 0.03

#: the probe imports numpy, so the fresh interpreter probes its speed only
#: after the timed import, the median of three probes
_COLD_IMPORT = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import slopeflow.cli\n"
    "t1 = time.perf_counter()\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "import probe\n"
    "speed = sorted(probe.speed_probe() for _ in range(3))[1]\n"
    "print(t1 - t0, speed, slopeflow.cli.__file__)\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_import_s() -> tuple[float, float]:
    """Seconds a fresh interpreter spends in ``import slopeflow.cli``, as
    measured and at the reference speed of its own speed probes."""
    out = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT], env=_child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    ).stdout.split()
    if not Path(out[2]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported slopeflow from {out[2]}")
    seconds, speed = map(float, out[:2])
    return seconds, scaled(seconds, speed, speed)


def scipy_import_ms() -> float:
    """Cumulative ms of ``scipy.linalg`` under ``-X importtime`` in a fresh interpreter."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import slopeflow.cli"], env=_child_env(),
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    ).stderr
    match = re.search(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.linalg$", err, re.MULTILINE)
    return int(match.group(1)) / 1e3 if match else 0.0


class Runner:
    """Runs operations, checks their outputs and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[str] = set()

    def run(self, op) -> tuple[float, object]:
        t0 = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failing operation is a result, not a crash
            result, error = None, f"raised {type(exc).__name__}: {exc}"
            if op.label not in self._reported:
                traceback.print_exc(file=sys.stderr)
        seconds = perf_counter() - t0
        problem = error or op.check(result)
        self.attempted += 1
        if problem:
            self.failed += 1
            if op.fault is None:
                self.correct = False
            if op.label not in self._reported:
                self._reported.add(op.label)
                tag = f"known fault ({op.fault})" if op.fault else "WRONG"
                print(f"{tag}: {op.label}: {problem}", file=sys.stderr)
        return seconds, result

    def warm_up(self, ops) -> None:
        """Run the first operation of each kind once, outside the tallies;
        a failure here shows again, and is counted, in the measured passes."""
        seen = set()
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    op.run()
                except Exception:  # counted when the measured passes run it
                    pass


def measure(ops, runner: Runner, seconds: float) -> list[float]:
    """Whole passes over ops while the next pass still fits in the run.
    Returns every latency in seconds at the reference speed of the speed
    probes taken just before and just after it (see probe.py).  A probe runs
    before an operation once PROBE_GAP_S has gone by since the last one, and
    at the end of each pass."""
    latencies: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        probes, owners, row = [speed_probe()], [], []
        last = perf_counter()
        for op in ops:
            if perf_counter() - last > PROBE_GAP_S:
                probes.append(speed_probe())
                last = perf_counter()
            owners.append(len(probes) - 1)
            row.append(runner.run(op)[0])
        probes.append(speed_probe())
        latencies += [scaled(t, probes[k], probes[k + 1]) for t, k in zip(row, owners)]
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            return latencies


def measure_traced(ops, runner: Runner, seconds: float, modules, namespaces):
    """Whole passes in which each operation runs twice in a row, untraced and
    traced, in an order that flips from one operation to the next and from one
    pass to the next, so that drift in machine speed cancels from the overhead.
    The per-layer metrics come from the traced runs."""
    import tracer
    from slopeflow.flow_engine import FlowTrace

    recorder = tracer.Tracer(modules, namespaces)
    records: list[tracer.OpRecord] = []
    plain_s = traced_s = 0.0

    def traced(op) -> float:
        recorder.op = len(records)
        recorder.install()
        try:
            seconds_op, result = runner.run(op)
        finally:
            recorder.uninstall()
        rec = tracer.OpRecord(op.kind, seconds_op)
        if isinstance(result, FlowTrace):
            rec.steps, rec.checkpoints, rec.trace_bytes = tracer.flow_stats(result)
        records.append(rec)
        return seconds_op

    start = perf_counter()
    for n_pass in itertools.count():
        t0 = perf_counter()
        for i, op in enumerate(ops):
            traced_first = (i + n_pass) % 2 == 1
            if traced_first:
                traced_s += traced(op)
            plain_s += runner.run(op)[0]
            if not traced_first:
                traced_s += traced(op)
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    overhead_ms = 1e3 * (traced_s - plain_s) / len(records)
    return recorder, records, overhead_ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "slopeflow" / "__init__.py").is_file():
        print(f"slopeflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    import slopeflow

    if not Path(slopeflow.__file__).resolve().is_relative_to(SRC):
        print(f"slopeflow was imported from {slopeflow.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imp, imp_ref = cold_import_s()
            before = speed_probe()
            t0 = perf_counter()
            ops = workloads.build(args.workload, args.seed, str(work))
            build = perf_counter() - t0
            setups.append(imp_ref + scaled(build, before, speed_probe()))
            imports.append(imp)
        runner = Runner()
        runner.warm_up(ops)
        if args.trace:
            from slopeflow import (bundle_geometry, calabi_profiles, cli, energy_functionals,
                                   flow_engine, surface_lattice, surface_slopes)

            modules = {
                "cli": cli, "energy_functionals": energy_functionals,
                "bundle_geometry": bundle_geometry, "surface_lattice": surface_lattice,
                "surface_slopes": surface_slopes, "calabi_profiles": calabi_profiles,
                "flow_engine": flow_engine,
            }
            namespaces = [vars(m) for m in modules.values()] + [vars(slopeflow), vars(workloads)]
            import tracer

            recorder, records, overhead_ms = measure_traced(ops, runner, args.seconds, modules, namespaces)
            scipy_ms = statistics.median(scipy_import_ms() for _ in range(IMPORTTIME_REPEATS))
            raw = tracer.layer_metrics(recorder.spans, records, 1e3 * statistics.median(imports),
                                       scipy_ms, overhead_ms)
            recorder.dump(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            latencies = measure(ops, runner, args.seconds)
            raw = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
                "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    text = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
