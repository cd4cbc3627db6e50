"""Benchmark for mecoffload: one command, three workloads.

    python3 perfbench/run.py --workload rate-sweep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's own `src/`.  Each workload is a closed loop: this one process
calls the library back to back, with numpy/BLAS pinned to one thread.
With `--trace 0` the run measures the end-to-end metrics; with `--trace 1`
it runs a fixed amount of work untraced and then traced, and reports the
per-layer metrics.  Metric names and units come from BENCHMARK.json.  The
last line of stdout is one JSON object with the result; a copy with the
environment and fingerprints goes to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# Pinned before numpy is first imported, here and in the set-up probes.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

DEFAULT_SEED = 20240  # the harness's stock base seed; fingerprints are recorded for it
MAX_EXTRA_SECONDS = 90.0  # stop completing a round this long after --seconds
UNGATED_COUNTS = ("energy.branch.optimal-path", "energy.branch.greedy-path",
                  "energy.branch.lp-path", "trace.passes")
SETUP_PROBES = 10  # fresh-process set-ups per run, besides this process's own


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_library():
    """Import mecoffload from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "mecoffload" / "__init__.py").is_file():
        raise BenchmarkError(f"no mecoffload sources under {src}")
    sys.path.insert(0, str(src))
    import mecoffload
    import mecoffload.harness

    if Path(mecoffload.__file__).resolve().parent != (src / "mecoffload").resolve():
        raise BenchmarkError(f"imported mecoffload from {mecoffload.__file__}, not {src}")
    modules = ("model", "rate", "energy", "lp", "oracle", "harness", "rng")
    lib = SimpleNamespace(package=mecoffload, MODULES=modules)
    for name in modules:
        setattr(lib, name, getattr(mecoffload, name))
    return lib


def set_up(workload_name, seed):
    """Import plus input construction for the first unit; returns seconds."""
    start = time.perf_counter()
    lib = import_library()
    workload = workloads.WORKLOADS[workload_name]
    workload.inputs(lib, seed, 0)
    return time.perf_counter() - start, lib, workload


def probe_set_up(workload, seed):
    """Time the same set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Operations, failures and fingerprints over the checked units."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = {}

    def add(self, unit, verdict):
        self.attempted += unit.attempted
        self.failed += verdict.failed
        self.problems.extend(verdict.problems)
        self.fingerprint.update(verdict.fingerprint)


def measure(lib, workload, seed, seconds, tally):
    """End-to-end run: units back to back until --seconds is spent, every
    fingerprinted unit is done and the last round is whole, so that each run
    weighs the grid points alike.  Set-up probes run between units, spread
    over the run, so that they meet the same machine speed as the units do."""
    units, setups = [], []
    start = time.perf_counter()
    minimum = workload.traced_units(lib)
    per_round = workload.round_units(lib)
    while True:
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            setups.append(probe_set_up(workload, seed))
            continue
        if elapsed >= seconds and len(units) >= minimum and (
                len(units) % per_round == 0 or elapsed >= seconds + MAX_EXTRA_SECONDS):
            break
        unit = workload.run(lib, seed, len(units))
        verdict = workload.check(lib, unit)
        if unit.index >= minimum:
            verdict.fingerprint = {}
        tally.add(unit, verdict)
        unit.outputs = []
        units.append(unit)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_set_up(workload, seed))
    return units, setups


def end_to_end(units, setup_s):
    seconds = sum(u.seconds for u in units)
    return {
        "setup_s": setup_s,
        "instances_per_s": sum(u.instances for u in units) / seconds,
        "instance_ms_p90": spans.percentile([u.latency_ms for u in units], 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def latency_info(units):
    """Latencies printed for reading but not gated: the median instance time,
    and on large-K the p50 and p90 of the rate, greedy and energy calls."""
    info = {"instance_ms_p50": spans.percentile([u.latency_ms for u in units], 50)}
    if units[0].parts_ms:
        for k, name in enumerate(("rate_solve_ms", "greedy_solve_ms", "energy_solve_ms")):
            values = [u.parts_ms[k] for u in units]
            info[f"{name}_p50"] = spans.percentile(values, 50)
            info[f"{name}_p90"] = spans.percentile(values, 90)
    return info


def traced(lib, workload, seed, seconds, tally):
    """Per-layer run: the fingerprinted units untraced, then the same units
    traced, repeated while the next pass still fits in --seconds.
    The traced outputs must equal the untraced ones, and every wrapped
    attribute must be back to its original object afterwards."""
    tracer = spans.Tracer()
    untraced_wall = traced_wall = 0.0
    passes = 0
    self_check = []
    start = time.perf_counter()
    last = 0.0
    count = workload.traced_units(lib)
    while passes == 0 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        plain = [workload.run(lib, seed, i) for i in range(count)]
        t1 = time.perf_counter()
        patches = spans.install(lib, tracer)
        try:
            wrapped = [workload.run(lib, seed, i) for i in range(count)]
        finally:
            patches.undo()
        t2 = time.perf_counter()
        if not patches.restored():
            self_check.append("a wrapped attribute was not restored")
        for a, b in zip(plain, wrapped):
            va, vb = workload.check(lib, a), workload.check(lib, b)
            tally.add(a, va)
            tally.add(b, vb)
            if va.fingerprint != vb.fingerprint:
                self_check.append(f"unit {a.index}: traced outputs differ from untraced")
        untraced_wall += t1 - t0
        traced_wall += t2 - t1
        passes += 1
        last = t2 - t0
    metrics, calls = spans.summarize(tracer, passes, traced_wall, untraced_wall)
    return metrics, calls, tracer, self_check


def predictions(workload_name, metrics, calls):
    """The separations the workload design predicts; reported, not gated."""

    def called(prefix):
        return sum(n for name, n in calls.items() if name.startswith(prefix))

    checks = [("listed spans cover >= 90% of traced wall time",
               metrics["trace.coverage_frac"] >= 0.9)]
    if workload_name == "rate-sweep":
        checks += [("no energy.* calls", called("energy.") == 0),
                   ("benchmark_lr >= 80% of traced wall time",
                    metrics["rate.benchmark_lr.time_frac"] >= 0.8)]
    elif workload_name == "energy-sweep":
        checks += [("no rate.* calls", called("rate.") == 0)]
    else:
        solves = calls["energy.solve_energy_suboptimal"] / metrics["trace.passes"]
        checks += [("lp.solve_lp.calls = 0", calls["lp.solve_lp"] == 0),
                   ("no oracle calls", called("oracle.") == 0),
                   (">= 90% of energy solves take greedy-path",
                    metrics["energy.branch.greedy-path"] >= 0.9 * solves)]
    return checks


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in config["workloads"]}:
        raise BenchmarkError(f"unknown workload {args.workload!r}")

    setup_here, lib, workload = set_up(args.workload, args.seed)
    if args.probe_setup:
        print(repr(setup_here))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    lines = []
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        metrics, calls, tracer, self_check = traced(lib, workload, args.seed, args.seconds, tally)
        declared = config["per_layer"]
        checks = predictions(args.workload, metrics, calls)
        for text, ok in checks:
            lines.append(f"prediction {'PASS' if ok else 'FAIL'}: {text}")
        lines += [f"trace self-check FAIL: {p}" for p in self_check] or ["trace self-check PASS"]
        # informational: branch counts split a fixed number of solves, and
        # the number of passes depends on the machine, so neither is gated
        for name in UNGATED_COUNTS:
            lines.append(f"info {name} {metrics[name]!r} count")
        report["predictions"] = {text: ok for text, ok in checks}
        report["span_calls"] = dict(calls)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        units, setups = measure(lib, workload, args.seed, args.seconds, tally)
        metrics = end_to_end(units, statistics.median([setup_here] + setups))
        declared = config["end_to_end"]
        rounds = len(units) / workload.round_units(lib)
        lines.append(f"samples {len(units)} {'frames' if args.workload == 'large-K' else 'grid points'}"
                     f" ({rounds:g} rounds)")
        report["units"] = [[u.seconds, u.instances, u.latency_ms, *u.parts_ms] for u in units]
        for name, value in latency_info(units).items():
            lines.append(f"info {name} {value!r} ms")
        self_check = []

    fingerprint = workloads.combine_fingerprints(tally.fingerprint)
    for name, digest in sorted(fingerprint.items()):
        lines.append(f"fingerprint {name} sha256 {digest}")
    recorded = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    fingerprint_ok = True
    if args.seed == recorded["seed"]:
        fingerprint_ok = recorded[args.workload] == fingerprint
        lines.append(f"fingerprint check {'PASS' if fingerprint_ok else 'FAIL'} "
                     f"against the digests recorded for seed {recorded['seed']}")
    failed_frac = tally.failed / tally.attempted
    lines.append(f"info failed_frac {failed_frac!r} frac ({tally.failed} of {tally.attempted})")
    lines += [f"problem {p}" for p in tally.problems[:20]]

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"metrics not computed: {missing}")
    result = {
        "correct": tally.failed == 0 and fingerprint_ok and not self_check,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    for m in declared:
        lines.append(f"metric {m['name']} {metrics[m['name']]!r} {m['unit']}")
    report.update(result=result, fingerprint=fingerprint, unit_sha256=tally.fingerprint,
                  failed_frac=failed_frac, problems=tally.problems)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(report["environment"], sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
