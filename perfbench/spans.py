"""Span recording around calls into mecoffload, done entirely from outside
the library.

A traced function is replaced by a wrapper at every place its callers look
it up: each module attribute bound to it and each entry of a module-level
dict (the harness keeps its algorithms in dicts).  `Patches.undo` puts every
original object back, and `Patches.restored` checks that it did.

Spans are kept in memory as [name, start, end, parent index]; a span's self
time is its duration minus the durations of its direct children, which
nest inside it because the library is single-threaded.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

# Functions recorded as spans, named <module>.<function> after the module
# that defines them.
SPAN_TARGETS = (
    "harness.run_sweep",
    "model.generate_instance",
    "rate.solve_rate_max",
    "rate.dinkelbach_slave",
    "rate.conditional_solution",
    "rate.benchmark_lr",
    "rate.benchmark_greedy",
    "rate.benchmark_all_offloading",
    "lp.solve_lp",
    "energy.feasibility_tmin",
    "energy.partition_users",
    "energy.total_delay",
    "energy.solve_energy_suboptimal",
    "energy.benchmark_energy_all_offloading",
    "oracle.brute_force_rate_max",
    "oracle.brute_force_energy",
)

# Hot leaves: a span per call would cost as much as the call, so only count.
COUNT_TARGETS = ("model.derive_user",)

ORACLE_ENERGY = "oracle.brute_force_energy"


def _after_rate_solve(tracer, record, result):
    _schedule, table = result
    tracer.counts["rate.dinkelbach_iters"] += sum(row.iterations for row in table)


def _after_lp(tracer, record, result):
    optimal = result.status == "optimal"
    tracer.counts["lp.solve_lp.optimal"] += optimal
    parent = record[3]
    if parent >= 0 and tracer.spans[parent][0] == ORACLE_ENERGY:
        tracer.counts["oracle.lp_calls"] += 1
        tracer.counts["oracle.lp_optimal"] += optimal


def _after_energy_solve(tracer, record, result):
    tracer.counts[f"energy.branch.{result.status}"] += 1


def _after_partition(tracer, record, result):
    # the oracle enumerates every subset of the free saving users
    parent = record[3]
    if parent >= 0 and tracer.spans[parent][0] == ORACLE_ENERGY:
        tracer.counts["oracle.subsets"] += 2 ** len(result.free_saving)


ON_RESULT = {
    "rate.solve_rate_max": _after_rate_solve,
    "lp.solve_lp": _after_lp,
    "energy.solve_energy_suboptimal": _after_energy_solve,
    "energy.partition_users": _after_partition,
}


class Tracer:
    """In-memory span and counter store filled by the wrappers it makes."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, record, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
            fh.write("\n")


class Patches:
    """Replaces functions wherever the library's modules hold them."""

    def __init__(self, modules):
        self.modules = modules
        self.log: list[tuple] = []  # (container, key, original, is_dict)

    def replace(self, original, wrapper) -> None:
        for module in self.modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self.log.append((module, key, original, False))
                elif type(value) is dict and not key.startswith("__"):
                    for entry, item in list(value.items()):
                        if item is original:
                            value[entry] = wrapper
                            self.log.append((value, entry, original, True))

    def undo(self) -> None:
        for container, key, original, is_dict in reversed(self.log):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    def restored(self) -> bool:
        return all(
            (container[key] if is_dict else getattr(container, key)) is original
            for container, key, original, is_dict in self.log
        )


def install(lib, tracer: Tracer) -> Patches:
    """Wrap every target; the caller must call `undo` on the result."""
    modules = [lib.package] + [getattr(lib, name) for name in lib.MODULES]
    patches = Patches(modules)
    try:
        for name in SPAN_TARGETS + COUNT_TARGETS:
            module, attr = name.split(".", 1)
            original = getattr(getattr(lib, module), attr)
            if name in COUNT_TARGETS:
                wrapper = tracer.count(name + ".calls", original)
            else:
                wrapper = tracer.span(name, original, ON_RESULT.get(name))
            patches.replace(original, wrapper)
    except BaseException:
        patches.undo()
        raise
    return patches


def percentile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles' inclusive
    method; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _quantile_ms(durations, q):
    return 1e3 * percentile(durations, q)


def summarize(tracer: Tracer, passes: int, traced_wall: float, untraced_wall: float):
    """Per-layer metrics for one pass over the traced work (totals divided by
    the number of passes), and the span call counts by name."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    lp_self_by_caller: dict = defaultdict(float)
    durations: dict = defaultdict(list)
    top_level = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = duration - child[index]
        calls[name] += 1
        self_s[name] += own
        durations[name].append(duration)
        if parent < 0:
            top_level += duration
        if name == "lp.solve_lp":
            caller = spans[parent][0].split(".")[0] if parent >= 0 else "benchmark"
            lp_self_by_caller[caller] += own
    counts = tracer.counts

    def per_pass(value):
        return value / passes

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    m["lp.solve_lp.calls"] = per_pass(calls["lp.solve_lp"])
    m["lp.solve_lp.self_s"] = per_pass(self_s["lp.solve_lp"])
    for caller in ("rate", "energy", "oracle"):
        m[f"lp.solve_lp.self_s.{caller}"] = per_pass(lp_self_by_caller[caller])
    m["lp.solve_lp.optimal_frac"] = frac(counts["lp.solve_lp.optimal"], calls["lp.solve_lp"])
    m["rate.solve_rate_max.calls"] = per_pass(calls["rate.solve_rate_max"])
    m["rate.solve_rate_max.self_s"] = per_pass(self_s["rate.solve_rate_max"])
    m["rate.solve_rate_max.ms_p50"] = _quantile_ms(durations["rate.solve_rate_max"], 50)
    m["rate.solve_rate_max.ms_p90"] = _quantile_ms(durations["rate.solve_rate_max"], 90)
    m["rate.dinkelbach_slave.calls"] = per_pass(calls["rate.dinkelbach_slave"])
    m["rate.dinkelbach_iters"] = per_pass(counts["rate.dinkelbach_iters"])
    for name in ("benchmark_lr", "benchmark_greedy", "benchmark_all_offloading"):
        m[f"rate.{name}.self_s"] = per_pass(self_s[f"rate.{name}"])
    m["rate.benchmark_lr.time_frac"] = frac(sum(durations["rate.benchmark_lr"]), traced_wall)
    m["rate.conditional_solution.calls"] = per_pass(calls["rate.conditional_solution"])
    m["energy.feasibility_tmin.calls"] = per_pass(calls["energy.feasibility_tmin"])
    m["energy.feasibility_tmin.self_s"] = per_pass(self_s["energy.feasibility_tmin"])
    m["energy.partition_users.self_s"] = per_pass(self_s["energy.partition_users"])
    m["energy.total_delay.calls"] = per_pass(calls["energy.total_delay"])
    m["energy.total_delay.self_s"] = per_pass(self_s["energy.total_delay"])
    m["model.derive_user.calls"] = per_pass(counts["model.derive_user.calls"])
    m["energy.solve_energy_suboptimal.self_s"] = per_pass(self_s["energy.solve_energy_suboptimal"])
    m["energy.solve_energy_suboptimal.ms_p50"] = _quantile_ms(
        durations["energy.solve_energy_suboptimal"], 50
    )
    m["energy.solve_energy_suboptimal.ms_p90"] = _quantile_ms(
        durations["energy.solve_energy_suboptimal"], 90
    )
    for branch in ("optimal-path", "greedy-path", "lp-path", "infeasible"):
        m[f"energy.branch.{branch}"] = per_pass(counts[f"energy.branch.{branch}"])
    m["energy.benchmark_energy_all_offloading.self_s"] = per_pass(
        self_s["energy.benchmark_energy_all_offloading"]
    )
    m["oracle.brute_force_rate_max.self_s"] = per_pass(self_s["oracle.brute_force_rate_max"])
    m["oracle.brute_force_energy.self_s"] = per_pass(self_s[ORACLE_ENERGY])
    m["oracle.brute_force_energy.subsets"] = per_pass(counts["oracle.subsets"])
    m["oracle.brute_force_energy.feasible_frac"] = frac(
        counts["oracle.lp_optimal"], counts["oracle.lp_calls"]
    )
    m["model.generate_instance.calls"] = per_pass(calls["model.generate_instance"])
    m["model.generate_instance.self_s"] = per_pass(self_s["model.generate_instance"])
    m["harness.run_sweep.self_s"] = per_pass(self_s["harness.run_sweep"])
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["trace.coverage_frac"] = frac(top_level, traced_wall)
    m["trace.passes"] = float(passes)
    return m, calls
