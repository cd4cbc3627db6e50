"""The benchmark's three workloads, their correctness checks and their
behaviour fingerprints.

A workload is a sequence of units, each built from (seed, index) alone, so
the same seed always gives the same inputs:

* a sweep unit is one grid point of one of the workload's two stock
  experiments, run through `harness.run_sweep` with certification on; a
  round is every grid point of both experiments, in order;
* a large-K unit ("frame") draws one K=100 instance and takes it through
  `solve_rate_max`, `benchmark_greedy` and `solve_energy_suboptimal`, each
  call timed on its own.

`run` does only the timed library calls; `check` validates the outputs
afterwards, outside the timed (and traced) region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field

# Unit index i of seed s uses library seed s + i * SEED_STRIDE, so units
# never share instances.
SEED_STRIDE = 1_000_003

# Relative tolerance of the certified gate: the exact rate solver must match
# the brute-force oracle, and beat the rate benchmarks, to within it, and no
# algorithm may beat the oracle by more than it.
GAP_TOL = 1e-9


@dataclass
class Unit:
    index: int
    seconds: float  # wall time of the timed library calls
    instances: int
    latency_ms: float  # per instance: frame solves, or the grid point amortised
    attempted: int  # operations: sweep CSV rows, or large-K solves
    outputs: list = field(default_factory=list)
    parts_ms: tuple = ()  # large-K: the rate, greedy and energy call times


@dataclass
class Verdict:
    failed: int
    problems: list
    fingerprint: dict  # name -> SHA-256 hex digest


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SweepWorkload:
    """Stock experiments through the harness, one grid point per call.

    A round covers every grid point of the workload's stock experiments in
    order, each as its own `run_sweep` call with `realizations` instances,
    so that each call is one latency sample."""

    def __init__(self, name, experiments, algorithms, realizations):
        self.name = name
        self.experiments = experiments
        self.algorithms = algorithms
        self.realizations = realizations

    def points(self, lib):
        """The round's (experiment, grid value) pairs, in run order."""
        return [
            (experiment, value)
            for experiment in self.experiments
            for value in lib.harness.DEFAULT_GRIDS[experiment]
        ]

    def round_units(self, lib):
        return len(self.points(lib))

    def traced_units(self, lib):
        """Units fingerprinted, traced, and run at least: one round."""
        return self.round_units(lib)

    def inputs(self, lib, seed, index):
        points = self.points(lib)
        experiment, value = points[index % len(points)]
        return lib.harness.SweepSpec(
            experiment=experiment,
            grid=(value,),
            realizations=self.realizations,
            base_seed=seed + index * SEED_STRIDE,
            algorithms=self.algorithms,
            certify=True,
        )

    def run(self, lib, seed, index) -> Unit:
        spec = self.inputs(lib, seed, index)
        start = time.perf_counter()
        try:
            result = lib.harness.run_sweep(spec)
        except Exception as exc:  # counted as failed rows by check()
            result = exc
        seconds = time.perf_counter() - start
        return Unit(index, seconds, self.realizations, 1e3 * seconds / self.realizations,
                    len(self.algorithms), [(spec.experiment, result)])

    def check(self, lib, unit: Unit) -> Verdict:
        [(experiment, result)] = unit.outputs
        where = f"{experiment} unit {unit.index}"
        if isinstance(result, Exception):
            return Verdict(unit.attempted, [f"{where}: {result!r}"], {})
        failed = 0
        problems = []
        rows = list(csv.DictReader(io.StringIO(result)))
        if sorted(row.get("algorithm") for row in rows) != sorted(self.algorithms):
            failed += unit.attempted
            problems.append(f"{where}: rows for {[row.get('algorithm') for row in rows]}")
            rows = []
        for row in rows:
            try:
                problem = self._row_problem(experiment, row)
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"unreadable row {row}: {exc!r}"
            if problem:
                failed += 1
                problems.append(f"{where}: {problem}")
        return Verdict(failed, problems, {f"{experiment}#{unit.index}": _sha256(result)})

    def _row_problem(self, experiment, row):
        if row["experiment"] != experiment or int(row["realizations"]) != self.realizations:
            return f"unexpected row {row}"
        algorithm = row["algorithm"]
        # No schedule beats the brute-force optimum: a gap below zero means
        # an objective above the optimal rate, or below the optimal energy.
        if float(row["max_rel_gap"]) < -GAP_TOL:
            return f"{algorithm} gap {row['max_rel_gap']} is below zero"
        if algorithm == "optimal":
            if int(row["certified"]) != self.realizations:
                return f"optimal certified {row['certified']} of {self.realizations}"
            if not float(row["max_rel_gap"]) <= GAP_TOL:
                return f"optimal gap {row['max_rel_gap']} at {row['value']}"
        if algorithm == "suboptimal" and row["certified"] != row["feasible"]:
            return f"suboptimal certified {row['certified']} of {row['feasible']} feasible"
        return None


class FrameWorkload:
    """Single solves on a stream of K=100 instances."""

    name = "large-K"
    generation = {"n_users": 100, "degradation": 0.05, "deadline_s": 1.5}

    def round_units(self, lib):
        return 1

    def traced_units(self, lib):
        """Frames fingerprinted, traced, and run at least: 100, so that the
        p90 frame time has ten samples beyond it."""
        return 100

    def inputs(self, lib, seed, index):
        return lib.package.GenerationSpec(**self.generation), seed + index * SEED_STRIDE

    def run(self, lib, seed, index) -> Unit:
        pkg = lib.package
        spec, instance_seed = self.inputs(lib, seed, index)
        begin = time.perf_counter()
        instance = pkg.generate_instance(spec, instance_seed)
        t0 = time.perf_counter()
        try:
            rate = pkg.solve_rate_max(instance)[0]
        except Exception as exc:
            rate = exc
        t1 = time.perf_counter()
        try:
            greedy = pkg.benchmark_greedy(instance)
        except Exception as exc:
            greedy = exc
        t2 = time.perf_counter()
        try:
            energy = pkg.solve_energy_suboptimal(instance)
        except Exception as exc:
            energy = exc
        t3 = time.perf_counter()
        parts = (1e3 * (t1 - t0), 1e3 * (t2 - t1), 1e3 * (t3 - t2))
        return Unit(index, t3 - begin, 1, 1e3 * (t3 - t0), 3, [instance, rate, greedy, energy], parts)

    def check(self, lib, unit: Unit) -> Verdict:
        pkg = lib.package
        instance, rate, greedy, energy = unit.outputs
        bad = {}
        for label, schedule in (("rate", rate), ("greedy", greedy)):
            if isinstance(schedule, Exception):
                bad[label] = repr(schedule)
                continue
            try:
                if not pkg.validate_rate_schedule(instance, schedule).ok:
                    bad[label] = "schedule fails validate_rate_schedule"
            except Exception as exc:  # a malformed schedule is a failed check
                bad[label] = f"validate_rate_schedule raised {exc!r}"
        if not bad:
            try:
                others = (greedy.sum_rate, pkg.benchmark_all_offloading(instance).sum_rate)
                if rate.sum_rate < max(others) * (1.0 - GAP_TOL):
                    bad["rate"] = f"optimal rate {rate.sum_rate!r} below a benchmark {max(others)!r}"
            except Exception as exc:
                bad["rate"] = f"rate comparison raised {exc!r}"
        if isinstance(energy, Exception):
            bad["energy"] = repr(energy)
        else:
            try:
                if energy.status == "infeasible":
                    if not (energy.t_min is not None and instance.deadline < energy.t_min):
                        bad["energy"] = "refused a deadline at or above t_min"
                elif not pkg.validate_energy_schedule(instance, energy).ok:
                    bad["energy"] = "schedule fails validate_energy_schedule"
            except Exception as exc:
                bad["energy"] = f"validate_energy_schedule raised {exc!r}"
        try:
            fingerprint = {f"frame#{unit.index}": _sha256(self._describe(unit))}
        except Exception as exc:
            bad["outputs"] = f"cannot be described: {exc!r}"
            fingerprint = {}
        problems = [f"frame {unit.index} {label}: {text}" for label, text in sorted(bad.items())]
        return Verdict(min(len(bad), unit.attempted), problems, fingerprint)

    @staticmethod
    def _describe(unit: Unit) -> str:
        parts = []
        for schedule in unit.outputs[1:]:
            if isinstance(schedule, Exception):
                parts.append(repr(schedule))
            else:
                objective = getattr(schedule, "sum_rate", None)
                if objective is None:
                    objective = schedule.objective
                parts.append(f"{sorted(schedule.scheduled)}:{objective!r}")
        return "|".join(parts)


WORKLOADS = {
    "rate-sweep": SweepWorkload(
        "rate-sweep",
        experiments=("rate-vs-K", "rate-vs-d"),
        algorithms=("optimal", "lr", "greedy", "all-offload"),
        realizations=100,
    ),
    "energy-sweep": SweepWorkload(
        "energy-sweep",
        experiments=("energy-vs-T", "energy-vs-d"),
        algorithms=("suboptimal", "all-offload"),
        realizations=100,
    ),
    "large-K": FrameWorkload(),
}


def combine_fingerprints(parts: dict) -> dict:
    """One digest per experiment (or for all frames) over the units in order."""
    grouped: dict = {}
    for key in sorted(parts, key=lambda k: (k.split("#")[0], int(k.split("#")[1]))):
        grouped.setdefault(key.split("#")[0], []).append(parts[key])
    return {name: _sha256("\n".join(digests)) for name, digests in grouped.items()}

