"""Experiment sweeps and the command-line interface.

A sweep runs a grid of system parameters, draws a fixed number of random
instances per grid point (each realization's seed is a hash of base seed,
grid index, and realization index, so streams are independent of execution
order), applies the requested algorithms, and emits one CSV row per grid
point and algorithm with the mean metric and its standard error.  Output is
byte-stable: the same spec and seed always produce the same file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .energy import (
    benchmark_energy_all_offloading_batch,
    feasibility_tmin,
    partition_users,
    solve_energy_suboptimal,
    solve_energy_suboptimal_batch,
)
from .lp import BudgetExceededError, shared_solutions, stack_capacity
from .model import (
    ConfigurationError,
    EnergySchedule,
    GenerationSpec,
    ParseError,
    RateSchedule,
    _is_int,
    _is_number,
    _number,
    _read_json,
    _require,
    generate_instance,
    generate_instances,
    read_instance,
    validate_energy_schedule,
    validate_rate_schedule,
    write_instance,
)
from .oracle import (
    OracleBudget,
    brute_force_energy,
    brute_force_energy_batch,
    brute_force_rate_max,
)
from .rate import (
    benchmark_all_offloading,
    benchmark_greedy,
    per_size_table,
    solve_rate_max,
    solve_rate_max_batch,
)
from .rng import mix64

__all__ = ["SweepSpec", "run_sweep", "cli_main", "main"]


def _optimal_schedules(instances):
    return [schedule for schedule, _ in solve_rate_max_batch(instances)]


# Each algorithm takes a block of a grid point's realizations (`_block`),
# drawn with one `generate_instances` call, and returns their schedules in
# realization order.  The rate batch runs the block's Dinkelbach loops in
# lockstep.  The energy batches, and the certifying energy oracle, solve the
# block's LPs together in stacks cut by `lp.stack_starts`.  The per-instance
# entries look their function up at each call, so that a wrapper set on this
# module's name is the one called.
# The LP-relaxation benchmark is the exact solve (see rate.benchmark_lr), so
# "lr" shares the "optimal" callable and a sweep solves it once per instance.
RATE_ALGORITHMS = {
    "optimal": _optimal_schedules,
    "greedy": lambda instances: [benchmark_greedy(i) for i in instances],
    "lr": _optimal_schedules,
    "all-offload": lambda instances: [benchmark_all_offloading(i) for i in instances],
}

ENERGY_ALGORITHMS = {
    "suboptimal": solve_energy_suboptimal_batch,
    "all-offload": benchmark_energy_all_offloading_batch,
    "oracle": brute_force_energy_batch,
}

RATE_EXPERIMENTS = ("rate-vs-K", "rate-vs-d")
ENERGY_EXPERIMENTS = ("energy-vs-T", "energy-vs-d")
EXPERIMENTS = RATE_EXPERIMENTS + ENERGY_EXPERIMENTS

_D_GRID = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)

# Stock grids.  The energy deadlines sit where the stock task and CPU
# distributions actually admit schedules: the forced offload load alone needs
# a few hundred ms of radio and VM time (smallest feasible deadlines average
# 0.30 s at K=10, d=0.2), so millisecond-scale deadlines are infeasible for
# every algorithm; see feasibility_tmin.
DEFAULT_GRIDS = {
    "rate-vs-K": tuple(float(k) for k in range(4, 13)),
    "rate-vs-d": _D_GRID,
    "energy-vs-T": tuple(round(0.35 + 0.05 * i, 10) for i in range(7)),  # 0.35 .. 0.65 s
    "energy-vs-d": _D_GRID,
}

DEFAULT_FIXED = {
    "rate-vs-K": {"degradation": 0.1, "n_users": 10, "deadline_s": 0.035},
    "rate-vs-d": {"degradation": 0.1, "n_users": 10, "deadline_s": 0.035},
    "energy-vs-T": {"degradation": 0.2, "n_users": 10, "deadline_s": 0.45},
    "energy-vs-d": {"degradation": 0.2, "n_users": 10, "deadline_s": 0.65},
}

DEFAULT_ALGORITHMS = {
    "rate-vs-K": ("optimal", "lr", "greedy", "all-offload"),
    "rate-vs-d": ("optimal", "lr", "greedy", "all-offload"),
    "energy-vs-T": ("suboptimal", "all-offload"),
    "energy-vs-d": ("suboptimal", "all-offload"),
}


@dataclass(frozen=True)
class SweepSpec:
    experiment: str
    grid: tuple[float, ...] = ()
    realizations: int = 500
    base_seed: int = 20240
    algorithms: tuple[str, ...] = ()
    n_users: int = 0  # 0 means the experiment default
    degradation: float = -1.0  # negative means the experiment default
    deadline_s: float = 0.0  # nonpositive means the experiment default
    certify: bool = False
    out: str | None = None

    def normalized(self) -> "SweepSpec":
        if self.experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; valid: {', '.join(EXPERIMENTS)}"
            )
        fixed = DEFAULT_FIXED[self.experiment]
        grid = self.grid or DEFAULT_GRIDS[self.experiment]
        algorithms = self.algorithms or DEFAULT_ALGORITHMS[self.experiment]
        valid = RATE_ALGORITHMS if self.experiment in RATE_EXPERIMENTS else ENERGY_ALGORITHMS
        for name in algorithms:
            if name not in valid:
                raise ConfigurationError(
                    f"unknown algorithm {name!r} for {self.experiment}; "
                    f"valid: {', '.join(sorted(valid))}"
                )
        if not grid:
            raise ConfigurationError("grid must be nonempty")
        if self.realizations < 1:
            raise ConfigurationError("realizations must be >= 1")
        return replace(
            self,
            grid=tuple(float(v) for v in grid),
            algorithms=tuple(algorithms),
            n_users=self.n_users if self.n_users > 0 else fixed["n_users"],
            degradation=self.degradation if self.degradation >= 0 else fixed["degradation"],
            deadline_s=self.deadline_s if self.deadline_s > 0 else fixed["deadline_s"],
        )


def _generation_spec(spec: SweepSpec, value: float) -> GenerationSpec:
    n_users, degradation, deadline = spec.n_users, spec.degradation, spec.deadline_s
    if spec.experiment == "rate-vs-K":
        n_users = int(round(value))
    elif spec.experiment in ("rate-vs-d", "energy-vs-d"):
        degradation = value
    elif spec.experiment == "energy-vs-T":
        deadline = value
    return GenerationSpec(n_users=n_users, deadline_s=deadline, degradation=degradation)


_PARAM_NAME = {
    "rate-vs-K": "n_users",
    "rate-vs-d": "degradation",
    "energy-vs-T": "deadline_s",
    "energy-vs-d": "degradation",
}


def _block(n_users: int) -> int:
    """Realizations per sweep block, rate or energy: as many as one LP stack
    holds all-offload LPs of n_users users, 2K + 1 rows over K + 1 columns
    (`energy._subset_lp`).  An energy block's LPs then fill whole stacks,
    and no block's memory grows with the realization count."""
    return stack_capacity(2 * n_users + 1, n_users + 1)


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, stderr


def run_sweep(spec: SweepSpec) -> str:
    """Run the sweep and return the CSV text (also written to spec.out)."""
    spec = spec.normalized()
    rate_side = spec.experiment in RATE_EXPERIMENTS
    param = _PARAM_NAME[spec.experiment]
    header = ["experiment", "param", "value", "algorithm", "realizations"]
    if rate_side:
        header += ["mean_rate_bps", "stderr_rate_bps"]
    else:
        header += ["feasible", "mean_total_energy_j", "stderr_total_energy_j"]
    if spec.certify:
        header += ["certified", "max_rel_gap"]
    lines = [",".join(header)]

    algorithms = RATE_ALGORITHMS if rate_side else ENERGY_ALGORITHMS
    budget = OracleBudget()
    for gi, value in enumerate(spec.grid):
        results: dict[str, list[float]] = {name: [] for name in spec.algorithms}
        gaps: dict[str, list[float]] = {name: [] for name in spec.algorithms}
        certified: dict[str, int] = {name: 0 for name in spec.algorithms}
        generation = _generation_spec(spec, value)
        block = min(spec.realizations, _block(generation.n_users))
        for first in range(0, spec.realizations, block):
            instances = generate_instances(generation, [
                mix64(spec.base_seed, gi, ri)
                for ri in range(first, min(first + block, spec.realizations))
            ])
            # An energy block solves each distinct LP once: the oracle runs
            # first, and the all-offload LP is its full-subset LP wherever no
            # user is costly, the heuristic's LP branch its empty-subset LP
            # unless the oracle skipped that subset.
            with contextlib.nullcontext() if rate_side else shared_solutions():
                references = [None] * len(instances)
                solved = {}  # the block's schedules per distinct algorithm callable
                if spec.certify and rate_side:
                    references = [
                        brute_force_rate_max(i, budget)
                        if i.n_users <= budget.max_users_rate else None
                        for i in instances
                    ]
                elif spec.certify:
                    # the references are the oracle row's schedules too
                    references = solved[algorithms["oracle"]] = algorithms["oracle"](instances)
                for name in spec.algorithms:
                    algorithm = algorithms[name]
                    if algorithm not in solved:
                        solved[algorithm] = algorithm(instances)
            for name in spec.algorithms:
                for schedule, reference in zip(solved[algorithms[name]], references):
                    if rate_side:
                        results[name].append(schedule.sum_rate)
                        if reference is not None:
                            gap = (reference.sum_rate - schedule.sum_rate) / reference.sum_rate
                            gaps[name].append(gap)
                            certified[name] += 1
                    elif schedule.status != "infeasible":
                        results[name].append(schedule.total_energy)
                        if reference is not None and reference.status != "infeasible":
                            gap = (schedule.total_energy - reference.total_energy) / abs(
                                reference.total_energy
                            )
                            gaps[name].append(gap)
                            certified[name] += 1
        for name in spec.algorithms:
            row = [spec.experiment, param, repr(float(value)), name, str(spec.realizations)]
            values = results[name]
            if rate_side:
                mean, stderr = _mean_stderr(values)
                row += [repr(mean), repr(stderr)]
            else:
                row.append(str(len(values)))
                if values:
                    mean, stderr = _mean_stderr(values)
                    row += [repr(mean), repr(stderr)]
                else:
                    row += ["", ""]
            if spec.certify:
                row.append(str(certified[name]))
                row.append(repr(max(gaps[name], default=0.0)))
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if spec.out:
        with open(spec.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Schedule files
# ---------------------------------------------------------------------------


def _float_or_null(v: float | None):
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return None
    return v


def schedule_to_doc(schedule) -> dict:
    doc = {
        "scheduled": sorted(schedule.scheduled),
        "offload_bits": {str(k): v for k, v in sorted(schedule.offload_bits.items())},
        "compute_time": schedule.compute_time,
    }
    if isinstance(schedule, RateSchedule):
        doc["type"] = "rate"
        doc["sum_rate"] = schedule.sum_rate
    else:
        doc["type"] = "energy"
        doc["objective"] = _float_or_null(schedule.objective)
        doc["total_energy"] = _float_or_null(schedule.total_energy)
        doc["status"] = schedule.status
        doc["t_min"] = _float_or_null(schedule.t_min)
    return doc


def schedule_from_doc(doc: dict):
    """A schedule from its `schedule_to_doc` form.  A missing field, or a
    value of the wrong JSON type (a bool is not a number), is a
    `ParseError` naming its field."""
    where = "schedule file"
    scheduled, bits = _require(doc, "scheduled", where), _require(doc, "offload_bits", where)
    if not isinstance(scheduled, list) or not all(map(_is_int, scheduled)):
        raise ParseError(f"{where}: scheduled must be an array of user ids")
    if not isinstance(bits, dict) or not all(isinstance(k, str) and k.isdecimal() for k in bits):
        raise ParseError(f"{where}: offload_bits must be an object keyed by user id")
    bits = {int(k): _number(bits, k, f"{where}: offload_bits") for k in bits}
    common = (frozenset(scheduled), bits, _number(doc, "compute_time", where))
    kind = _require(doc, "type", where)
    if kind == "rate":
        return RateSchedule(*common, _number(doc, "sum_rate", where))
    if kind != "energy":
        raise ParseError(f"unknown schedule type {kind!r}")
    if not isinstance(status := _require(doc, "status", where), str):
        raise ParseError(f"{where}: status must be a string")
    objective, total = (
        math.nan if _require(doc, key, where) is None else _number(doc, key, where)
        for key in ("objective", "total_energy")
    )
    t_min = None if doc.get("t_min") is None else _number(doc, "t_min", where)
    return EnergySchedule(*common, objective, total, status, t_min)


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# The JSON form of each `SweepSpec` field type: its name and its test.
_JSON_TYPES = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple[float, ...]": ("an array of numbers", lambda v: isinstance(v, list)
                          and all(map(_is_number, v))),
    "tuple[str, ...]": ("an array of strings", lambda v: isinstance(v, list)
                        and all(isinstance(a, str) for a in v)),
}
_SWEEP_TYPES = {f.name: _JSON_TYPES[f.type] for f in fields(SweepSpec)}


def sweep_spec_from_doc(doc: dict) -> SweepSpec:
    """A sweep spec from its JSON form, with `SweepSpec` field names.  An
    unknown or missing field, or a value of the wrong JSON type, is a
    `ConfigurationError` naming its field."""
    for key, value in doc.items():
        if key not in _SWEEP_TYPES:
            raise ConfigurationError(f"unknown sweep field {key!r}")
        kind, test = _SWEEP_TYPES[key]
        if not test(value):
            raise ConfigurationError(f"sweep field {key!r} must be {kind}")
    if "experiment" not in doc:
        raise ConfigurationError("sweep spec missing field 'experiment'")
    return SweepSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, exit 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="mecoffload", description="Edge offloading schedulers and benchmarks")
    parser.add_argument("--version", action="version", version=f"mecoffload {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a random instance and write it to a file")
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degradation", type=float, default=0.1)
    p.add_argument("--deadline-ms", type=float, default=35.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve-rate", help="maximize the weighted sum offloading rate")
    p.add_argument("instance")
    p.add_argument("--out", help="write the schedule as JSON")
    p.add_argument("--table", help="write the per-cardinality diagnostic table as CSV")

    p = sub.add_parser("solve-energy", help="minimize the total mobile energy")
    p.add_argument("instance")
    p.add_argument("--out", help="write the schedule as JSON")

    p = sub.add_parser("tmin", help="smallest feasible deadline for the energy problem")
    p.add_argument("instance")

    p = sub.add_parser("validate", help="check a schedule file against an instance")
    p.add_argument("instance")
    p.add_argument("schedule")

    p = sub.add_parser("sweep", help="run an experiment sweep and emit CSV")
    p.add_argument("spec", nargs="?", help="sweep spec file (JSON); flags override its fields")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--seed", type=int)
    p.add_argument("--realizations", type=int)
    p.add_argument("--out")
    p.add_argument("--algorithms", help="comma-separated algorithm names")
    p.add_argument("--grid", help="comma-separated grid values")
    p.add_argument("--certify", action="store_true", default=None)

    p = sub.add_parser("certify", help="compare the fast solvers against the brute-force oracles")
    p.add_argument("instance")
    return parser


def _cmd_generate(args) -> int:
    spec = GenerationSpec(
        n_users=args.users,
        deadline_s=args.deadline_ms / 1000.0,
        degradation=args.degradation,
    )
    write_instance(generate_instance(spec, args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_solve_rate(args) -> int:
    instance = read_instance(args.instance)
    schedule, _ = solve_rate_max(instance)
    print(f"scheduled: {sorted(schedule.scheduled)}")
    print(f"sum_rate_bps: {schedule.sum_rate!r}")
    print(f"compute_time_s: {schedule.compute_time!r}")
    if args.out:
        _write_json(schedule_to_doc(schedule), args.out)
    if args.table:
        lines = ["m,rate_bps,iterations,selected"]
        for row in per_size_table(instance):
            sel = "|".join(str(i) for i in sorted(row.selected))
            lines.append(f"{row.m},{row.rate!r},{row.iterations},{sel}")
        with open(args.table, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_solve_energy(args) -> int:
    instance = read_instance(args.instance)
    schedule = solve_energy_suboptimal(instance)
    print(f"status: {schedule.status}")
    if schedule.status == "infeasible":
        print(f"t_min_s: {schedule.t_min!r}")
    else:
        print(f"scheduled: {sorted(schedule.scheduled)}")
        print(f"total_energy_j: {schedule.total_energy!r}")
        print(f"compute_time_s: {schedule.compute_time!r}")
    if args.out:
        _write_json(schedule_to_doc(schedule), args.out)
    return 0


def _cmd_tmin(args) -> int:
    instance = read_instance(args.instance)
    print(f"{feasibility_tmin(instance).t_min!r} s")
    return 0


def _cmd_validate(args) -> int:
    instance = read_instance(args.instance)
    doc = _read_json(args.schedule)
    schedule = schedule_from_doc(doc)
    if isinstance(schedule, RateSchedule):
        report = validate_rate_schedule(instance, schedule)
    else:
        report = validate_energy_schedule(instance, schedule)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_sweep(args) -> int:
    if args.spec:
        spec = sweep_spec_from_doc(_read_json(args.spec))
    elif args.experiment:
        spec = SweepSpec(experiment=args.experiment)
    else:
        raise _UsageError("sweep needs a spec file or --experiment")
    overrides = {}
    if args.experiment:
        overrides["experiment"] = args.experiment
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.realizations is not None:
        overrides["realizations"] = args.realizations
    if args.out is not None:
        overrides["out"] = args.out
    if args.algorithms is not None:
        overrides["algorithms"] = tuple(s.strip() for s in args.algorithms.split(",") if s.strip())
    if args.grid is not None:
        try:
            overrides["grid"] = tuple(float(v) for v in args.grid.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigurationError(f"bad --grid value: {exc}") from exc
    if args.certify is not None:
        overrides["certify"] = args.certify
    spec = replace(spec, **overrides)
    text = run_sweep(spec)
    if not spec.out:
        sys.stdout.write(text)
    else:
        print(f"wrote {spec.out}")
    return 0


def _cmd_certify(args) -> int:
    instance = read_instance(args.instance)
    budget = OracleBudget()
    code = 0

    if instance.n_users <= budget.max_users_rate:
        fast, _ = solve_rate_max(instance)
        reference = brute_force_rate_max(instance, budget)
        rel = abs(fast.sum_rate - reference.sum_rate) / max(reference.sum_rate, 1e-300)
        if rel <= 1e-9:
            print("rate: MATCH (rel err < 1e-9)")
        else:
            print(f"rate: MISMATCH (rel err = {rel:.3e})")
            code = 1
    else:
        print("rate: SKIPPED (instance above oracle budget)")

    n_optional = len(partition_users(instance).free_saving)
    if n_optional > budget.max_optional_energy:
        print(f"energy: SKIPPED ({n_optional} optional users above oracle budget)")
        return code
    schedule = solve_energy_suboptimal(instance)
    reference = brute_force_energy(instance, budget)
    if schedule.status == "infeasible" and reference.status == "infeasible":
        print(f"energy: both infeasible (t_min = {reference.t_min!r} s)")
    elif schedule.status == "infeasible" or reference.status == "infeasible":
        print("energy: MISMATCH (feasibility disagreement)")
        code = 1
    else:
        gap = (schedule.total_energy - reference.total_energy) / abs(reference.total_energy)
        if gap < -1e-9:
            print(f"energy: MISMATCH (scheduler beat the oracle by {-gap:.3e})")
            code = 1
        else:
            print(f"energy gap: {100.0 * max(gap, 0.0):.4f}%")
    return code


_COMMANDS = {
    "generate": _cmd_generate,
    "solve-rate": _cmd_solve_rate,
    "solve-energy": _cmd_solve_energy,
    "tmin": _cmd_tmin,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
    "certify": _cmd_certify,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
