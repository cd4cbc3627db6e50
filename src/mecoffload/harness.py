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
import json
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .energy import benchmark_energy_all_offloading, feasibility_tmin, solve_energy_suboptimal
from .lp import BudgetExceededError
from .model import (
    ConfigurationError,
    EnergySchedule,
    GenerationSpec,
    ParseError,
    RateSchedule,
    generate_instance,
    read_instance,
    validate_energy_schedule,
    validate_rate_schedule,
    write_instance,
)
from .oracle import OracleBudget, brute_force_energy, brute_force_rate_max
from .rate import (
    benchmark_all_offloading,
    benchmark_greedy,
    benchmark_lr,
    per_size_table,
    solve_rate_max,
)
from .rng import mix64

__all__ = ["SweepSpec", "run_sweep", "cli_main", "main"]

RATE_ALGORITHMS = {
    "optimal": lambda inst: solve_rate_max(inst)[0],
    "greedy": benchmark_greedy,
    "lr": benchmark_lr,
    "all-offload": benchmark_all_offloading,
}

ENERGY_ALGORITHMS = {
    "suboptimal": solve_energy_suboptimal,
    "all-offload": benchmark_energy_all_offloading,
    "oracle": brute_force_energy,
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

    budget = OracleBudget()
    for gi, value in enumerate(spec.grid):
        results: dict[str, list[float]] = {name: [] for name in spec.algorithms}
        gaps: dict[str, list[float]] = {name: [] for name in spec.algorithms}
        certified: dict[str, int] = {name: 0 for name in spec.algorithms}
        for ri in range(spec.realizations):
            seed = mix64(spec.base_seed, gi, ri)
            instance = generate_instance(_generation_spec(spec, value), seed)
            reference = None
            if spec.certify and rate_side and instance.n_users <= budget.max_users_rate:
                reference = brute_force_rate_max(instance, budget)
            elif spec.certify and not rate_side:
                reference = brute_force_energy(instance, budget)
            for name in spec.algorithms:
                if rate_side:
                    schedule = RATE_ALGORITHMS[name](instance)
                    results[name].append(schedule.sum_rate)
                    if reference is not None:
                        gap = (reference.sum_rate - schedule.sum_rate) / reference.sum_rate
                        gaps[name].append(gap)
                        certified[name] += 1
                else:
                    schedule = ENERGY_ALGORITHMS[name](instance)
                    if schedule.status == "infeasible":
                        continue
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
    try:
        kind = doc["type"]
        scheduled = frozenset(int(i) for i in doc["scheduled"])
        bits = {int(k): float(v) for k, v in doc["offload_bits"].items()}
        te = float(doc["compute_time"])
        if kind == "rate":
            return RateSchedule(scheduled, bits, te, float(doc["sum_rate"]))
        if kind == "energy":
            objective = doc["objective"]
            total = doc["total_energy"]
            t_min = doc.get("t_min")
            return EnergySchedule(
                scheduled,
                bits,
                te,
                math.nan if objective is None else float(objective),
                math.nan if total is None else float(total),
                str(doc["status"]),
                None if t_min is None else float(t_min),
            )
        raise ParseError(f"unknown schedule type {kind!r}")
    except KeyError as exc:
        raise ParseError(f"schedule file missing field {exc.args[0]!r}") from exc


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


_SWEEP_FIELDS = {f.name for f in fields(SweepSpec)}


def sweep_spec_from_doc(doc: dict) -> SweepSpec:
    for key in doc:
        if key not in _SWEEP_FIELDS:
            raise ConfigurationError(f"unknown sweep field {key!r}")
    if "experiment" not in doc:
        raise ConfigurationError("sweep spec missing field 'experiment'")
    kwargs = dict(doc)
    if "grid" in kwargs:
        kwargs["grid"] = tuple(float(v) for v in kwargs["grid"])
    if "algorithms" in kwargs:
        kwargs["algorithms"] = tuple(str(a) for a in kwargs["algorithms"])
    return SweepSpec(**kwargs)


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
