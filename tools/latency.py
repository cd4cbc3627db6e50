"""Time one warm call of each solver, and the validation of its schedule, as K grows.

    python tools/latency.py [--seed 20240] [--repeat 3]

For K = 10, 100, 1000 and 10^4 it draws the instance of `--seed` at d = 0.05
(the stock ranges otherwise) and moves its deadline to max(1.5 s, 1.2 t_min).
It then prints two blocks, one line per timed function, each the best of
`--repeat` wall times of one call at every K, in ms:

* one warm call: `generate_instance` (the draw itself), `solve_rate_max`,
  `solve_energy_suboptimal`, `benchmark_greedy` and `feasibility_tmin`.
  One untimed call of each solver fills the instance's memos first, and
  `Instance.solved_sets` is cleared before each timed solve, so every timed
  call solves;
* validation of those solves: `validate_energy_schedule` and
  `validate_rate_schedule` of the two solvers' schedules, each followed by
  its time over that of the solve it checks.

Imports mecoffload from this checkout's `src`.  Standard library and numpy
only.
"""

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from mecoffload import (  # noqa: E402
    GenerationSpec,
    benchmark_greedy,
    feasibility_tmin,
    generate_instance,
    solve_energy_suboptimal,
    solve_rate_max,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
)

SIZES = (10, 100, 1000, 10_000)
CALLS = ("generate_instance", "solve_rate_max", "solve_energy_suboptimal", "benchmark_greedy",
         "feasibility_tmin")
# each validator, and the solve whose schedule it checks
VALIDATIONS = {"validate_energy_schedule": (validate_energy_schedule, "solve_energy_suboptimal"),
               "validate_rate_schedule": (validate_rate_schedule, "solve_rate_max")}


def best_ms(call, repeat: int, before=lambda: None) -> float:
    """The least wall time of `repeat` calls, in ms, with `before()` run
    untimed ahead of each."""
    best = math.inf
    for _ in range(repeat):
        before()
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def measure(n_users: int, seed: int, repeat: int) -> dict[str, float]:
    """Every timed function's best time at one K, in ms."""
    spec = GenerationSpec(n_users=n_users, degradation=0.05)
    base = generate_instance(spec, seed)
    instance = with_deadline(base, max(1.5, 1.2 * feasibility_tmin(base)))
    solvers = {
        "solve_rate_max": lambda: solve_rate_max(instance)[0],
        "solve_energy_suboptimal": lambda: solve_energy_suboptimal(instance),
        "benchmark_greedy": lambda: benchmark_greedy(instance),
    }
    schedules = {name: solve() for name, solve in solvers.items()}  # the untimed calls
    times = {"generate_instance": best_ms(lambda: generate_instance(spec, seed), repeat)}
    times.update((name, best_ms(solve, repeat, instance.solved_sets.clear))
                 for name, solve in solvers.items())
    times["feasibility_tmin"] = best_ms(lambda: feasibility_tmin(instance), repeat)
    for name, (validate, solve) in VALIDATIONS.items():
        schedule = schedules[solve]
        times[name] = best_ms(lambda: validate(instance, schedule), repeat)
    return times


def row(values) -> str:
    return " / ".join(f"{v:.3g}" for v in values)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    times = [measure(k, args.seed, args.repeat) for k in SIZES]
    sizes = " / ".join(map(str, SIZES))
    print(f"one warm call, ms at K = {sizes} (d = 0.05, deadline max(1.5 s, 1.2 t_min), "
          f"seed {args.seed}, best of {args.repeat})")
    for name in CALLS:
        print(f"{name}: {row(t[name] for t in times)}")
    print(f"validation of those solves, ms at K = {sizes}, then its time over the solve's")
    for name, (_, solve) in VALIDATIONS.items():
        print(f"{name}: {row(t[name] for t in times)}; "
              f"x {solve}: {row(t[name] / t[solve] for t in times)}")


if __name__ == "__main__":
    main()
