"""Replay the simplex layer of one certified `energy-sweep` round.

    python tools/lp_layer.py [--seed 20240] [--repeat 7]

Runs one round of the benchmark's `energy-sweep` workload (every grid point
of the stock energy-vs-T and energy-vs-d experiments, 100 realizations
each, certified; `perfbench/workloads.py` defines the inputs) and records
every `lp.solve_lps` call it makes.  It then prints:

* the calls, the lockstep stacks they make and the problems they hold;
* the lockstep steps (each pivot update of a stack's working problems,
  leaving out the pivots that drive artificials out after phase 1), the
  pivots those steps make, and the steps that pivot a fresh copy of the
  working stack rather than the stack the previous step pivoted;
* the best of `--repeat` wall times of replaying every recorded call,
  `lp.solve_lps` on the same problems in the same order;
* the best of `--repeat` wall times of building the standard form alone,
  `lp._standard_form` of every stack those calls make (each call's
  problems with variables, cut by `lp.stack_starts`), and the count of
  those stacks.

Imports mecoffload from this checkout's `src`.  Standard library and numpy
only.
"""

import argparse
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mecoffload import harness, lp  # noqa: E402
import workloads  # noqa: E402


def record_round(seed: int) -> list[list]:
    """The problem lists of every `lp.solve_lps` call of one certified round."""
    calls = []
    solve = lp.solve_lps

    def recording(problems):
        problems = list(problems)
        calls.append(problems)
        return solve(problems)

    workload = workloads.WORKLOADS["energy-sweep"]
    lib = SimpleNamespace(harness=harness)
    lp.solve_lps = recording
    try:
        for index in range(workload.round_units(lib)):
            harness.run_sweep(workload.inputs(lib, seed, index))
    finally:
        lp.solve_lps = solve
    return calls


def count_steps(calls: list[list]) -> dict:
    """Stacks, steps, pivots and copying steps of solving the calls once."""
    counts = dict(stacks=0, steps=0, pivots=0, copies=0)
    state = dict(dropping=False, last=None)
    pivots, drop, build = lp._pivots, lp._drop_artificials, lp._standard_form

    def address(array):
        return array.__array_interface__["data"][0]

    def building(problems):
        stack = build(problems)
        counts["stacks"] += 1
        state["last"] = address(stack.tableau)
        return stack

    def dropping(*args):
        state["dropping"] = True
        try:
            return drop(*args)
        finally:
            state["dropping"] = False

    def pivoting(stack, lps, *args, **kwargs):
        if not state["dropping"] and len(lps):
            counts["steps"] += 1
            counts["pivots"] += len(lps)
            if address(stack) != state["last"]:
                counts["copies"] += 1
            state["last"] = address(stack)
        return pivots(stack, lps, *args, **kwargs)

    lp._pivots, lp._drop_artificials, lp._standard_form = pivoting, dropping, building
    try:
        for problems in calls:
            lp.solve_lps(problems)
    finally:
        lp._pivots, lp._drop_artificials, lp._standard_form = pivots, drop, build
    return counts


def best_time(run, batches: list[list], repeat: int) -> float:
    """The least wall time, in seconds, of calling run on every batch in order."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        for problems in batches:
            run(problems)
        best = min(best, time.perf_counter() - start)
    return best


def stacks_of(calls: list[list]) -> list[list]:
    """The stacks `lp.solve_lps` builds for the calls, in order."""
    stacks = []
    for problems in calls:
        stacked = [problem for problem in problems if problem.n_vars]
        starts = lp.stack_starts(stacked)
        stacks += [stacked[a:b] for a, b in zip(starts, [*starts[1:], len(stacked)])]
    return stacks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    calls = record_round(args.seed)
    counts = count_steps(calls)
    seconds = best_time(lp.solve_lps, calls, args.repeat)
    stacks = stacks_of(calls)
    form_seconds = best_time(lp._standard_form, stacks, args.repeat)
    print(f"energy-sweep round, seed {args.seed}: {len(calls)} solve_lps calls, "
          f"{counts['stacks']} stacks, {sum(map(len, calls))} problems")
    print(f"lockstep steps {counts['steps']}, pivots {counts['pivots']}, "
          f"steps on a fresh copy of the working stack {counts['copies']}")
    print(f"solve_lps best of {args.repeat}: {1e3 * seconds:.1f} ms")
    print(f"standard form best of {args.repeat}: {1e3 * form_seconds:.1f} ms "
          f"over {len(stacks)} stacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
