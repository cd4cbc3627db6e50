"""Brute-force reference solvers.

These certify the fast solvers on small instances and supply the expected
values frozen into the tests.  They stay deliberately simple: evaluate the
closed form on every subset for the rate side, solve one LP per optional
subset on the energy side, and refuse anything beyond the enumeration
budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import energy as energymod
from . import lp as lpmod
from .lp import BudgetExceededError
from .model import EnergySchedule, Instance, RateSchedule
from .rate import conditional_solution

__all__ = [
    "OracleBudget",
    "BudgetExceededError",
    "brute_force_rate_max",
    "brute_force_energy",
    "brute_force_energy_batch",
]

_TIE_RTOL = 1e-12  # floating-point equality is meaningless; ties are relative


@dataclass(frozen=True)
class OracleBudget:
    max_users_rate: int = 12
    max_optional_energy: int = 12
    time_limit_s: float = 60.0

    def __post_init__(self):
        if self.max_users_rate < 1 or self.max_optional_energy < 0 or self.time_limit_s <= 0:
            raise ValueError("oracle budget limits must be positive")


_DEFAULT_BUDGET = OracleBudget()


def _subset_tuple(mask: int, ids: list[int]) -> tuple[int, ...]:
    return tuple(ids[k] for k in range(len(ids)) if (mask >> k) & 1)


def brute_force_rate_max(instance: Instance, budget: OracleBudget = _DEFAULT_BUDGET) -> RateSchedule:
    """Evaluate the fixed-set rate for every nonempty subset and keep the best
    (lexicographically smallest subset on ties).  Raises if the winner's rate
    exceeds its slowest member's transmission rate, which would contradict
    the optimality structure the fast solver relies on."""
    K = instance.n_users
    if K == 0:
        raise ValueError("instance has no users")
    if K > budget.max_users_rate:
        raise BudgetExceededError(f"{K} users exceed the rate oracle budget {budget.max_users_rate}")

    ids = np.arange(K)
    masks = np.arange(1, 1 << K, dtype=np.int64)
    bits = ((masks[:, None] >> ids[None, :]) & 1).astype(float)
    service = instance.service_rate
    num = bits @ (instance.weight * service)
    den = (1.0 + instance.degradation) ** (bits.sum(axis=1) - 1.0) + bits @ (
        instance.roundtrip_time_per_bit * service
    )
    rates = num / den

    best = float(np.max(rates))
    tied = np.nonzero(rates >= best - _TIE_RTOL * (1.0 + best))[0]
    id_list = list(range(K))
    winner = min(_subset_tuple(int(masks[i]), id_list) for i in tied)

    solution = conditional_solution(instance, winner)
    if not solution.satisfies_necessary_condition:
        raise RuntimeError(
            "internal consistency failure: brute-force winner exceeds its slowest member's rate"
        )
    return solution.as_schedule()


def brute_force_energy_batch(
    instances, budget: OracleBudget = _DEFAULT_BUDGET
) -> list[EnergySchedule]:
    """`brute_force_energy` of each instance, with the subset LPs of all of
    them solved together, `lp.MAX_BATCH` to a stack.  The time guard covers
    the whole batch: it is checked before each subset's LP is built and
    before each stack is solved, as the scalar loop checked it before each
    LP."""
    instances = list(instances)
    deadline = time.monotonic() + budget.time_limit_s

    def check_time():
        if time.monotonic() > deadline:
            raise BudgetExceededError("energy oracle time guard exceeded")

    plans = []  # per instance: its partition and (subset, LP, finish) per subset
    for instance in instances:
        partition = energymod.partition_users(instance)
        optional = sorted(partition.free_saving)
        if len(optional) > budget.max_optional_energy:
            raise BudgetExceededError(
                f"{len(optional)} optional users exceed the energy oracle budget "
                f"{budget.max_optional_energy}"
            )
        subsets = []
        for mask in range(1 << len(optional)):
            check_time()
            s1 = _subset_tuple(mask, optional)
            subsets.append((s1, *energymod._subset_lp(instance, partition, s1)))
        plans.append((instance, partition, subsets))
    problems = [p for _, _, subsets in plans for _, p, _ in subsets if p is not None]
    solved = []
    for start in range(0, len(problems), lpmod.MAX_BATCH):
        check_time()
        solved += lpmod.solve_lps(problems[start : start + lpmod.MAX_BATCH])
    solutions = iter(solved)
    return [
        _least_energy(instance, partition, [
            (s1, finish(None if p is None else next(solutions))) for s1, p, finish in subsets
        ])
        for instance, partition, subsets in plans
    ]


def _least_energy(instance: Instance, partition, results) -> EnergySchedule:
    """The least-energy schedule over (subset, subset LP result) pairs, the
    smallest subset tuple among ties; infeasible where every result is
    None."""
    best = None  # (subset tuple, schedule)
    for s1, result in results:
        if result is None:
            continue
        bits, te = result
        schedule = energymod._assemble(instance, partition, frozenset(s1), bits, te, "lp-path")
        if best is not None:
            incumbent = best[1].objective
            tol = _TIE_RTOL * (1.0 + abs(incumbent))
            better = schedule.objective < incumbent - tol
            if not better and not (schedule.objective <= incumbent + tol and s1 < best[0]):
                continue
        best = (s1, schedule)
    if best is None:
        return energymod._infeasible(instance, energymod.feasibility_tmin(instance).t_min)
    return best[1]


def brute_force_energy(instance: Instance, budget: OracleBudget = _DEFAULT_BUDGET) -> EnergySchedule:
    """Exact minimum-energy schedule by enumerating every optional subset.

    Once the optional set is fixed the problem is an LP (the interference
    exponent is a constant), so enumerating subsets of the free saving users
    covers all the combinatorial freedom.  Infeasible overall only if every
    subset's LP is infeasible.
    """
    return brute_force_energy_batch([instance], budget)[0]
