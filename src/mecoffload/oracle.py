"""Brute-force reference solvers.

These certify the fast solvers on small instances and supply the expected
values frozen into the tests, and refuse anything beyond the enumeration
budget.  The rate side evaluates the closed form on every subset.  The
energy side is exact over every subset of the optional users too, but it
solves the LP of the full subset first and skips each other subset whose
full-offload bound (every member offloading its whole task, the least
energy it could spend) cannot come within the tie tolerance of the full
subset's optimum.  That is the first step of a branch and bound (Land and
Doig, 1960); the winner is the one, bit for bit, that solving every subset
picks.

Both sides read their subsets from one read-only table per size
(`_subset_table`), built on first use and memoised up to 12 users, the
default budgets.
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


_TABLE_MEMO_MAX = 12  # the default budgets; the tables up to here take under 1 MB
_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _subset_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The subsets of n items as read-only arrays: `masks` (int64, 0 ...
    2^n - 1), `bits` (float64, 2^n x n, row i holds the bits of mask i) and
    `sizes` (float64, the member count less one of every nonempty mask, in
    mask order).  Tables up to n = `_TABLE_MEMO_MAX` are built on first use
    and kept; larger ones are built per call and not kept."""
    table = _tables.get(n)
    if table is None:
        masks = np.arange(1 << n, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        sizes = bits[1:].sum(axis=1) - 1.0
        for array in (masks, bits, sizes):
            array.setflags(write=False)
        table = (masks, bits, sizes)
        if n <= _TABLE_MEMO_MAX:
            _tables[n] = table
    return table


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

    masks, bits, sizes = _subset_table(K)
    masks, bits = masks[1:], bits[1:]  # the nonempty subsets, as views
    service = instance.service_rate
    num = bits @ (instance.weight * service)
    den = (1.0 + instance.degradation) ** sizes + bits @ (
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
    them solved together, in stacks cut as `lp.solve_lps` cuts them, in two
    stages.

    The first stage solves every instance's full subset (all its free
    saving users).  The second builds and solves each other subset only
    where its full-offload bound (`_offload_bounds`) is not above the full
    subset's objective plus `_prune_margin`, which keeps the winner the one,
    bit for bit, that solving every subset would pick.  Where the full
    subset is infeasible, no subset is skipped.  The time guard covers the
    whole batch: it is checked before each subset's LP is built and before
    each stack is solved, in both stages, as the scalar loop checked it
    before each LP."""
    instances = list(instances)
    deadline = time.monotonic() + budget.time_limit_s

    def check_time():
        if time.monotonic() > deadline:
            raise BudgetExceededError("energy oracle time guard exceeded")

    def solve(plans):
        """`energy._solve` of the (LP, finish) plans, a stack
        (`lp.stack_starts`) at a time: a schedule per plan, None where a
        subset is infeasible."""
        with_lp = [k for k, (problem, _) in enumerate(plans) if problem is not None]
        starts = lpmod.stack_starts(plans[k][0] for k in with_lp)
        cuts = [0, *(with_lp[start] for start in starts[1:]), len(plans)]
        schedules = []
        for start, stop in zip(cuts, cuts[1:]):
            check_time()
            schedules += energymod._solve(plans[start:stop])
        return schedules

    def subset_plan(instance, partition, s1):
        check_time()
        return energymod._subset_lp(instance, partition, s1)

    cases = []  # per instance: its partition and its optional users in id order
    for instance in instances:
        partition = energymod.partition_users(instance)
        optional = sorted(partition.free_saving)
        if len(optional) > budget.max_optional_energy:
            raise BudgetExceededError(
                f"{len(optional)} optional users exceed the energy oracle budget "
                f"{budget.max_optional_energy}"
            )
        cases.append((instance, partition, optional))
    fulls = solve([subset_plan(*case) for case in cases])

    others = []  # per instance: the other subsets that could win, in mask order
    for (instance, partition, optional), full in zip(cases, fulls):
        masks = range((1 << len(optional)) - 1)
        if masks and full is not None:
            bounds, scale = _offload_bounds(instance, partition, optional)
            ceiling = full.objective + _prune_margin(scale, len(optional))
            masks = [mask for mask in masks if not bounds[mask] > ceiling]
        others.append([_subset_tuple(m, optional) for m in masks])
    schedules = iter(solve([
        subset_plan(instance, partition, s1)
        for (instance, partition, _), subsets in zip(cases, others) for s1 in subsets
    ]))
    return [
        _least_energy(instance, [
            *((s1, next(schedules)) for s1 in subsets),
            (tuple(optional), full),
        ])
        for (instance, _, optional), subsets, full in zip(cases, others, fulls)
    ]


def _offload_bounds(instance: Instance, partition, optional: list[int]):
    """Per subset mask over `optional`, a lower bound on the objective of its
    subset LP, and the scale sum_k |delta_k| L_k over every user.

    The bound is the id-ordered sum of delta * b over every user, with b
    the whole task L for the forced saving users and the subset's members,
    the forced minimum for the forced costly users, and 0 for everyone
    else (`energy._commitment`).  Every LP member saves energy per bit
    (delta < 0) and offloads at most L, and every other user's bits are
    what the schedule assembly gives it, so no feasible point of the LP
    spends less (up to the allowances of `_prune_margin`)."""
    base, _ = energymod._commitment(instance, partition, ())
    ids = np.asarray(optional, dtype=np.intp)
    _, chosen, _ = _subset_table(ids.size)
    bits = np.repeat(base[None, :], len(chosen), axis=0)
    bits[:, ids] = np.where(chosen != 0.0, instance.task_bits[ids], 0.0)
    # accumulate adds left to right, in user id order, as the objective does
    delta = instance.delta_per_bit
    bounds = np.add.accumulate(bits * delta, axis=1)[:, -1]
    scale = np.add.accumulate(np.abs(delta * instance.task_bits))[-1]
    return bounds.tolist(), scale.item()


_BOX_RTOL = 1e-6  # of the scale: the simplex's box slack and the sums' rounding


def _prune_margin(scale: float, n_optional: int) -> float:
    """How far a subset's bound must lie above the full subset's objective
    F before the subset is skipped, for instances with `n_optional` free
    saving users and bound scale W (`_offload_bounds`).

    The margin is 1e-6 W + (2^n + 2) t, with t = _TIE_RTOL (1 + W).

    * A skipped subset's objective o exceeds its bound less 1e-6 W.  The
      simplex may leave a member a little above L, which lowers its term
      by |delta| times the excess; a basic value beyond its box by more
      than rounding would break the simplex's FEAS_TOL (1e-9) already.
      The bound and the objective are each K-term sums of products, off by
      at most K u W (u = 2^-53) from their exact values, 1e-12 W at
      K = 10^4.  So o > F + (2^n + 2) t.
    * No objective exceeds W in size (every b lies in [0, L]), so t bounds
      every tie tolerance `_least_energy` uses.
    * `_least_energy` visits the subsets in mask order and the full subset
      last.  Compare that loop over every subset with the loop over the
      kept ones.  While the two hold the same incumbent, a skipped subset
      either leaves the first unchanged or takes its place, and then both
      incumbents exceed F + (2^n + 1) t: the replaced one is at least the
      newcomer less one tolerance.  While they differ, a kept subset that
      only one loop takes is one the other turned down, so it lies at most
      one tolerance below the other's incumbent: each visit lowers the
      lesser of the two by at most t.  At most 2^n - 1 subsets come before
      the full subset, so both still exceed F + 2t when it arrives, and
      both loops take it as strictly better.  Where they agree, they agree
      to the end.

    An overflowed or nan scale gives no finite margin, and nothing is
    skipped."""
    return _BOX_RTOL * scale + ((1 << n_optional) + 2) * _TIE_RTOL * (1.0 + scale)


def _least_energy(instance: Instance, candidates) -> EnergySchedule:
    """The least-energy schedule among (subset tuple, schedule or None)
    pairs, taken in order, the smallest subset tuple among ties; infeasible
    where every schedule is None."""
    best = None  # (subset tuple, schedule)
    for s1, schedule in candidates:
        if schedule is None:
            continue
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
