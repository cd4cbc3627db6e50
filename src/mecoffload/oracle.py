"""Brute-force reference solvers.

These certify the fast solvers on small instances and supply the expected
values frozen into the tests, and refuse anything beyond the enumeration
budget.  The rate side evaluates the closed-form rate of every subset, its
sums built by one addition per subset from the subset less its top member
(`_subset_sums`).  The energy side is exact over every subset of the
optional users too, but it solves the LP of the full subset first and
skips each other subset whose full-offload bound (every member offloading
its whole task, the least energy it could spend) cannot come within the
tie tolerance of the full subset's optimum.  That is the first step of a
branch and bound (Land and Doig, 1960); the winner is the one, bit for
bit, that solving every subset picks.

The energy side reads its subsets from one read-only table per size
(`_subset_table`), built on first use and memoised up to 12 users, the
default budget.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import energy as energymod
from . import lp as lpmod
from .lp import BudgetExceededError
from .model import (
    EnergySchedule,
    Instance,
    RateSchedule,
    block_columns,
    derive_energy_columns,
    per_user_count,
    sums_in_order,
)
from .rate import _closed_forms, _penalties, _per_user_count

__all__ = [
    "OracleBudget",
    "BudgetExceededError",
    "brute_force_rate_max",
    "brute_force_rate_max_batch",
    "brute_force_energy",
    "brute_force_energy_batch",
]

_TIE_RTOL = 1e-12  # floating-point equality is meaningless; ties are relative
_CHUNK_ENTRIES = 1 << 16  # doubles per (2^K, rows) subset-sum array of the rate oracle


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
_tables: dict[int, np.ndarray] = {}


def _subset_table(n: int) -> np.ndarray:
    """The subsets of n items as a read-only float64 (2^n, n) array, row i
    holding the bits of mask i.  Tables up to n = `_TABLE_MEMO_MAX` are
    built on first use and kept; larger ones are built per call and not
    kept."""
    table = _tables.get(n)
    if table is None:
        masks = np.arange(1 << n, dtype=np.int64)
        table = ((masks[:, None] >> np.arange(n)) & 1).astype(float)
        table.setflags(write=False)
        if n <= _TABLE_MEMO_MAX:
            _tables[n] = table
    return table


def _subset_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of every subset of the K rows of terms, a (K, columns) array,
    as a (2^K, columns) array in mask order.  Row 0 is zero, and the row of
    each other mask is the row of the mask without its top bit plus the top
    bit's terms: one addition per subset and column, each subset adding its
    members in ascending id from 0.0."""
    sums = np.empty((1 << len(terms), terms.shape[1]))
    sums[0] = 0.0
    for k, term in enumerate(terms):
        np.add(sums[: 1 << k], term, out=sums[1 << k : 2 << k])
    return sums


def _subset_tuple(mask: int, ids: list[int]) -> tuple[int, ...]:
    return tuple(ids[k] for k in range(len(ids)) if (mask >> k) & 1)


def brute_force_rate_max(instance: Instance, budget: OracleBudget = _DEFAULT_BUDGET) -> RateSchedule:
    """Evaluate the fixed-set rate for every nonempty subset and keep the best
    (lexicographically smallest subset on ties).  Raises if the winner's rate
    exceeds its slowest member's transmission rate, which would contradict
    the optimality structure the fast solver relies on.  This is
    `brute_force_rate_max_batch` of the one instance."""
    if instance.n_users > budget.max_users_rate:
        raise BudgetExceededError(
            f"{instance.n_users} users exceed the rate oracle budget {budget.max_users_rate}"
        )
    return brute_force_rate_max_batch([instance], budget)[0]


def brute_force_rate_max_batch(
    instances, budget: OracleBudget = _DEFAULT_BUDGET
) -> list[RateSchedule | None]:
    """`brute_force_rate_max` of each instance, in order, to the bit, and
    None for an instance of more than `budget.max_users_rate` users.

    The instances of each user count form a block, taken in chunks whose
    (2^K, chunk) arrays hold at most `_CHUNK_ENTRIES` doubles.  A chunk's
    subset sums come from `_subset_sums`, which adds every subset's
    members in ascending id from 0.0, as the closed form's numerator does;
    the size penalty is added to the denominator last.  Each instance's sum
    is formed alone, so a chunk gives what the instance alone gives.  The
    winner is the argmax, or where several subsets reach the tie floor, the
    smallest subset tuple among them."""
    instances = list(instances)
    within = [i for i in instances if i.n_users <= budget.max_users_rate]
    solved = iter(_per_user_count(within, _rate_block))
    return [next(solved) if i.n_users <= budget.max_users_rate else None for i in instances]


@functools.lru_cache(maxsize=32)
def _size_penalties(degradation: float, n: int) -> np.ndarray:
    """(1+d)**(|S|-1) of every nonempty subset S of n users in mask order,
    read-only: the size penalties of `rate._penalties`, inf past overflow,
    indexed by subset size.  Memoised per (d, n); `_rate_block` calls the
    unmemoised `__wrapped__` past n = `_TABLE_MEMO_MAX`."""
    sizes = _subset_sums(np.ones((n, 1)))[1:, 0].astype(np.intp) - 1
    penalties = np.array(_penalties(degradation, n))[sizes]
    penalties.setflags(write=False)
    return penalties


def _rate_block(instances: list[Instance]) -> list[RateSchedule]:
    """The rate oracle of instances with one user count K, in chunks of
    `_CHUNK_ENTRIES` // 2^K of them (at least one)."""
    n_users = instances[0].n_users
    size_penalties = _size_penalties if n_users <= _TABLE_MEMO_MAX else _size_penalties.__wrapped__
    weight, roundtrip, service = block_columns(
        instances, "weight", "roundtrip_time_per_bit", "service_rate")
    wr, qr = (weight * service).T, (roundtrip * service).T  # (K, rows)
    rows = max(1, _CHUNK_ENTRIES >> n_users)
    ids = range(n_users)
    winners = []  # each instance's smallest subset tuple among its ties
    for start in range(0, len(instances), rows):
        chunk = slice(start, start + rows)
        # (2^K - 1, rows): each nonempty subset's sums, the penalty added last
        num = _subset_sums(wr[:, chunk])[1:]
        den = _subset_sums(qr[:, chunk])[1:]
        penalties = [size_penalties(i.degradation, n_users) for i in instances[chunk]]
        if all(penalty is penalties[0] for penalty in penalties):  # one memo: broadcast it
            den += penalties[0][:, None]
        else:
            den += np.array(penalties).T
        rates = np.divide(num, den, out=num)
        picks = rates.argmax(axis=0)
        best = rates[picks, np.arange(len(picks))]
        tied = rates >= best - _TIE_RTOL * (1.0 + best)
        masks = [[pick + 1] for pick in picks.tolist()]  # each row's tied masks
        if np.count_nonzero(tied) > len(masks):  # some row ties more than its best
            masks = [[] for _ in masks]
            for index, row in zip(*(axis.tolist() for axis in np.nonzero(tied))):
                masks[row].append(index + 1)
        winners += [min(_subset_tuple(mask, ids) for mask in row) for row in masks]

    solutions = _closed_forms(instances, winners)
    if not all(solution.satisfies_necessary_condition for solution in solutions):
        raise RuntimeError(
            "internal consistency failure: brute-force winner exceeds its slowest member's rate"
        )
    return [solution.as_schedule() for solution in solutions]


def brute_force_energy_batch(
    instances, budget: OracleBudget = _DEFAULT_BUDGET
) -> list[EnergySchedule]:
    """`brute_force_energy` of each instance, with the subset LPs of all of
    them built by member count and solved together, in stacks cut as
    `lp.solve_lps` cuts them, in two stages.

    An instance whose deadline is below t_min (a positive
    `energy.feasibility_gap`, as the heuristic decides) is refused with no
    LP: the subset LPs hold their rows only to the simplex's tolerance, and
    admit some deadlines just below t_min.  The first stage solves every
    other instance's full subset (all its free saving users).  The second
    builds and solves each other subset only where its full-offload bound
    (`_offload_bounds`) is not above the full subset's objective plus
    `_prune_margin`, which keeps the winner the one, bit for bit, that
    solving every subset would pick.  Where the full subset is infeasible,
    no subset is skipped.  The time guard covers the whole batch: it is
    checked before each stage's LPs are built and before each stack is
    solved.  The energy memos are derived as one block first."""
    instances = list(instances)
    derive_energy_columns(instances)
    deadline = time.monotonic() + budget.time_limit_s

    def check_time():
        if time.monotonic() > deadline:
            raise BudgetExceededError("energy oracle time guard exceeded")

    def solve(cases):
        """`energy._solve` of the cases' subset plans, a stack
        (`lp.stack_starts`) at a time: a schedule per case, None where a
        subset is infeasible."""
        check_time()
        plans = energymod._subset_lps(cases)
        with_lp = [k for k, (problem, _) in enumerate(plans) if problem is not None]
        starts = lpmod.stack_starts(plans[k][0] for k in with_lp)
        cuts = [0, *(with_lp[start] for start in starts[1:]), len(plans)]
        schedules = []
        for start, stop in zip(cuts, cuts[1:]):
            check_time()
            schedules += energymod._solve(plans[start:stop])
        return schedules

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
    # a refused instance takes no LP, and `_least_energy` then meets only None
    refused = [gap > 0.0 for gap in per_user_count(instances, energymod._gaps)]
    solved = iter(solve([case for case, no in zip(cases, refused) if not no]))
    fulls = [None if no else next(solved) for no in refused]

    kept = iter(_kept_masks([case for case, no in zip(cases, refused) if not no],
                            [full for full, no in zip(fulls, refused) if not no]))
    # per instance: the other subsets that could win, in mask order
    others = [[] if no else [_subset_tuple(m, optional) for m in next(kept)]
              for (_, _, optional), no in zip(cases, refused)]
    schedules = iter(solve([
        (instance, partition, s1)
        for (instance, partition, _), subsets in zip(cases, others) for s1 in subsets
    ]))
    return [
        _least_energy(instance, [
            *((s1, next(schedules)) for s1 in subsets),
            (tuple(optional), full),
        ])
        for (instance, _, optional), subsets, full in zip(cases, others, fulls)
    ]


def _kept_masks(cases, fulls) -> list[list[int]]:
    """Per (instance, partition, optional users) case, the masks over its
    optional users of the subsets other than the full one that could win,
    in order: every one where the full subset's schedule is None, and
    otherwise each whose `_offload_bounds` bound is not above the full
    subset's objective plus `_prune_margin`.  Each case's partition is its
    instance's own, and its optional users that partition's free saving
    users in id order.

    Every other subset lies inside the full set less one member, and its
    bound is at least that set's: the bound is a chain of rounded additions
    in user id order, each monotone in both terms, and a member's term
    delta * L < 0 becomes -0.0 when it leaves.  So where each of the n
    single-removal bounds (`_removal_bounds`) is above the ceiling, no
    subset is kept, and the 2^n bound table is built only elsewhere: where
    some single-removal bound is nan or not above it."""
    kept = [list(range((1 << len(optional)) - 1)) for _, _, optional in cases]
    pruned = [k for k, full in enumerate(fulls) if full is not None and cases[k][2]]
    removals = per_user_count([cases[k][0] for k in pruned], _removal_bounds)
    for k, (singles, scale) in zip(pruned, removals):
        instance, partition, optional = cases[k]
        ceiling = fulls[k].objective + _prune_margin(scale, len(optional))
        if all(bound > ceiling for bound in singles):
            kept[k] = []
        else:
            bounds, _ = _offload_bounds(instance, partition, optional)
            kept[k] = [mask for mask in kept[k] if not bounds[mask] > ceiling]
    return kept


# an overflowed sum is inf, and inf + -inf nan: `_prune_margin` and
# `_kept_masks` then skip nothing
@np.errstate(over="ignore", invalid="ignore")
def _removal_bounds(instances: list[Instance]) -> list[tuple[list[float], float]]:
    """Per instance of one user count, the `_offload_bounds` bound of its
    full subset less each optional user (its free saving users, in id
    order), and the bound scale, for the block in one broadcast.  Each
    entry is formed as `_offload_bounds` forms it, to the bit."""
    task, min_bits, delta = block_columns(instances, "task_bits", "min_offload_bits",
                                          "delta_per_bit")
    optional = [sorted(i.partition.free_saving) for i in instances]
    # every saving user's whole task and every forced costly one's minimum,
    # as `energy._branch_block` forms the loads; 0.0 for the rest
    full = np.where(delta < 0.0, task, np.where(min_bits > 0.0, min_bits, 0.0))
    bits = np.repeat(full[:, None, :], max(map(len, optional)), axis=1)  # (rows, n, K)
    rows, removed = zip(*((k, j) for k, ids in enumerate(optional) for j in range(len(ids))))
    bits[rows, removed, [uid for ids in optional for uid in ids]] = 0.0
    bounds = sums_in_order(bits * delta[:, None, :]).tolist()
    scales = sums_in_order(np.abs(delta * task)).tolist()
    return [(row[: len(ids)], scale) for row, ids, scale in zip(bounds, optional, scales)]


@np.errstate(over="ignore", invalid="ignore")
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
    chosen = _subset_table(ids.size)
    bits = np.repeat(base[None, :], len(chosen), axis=0)
    bits[:, ids] = np.where(chosen != 0.0, instance.task_bits[ids], 0.0)
    # summed left to right, in user id order, as the objective is
    delta = instance.delta_per_bit
    scale = sums_in_order(np.abs(delta * instance.task_bits))
    return sums_in_order(bits * delta).tolist(), scale.item()


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
