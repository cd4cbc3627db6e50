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
bit, that solving every subset picks.  The bounds come from one walk down
the subset lattice from the full set, with no 2^n table (`_kept_masks`).
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import energy as energymod
from .lp import BudgetExceededError
from .model import (
    EnergySchedule,
    Instance,
    RateSchedule,
    block_columns,
    derive_energy_columns,
    sums_in_order,
)
from .rate import _closed_forms, _penalties, _per_user_count, meets_necessary_condition

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
        caps = (self.max_users_rate, self.max_optional_energy)
        if isinstance(self.time_limit_s, bool) or not all(
                isinstance(cap, numbers.Integral) and not isinstance(cap, bool) for cap in caps):
            raise ValueError("oracle budget caps must be integers, and its time limit a number")
        if not (caps[0] >= 1 and caps[1] >= 0 and self.time_limit_s > 0):  # nan fails too
            raise ValueError("oracle budget limits must be positive")


_DEFAULT_BUDGET = OracleBudget()


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


def _size_penalties(degradation: float, n: int) -> np.ndarray:
    """(1+d)**(|S|-1) of every nonempty subset S of n users in mask order:
    the size penalties of `rate._penalties`, inf past overflow, indexed by
    subset size."""
    sizes = _subset_sums(np.ones((n, 1)))[1:, 0].astype(np.intp) - 1
    return np.array(_penalties(degradation, n))[sizes]


def _rate_block(instances: list[Instance]) -> list[RateSchedule]:
    """The rate oracle of instances with one user count K, in chunks of
    `_CHUNK_ENTRIES` // 2^K of them (at least one), with one size-penalty
    table per distinct degradation."""
    n_users = instances[0].n_users
    tables = {d: _size_penalties(d, n_users) for d in {i.degradation for i in instances}}
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
        penalties = [tables[i.degradation] for i in instances[chunk]]
        if all(penalty is penalties[0] for penalty in penalties):  # one table: broadcast it
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

    schedules = _closed_forms(instances, winners)
    if not all(map(meets_necessary_condition, instances, schedules)):
        raise RuntimeError(
            "internal consistency failure: brute-force winner exceeds its slowest member's rate"
        )
    return schedules


def brute_force_energy_batch(
    instances, budget: OracleBudget = _DEFAULT_BUDGET
) -> list[EnergySchedule]:
    """`brute_force_energy` of each instance, with the subset LPs of all of
    them built and solved together by `energy._subset_schedules`, in two
    stages.

    An instance whose deadline is below t_min (a positive
    `energy.feasibility_gap`, as the heuristic decides) is refused with no
    LP: the subset LPs hold their rows only to the simplex's tolerance, and
    admit some deadlines just below t_min.  The first stage solves every
    other instance's full subset (all its free saving users).  The second
    builds and solves each other subset only where its full-offload bound
    (`_kept_masks`) is not above the full subset's objective plus
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
        """`energy._subset_schedules` of the cases, with the time guard
        checked before their LPs are built and before each stack is solved."""
        check_time()
        return energymod._subset_schedules(cases, check_time)

    # per instance: its partition and its optional users in id order
    cases = [(i, i.partition, sorted(i.partition.free_saving)) for i in instances]
    most = max((len(optional) for _, _, optional in cases), default=0)
    if most > budget.max_optional_energy:
        raise BudgetExceededError(
            f"{most} optional users exceed the energy oracle budget {budget.max_optional_energy}")
    refused = [gap > 0.0 for gap in energymod._gaps(instances)]
    admitted = [case for case, no in zip(cases, refused) if not no]
    fulls = solve(admitted)
    # per admitted instance: the other subsets that could win, in mask order
    others = [[_subset_tuple(m, optional) for m in masks]
              for (_, _, optional), masks in zip(admitted, _kept_masks(admitted, fulls))]
    schedules = iter(solve([
        (instance, partition, s1)
        for (instance, partition, _), subsets in zip(admitted, others) for s1 in subsets
    ]))
    least = (
        _least_energy(instance, [
            *((s1, next(schedules)) for s1 in subsets),
            (tuple(optional), full),
        ])
        for (instance, _, optional), subsets, full in zip(admitted, others, fulls)
    )
    # a refused instance took no LP, and meets no schedule
    return [_least_energy(i, []) if no else next(least) for i, no in zip(instances, refused)]


# an overflowed sum is inf, and inf + -inf nan: `_prune_margin` and the
# walk then skip nothing
@np.errstate(over="ignore", invalid="ignore")
def _kept_masks(cases, fulls) -> list[list[int]]:
    """Per (instance, partition, optional users) case, the masks over its
    optional users of the subsets other than the full one that could win,
    in order: every one where the full subset's schedule is None, and
    otherwise each whose bound is not above the full subset's objective
    plus `_prune_margin`.  Each case's partition is its instance's own, and
    its optional users that partition's free saving users in id order.

    A subset's bound is the id-ordered sum of delta * b over every user,
    with b the whole task L for the forced saving users and the subset's
    members, the forced minimum for the forced costly users, and 0 for
    everyone else (`energy._commitment`).  Every LP member saves energy per
    bit (delta < 0) and offloads at most L, and every other user's bits are
    what the schedule assembly gives it, so no feasible point of the LP
    spends less (up to the allowances of `_prune_margin`).

    A kept set's supersets are all kept: the bound is a chain of rounded
    additions in user id order, each monotone in both terms, and a member's
    term delta * L < 0 becomes -0.0 when it leaves.  So the cases of each
    user count are walked down from their full sets a level at a time, a
    level holding the sets one member short of a set kept above (each
    formed once, less a member of higher id than every one already out),
    until a level keeps nothing.  A level's bounds are formed in one
    broadcast, each row as the sum over the whole subset table would form
    it."""
    kept = [list(range((1 << len(optional)) - 1)) for _, _, optional in cases]
    blocks: dict[int, list[int]] = {}  # per user count, the cases to prune
    for k, ((instance, _, optional), full) in enumerate(zip(cases, fulls)):
        if full is not None and optional:
            blocks.setdefault(instance.n_users, []).append(k)
            kept[k] = []
    for ks in blocks.values():
        task, min_bits, delta = block_columns([cases[k][0] for k in ks], "task_bits",
                                              "min_offload_bits", "delta_per_bit")
        # the free saving users, as `Instance.partition` classes them; mask
        # bit j stands for the jth of them in id order
        optional = (delta < 0.0) & ~(min_bits > 0.0)
        bit, users = (1 << np.cumsum(optional, axis=1)) >> 1, np.arange(delta.shape[1])
        sizes = np.count_nonzero(optional, axis=1)
        ceilings = np.array([fulls[k].objective for k in ks]) + _prune_margin(
            sums_in_order(np.abs(delta * task)), sizes)
        # level 0, the full sets: every saving user's whole task and every
        # forced costly one's minimum, 0.0 for the rest
        case, mask, last = np.arange(len(ks)), (1 << sizes) - 1, np.full(len(ks), -1)
        bits = np.where(delta < 0.0, task, np.where(min_bits > 0.0, min_bits, 0.0))
        found = []  # (case, mask) pairs
        while case.size:
            rows, out = np.nonzero(optional[case] & (users > last[:, None]))
            case, last, bits = case[rows], out, bits[rows]
            mask = mask[rows] & ~bit[case, out]
            bits[np.arange(rows.size), out] = 0.0
            keep = ~(sums_in_order(bits * delta[case]) > ceilings[case])
            case, mask, last, bits = case[keep], mask[keep], last[keep], bits[keep]
            found += zip(case.tolist(), mask.tolist())
        for c, m in sorted(found):
            kept[ks[c]].append(m)
    return kept


_BOX_RTOL = 1e-6  # of the scale: the simplex's box slack and the sums' rounding


def _prune_margin(scale: float, n_optional: int) -> float:
    """How far a subset's bound must lie above the full subset's objective
    F before the subset is skipped, for instances with `n_optional` free
    saving users and bound scale W = sum_k |delta_k| L_k (`_kept_masks`);
    each may be an array of them.

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
        return energymod._infeasible(instance, energymod.feasibility_tmin(instance))
    return best[1]


def brute_force_energy(instance: Instance, budget: OracleBudget = _DEFAULT_BUDGET) -> EnergySchedule:
    """Exact minimum-energy schedule by enumerating every optional subset.

    Once the optional set is fixed the problem is an LP (the interference
    exponent is a constant), so enumerating subsets of the free saving users
    covers all the combinatorial freedom.  Infeasible overall only if every
    subset's LP is infeasible.
    """
    return brute_force_energy_batch([instance], budget)[0]
