"""Sum-mobile-energy minimization under the frame deadline.

Users split four ways by (must they offload to meet the deadline?, does
offloading save them energy?).  Forced users are always scheduled; saving
users want to offload as much as possible; costly users offload only what
the deadline forces.  The scheduler then runs one of three branches
depending on how much deadline slack is left: full offloading for every
saving user, greedy removal of optional users, or an LP that shrinks the
forced users' offload sizes.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import struct
from types import MappingProxyType

import numpy as np

from . import lp as lpmod
from .model import (
    EnergySchedule,
    Instance,
    Partition,
    _gap_rows,
    _radio_and_floor,
    _solutions,
    block_columns,
    derive_energy_columns,
    interference_penalty,
    per_user_count,
    shared_solutions,
    sum_in_order,
    sums_in_order,
    vm_rate_factor,
)

__all__ = [
    "Partition",
    "partition_users",
    "feasibility_gap",
    "feasibility_tmin",
    "total_delay",
    "solve_energy_suboptimal",
    "solve_energy_suboptimal_batch",
    "solve_subset_lp",
    "benchmark_energy_all_offloading",
    "benchmark_energy_all_offloading_batch",
    "shared_solutions",
]


def partition_users(instance: Instance) -> Partition:
    """The users split four ways: the memoised `Instance.partition`."""
    return instance.partition


# ---------------------------------------------------------------------------
# Feasibility: smallest workable deadline
# ---------------------------------------------------------------------------


def _gaps(instances) -> list[float]:
    """`feasibility_gap` of instances at their deadlines: their `Instance.deadline_gap`."""
    return [instance.deadline_gap for instance in instances]


# an overflowed threshold or segment sum is inf; a nan root of two is skipped
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _root(instance: Instance) -> float:
    """The least double t with gap(t) <= 0 < gap(previous double).

    User k stops being forced at tau_k = c_k L_k / f_k.  Between two
    consecutive thresholds the forced set F is fixed, so the gap is
    A - B t + max_k (alpha_k - beta_k t) / phi - t over k in F, with
    A, B the radio sums, alpha_k = L_k / r_k, beta_k = f_k / (c_k r_k)
    and phi = (1 + d)^(1 - |F|).  A bisection over the sorted thresholds
    finds the segment holding the root, the root of that segment is
    max_k (A phi + alpha_k) / (B phi + beta_k + phi), clamped to the
    segment, and a search over bit patterns (`_settle`) settles it on the
    computed gap.
    """
    task, freq, cycles = instance.task_bits, instance.cpu_freq, instance.cycles_per_bit
    tau = cycles * task / freq
    order = np.argsort(tau, kind="stable")  # ascending, lowest id on ties
    thresholds = tau[order].tolist()
    if not thresholds or thresholds[-1] <= 0.0:
        return 0.0
    # Keep gap > 0 at threshold lo (position -1 and zero thresholds are
    # t = 0, checked once the search ends there) and gap <= 0 at threshold
    # hi; the last threshold leaves at most a rounding residue forced, so
    # its gap is about -t.
    lo = bisect.bisect_right(thresholds, 0.0) - 1
    hi = len(thresholds) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasibility_gap(instance, thresholds[mid]) > 0.0:
            lo = mid
        else:
            hi = mid
    left = thresholds[lo] if lo >= 0 else 0.0
    if left == 0.0 and feasibility_gap(instance, 0.0) <= 0.0:
        return 0.0
    right = thresholds[hi]
    forced = order[hi:]  # in threshold order, as the sums add them
    phi = vm_rate_factor(instance.degradation, len(forced))
    if phi == 0.0:  # the gap is inf on the whole segment
        return _settle(instance, right, left, right)
    task, freq, cycles = task[forced], freq[forced], cycles[forced]
    roundtrip, service = instance.roundtrip_time_per_bit[forced], instance.service_rate[forced]
    a = sums_in_order(task * roundtrip).item()
    b = sums_in_order(freq / cycles * roundtrip).item()
    roots = (a * phi + task / service) / (b * phi + freq / (cycles * service) + phi)
    # fmax skips a nan root of overflowed sums, as max(t, nan) does
    t = np.fmax.reduce(roots, initial=left).item()
    return _settle(instance, min(t, right), left, right)


def _settle(instance: Instance, t: float, lo: float, hi: float) -> float:
    """The double with gap(t) <= 0 < gap(previous double), searched over the
    bit patterns of (lo, hi], where gap(lo) > 0 >= gap(hi) and positive
    doubles order as their bit patterns do.  From t in [lo, hi], the search
    probes 1, 2, 4, ... patterns toward the sign change, and bisects once a
    probe has crossed it or would leave the bracket: a root n patterns from
    t takes about 2 log2(n) gap evaluations, and at most about 128."""
    lo_bits, hi_bits, step = _double_bits(lo), _double_bits(hi), 1
    start = probe = _double_bits(t)
    while True:
        if feasibility_gap(instance, _bits_double(probe)) > 0.0:
            lo_bits, probe = probe, start + step
        else:
            hi_bits, probe = probe, start - step
        if hi_bits - lo_bits <= 1:
            return _bits_double(hi_bits)
        if not lo_bits < probe < hi_bits:
            probe = (lo_bits + hi_bits) // 2
        step *= 2


def _double_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_double(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def feasibility_gap(instance: Instance, t: float) -> float:
    """Time still missing at deadline t: radio plus parallel-computing time of
    the forced minimum offloads, minus t.  Positive means t is too short.
    Decreasing in t, with downward jumps where a user stops being forced;
    the computed value never increases with t either, so a deadline T is
    feasible exactly when gap(T) <= 0, that is when T >= t_min
    (DESIGN_NOTES.md, "Feasibility by one evaluation").  At the deadline it
    is the memo `Instance.deadline_gap`, else `_gap_rows` of the instance
    as a row of one."""
    if t == instance.deadline:
        return instance.deadline_gap
    return _gap_rows(instance.min_offload_bits_at(t)[None], instance.roundtrip_time_per_bit[None],
                     instance.service_rate[None], [instance.degradation], t).item()


def feasibility_tmin(instance: Instance) -> float:
    """Smallest deadline for which the energy problem is feasible.

    The least double t_min whose gap is nonpositive while the gap of the
    double below it is positive, found exactly rather than to a tolerance
    (`_root`).  The gap may jump past zero where the forced-user
    count drops, so the root can sit on a discontinuity.  Since the
    computed gap never increases with t, `feasibility_gap(instance, T) > 0`
    holds exactly when T < t_min: deciding one deadline needs one gap
    evaluation, and `solve_energy_suboptimal` runs this search only to
    report t_min when it refuses.
    """
    return _root(instance)


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def _ids(ids) -> np.ndarray:
    return np.fromiter(ids, np.intp, len(ids))


def _optional(partition: Partition, s1) -> frozenset[int]:
    """s1 as a frozenset, which must be drawn from the free saving users."""
    s1 = frozenset(s1)
    if not s1 <= partition.free_saving:
        raise ValueError("optional set must be drawn from the free saving users")
    return s1


def _commitment(instance: Instance, partition: Partition, s1):
    """Every user's committed offload bits, in id order: the whole task for
    the forced saving users and s1, the forced minimum for the forced costly
    ones, and 0 for the rest; with the number of VMs they occupy."""
    s1 = _optional(partition, s1)
    bits = _costly_bits(instance, partition)
    whole = _ids(partition.forced_saving | s1)
    bits[whole] = instance.task_bits[whole]
    return bits, len(partition.forced) + len(s1)


def _costly_bits(instance: Instance, partition: Partition) -> np.ndarray:
    """The forced minimum of the forced costly users, 0 for the rest, in id order."""
    bits = np.zeros(instance.n_users)
    costly = _ids(partition.forced_costly)
    bits[costly] = instance.min_offload_bits[costly]
    return bits


def _window(instance: Instance, bits: np.ndarray, n_vms: int) -> float:
    longest = (bits / instance.service_rate).max().item() if bits.size else 0.0
    if longest == 0.0:
        return 0.0
    return longest * interference_penalty(instance.degradation, n_vms)


def total_delay(instance: Instance, partition: Partition, s1) -> float:
    """Frame time consumed when the forced users and the optional set s1 all
    offload their committed bits: TDMA radio time plus the computing window.
    The radio times are summed one at a time in ascending user id, so the
    result does not depend on how the sets iterate."""
    return _delay(instance, *_commitment(instance, partition, s1))


def _delay(instance: Instance, bits: np.ndarray, n_vms: int) -> float:
    # the +0.0 terms of uncommitted users leave the running sum unchanged
    return (sums_in_order(bits * instance.roundtrip_time_per_bit).item()
            + _window(instance, bits, n_vms))


def _subset_schedules(cases, before_stack=lambda: None) -> list:
    """`solve_subset_lp` of each (instance, partition, s1), with no t_min
    check: its schedule, or None where its LP is infeasible.  Each distinct
    case is built once, by one `_subset_plans` call, and the LPs are solved
    a stack (`lp.stack_starts`) at a time, with before_stack() called
    before each.  In a `shared_solutions` scope each schedule is kept per
    (instance, s1) of the instance's own partition, beside its instance so
    that its id is not reused, and a repeat takes it."""
    memo = _solutions.get()
    memo = {} if memo is None else memo
    keys = [(id(instance), frozenset(s1)) if partition is instance.partition else object()
            for instance, partition, s1 in cases]
    todo = {key: case for key, case in zip(keys, cases) if key not in memo}
    plans = _subset_plans(list(todo.values()))
    problems = [problem for problem, _ in plans if problem is not None]
    starts = lpmod.stack_starts(problems)
    solutions = []
    for start, stop in zip(starts, [*starts[1:], len(problems)]):
        before_stack()
        solutions += lpmod.solve_lps(problems[start:stop])
    solutions = iter(solutions)
    for key, (instance, _, _), (problem, done) in zip(todo, todo.values(), plans):
        memo[key] = instance, done if problem is None else done(next(solutions))
    return [memo[key][1] for key in keys]


def _subset_plans(cases) -> list:
    """The (LP, finish) plan of each case of `_subset_schedules`: finish
    turns the LP's solution into the schedule, or None where the LP is
    infeasible; where the case needs no LP, the plan is (None, its schedule
    or None).  The LP runs over the members' offload sizes and the
    computing window, and minimizes the energy deltas subject to the radio
    budget and per-user caps.  The LPs of each user and member count are
    built in one broadcast."""
    plans = [None] * len(cases)
    blocks = {}  # per user and member count, the cases that need an LP
    for k, (instance, partition, s1) in enumerate(cases):
        s1 = _optional(partition, s1)
        members = sorted(partition.forced_saving | s1)
        factor = vm_rate_factor(instance.degradation, len(partition.forced) + len(s1))
        committed = [0.0] * instance.n_users  # every user's bits but the members'
        budget, te_floor = instance.deadline, 0.0
        if partition.forced_costly:
            bits = _costly_bits(instance, partition)
            committed = bits.tolist()
            radio, te_floor = _radio_and_floor(
                bits, instance.roundtrip_time_per_bit, instance.service_rate, factor)
            budget, te_floor = budget - radio.item(), te_floor.item()
        scheduled = partition.forced | s1
        if not members or te_floor == math.inf:  # an infinite floor fits no budget, and needs no LP
            fits = te_floor <= budget + 1e-12 * (1.0 + abs(budget))
            plans[k] = None, (_schedule(instance, scheduled, committed, te_floor, "lp-path")
                              if fits else None)
            continue
        # the budget row, a cap row and a box row per member (the window has
        # no upper bound), held to the LP size guard before anything is allocated
        lpmod.check_size(2 * len(members) + 1, len(members) + 1)
        forced = [uid in partition.forced_saving for uid in members]
        finish = functools.partial(_lp_path, instance, scheduled, committed, members)
        blocks.setdefault((instance.n_users, len(members)), []).append(
            (k, finish, instance, members, forced, factor, budget, te_floor))
    for block in blocks.values():
        ks, finishes, instances, members, forced, factor, budget, te_floor = zip(*block)
        count, n = len(block), len(members[0]) + 1  # trailing variable is the computing window
        at = np.arange(count)[:, None], np.array(members)
        delta, roundtrip, service, min_bits, task = (column[at] for column in block_columns(
            instances, "delta_per_bit", "roundtrip_time_per_bit", "service_rate",
            "min_offload_bits", "task_bits"))
        objective = np.zeros((count, n))
        objective[:, :-1] = delta
        coeffs = np.zeros((count, n, n))  # the budget row, then a cap row per member
        coeffs[:, 0, :-1] = roundtrip
        coeffs[:, 0, -1] = 1.0
        coeffs.reshape(count, n * n)[:, n :: n + 1] = 1.0  # member k's own column in its cap row
        coeffs[:, 1:, -1] = -service * np.array(factor)[:, None]
        rhs = np.zeros((count, n))
        rhs[:, 0] = budget
        bounds = np.full((count, n, 2), math.inf)
        bounds[:, :-1, 0] = np.where(forced, min_bits, 0.0)
        bounds[:, :-1, 1] = task
        bounds[:, -1, 0] = te_floor
        for array in (objective, coeffs, rhs, bounds):
            array.flags.writeable = False  # owned and read-only: `LpProblem.block` keeps them
        problems = lpmod.LpProblem.block(objective, coeffs, ("<=",) * n, rhs, bounds)
        for k, problem, finish in zip(ks, problems, finishes):
            plans[k] = problem, finish
    return plans


def _lp_path(instance: Instance, scheduled, committed: list, members: list,
             sol) -> EnergySchedule | None:
    """The "lp-path" schedule of a subset LP's solution, None if not optimal."""
    if sol.status != "optimal":
        return None
    bits = committed.copy()
    for uid, b in zip(members, sol.x):
        bits[uid] = max(b, 0.0)
    return _schedule(instance, scheduled, bits, sol.x[-1], "lp-path")


def solve_subset_lp(instance: Instance, partition: Partition, s1) -> EnergySchedule | None:
    """The "lp-path" schedule once the optional set s1 is fixed.

    The forced saving users and s1 choose their offload sizes, bounded
    below by the forced minimum (0 for members of s1); the forced costly
    users sit at their forced minimum, spending radio budget and setting a
    floor under the computing window.  Returns the schedule, or None when
    the LP is infeasible.  A deadline below t_min (a positive
    `feasibility_gap` at it) is refused with None and no LP, as the
    heuristic and the oracle refuse it: the LP holds its rows only to the
    simplex's tolerance, and admits some deadlines just below t_min.
    """
    s1 = _optional(partition, s1)  # refused first, as every subset call refuses it
    derive_energy_columns([instance])
    if feasibility_gap(instance, instance.deadline) > 0.0:
        return None
    return _subset_schedules([(instance, partition, s1)])[0]


def _schedule(instance: Instance, scheduled: frozenset[int], bits, te: float,
              status: str) -> EnergySchedule:
    """The schedule of every user's offload bits, in id order.  The
    objective sums delta * b left to right in user id, from 0.0."""
    objective = sum_in_order(map(operator.mul, instance.delta_per_bit.tolist(), bits))
    return EnergySchedule(
        scheduled=scheduled,
        offload_bits=MappingProxyType(dict(enumerate(bits))),
        compute_time=te,
        objective=objective,
        total_energy=objective + instance.local_energy,
        status=status,
    )


def _infeasible(instance: Instance, t_min: float | None) -> EnergySchedule:
    return EnergySchedule(
        scheduled=frozenset(),
        offload_bits=MappingProxyType(dict.fromkeys(range(instance.n_users), 0.0)),
        compute_time=0.0,
        objective=math.nan,
        total_energy=math.nan,
        status="infeasible",
        t_min=t_min,
    )


def solve_energy_suboptimal(instance: Instance) -> EnergySchedule:
    """Near-optimal energy schedule in three branches.

    With enough slack every saving user offloads its whole task.  With less,
    optional users are dropped one at a time, lowest energy-per-radio-second
    first, until the committed load fits.  With none left to drop, an LP
    shrinks the forced saving users' offload sizes.  Optional users are kept
    all-or-nothing throughout, which is what makes this fast but only
    near-optimal.

    Whether the deadline can be met at all is one `feasibility_gap`
    evaluation at the deadline; `feasibility_tmin` runs only on a refusal,
    whose schedule reports t_min.  This is `solve_energy_suboptimal_batch`
    of the one instance.
    """
    return solve_energy_suboptimal_batch([instance])[0]


def solve_energy_suboptimal_batch(instances) -> list[EnergySchedule]:
    """`solve_energy_suboptimal` of each instance, with the energy memos
    derived first, and the rest a block per user count (`_branch_block`)."""
    instances = list(instances)
    derive_energy_columns(instances)
    return per_user_count(instances, _branch_block)


def _branch_block(instances: list[Instance]) -> list[EnergySchedule]:
    """`solve_energy_suboptimal` of instances of one user count.  The
    feasibility gaps (`_gaps`) and the full-offload loads (every saving
    user's whole task, every forced costly one's minimum) are formed for the
    block at once, each row as `_delay` forms it alone, and the LP branch's
    subset LPs are built and solved together by one `_subset_schedules`
    call."""
    task, min_bits, delta, roundtrip, service = block_columns(
        instances, "task_bits", "min_offload_bits", "delta_per_bit", "roundtrip_time_per_bit",
        "service_rate")
    # the saving users of `Instance.partition`, and +0.0 for an unforced user's +-0.0
    loads = np.where(delta < 0.0, task, min_bits + 0.0)
    longest = np.maximum.reduce(loads / service, axis=1, initial=0.0).tolist()
    bases = np.where(min_bits > 0.0, loads, 0.0)  # the forced users' commitment alone
    schedules = []
    lp_branch = []  # the instances that take the LP branch, with their schedules' places
    for instance, gap, radio, slowest, load, base in zip(
            instances, _gaps(instances), sums_in_order(loads * roundtrip).tolist(), longest, loads,
            bases):
        part = partition_users(instance)
        n_vms = instance.n_users - len(part.free_costly)
        window = slowest * interference_penalty(instance.degradation, n_vms) if slowest else 0.0
        if gap > 0.0:
            schedules.append(_infeasible(instance, feasibility_tmin(instance)))
        elif instance.deadline >= radio + window:
            schedules.append(_schedule(instance, part.forced | part.free_saving, load.tolist(),
                                       window, "optimal-path"))
        elif instance.deadline >= _delay(instance, base, len(part.forced)):
            schedules.append(_greedy_schedule(instance, part, base))
        else:
            lp_branch.append((len(schedules), instance))
            schedules.append(None)
    cases = [(instance, instance.partition, frozenset()) for _, instance in lp_branch]
    for (k, instance), schedule in zip(lp_branch, _subset_schedules(cases)):
        # an infeasible LP is not expected once the deadline clears t_min
        schedules[k] = schedule or _infeasible(instance, feasibility_tmin(instance))
    return schedules


def _greedy_schedule(instance: Instance, part: Partition, base: np.ndarray) -> EnergySchedule:
    """The greedy branch, for a deadline that the forced users' commitment
    alone meets but the full offload does not.  base is that commitment
    (`_commitment` of no optional user), and every load below is base with
    some optional users added at their whole task."""
    n_forced = len(part.forced)

    def committed(kept: np.ndarray) -> tuple[np.ndarray, int]:
        bits = base.copy()
        bits[kept] = instance.task_bits[kept]
        return bits, n_forced + kept.size

    # Users leave in a fixed order, lowest saving per radio second first
    # (lowest id on ties), and the load only shrinks as they do, so bisect
    # on how many to drop: the fewest whose removal fits.  Dropping none
    # fails the full-offload test; dropping all meets the deadline.
    optional = np.sort(_ids(part.free_saving))
    keys = -instance.delta_per_bit[optional] / instance.roundtrip_time_per_bit[optional]
    order = optional[np.argsort(keys, kind="stable")]
    too_few, enough = 0, order.size
    while enough - too_few > 1:
        mid = (too_few + enough) // 2
        if _delay(instance, *committed(order[mid:])) > instance.deadline:
            too_few = mid
        else:
            enough = mid
    kept = order[enough:]
    load = committed(kept)
    return _schedule(instance, part.forced | frozenset(kept.tolist()), load[0].tolist(),
                     _window(instance, *load), "greedy-path")


def _all_offload_case(instance: Instance):
    """The subset case of `benchmark_energy_all_offloading`: the partition
    that forces every user into a VM, each above its forced minimum, and
    every user as its optional set.  Where no user is costly and no forced
    minimum is -0.0, that LP is the instance's own full-subset LP to the
    byte, so the case is that one (DESIGN_NOTES.md, "One build per distinct
    energy LP")."""
    part = instance.partition
    if part.forced_costly or part.free_costly or np.signbit(instance.min_offload_bits).any():
        part = Partition(frozenset(), frozenset(range(instance.n_users)), frozenset(), frozenset())
    return instance, part, part.free_saving


def benchmark_energy_all_offloading_batch(instances) -> list[EnergySchedule]:
    """`benchmark_energy_all_offloading` of each instance, with their energy
    memos as one block and all their LPs built and solved together.

    Once the largest LP is held to the size guard, an instance whose
    deadline is below t_min (a positive `feasibility_gap`) is refused with
    no LP, as the heuristic and the oracle refuse it.  No LP load fits such
    a deadline: every member offloads at least its forced minimum, and all
    K users in VMs slow each VM to phi(K) <= phi(|forced|)."""
    instances = list(instances)
    derive_energy_columns(instances)
    n_users = max((i.n_users for i in instances), default=0)
    lpmod.check_size(2 * n_users + 1, n_users + 1)  # the budget, cap and box rows of K members
    refused = [gap > 0.0 for gap in _gaps(instances)]
    solved = iter(_subset_schedules(
        [_all_offload_case(i) for i, no in zip(instances, refused) if not no]))
    # a refused instance's schedule is the one an infeasible LP gives
    return [(None if no else next(solved)) or _infeasible(i, None)
            for i, no in zip(instances, refused)]


def benchmark_energy_all_offloading(instance: Instance) -> EnergySchedule:
    """Force every user into a VM and let an LP pick the offload sizes.

    Keeping all K VMs busy maximizes interference, so this both loses energy
    and goes infeasible earlier than the selective scheduler; it is the
    stock baseline the scheduler is measured against.  Beyond the LP size
    guard (K of about 1,300) it raises `BudgetExceededError`.
    """
    return benchmark_energy_all_offloading_batch([instance])[0]
