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

import math
import operator
from dataclasses import dataclass

from . import lp as lpmod
from .model import (
    EnergySchedule,
    Instance,
    baseline_local_energy,
    vm_rate_factor,
)

__all__ = [
    "Partition",
    "FeasibilityResult",
    "partition_users",
    "feasibility_gap",
    "feasibility_tmin",
    "total_delay",
    "required_compute_time",
    "solve_energy_suboptimal",
    "solve_lp_m1",
    "solve_subset_lp",
    "benchmark_energy_all_offloading",
]

_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """Disjoint, exhaustive split of the users.

    forced_* users cannot finish locally by the deadline (min_offload_bits
    > 0) and must be scheduled; free_* users could stay local.  *_saving
    users reduce their energy by offloading (negative per-bit energy delta);
    *_costly users do not, so they offload only the forced minimum.
    Energy-neutral users count as costly: no point occupying a VM for zero
    gain.
    """

    forced_costly: frozenset[int]
    forced_saving: frozenset[int]
    free_costly: frozenset[int]
    free_saving: frozenset[int]

    @property
    def forced(self) -> frozenset[int]:
        return self.forced_costly | self.forced_saving


def partition_users(instance: Instance) -> Partition:
    m0, m1, n0, n1 = set(), set(), set(), set()
    for d in instance.derived:
        forced = d.min_offload_bits > 0.0
        saving = d.energy_delta_per_bit < 0.0
        if forced and saving:
            m1.add(d.id)
        elif forced:
            m0.add(d.id)
        elif saving:
            n1.add(d.id)
        else:
            n0.add(d.id)
    return Partition(frozenset(m0), frozenset(m1), frozenset(n0), frozenset(n1))


# ---------------------------------------------------------------------------
# Feasibility: smallest workable deadline
# ---------------------------------------------------------------------------


class _Balance:
    """The feasibility balance of one instance, with the user constants it
    needs read once, for the many deadlines a bisection tries."""

    def __init__(self, instance: Instance):
        users = instance.users
        self.degradation = instance.degradation
        self.local = [(u.task_bits, u.cpu_freq, u.cycles_per_bit) for u in users]
        self.roundtrip = [u.roundtrip_time_per_bit for u in users]
        self.service = [u.service_rate for u in users]

    def min_bits(self, t: float) -> list[float]:
        # `0.0 if 0.0 > x else x` is max(x, 0.0), zero sign included
        return [0.0 if 0.0 > (x := b - t * f / c) else x for b, f, c in self.local]

    def gap(self, t: float, min_bits: list[float] | None = None) -> float:
        if min_bits is None:
            min_bits = self.min_bits(t)
        forced = sum(map((0.0).__lt__, min_bits))  # how many b > 0.0
        radio = sum(map(operator.mul, min_bits, self.roundtrip))
        compute = 0.0
        if forced:
            factor = vm_rate_factor(self.degradation, forced)
            if factor > 0.0:
                compute = max(map(operator.truediv, min_bits, [r * factor for r in self.service]))
            else:  # (1 + d)^(1 - n) underflowed: no window is long enough
                compute = math.inf
        return radio + compute - t


def feasibility_gap(instance: Instance, t: float) -> float:
    """Time still missing at deadline t: radio plus parallel-computing time of
    the forced minimum offloads, minus t.  Positive means t is too short.
    Decreasing in t, with downward jumps where a user stops being forced."""
    return _Balance(instance).gap(t)


@dataclass(frozen=True)
class FeasibilityResult:
    """Root of the feasibility balance, with the state evaluated there."""

    t_min: float
    residual: float  # feasibility_gap at t_min (at or just past the root)
    min_bits: tuple[float, ...]
    forced_count: int
    bracket: tuple[float, float]


def feasibility_tmin(instance: Instance) -> FeasibilityResult:
    """Smallest deadline for which the energy problem is feasible.

    Bisection on the monotone decreasing gap keeps gap(lo) > 0 >= gap(hi)
    and returns hi, the least deadline with nonpositive gap; the gap may
    jump past zero where the forced-user count drops, so the root can sit
    on a discontinuity.
    """

    balance = _Balance(instance)

    def result_at(t: float, lo: float, hi: float) -> FeasibilityResult:
        min_bits = balance.min_bits(t)
        return FeasibilityResult(
            t_min=t,
            residual=balance.gap(t, min_bits),
            min_bits=tuple(min_bits),
            forced_count=sum(1 for b in min_bits if b > 0.0),
            bracket=(lo, hi),
        )

    if instance.n_users == 0:
        return result_at(0.0, 0.0, 0.0)
    hi = max(u.cycles_per_bit * u.task_bits / u.cpu_freq for u in instance.users)
    if hi <= 0.0 or balance.gap(0.0) <= 0.0:
        return result_at(0.0, 0.0, 0.0)
    lo = 0.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if balance.gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return result_at(hi, lo, hi)


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def required_compute_time(instance: Instance, partition: Partition, s1) -> float:
    """Shortest parallel-computing window for the given optional set: the
    slowest full task among scheduled saving users, or the slowest forced
    minimum among costly ones, at the interference-degraded rate."""
    s1 = frozenset(s1)
    if not s1 <= partition.free_saving:
        raise ValueError("optional set must be drawn from the free saving users")
    derived = instance.derived
    n_vms = len(partition.forced) + len(s1)
    longest = 0.0
    for uid in partition.forced_saving | s1:
        u = instance.users[uid]
        longest = max(longest, u.task_bits / u.service_rate)
    for uid in partition.forced_costly:
        u = instance.users[uid]
        longest = max(longest, derived[uid].min_offload_bits / u.service_rate)
    if longest == 0.0:
        return 0.0
    try:
        return longest * (1.0 + instance.degradation) ** (n_vms - 1)
    except OverflowError:  # the interference saturates: no window is long enough
        return math.inf


def total_delay(instance: Instance, partition: Partition, s1) -> float:
    """Frame time consumed when the forced users and the optional set s1 all
    offload their committed bits: TDMA radio time plus the computing window."""
    s1 = frozenset(s1)
    if not s1 <= partition.free_saving:
        raise ValueError("optional set must be drawn from the free saving users")
    derived = instance.derived
    radio = 0.0
    for uid in partition.forced_saving | s1:
        u = instance.users[uid]
        radio += u.task_bits * u.roundtrip_time_per_bit
    for uid in partition.forced_costly:
        u = instance.users[uid]
        radio += derived[uid].min_offload_bits * u.roundtrip_time_per_bit
    return radio + required_compute_time(instance, partition, s1)


def _schedule_lp(
    instance: Instance,
    members: list[int],
    lower: dict[int, float],
    n_vms: int,
    budget: float,
    te_floor: float,
):
    """LP over the members' offload sizes and the computing window: minimize
    the energy deltas subject to the radio budget and per-user caps."""
    derived = instance.derived
    factor = vm_rate_factor(instance.degradation, n_vms)
    n = len(members) + 1  # trailing variable is the computing window
    objective = [derived[uid].energy_delta_per_bit for uid in members] + [0.0]
    budget_row = [instance.users[uid].roundtrip_time_per_bit for uid in members] + [1.0]
    constraints = [lpmod.constraint(budget_row, "<=", budget)]
    for k, uid in enumerate(members):
        row = [0.0] * n
        row[k] = 1.0
        row[-1] = -instance.users[uid].service_rate * factor
        constraints.append(lpmod.constraint(row, "<=", 0.0))
    bounds = [(lower[uid], instance.users[uid].task_bits) for uid in members]
    bounds.append((te_floor, math.inf))
    return lpmod.LpProblem(tuple(objective), tuple(constraints), tuple(bounds))


def solve_subset_lp(instance: Instance, partition: Partition, s1):
    """Offload sizes once the optional set s1 is fixed.

    The forced saving users and s1 choose their offload sizes, bounded
    below by the forced minimum (0 for members of s1); the forced costly
    users sit at their forced minimum, spending radio budget and setting a
    floor under the computing window.  Returns (bits by user id, computing
    window), or None when the LP is infeasible.
    """
    s1 = frozenset(s1)
    if not s1 <= partition.free_saving:
        raise ValueError("optional set must be drawn from the free saving users")
    derived = instance.derived
    members = sorted(partition.forced_saving | s1)
    n_vms = len(partition.forced) + len(s1)
    factor = vm_rate_factor(instance.degradation, n_vms)
    budget = instance.deadline - sum(
        derived[uid].min_offload_bits * instance.users[uid].roundtrip_time_per_bit
        for uid in partition.forced_costly
    )
    te_floor = max(
        (
            derived[uid].min_offload_bits / (instance.users[uid].service_rate * factor)
            for uid in partition.forced_costly
        ),
        default=0.0,
    )
    if not members:
        if te_floor <= budget + 1e-12 * (1.0 + abs(budget)):
            return {}, te_floor
        return None
    lower = {
        uid: derived[uid].min_offload_bits if uid in partition.forced_saving else 0.0
        for uid in members
    }
    problem = _schedule_lp(instance, members, lower, n_vms, budget, te_floor)
    sol = lpmod.solve_lp(problem)
    if sol.status != "optimal":
        return None
    bits = {uid: max(sol.x[k], 0.0) for k, uid in enumerate(members)}
    return bits, sol.x[-1]


def solve_lp_m1(instance: Instance, partition: Partition):
    """Offload sizes for the forced saving users when no optional user is
    scheduled: `solve_subset_lp` with s1 empty."""
    return solve_subset_lp(instance, partition, frozenset())


def _assemble(
    instance: Instance,
    partition: Partition,
    s1: frozenset[int],
    saved_bits: dict[int, float],
    te: float,
    status: str,
    t_min: float | None = None,
) -> EnergySchedule:
    derived = instance.derived
    bits = {u.id: 0.0 for u in instance.users}
    for uid in partition.forced_costly:
        bits[uid] = derived[uid].min_offload_bits
    for uid in sorted(partition.forced_saving | s1):
        bits[uid] = saved_bits[uid]
    objective = sum(derived[uid].energy_delta_per_bit * b for uid, b in sorted(bits.items()))
    return EnergySchedule(
        scheduled=partition.forced | s1,
        offload_bits=bits,
        compute_time=te,
        objective=objective,
        total_energy=objective + baseline_local_energy(instance),
        status=status,
        t_min=t_min,
    )


def _infeasible(instance: Instance, t_min: float | None) -> EnergySchedule:
    return EnergySchedule(
        scheduled=frozenset(),
        offload_bits={u.id: 0.0 for u in instance.users},
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
    """
    part = partition_users(instance)
    feas = feasibility_tmin(instance)
    if instance.deadline < feas.t_min:
        return _infeasible(instance, feas.t_min)

    full = {
        uid: instance.users[uid].task_bits for uid in part.forced_saving | part.free_saving
    }
    if instance.deadline >= total_delay(instance, part, part.free_saving):
        te = required_compute_time(instance, part, part.free_saving)
        return _assemble(instance, part, part.free_saving, full, te, "optimal-path")

    if instance.deadline >= total_delay(instance, part, frozenset()):
        # Users leave in a fixed order, and the load only shrinks as they
        # do, so bisect on how many to drop: the fewest whose removal fits.
        # Dropping none fails the first check above; dropping all passes
        # the second.
        derived = instance.derived
        order = sorted(
            part.free_saving,
            key=lambda uid: (
                -derived[uid].energy_delta_per_bit / derived[uid].roundtrip_time_per_bit,
                uid,
            ),
        )
        too_few, enough = 0, len(order)
        while enough - too_few > 1:
            mid = (too_few + enough) // 2
            if total_delay(instance, part, frozenset(order[mid:])) > instance.deadline:
                too_few = mid
            else:
                enough = mid
        s1 = frozenset(order[enough:])
        te = required_compute_time(instance, part, s1)
        return _assemble(instance, part, s1, full, te, "greedy-path")

    lp_result = solve_lp_m1(instance, part)
    if lp_result is None:  # not expected once the deadline clears t_min
        return _infeasible(instance, feas.t_min)
    bits, te = lp_result
    return _assemble(instance, part, frozenset(), bits, te, "lp-path")


def benchmark_energy_all_offloading(instance: Instance) -> EnergySchedule:
    """Force every user into a VM and let an LP pick the offload sizes.

    Keeping all K VMs busy maximizes interference, so this both loses energy
    and goes infeasible earlier than the selective scheduler; it is the
    stock baseline the scheduler is measured against.
    """
    if instance.n_users == 0:
        return EnergySchedule(
            scheduled=frozenset(),
            offload_bits={},
            compute_time=0.0,
            objective=0.0,
            total_energy=0.0,
            status="lp-path",
        )
    derived = instance.derived
    members = [u.id for u in instance.users]
    lower = {uid: derived[uid].min_offload_bits for uid in members}
    problem = _schedule_lp(
        instance, members, lower, instance.n_users, instance.deadline, 0.0
    )
    sol = lpmod.solve_lp(problem)
    if sol.status != "optimal":
        return _infeasible(instance, None)
    bits = {uid: max(sol.x[k], 0.0) for k, uid in enumerate(members)}
    objective = sum(derived[uid].energy_delta_per_bit * b for uid, b in sorted(bits.items()))
    return EnergySchedule(
        scheduled=frozenset(members),
        offload_bits=bits,
        compute_time=sol.x[-1],
        objective=objective,
        total_energy=objective + baseline_local_energy(instance),
        status="lp-path",
    )
