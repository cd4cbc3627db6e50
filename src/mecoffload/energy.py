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
import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .model import (
    EnergySchedule,
    Instance,
    Partition,
    baseline_local_energy,
    interference_penalty,
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
    "solve_energy_suboptimal_batch",
    "solve_subset_lp",
    "benchmark_energy_all_offloading",
    "benchmark_energy_all_offloading_batch",
]


def partition_users(instance: Instance) -> Partition:
    """The users split four ways: `Instance.partition`, built on first use
    and memoised on the instance, since the heuristic and the oracle both
    read it."""
    return instance.partition


# ---------------------------------------------------------------------------
# Feasibility: smallest workable deadline
# ---------------------------------------------------------------------------


class _Balance:
    """The feasibility balance of one instance, with the user values it
    needs read once from the instance's columns, for the many deadlines a
    root search tries."""

    def __init__(self, instance: Instance):
        self.degradation = instance.degradation
        self.task = instance.task_bits.tolist()
        self.freq = instance.cpu_freq.tolist()
        self.cycles = instance.cycles_per_bit.tolist()
        self.roundtrip = instance.roundtrip_time_per_bit.tolist()
        self.service = instance.service_rate.tolist()

    def min_bits(self, t: float) -> list[float]:
        # `0.0 if 0.0 > x else x` is max(x, 0.0), zero sign included
        return [
            0.0 if 0.0 > (x := b - t * f / c) else x
            for b, f, c in zip(self.task, self.freq, self.cycles)
        ]

    def gap(self, t: float, min_bits: list[float] | None = None) -> float:
        if min_bits is None:
            min_bits = self.min_bits(t)
        # how many b > 0.0: the others are +-0.0, which count() matches
        forced = len(min_bits) - min_bits.count(0.0)
        radio = sum(map(operator.mul, min_bits, self.roundtrip))
        compute = 0.0
        if forced:
            factor = vm_rate_factor(self.degradation, forced)
            if factor > 0.0:
                compute = max(map(operator.truediv, min_bits, [r * factor for r in self.service]))
            else:  # (1 + d)^(1 - n) underflowed: no window is long enough
                compute = math.inf
        return radio + compute - t

    def at(self, t: float) -> tuple[float, list[float]]:
        """The gap at t, with the forced minimum offloads it was formed from."""
        min_bits = self.min_bits(t)
        return self.gap(t, min_bits), min_bits

    def root(self) -> tuple[float, tuple[float, list[float]] | None]:
        """The least double t with gap(t) <= 0 < gap(previous double), and
        `at(t)` where the search evaluated it (else None).

        User k stops being forced at tau_k = c_k L_k / f_k.  Between two
        consecutive thresholds the forced set F is fixed, so the gap is
        A - B t + max_k (alpha_k - beta_k t) / phi - t over k in F, with
        A, B the radio sums, alpha_k = L_k / r_k, beta_k = f_k / (c_k r_k)
        and phi = (1 + d)^(1 - |F|).  A bisection over the sorted
        thresholds finds the segment holding the root, the root of that
        segment is max_k (A phi + alpha_k) / (B phi + beta_k + phi),
        clamped to the segment, and a walk of single ulps settles it on
        the computed gap.
        """
        tau = [c * b / f for b, f, c in zip(self.task, self.freq, self.cycles)]
        order = sorted(range(len(tau)), key=tau.__getitem__)
        if not order or tau[order[-1]] <= 0.0:
            return 0.0, None
        # Keep gap > 0 at threshold lo (position -1 and zero thresholds are
        # t = 0, checked once the search ends there) and gap <= 0 at
        # threshold hi; the last threshold leaves at most a rounding residue
        # forced, so its gap is about -t.
        lo = bisect.bisect_right(order, 0.0, key=tau.__getitem__) - 1
        hi = len(order) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.gap(tau[order[mid]]) > 0.0:
                lo = mid
            else:
                hi = mid
        left = tau[order[lo]] if lo >= 0 else 0.0
        if left == 0.0:
            state = self.at(0.0)
            if state[0] <= 0.0:
                return 0.0, state
        right = tau[order[hi]]
        forced = order[hi:]
        phi = vm_rate_factor(self.degradation, len(forced))
        if phi == 0.0:  # the gap is inf on the whole segment
            return self._settle(right, left, right)
        a = b = 0.0
        for k in forced:
            a += self.task[k] * self.roundtrip[k]
            b += self.freq[k] / self.cycles[k] * self.roundtrip[k]
        t = left
        for k in forced:
            task, freq, cycles, r = self.task[k], self.freq[k], self.cycles[k], self.service[k]
            t = max(t, (a * phi + task / r) / (b * phi + freq / (cycles * r) + phi))
        return self._settle(min(t, right), left, right)

    def _settle(self, t: float, lo: float, hi: float):
        """Walk from t one ulp at a time to a double with gap(t) <= 0 <
        gap(previous double); gap(lo) > 0 >= gap(hi) brackets the walk.
        After _ULP_STEPS steps, bisect the bit patterns of (lo, hi]
        instead, which takes at most 64 more gap evaluations.  Returns the
        double and `at` of it, or None where hi is returned unevaluated."""
        state = self.at(t)
        hi_state = None
        if state[0] > 0.0:
            for _ in range(_ULP_STEPS):
                lo, t = t, math.nextafter(t, math.inf)
                state = self.at(t)
                if state[0] <= 0.0:
                    return t, state
        else:
            for _ in range(_ULP_STEPS):
                hi, hi_state, t = t, state, math.nextafter(t, 0.0)
                state = self.at(t)
                if state[0] > 0.0:
                    return hi, hi_state
        # positive doubles order as their bit patterns do
        lo_bits, hi_bits = _double_bits(lo), _double_bits(hi)
        while hi_bits - lo_bits > 1:
            mid = (lo_bits + hi_bits) // 2
            state = self.at(_bits_double(mid))
            if state[0] > 0.0:
                lo_bits = mid
            else:
                hi_bits, hi_state = mid, state
        return _bits_double(hi_bits), hi_state


_ULP_STEPS = 64


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
    (DESIGN_NOTES.md, "Feasibility by one evaluation")."""
    return _Balance(instance).gap(t)


@dataclass(frozen=True)
class FeasibilityResult:
    """Root of the feasibility balance, with the state evaluated there.

    bracket is (the double below t_min, t_min): the gap is positive at the
    first and nonpositive at the second, so no double between them is
    skipped.  At t_min = 0 both ends are 0.
    """

    t_min: float
    residual: float  # feasibility_gap at t_min (at or just past the root)
    min_bits: tuple[float, ...]
    forced_count: int
    bracket: tuple[float, float]


def feasibility_tmin(instance: Instance) -> FeasibilityResult:
    """Smallest deadline for which the energy problem is feasible.

    The least double t_min whose gap is nonpositive while the gap of the
    double below it is positive, found exactly rather than to a tolerance
    (`_Balance.root`).  The gap may jump past zero where the forced-user
    count drops, so the root can sit on a discontinuity.  Since the
    computed gap never increases with t, `feasibility_gap(instance, T) > 0`
    holds exactly when T < t_min: deciding one deadline needs one gap
    evaluation, and `solve_energy_suboptimal` runs this search only to
    report t_min when it refuses.
    """
    balance = _Balance(instance)
    t, state = balance.root()
    residual, min_bits = balance.at(t) if state is None else state
    return FeasibilityResult(
        t_min=t,
        residual=residual,
        min_bits=tuple(min_bits),
        forced_count=sum(1 for b in min_bits if b > 0.0),
        bracket=(math.nextafter(t, 0.0), t),
    )


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
    bits = np.zeros(instance.n_users)
    costly = _ids(partition.forced_costly)
    bits[costly] = instance.min_offload_bits[costly]
    whole = _ids(partition.forced_saving | s1)
    bits[whole] = instance.task_bits[whole]
    return bits, len(partition.forced) + len(s1)


def _window(instance: Instance, bits: np.ndarray, n_vms: int) -> float:
    longest = (bits / instance.service_rate).max().item() if bits.size else 0.0
    if longest == 0.0:
        return 0.0
    return longest * interference_penalty(instance.degradation, n_vms)


def required_compute_time(instance: Instance, partition: Partition, s1) -> float:
    """Shortest parallel-computing window for the given optional set: the
    slowest full task among scheduled saving users, or the slowest forced
    minimum among costly ones, at the interference-degraded rate."""
    return _window(instance, *_commitment(instance, partition, s1))


def total_delay(instance: Instance, partition: Partition, s1) -> float:
    """Frame time consumed when the forced users and the optional set s1 all
    offload their committed bits: TDMA radio time plus the computing window.
    The radio times are summed one at a time in ascending user id, so the
    result does not depend on how the sets iterate."""
    return _delay(instance, *_commitment(instance, partition, s1))


def _delay(instance: Instance, bits: np.ndarray, n_vms: int) -> float:
    # accumulate adds left to right (.sum() would add pairwise), and the
    # +0.0 terms of uncommitted users leave the running sum unchanged
    radio = np.add.accumulate(bits * instance.roundtrip_time_per_bit)[-1].item() if bits.size else 0.0
    return radio + _window(instance, bits, n_vms)


def _subset_lp(instance: Instance, partition: Partition, s1):
    """`solve_subset_lp` as a plan for `_solve`: the LP to solve (None where
    the subset needs none) and the function that turns its solution into
    the schedule, or None where the LP is infeasible.  The LP runs over the
    members' offload sizes and the computing window, and minimizes the
    energy deltas subject to the radio budget and per-user caps."""
    s1 = _optional(partition, s1)
    members = sorted(partition.forced_saving | s1)
    factor = vm_rate_factor(instance.degradation, len(partition.forced) + len(s1))
    # every user's bits but the members': the forced minimum of the forced
    # costly users, 0 for the rest (`_commitment`)
    committed = [0.0] * instance.n_users
    budget, te_floor = instance.deadline, 0.0
    if partition.forced_costly:
        min_bits = instance.min_offload_bits.tolist()
        roundtrip, service = instance.roundtrip_time_per_bit.tolist(), instance.service_rate.tolist()
        costly = sorted(partition.forced_costly)
        for uid in costly:
            committed[uid] = min_bits[uid]
        # left to right in ascending id, however the set iterates
        budget -= sum(min_bits[uid] * roundtrip[uid] for uid in costly)
        te_floor = max(min_bits[uid] / (service[uid] * factor) for uid in costly)

    def schedule(member_bits, te):
        bits = committed.copy()
        for uid, b in zip(members, member_bits):
            bits[uid] = b
        return _schedule(instance, partition.forced | s1, bits, te, "lp-path")

    if not members:
        fits = te_floor <= budget + 1e-12 * (1.0 + abs(budget))
        return None, lambda _: schedule((), te_floor) if fits else None
    # the budget row, a cap row and a box row per member (the window has no
    # upper bound), held to the LP size guard before anything is allocated
    lpmod.check_size(2 * len(members) + 1, len(members) + 1)
    ids = _ids(members)
    n = ids.size + 1  # trailing variable is the computing window
    objective = np.zeros(n)
    objective[:-1] = instance.delta_per_bit[ids]
    coeffs = np.zeros((n, n))  # the budget row, then a cap row per member
    coeffs[0, :-1] = instance.roundtrip_time_per_bit[ids]
    coeffs[0, -1] = 1.0
    coeffs.flat[n :: n + 1] = 1.0  # member k's own column in its cap row
    coeffs[1:, -1] = -instance.service_rate[ids] * factor
    rhs = np.zeros(n)
    rhs[0] = budget
    bounds = np.empty((n, 2))
    forced = [uid in partition.forced_saving for uid in members]
    bounds[:-1, 0] = np.where(forced, instance.min_offload_bits[ids], 0.0)
    bounds[:-1, 1] = instance.task_bits[ids]
    bounds[-1] = te_floor, math.inf
    for array in (objective, coeffs, rhs, bounds):
        array.flags.writeable = False  # read-only and owned: `LpProblem` keeps them uncopied
    problem = lpmod.LpProblem(objective, coeffs, ("<=",) * n, rhs, bounds)

    def finish(sol):
        if sol.status != "optimal":
            return None
        return schedule([max(x, 0.0) for x in sol.x[:-1]], sol.x[-1])

    return problem, finish


def _solve(plans: list) -> list:
    """`finish(solution)` of each (LP or None, finish) plan, with every LP
    of the plans solved in one `lp.solve_lps` call (None for a plan
    without one)."""
    problems = [problem for problem, _ in plans if problem is not None]
    solutions = iter(lpmod.solve_lps(problems) if problems else ())
    return [finish(None if problem is None else next(solutions)) for problem, finish in plans]


def solve_subset_lp(instance: Instance, partition: Partition, s1) -> EnergySchedule | None:
    """The "lp-path" schedule once the optional set s1 is fixed.

    The forced saving users and s1 choose their offload sizes, bounded
    below by the forced minimum (0 for members of s1); the forced costly
    users sit at their forced minimum, spending radio budget and setting a
    floor under the computing window.  Returns the schedule, or None when
    the LP is infeasible.
    """
    return _solve([_subset_lp(instance, partition, s1)])[0]


def _schedule(instance: Instance, scheduled: frozenset[int], bits, te: float,
              status: str) -> EnergySchedule:
    """The schedule of every user's offload bits, in id order.  The
    objective sums delta * b left to right in user id, from 0.0."""
    objective = sum(map(operator.mul, instance.delta_per_bit.tolist(), bits), 0.0)
    return EnergySchedule(
        scheduled=scheduled,
        offload_bits=dict(enumerate(bits)),
        compute_time=te,
        objective=objective,
        total_energy=objective + baseline_local_energy(instance),
        status=status,
    )


def _infeasible(instance: Instance, t_min: float | None) -> EnergySchedule:
    return EnergySchedule(
        scheduled=frozenset(),
        offload_bits=dict.fromkeys(range(instance.n_users), 0.0),
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
    whose schedule reports t_min.
    """
    return _solve([_suboptimal_plan(instance)])[0]


def solve_energy_suboptimal_batch(instances) -> list[EnergySchedule]:
    """`solve_energy_suboptimal` of each instance, with the LPs of those
    that take the LP branch solved in one `lp.solve_lps` call."""
    return _solve([_suboptimal_plan(instance) for instance in instances])


def _suboptimal_plan(instance: Instance):
    """`solve_energy_suboptimal` as a plan for `_solve`: the LP-branch LP
    and its finish, or no LP and the schedule of the other branches."""
    if feasibility_gap(instance, instance.deadline) > 0.0:
        return _done(_infeasible(instance, feasibility_tmin(instance).t_min))

    part = partition_users(instance)
    # Every load below is the forced users' commitment with some optional
    # users added at their whole task, the bits `total_delay` would form.
    base, n_forced = _commitment(instance, part, ())

    def committed(kept: np.ndarray) -> tuple[np.ndarray, int]:
        bits = base.copy()
        bits[kept] = instance.task_bits[kept]
        return bits, n_forced + kept.size

    optional = np.sort(_ids(part.free_saving))
    load = committed(optional)
    if instance.deadline >= _delay(instance, *load):
        return _done(_schedule(instance, part.forced | part.free_saving, load[0].tolist(),
                               _window(instance, *load), "optimal-path"))

    if instance.deadline >= _delay(instance, base, n_forced):
        # Users leave in a fixed order, lowest saving per radio second
        # first (lowest id on ties), and the load only shrinks as they do,
        # so bisect on how many to drop: the fewest whose removal fits.
        # Dropping none fails the first check above; dropping all passes
        # the second.
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
        return _done(_schedule(instance, part.forced | frozenset(kept.tolist()),
                               load[0].tolist(), _window(instance, *load), "greedy-path"))

    problem, finish = _subset_lp(instance, part, frozenset())
    # an infeasible LP is not expected once the deadline clears t_min
    return problem, lambda sol: (
        finish(sol) or _infeasible(instance, feasibility_tmin(instance).t_min)
    )


def _done(schedule: EnergySchedule):
    """A plan for `_solve` that needs no LP: its finish returns the schedule."""
    return None, lambda _: schedule


def _all_offload_lp(instance: Instance):
    """`benchmark_energy_all_offloading` as a plan for `_solve`: the subset
    LP of the partition that forces every user into a VM, each choosing
    its offload size above its forced minimum, as forced saving users do.
    At K = 0 it has no LP."""
    everyone = Partition(frozenset(), frozenset(range(instance.n_users)), frozenset(), frozenset())
    problem, finish = _subset_lp(instance, everyone, ())
    return problem, lambda sol: finish(sol) or _infeasible(instance, None)


def benchmark_energy_all_offloading_batch(instances) -> list[EnergySchedule]:
    """`benchmark_energy_all_offloading` of each instance, with all their LPs
    solved in one `lp.solve_lps` call."""
    return _solve([_all_offload_lp(instance) for instance in instances])


def benchmark_energy_all_offloading(instance: Instance) -> EnergySchedule:
    """Force every user into a VM and let an LP pick the offload sizes.

    Keeping all K VMs busy maximizes interference, so this both loses energy
    and goes infeasible earlier than the selective scheduler; it is the
    stock baseline the scheduler is measured against.  Beyond the LP size
    guard (K of about 1,300) it raises `BudgetExceededError`.
    """
    return benchmark_energy_all_offloading_batch([instance])[0]
