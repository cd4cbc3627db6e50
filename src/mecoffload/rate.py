"""Sum-offloading-rate maximization.

For a fixed scheduled set S the problem collapses to closed form: every
scheduled user offloads at its interference-degraded cap, the computing
window is

    t_e = T * (1+d)**(|S|-1) / ((1+d)**(|S|-1) + sum_S (a_i + b_i*g_i) r_i),

and the achieved weighted rate is

    R(S) = sum_S w_i r_i / ((1+d)**(|S|-1) + sum_S (a_i + b_i*g_i) r_i).

Choosing S is a mixed-integer fractional program.  With the cardinality m
fixed the Dinkelbach iteration solves it exactly (the inner maximization is
a plain top-m selection), and a sweep over m = 1..K finds the optimum.
Special-case solvers and the three stock benchmarks live here too; the LP
relaxation benchmark coincides with the exact solve (see `benchmark_lr`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, RateSchedule, vm_rate_factor

__all__ = [
    "ConditionalSolution",
    "DinkelbachIteration",
    "DinkelbachTrace",
    "SlaveSummary",
    "conditional_solution",
    "dinkelbach_slave",
    "solve_rate_max",
    "homogeneous_m_star",
    "homogeneous_txrate_schedule",
    "no_interference_schedule",
    "benchmark_all_offloading",
    "benchmark_greedy",
    "benchmark_lr",
]

# slack for the "rate below every member's transmission rate" test, so exact
# boundary ties are not lost to rounding
_COND_RTOL = 1e-12

MAX_DINKELBACH_ITER = 100


@dataclass(frozen=True)
class ConditionalSolution:
    """Closed-form optimum for one fixed scheduled set."""

    subset: frozenset[int]
    compute_time: float
    offload_bits: dict[int, float]
    rate: float
    satisfies_necessary_condition: bool

    def as_schedule(self) -> RateSchedule:
        return RateSchedule(
            scheduled=self.subset,
            offload_bits=dict(self.offload_bits),
            compute_time=self.compute_time,
            sum_rate=self.rate,
        )


@dataclass(frozen=True)
class DinkelbachIteration:
    rate: float  # value the selection used
    selected: frozenset[int]
    gap: float  # subtractive objective at that rate


@dataclass(frozen=True)
class DinkelbachTrace:
    records: tuple[DinkelbachIteration, ...]

    @property
    def iterations(self) -> int:
        return len(self.records)


def _arrays(instance: Instance):
    weight = np.array([u.weight for u in instance.users])
    roundtrip = np.array([u.roundtrip_time_per_bit for u in instance.users])
    service = np.array([u.service_rate for u in instance.users])
    return weight, roundtrip, service


def conditional_solution(instance: Instance, subset) -> ConditionalSolution:
    """Optimal bit split and time split once the scheduled set is fixed.

    All members sit at their offload cap, the latency budget is tight, and
    the necessary-condition flag records whether the achieved rate stays at
    or below the slowest member's weighted transmission rate (if it does not,
    dropping that member would already improve the rate).
    """
    members = sorted(set(subset))
    if not members:
        raise ValueError("scheduled set must be nonempty")
    for uid in members:
        instance.user(uid)  # raises KeyError on unknown ids
    d = instance.degradation
    m = len(members)
    penalty = (1.0 + d) ** (m - 1)
    factor = vm_rate_factor(d, m)

    num = 0.0
    den = penalty
    min_tx = math.inf
    for uid in members:
        u = instance.users[uid]
        rt = u.roundtrip_time_per_bit
        num += u.weight * u.service_rate
        den += rt * u.service_rate
        min_tx = min(min_tx, u.weight / rt)
    rate = num / den
    te = instance.deadline * penalty / den
    bits = {u.id: 0.0 for u in instance.users}
    for uid in members:
        bits[uid] = te * instance.users[uid].service_rate * factor
    return ConditionalSolution(
        subset=frozenset(members),
        compute_time=te,
        offload_bits=bits,
        rate=rate,
        satisfies_necessary_condition=rate <= min_tx * (1.0 + _COND_RTOL),
    )


def _top_m(scores: np.ndarray, m: int) -> np.ndarray:
    # stable sort on the negated scores: equal scores keep ascending id order
    return np.sort(np.argsort(-scores, kind="stable")[:m])


def dinkelbach_slave(instance: Instance, m: int) -> tuple[frozenset[int], float, DinkelbachTrace]:
    """Best rate over all scheduled sets of exactly m users.

    Classic Dinkelbach loop on the rate parameter R: score each user by
    r_i * (w_i - R * (a_i + b_i*g_i)), keep the m best (lowest id on ties),
    update R to the selected set's rate, and stop once the subtractive
    objective is zero at the working precision.  Because the candidate sets
    are finite the loop converges finitely and exactly.
    """
    K = instance.n_users
    if not 1 <= m <= K:
        raise ValueError(f"m must be in 1..{K}, got {m}")
    weight, roundtrip, service = _arrays(instance)
    penalty = (1.0 + instance.degradation) ** (m - 1)
    wr = weight * service
    qr = roundtrip * service

    rate = 0.0
    records: list[DinkelbachIteration] = []
    selected = np.arange(m)
    for _ in range(MAX_DINKELBACH_ITER):
        scores = service * (weight - rate * roundtrip)
        selected = _top_m(scores, m)
        num = float(wr[selected].sum())
        den = penalty + float(qr[selected].sum())
        gap = num - rate * den
        records.append(DinkelbachIteration(rate, frozenset(int(i) for i in selected), gap))
        rate = num / den
        if abs(gap) <= 1e-9 * (1.0 + abs(num)):
            break
    else:
        raise RuntimeError("Dinkelbach iteration cap exceeded")
    return (
        frozenset(int(i) for i in selected),
        rate,
        DinkelbachTrace(tuple(records)),
    )


@dataclass(frozen=True)
class SlaveSummary:
    m: int
    rate: float
    iterations: int
    selected: frozenset[int]


def solve_rate_max(instance: Instance) -> tuple[RateSchedule, tuple[SlaveSummary, ...]]:
    """Optimal scheduled set, bit sizes, and time split.

    Runs the fixed-cardinality solver for every m (the per-m optimum is not
    monotone in m, so the sweep is exhaustive) and materializes the best.
    Ties between different m go to the smaller set.
    """
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    table: list[SlaveSummary] = []
    best_rate = -math.inf
    best_set: frozenset[int] = frozenset()
    for m in range(1, instance.n_users + 1):
        sel, rate, trace = dinkelbach_slave(instance, m)
        table.append(SlaveSummary(m=m, rate=rate, iterations=trace.iterations, selected=sel))
        if rate > best_rate:
            best_rate = rate
            best_set = sel
    schedule = conditional_solution(instance, best_set).as_schedule()
    return schedule, tuple(table)


def homogeneous_m_star(
    degradation: float, n_users: int, service_rate: float, roundtrip_time: float
) -> int:
    """Best number of scheduled users when every user is identical.

    The real-valued stationary point of m*r / ((1+d)**(m-1) + m*r*(a+b*g))
    is 1/ln(1+d); the integer optimum is one of its two neighbors after
    clamping to [1, n_users], and both candidates are evaluated.
    """
    if degradation <= 0.0:
        raise ValueError("requires degradation > 0; the d=0 case schedules by threshold instead")
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    x = 1.0 / math.log1p(degradation)
    candidates = {min(max(int(math.floor(x)), 1), n_users), min(max(int(math.ceil(x)), 1), n_users)}

    def rate_at(m: int) -> float:
        return (
            m
            * service_rate
            / ((1.0 + degradation) ** (m - 1) + m * service_rate * roundtrip_time)
        )

    return min(candidates, key=lambda m: (-rate_at(m), m))


def _require_uniform_weights(instance: Instance) -> None:
    if any(abs(u.weight - 1.0) > 1e-12 for u in instance.users):
        raise ValueError("requires uniform unit weights")


def homogeneous_txrate_schedule(instance: Instance) -> RateSchedule:
    """Optimal schedule when all users share one transmission rate.

    Sort by service rate (descending, id on ties) and keep extending the
    prefix while the next user's service rate is at least d times the sum of
    the rates already taken; the gain of one more VM then still outweighs the
    interference it inflicts on the others.
    """
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    _require_uniform_weights(instance)
    rts = [u.roundtrip_time_per_bit for u in instance.users]
    if (max(rts) - min(rts)) > 1e-9 * max(rts):
        raise ValueError("requires identical transmission rates for all users")
    d = instance.degradation
    order = sorted(instance.users, key=lambda u: (-u.service_rate, u.id))
    taken: list[int] = []
    prefix = 0.0
    for u in order:
        if u.service_rate >= d * prefix - 1e-12 * (1.0 + d * prefix):
            taken.append(u.id)
            prefix += u.service_rate
        else:
            break
    return conditional_solution(instance, taken).as_schedule()


def no_interference_schedule(instance: Instance) -> RateSchedule:
    """Optimal schedule for d = 0: a pure transmission-rate threshold.

    With no VM interference the only cost of scheduling a user is radio
    time, so sort by transmission rate and keep the longest prefix whose
    last member still transmits at least as fast as the prefix's own rate.
    """
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    if instance.degradation != 0.0:
        raise ValueError("requires degradation == 0")
    _require_uniform_weights(instance)
    order = sorted(instance.users, key=lambda u: (u.roundtrip_time_per_bit, u.id))
    taken: list[int] = []
    num = 0.0
    den = 1.0
    for u in order:
        num_next = num + u.service_rate
        den_next = den + u.roundtrip_time_per_bit * u.service_rate
        tx = 1.0 / u.roundtrip_time_per_bit
        if tx * (1.0 + _COND_RTOL) >= num_next / den_next:
            taken.append(u.id)
            num, den = num_next, den_next
        else:
            break
    return conditional_solution(instance, taken).as_schedule()


def benchmark_all_offloading(instance: Instance) -> RateSchedule:
    """Schedule everybody; only the bit and time split is optimized."""
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    return conditional_solution(instance, range(instance.n_users)).as_schedule()


def benchmark_greedy(instance: Instance) -> RateSchedule:
    """Grow the set in descending weighted-transmission-rate order, stopping
    the first time the tentative set's rate would exceed its slowest member's
    transmission rate."""
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    order = sorted(
        instance.users, key=lambda u: (-u.weight / u.roundtrip_time_per_bit, u.id)
    )
    taken: list[int] = []
    best: ConditionalSolution | None = None
    for u in order:
        cand = conditional_solution(instance, taken + [u.id])
        if cand.satisfies_necessary_condition:
            taken.append(u.id)
            best = cand
        else:
            break
    assert best is not None  # a singleton always satisfies the condition
    return best.as_schedule()


def benchmark_lr(instance: Instance) -> RateSchedule:
    """The paper's LP-relaxation benchmark, which is exact for this problem.

    The benchmark relaxes the selection step of the per-cardinality
    Dinkelbach loop to max s.x over {0 <= x <= 1, sum x = m}.  That
    constraint matrix (one all-ones row over the identity of the box) is
    totally unimodular, so every vertex of the polytope is the indicator of
    an m-subset, and whenever the m-th and (m+1)-th scores differ the LP
    optimum is exactly the top-m set that `dinkelbach_slave` selects (on a
    tie any top-m set is optimal; the slave keeps the lowest ids).  Each
    relaxed step is therefore the exact step, the loop converges to the same
    per-m optimum (Dinkelbach 1967), and the sweep over m with its
    smaller-set-wins rule is the one in `solve_rate_max`.  The relaxation
    gap is zero by construction, so the benchmark is that solve.
    """
    return solve_rate_max(instance)[0]
