"""Sum-offloading-rate maximization.

For a fixed scheduled set S the problem collapses to closed form: every
scheduled user offloads at its interference-degraded cap, the computing
window is

    t_e = T * (1+d)**(|S|-1) / ((1+d)**(|S|-1) + sum_S (a_i + b_i*g_i) r_i),

and the achieved weighted rate is

    R(S) = sum_S w_i r_i / ((1+d)**(|S|-1) + sum_S (a_i + b_i*g_i) r_i).

Choosing S is a mixed-integer fractional program.  For a fixed rate
parameter R the best set of every size m is the top m of one score sort, so
one Dinkelbach loop over all sizes at once solves it exactly
(`solve_rate_max`); `dinkelbach_slave` is the same loop with m fixed, and
`per_size_table` runs it for every m as a diagnostic.  Special-case solvers
and the three stock benchmarks live here too; the LP relaxation benchmark
coincides with the exact solve (see `benchmark_lr`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .model import Instance, RateSchedule, UserProfile, vm_rate_factor

__all__ = [
    "ConditionalSolution",
    "DinkelbachIteration",
    "DinkelbachTrace",
    "SlaveSummary",
    "conditional_solution",
    "dinkelbach_slave",
    "per_size_table",
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


def _rate_terms(u: UserProfile) -> tuple[float, float, float]:
    """One user's terms of the closed form: w*r, (a+b*g)*r and w/(a+b*g)."""
    rt = u.roundtrip_time_per_bit
    return u.weight * u.service_rate, rt * u.service_rate, u.weight / rt


def _fixed_set_sums(degradation: float, terms: list[tuple[float, float, float]]):
    """Numerator, denominator and interference penalty of the closed-form
    rate of a nonempty set, summed over its members' `_rate_terms` in the
    order given (ascending ids), and the slowest member's weighted
    transmission rate."""
    penalty = (1.0 + degradation) ** (len(terms) - 1)
    num = 0.0
    den = penalty
    min_tx = math.inf
    for wr, qr, tx in terms:
        num += wr
        den += qr
        if tx < min_tx:
            min_tx = tx
    return num, den, penalty, min_tx


def _meets_necessary_condition(rate: float, min_tx: float) -> bool:
    return rate <= min_tx * (1.0 + _COND_RTOL)


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
    factor = vm_rate_factor(instance.degradation, len(members))
    num, den, penalty, min_tx = _fixed_set_sums(
        instance.degradation, [_rate_terms(instance.users[uid]) for uid in members]
    )
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
        satisfies_necessary_condition=_meets_necessary_condition(rate, min_tx),
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
    view = instance.view
    weight, roundtrip, service = view.weight, view.roundtrip, view.service
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
        records.append(DinkelbachIteration(rate, frozenset(selected.tolist()), gap))
        rate = num / den
        if abs(gap) <= 1e-9 * (1.0 + abs(num)):
            break
    else:
        raise RuntimeError("Dinkelbach iteration cap exceeded")
    return records[-1].selected, rate, DinkelbachTrace(tuple(records))


@dataclass(frozen=True)
class SlaveSummary:
    m: int
    rate: float
    iterations: int
    selected: frozenset[int]


def solve_rate_max(instance: Instance) -> tuple[RateSchedule, tuple[SlaveSummary, ...]]:
    """Optimal scheduled set, bit sizes, and time split.

    One Dinkelbach loop over every set size at once.  For a fixed rate R
    the best set of m users is the top m of the scores r_i * (w_i - R *
    (a_i + b_i*g_i)), so a step sorts the scores once (lowest id on ties)
    and keeps the first m maximising prefix_sum(scores)[m] - R*(1+d)**(m-1).
    The loop starts from the best singleton rate, a lower bound on the
    optimum that saves steps over R = 0, updates R to the selected set's
    rate with the slave's expressions, and stops by the slave's rule
    (Dinkelbach 1967).  Sizes within the stop tolerance of the best are then
    rescored by their rate and the smallest size with the largest rate wins,
    which is the tie rule of the per-size sweep in `per_size_table`.

    A set of m users has rate below sum(w r) / (1+d)**(m-1), so sizes whose
    penalty exceeds sum(w r) over the best singleton rate can never win.
    They are cut in the log domain before any penalty is formed, which keeps
    every penalty finite at any K.

    Returns the schedule and a one-row table: the chosen size, its rate, the
    number of Dinkelbach steps, and the chosen set.
    """
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    view = instance.view
    weight, roundtrip, service = view.weight, view.roundtrip, view.service
    wr = weight * service
    qr = roundtrip * service
    rate = float((wr / (1.0 + qr)).max())
    d = instance.degradation
    n_sizes = instance.n_users
    if d > 0.0:
        # one spare size against rounding in the logs
        n_sizes = min(n_sizes, int(math.log(float(wr.sum()) / rate) / math.log1p(d)) + 2)
    penalties = [(1.0 + d) ** j for j in range(n_sizes)]  # the slave's Python floats
    penalty_row = np.array(penalties)

    def prefix_rate(order: np.ndarray, m: int):
        selected = np.sort(order[:m])
        num = float(wr[selected].sum())
        den = penalties[m - 1] + float(qr[selected].sum())
        return selected, num, den

    for iterations in range(1, MAX_DINKELBACH_ITER + 1):
        scores = service * (weight - rate * roundtrip)
        order = np.argsort(-scores, kind="stable")
        objective = np.cumsum(scores[order[:n_sizes]]) - rate * penalty_row
        m = int(objective.argmax()) + 1
        _, num, den = prefix_rate(order, m)
        gap = num - rate * den
        rate = num / den
        tolerance = 1e-9 * (1.0 + abs(num))
        if abs(gap) <= tolerance:
            break
    else:
        raise RuntimeError("Dinkelbach iteration cap exceeded")

    best_rate = -math.inf  # the converged size is always a candidate
    for size in (np.flatnonzero(objective >= objective[m - 1] - tolerance) + 1).tolist():
        candidate, num, den = prefix_rate(order, size)
        if num / den > best_rate:
            m, selected, best_rate = size, candidate, num / den
    chosen = frozenset(selected.tolist())
    schedule = conditional_solution(instance, chosen).as_schedule()
    return schedule, (SlaveSummary(m, best_rate, iterations, chosen),)


def per_size_table(instance: Instance) -> tuple[SlaveSummary, ...]:
    """Diagnostic: the best set of every size m = 1..K, each from its own
    `dinkelbach_slave` run.  The per-size optimum is not monotone in m;
    `solve_rate_max` returns the first row with the largest rate."""
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    rows = []
    for m in range(1, instance.n_users + 1):
        sel, rate, trace = dinkelbach_slave(instance, m)
        rows.append(SlaveSummary(m=m, rate=rate, iterations=trace.iterations, selected=sel))
    return tuple(rows)


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
    terms = [_rate_terms(u) for u in instance.users]
    taken: list[int] = []  # ascending ids, as conditional_solution sums them
    for u in order:
        candidate = taken.copy()
        bisect.insort(candidate, u.id)
        num, den, _penalty, min_tx = _fixed_set_sums(
            instance.degradation, [terms[uid] for uid in candidate]
        )
        if not _meets_necessary_condition(num / den, min_tx):
            break
        taken = candidate
    # a singleton always satisfies the condition, so taken is nonempty
    return conditional_solution(instance, taken).as_schedule()


def benchmark_lr(instance: Instance) -> RateSchedule:
    """The paper's LP-relaxation benchmark, which is exact for this problem.

    The benchmark relaxes the selection step of the per-cardinality
    Dinkelbach loop to max s.x over {0 <= x <= 1, sum x = m}.  That
    constraint matrix (one all-ones row over the identity of the box) is
    totally unimodular, so every vertex of the polytope is the indicator of
    an m-subset, and whenever the m-th and (m+1)-th scores differ the LP
    optimum is exactly the top-m set that `dinkelbach_slave` selects (on a
    tie any top-m set is optimal; the slave keeps the lowest ids).  Each
    relaxed step is therefore the exact step and the loop converges to the
    same per-m optimum (Dinkelbach 1967).  The best m over those optima,
    smaller set winning ties, is what `solve_rate_max` finds with one loop
    over all sizes.  The relaxation gap is zero by construction, so the
    benchmark is that solve.
    """
    return solve_rate_max(instance)[0]
