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

from .model import Instance, RateSchedule, interference_penalty, vm_rate_factor

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


def _rate_terms(instance: Instance) -> tuple[list[float], list[float], list[float]]:
    """Every user's terms of the closed form, in id order: w*r, (a+b*g)*r
    and w/(a+b*g)."""
    weight, roundtrip = instance.weight, instance.roundtrip_time_per_bit
    service = instance.service_rate
    return (weight * service).tolist(), (roundtrip * service).tolist(), (weight / roundtrip).tolist()


def _fixed_set_sums(degradation: float, terms: list[tuple[float, float, float]]):
    """Numerator, denominator and interference penalty of the closed-form
    rate of a nonempty set, summed over its members' `_rate_terms` in the
    order given (ascending ids), and the slowest member's weighted
    transmission rate.  Where the penalty saturates at inf, so does the
    denominator, and the rate is 0."""
    penalty = interference_penalty(degradation, len(terms))
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
    n_users = instance.n_users
    if members[0] < 0 or members[-1] >= n_users:
        unknown = members[0] if members[0] < 0 else members[bisect.bisect_left(members, n_users)]
        raise KeyError(f"no user with id {unknown}")
    factor = vm_rate_factor(instance.degradation, len(members))
    wr, qr, tx = _rate_terms(instance)
    num, den, penalty, min_tx = _fixed_set_sums(
        instance.degradation, [(wr[uid], qr[uid], tx[uid]) for uid in members]
    )
    rate = num / den
    # a saturated penalty takes the whole frame: t_e -> T as it grows
    te = instance.deadline if penalty == math.inf else instance.deadline * penalty / den
    service = instance.service_rate.tolist()
    bits = dict.fromkeys(range(n_users), 0.0)
    for uid in members:
        bits[uid] = te * service[uid] * factor
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
    weight, roundtrip = instance.weight, instance.roundtrip_time_per_bit
    service = instance.service_rate
    penalty = interference_penalty(instance.degradation, m)
    if penalty == math.inf:  # every m-set has rate 0, the optimum: stop at the first step
        selected = frozenset(_top_m(service * weight, m).tolist())
        return selected, 0.0, DinkelbachTrace((DinkelbachIteration(0.0, selected, 0.0),))
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
    weight, roundtrip = instance.weight, instance.roundtrip_time_per_bit
    service = instance.service_rate
    wr = weight * service
    qr = roundtrip * service
    rate = float((wr / (1.0 + qr)).max())
    d = instance.degradation
    n_sizes = instance.n_users
    if d > 0.0:
        # one spare size against rounding in the logs; a subnormal d
        # overflows the quotient, which then cuts no size
        cut = math.log(float(wr.sum()) / rate) / math.log1p(d)
        if cut < n_sizes:
            n_sizes = min(n_sizes, int(cut) + 2)
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
    x = min(1.0 / math.log1p(degradation), n_users)  # inf for a subnormal degradation
    candidates = {min(max(int(math.floor(x)), 1), n_users), min(max(int(math.ceil(x)), 1), n_users)}

    def rate_at(m: int) -> float:
        return (
            m
            * service_rate
            / ((1.0 + degradation) ** (m - 1) + m * service_rate * roundtrip_time)
        )

    return min(candidates, key=lambda m: (-rate_at(m), m))


def _require_uniform_weights(instance: Instance) -> None:
    if (np.abs(instance.weight - 1.0) > 1e-12).any():
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
    rts = instance.roundtrip_time_per_bit
    if (rts.max() - rts.min()) > 1e-9 * rts.max():
        raise ValueError("requires identical transmission rates for all users")
    d = instance.degradation
    service = instance.service_rate.tolist()
    # descending service rate, lowest id on ties
    order = np.argsort(-instance.service_rate, kind="stable").tolist()
    taken: list[int] = []
    prefix = 0.0
    for uid in order:
        if service[uid] >= d * prefix - 1e-12 * (1.0 + d * prefix):
            taken.append(uid)
            prefix += service[uid]
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
    roundtrip = instance.roundtrip_time_per_bit.tolist()
    service = instance.service_rate.tolist()
    # ascending roundtrip time, lowest id on ties
    order = np.argsort(instance.roundtrip_time_per_bit, kind="stable").tolist()
    taken: list[int] = []
    num = 0.0
    den = 1.0
    for uid in order:
        num_next = num + service[uid]
        den_next = den + roundtrip[uid] * service[uid]
        tx = 1.0 / roundtrip[uid]
        if tx * (1.0 + _COND_RTOL) >= num_next / den_next:
            taken.append(uid)
            num, den = num_next, den_next
        else:
            break
    return conditional_solution(instance, taken).as_schedule()


def benchmark_all_offloading(instance: Instance) -> RateSchedule:
    """Schedule everybody; only the bit and time split is optimized."""
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    return conditional_solution(instance, range(instance.n_users)).as_schedule()


# Padding on the rounding bound of benchmark_greedy's running sums.
_GREEDY_BOUND_PAD = 4.0


def _greedy_rounding_bound(size: int) -> float:
    """A bound B on |rate_a / rate_b - 1| for any two closed-form rates of
    a set of at most `size` users that add the same double terms in
    different orders.

    Recursive summation of n positive terms in any order is within
    gamma_(n-1) = (n-1)u / (1 - (n-1)u) of the exact sum, relative
    (Higham 2002, section 4.2), with u = 2^-53.  For k users the numerator
    adds k terms and the denominator k + 1 (the penalty is one of them, the
    same double on both sides), and the quotient rounds once more.  So each
    computed rate lies in [lo, hi] times the exact one, with
    hi = (1 + gamma_(k-1)) (1 + u) / (1 - gamma_k) and
    lo = (1 - gamma_(k-1)) (1 - u) / (1 + gamma_k), and two of them differ
    by a factor of at most hi / lo, about 1 + 4ku.  That grows with k, so
    the value at k = size covers every smaller set; it is padded by
    _GREEDY_BOUND_PAD."""
    u = 2.0**-53  # unit roundoff
    gamma_num = (size - 1) * u / (1.0 - (size - 1) * u)
    gamma_den = size * u / (1.0 - size * u)
    hi = (1.0 + gamma_num) * (1.0 + u) / (1.0 - gamma_den)
    lo = (1.0 - gamma_num) * (1.0 - u) / (1.0 + gamma_den)
    return _GREEDY_BOUND_PAD * (hi / lo - 1.0)


def benchmark_greedy(instance: Instance) -> RateSchedule:
    """Grow the set in descending weighted-transmission-rate order, stopping
    the first time the tentative set's rate would exceed its slowest member's
    transmission rate.

    The rule is that of `conditional_solution`, which sums the set in
    ascending id order.  Each step here adds its user to running sums in
    greedy order instead, and that rate decides the step whenever it is
    farther from the threshold than `_greedy_rounding_bound` lets the two
    orders differ.  Closer than that, the id-ordered sums decide, so the
    set is the same to the bit as that of a loop that re-sums every
    candidate set in id order."""
    if instance.n_users == 0:
        raise ValueError("instance has no users")
    wr, qr, tx = _rate_terms(instance)
    # descending w/(a+b*g), lowest id on ties: each user is the slowest of
    # its prefix
    order = np.argsort(-instance.weight / instance.roundtrip_time_per_bit, kind="stable").tolist()
    bound = _greedy_rounding_bound(instance.n_users)
    # for the fallback: the users added so far in ascending id, with their
    # _rate_terms, brought up to date when it runs
    members: list[int] = []
    member_terms: list[tuple[float, float, float]] = []
    wr_sum = qr_sum = 0.0
    taken = instance.n_users
    for size, uid in enumerate(order, 1):
        wr_sum += wr[uid]
        qr_sum += qr[uid]
        penalty = interference_penalty(instance.degradation, size)
        rate = wr_sum / (penalty + qr_sum)
        threshold = tx[uid] * (1.0 + _COND_RTOL)
        if abs(rate - threshold) > bound * threshold:
            passes = rate <= threshold
        else:  # too close to call from the running sums
            for member in order[len(members) : size]:
                at = bisect.bisect(members, member)
                members.insert(at, member)
                member_terms.insert(at, (wr[member], qr[member], tx[member]))
            num, den, _, min_tx = _fixed_set_sums(instance.degradation, member_terms)
            passes = _meets_necessary_condition(num / den, min_tx)
        if not passes:
            taken = size - 1
            break
        if penalty == math.inf:  # every larger set has rate 0 and passes too
            break
    # a singleton always satisfies the condition, so taken is nonempty
    return conditional_solution(instance, order[:taken]).as_schedule()


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
