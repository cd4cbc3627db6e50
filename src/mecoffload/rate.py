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
(`solve_rate_max_batch` runs that loop for many instances in lockstep, and
`solve_rate_max` is its batch of one); `dinkelbach_slave` is the same loop
with m fixed, and `per_size_table` runs it for every m as a diagnostic.  Special-case solvers
and the three stock benchmarks live here too; the LP relaxation benchmark
coincides with the exact solve (see `benchmark_lr`).

The exact solve and the greedy and all-offloading benchmarks each take a
block of instances (`*_batch`); the one-instance functions are their blocks
of one, and each finishes with the closed forms of its sets
(`_closed_forms`).  Only the exact solve works on the block's arrays; the
closed form and the greedy walk run row by row in Python floats, which at a
stock set's few users cost less than the numpy calls a block would make, so
a lone call pays nothing for the block.  A closed form is the
`RateSchedule` itself, with read-only bits.  In a `model.shared_solutions`
scope, as a sweep block opens, each distinct (instance, set) is formed once
for every solver and the rate oracle, and all of them return that one
schedule.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .model import (Instance, RateSchedule, _solutions, block_columns, interference_penalty,
                    per_user_count, vm_rate_factor)

__all__ = [
    "DinkelbachIteration",
    "DinkelbachTrace",
    "SlaveSummary",
    "conditional_solution",
    "dinkelbach_slave",
    "meets_necessary_condition",
    "per_size_table",
    "solve_rate_max",
    "solve_rate_max_batch",
    "homogeneous_m_star",
    "homogeneous_txrate_schedule",
    "no_interference_schedule",
    "benchmark_all_offloading",
    "benchmark_all_offloading_batch",
    "benchmark_greedy",
    "benchmark_greedy_batch",
    "benchmark_lr",
]

# slack for the "rate below every member's transmission rate" test, so exact
# boundary ties are not lost to rounding
_COND_RTOL = 1e-12

MAX_DINKELBACH_ITER = 100


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


def _fixed_set_sums(degradation: float, terms, members: list[int]):
    """Numerator, denominator and interference penalty of the closed-form
    rate of a nonempty set, and its slowest member's weighted transmission
    rate.  terms are the instance's `Instance.rate_terms`, and one loop adds
    the members' terms left to right in the order given (ascending ids),
    the numerator from 0.0 and the denominator from the penalty.  Where the
    penalty saturates at inf, so does the denominator, and the rate is 0."""
    wr, qr, tx = terms
    penalty = interference_penalty(degradation, len(members))
    num, den, min_tx = 0.0, penalty, math.inf
    for uid in members:
        num += wr[uid]
        den += qr[uid]
        if tx[uid] < min_tx:
            min_tx = tx[uid]
    return num, den, penalty, min_tx


def _meets_necessary_condition(rate: float, min_tx: float) -> bool:
    return rate <= min_tx * (1.0 + _COND_RTOL)


def meets_necessary_condition(instance: Instance, schedule: RateSchedule) -> bool:
    """Whether the schedule's rate stays at or below its slowest member's
    weighted transmission rate, the bottleneck condition every optimal set
    meets: if it does not, dropping that member would already improve the
    rate.  The scheduled set must be nonempty and name users of the
    instance, as for `conditional_solution`."""
    tx = instance.rate_terms[2]
    min_tx = min(tx[uid] for uid in _members(instance, schedule.scheduled))
    return _meets_necessary_condition(schedule.sum_rate, min_tx)


def conditional_solution(instance: Instance, subset) -> RateSchedule:
    """Optimal bit split and time split once the scheduled set is fixed.

    All members sit at their offload cap and the latency budget is tight.
    The set can be optimal only if the schedule `meets_necessary_condition`.
    """
    return _closed_forms([instance], [_members(instance, subset)])[0]


def _members(instance: Instance, subset) -> list[int]:
    """The ids of a set in ascending order, refusing an empty set
    (`ValueError`) and an id that names no user (`KeyError`)."""
    members = sorted(set(subset))
    if not members:
        raise ValueError("scheduled set must be nonempty")
    n_users = instance.n_users
    if members[0] < 0 or members[-1] >= n_users:
        unknown = members[0] if members[0] < 0 else members[bisect.bisect_left(members, n_users)]
        raise KeyError(f"no user with id {unknown}")
    return members


def _closed_forms(instances, members) -> list[RateSchedule]:
    """`_closed_form` of each instance with the ids of its members.  Each
    distinct (instance, set) of the call, or of a `shared_solutions` scope,
    is formed once, and a repeat takes the memo's schedule, whose bits are
    read-only; the memo holds the instance, so its id is not reused while
    the scope lives.  Outside a scope nothing is kept past the call."""
    memo = _solutions.get()
    memo = {} if memo is None else memo
    schedules = []
    for instance, ids in zip(instances, members):
        key = id(instance), tuple(ids)
        held = memo.get(key)
        if held is None:
            held = memo[key] = instance, _closed_form(instance, ids)
        schedules.append(held[1])
    return schedules


def _closed_form(instance: Instance, ids) -> RateSchedule:
    """The closed form of the instance with the ids of its members, a
    nonempty ascending sequence, in Python floats."""
    d = instance.degradation
    num, den, penalty, _ = _fixed_set_sums(d, instance.rate_terms, ids)
    factor = vm_rate_factor(d, len(ids))
    # a saturated penalty takes the whole frame: t_e -> T as it grows
    te = instance.deadline if penalty == math.inf else instance.deadline * penalty / den
    if te == math.inf:  # T * penalty overflowed, though the window is at most T
        te = instance.deadline * (penalty / den)
    service = instance.service_rate.tolist()
    bits = dict.fromkeys(range(instance.n_users), 0.0)
    for uid in ids:
        bits[uid] = te * service[uid] * factor
    return RateSchedule(frozenset(ids), MappingProxyType(bits), te, num / den)


def _per_user_count(instances, solve) -> list:
    """`model.per_user_count`, refusing an instance without users first."""
    instances = list(instances)
    _require_users(instances)
    return per_user_count(instances, solve)


def _require_users(instances) -> None:
    """The rate solvers' refusal of an instance without users, made first."""
    if any(instance.n_users == 0 for instance in instances):
        raise ValueError("instance has no users")


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

    Every size m = 1..K is scored; one where (1+d)**(m-1), or R times it,
    overflows scores -inf.  No such size wins: R never falls below the best
    singleton rate, so a size whose penalty passes sum(w r) (1+d) over that
    rate scores below -d sum(w r) at every step, and the best score is at
    least 0 up to rounding.

    Returns the schedule and a one-row table: the chosen size, its rate, the
    number of Dinkelbach steps, and the chosen set.  This is
    `solve_rate_max_batch` of the one instance.
    """
    return solve_rate_max_batch([instance])[0]


def solve_rate_max_batch(instances) -> list[tuple[RateSchedule, tuple[SlaveSummary, ...]]]:
    """`solve_rate_max` of every instance, in order, to the bit.

    The instances of each user count run the loop in lockstep on (rows, K)
    arrays, and a row leaves as soon as it meets the stop rule.  Every
    elementwise expression is the one-instance one, and each selected set is
    summed as a contiguous row of its members in ascending id, the rows
    grouped by set size: such a row sum adds in the order of numpy's 1-D
    sum of that set.  A set padded with zeros to a common width would not:
    numpy sums 8 or more terms with 8 interleaved accumulators, so the
    padding moves terms between them.  Each row then finishes with the
    closed form of its selected set.
    """
    return _per_user_count(instances, _solve_block)


def _solve_block(instances: list[Instance]) -> list[tuple[RateSchedule, tuple[SlaveSummary]]]:
    summaries = _lockstep(instances)
    schedules = _closed_forms(instances, [sorted(summary.selected) for summary in summaries])
    return [(schedule, (summary,)) for schedule, summary in zip(schedules, summaries)]


@functools.lru_cache(maxsize=32)
def _penalties(degradation: float, n_sizes: int) -> tuple[float, ...]:
    """(1+d)**j for j < n_sizes, the slave's Python floats, inf past
    overflow (`interference_penalty`).  Memoised, as a sweep grid point
    shares one d and one user count."""
    row = []
    for j in range(n_sizes):
        row.append(interference_penalty(degradation, j + 1))
        if row[-1] == math.inf:  # and so is every larger size's
            row += [math.inf] * (n_sizes - len(row))
            break
    return tuple(row)


def _set_sums(positions: np.ndarray, sizes: list[int], terms: np.ndarray):
    """The lists of sum(w r) and of sum((a+b*g) r) over the top sizes[j]
    users of each row positions[j], as Python floats.  terms holds the w r
    and (a+b*g) r terms of the lanes as two flat (lanes * K) rows, and
    positions index them.  Each set is summed as one contiguous row of its
    members in ascending id, the rows of one size together: `take` gives
    C-contiguous (2, sets, size) rows, which sum in the order of a 1-D sum
    (fancy indexing may not)."""
    if len(set(sizes)) == 1:
        members = positions[:, : sizes[0]].copy()
        members.sort(axis=1)
        return terms.take(members, axis=1).sum(axis=2).tolist()
    groups: dict[int, list[int]] = {}
    for j, size in enumerate(sizes):
        groups.setdefault(size, []).append(j)
    num, qr_sum = [0.0] * len(sizes), [0.0] * len(sizes)
    for size, lanes in groups.items():
        members = positions[lanes, :size]
        members.sort(axis=1)
        for j, a, b in zip(lanes, *terms.take(members, axis=1).sum(axis=2).tolist()):
            num[j], qr_sum[j] = a, b
    return num, qr_sum


# R (1+d)**(m-1) may overflow to inf: that size never wins (`solve_rate_max`)
@np.errstate(over="ignore")
def _lockstep(instances: list[Instance]) -> list[SlaveSummary]:
    """The `solve_rate_max` loop of instances with one user count K, run as
    the lanes of (lanes, K) arrays, one lane per instance; each lane's rate,
    set sums and stop test stay Python floats, as in the one-instance loop."""
    n_rows, n_users = len(instances), instances[0].n_users
    weight, roundtrip, service = block_columns(
        instances, "weight", "roundtrip_time_per_bit", "service_rate")
    wr = weight * service
    qr = roundtrip * service
    terms = np.array((wr, qr)).reshape(2, -1)  # two flat (lanes * K) rows
    rates = (wr / (1.0 + qr)).max(axis=1).tolist()
    penalties = [_penalties(instance.degradation, n_users) for instance in instances]
    penalty = np.array(penalties)  # each row's, as the slave's Python floats

    live = list(range(n_rows))  # the block row of each lane
    # lane j's start in the flat (lanes * K) scores and terms
    offsets = np.arange(0, n_rows * n_users, n_users)[:, None] if n_rows > 1 else None
    summaries = [None] * n_rows
    for iterations in range(1, MAX_DINKELBACH_ITER + 1):
        rate = np.array(rates)[:, None]
        # Negated scores and objective: negating both operands negates a
        # rounded sum or product exactly, so each is the one-instance value
        # negated (up to the sign of a zero, which no comparison sees), and
        # the first least negated objective is the first largest objective.
        neg_scores = service * (rate * roundtrip - weight)
        # each lane's users by descending score, lowest id on ties, and
        # their positions in the flat arrays (lane 0 starts at 0)
        order = neg_scores.argsort(axis=1, kind="stable")
        positions = order + offsets if len(live) > 1 else order
        neg_objective = neg_scores.take(positions).cumsum(axis=1)
        neg_objective += rate * penalty
        sizes = [index + 1 for index in neg_objective.argmin(axis=1).tolist()]
        kept, finished, tolerances = [], [], []
        for j, (row, size, num, qr_sum) in enumerate(
            zip(live, sizes, *_set_sums(positions, sizes, terms))
        ):
            den = penalties[row][size - 1] + qr_sum
            gap = num - rates[j] * den
            rates[j] = num / den
            tolerance = 1e-9 * (1.0 + abs(num))
            if abs(gap) <= tolerance:
                finished.append(j)
                tolerances.append(tolerance)
            else:
                kept.append(j)
        if finished:
            every = not kept
            lanes = slice(None) if every else finished
            _finish(summaries, iterations, [live[j] for j in finished], order[lanes],
                    positions[lanes], neg_objective[lanes], [sizes[j] for j in finished],
                    [rates[j] for j in finished], tolerances, penalties, terms)
            if every:
                return summaries
            live = [live[j] for j in kept]
            rates = [rates[j] for j in kept]
            weight, roundtrip, service = weight[kept], roundtrip[kept], service[kept]
            terms = terms.reshape(2, -1, n_users)[:, kept].reshape(2, -1)
            penalty, offsets = penalty[kept], offsets[: len(kept)]
    raise RuntimeError("Dinkelbach iteration cap exceeded")


def _finish(summaries, iterations, rows, order, positions, neg_objective, sizes, rates, tolerances,
            penalties, terms) -> None:
    """Fill the summaries of the block rows that converged at this step,
    from their lanes of the step's arrays.  Sizes within the stop tolerance
    of the best are rescored by their rate and the smallest size with the
    largest rate wins.  A converged size's own rescore is the step's rate,
    so a row with no other candidate keeps it."""
    # the step's negated objective is least at the converged size
    ceilings = neg_objective.min(axis=1) + tolerances
    lane, index = np.nonzero(neg_objective <= ceilings[:, None])  # each row's sizes ascending
    if len(lane) > len(rows):
        rates = [-math.inf] * len(rows)
        candidates = (index + 1).tolist()
        scored = _set_sums(positions[lane], candidates, terms)
        for k, size, num, qr_sum in zip(lane.tolist(), candidates, *scored):
            rate = num / (penalties[rows[k]][size - 1] + qr_sum)
            if rate > rates[k]:
                rates[k], sizes[k] = rate, size
    for row, top, size, rate in zip(rows, order.tolist(), sizes, rates):
        summaries[row] = SlaveSummary(size, rate, iterations, frozenset(top[:size]))


def per_size_table(instance: Instance) -> tuple[SlaveSummary, ...]:
    """Diagnostic: the best set of every size m = 1..K, each from its own
    `dinkelbach_slave` run.  The per-size optimum is not monotone in m;
    `solve_rate_max` returns the first row with the largest rate."""
    _require_users([instance])
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
    _require_users([instance])
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
    return conditional_solution(instance, taken)


def no_interference_schedule(instance: Instance) -> RateSchedule:
    """Optimal schedule for d = 0: a pure transmission-rate threshold.

    With no VM interference the only cost of scheduling a user is radio
    time, so sort by transmission rate and keep the longest prefix whose
    last member still transmits at least as fast as the prefix's own rate.
    """
    _require_users([instance])
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
    return conditional_solution(instance, taken)


def benchmark_all_offloading(instance: Instance) -> RateSchedule:
    """Schedule everybody; only the bit and time split is optimized."""
    return benchmark_all_offloading_batch([instance])[0]


def benchmark_all_offloading_batch(instances) -> list[RateSchedule]:
    """`benchmark_all_offloading` of every instance, in order, to the bit."""
    instances = list(instances)
    _require_users(instances)
    everyone = [list(range(instance.n_users)) for instance in instances]
    return _closed_forms(instances, everyone)


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
    transmission rate.  This is `benchmark_greedy_batch` of the one
    instance."""
    return benchmark_greedy_batch([instance])[0]


def benchmark_greedy_batch(instances) -> list[RateSchedule]:
    """`benchmark_greedy` of every instance, in order, to the bit.

    The stop rule is that of `conditional_solution`, which sums the set in
    ascending id order.  Each instance instead adds its users to running
    sums in greedy order, and the rate from those sums decides a step
    whenever it is farther from the threshold than `_greedy_rounding_bound`
    lets the two orders differ.  Closer than that, the id-ordered sums
    (`_fixed_set_sums`) decide, so the set is the same to the bit as that of
    a loop that re-sums every candidate set in id order."""
    instances = list(instances)
    chosen = [sorted(_greedy_prefix(instance)) for instance in instances]
    return _closed_forms(instances, chosen)


def _greedy_prefix(instance: Instance) -> list[int]:
    """The users greedy takes, in greedy order."""
    _require_users([instance])
    n_users = instance.n_users
    terms = wr, qr, tx = instance.rate_terms
    # descending w/(a+b*g), lowest id on ties (a reversed sort is stable):
    # each user is the slowest of its prefix
    order = sorted(range(n_users), key=tx.__getitem__, reverse=True)
    bound = _greedy_rounding_bound(n_users)
    # for the fallback: the users added so far in ascending id, brought up to
    # date when it runs
    members: list[int] = []
    wr_sum = qr_sum = 0.0
    for size, (uid, penalty) in enumerate(zip(order, _penalties(instance.degradation, n_users)), 1):
        wr_sum += wr[uid]
        qr_sum += qr[uid]
        rate = wr_sum / (penalty + qr_sum)
        threshold = tx[uid] * (1.0 + _COND_RTOL)
        if abs(rate - threshold) > bound * threshold:
            passes = rate <= threshold
        else:  # too close to call from the running sums
            for member in order[len(members) : size]:
                bisect.insort(members, member)
            num, den, _, min_tx = _fixed_set_sums(instance.degradation, terms, members)
            passes = _meets_necessary_condition(num / den, min_tx)
        if not passes:
            # a singleton always passes, so the prefix is nonempty
            return order[: size - 1]
        if penalty == math.inf:  # every larger set has rate 0 and passes too
            break
    return order


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
