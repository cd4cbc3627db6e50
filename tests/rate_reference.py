"""The one-instance rate closed form and greedy benchmark, kept as the
bit-exact references for the block forms in `mecoffload.rate`.

This is the code as it was before the rate algorithms took blocks:
`conditional_solution` sums each set's terms one Python float at a time in
ascending id, and `benchmark_greedy` walks the greedy order with running
sums, falling back to the id-ordered sums on a close call.  The block forms
must return schedules whose `repr` equals these on every instance, signed
zeros included.  The sums are a sequential `functools.reduce`, which adds
left to right on every Python version, and the terms are formed here from
the instance's columns, not read from `Instance.rate_terms`.
"""

import bisect
import functools
import math
import operator
from types import MappingProxyType

import numpy as np

from mecoffload.model import RateSchedule, interference_penalty, vm_rate_factor
from mecoffload.rate import _COND_RTOL, _greedy_rounding_bound


def _sum(values, start=0.0):
    return functools.reduce(operator.add, values, start)


def _terms(instance):
    service = instance.service_rate
    return (
        (instance.weight * service).tolist(),
        (instance.roundtrip_time_per_bit * service).tolist(),
        (instance.weight / instance.roundtrip_time_per_bit).tolist(),
    )


def fixed_set_sums(degradation, terms, members):
    wr, qr, tx = terms
    penalty = interference_penalty(degradation, len(members))
    num = _sum([wr[uid] for uid in members])
    den = _sum([qr[uid] for uid in members], penalty)
    return num, den, penalty, min([tx[uid] for uid in members])


def meets_necessary_condition(rate, min_tx):
    return rate <= min_tx * (1.0 + _COND_RTOL)


def necessary_condition(instance, subset):
    """Whether the closed-form rate of the set stays at or below its slowest
    member's weighted transmission rate."""
    num, den, _, min_tx = fixed_set_sums(instance.degradation, _terms(instance), sorted(subset))
    return meets_necessary_condition(num / den, min_tx)


def conditional_solution(instance, subset) -> RateSchedule:
    members = sorted(set(subset))
    if not members:
        raise ValueError("scheduled set must be nonempty")
    n_users = instance.n_users
    factor = vm_rate_factor(instance.degradation, len(members))
    num, den, penalty, _ = fixed_set_sums(instance.degradation, _terms(instance), members)
    te = instance.deadline if penalty == math.inf else instance.deadline * penalty / den
    service = instance.service_rate.tolist()
    bits = dict.fromkeys(range(n_users), 0.0)
    for uid in members:
        bits[uid] = te * service[uid] * factor
    return RateSchedule(
        scheduled=frozenset(members),
        offload_bits=MappingProxyType(bits),
        compute_time=te,
        sum_rate=num / den,
    )


def benchmark_all_offloading(instance) -> RateSchedule:
    return conditional_solution(instance, range(instance.n_users))


def benchmark_greedy(instance) -> RateSchedule:
    """The greedy benchmark with running sums in greedy order, one user at a
    time, and the id-ordered fallback inside the rounding bound."""
    terms = wr, qr, tx = _terms(instance)
    order = np.argsort(-instance.weight / instance.roundtrip_time_per_bit, kind="stable").tolist()
    bound = _greedy_rounding_bound(instance.n_users)
    members = []
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
        else:
            for member in order[len(members) : size]:
                bisect.insort(members, member)
            num, den, _, min_tx = fixed_set_sums(instance.degradation, terms, members)
            passes = meets_necessary_condition(num / den, min_tx)
        if not passes:
            taken = size - 1
            break
        if penalty == math.inf:
            break
    return conditional_solution(instance, order[:taken])


def prefix_greedy(instance) -> RateSchedule:
    """The greedy benchmark as a plain loop: the closed-form rate of every
    candidate prefix."""
    order = sorted(instance.users, key=lambda u: (-u.weight / u.roundtrip_time_per_bit, u.id))
    taken = []
    for u in order:
        if not necessary_condition(instance, taken + [u.id]):
            break
        taken.append(u.id)
    return conditional_solution(instance, taken)
