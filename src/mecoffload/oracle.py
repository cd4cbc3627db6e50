"""Brute-force reference solvers.

These certify the fast solvers on small instances and supply the expected
values frozen into the tests.  They stay deliberately simple: evaluate the
closed form on every subset for the rate side, solve one LP per optional
subset on the energy side, and refuse anything beyond the enumeration
budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import energy as energymod
from .lp import BudgetExceededError
from .model import EnergySchedule, Instance, RateSchedule, baseline_local_energy, derive_user
from .rate import conditional_solution

__all__ = ["OracleBudget", "BudgetExceededError", "brute_force_rate_max", "brute_force_energy"]

_TIE_RTOL = 1e-12  # floating-point equality is meaningless; ties are relative


@dataclass(frozen=True)
class OracleBudget:
    max_users_rate: int = 12
    max_optional_energy: int = 12
    time_limit_s: float = 60.0

    def __post_init__(self):
        if self.max_users_rate < 1 or self.max_optional_energy < 0 or self.time_limit_s <= 0:
            raise ValueError("oracle budget limits must be positive")


_DEFAULT_BUDGET = OracleBudget()


def _subset_tuple(mask: int, ids: list[int]) -> tuple[int, ...]:
    return tuple(ids[k] for k in range(len(ids)) if (mask >> k) & 1)


def brute_force_rate_max(instance: Instance, budget: OracleBudget = _DEFAULT_BUDGET) -> RateSchedule:
    """Evaluate the fixed-set rate for every nonempty subset and keep the best
    (lexicographically smallest subset on ties).  Raises if the winner's rate
    exceeds its slowest member's transmission rate, which would contradict
    the optimality structure the fast solver relies on."""
    K = instance.n_users
    if K == 0:
        raise ValueError("instance has no users")
    if K > budget.max_users_rate:
        raise BudgetExceededError(f"{K} users exceed the rate oracle budget {budget.max_users_rate}")

    ids = np.arange(K)
    masks = np.arange(1, 1 << K, dtype=np.int64)
    bits = ((masks[:, None] >> ids[None, :]) & 1).astype(float)
    weight = np.array([u.weight for u in instance.users])
    roundtrip = np.array([u.roundtrip_time_per_bit for u in instance.users])
    service = np.array([u.service_rate for u in instance.users])
    num = bits @ (weight * service)
    den = (1.0 + instance.degradation) ** (bits.sum(axis=1) - 1.0) + bits @ (roundtrip * service)
    rates = num / den

    best = float(np.max(rates))
    tied = np.nonzero(rates >= best - _TIE_RTOL * (1.0 + best))[0]
    id_list = list(range(K))
    winner = min(_subset_tuple(int(masks[i]), id_list) for i in tied)

    solution = conditional_solution(instance, winner)
    if not solution.satisfies_necessary_condition:
        raise RuntimeError(
            "internal consistency failure: brute-force winner exceeds its slowest member's rate"
        )
    return solution.as_schedule()


def brute_force_energy(instance: Instance, budget: OracleBudget = _DEFAULT_BUDGET) -> EnergySchedule:
    """Exact minimum-energy schedule by enumerating every optional subset.

    Once the optional set is fixed the problem is an LP (the interference
    exponent is a constant), so enumerating subsets of the free saving users
    covers all the combinatorial freedom.  Infeasible overall only if every
    subset's LP is infeasible.
    """
    partition = energymod.partition_users(instance)
    optional = sorted(partition.free_saving)
    if len(optional) > budget.max_optional_energy:
        raise BudgetExceededError(
            f"{len(optional)} optional users exceed the energy oracle budget "
            f"{budget.max_optional_energy}"
        )
    deadline = time.monotonic() + budget.time_limit_s
    derived = {u.id: derive_user(instance, u.id) for u in instance.users}

    best = None  # (objective over all users, subset tuple, bits, te)
    for mask in range(1 << len(optional)):
        if time.monotonic() > deadline:
            raise BudgetExceededError("energy oracle time guard exceeded")
        s1 = _subset_tuple(mask, optional)
        result = energymod.solve_subset_lp(instance, partition, s1)
        if result is None:
            continue
        bits, te = result
        full_bits = {u.id: 0.0 for u in instance.users}
        for uid in partition.forced_costly:
            full_bits[uid] = derived[uid].min_offload_bits
        full_bits.update(bits)
        objective = sum(
            derived[uid].energy_delta_per_bit * b for uid, b in sorted(full_bits.items())
        )
        if best is None:
            best = (objective, s1, full_bits, te)
        else:
            tol = _TIE_RTOL * (1.0 + abs(best[0]))
            if objective < best[0] - tol:
                best = (objective, s1, full_bits, te)
            elif objective <= best[0] + tol and s1 < best[1]:
                best = (objective, s1, full_bits, te)

    if best is None:
        feas = energymod.feasibility_tmin(instance)
        return EnergySchedule(
            scheduled=frozenset(),
            offload_bits={u.id: 0.0 for u in instance.users},
            compute_time=0.0,
            objective=math.nan,
            total_energy=math.nan,
            status="infeasible",
            t_min=feas.t_min,
        )
    objective, s1, full_bits, te = best
    return EnergySchedule(
        scheduled=partition.forced | frozenset(s1),
        offload_bits=full_bits,
        compute_time=te,
        objective=objective,
        total_energy=objective + baseline_local_energy(instance),
        status="lp-path",
    )
