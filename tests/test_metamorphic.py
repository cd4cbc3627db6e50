"""Metamorphic relations of the energy solvers: relations between two
solves that need no reference answer, so they reach past the oracle's
12 users (Chen, Cheung & Yiu 1998, "Metamorphic testing: a new approach
for generating next test cases")."""

import dataclasses

from hypothesis import given, settings, strategies as st

from mecoffload import (
    benchmark_energy_all_offloading,
    brute_force_energy,
    feasibility_tmin,
    solve_energy_suboptimal,
    with_deadline,
)
from support import stock_instance

# A power of two: every product and sum of the energy terms scales by it
# exactly, so the scaled objectives are compared with ==.
SCALE = 8.0


def scaled(instance):
    """The instance with every radio power and CPU energy coefficient times SCALE."""
    return dataclasses.replace(instance, tx_power=instance.tx_power * SCALE,
                               energy_coeff=instance.energy_coeff * SCALE)


def decisions(schedule):
    return (schedule.status, schedule.scheduled, dict(schedule.offload_bits),
            schedule.compute_time, schedule.t_min)


class TestEnergyScaling:
    """Scaling every energy term by s scales every energy objective by s and
    changes no decision: not the status, the scheduled set or the bits.  The
    oracle runs where it covers every subset, at K <= 12."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 30),
        degradation=st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        slack=st.one_of(st.just(1.0), st.floats(0.9, 3.0)),
    )
    def test_scaled_energy_terms_scale_every_energy(self, n_users, degradation, seed, slack):
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        inst = with_deadline(inst, feasibility_tmin(inst) * slack)
        solvers = [solve_energy_suboptimal, benchmark_energy_all_offloading]
        if n_users <= 12:
            solvers.append(brute_force_energy)
        for solve in solvers:
            schedule, big = solve(inst), solve(scaled(inst))
            assert decisions(big) == decisions(schedule), solve
            if schedule.status != "infeasible":
                assert big.objective == SCALE * schedule.objective, solve
                assert big.total_energy == SCALE * schedule.total_energy, solve
