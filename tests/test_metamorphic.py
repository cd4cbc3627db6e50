"""Metamorphic relations of the solvers: relations between two solves
that need no reference answer, so they reach past the oracle's 12 users
(Chen, Cheung & Yiu 1998, "Metamorphic testing: a new approach for
generating next test cases")."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecoffload import (
    benchmark_all_offloading,
    benchmark_energy_all_offloading,
    benchmark_greedy,
    brute_force_energy,
    brute_force_energy_batch,
    feasibility_tmin,
    model,
    solve_energy_suboptimal,
    solve_rate_max,
    with_deadline,
)
from mecoffload.model import RATE_RTOL
from mecoffload.oracle import _TIE_RTOL
from mecoffload.rng import mix64
from support import SplitMix64, stock_instance

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


class TestRateMonotoneInDegradation:
    """More interference never raises the optimal rate: every fixed set's
    rate falls as d grows, so their maximum does too (item 11b)."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(5, 100),
        seed=st.integers(0, 2**64 - 1),
        degradations=st.lists(st.floats(0.0, 1.0), min_size=26, max_size=26),
    )
    def test_rate_never_rises_with_d(self, n_users, seed, degradations):
        self.assert_monotone(stock_instance(n_users, 0.0, seed), degradations)

    @pytest.mark.parametrize("n_users", [200, 1000])
    def test_rate_never_rises_with_d_at_large_k(self, n_users):
        # three draws, each over 0, 1 and 26 drawn d values
        rng = SplitMix64(mix64(0x11B, n_users))
        for draw in range(3):
            self.assert_monotone(stock_instance(n_users, 0.0, mix64(0x11B, n_users, draw)),
                                 [rng.uniform() for _ in range(26)])

    @staticmethod
    def assert_monotone(inst, degradations):
        rates = [solve_rate_max(dataclasses.replace(inst, degradation=d))[0].sum_rate
                 for d in sorted({0.0, 1.0, *degradations})]
        for rate, more in zip(rates, rates[1:]):
            assert more <= rate * (1.0 + RATE_RTOL)


def relabelled(instance, order):
    """The instance whose user j is the given instance's user order[j]."""
    return dataclasses.replace(instance, **{
        name: getattr(instance, name)[order] for name in model._USER_COLUMNS})


class TestRelabelling:
    """Relabelling the users permutes the scheduled set and keeps the
    objective, for every solver (item 11c).  The oracle runs at K <= 12."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(4, 30),
        degradation=st.one_of(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        slack=st.one_of(st.just(1.0), st.floats(0.98, 3.0)),
        data=st.data(),
    )
    def test_relabelled_users_keep_the_objective(self, n_users, degradation, seed, slack, data):
        order = np.array(data.draw(st.permutations(range(n_users))))
        labels = order.tolist()

        def back(scheduled):
            return frozenset(labels[j] for j in scheduled)

        inst = stock_instance(n_users, degradation, seed)
        rate, moved = solve_rate_max(inst)[0], solve_rate_max(relabelled(inst, order))[0]
        assert back(moved.scheduled) == rate.scheduled
        assert moved.sum_rate == pytest.approx(rate.sum_rate, rel=1e-12, abs=0.0)

        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        inst = with_deadline(inst, feasibility_tmin(inst) * slack)
        solvers = [solve_energy_suboptimal, benchmark_energy_all_offloading]
        if n_users <= 12:
            solvers.append(brute_force_energy)
        for solve in solvers:
            schedule, moved = solve(inst), solve(relabelled(inst, order))
            assert moved.status == schedule.status, solve
            assert back(moved.scheduled) == schedule.scheduled, solve
            if schedule.status != "infeasible":
                assert moved.objective == pytest.approx(schedule.objective, rel=1e-9, abs=0.0)

    @staticmethod
    def draws(n_users, degradations=(0.0, 0.1, 0.3)):
        """Four stock draws of n_users users at each degradation (by default
        twelve, at d = 0, 0.1 and 0.3), each with a permutation of its users."""
        rng = SplitMix64(mix64(0x11C, n_users))
        for d in degradations:
            for draw in range(4):
                order = sorted(range(n_users), key=lambda _: rng.uniform())
                yield stock_instance(n_users, d, mix64(0x11C, n_users, draw)), np.array(order)

    @pytest.mark.parametrize("n_users", [200, 1000])
    def test_rate_solvers_at_large_k(self, n_users):
        solvers = [lambda inst: solve_rate_max(inst)[0], benchmark_greedy,
                   benchmark_all_offloading]
        for inst, order in self.draws(n_users):
            labels = order.tolist()
            for solve in solvers:
                schedule, moved = solve(inst), solve(relabelled(inst, order))
                assert frozenset(labels[j] for j in moved.scheduled) == schedule.scheduled
                assert moved.sum_rate == pytest.approx(schedule.sum_rate, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_users", [50, 100, 200, 500, 1000])
    def test_energy_solvers_at_large_k(self, n_users):
        # at 1.02 t_min the heuristic takes its LP branch, at 1.3 t_min
        # mostly its greedy drop loop.  Past K = 100 the dense LPs over
        # hundreds of users take seconds a solve: the all-offload
        # benchmark's over every user, and at d = 0 the heuristic's, since
        # without interference its LP keeps most users
        solvers, degradations = [solve_energy_suboptimal], (0.05, 0.1, 0.3)
        if n_users <= 100:
            solvers.append(benchmark_energy_all_offloading)
            degradations = (0.0, 0.1, 0.3)
        for (inst, order), slack in zip(self.draws(n_users, degradations), [1.02, 1.3] * 6):
            labels = order.tolist()
            inst = with_deadline(inst, feasibility_tmin(inst) * slack)
            for solve in solvers:
                schedule, moved = solve(inst), solve(relabelled(inst, order))
                assert moved.status == schedule.status, solve
                assert frozenset(labels[j] for j in moved.scheduled) == schedule.scheduled, solve
                if schedule.status != "infeasible":
                    assert moved.objective == pytest.approx(schedule.objective, rel=1e-9, abs=0.0)


class TestOracleDeadlineMonotone:
    """A longer deadline only widens every subset LP's budget, so the
    oracle's optimal energy never rises with it, within the tie tolerance
    that its winner may sit above the least objective, and a feasible
    deadline stays feasible (item 11a)."""

    @settings(max_examples=70, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(4, 10),
        degradation=st.one_of(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**64 - 1),
        slacks=st.lists(st.one_of(st.just(1.0), st.floats(0.98, 2.0)), min_size=10, max_size=10),
    )
    def test_energy_never_rises_with_the_deadline(self, n_users, degradation, seed, slacks):
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        t_min = feasibility_tmin(inst)
        schedules = brute_force_energy_batch(
            [with_deadline(inst, t_min * slack) for slack in sorted(slacks)])
        for schedule, later in zip(schedules, schedules[1:]):
            if schedule.status != "infeasible":
                assert later.status != "infeasible"
                tol = 2.0 * _TIE_RTOL * (1.0 + abs(schedule.objective))
                assert later.objective <= schedule.objective + tol
