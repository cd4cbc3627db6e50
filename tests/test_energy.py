import copy
import csv
import dataclasses
import functools
import io
import math
import operator
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mecoffload import (
    GenerationSpec,
    benchmark_energy_all_offloading,
    benchmark_greedy,
    brute_force_energy,
    brute_force_energy_batch,
    derive_user,
    feasibility_gap,
    feasibility_tmin,
    generate_instance,
    generate_instances,
    partition_users,
    solve_energy_suboptimal,
    solve_subset_lp,
    total_delay,
    validate_energy_schedule,
    vm_rate_factor,
    with_deadline,
)
from mecoffload import energy, harness, lp, model
from mecoffload.lp import solve_lp
from mecoffload.model import interference_penalty
from mecoffload.oracle import _TIE_RTOL
from mecoffload.rng import mix64
from lp_reference import enumerate_vertices, reference_solve_lp
from support import (
    SplitMix64,
    count_builds,
    count_stacked,
    lp_key,
    make_instance,
    make_user,
    required_compute_time,
    stock_instance,
    subset_lp,
)


def saving_user(i, **kw):
    """Offloading saves energy: radio joules/bit below local joules/bit."""
    kw.setdefault("kappa", 1.0)
    kw.setdefault("power", 0.01)
    return make_user(i, **kw)


def costly_user(i, **kw):
    """Offloading wastes energy."""
    kw.setdefault("kappa", 1e-30)
    kw.setdefault("power", 10.0)
    return make_user(i, **kw)


class TestPartition:
    def test_four_way_classification(self):
        users = [
            costly_user(0, task=10.0, cycles=1.0, freq=1.0),   # forced, costly
            saving_user(1, task=10.0, cycles=1.0, freq=1.0),   # forced, saving
            costly_user(2, task=0.5, cycles=1.0, freq=1.0),    # free, costly
            saving_user(3, task=0.5, cycles=1.0, freq=1.0),    # free, saving
        ]
        part = partition_users(make_instance(users, deadline=4.0))
        assert part.forced_costly == {0}
        assert part.forced_saving == {1}
        assert part.free_costly == {2}
        assert part.free_saving == {3}

    def test_energy_neutral_counts_as_costly(self):
        u = make_user(0, a=1.0, power=1.0, kappa=1.0, cycles=1.0, freq=1.0)  # delta == 0
        part = partition_users(make_instance([u], deadline=10.0))
        assert part.free_costly == {0}

    def test_slack_deadline_forces_nobody(self):
        users = [saving_user(i, task=5.0, cycles=1.0, freq=1.0) for i in range(3)]
        part = partition_users(make_instance(users, deadline=100.0))
        assert not part.forced

    def test_memoised_on_the_instance(self):
        inst = stock_instance(10, 0.2, 5, deadline=0.45)
        part = partition_users(inst)
        assert partition_users(inst) is part and inst.partition is part
        # the partition follows the deadline: a copy with another builds its own
        relaxed = with_deadline(inst, 100.0)
        assert partition_users(relaxed) is not part and not partition_users(relaxed).forced

    @pytest.mark.parametrize("n_users", [1, 10, 300])
    def test_groups_hold_python_ints_as_the_uid_loop_built_them(self, n_users):
        # the sets must iterate, sort and print as the uid-by-uid appends did
        for seed in range(5):
            inst = stock_instance(n_users, 0.2, mix64(57, seed), deadline=(0.3, 0.6, 1.5)[seed % 3])
            # a radio 100 times as power-hungry makes every third user costly
            power = [p * (100.0 if k % 3 == 1 else 1.0) for k, p in enumerate(inst.tx_power.tolist())]
            inst = dataclasses.replace(inst, tx_power=power)
            groups = ([], [], [], [])
            for uid in range(n_users):
                forced = inst.min_offload_bits[uid] > 0.0
                groups[2 * forced + (inst.delta_per_bit[uid] < 0.0)].append(uid)
            part = partition_users(inst)
            built = (part.free_costly, part.free_saving, part.forced_costly, part.forced_saving)
            for group, ids in zip(built, map(frozenset, groups)):
                assert group == ids and list(group) == list(ids)
                assert all(type(uid) is int for uid in group)


class TestFeasibility:
    def test_no_work_means_zero(self):
        inst = make_instance([make_user(0, task=0.0)], deadline=1.0)
        assert feasibility_tmin(inst) == 0.0

    def test_single_user_algebraic_root(self):
        # 1.1 * (10 - t) = t  ->  t = 11/2.1
        u = make_user(0, a=0.05, b=0.05, gamma=1.0, r=1.0, task=10.0, cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=1.0, degradation=0.0)
        t_min = feasibility_tmin(inst)
        assert type(t_min) is float
        assert t_min == pytest.approx(11.0 / 2.1, abs=1e-6)
        assert abs(feasibility_gap(inst, t_min)) <= 1e-6

    def test_gap_decreases(self):
        inst = stock_instance(6, 0.2, 17)
        ts = [0.01 * k for k in range(1, 60)]
        gaps = [feasibility_gap(inst, t) for t in ts]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_bracket_and_sign(self):
        for seed in range(10):
            inst = stock_instance(7, 0.15, seed)
            t = feasibility_tmin(inst)
            assert feasibility_gap(inst, math.nextafter(t, 0.0)) > 0.0 >= feasibility_gap(inst, t)
            # the forced minimum offloads at t_min, and so its forced users
            assert inst.min_offload_bits_at(t).tolist() == reference_gap(inst, t)[0]


    def test_bit_bisection_fallback_finds_the_same_root(self, monkeypatch):
        # the search over bit patterns lands on the same double whether it
        # starts from the segment root or from either end of the bracket
        instances = [
            stock_instance(k, 0.2, seed, deadline=0.45) for k in (1, 10, 40) for seed in range(8)
        ]
        settle, calls = energy._settle, []

        def recording(instance, t, lo, hi):
            calls.append((t, lo, hi))
            return settle(instance, t, lo, hi)

        monkeypatch.setattr(energy, "_settle", recording)
        for inst in instances:
            calls.clear()
            t = feasibility_tmin(inst)
            [(root, lo, hi)] = calls
            assert lo <= root <= hi
            for start in (lo, root, hi):
                assert settle(inst, start, lo, hi) == t
            assert feasibility_gap(inst, t) <= 0.0 < feasibility_gap(inst, math.nextafter(t, 0.0))


class TestLargeK:
    """Strong interference at K in the thousands: (1 + d)^(1 - n) underflows
    and (1 + d)^(n - 1) overflows, so the compute window saturates at inf.
    Each solve gives a valid schedule or a typed infeasible one, with no
    exception and no numpy warning."""

    @pytest.mark.parametrize("deadline", [1.5, 30.0])
    @pytest.mark.parametrize("k", [3000, 10000])
    def test_valid_or_typed_infeasible(self, k, deadline):
        inst = generate_instance(
            GenerationSpec(n_users=k, degradation=0.3, deadline_s=deadline), 5
        )
        assert vm_rate_factor(inst.degradation, k) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t_min = feasibility_tmin(inst)
            schedule = solve_energy_suboptimal(inst)
        assert 0.0 < t_min < math.inf
        assert feasibility_gap(inst, t_min) <= 0.0
        if schedule.status == "infeasible":
            assert schedule.t_min == t_min
            assert inst.deadline < t_min
        else:
            assert validate_energy_schedule(inst, schedule).ok

    def test_saturated_window(self):
        inst = generate_instance(
            GenerationSpec(n_users=3000, degradation=0.3, deadline_s=30.0), 5
        )
        part = partition_users(inst)
        assert required_compute_time(inst, part, part.free_saving) == math.inf


class TestTotalDelay:
    def test_empty_everything(self):
        inst = make_instance([saving_user(0, task=1.0, cycles=1.0, freq=10.0)], deadline=1.0)
        part = partition_users(inst)
        assert total_delay(inst, part, frozenset()) == 0.0

    def test_hand_example(self):
        # one optional user: 8 bits at 0.05 s/bit plus 8/2 computing at 1.5^0
        u = saving_user(0, a=0.025, b=0.025, gamma=1.0, r=2.0, task=8.0, cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=100.0, degradation=0.5)
        part = partition_users(inst)
        assert total_delay(inst, part, part.free_saving) == pytest.approx(4.4, rel=1e-12)

    def test_growing_the_set_never_shrinks_delay(self):
        inst = stock_instance(8, 0.2, 23)
        big = with_deadline(inst, 0.6)  # frees several users
        part = partition_users(big)
        optional = sorted(part.free_saving)
        prev = total_delay(big, part, frozenset())
        chosen = []
        for uid in optional:
            chosen.append(uid)
            cur = total_delay(big, part, frozenset(chosen))
            assert cur >= prev - 1e-15
            prev = cur

    def test_rejects_non_optional_members(self):
        inst = stock_instance(4, 0.1, 3)
        part = partition_users(inst)
        outsider = next(iter(part.forced | part.free_costly), None)
        if outsider is not None:
            with pytest.raises(ValueError):
                total_delay(inst, part, frozenset({outsider}))
            with pytest.raises(ValueError):
                solve_subset_lp(inst, part, frozenset({outsider}))


class TestScheduler:
    def test_all_costly_users_stay_local(self):
        users = [costly_user(i, task=0.5, cycles=1.0, freq=1.0) for i in range(3)]
        inst = make_instance(users, deadline=4.0)
        schedule = solve_energy_suboptimal(inst)
        assert schedule.scheduled == frozenset()
        assert schedule.objective == 0.0
        assert schedule.total_energy == pytest.approx(inst.local_energy)
        assert schedule.status == "optimal-path"

    def test_huge_deadline_offloads_every_saving_task(self):
        inst = stock_instance(6, 0.2, 31)
        big = with_deadline(inst, 50.0)
        schedule = solve_energy_suboptimal(big)
        assert schedule.status == "optimal-path"
        expected = sum(
            derive_user(big, u.id).energy_delta_per_bit * u.task_bits
            for u in big.users
            if derive_user(big, u.id).energy_delta_per_bit < 0
        )
        assert schedule.objective == pytest.approx(expected, rel=1e-12)
        assert validate_energy_schedule(big, schedule).ok

    def test_below_tmin_is_infeasible_with_tmin_attached(self):
        inst = stock_instance(5, 0.2, 11)
        t_min = feasibility_tmin(inst)
        tight = with_deadline(inst, t_min * 0.5)
        schedule = solve_energy_suboptimal(tight)
        assert schedule.status == "infeasible"
        assert schedule.t_min == pytest.approx(t_min, rel=1e-6)
        assert math.isnan(schedule.total_energy)

    def test_greedy_branch_drops_cheapest_saver_first(self):
        # two optional users; the deadline only fits one; user 1 saves less
        # per radio second and goes first
        u0 = saving_user(0, a=0.05, b=0.05, gamma=1.0, r=10.0, task=4.0,
                         cycles=1.0, freq=10.0, kappa=2.0)
        u1 = saving_user(1, a=0.05, b=0.05, gamma=1.0, r=10.0, task=4.0,
                         cycles=1.0, freq=10.0, kappa=1.0)
        inst = make_instance([u0, u1], deadline=1.0, degradation=0.5)
        part = partition_users(inst)
        assert part.free_saving == {0, 1}
        assert total_delay(inst, part, frozenset({0, 1})) > 1.0
        assert total_delay(inst, part, frozenset({0})) <= 1.0
        schedule = solve_energy_suboptimal(inst)
        assert schedule.status == "greedy-path"
        assert schedule.scheduled == frozenset({0})
        assert schedule.offload_bits[0] == pytest.approx(4.0)
        assert schedule.offload_bits[1] == 0.0
        assert validate_energy_schedule(inst, schedule).ok

    def test_greedy_branch_removals_shrink_delay(self):
        inst = stock_instance(8, 0.25, 41)
        part = partition_users(with_deadline(inst, 0.55))
        # replay the removal order and check monotone delay
        big = with_deadline(inst, 0.55)
        s1 = set(part.free_saving)
        derived = {uid: derive_user(big, uid) for uid in s1}
        prev = total_delay(big, part, frozenset(s1))
        while s1:
            drop = min(
                s1,
                key=lambda uid: (
                    -derived[uid].energy_delta_per_bit
                    / big.users[uid].roundtrip_time_per_bit,
                    uid,
                ),
            )
            s1.remove(drop)
            cur = total_delay(big, part, frozenset(s1))
            assert cur < prev
            prev = cur

    def test_lp_branch_splits_budget(self):
        # forced saver with negligible minimum: optimum is l = te = budget/2
        u = saving_user(0, a=0.5, b=0.5, gamma=1.0, r=1.0, task=10.0,
                        cycles=1.0, freq=4.999)
        inst = make_instance([u], deadline=2.0, degradation=0.0)
        part = partition_users(inst)
        assert part.forced_saving == {0}
        schedule = solve_energy_suboptimal(inst)
        assert schedule.status == "lp-path"
        assert schedule.offload_bits[0] == pytest.approx(1.0, rel=1e-9)
        assert schedule.compute_time == pytest.approx(1.0, rel=1e-9)
        assert validate_energy_schedule(inst, schedule).ok

    def test_lp_branch_agrees_with_oracle_when_everyone_is_forced(self):
        for seed in range(10):
            inst = stock_instance(6, 0.2, mix64(61, seed))
            t_min = feasibility_tmin(inst)
            tight = with_deadline(inst, t_min * 1.01)
            schedule = solve_energy_suboptimal(tight)
            oracle = brute_force_energy(tight)
            assert schedule.status != "infeasible"
            assert schedule.objective >= oracle.objective - 1e-9 * abs(oracle.objective)
            if not partition_users(tight).free_saving:
                assert schedule.objective == pytest.approx(oracle.objective, rel=1e-9)

    def test_saturation_beyond_full_offload_point(self):
        for seed in range(8):
            inst = stock_instance(7, 0.2, mix64(71, seed))
            a = solve_energy_suboptimal(with_deadline(inst, 0.9))
            b = solve_energy_suboptimal(with_deadline(inst, 1.8))
            assert a.total_energy == pytest.approx(b.total_energy, rel=1e-12)

    def test_mean_energy_trend_nonincreasing_in_deadline(self):
        # means over a fixed instance pool; single instances may blip upward
        # when a forced user turns optional and the greedy drops it
        grid = [0.35, 0.40, 0.45, 0.50, 0.55, 0.60]
        totals = []
        for t in grid:
            vals = []
            for seed in range(30):
                inst = stock_instance(10, 0.2, mix64(81, seed), deadline=t)
                s = solve_energy_suboptimal(inst)
                if s.status != "infeasible":
                    vals.append(s.total_energy)
            totals.append(sum(vals) / len(vals))
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:])), totals

    def test_every_schedule_passes_the_checker(self):
        for seed in range(15):
            inst = stock_instance(8, 0.2, mix64(91, seed))
            t_min = feasibility_tmin(inst)
            for tf in (1.02, 1.3, 2.5):
                s = solve_energy_suboptimal(with_deadline(inst, t_min * tf))
                assert s.status != "infeasible"
                report = validate_energy_schedule(with_deadline(inst, t_min * tf), s)
                assert report.ok, report.render()


class TestLpM1:
    def test_no_saving_members_returns_window_floor(self):
        u = costly_user(0, a=0.01, b=0.01, gamma=1.0, r=2.0, task=10.0,
                        cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=5.0, degradation=0.3)
        part = partition_users(inst)
        assert part.forced_costly == {0}
        schedule = solve_subset_lp(inst, part, frozenset())
        lmin = derive_user(inst, 0).min_offload_bits
        assert schedule.offload_bits == {0: lmin}  # no LP member: only the forced minimum
        assert schedule.compute_time == pytest.approx(lmin / 2.0, rel=1e-12)  # one VM, no penalty

    def test_infeasible_floor_returns_none(self):
        u = costly_user(0, a=1.0, b=1.0, gamma=1.0, r=0.01, task=10.0,
                        cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=2.0)
        part = partition_users(inst)
        assert solve_subset_lp(inst, part, frozenset()) is None

    def test_matches_vertex_enumeration_on_small_members(self):
        for seed in range(8):
            inst = stock_instance(3, 0.2, mix64(101, seed))
            t_min = feasibility_tmin(inst)
            tight = with_deadline(inst, t_min * 1.2)
            part = partition_users(tight)
            if not part.forced_saving:
                continue
            problem = subset_lp((tight, part, ()))  # the LP branch's LP
            fast = solve_lp(problem)
            slow = enumerate_vertices(problem)
            assert fast.status == slow.status == "optimal"
            assert fast.objective_value == pytest.approx(
                slow.objective_value, rel=1e-8, abs=1e-12
            )


    def test_equal_partitions_build_the_same_lp(self):
        # The forced costly users' radio time leaves the budget summed in
        # ascending id.  Summed as the set iterates, these two equal
        # partitions (their sets built in other insertion orders) would
        # give budgets a few ulps apart, and LPs with different keys.
        costly = (3, 11, 19, 27)
        tasks = dict(zip(costly, (1.2, 1.1, 2.7, 1.9)))
        users = [
            costly_user(i, task=tasks[i]) if i in tasks
            else saving_user(i, task=2.0) if i == 0
            else costly_user(i)
            for i in range(28)
        ]
        inst = make_instance(users, deadline=1.0)
        part = partition_users(inst)
        assert part.forced_costly == set(costly) and part.forced_saving == {0}
        pair = [dataclasses.replace(part, forced_costly=frozenset(order))
                for order in (costly, costly[::-1])]
        assert pair[0] == pair[1]
        assert list(pair[0].forced_costly) != list(pair[1].forced_costly)
        keys = {lp_key(subset_lp((inst, each, ()))) for each in pair}
        assert len(keys) == 1


class TestAllOffloadingBenchmark:
    def test_single_saving_user_with_slack_matches_scheduler(self):
        inst = stock_instance(1, 0.2, 7)
        big = with_deadline(inst, 10.0)
        bench = benchmark_energy_all_offloading(big)
        sched = solve_energy_suboptimal(big)
        assert bench.total_energy == pytest.approx(sched.total_energy, rel=1e-9)

    def test_costly_users_dragged_into_vms_waste_energy(self):
        users = [
            saving_user(0, a=0.05, b=0.05, gamma=1.0, r=10.0, task=4.0,
                        cycles=1.0, freq=10.0, kappa=2.0),
            costly_user(1, task=0.5, cycles=1.0, freq=1.0, r=0.3),
            costly_user(2, task=0.5, cycles=1.0, freq=1.0, r=0.3),
        ]
        inst = make_instance(users, deadline=3.0, degradation=0.5)
        bench = benchmark_energy_all_offloading(inst)
        sched = solve_energy_suboptimal(inst)
        assert sched.status != "infeasible"
        if bench.status == "infeasible":
            return  # forced all-in can even fail outright; also a valid waste
        assert bench.total_energy >= sched.total_energy - 1e-15

    def test_tiny_deadline_infeasible(self):
        inst = stock_instance(5, 0.2, 9)
        assert benchmark_energy_all_offloading(with_deadline(inst, 1e-4)).status == "infeasible"

    def test_validates_when_feasible(self):
        for seed in range(6):
            inst = stock_instance(6, 0.2, mix64(111, seed), deadline=0.6)
            bench = benchmark_energy_all_offloading(inst)
            if bench.status != "infeasible":
                assert validate_energy_schedule(inst, bench).ok


class TestAllOffloadingBatch:
    def test_batch_matches_one_at_a_time(self):
        # the LPs of 30 instances, a third infeasible, share stacks; each
        # schedule must be the one its own solve gives
        instances = [make_instance([], deadline=1.0)] + [
            stock_instance(7, 0.2, mix64(113, seed), deadline=(0.2, 0.4, 0.6)[seed % 3])
            for seed in range(30)
        ]
        batch = energy.benchmark_energy_all_offloading_batch(instances)
        alone = [benchmark_energy_all_offloading(inst) for inst in instances]
        assert repr(batch) == repr(alone)
        assert {s.status for s in batch} == {"lp-path", "infeasible"}
        assert batch[0].scheduled == frozenset() and batch[0].objective == 0.0

    def test_stacks_stay_within_the_budget(self, monkeypatch):
        # K = 400 LPs are each beyond the stack budget, so each stacks
        # alone; three K = 40 LPs fit in one stack.  The K = 400 draws
        # have t_min 1.59-1.62 s, so a 1.7 s deadline gives each its LP.
        stacks = []
        solve = lp._solve_stack

        def recording(problems):
            stacks.append([p.size for p in problems])
            return solve(problems)

        monkeypatch.setattr(lp, "_solve_stack", recording)
        instances = [stock_instance(K, 0.05, seed, deadline=1.7) for K in (400, 40)
                     for seed in range(3)]
        assert len(energy.benchmark_energy_all_offloading_batch(instances)) == 6
        assert lp.stack_capacity(81, 41) >= 3  # the K = 40 LP: 2K + 1 rows over K + 1 columns
        assert [len(sizes) for sizes in stacks] == [1, 1, 1, 3]
        for sizes in stacks:
            rows, cols = map(max, zip(*sizes))
            assert len(sizes) == 1 or len(sizes) * lp._entries(rows, cols) <= lp.STACK_ENTRIES
        assert lp._entries(*stacks[0][0]) > lp.STACK_ENTRIES


class TestSuboptimalBatch:
    @staticmethod
    def instances():
        """Stock draws that take every branch of the heuristic."""
        return [
            stock_instance(10, 0.3, mix64(211, seed), deadline=(0.2, 0.4, 0.65, 0.9)[seed % 4])
            for seed in range(40)
        ]

    def test_batch_matches_one_at_a_time(self):
        instances = self.instances()
        batch = energy.solve_energy_suboptimal_batch(instances)
        alone = [solve_energy_suboptimal(inst) for inst in instances]
        assert repr(batch) == repr(alone)
        assert {s.status for s in batch} == {"infeasible", "optimal-path", "greedy-path", "lp-path"}

    def test_the_block_decides_as_one_instance_does(self):
        # mixed user counts, each block's refusals and full-offload branch
        # decided as `feasibility_gap` and `total_delay` decide them alone
        instances = self.instances() + [make_instance([], deadline=1.0)] + [
            stock_instance(n, 0.2, mix64(97, n, k), deadline=deadline)
            for n in (1, 3, 30) for k, deadline in enumerate((0.2, 0.5, 1.5, 3.0))]
        branches = set()
        for inst, schedule in zip(instances, energy.solve_energy_suboptimal_batch(instances)):
            part = inst.partition
            if feasibility_gap(inst, inst.deadline) > 0.0:
                assert schedule.status == "infeasible"
                continue
            full = inst.deadline >= total_delay(inst, part, part.free_saving)
            assert (schedule.status == "optimal-path") == full
            if full:
                window = required_compute_time(inst, part, part.free_saving)
                assert repr(schedule.compute_time) == repr(window)
            branches.add((inst.n_users, schedule.status))
        assert {(0, "optimal-path"), (30, "greedy-path"), (10, "lp-path")} <= branches

    def test_lp_branch_lps_share_one_stack(self, monkeypatch):
        stacks = []
        solve = lp._solve_stack

        def recording(problems):
            stacks.append(len(problems))
            return solve(problems)

        monkeypatch.setattr(lp, "_solve_stack", recording)
        batch = energy.solve_energy_suboptimal_batch(self.instances())
        assert stacks == [sum(s.status == "lp-path" for s in batch)] and stacks[0] > 1

    def test_lp_branch_lps_are_built_together(self, monkeypatch):
        built = []
        plans = energy._subset_plans

        def recording(cases):
            built.append(len(cases))
            return plans(cases)

        monkeypatch.setattr(energy, "_subset_plans", recording)
        batch = energy.solve_energy_suboptimal_batch(self.instances())
        assert built == [sum(s.status == "lp-path" for s in batch)] and built[0] > 1

    def test_no_lp_branch_builds_and_solves_nothing(self, monkeypatch):
        # a lone solve that skips the LP branch pays nothing for it
        instances = [inst for inst in self.instances()
                     if solve_energy_suboptimal(inst).status != "lp-path"]
        builds, calls = count_builds(monkeypatch), []
        solve = lp.solve_lps
        monkeypatch.setattr(lp, "solve_lps",
                            lambda problems: calls.append(problems) or solve(problems))
        assert energy._subset_schedules([]) == []
        statuses = {solve_energy_suboptimal(inst).status for inst in instances}
        assert statuses == {"infeasible", "optimal-path", "greedy-path"}
        assert builds.problems == 0 and calls == []


def everyone_case(instance):
    """The all-offload case as the partition that forces every user into a
    VM gives it, each user above its forced minimum."""
    everyone = energy.Partition(frozenset(), frozenset(range(instance.n_users)), frozenset(),
                                frozenset())
    return instance, everyone, ()


def everyone_schedules(instances):
    """The `everyone_case` schedule of each instance, each LP solved on its
    own whatever its deadline, and the infeasible schedule where it has none."""
    return [schedule or energy._infeasible(i, None) for i, schedule in zip(
        instances, energy._subset_schedules([everyone_case(i) for i in instances]))]


def all_offload_lp(instance):
    """The LP of `energy.benchmark_energy_all_offloading`: None below
    t_min, where it builds none."""
    if feasibility_gap(instance, instance.deadline) > 0.0:
        return None
    return subset_lp(energy._all_offload_case(instance))


def schedule_fields(schedule):
    return (repr(schedule.total_energy), schedule.offload_bits, schedule.compute_time,
            schedule.scheduled, schedule.status)


def assert_routing_is_exact(instances):
    """After the oracle, the all-offload batch gives each instance the
    schedule of the `everyone` LP solved on its own, and its
    LP has the bytes of that LP: the full-subset LP's exactly where no user
    is costly (and no forced minimum is -0.0)."""
    alone = everyone_schedules(instances)
    brute_force_energy_batch(instances)
    routed = energy.benchmark_energy_all_offloading_batch(instances)
    for instance, got, want in zip(instances, routed, alone):
        assert schedule_fields(got) == schedule_fields(want)
        part = instance.partition
        costly = part.forced_costly or part.free_costly
        problem = all_offload_lp(instance)
        full = subset_lp((instance, part, part.free_saving))
        if problem is not None:
            assert lp_key(problem) == lp_key(subset_lp(everyone_case(instance)))
            if not np.signbit(instance.min_offload_bits).any():
                assert (lp_key(problem) == lp_key(full)) == (not costly)


class TestAllOffloadRouting:
    """Where no user is costly, the all-offload LP is the instance's
    full-subset LP to the byte, so it takes that subset's plan and shares
    the oracle's solve; elsewhere it keeps the LP that forces every user
    into a VM."""

    @pytest.mark.parametrize("experiment", ["energy-vs-T", "energy-vs-d"])
    def test_stock_instances(self, experiment):
        spec = harness.SweepSpec(experiment=experiment, realizations=100, base_seed=7).normalized()
        instances = [
            generate_instance(harness._generation_spec(spec, value), mix64(7, gi, ri))
            for gi, value in enumerate(spec.grid) for ri in range(100)
        ]
        assert not any(i.partition.forced_costly or i.partition.free_costly for i in instances)
        assert_routing_is_exact(instances)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 6),
        degradation=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        costly=st.sets(st.integers(0, 5), max_size=3),
        slack=st.floats(1.0, 3.0),
        extra=st.sampled_from([0.0, 0.5, 3.0]),
    )
    def test_costly_users_keep_the_everyone_lp(self, n_users, degradation, seed, costly, slack,
                                                extra):
        # users in `costly` transmit at 100 times the power, so that
        # offloading costs them energy: forced near t_min, free with extra time
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        power = [p * (100.0 if k in costly else 1.0) for k, p in enumerate(inst.tx_power.tolist())]
        inst = dataclasses.replace(inst, tx_power=power)
        t_min = feasibility_tmin(inst)
        assert_routing_is_exact([with_deadline(inst, t_min * s + extra) for s in (1.0, slack)])

    def test_a_negative_zero_minimum_keeps_the_everyone_lp(self):
        # a -0.0 task whose local capacity underflows to 0 has the forced
        # minimum -0.0: the full-subset LP bounds it below by +0.0 instead
        users = [saving_user(0, task=-0.0, freq=1e-20, cycles=1e10, kappa=1e35),
                 saving_user(1, task=0.0)]
        inst = make_instance(users, deadline=1e-300)
        part = inst.partition
        assert not (part.forced or part.free_costly) and part.free_saving == {0, 1}
        assert np.signbit(inst.min_offload_bits).tolist() == [True, False]
        full = subset_lp((inst, part, part.free_saving))
        problem = all_offload_lp(inst)
        assert lp_key(problem) == lp_key(subset_lp(everyone_case(inst))) != lp_key(full)
        assert_routing_is_exact([inst])


class TestAllOffloadRefusal:
    """A draw whose deadline is below t_min takes no all-offload LP, once
    the size guard has passed: the LP of every user in a VM fits no such
    deadline, and the schedule is the infeasible one that it gave."""

    def test_stock_draws_below_t_min(self, monkeypatch):
        # the 7,000 draws of the stock energy sweeps at 500 realizations
        below = []
        for experiment in ("energy-vs-T", "energy-vs-d"):
            spec = harness.SweepSpec(experiment=experiment, base_seed=7).normalized()
            for gi, value in enumerate(spec.grid):
                instances = generate_instances(harness._generation_spec(spec, value), [
                    mix64(7, gi, ri) for ri in range(spec.realizations)])
                below += [i for i in instances if feasibility_gap(i, i.deadline) > 0.0]
        assert len(below) == 20
        solved = everyone_schedules(below)
        assert {(s.status, s.t_min) for s in solved} == {("infeasible", None)}
        built = []
        subset_plans = energy._subset_plans

        def recording(cases):
            built.extend(cases)
            return subset_plans(cases)

        monkeypatch.setattr(energy, "_subset_plans", recording)
        refused = energy.benchmark_energy_all_offloading_batch(below)
        assert list(map(repr, refused)) == list(map(repr, solved))
        assert built == []


class TestSharedSolutions:
    """Each distinct energy LP of an instance is built and stacked once
    (`Instance.solved_sets`), and a repeat takes the finished schedule, with
    the bits a fresh solve gives."""

    @staticmethod
    def instances():
        return TestSuboptimalBatch.instances()

    @staticmethod
    def solve_all(instances):
        return [repr(s) for s in (
            *brute_force_energy_batch(instances),
            *energy.solve_energy_suboptimal_batch(instances),
            *energy.benchmark_energy_all_offloading_batch(instances),
        )]

    def test_second_pass_stacks_nothing(self, monkeypatch):
        instances = self.instances()
        expected = self.solve_all([dataclasses.replace(i) for i in instances])
        counter = count_stacked(monkeypatch)
        builds = count_builds(monkeypatch)
        first = self.solve_all(instances)
        stacked, built = counter.problems, builds.problems
        second = self.solve_all(instances)
        assert first == second == expected
        assert 0 < stacked == built
        assert counter.problems == stacked and builds.problems == built
        # a plan that appears twice in one batch is built and stacked once
        # (draw 2's deadline is above its t_min, so it has an LP)
        assert feasibility_gap(instances[2], instances[2].deadline) <= 0.0
        fresh = dataclasses.replace(instances[2])
        twice = energy.benchmark_energy_all_offloading_batch([fresh, fresh])
        assert counter.problems == stacked + 1 and builds.problems == built + 1
        assert repr(twice[0]) == repr(twice[1]) == expected[2 * len(instances) + 2]

    def test_signed_zeros_are_different_problems(self, monkeypatch):
        # x <= 0.0 and x <= -0.0, over x >= -0.0, have equal arrays, but
        # the maximum of x is 0.0 in one and -0.0 in the other: no memo may
        # merge problems by value, and the all-offload routing keeps a -0.0
        # forced minimum out of the full-subset plan
        # (`TestAllOffloadRouting.test_a_negative_zero_minimum_keeps_the_everyone_lp`)
        pair = [lp.LpProblem((-1.0,), ((1.0,),), ("<=",), (zero,), ((-0.0, math.inf),))
                for zero in (0.0, -0.0)]
        assert np.array_equal(pair[0].rhs, pair[1].rhs)
        assert lp_key(pair[0]) != lp_key(pair[1])
        expected = [repr(reference_solve_lp(p)) for p in pair]
        assert expected[0] != expected[1]
        counter = count_stacked(monkeypatch)
        assert [repr(solve_lp(p)) for p in pair] == expected
        assert [repr(s) for s in lp.solve_lps(pair)] == expected
        assert counter.problems == 4

    def test_the_heuristic_and_the_oracle_share_the_empty_subset(self, monkeypatch):
        # a lone caller shares its solves with no scope: the oracle takes
        # the LP branch's empty-subset schedule
        inst = next(i for i in self.instances() if solve_energy_suboptimal(
            dataclasses.replace(i)).status == "lp-path")
        empty = lp_key(subset_lp((inst, inst.partition, ())))
        built = []
        subset_plans = energy._subset_plans

        def recording(cases):
            plans = subset_plans(cases)
            built.extend(lp_key(problem) for problem, _ in plans if problem is not None)
            return plans

        monkeypatch.setattr(energy, "_subset_plans", recording)
        assert solve_energy_suboptimal(inst).status == "lp-path"
        brute_force_energy(inst)
        assert built.count(empty) == 1

    def test_a_copy_never_takes_the_originals_schedules(self, monkeypatch):
        inst = stock_instance(8, 0.6, mix64(171, 4), deadline=2.0)
        part = inst.partition
        assert part.free_saving
        counter = count_stacked(monkeypatch)
        original = solve_subset_lp(inst, part, part.free_saving)
        assert solve_subset_lp(inst, part, part.free_saving) is original
        assert counter.problems == 1
        for twin in (dataclasses.replace(inst), with_deadline(inst, inst.deadline)):
            assert twin == inst and not twin.solved_sets
            schedule = solve_subset_lp(twin, twin.partition, part.free_saving)
            assert schedule is not original and repr(schedule) == repr(original)
        assert counter.problems == 3

    def test_a_solved_instance_pickles_and_copies(self):
        inst = self.instances()[2]
        solved = self.solve_all([inst])
        for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert twin == inst
            assert self.solve_all([twin]) == solved


class TestReadOnlyBits:
    """The energy solvers hand out their bits read-only, since
    `Instance.solved_sets` hands one schedule to every row that solves the
    same subset LP."""

    def test_rows_of_one_subset_share_one_schedule(self):
        inst = stock_instance(6, 0.1, 3, deadline=0.5)
        part = inst.partition
        assert not (part.forced_costly or part.free_costly)  # all-offload is the full subset
        [oracle] = brute_force_energy_batch([inst])
        [everyone] = energy.benchmark_energy_all_offloading_batch([inst])
        assert oracle.scheduled == part.forced | part.free_saving
        assert everyone is oracle
        with pytest.raises(TypeError):
            everyone.offload_bits[0] = 0.0

    def test_every_branch_hands_out_read_only_bits(self):
        schedules = energy.solve_energy_suboptimal_batch(TestSuboptimalBatch.instances())
        assert {s.status for s in schedules} == {
            "infeasible", "optimal-path", "greedy-path", "lp-path"}
        for schedule in schedules:
            with pytest.raises(TypeError):
                schedule.offload_bits[0] = 1.0


class TestDeadlineGapMemo:
    """Each instance's gap at its deadline is formed once, with its other
    energy memos, and every solver of a block reads it."""

    def test_one_gap_row_per_instance_per_certified_block(self, monkeypatch):
        rows = []
        for module in (model, energy):
            def counting(min_bits, *args, formula=module._gap_rows):
                rows.append(len(min_bits))
                return formula(min_bits, *args)

            monkeypatch.setattr(module, "_gap_rows", counting)
        spec = harness.SweepSpec(experiment="energy-vs-T", grid=(0.65,), realizations=40,
                                 base_seed=7, algorithms=("suboptimal", "all-offload", "oracle"),
                                 certify=True)
        table = list(csv.DictReader(io.StringIO(harness.run_sweep(spec))))
        # every draw meets the deadline, so no t_min search forms gaps of its own
        assert {row["algorithm"] for row in table} == {"suboptimal", "all-offload", "oracle"}
        assert all(row["feasible"] == "40" for row in table if row["algorithm"] != "all-offload")
        assert rows == [40]


class TestEnergyChecker:
    def test_rejects_missing_forced_user(self):
        u = saving_user(0, task=10.0, cycles=1.0, freq=1.0, r=10.0, a=0.01, b=0.01, gamma=1.0)
        inst = make_instance([u], deadline=2.0)
        schedule = solve_energy_suboptimal(inst)
        assert schedule.status != "infeasible"
        from dataclasses import replace

        tampered = replace(schedule, scheduled=frozenset(), offload_bits={0: 0.0}, objective=0.0,
                           total_energy=inst.local_energy)
        report = validate_energy_schedule(inst, tampered)
        assert not report.ok
        assert any(c.name.startswith("unscheduled_free") for c in report.failures())

    def test_refuses_infeasible_status(self):
        inst = stock_instance(4, 0.2, 13)
        schedule = solve_energy_suboptimal(with_deadline(inst, 1e-4))
        with pytest.raises(ValueError):
            validate_energy_schedule(inst, schedule)


# ---------------------------------------------------------------------------
# Equivalence with the loops the fast paths replaced
# ---------------------------------------------------------------------------


def reference_gap(instance, t):
    """The feasibility balance read straight from the user profiles."""
    min_bits = [
        max(u.task_bits - t * u.cpu_freq / u.cycles_per_bit, 0.0) for u in instance.users
    ]
    forced = sum(1 for b in min_bits if b > 0.0)
    radio = functools.reduce(
        operator.add, (b * u.roundtrip_time_per_bit for b, u in zip(min_bits, instance.users)), 0.0
    )
    compute = 0.0
    if forced:
        factor = vm_rate_factor(instance.degradation, forced)
        compute = max(b / (u.service_rate * factor) for b, u in zip(min_bits, instance.users))
    return min_bits, radio + compute - t


def reference_tmin(instance):
    """Bisection on `reference_gap` to a 1e-9 s bracket (lo, hi] with
    gap(lo) > 0 >= gap(hi), returned as (lo, hi); hi is the answer, and
    both are 0 where the answer is."""
    if instance.n_users == 0:
        return 0.0, 0.0
    hi = max(u.cycles_per_bit * u.task_bits / u.cpu_freq for u in instance.users)
    if hi <= 0.0 or reference_gap(instance, 0.0)[1] <= 0.0:
        return 0.0, 0.0
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if reference_gap(instance, mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def set_order_total_delay(instance, partition, s1):
    """The loop `total_delay` replaced: radio time summed in the iteration
    order of the sets, forced saving users and s1 first, then the forced
    costly ones, plus the computing window."""
    radio = 0.0
    for uid in partition.forced_saving | s1:
        u = instance.users[uid]
        radio += u.task_bits * u.roundtrip_time_per_bit
    for uid in partition.forced_costly:
        u = instance.users[uid]
        radio += derive_user(instance, uid).min_offload_bits * u.roundtrip_time_per_bit
    return radio + reference_window(instance, partition, s1)


def id_order_total_delay(instance, partition, s1):
    """Radio time summed one user at a time in ascending id, plus the
    computing window."""
    radio = 0.0
    for u in instance.users:
        if u.id in partition.forced_saving or u.id in s1:
            radio += u.task_bits * u.roundtrip_time_per_bit
        elif u.id in partition.forced_costly:
            radio += derive_user(instance, u.id).min_offload_bits * u.roundtrip_time_per_bit
    return radio + reference_window(instance, partition, s1)


def reference_window(instance, partition, s1):
    """The computing window as a loop: the slowest committed task."""
    longest = 0.0
    for uid in partition.forced_saving | s1:
        u = instance.users[uid]
        longest = max(longest, u.task_bits / u.service_rate)
    for uid in partition.forced_costly:
        u = instance.users[uid]
        longest = max(longest, derive_user(instance, uid).min_offload_bits / u.service_rate)
    if longest == 0.0:
        return 0.0
    return longest * interference_penalty(instance.degradation, len(partition.forced) + len(s1))


def reference_greedy_path(instance):
    """The greedy branch as a plain loop: after every drop, rescan the
    optional set for the lowest saving per radio second (lowest id on ties)
    and recompute the whole delay in set order.  Returns (scheduled, bits,
    window, objective)."""
    part = partition_users(instance)
    derived = {u.id: derive_user(instance, u.id) for u in instance.users}
    s1 = set(part.free_saving)
    while set_order_total_delay(instance, part, s1) > instance.deadline:
        drop = min(
            s1,
            key=lambda uid: (
                -derived[uid].energy_delta_per_bit / instance.users[uid].roundtrip_time_per_bit,
                uid,
            ),
        )
        s1.remove(drop)
    bits = {u.id: 0.0 for u in instance.users}
    for uid in part.forced_costly:
        bits[uid] = derived[uid].min_offload_bits
    for uid in part.forced_saving | s1:
        bits[uid] = instance.users[uid].task_bits
    objective = functools.reduce(
        operator.add,
        (derived[uid].energy_delta_per_bit * b for uid, b in sorted(bits.items())),
        0.0,
    )
    return part.forced | s1, bits, reference_window(instance, part, s1), objective


def drop_loop_instance(n_users, seed):
    """Fast local CPUs and slow VMs, with a deadline between 0.05 s and a
    little over the radio time of every task, so that most instances take
    the greedy branch, some with forced users."""
    rng = SplitMix64(mix64(n_users, seed))
    spec = GenerationSpec(
        n_users=n_users,
        degradation=rng.uniform(0.0, 0.3),
        deadline_s=rng.uniform(0.05, 0.3 + 0.01 * n_users),
        service_rate_bps=(1e6, 1e7),
        cycles_per_bit=(100.0, 500.0),
        cpu_freq_hz=(1e9, 3e9),
    )
    return generate_instance(spec, mix64(n_users + 1000, seed))


class TestFastPathEquivalence:
    @pytest.mark.parametrize("n_users", [5, 20, 100])
    def test_matches_reference_loops(self, n_users):
        greedy = 0
        for seed in range(70):
            inst = drop_loop_instance(n_users, seed)
            # the exact root lies in the bisection's final bracket, and no
            # double between it and the one below is skipped
            t, (lo, hi) = feasibility_tmin(inst), reference_tmin(inst)
            below = math.nextafter(t, 0.0)
            assert lo < t <= hi
            assert reference_gap(inst, t)[1] <= 0.0 < reference_gap(inst, below)[1]
            assert feasibility_gap(inst, t) <= 0.0 < feasibility_gap(inst, below)
            min_bits, gap = reference_gap(inst, t)
            assert inst.min_offload_bits_at(t).tolist() == min_bits
            assert feasibility_gap(inst, t) == gap
            assert feasibility_gap(inst, 0.5 * inst.deadline) == reference_gap(
                inst, 0.5 * inst.deadline
            )[1]
            schedule = solve_energy_suboptimal(inst)
            if schedule.status != "greedy-path":
                continue
            greedy += 1
            scheduled, bits, te, objective = reference_greedy_path(inst)
            assert schedule.scheduled == scheduled
            assert schedule.offload_bits == bits
            assert schedule.compute_time == te
            assert schedule.objective == objective
        assert greedy >= 35, f"only {greedy} of 70 instances took the greedy branch"

    def test_equal_drop_keys_drop_the_lower_id_first(self):
        # three identical optional users, so equal keys; the deadline fits one
        # full offload (0.4 s radio + 0.4 s computing) but not two (0.8 s
        # radio + 0.4 * 1.5 s computing)
        users = [
            saving_user(i, a=0.05, b=0.05, gamma=1.0, r=10.0, task=4.0, cycles=1.0, freq=10.0)
            for i in range(3)
        ]
        inst = make_instance(users, deadline=1.0, degradation=0.5)
        assert partition_users(inst).free_saving == {0, 1, 2}
        schedule = solve_energy_suboptimal(inst)
        assert schedule.status == "greedy-path"
        assert schedule.scheduled == frozenset({2})
        assert schedule.scheduled == reference_greedy_path(inst)[0]
        assert schedule.offload_bits == {0: 0.0, 1: 0.0, 2: 4.0}


class TestTotalDelayOrder:
    def test_sums_in_id_order(self):
        for n_users in (5, 20, 100):
            for seed in range(70):
                inst = drop_loop_instance(n_users, seed)
                part = partition_users(inst)
                optional = sorted(part.free_saving)
                for s1 in (optional, [], optional[::2], optional[len(optional) // 3 :]):
                    s1 = frozenset(s1)
                    expected = id_order_total_delay(inst, part, s1)
                    assert total_delay(inst, part, s1) == expected
                    assert required_compute_time(inst, part, s1) == reference_window(
                        inst, part, s1
                    )
                    # the set-order loop may differ in the last bits only
                    assert set_order_total_delay(inst, part, s1) == pytest.approx(
                        expected, rel=1e-13
                    )


def numbers_in(value):
    """Every number inside a solver output, through dataclasses, dicts,
    tuples and sets."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from numbers_in(getattr(value, field.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from numbers_in(key)
            yield from numbers_in(item)
    elif isinstance(value, (tuple, list, frozenset, set)):
        for item in value:
            yield from numbers_in(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


class TestOutputTypes:
    """Outputs hold Python ints and floats only: numpy scalars print as
    np.float64(...) and would change CSVs, JSON and fingerprints."""

    def test_no_numpy_scalars(self):
        outputs = []
        statuses = set()
        for seed in range(12):
            inst = stock_instance(8, 0.2, mix64(131, seed))
            t_min = feasibility_tmin(inst)
            for factor in (0.5, 1.02, 1.3, 3.0):
                tight = with_deadline(inst, t_min * factor)
                schedule = solve_energy_suboptimal(tight)
                statuses.add(schedule.status)
                outputs += [
                    schedule,
                    feasibility_tmin(tight),
                    benchmark_energy_all_offloading(tight),
                    brute_force_energy(tight),
                    benchmark_greedy(tight),
                ]
        for seed in range(10):
            inst = drop_loop_instance(20, seed)
            schedule = solve_energy_suboptimal(inst)
            statuses.add(schedule.status)
            outputs += [schedule, feasibility_tmin(inst), benchmark_greedy(inst)]
        assert statuses == {"infeasible", "lp-path", "greedy-path", "optimal-path"}
        for output in outputs:
            for x in numbers_in(output):
                assert type(x) in (int, float), (type(x), output)

    def test_no_users_give_float_zero(self):
        # the objective and the all-local energy sum from 0.0, not from int 0
        inst = make_instance([], deadline=1.0)
        for solve in (solve_energy_suboptimal, benchmark_energy_all_offloading, brute_force_energy):
            schedule = solve(inst)
            assert (repr(schedule.objective), repr(schedule.total_energy)) == ("0.0", "0.0"), solve
        assert repr(make_instance([], deadline=1.0).local_energy) == "0.0"


class TestAgainstOracleProperty:
    """The heuristic on any small stock draw and deadline: it validates when
    it schedules, refuses only below t_min, and never beats the oracle.
    Interference up to d = 1 (the stock grid stops at 0.3) reaches the
    greedy branch at K <= 8 too."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 8),
        degradation=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        slack=st.one_of(st.just(1.0), st.floats(0.8, 2.0)),
    )
    def test_feasible_valid_and_never_below_the_oracle(self, n_users, degradation, seed, slack):
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        t_min = feasibility_tmin(inst)
        inst = with_deadline(inst, t_min * slack)
        schedule = solve_energy_suboptimal(inst)
        if schedule.status == "infeasible":
            assert inst.deadline < t_min
            return
        report = validate_energy_schedule(inst, schedule)
        assert report.ok, report.render()
        best = brute_force_energy(inst)
        assert best.status != "infeasible"
        assert schedule.objective >= best.objective - _TIE_RTOL * (1.0 + abs(best.objective))


class TestExactBookkeeping:
    """Every feasible schedule of every energy solver lists each user once,
    in id order; its objective is the id-ordered sum of delta * b from 0.0,
    and its total adds the all-local energy, both exactly.  The validators
    check these only to a relative 1e-9."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 8),
        degradation=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        slack=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
        mask=st.integers(0, 255),
    )
    def test_bits_objective_and_total(self, n_users, degradation, seed, slack, mask):
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        t_min = feasibility_tmin(inst)
        instances = [with_deadline(inst, t_min), with_deadline(inst, t_min * slack)]
        solved = [
            *zip(instances, energy.benchmark_energy_all_offloading_batch(instances)),
            *zip(instances, brute_force_energy_batch(instances)),
        ]
        for each in instances:
            part = partition_users(each)
            optional = sorted(part.free_saving)
            drawn = [uid for k, uid in enumerate(optional) if (mask >> k) & 1]
            solved.append((each, solve_energy_suboptimal(each)))
            solved += [(each, solve_subset_lp(each, part, s1)) for s1 in ((), drawn, optional)]
        for each, schedule in solved:
            if schedule is None or schedule.status == "infeasible":
                continue
            bits = schedule.offload_bits
            delta = each.delta_per_bit.tolist()
            assert list(bits) == list(range(n_users))
            expected = functools.reduce(operator.add, map(operator.mul, delta, bits.values()), 0.0)
            assert schedule.objective == expected
            assert schedule.total_energy == schedule.objective + each.local_energy


LARGE_K = GenerationSpec(n_users=100, degradation=0.05, deadline_s=1.5)


def decided_instances():
    """The benchmark's K = 100 frames and drop-loop instances at K = 5, 20
    and 100."""
    instances = [generate_instance(LARGE_K, 20240 + seed) for seed in range(10)]
    return instances + [drop_loop_instance(n, seed) for n in (5, 20, 100) for seed in range(10)]


class TestDeadlineGap:
    """The feasibility decision reads the memoised forced minimum offloads:
    at the deadline the gap is the one read straight from the profiles, to
    the bit."""

    def test_equals_the_balance_at_the_deadline(self):
        specs = [
            LARGE_K,
            GenerationSpec(n_users=10, degradation=0.2, deadline_s=0.45),
            GenerationSpec(n_users=10, degradation=0.0, deadline_s=0.35),
            GenerationSpec(n_users=3, degradation=3.0, deadline_s=0.05),
        ]
        instances = [generate_instance(spec, mix64(233, seed)) for spec in specs for seed in range(25)]
        # at t_min and just below it the forced users sit on their boundary
        for inst in instances[:40]:
            t_min = feasibility_tmin(inst)
            instances += [with_deadline(inst, t_min), with_deadline(inst, math.nextafter(t_min, 0.0))]
        instances += decided_instances()
        signs = set()
        for inst in instances:
            gap = feasibility_gap(inst, inst.deadline)
            assert gap is inst.deadline_gap  # the memo, read as it is
            assert repr(gap) == repr(reference_gap(inst, inst.deadline)[1])
            signs.add(gap > 0.0)
        assert signs == {False, True}
        # a block of each user count forms the same gaps
        for n_users in {inst.n_users for inst in instances}:
            block = [inst for inst in instances if inst.n_users == n_users]
            assert [repr(g) for g in energy._gaps(block)] == [
                repr(feasibility_gap(inst, inst.deadline)) for inst in block]


class TestFeasibilityByOneEvaluation:
    """`solve_energy_suboptimal` decides feasibility with one gap evaluation
    at the deadline and runs the t_min search only when it refuses."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(("gap", "root", "tmin"), 0)
        gap, gaps, root, tmin = (energy.feasibility_gap, energy._gaps, energy._root,
                                 energy.feasibility_tmin)

        def counting_gap(*args):
            counts["gap"] += 1
            return gap(*args)

        def counting_gaps(instances):  # a block: one evaluation per instance
            counts["gap"] += len(instances)
            return gaps(instances)

        def counting_root(instance):
            counts["root"] += 1
            return root(instance)

        def counting_tmin(instance):
            counts["tmin"] += 1
            return tmin(instance)

        monkeypatch.setattr(energy, "feasibility_gap", counting_gap)
        monkeypatch.setattr(energy, "_gaps", counting_gaps)
        monkeypatch.setattr(energy, "_root", counting_root)
        monkeypatch.setattr(energy, "feasibility_tmin", counting_tmin)
        return counts

    def test_a_feasible_solve_evaluates_the_gap_once(self, counts):
        statuses = set()
        for inst in decided_instances():
            t_min = feasibility_tmin(inst)
            for deadline in (max(inst.deadline, t_min), t_min):
                counts.update(gap=0, root=0, tmin=0)
                schedule = solve_energy_suboptimal(with_deadline(inst, deadline))
                statuses.add(schedule.status)
                assert schedule.status != "infeasible"
                assert counts == {"gap": 1, "root": 0, "tmin": 0}
        assert {"greedy-path", "lp-path"} <= statuses

    def test_a_refusal_runs_the_search_once(self, counts):
        for inst in decided_instances():
            expected = feasibility_tmin(inst)
            assert expected > 0.0
            counts.update(gap=0, root=0, tmin=0)
            below = with_deadline(inst, math.nextafter(expected, 0.0))
            schedule = solve_energy_suboptimal(below)
            assert schedule.status == "infeasible"
            assert schedule.t_min == expected
            assert counts["tmin"] == 1 and counts["root"] == 1
            assert counts["gap"] >= 2  # the decision, then the search

    def test_tmin_is_the_search_alone(self, counts):
        # the float the root search settles on, with no gap evaluation after it
        for inst in decided_instances():
            counts.update(gap=0, root=0, tmin=0)
            searched = energy._root(inst)
            evaluations = counts["gap"]
            counts.update(gap=0, root=0, tmin=0)
            t_min = feasibility_tmin(inst)
            assert type(t_min) is float and t_min == searched
            assert counts == {"gap": evaluations, "root": 1, "tmin": 0}
            assert evaluations >= 1

    def test_a_failed_lp_branch_reports_the_searched_tmin(self, counts, monkeypatch):
        inst = stock_instance(5, 0.2, 11)
        t_min = feasibility_tmin(inst)
        tight = with_deadline(inst, t_min)
        assert solve_energy_suboptimal(tight).status == "lp-path"
        # an LP branch whose subset LP comes out infeasible
        monkeypatch.setattr(energy, "_subset_schedules", lambda cases: [None] * len(cases))
        counts.update(gap=0, root=0, tmin=0)
        schedule = solve_energy_suboptimal(tight)
        assert schedule.status == "infeasible" and schedule.t_min == t_min
        assert counts["tmin"] == 1 and counts["root"] == 1


def ulp_neighbours(t, ulps=3):
    """t and the `ulps` doubles on either side of it (none below zero)."""
    points = [t]
    below = above = t
    for _ in range(ulps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
        points += [below, above]
    return sorted(set(points))


class TestGapMonotoneProperty:
    """The invariant that lets one gap evaluation decide feasibility: the
    computed gap never increases with t, not even by rounding, so gap(T) > 0
    holds exactly when T < t_min.  The gap is probed where it jumps (each
    user's threshold c L / f, where it stops being forced) and at t_min,
    within a few ulps of each."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 100),
        degradation=st.one_of(st.sampled_from([0.0, 5e-324, 2.2e-16, 3.0]), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2**64 - 1),
        drop_loop=st.booleans(),
    )
    def test_gap_never_rises_and_decides_at_tmin(self, n_users, degradation, seed, drop_loop):
        if drop_loop:
            inst = dataclasses.replace(drop_loop_instance(n_users, seed), degradation=degradation)
        else:
            inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        thresholds = (inst.cycles_per_bit * inst.task_bits / inst.cpu_freq).tolist()
        t_min = feasibility_tmin(inst)
        probes = sorted({p for t in thresholds + [t_min] for p in ulp_neighbours(t)})
        gaps = [feasibility_gap(inst, t) for t in probes]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        for t in ulp_neighbours(t_min):
            assert (feasibility_gap(inst, t) > 0.0) == (t < t_min)
            if t > 0.0:
                refused = solve_energy_suboptimal(with_deadline(inst, t)).status == "infeasible"
                assert refused == (t < t_min)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(degradation=st.floats(0.0, 3.0))
    @example(degradation=0.0)
    @example(degradation=5e-324)
    @example(degradation=2.2e-16)
    @example(degradation=1e-9)
    @example(degradation=0.05)
    @example(degradation=3.0)
    def test_vm_rate_factor_never_rises_with_the_vm_count(self, degradation):
        factors = [vm_rate_factor(degradation, n) for n in range(10_001)]
        assert all(a >= b for a, b in zip(factors, factors[1:]))
