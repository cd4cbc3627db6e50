import dataclasses
import math
import operator
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from mecoffload import (
    FeasibilityResult,
    GenerationSpec,
    baseline_local_energy,
    benchmark_energy_all_offloading,
    benchmark_greedy,
    brute_force_energy,
    brute_force_energy_batch,
    derive_user,
    feasibility_gap,
    feasibility_tmin,
    generate_instance,
    partition_users,
    required_compute_time,
    solve_energy_suboptimal,
    solve_subset_lp,
    total_delay,
    validate_energy_schedule,
    vm_rate_factor,
    with_deadline,
)
from mecoffload import energy, lp
from mecoffload.lp import solve_lp
from mecoffload.model import interference_penalty
from mecoffload.oracle import _TIE_RTOL
from mecoffload.rng import SplitMix64, mix64
from lp_reference import enumerate_vertices
from support import make_instance, make_user, stock_instance


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
        assert feasibility_tmin(inst).t_min == 0.0

    def test_single_user_algebraic_root(self):
        # 1.1 * (10 - t) = t  ->  t = 11/2.1
        u = make_user(0, a=0.05, b=0.05, gamma=1.0, r=1.0, task=10.0, cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=1.0, degradation=0.0)
        result = feasibility_tmin(inst)
        assert result.t_min == pytest.approx(11.0 / 2.1, abs=1e-6)
        assert abs(result.residual) <= 1e-6

    def test_gap_decreases(self):
        inst = stock_instance(6, 0.2, 17)
        ts = [0.01 * k for k in range(1, 60)]
        gaps = [feasibility_gap(inst, t) for t in ts]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    def test_bracket_and_sign(self):
        for seed in range(10):
            inst = stock_instance(7, 0.15, seed)
            result = feasibility_tmin(inst)
            lo, hi = result.bracket
            assert hi - lo <= 1e-9
            assert feasibility_gap(inst, result.t_min) <= 0.0
            assert result.forced_count == sum(1 for b in result.min_bits if b > 0.0)


    def test_bit_bisection_fallback_finds_the_same_root(self, monkeypatch):
        # with no ulp steps allowed, the bounded bisection over bit patterns
        # must land on the same double as the walk
        instances = [
            stock_instance(k, 0.2, seed, deadline=0.45) for k in (1, 10, 40) for seed in range(8)
        ]
        walked = [feasibility_tmin(inst) for inst in instances]
        monkeypatch.setattr(energy, "_ULP_STEPS", 0)
        for inst, expected in zip(instances, walked):
            assert feasibility_tmin(inst) == expected
            t = expected.t_min
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
            feas = feasibility_tmin(inst)
            schedule = solve_energy_suboptimal(inst)
        assert 0.0 < feas.t_min < math.inf
        assert feasibility_gap(inst, feas.t_min) <= 0.0
        if schedule.status == "infeasible":
            assert schedule.t_min == feas.t_min
            assert inst.deadline < feas.t_min
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
        assert schedule.total_energy == pytest.approx(baseline_local_energy(inst))
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
        result = feasibility_tmin(inst)
        tight = with_deadline(inst, result.t_min * 0.5)
        schedule = solve_energy_suboptimal(tight)
        assert schedule.status == "infeasible"
        assert schedule.t_min == pytest.approx(result.t_min, rel=1e-6)
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
            result = feasibility_tmin(inst)
            tight = with_deadline(inst, result.t_min * 1.01)
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
            t_min = feasibility_tmin(inst).t_min
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
            t_min = feasibility_tmin(inst).t_min
            tight = with_deadline(inst, t_min * 1.2)
            part = partition_users(tight)
            if not part.forced_saving:
                continue
            problem, _ = energy._subset_lp(tight, part, ())  # the LP branch's LP
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
        keys = {lp._key(energy._subset_lp(inst, each, ())[0]) for each in pair}
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
        # alone; three K = 40 LPs fit in one stack
        stacks = []
        solve = lp._solve_stack

        def recording(shifted):
            stacks.append([lp._size(s.problem) for s in shifted])
            return solve(shifted)

        monkeypatch.setattr(lp, "_solve_stack", recording)
        instances = [stock_instance(K, 0.05, seed, deadline=1.5) for K in (400, 40)
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

    def test_lp_branch_lps_share_one_stack(self, monkeypatch):
        stacks = []
        solve = lp._solve_stack

        def recording(shifted):
            stacks.append(len(shifted))
            return solve(shifted)

        monkeypatch.setattr(lp, "_solve_stack", recording)
        batch = energy.solve_energy_suboptimal_batch(self.instances())
        assert stacks == [sum(s.status == "lp-path" for s in batch)] and stacks[0] > 1


class TestEnergyChecker:
    def test_rejects_missing_forced_user(self):
        u = saving_user(0, task=10.0, cycles=1.0, freq=1.0, r=10.0, a=0.01, b=0.01, gamma=1.0)
        inst = make_instance([u], deadline=2.0)
        schedule = solve_energy_suboptimal(inst)
        assert schedule.status != "infeasible"
        from dataclasses import replace

        tampered = replace(schedule, scheduled=frozenset(), offload_bits={0: 0.0}, objective=0.0,
                           total_energy=baseline_local_energy(inst))
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
    radio = sum(b * u.roundtrip_time_per_bit for b, u in zip(min_bits, instance.users))
    compute = 0.0
    if forced:
        factor = vm_rate_factor(instance.degradation, forced)
        compute = max(b / (u.service_rate * factor) for b, u in zip(min_bits, instance.users))
    return min_bits, radio + compute - t


def reference_tmin(instance):
    """Bisection on `reference_gap` to a 1e-9 s bracket (lo, hi] with
    gap(lo) > 0 >= gap(hi); hi is the answer."""

    def result_at(t, lo, hi):
        min_bits, gap = reference_gap(instance, t)
        return FeasibilityResult(t, gap, tuple(min_bits), sum(1 for b in min_bits if b > 0.0),
                                 (lo, hi))

    if instance.n_users == 0:
        return result_at(0.0, 0.0, 0.0)
    hi = max(u.cycles_per_bit * u.task_bits / u.cpu_freq for u in instance.users)
    if hi <= 0.0 or reference_gap(instance, 0.0)[1] <= 0.0:
        return result_at(0.0, 0.0, 0.0)
    lo = 0.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if reference_gap(instance, mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    return result_at(hi, lo, hi)


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
    objective = sum(derived[uid].energy_delta_per_bit * b for uid, b in sorted(bits.items()))
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
            result, reference = feasibility_tmin(inst), reference_tmin(inst)
            t = result.t_min
            assert reference.bracket[0] < t <= reference.t_min
            assert reference_gap(inst, t)[1] <= 0.0 < reference_gap(inst, result.bracket[0])[1]
            assert result.bracket == (math.nextafter(t, 0.0), t)
            min_bits, gap = reference_gap(inst, t)
            assert result.min_bits == tuple(min_bits) and result.residual == gap
            assert result.forced_count == sum(1 for b in min_bits if b > 0.0)
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


def tmin_evaluated_twice(instance):
    """`feasibility_tmin` with the gap at t_min evaluated again after the
    root search."""
    balance = energy._Balance(instance)
    t, _ = balance.root()
    min_bits = balance.min_bits(t)
    return FeasibilityResult(
        t_min=t,
        residual=balance.gap(t, min_bits),
        min_bits=tuple(min_bits),
        forced_count=sum(1 for b in min_bits if b > 0.0),
        bracket=(math.nextafter(t, 0.0), t),
    )


class TestFeasibilityReuse:
    def test_one_gap_evaluation_fewer(self, monkeypatch):
        calls = []
        gap = energy._Balance.gap

        def counting(self, t, min_bits=None):
            calls.append(t)
            return gap(self, t, min_bits)

        monkeypatch.setattr(energy._Balance, "gap", counting)
        large = GenerationSpec(n_users=100, degradation=0.05, deadline_s=1.5)
        instances = [generate_instance(large, 20240 + seed) for seed in range(20)]
        instances += [drop_loop_instance(n, seed) for n in (5, 20, 100) for seed in range(20)]
        for inst in instances:
            calls.clear()
            result = feasibility_tmin(inst)
            once = len(calls)
            calls.clear()
            assert result == tmin_evaluated_twice(inst)
            assert once == len(calls) - 1
            assert calls[-1] == result.t_min


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
            t_min = feasibility_tmin(inst).t_min
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
        assert repr(baseline_local_energy(make_instance([], deadline=1.0))) == "0.0"


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
        t_min = feasibility_tmin(inst).t_min
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
        t_min = feasibility_tmin(inst).t_min
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
            assert schedule.objective == sum(map(operator.mul, delta, bits.values()), 0.0)
            assert schedule.total_energy == schedule.objective + baseline_local_energy(each)


LARGE_K = GenerationSpec(n_users=100, degradation=0.05, deadline_s=1.5)


def decided_instances():
    """The benchmark's K = 100 frames and drop-loop instances at K = 5, 20
    and 100."""
    instances = [generate_instance(LARGE_K, 20240 + seed) for seed in range(10)]
    return instances + [drop_loop_instance(n, seed) for n in (5, 20, 100) for seed in range(10)]


class TestFeasibilityByOneEvaluation:
    """`solve_energy_suboptimal` decides feasibility with one gap evaluation
    at the deadline and runs the t_min search only when it refuses."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = dict.fromkeys(("gap", "root", "tmin"), 0)
        gap, root, tmin = energy._Balance.gap, energy._Balance.root, energy.feasibility_tmin

        def counting_gap(self, t, min_bits=None):
            counts["gap"] += 1
            return gap(self, t, min_bits)

        def counting_root(self):
            counts["root"] += 1
            return root(self)

        def counting_tmin(instance):
            counts["tmin"] += 1
            return tmin(instance)

        monkeypatch.setattr(energy._Balance, "gap", counting_gap)
        monkeypatch.setattr(energy._Balance, "root", counting_root)
        monkeypatch.setattr(energy, "feasibility_tmin", counting_tmin)
        return counts

    def test_a_feasible_solve_evaluates_the_gap_once(self, counts):
        statuses = set()
        for inst in decided_instances():
            t_min = feasibility_tmin(inst).t_min
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
            assert expected.t_min > 0.0
            counts.update(gap=0, root=0, tmin=0)
            below = with_deadline(inst, math.nextafter(expected.t_min, 0.0))
            schedule = solve_energy_suboptimal(below)
            assert schedule.status == "infeasible"
            assert schedule.t_min == expected.t_min
            assert counts["tmin"] == 1 and counts["root"] == 1
            assert counts["gap"] >= 2  # the decision, then the search

    def test_a_failed_lp_branch_reports_the_searched_tmin(self, counts, monkeypatch):
        inst = stock_instance(5, 0.2, 11)
        t_min = feasibility_tmin(inst).t_min
        tight = with_deadline(inst, t_min)
        assert solve_energy_suboptimal(tight).status == "lp-path"
        # an LP branch whose subset LP comes out infeasible
        monkeypatch.setattr(energy, "_subset_lp", lambda *args: (None, lambda _: None))
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
        t_min = feasibility_tmin(inst).t_min
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
