import math

import pytest

from mecoffload import (
    baseline_local_energy,
    benchmark_energy_all_offloading,
    brute_force_energy,
    derive_user,
    feasibility_gap,
    feasibility_tmin,
    partition_users,
    solve_energy_suboptimal,
    solve_lp_m1,
    solve_subset_lp,
    total_delay,
    validate_energy_schedule,
    with_deadline,
)
from mecoffload.energy import _schedule_lp
from mecoffload.lp import enumerate_vertices, solve_lp
from mecoffload.rng import mix64
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
        bits, te = solve_lp_m1(inst, part)
        assert bits == {}
        lmin = derive_user(inst, 0).min_offload_bits
        assert te == pytest.approx(lmin / 2.0, rel=1e-12)  # single VM, no penalty

    def test_infeasible_floor_returns_none(self):
        u = costly_user(0, a=1.0, b=1.0, gamma=1.0, r=0.01, task=10.0,
                        cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=2.0)
        part = partition_users(inst)
        assert solve_lp_m1(inst, part) is None

    def test_matches_vertex_enumeration_on_small_members(self):
        for seed in range(8):
            inst = stock_instance(3, 0.2, mix64(101, seed))
            t_min = feasibility_tmin(inst).t_min
            tight = with_deadline(inst, t_min * 1.2)
            part = partition_users(tight)
            members = sorted(part.forced_saving)
            if not members:
                continue
            derived = {uid: derive_user(tight, uid) for uid in members}
            problem = _schedule_lp(
                tight,
                members,
                {uid: derived[uid].min_offload_bits for uid in members},
                len(part.forced),
                tight.deadline,
                0.0,
            )
            fast = solve_lp(problem)
            slow = enumerate_vertices(problem)
            assert fast.status == slow.status == "optimal"
            assert fast.objective_value == pytest.approx(
                slow.objective_value, rel=1e-8, abs=1e-12
            )


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
