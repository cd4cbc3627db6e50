import pytest

from mecoffload import (
    BudgetExceededError,
    OracleBudget,
    brute_force_energy,
    brute_force_rate_max,
    conditional_solution,
    partition_users,
    solve_energy_suboptimal,
    solve_subset_lp,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
)
from mecoffload.rng import mix64
from support import make_instance, make_user, stock_instance, unit_roundtrip_user


class TestRateOracle:
    def test_single_user(self):
        inst = stock_instance(1, 0.1, 2)
        schedule = brute_force_rate_max(inst)
        assert schedule.scheduled == frozenset({0})

    def test_strong_interference_prefers_singleton(self):
        # two identical users, d=3: R(pair) = 2/(4+2) = 1/3 < R(single) = 1/2
        users = [unit_roundtrip_user(0), unit_roundtrip_user(1)]
        inst = make_instance(users, deadline=1.0, degradation=3.0)
        schedule = brute_force_rate_max(inst)
        assert schedule.scheduled == frozenset({0})
        assert schedule.sum_rate == pytest.approx(0.5, rel=1e-12)

    def test_exact_tie_takes_lexicographically_smallest(self):
        # d=1 ties the singleton and the pair: 1/(1+1) == 2/(2+2)
        users = [unit_roundtrip_user(0), unit_roundtrip_user(1)]
        inst = make_instance(users, deadline=1.0, degradation=1.0)
        schedule = brute_force_rate_max(inst)
        assert schedule.scheduled == frozenset({0})

    def test_budget_refusal(self):
        inst = stock_instance(13, 0.1, 4)
        with pytest.raises(BudgetExceededError):
            brute_force_rate_max(inst)
        assert brute_force_rate_max(inst, OracleBudget(max_users_rate=13)).scheduled

    def test_winner_is_validated_and_condition_clean(self):
        for seed in range(10):
            inst = stock_instance(9, 0.2, mix64(121, seed))
            schedule = brute_force_rate_max(inst)
            assert validate_rate_schedule(inst, schedule).ok
            cs = conditional_solution(inst, schedule.scheduled)
            assert cs.satisfies_necessary_condition


class TestEnergyOracle:
    def test_all_costly_instance(self):
        users = [
            make_user(i, task=0.5, cycles=1.0, freq=1.0, kappa=1e-30, power=10.0)
            for i in range(3)
        ]
        inst = make_instance(users, deadline=4.0)
        schedule = brute_force_energy(inst)
        assert schedule.scheduled == frozenset()
        assert schedule.objective == 0.0

    def test_no_optional_users_is_a_single_subproblem(self):
        for seed in range(6):
            inst = stock_instance(5, 0.2, mix64(131, seed))
            tight = with_deadline(inst, feasibility_deadline(inst, 1.05))
            part = partition_users(tight)
            if part.free_saving:
                continue
            oracle = brute_force_energy(tight)
            fast = solve_energy_suboptimal(tight)
            assert oracle.objective == pytest.approx(fast.objective, rel=1e-9)

    def test_infeasible_when_deadline_collapses(self):
        inst = stock_instance(4, 0.2, 5)
        schedule = brute_force_energy(with_deadline(inst, 1e-4))
        assert schedule.status == "infeasible"
        assert schedule.t_min is not None and schedule.t_min > 1e-4

    def test_budget_refusal_on_many_optional_users(self):
        users = [
            make_user(i, a=1e-8, b=1e-8, gamma=0.1, r=1e7, task=100.0,
                      cycles=500.0, freq=2e8, kappa=1e-28, power=0.1)
            for i in range(13)
        ]
        inst = make_instance(users, deadline=50.0, degradation=0.1)
        part = partition_users(inst)
        assert len(part.free_saving) == 13
        with pytest.raises(BudgetExceededError):
            brute_force_energy(inst)

    def test_never_beaten_by_the_scheduler(self):
        for seed in range(12):
            inst = stock_instance(7, 0.2, mix64(141, seed))
            t = feasibility_deadline(inst, 1.4)
            at = with_deadline(inst, t)
            oracle = brute_force_energy(at)
            fast = solve_energy_suboptimal(at)
            assert oracle.status != "infeasible" and fast.status != "infeasible"
            assert validate_energy_schedule(at, oracle).ok
            assert fast.objective >= oracle.objective - 1e-9 * (1 + abs(oracle.objective))

    def test_zeroed_member_subset_is_no_worse_dropped(self):
        # if the best subset leaves some optional user at zero offload, the
        # same subset without that user cannot be worse
        for seed in range(20):
            inst = stock_instance(8, 0.25, mix64(151, seed), deadline=0.55)
            part = partition_users(inst)
            schedule = brute_force_energy(inst)
            if schedule.status == "infeasible":
                continue
            optional = part.free_saving & schedule.scheduled
            zeroed = [u for u in optional if schedule.offload_bits[u] <= 1e-9]
            for uid in zeroed:
                smaller = tuple(sorted(set(optional) - {uid}))
                result = solve_subset_lp(inst, part, smaller)
                assert result is not None
                bits, _ = result
                derived_obj = schedule.objective
                # rebuild the smaller subset's total objective
                from mecoffload import derive_user

                full = {u2.id: 0.0 for u2 in inst.users}
                for fid in part.forced_costly:
                    full[fid] = derive_user(inst, fid).min_offload_bits
                full.update(bits)
                obj = sum(
                    derive_user(inst, i).energy_delta_per_bit * b
                    for i, b in sorted(full.items())
                )
                assert obj <= derived_obj + 1e-9 * (1 + abs(derived_obj))


def feasibility_deadline(instance, factor):
    from mecoffload import feasibility_tmin

    return feasibility_tmin(instance).t_min * factor
