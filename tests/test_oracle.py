import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecoffload import (
    BudgetExceededError,
    EnergySchedule,
    OracleBudget,
    baseline_local_energy,
    brute_force_energy,
    brute_force_energy_batch,
    brute_force_rate_max,
    conditional_solution,
    energy,
    feasibility_tmin,
    lp,
    oracle,
    partition_users,
    solve_energy_suboptimal,
    solve_subset_lp,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
)
from mecoffload.harness import DEFAULT_GRIDS
from mecoffload.rng import mix64
from support import (
    count_stacked,
    make_instance,
    make_user,
    stock_instance,
    subset_lps,
    unit_roundtrip_user,
)


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


def reference_brute_force_rate_max(instance):
    """The rate oracle as it enumerates without a table: every nonempty
    subset's bits built afresh for the call."""
    K = instance.n_users
    ids = np.arange(K)
    masks = np.arange(1, 1 << K, dtype=np.int64)
    bits = ((masks[:, None] >> ids[None, :]) & 1).astype(float)
    service = instance.service_rate
    num = bits @ (instance.weight * service)
    den = (1.0 + instance.degradation) ** (bits.sum(axis=1) - 1.0) + bits @ (
        instance.roundtrip_time_per_bit * service
    )
    rates = num / den
    best = float(np.max(rates))
    tied = np.nonzero(rates >= best - oracle._TIE_RTOL * (1.0 + best))[0]
    winner = min(tuple(k for k in range(K) if (int(masks[i]) >> k) & 1) for i in tied)
    return conditional_solution(instance, winner).as_schedule()


def fresh_bits(n):
    masks = np.arange(1 << n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


class TestSubsetTables:
    """Every oracle call reads one memoised subset table per size.  The
    winners and their bits must be what building the subsets afresh for
    each call gives."""

    @pytest.mark.parametrize("n_users", range(1, 13))
    def test_rate_oracle_matches_the_per_call_enumeration(self, n_users):
        for d in DEFAULT_GRIDS["rate-vs-d"]:
            for seed in range(4):
                inst = stock_instance(n_users, d, mix64(181, seed))
                table, fresh = brute_force_rate_max(inst), reference_brute_force_rate_max(inst)
                assert table.scheduled == fresh.scheduled
                assert repr(table.sum_rate) == repr(fresh.sum_rate)
                assert repr(table) == repr(fresh)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 12),
        degradation=st.one_of(st.sampled_from([0.0, 1.0, 5e-324]), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_rate_oracle_property(self, n_users, degradation, seed):
        inst = stock_instance(n_users, degradation, seed)
        assert repr(brute_force_rate_max(inst)) == repr(reference_brute_force_rate_max(inst))

    def test_products_are_bit_identical_to_a_fresh_array(self):
        rng = np.random.default_rng(191)
        for n in range(1, 13):
            masks, bits, sizes = oracle._subset_table(n)
            fresh = fresh_bits(n)
            assert np.array_equal(masks, np.arange(1 << n))
            assert np.array_equal(bits, fresh)
            assert np.array_equal(sizes, fresh[1:].sum(axis=1) - 1.0)
            for _ in range(300):
                v = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-9.0, 9.0, n)
                assert (bits[1:] @ v).tobytes() == (fresh[1:] @ v).tobytes()

    def test_tables_are_read_only_and_shared(self):
        for n in (0, 1, 5, 12):
            table = oracle._subset_table(n)
            assert oracle._subset_table(n) is table
            for array in table:
                with pytest.raises(ValueError):
                    array[...] = 0
            with pytest.raises(ValueError):
                table[1][1:][0, 0] = 1.0

    def test_raised_budget_builds_per_call_and_keeps_nothing(self):
        inst = stock_instance(13, 0.1, 4)
        schedule = brute_force_rate_max(inst, OracleBudget(max_users_rate=13))
        assert repr(schedule) == repr(reference_brute_force_rate_max(inst))
        assert 13 not in oracle._tables
        assert oracle._subset_table(13) is not oracle._subset_table(13)
        assert max(oracle._tables) <= oracle._TABLE_MEMO_MAX

    def test_memoised_tables_take_under_a_megabyte(self):
        nbytes = sum(a.nbytes for n in range(oracle._TABLE_MEMO_MAX + 1)
                     for a in oracle._subset_table(n))
        assert nbytes < 1 << 20

    def test_energy_bounds_match_a_fresh_subset_matrix(self):
        for inst in oracle_mix():
            part = partition_users(inst)
            optional = sorted(part.free_saving)
            bounds, scale = oracle._offload_bounds(inst, part, optional)
            ids = np.asarray(optional, dtype=np.intp)
            base, _ = energy._commitment(inst, part, ())
            bits = np.repeat(base[None, :], 1 << ids.size, axis=0)
            bits[:, ids] = np.where(fresh_bits(ids.size).astype(bool), inst.task_bits[ids], 0.0)
            fresh = np.add.accumulate(bits * inst.delta_per_bit, axis=1)[:, -1]
            assert np.asarray(bounds).tobytes() == fresh.tobytes()


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
                bits = {u2: result.offload_bits[u2] for u2 in part.forced_saving | set(smaller)}
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


def reference_brute_force_energy(instance):
    """The energy oracle as one scalar subset solve after another, with its
    own copy of the schedule assembly and objective sum: of each subset's
    schedule it reads only the LP members' bits and the window."""
    partition = partition_users(instance)
    optional = sorted(partition.free_saving)
    min_bits = instance.min_offload_bits.tolist()
    delta = instance.delta_per_bit.tolist()
    best = None  # (objective, subset, bits, window)
    for mask in range(1 << len(optional)):
        s1 = tuple(optional[k] for k in range(len(optional)) if (mask >> k) & 1)
        result = solve_subset_lp(instance, partition, s1)
        if result is None:
            continue
        bits = {uid: result.offload_bits[uid] for uid in partition.forced_saving | set(s1)}
        te = result.compute_time
        full = {u.id: 0.0 for u in instance.users}
        for uid in partition.forced_costly:
            full[uid] = min_bits[uid]
        full.update(bits)
        objective = sum(delta[uid] * b for uid, b in sorted(full.items()))
        if best is not None:
            tol = 1e-12 * (1.0 + abs(best[0]))
            if not (objective < best[0] - tol or (objective <= best[0] + tol and s1 < best[1])):
                continue
        best = (objective, s1, full, te)
    if best is None:
        return EnergySchedule(frozenset(), {u.id: 0.0 for u in instance.users}, 0.0, math.nan,
                              math.nan, "infeasible", feasibility_tmin(instance).t_min)
    objective, s1, full, te = best
    return EnergySchedule(partition.forced | frozenset(s1), full, te, objective,
                          objective + baseline_local_energy(instance), "lp-path")


def oracle_mix():
    """Stock instances with up to 5 optional users, from infeasible to
    slack deadlines."""
    return [
        stock_instance(8, 0.25, mix64(161, seed), deadline=(0.3, 0.45, 0.6, 0.9)[seed % 4])
        for seed in range(40)
    ]


class TestEnergyOracleBatch:
    def test_batch_matches_the_scalar_subset_loop(self):
        instances = oracle_mix()
        batch = brute_force_energy_batch(instances)
        assert repr(batch) == repr([reference_brute_force_energy(i) for i in instances])
        assert repr(batch) == repr([brute_force_energy(i) for i in instances])
        assert {s.status for s in batch} == {"lp-path", "infeasible"}
        assert max(len(partition_users(i).free_saving) for i in instances) >= 3

    def test_exact_tie_takes_the_smallest_subset(self):
        # two identical optional users, either of which alone fills the
        # frame; together they interfere too much to pay
        users = [make_user(i, a=0.5, b=0.5, gamma=1.0, r=10.0, task=1.0, cycles=1.0,
                           freq=2.0, kappa=1.0, power=0.1) for i in range(2)]
        inst = make_instance(users, deadline=1.0, degradation=5.0)
        part = partition_users(inst)
        single = [solve_subset_lp(inst, part, (uid,)).offload_bits for uid in (0, 1)]
        assert single[0][0] == single[1][1]
        [schedule] = brute_force_energy_batch([inst])
        assert schedule.scheduled == frozenset({0})
        assert repr(schedule) == repr(reference_brute_force_energy(inst))

    def test_budget_refusal_in_a_batch(self):
        with pytest.raises(BudgetExceededError, match="optional users"):
            brute_force_energy_batch(oracle_mix(), OracleBudget(max_optional_energy=1))

    def test_time_guard_while_building(self):
        with pytest.raises(BudgetExceededError, match="time guard"):
            brute_force_energy_batch(oracle_mix(), OracleBudget(time_limit_s=1e-9))

    def test_time_guard_between_stacks(self, monkeypatch):
        # a clock that only the LP solves advance, 2 s a stack, and a stack
        # budget of 16 of the largest LPs of these K = 8 instances
        now = [0.0]
        stacks = []
        solve = lp.solve_lps

        def slow(problems):
            now[0] += 2.0
            stacks.append([lp._size(p) for p in problems])
            return solve(problems)

        monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=lambda: now[0]))
        monkeypatch.setattr(lp, "solve_lps", slow)
        monkeypatch.setattr(lp, "STACK_ENTRIES", 16 * lp._entries(17, 9))
        instances = oracle_mix()
        assert len(brute_force_energy_batch(instances, OracleBudget(time_limit_s=100.0))) == 40
        assert len(stacks) > 2 and max(map(len, stacks)) >= 16
        for sizes in stacks:  # each call is one stack within the budget
            rows, cols = map(max, zip(*sizes))
            assert len(sizes) * lp._entries(rows, cols) <= lp.STACK_ENTRIES
        now[0] = 0.0
        stacks.clear()
        with pytest.raises(BudgetExceededError, match="time guard"):
            brute_force_energy_batch(instances, OracleBudget(time_limit_s=1.0))
        assert len(stacks) == 1  # refused before the second stack


class TestPrunedSubsets:
    """The oracle solves the full subset first and skips every other subset
    whose full-offload bound lies beyond the full subset's objective plus a
    margin.  It must still pick what the exhaustive loop picks, bit for
    bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(2, 8),
        degradation=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
        costly=st.sets(st.integers(0, 7), max_size=3),
        slack=st.one_of(st.just(1.0), st.floats(0.8, 1.5)),
        extra=st.one_of(st.just(0.0), st.floats(0.3, 3.0)),
    )
    def test_equals_the_exhaustive_loop(self, n_users, degradation, seed, costly, slack, extra):
        # The users in `costly` get a radio 100 times as power-hungry, so
        # that offloading costs them energy; near t_min they are forced.
        # The deadline is slack * t_min plus `extra` seconds: stock tasks
        # take 0.3-4 s locally, so the extra time leaves users optional, and
        # up to d = 1 smaller subsets often beat the full one.
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        power = [p * (100.0 if k in costly else 1.0) for k, p in enumerate(inst.tx_power.tolist())]
        inst = dataclasses.replace(inst, tx_power=power)
        inst = with_deadline(inst, feasibility_tmin(inst).t_min * slack + extra)
        assert repr(brute_force_energy(inst)) == repr(reference_brute_force_energy(inst))

    def test_infeasible_full_subset_skips_nothing(self, monkeypatch):
        inst = stock_instance(8, 0.6, mix64(171, 1), deadline=0.45)
        inst = with_deadline(inst, feasibility_deadline(inst, 1.3))
        part = partition_users(inst)
        assert len(part.free_saving) == 3
        assert solve_subset_lp(inst, part, part.free_saving) is None
        counter = count_stacked(monkeypatch)
        schedule = brute_force_energy(inst)
        assert counter.problems == sum(p is not None for p in subset_lps(inst)) == 8
        assert schedule.scheduled & part.free_saving == frozenset({7})
        assert repr(schedule) == repr(reference_brute_force_energy(inst))

    def test_a_strict_smaller_subset_wins(self, monkeypatch):
        inst = stock_instance(8, 0.6, mix64(171, 4), deadline=0.45)
        inst = with_deadline(inst, feasibility_deadline(inst, 1.6))
        part = partition_users(inst)
        assert len(part.free_saving) == 4
        assert solve_subset_lp(inst, part, part.free_saving) is not None
        counter = count_stacked(monkeypatch)
        schedule = brute_force_energy(inst)
        assert counter.problems < sum(p is not None for p in subset_lps(inst))
        assert schedule.scheduled & part.free_saving == frozenset({1, 2, 6})
        assert repr(schedule) == repr(reference_brute_force_energy(inst))

    def test_near_tie_with_the_full_subset_keeps_the_smaller_subset(self):
        # User 0 saves 1e-3 J by offloading and user 1 about 5e-13 J, well
        # inside the tie tolerance but not below the simplex's pivot
        # threshold, so the full subset (0, 1) offloads both.  The exhaustive
        # loop keeps subset (0,) over the full subset, whose objective is
        # lower by 5e-13.  The bound of (0,) is its objective, above the full
        # subset's: only the margin keeps (0,) from being skipped.
        users = [
            make_user(0, a=0.5, b=0.5, gamma=1.0, r=10.0, task=1.0, cycles=1.0, freq=2.0,
                      kappa=0.01275, power=0.1),
            make_user(1, a=0.5, b=0.5, gamma=1.0, r=10.0, task=1.0, cycles=1.0, freq=1.0,
                      kappa=1.0, power=2.0 - 1e-12),
        ]
        inst = make_instance(users, deadline=10.0)
        part = partition_users(inst)
        assert part.free_saving == frozenset({0, 1})
        single, full = (solve_subset_lp(inst, part, s) for s in ((0,), (0, 1)))
        delta = inst.delta_per_bit.tolist()
        assert single.offload_bits == {0: 1.0, 1: 0.0} and full.offload_bits == {0: 1.0, 1: 1.0}
        assert 0.0 < delta[0] - (delta[0] + delta[1]) < oracle._TIE_RTOL
        schedule = brute_force_energy(inst)
        assert schedule.scheduled == frozenset({0})
        assert repr(schedule) == repr(reference_brute_force_energy(inst))


def feasibility_deadline(instance, factor):
    from mecoffload import feasibility_tmin

    return feasibility_tmin(instance).t_min * factor
