import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecoffload import (
    GenerationSpec,
    benchmark_all_offloading,
    benchmark_all_offloading_batch,
    benchmark_greedy,
    benchmark_greedy_batch,
    benchmark_lr,
    brute_force_rate_max,
    conditional_solution,
    dinkelbach_slave,
    generate_instance,
    homogeneous_m_star,
    homogeneous_txrate_schedule,
    meets_necessary_condition,
    no_interference_schedule,
    per_size_table,
    solve_rate_max,
    solve_rate_max_batch,
    validate_rate_schedule,
)
from mecoffload import rate as ratemod
from mecoffload.model import RATE_RTOL, shared_solutions
from mecoffload.rate import MAX_DINKELBACH_ITER, SlaveSummary
from mecoffload.rng import mix64
import rate_reference
from rate_reference import prefix_greedy as reference_greedy
from support import (
    SplitMix64,
    count_closed_forms,
    homogeneous_instance,
    homogeneous_txrate_instance,
    make_instance,
    make_user,
    stock_instance,
    unit_roundtrip_user,
)


class TestConditionalSolution:
    def test_single_user(self):
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0, degradation=0.8)
        cs = conditional_solution(inst, [0])
        assert cs.compute_time == pytest.approx(1.0, abs=1e-12)
        assert cs.offload_bits[0] == pytest.approx(1.0, abs=1e-12)
        assert cs.sum_rate == pytest.approx(0.5, abs=1e-12)
        assert meets_necessary_condition(inst, cs)

    def test_two_identical_users(self):
        users = [unit_roundtrip_user(0), unit_roundtrip_user(1)]
        inst = make_instance(users, deadline=1.0, degradation=0.1)
        cs = conditional_solution(inst, [0, 1])
        assert cs.compute_time == pytest.approx(1.1 / 3.1, rel=1e-12)
        assert cs.offload_bits[0] == pytest.approx((1.1 / 3.1) / 1.1, rel=1e-12)
        assert cs.sum_rate == pytest.approx(2.0 / 3.1, rel=1e-12)
        assert meets_necessary_condition(inst, cs)  # 0.645 <= min tx rate 1.0

    def test_empty_subset_rejected(self):
        inst = make_instance([unit_roundtrip_user(0)])
        with pytest.raises(ValueError):
            conditional_solution(inst, [])
        unscheduled = dataclasses.replace(conditional_solution(inst, [0]), scheduled=frozenset())
        with pytest.raises(ValueError, match="nonempty"):
            meets_necessary_condition(inst, unscheduled)

    def test_unknown_member_rejected(self):
        inst = make_instance([unit_roundtrip_user(0)])
        with pytest.raises(KeyError):
            conditional_solution(inst, [5])

    @pytest.mark.parametrize(
        "subset, unknown", [([-1, 0], -1), ([0, 9, 4], 4), ([-1], -1), ([1, 2], 2)])
    def test_unknown_member_named(self, subset, unknown):
        # a negative id must not index the columns from the end, so a
        # schedule file naming user -1 may not read the last user's rate
        inst = make_instance([unit_roundtrip_user(0), unit_roundtrip_user(1)])
        with pytest.raises(KeyError, match=f"no user with id {unknown}"):
            conditional_solution(inst, subset)
        named = dataclasses.replace(conditional_solution(inst, [0]), scheduled=frozenset(subset))
        with pytest.raises(KeyError, match=f"no user with id {unknown}"):
            meets_necessary_condition(inst, named)

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_tight_and_rate_forms_agree(self, seed):
        inst = stock_instance(8, 0.15, seed)
        cs = conditional_solution(inst, range(5))
        used = sum(
            cs.offload_bits[i] * inst.users[i].roundtrip_time_per_bit for i in range(5)
        )
        assert used + cs.compute_time == pytest.approx(inst.deadline, rel=1e-12)
        recomputed = sum(u.weight * cs.offload_bits[u.id] for u in inst.users) / inst.deadline
        assert cs.sum_rate == pytest.approx(recomputed, rel=1e-12)


class TestDinkelbach:
    def test_first_iteration_picks_largest_weighted_rates(self):
        inst = stock_instance(8, 0.1, 3)
        _, _, trace = dinkelbach_slave(inst, 3)
        first = trace.records[0]
        assert first.rate == 0.0
        expected = sorted(
            range(8), key=lambda i: (-inst.users[i].weight * inst.users[i].service_rate, i)
        )[:3]
        assert first.selected == frozenset(expected)

    def test_full_cardinality_converges_in_two(self):
        inst = stock_instance(6, 0.1, 4)
        _, _, trace = dinkelbach_slave(inst, 6)
        assert trace.iterations == 2
        assert trace.records[-1].gap == pytest.approx(0.0, abs=1e-6)

    def test_matches_exhaustive_three_subsets(self):
        inst = stock_instance(6, 0.15, 42)
        _, rate, _ = dinkelbach_slave(inst, 3)
        best = max(
            conditional_solution(inst, s).sum_rate for s in itertools.combinations(range(6), 3)
        )
        assert rate == pytest.approx(best, rel=1e-9)

    def test_rate_strictly_increases(self):
        for seed in range(10):
            inst = stock_instance(9, 0.2, seed)
            for m in (2, 5, 9):
                _, _, trace = dinkelbach_slave(inst, m)
                rates = [rec.rate for rec in trace.records]
                assert all(a < b for a, b in zip(rates, rates[1:])), rates
                assert trace.iterations <= 30

    def test_bad_cardinality(self):
        inst = stock_instance(4, 0.1, 0)
        with pytest.raises(ValueError):
            dinkelbach_slave(inst, 0)
        with pytest.raises(ValueError):
            dinkelbach_slave(inst, 5)


class TestSolveRateMax:
    def test_single_user_closed_form(self):
        u = make_user(0, weight=1.5, a=0.25, b=0.5, gamma=0.5, r=2.0)
        inst = make_instance([u], deadline=3.0, degradation=0.3)
        schedule, table = solve_rate_max(inst)
        rt = 0.25 + 0.5 * 0.5
        expected = 1.5 * 2.0 / (1.0 + rt * 2.0)
        assert schedule.scheduled == frozenset({0})
        assert schedule.sum_rate == pytest.approx(expected, rel=1e-12)
        assert len(table) == 1 and table[0].m == 1

    def test_homogeneous_set_size_matches_closed_form(self):
        # 1/ln(1.1) = 10.492, so twelve identical users schedule 10 or 11
        inst = homogeneous_instance(12, 0.1, seed=5)
        schedule, _ = solve_rate_max(inst)
        assert len(schedule.scheduled) in (10, 11)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_brute_force(self, seed):
        rng = SplitMix64(seed)
        k = 4 + int(rng.uniform(0, 9))
        d = (0.0, 0.05, 0.1, 0.2, 0.3)[int(rng.uniform(0, 5))]
        inst = stock_instance(k, d, mix64(11, seed))
        schedule, _ = solve_rate_max(inst)
        oracle = brute_force_rate_max(inst)
        assert schedule.sum_rate == pytest.approx(oracle.sum_rate, rel=1e-9)
        assert validate_rate_schedule(inst, schedule).ok

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(1, 12),
        degradation=st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.0, 3.0)),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_equals_the_oracle_or_ties_it(self, n_users, degradation, seed):
        inst = stock_instance(n_users, degradation, seed)
        schedule, _ = solve_rate_max(inst)
        oracle = brute_force_rate_max(inst)
        tol = RATE_RTOL * (1.0 + oracle.sum_rate)
        assert schedule.sum_rate <= oracle.sum_rate + tol
        if schedule.scheduled != oracle.scheduled:
            assert schedule.sum_rate >= oracle.sum_rate - tol

    def test_subnormal_degradation_solves_as_zero(self):
        # 1 + 5e-324 == 1, so every penalty is that of d = 0
        for seed in range(4):
            inst = stock_instance(10, 0.0, mix64(31, seed))
            tiny = dataclasses.replace(inst, degradation=5e-324)
            schedule, _ = solve_rate_max(tiny)
            assert repr(schedule) == repr(solve_rate_max(inst)[0])
            assert schedule.scheduled == brute_force_rate_max(tiny).scheduled

    def test_scheduled_users_sit_at_their_caps(self):
        inst = stock_instance(9, 0.1, 77)
        schedule, _ = solve_rate_max(inst)
        factor = (1.0 + inst.degradation) ** (1 - len(schedule.scheduled))
        for uid in schedule.scheduled:
            cap = schedule.compute_time * inst.users[uid].service_rate * factor
            assert schedule.offload_bits[uid] == pytest.approx(cap, rel=1e-9)

    def test_empty_instance_rejected(self):
        inst = make_instance([], deadline=1.0)
        with pytest.raises(ValueError):
            solve_rate_max(inst)


def per_size_sweep(instance):
    """The rate solve as a plain sweep over set sizes: a `dinkelbach_slave`
    run for every m, and the first size with the largest rate wins."""
    best_rate, best_set = -math.inf, frozenset()
    for m in range(1, instance.n_users + 1):
        selected, rate, _ = dinkelbach_slave(instance, m)
        if rate > best_rate:
            best_rate, best_set = rate, selected
    return conditional_solution(instance, best_set)


def assert_matches_sweep(instance):
    schedule, rows = solve_rate_max(instance)
    reference = per_size_sweep(instance)
    assert schedule.scheduled == reference.scheduled
    assert repr(schedule.sum_rate) == repr(reference.sum_rate)
    (row,) = rows
    assert row.selected == schedule.scheduled and row.m == len(row.selected)


class TestGlobalLoopEquivalence:
    """The one Dinkelbach loop over all sizes picks the set the per-size
    sweep picks, to the bit, ties between sizes included."""

    @pytest.mark.parametrize("k", [1, *range(4, 13), 20, 50, 100])
    def test_matches_per_size_sweep_on_generated(self, k):
        for d in (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3):
            for seed in range(23):
                assert_matches_sweep(stock_instance(k, d, mix64(61, k, int(d * 100), seed)))

    @pytest.mark.parametrize("builder", [homogeneous_instance, homogeneous_txrate_instance])
    def test_matches_per_size_sweep_on_ties(self, builder):
        # identical users at d = 1/m tie sizes m and m+1 exactly, and equal
        # scores tie users within a size
        for d in (1 / 3, 1 / 4, 1 / 7, 0.2, 0.25):
            for k in (3, 8, 12, 20):
                for seed in range(20):
                    assert_matches_sweep(builder(k, d, seed))

    def test_per_size_table_holds_the_chosen_row(self):
        inst = stock_instance(9, 0.15, 23)
        schedule, (row,) = solve_rate_max(inst)
        table = per_size_table(inst)
        assert [r.m for r in table] == list(range(1, 10))
        best = max(table, key=lambda r: (r.rate, -r.m))
        assert (best.m, best.selected) == (row.m, schedule.scheduled)

    def test_per_size_table_rejects_empty_instance(self):
        with pytest.raises(ValueError):
            per_size_table(make_instance([], deadline=1.0))


def one_instance_solve(instance):
    """`solve_rate_max` as a loop over one instance's 1-D arrays: the
    reference for the lockstep solve, which must match it to the bit.  It
    scores only the sizes below a log-domain cut, past which a size's
    penalty exceeds sum(w r) (1+d) over the best singleton rate, so it also
    checks that the solve's sizes past the cut never win."""
    wr = instance.weight * instance.service_rate
    qr = instance.roundtrip_time_per_bit * instance.service_rate
    weight, roundtrip = instance.weight, instance.roundtrip_time_per_bit
    service = instance.service_rate
    rate = float((wr / (1.0 + qr)).max())
    d = instance.degradation
    n_sizes = instance.n_users
    if d > 0.0:
        cut = math.log(float(wr.sum()) / rate) / math.log1p(d)
        if cut < n_sizes:
            n_sizes = min(n_sizes, int(cut) + 2)
    penalties = [(1.0 + d) ** j for j in range(n_sizes)]

    def prefix_rate(order, m):
        selected = np.sort(order[:m])
        return selected, float(wr[selected].sum()), penalties[m - 1] + float(qr[selected].sum())

    for iterations in range(1, MAX_DINKELBACH_ITER + 1):
        scores = service * (weight - rate * roundtrip)
        order = np.argsort(-scores, kind="stable")
        objective = np.cumsum(scores[order[:n_sizes]]) - rate * np.array(penalties)
        m = int(objective.argmax()) + 1
        _, num, den = prefix_rate(order, m)
        gap = num - rate * den
        rate = num / den
        tolerance = 1e-9 * (1.0 + abs(num))
        if abs(gap) <= tolerance:
            break
    best_rate = -math.inf
    for size in (np.flatnonzero(objective >= objective[m - 1] - tolerance) + 1).tolist():
        candidate, num, den = prefix_rate(order, size)
        if num / den > best_rate:
            m, selected, best_rate = size, candidate, num / den
    chosen = frozenset(selected.tolist())
    summary = SlaveSummary(m, best_rate, iterations, chosen)
    return conditional_solution(instance, chosen), (summary,)


def assert_same_solve(solved, reference):
    (schedule, (row,)), (expected, (expected_row,)) = solved, reference
    assert schedule.scheduled == expected.scheduled
    assert repr(schedule.sum_rate) == repr(expected.sum_rate)
    assert schedule == expected
    assert row == expected_row and repr(row.rate) == repr(expected_row.rate)


def assert_batch_matches(instances):
    """The batch solve equals one-at-a-time `solve_rate_max`, and both the
    one-instance reference loop, in schedule, rate bits and summary."""
    batch = solve_rate_max_batch(instances)
    assert len(batch) == len(instances)
    for instance, solved in zip(instances, batch):
        assert_same_solve(solved, solve_rate_max(instance))
        assert_same_solve(solved, one_instance_solve(instance))


# spreads the transmission rates, so sets that break the necessary
# condition and sizes past the reference's cut both occur
WIDE = dict(uplink_mbps=(2.0, 300.0), downlink_mbps=(2.0, 300.0), service_rate_bps=(1e7, 1e8))


class TestBatchSolve:
    """`solve_rate_max_batch` runs the loop of a block of instances in
    lockstep; it must give each instance's one-at-a-time solve to the bit,
    whatever the block mixes and whenever each lane converges."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.lists(
        st.tuples(
            st.integers(1, 12),
            st.sampled_from([0.0, 5e-324, 0.05, 0.1, 0.3, 3.0]) | st.floats(0.0, 3.0),
            st.integers(0, 2**64 - 1),
            st.booleans(),
        ),
        min_size=1, max_size=30,
    ))
    def test_mixed_blocks_match_one_at_a_time(self, draws):
        assert_batch_matches([
            generate_instance(GenerationSpec(n_users=k, degradation=d, **(WIDE if wide else {})),
                              seed)
            for k, d, seed, wide in draws
        ])

    def test_tied_sizes_and_users(self):
        # identical users at d = 1/m tie sizes m and m+1 exactly, and equal
        # scores tie users within a size
        assert_batch_matches([
            builder(k, d, seed)
            for builder in (homogeneous_instance, homogeneous_txrate_instance)
            for d in (1 / 3, 1 / 4, 0.2)
            for k in (3, 8, 12)
            for seed in range(3)
        ])

    @pytest.mark.parametrize("k, degradations", [
        (100, (0.0, 5e-324, 0.05, 0.3, 3.0)),
        (1000, (0.0, 5e-324, 0.05, 3.0)),
    ])
    def test_large_blocks(self, k, degradations):
        assert_batch_matches([
            generate_instance(GenerationSpec(n_users=k, degradation=d, **wide), mix64(k, seed))
            for d in degradations
            for seed, wide in enumerate(({}, WIDE))
        ])

    def test_empty_block_and_empty_instance(self):
        assert solve_rate_max_batch([]) == []
        with pytest.raises(ValueError, match="no users"):
            solve_rate_max_batch([stock_instance(4, 0.1, 1), make_instance([], deadline=1.0)])


class TestLargeK:
    """Beyond the oracle's reach: a valid schedule, no overflow and no numpy
    warning, and no fixed size or threshold rule doing better."""

    @pytest.mark.parametrize("k", [3000, 10000])
    def test_strong_interference(self, k):
        inst = stock_instance(k, 0.3, mix64(71, k))
        with pytest.raises(OverflowError):
            (1.0 + inst.degradation) ** (k - 1)  # the full set's penalty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schedule, (row,) = solve_rate_max(inst)
            lr = benchmark_lr(inst)
        assert validate_rate_schedule(inst, schedule).ok
        assert validate_rate_schedule(inst, lr).ok
        best_fixed = max(dinkelbach_slave(inst, m)[1] for m in range(1, 41))
        assert row.rate >= best_fixed * (1.0 - 1e-12)

    @pytest.mark.parametrize("k", [3000, 10000])
    def test_benchmarks_saturate(self, k):
        # past the size where (1 + d)^(m - 1) overflows, a set's penalty is
        # inf: rate 0, the whole frame as window, no bits
        inst = stock_instance(k, 0.3, mix64(71, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schedules = {
                "greedy": benchmark_greedy(inst),
                "all-offload": benchmark_all_offloading(inst),
                "full set": conditional_solution(inst, range(k)),
            }
            selected, slave_rate, trace = dinkelbach_slave(inst, k)
            schedules["slave"] = conditional_solution(inst, selected)
        for name, schedule in schedules.items():
            assert validate_rate_schedule(inst, schedule).ok, name
        full = schedules["full set"]
        assert (full.sum_rate, full.compute_time) == (0.0, inst.deadline)
        assert set(full.offload_bits.values()) == {0.0}
        assert schedules["all-offload"] == full
        assert (len(selected), slave_rate, trace.iterations) == (k, 0.0, 1)
        # the greedy order never stops at d = 0.3, so it takes everybody
        assert schedules["greedy"].scheduled == frozenset(range(k))

    @pytest.mark.parametrize("k", [3000, 10000])
    def test_no_interference_matches_threshold_rule(self, k):
        inst = stock_instance(k, 0.0, mix64(73, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            schedule, _ = solve_rate_max(inst)
        assert validate_rate_schedule(inst, schedule).ok
        assert schedule.sum_rate == pytest.approx(
            no_interference_schedule(inst).sum_rate, rel=1e-9
        )


class TestHomogeneousMStar:
    def test_neighborhood_d01(self):
        assert homogeneous_m_star(0.1, 12, 1.5e7, 9e-9) in (10, 11)

    def test_neighborhood_d02(self):
        assert homogeneous_m_star(0.2, 12, 1.5e7, 9e-9) in (5, 6)

    def test_clamped_by_population(self):
        assert homogeneous_m_star(0.001, 4, 1.5e7, 9e-9) == 4

    def test_subnormal_degradation_takes_everyone(self):
        # 1/log1p(5e-324) overflows to inf
        assert homogeneous_m_star(5e-324, 4, 1.5e7, 9e-9) == 4

    def test_agrees_with_full_solver(self):
        # at d = 1/m the neighbors m and m+1 are exactly tied (the closed
        # forms coincide algebraically), so compare rates, not set sizes
        for seed in range(6):
            for d in (0.05, 0.1, 0.2):
                inst = homogeneous_instance(12, d, seed)
                u = inst.users[0]
                r, rt = u.service_rate, u.roundtrip_time_per_bit
                m = homogeneous_m_star(d, 12, r, rt)
                helper_rate = m * r / ((1.0 + d) ** (m - 1) + m * r * rt)
                schedule, _ = solve_rate_max(inst)
                x = 1.0 / math.log1p(d)
                candidates = {
                    min(max(int(math.floor(x)), 1), 12),
                    min(max(int(math.ceil(x)), 1), 12),
                }
                assert len(schedule.scheduled) in candidates
                assert schedule.sum_rate == pytest.approx(helper_rate, rel=1e-9)

    def test_requires_positive_degradation(self):
        with pytest.raises(ValueError):
            homogeneous_m_star(0.0, 5, 1.0, 1.0)


class TestHomogeneousTxRate:
    def test_hand_traced_prefix(self):
        # service rates 5,3,2,1 with d=0.5: 5>=0, 3>=2.5, 2<4 -> top two
        users = [unit_roundtrip_user(i, r=r) for i, r in enumerate([5.0, 3.0, 2.0, 1.0])]
        inst = make_instance(users, deadline=1.0, degradation=0.5)
        schedule = homogeneous_txrate_schedule(inst)
        assert schedule.scheduled == frozenset({0, 1})

    def test_zero_interference_takes_everyone(self):
        users = [unit_roundtrip_user(i, r=r) for i, r in enumerate([5.0, 3.0, 2.0, 1.0])]
        inst = make_instance(users, deadline=1.0, degradation=0.0)
        assert homogeneous_txrate_schedule(inst).scheduled == frozenset(range(4))

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        inst = homogeneous_txrate_instance(8, 0.1 + 0.02 * (seed % 5), seed)
        fast = homogeneous_txrate_schedule(inst)
        oracle = brute_force_rate_max(inst)
        assert fast.sum_rate == pytest.approx(oracle.sum_rate, rel=1e-9)

    def test_rejects_heterogeneous_rates(self):
        users = [make_user(0, a=0.5, b=0.5, gamma=1.0), make_user(1, a=0.7, b=0.5, gamma=1.0)]
        inst = make_instance(users, degradation=0.1)
        with pytest.raises(ValueError, match="transmission"):
            homogeneous_txrate_schedule(inst)

    def test_rejects_nonuniform_weights(self):
        users = [unit_roundtrip_user(0), unit_roundtrip_user(1, weight=2.0)]
        inst = make_instance(users, degradation=0.1)
        with pytest.raises(ValueError, match="weights"):
            homogeneous_txrate_schedule(inst)


class TestNoInterference:
    def test_single_user_always_scheduled(self):
        inst = make_instance([unit_roundtrip_user(0, r=3.0)], degradation=0.0)
        assert no_interference_schedule(inst).scheduled == frozenset({0})

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        inst = stock_instance(8, 0.0, mix64(21, seed))
        fast = no_interference_schedule(inst)
        oracle = brute_force_rate_max(inst)
        assert fast.sum_rate == pytest.approx(oracle.sum_rate, rel=1e-9)

    def test_tx_rate_ties_break_by_id(self):
        users = [unit_roundtrip_user(i, r=1.0 + i) for i in range(3)]
        inst = make_instance(users, degradation=0.0)
        fast = no_interference_schedule(inst)
        oracle = brute_force_rate_max(inst)
        assert fast.sum_rate == pytest.approx(oracle.sum_rate, rel=1e-9)

    def test_requires_zero_degradation(self):
        inst = make_instance([unit_roundtrip_user(0)], degradation=0.1)
        with pytest.raises(ValueError, match="degradation"):
            no_interference_schedule(inst)


class TestBenchmarks:
    def test_all_offloading_single_user_is_optimal(self):
        inst = stock_instance(1, 0.2, 3)
        assert benchmark_all_offloading(inst).sum_rate == pytest.approx(
            solve_rate_max(inst)[0].sum_rate, rel=1e-12
        )

    def test_all_offloading_below_optimal_on_homogeneous(self):
        inst = homogeneous_instance(12, 0.1, seed=2)
        assert benchmark_all_offloading(inst).sum_rate < solve_rate_max(inst)[0].sum_rate

    def test_all_offloading_optimal_when_no_interference_keeps_all(self):
        inst = stock_instance(6, 0.0, 8)
        thresh = no_interference_schedule(inst)
        if thresh.scheduled == frozenset(range(6)):
            assert benchmark_all_offloading(inst).sum_rate == pytest.approx(
                thresh.sum_rate, rel=1e-12
            )

    def test_greedy_single_user(self):
        inst = stock_instance(1, 0.1, 5)
        assert benchmark_greedy(inst).scheduled == frozenset({0})

    def test_greedy_matches_threshold_rule_at_zero_interference(self):
        for seed in range(8):
            inst = stock_instance(7, 0.0, mix64(31, seed))
            assert benchmark_greedy(inst).sum_rate == pytest.approx(
                no_interference_schedule(inst).sum_rate, rel=1e-12
            )

    def test_greedy_never_beats_optimal(self):
        for seed in range(10):
            inst = stock_instance(10, 0.1, mix64(41, seed))
            assert (
                benchmark_greedy(inst).sum_rate
                <= solve_rate_max(inst)[0].sum_rate * (1 + 1e-12)
            )

    def test_greedy_stops_at_first_violation(self):
        # fast pair plus one crawler whose tx rate sits below the pair's rate
        users = [
            unit_roundtrip_user(0, r=100.0),
            unit_roundtrip_user(1, r=100.0),
            make_user(2, a=50.0, b=50.0, gamma=1.0, r=100.0),
        ]
        inst = make_instance(users, deadline=1.0, degradation=0.0)
        schedule = benchmark_greedy(inst)
        assert schedule.scheduled == frozenset({0, 1})

    def test_lr_single_user(self):
        inst = stock_instance(1, 0.1, 6)
        assert benchmark_lr(inst).sum_rate == pytest.approx(
            solve_rate_max(inst)[0].sum_rate, rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_lr_tracks_exact_slave_when_relaxation_integral(self, seed):
        inst = stock_instance(8, 0.12, mix64(51, seed))
        assert benchmark_lr(inst).sum_rate == pytest.approx(
            solve_rate_max(inst)[0].sum_rate, rel=1e-9
        )

    def test_benchmarks_validate(self):
        inst = stock_instance(9, 0.15, 13)
        for bench in (benchmark_all_offloading, benchmark_greedy, benchmark_lr):
            assert validate_rate_schedule(inst, bench(inst)).ok


class TestGreedyEquivalence:
    @pytest.mark.parametrize("n_users", [5, 20, 100])
    def test_matches_reference_loop(self, n_users):
        stopped_early = 0
        for seed in range(70):
            rng = SplitMix64(mix64(n_users, seed))
            # VM speeds from slow to far above the radio, so that greedy
            # stops after one user, somewhere inside the order, or never
            spec = GenerationSpec(
                n_users=n_users,
                degradation=rng.uniform(0.0, 0.3),
                uplink_mbps=(5.0, 150.0),
                service_rate_bps=(1e6, 10.0 ** rng.uniform(7.0, 10.0)),
            )
            inst = generate_instance(spec, mix64(n_users + 2000, seed))
            fast, slow = benchmark_greedy(inst), reference_greedy(inst)
            assert fast.scheduled == slow.scheduled
            assert fast.sum_rate == slow.sum_rate
            assert fast.compute_time == slow.compute_time
            assert fast.offload_bits == slow.offload_bits
            stopped_early += 1 < len(fast.scheduled) < n_users
        assert stopped_early >= 25, f"only {stopped_early} of 70 stopped inside the order"


def greedy_equivalence_instance(n_users, seed):
    rng = SplitMix64(mix64(n_users, seed))
    # VM speeds from slow to far above the radio, so that greedy stops
    # after one user, somewhere inside the order, or never
    spec = GenerationSpec(
        n_users=n_users,
        degradation=rng.uniform(0.0, 0.3),
        uplink_mbps=(5.0, 150.0),
        service_rate_bps=(1e6, 10.0 ** rng.uniform(7.0, 10.0)),
    )
    return generate_instance(spec, mix64(n_users + 2000, seed))


def near_tie_instance(seed, shift):
    """Six fast users and a slow one with id 0, last in the greedy order.
    Its roundtrip time is solved so that the rate of all seven sits on its
    threshold, then moved by `shift` ulps, so the rate of the full set lands
    inside the rounding bound of the running sums."""
    rng = SplitMix64(mix64(5, seed))
    degradation = rng.uniform(0.0, 0.2)
    fast = [
        make_user(
            i, weight=rng.uniform(0.5, 2.0), a=rng.uniform(0.01, 0.03),
            b=rng.uniform(0.01, 0.02), gamma=rng.uniform(0.1, 1.0), r=rng.uniform(0.5, 3.0),
        )
        for i in range(1, 7)
    ]
    r = rng.uniform(0.5, 3.0)
    num = sum(u.weight * u.service_rate for u in fast)
    den = (1.0 + degradation) ** 6 + sum(u.roundtrip_time_per_bit * u.service_rate for u in fast)
    c = 1.0 + ratemod._COND_RTOL
    # (num + r) / (den + rt r) = c / rt, solved for rt at weight 1
    rt = c * den / (num - r * (c - 1.0))
    for _ in range(abs(shift)):
        rt = math.nextafter(rt, math.inf if shift > 0 else 0.0)
    slow = make_user(0, a=rt, b=1e-30, gamma=1e-30, r=r)
    return make_instance([slow] + fast, degradation=degradation)


def greedy_order_passes(instance):
    """Whether the full set passes the stop test when its sums run in
    greedy order, one term at a time."""
    order = sorted(instance.users, key=lambda u: (-u.weight / u.roundtrip_time_per_bit, u.id))
    num, den = 0.0, 0.0
    for u in order:
        num += u.weight * u.service_rate
        den += u.roundtrip_time_per_bit * u.service_rate
    rate = num / (ratemod.interference_penalty(instance.degradation, len(order)) + den)
    slowest = order[-1]
    return rate <= slowest.weight / slowest.roundtrip_time_per_bit * (1.0 + ratemod._COND_RTOL)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the id-ordered sums: each greedy fallback, and the final
    closed form, forms them once."""
    calls = []
    original = ratemod._fixed_set_sums

    def counting(degradation, terms, members):
        calls.append(len(members))
        return original(degradation, terms, members)

    monkeypatch.setattr(ratemod, "_fixed_set_sums", counting)
    return calls


class TestGreedyFallback:
    """The running-sum stop test and its id-ordered fallback."""

    def test_every_step_falling_back_matches_reference(self, monkeypatch, fallbacks):
        monkeypatch.setattr(ratemod, "_GREEDY_BOUND_PAD", math.inf)
        for n_users in (5, 20, 100):
            for seed in range(20):
                inst = greedy_equivalence_instance(n_users, seed)
                fallbacks.clear()
                fast = benchmark_greedy(inst)
                # one fallback per step taken, one for the failing step if
                # any, and one in the final closed form
                steps = len(fast.scheduled) + (len(fast.scheduled) < n_users)
                assert fallbacks == list(range(1, steps + 1)) + [len(fast.scheduled)]
                assert fast == reference_greedy(inst)

    def test_near_ties_fall_back(self, fallbacks):
        disagreements = 0
        for seed in range(20):
            for shift in range(-12, 13):
                inst = near_tie_instance(seed, shift)
                fallbacks.clear()
                fast = benchmark_greedy(inst)
                assert fallbacks[-2] == 7, "the full set was not decided by its id-ordered sums"
                slow = reference_greedy(inst)
                assert fast == slow
                disagreements += greedy_order_passes(inst) != (len(slow.scheduled) == 7)
        # running sums alone would have decided some of these wrongly
        assert disagreements > 0

    def test_scales_linearly_at_ten_thousand(self, monkeypatch):
        inst = generate_instance(GenerationSpec(n_users=10000, degradation=0.05), 19)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = benchmark_greedy(inst)
        assert validate_rate_schedule(inst, fast).ok
        monkeypatch.setattr(ratemod, "_GREEDY_BOUND_PAD", math.inf)
        assert benchmark_greedy(inst) == fast


def wide_txrate_instance(seed, n_users=8, degradation=0.1):
    """Transmission rates spread over two orders of magnitude, so scheduled
    sets that overshoot their slowest member's rate actually occur."""
    spec = GenerationSpec(
        n_users=n_users,
        degradation=degradation,
        uplink_mbps=(2.0, 300.0),
        downlink_mbps=(2.0, 300.0),
        service_rate_bps=(1e7, 1e8),
    )
    return generate_instance(spec, seed)


class TestRemovalImprovement:
    def test_dropping_the_bottleneck_strictly_helps(self):
        rng = SplitMix64(97)
        violations = 0
        trials = 0
        while violations < 60 and trials < 4000:
            trials += 1
            inst = wide_txrate_instance(int(rng.next_u64() % (1 << 48)))
            size = 2 + int(rng.uniform(0, inst.n_users - 1))
            members = sorted(
                set(int(rng.uniform(0, inst.n_users)) for _ in range(size))
            )
            if len(members) < 2:
                continue
            cs = conditional_solution(inst, members)
            if meets_necessary_condition(inst, cs):
                continue
            violations += 1
            slowest = min(
                members,
                key=lambda i: (
                    inst.users[i].weight / inst.users[i].roundtrip_time_per_bit,
                    i,
                ),
            )
            reduced = conditional_solution(inst, [i for i in members if i != slowest])
            assert reduced.sum_rate > cs.sum_rate
        assert violations == 60, f"only {violations} violating sets in {trials} trials"


def assert_same_schedule(fast, slow):
    assert fast.scheduled == slow.scheduled
    assert repr(fast.sum_rate) == repr(slow.sum_rate)
    assert repr(fast.compute_time) == repr(slow.compute_time)
    assert repr(fast.offload_bits) == repr(slow.offload_bits)


def member_masks(instances, seed):
    """A random nonempty set per instance, as one boolean row each."""
    rng = SplitMix64(seed)
    mask = np.array([[rng.next_u64() % 3 == 0 for _ in range(i.n_users)] for i in instances])
    mask[np.arange(len(instances)), [rng.next_u64() % i.n_users for i in instances]] = True
    return mask


@st.composite
def mixed_blocks(draw):
    """A block of stock instances of mixed user counts and degradations:
    d = 0, the stock grid's, and wide draws."""
    degradations = st.one_of(
        st.just(0.0), st.sampled_from([0.05, 0.1, 0.2, 0.3]), st.floats(0.0, 5.0)
    )
    return [
        stock_instance(draw(st.sampled_from([*range(1, 13), 100])), draw(degradations),
                       draw(st.integers(0, 2**64 - 1)))
        for _ in range(draw(st.integers(1, 6)))
    ]


class TestBlockForms:
    """The block forms of the closed form, both benchmarks and the exact
    solve's finish against the one-instance references in
    `rate_reference`, to the bit."""

    def check_block(self, instances, seed):
        for fast, instance in zip(benchmark_greedy_batch(instances), instances):
            assert_same_schedule(fast, rate_reference.benchmark_greedy(instance))
        for fast, instance in zip(benchmark_all_offloading_batch(instances), instances):
            assert_same_schedule(fast, rate_reference.benchmark_all_offloading(instance))
        for (fast, (summary,)), instance in zip(solve_rate_max_batch(instances), instances):
            assert_same_schedule(fast, rate_reference.conditional_solution(instance, summary.selected))
        for n_users in {i.n_users for i in instances}:
            block = [i for i in instances if i.n_users == n_users]
            mask = member_masks(block, mix64(seed, n_users))
            members = [np.flatnonzero(row).tolist() for row in mask]
            for fast, instance, ids in zip(ratemod._closed_forms(block, members), block, members):
                assert (meets_necessary_condition(instance, fast)
                        == rate_reference.necessary_condition(instance, ids))
                assert_same_schedule(fast, rate_reference.conditional_solution(instance, ids))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(instances=mixed_blocks(), seed=st.integers(0, 2**64 - 1))
    def test_mixed_blocks_match_the_references(self, instances, seed):
        self.check_block(instances, seed)

    def test_saturated_blocks_match_the_references(self):
        # (1 + d)**(K - 1) overflows for these d at K = 3000: the penalty
        # saturates inside the greedy order and for the all-offload set
        instances = [stock_instance(3000, d, mix64(223, k)) for k, d in enumerate((0.3, 1.0, 5.0))]
        self.check_block(instances, 227)
        assert all(s.sum_rate == 0.0 for s in benchmark_all_offloading_batch(instances))

    def test_stock_blocks_match_one_at_a_time(self):
        grid = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
        instances = [stock_instance(10, d, mix64(229, k)) for k, d in enumerate(grid * 3)]
        for batch, single in ((benchmark_greedy_batch, benchmark_greedy),
                              (benchmark_all_offloading_batch, benchmark_all_offloading)):
            assert [repr(s) for s in batch(instances)] == [repr(single(i)) for i in instances]

    def test_refusals(self):
        inst = stock_instance(4, 0.1, 1)
        for batch in (benchmark_greedy_batch, benchmark_all_offloading_batch, solve_rate_max_batch):
            assert batch([]) == []
            with pytest.raises(ValueError, match="no users"):
                batch([inst, make_instance([])])


class TestClosedFormMemo:
    """Inside a `shared_solutions` scope each distinct (instance, set) is
    formed once; outside one, nothing is kept."""

    def test_only_a_scope_keeps_forms(self, monkeypatch):
        formed = count_closed_forms(monkeypatch)
        instances = [stock_instance(6, 0.1, mix64(269, k)) for k in range(5)]
        alone = benchmark_all_offloading_batch(instances)
        expected = [repr(s) for s in alone]
        # outside a scope each call forms new schedules, equal to the bit
        outside = benchmark_all_offloading_batch(instances)
        assert len(formed) == 10
        assert all(a is not b for a, b in zip(outside, alone))
        assert [repr(s) for s in outside] == expected
        with shared_solutions():
            first = benchmark_all_offloading_batch(instances)
            again = benchmark_all_offloading_batch(instances + instances[:2])
        assert len(formed) == 15
        assert [repr(s) for s in again] == expected + expected[:2]
        # a repeat inside the scope is the same schedule, whose bits no
        # caller can change
        assert all(a is b for a, b in zip(first + first[:2], again))
        with pytest.raises(TypeError):
            first[0].offload_bits[0] = 0.0
        benchmark_all_offloading_batch(instances)
        assert len(formed) == 20

    def test_dropped_instances_never_take_another_instances_form(self):
        # every all-offload set of 6 users is (0, ..., 5); an instance made
        # and dropped inside the scope may not leave its id to the next one
        seeds = [mix64(271, k) for k in range(200)]
        expected = [repr(benchmark_all_offloading(stock_instance(6, 0.1, s))) for s in seeds]
        with shared_solutions():
            got = [repr(benchmark_all_offloading(stock_instance(6, 0.1, s))) for s in seeds]
        assert got == expected
