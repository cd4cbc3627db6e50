import itertools
import math
import warnings

import pytest

from mecoffload import (
    GenerationSpec,
    benchmark_all_offloading,
    benchmark_greedy,
    benchmark_lr,
    brute_force_rate_max,
    conditional_solution,
    dinkelbach_slave,
    generate_instance,
    homogeneous_m_star,
    homogeneous_txrate_schedule,
    no_interference_schedule,
    per_size_table,
    solve_rate_max,
    validate_rate_schedule,
)
from mecoffload.rng import SplitMix64, mix64
from support import (
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
        assert cs.rate == pytest.approx(0.5, abs=1e-12)
        assert cs.satisfies_necessary_condition

    def test_two_identical_users(self):
        users = [unit_roundtrip_user(0), unit_roundtrip_user(1)]
        inst = make_instance(users, deadline=1.0, degradation=0.1)
        cs = conditional_solution(inst, [0, 1])
        assert cs.compute_time == pytest.approx(1.1 / 3.1, rel=1e-12)
        assert cs.offload_bits[0] == pytest.approx((1.1 / 3.1) / 1.1, rel=1e-12)
        assert cs.rate == pytest.approx(2.0 / 3.1, rel=1e-12)
        assert cs.satisfies_necessary_condition  # 0.645 <= min tx rate 1.0

    def test_empty_subset_rejected(self):
        inst = make_instance([unit_roundtrip_user(0)])
        with pytest.raises(ValueError):
            conditional_solution(inst, [])

    def test_unknown_member_rejected(self):
        inst = make_instance([unit_roundtrip_user(0)])
        with pytest.raises(KeyError):
            conditional_solution(inst, [5])

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_tight_and_rate_forms_agree(self, seed):
        inst = stock_instance(8, 0.15, seed)
        cs = conditional_solution(inst, range(5))
        used = sum(
            cs.offload_bits[i] * inst.users[i].roundtrip_time_per_bit for i in range(5)
        )
        assert used + cs.compute_time == pytest.approx(inst.deadline, rel=1e-12)
        recomputed = sum(u.weight * cs.offload_bits[u.id] for u in inst.users) / inst.deadline
        assert cs.rate == pytest.approx(recomputed, rel=1e-12)


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
            conditional_solution(inst, s).rate for s in itertools.combinations(range(6), 3)
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
    return conditional_solution(instance, best_set).as_schedule()


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


def reference_greedy(instance):
    """The greedy benchmark as a plain loop: a full conditional solution for
    every candidate prefix."""
    order = sorted(instance.users, key=lambda u: (-u.weight / u.roundtrip_time_per_bit, u.id))
    taken, best = [], None
    for u in order:
        candidate = conditional_solution(instance, taken + [u.id])
        if not candidate.satisfies_necessary_condition:
            break
        taken.append(u.id)
        best = candidate
    return best.as_schedule()


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
            if cs.satisfies_necessary_condition:
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
            assert reduced.rate > cs.rate
        assert violations == 60, f"only {violations} violating sets in {trials} trials"
