import dataclasses
import functools
import math
import operator
from types import MappingProxyType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecoffload import (
    BudgetExceededError,
    EnergySchedule,
    OracleBudget,
    brute_force_energy,
    brute_force_energy_batch,
    brute_force_rate_max,
    brute_force_rate_max_batch,
    energy,
    feasibility_tmin,
    generate_instances,
    harness,
    lp,
    meets_necessary_condition,
    oracle,
    partition_users,
    rate,
    solve_energy_suboptimal,
    solve_rate_max,
    solve_subset_lp,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
    write_instance,
)
from mecoffload.harness import DEFAULT_GRIDS, cli_main
from mecoffload.model import sums_in_order
from mecoffload.rng import mix64
import rate_reference
from support import (
    count_builds,
    count_stacked,
    make_instance,
    homogeneous_instance,
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
            assert meets_necessary_condition(inst, schedule)


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
    return rate_reference.conditional_solution(instance, winner)


class TestRateOracleBatch:
    """The rate oracle of a block: each instance's answer, to the bit, and
    None beyond the budget."""

    def test_mixed_block_matches_the_reference(self):
        instances = [
            stock_instance(n_users, d, mix64(211, n_users, j))
            for j, d in enumerate(DEFAULT_GRIDS["rate-vs-d"])
            for n_users in (3, 13, 1, 12, 7)
        ]
        for instance, schedule in zip(instances, brute_force_rate_max_batch(instances)):
            if instance.n_users > 12:
                assert schedule is None
            else:
                assert repr(schedule) == repr(reference_brute_force_rate_max(instance))
        assert brute_force_rate_max_batch([]) == []

    def test_ties_take_the_smallest_subset_per_row(self):
        # identical users tie every set of the best size; the stock one
        # between them has no tie
        instances = [homogeneous_instance(6, 0.5, 1), stock_instance(6, 0.1, 2),
                     homogeneous_instance(6, 0.3, 3)]
        batch = brute_force_rate_max_batch(instances)
        for instance, schedule in zip(instances, batch):
            assert repr(schedule) == repr(reference_brute_force_rate_max(instance))
        size = len(batch[0].scheduled)
        assert 1 < size < 6 and batch[0].scheduled == frozenset(range(size))

    @pytest.mark.parametrize("name, value", [
        ("time_limit_s", math.nan), ("max_optional_energy", math.nan), ("max_users_rate", math.nan),
        ("max_users_rate", 2.5), ("max_optional_energy", 12.0), ("max_users_rate", True),
        ("max_optional_energy", False), ("time_limit_s", True),
    ])
    def test_budget_refuses_nan_bools_and_fractional_caps(self, name, value):
        # nan <= 0 is false, so a nan limit would turn its guard off
        with pytest.raises(ValueError, match="oracle budget"):
            OracleBudget(**{name: value})

    def test_budget(self):
        # integer caps of any integer type, and any positive time limit
        OracleBudget(max_users_rate=np.int64(3), max_optional_energy=0, time_limit_s=10)
        OracleBudget(time_limit_s=math.inf)
        for limits in ({"max_users_rate": 0}, {"max_optional_energy": -1}, {"time_limit_s": 0.0}):
            with pytest.raises(ValueError, match="must be positive"):
                OracleBudget(**limits)
        inst = stock_instance(5, 0.1, 4)
        budget = OracleBudget(max_users_rate=4)
        assert brute_force_rate_max_batch([inst], budget) == [None]
        with pytest.raises(BudgetExceededError):
            brute_force_rate_max(inst, budget)
        with pytest.raises(ValueError, match="no users"):
            brute_force_rate_max_batch([inst, make_instance([])])

    def test_penalty_table_matches_the_solver(self):
        table = oracle._size_penalties(0.1, 10)
        bits = fresh_bits(10)
        # the rate solver's Python-float penalty of each subset's size
        expected = [rate._penalties(0.1, 10)[int(size) - 1] for size in bits[1:].sum(axis=1)]
        assert table.tolist() == expected

    @pytest.mark.parametrize("degradation", [1e30, 1e300])
    def test_overflowed_penalties_match_the_solver_without_a_warning(self, degradation):
        # (1 + d)**(|S| - 1) overflows for every set of 12 users at d = 1e30
        # and of 3 or more at d = 1e300
        for seed in range(5):
            inst = stock_instance(12, degradation, mix64(233, seed))
            schedule = brute_force_rate_max(inst)
            assert schedule.scheduled == solve_rate_max(inst)[0].scheduled
            assert validate_rate_schedule(inst, schedule).ok


def stock_grid_blocks(seed, realizations=100, experiments=("rate-vs-K", "rate-vs-d")):
    """The instances of every grid point of two stock sweeps (the rate
    ones, unless others are named), one block per point, drawn as
    `harness.run_sweep` draws them."""
    blocks = []
    for experiment in experiments:
        spec = harness.SweepSpec(experiment=experiment, realizations=realizations,
                                 base_seed=seed).normalized()
        for gi, value in enumerate(spec.grid):
            generation = harness._generation_spec(spec, value)
            blocks.append(generate_instances(
                generation, [mix64(seed, gi, ri) for ri in range(realizations)]))
    return blocks


class TestSubsetSumRecurrence:
    """The oracle sums every subset by one addition from the subset less its
    top member, in chunks of `oracle._CHUNK_ENTRIES` // 2^K instances.  Its
    schedules must be the gemv enumeration's (`reference_brute_force_rate_max`)
    to the bit, ties and saturated penalties included."""

    def assert_reference(self, instances, budget=OracleBudget()):
        with np.errstate(over="ignore"):  # the reference's penalties may overflow
            expected = [repr(reference_brute_force_rate_max(i)) for i in instances]
        schedules = brute_force_rate_max_batch(instances, budget)
        assert [repr(s) for s in schedules] == expected
        return schedules

    @pytest.mark.parametrize("seed", [7, 20240])
    def test_every_stock_grid_point(self, seed):
        blocks = stock_grid_blocks(seed)
        assert len(blocks) == 16 and {len(b) for b in blocks} == {100}
        for block in blocks:
            self.assert_reference(block)

    @pytest.mark.parametrize("n_users", [13, 14])
    def test_raised_budget_in_several_chunks(self, n_users):
        rows = oracle._CHUNK_ENTRIES >> n_users
        instances = [stock_instance(n_users, d, mix64(241, n_users, k))
                     for k, d in enumerate((0.0, 0.1, 0.3) * rows)]  # chunks of mixed d
        assert len(instances) > 2 * rows
        self.assert_reference(instances, OracleBudget(max_users_rate=n_users))

    @pytest.mark.parametrize("budget", [0, math.inf])
    def test_chunks_keep_their_size_whatever_the_lp_stack_budget(self, budget, monkeypatch):
        # the (2^K, rows) sums hold at most 2^16 doubles, or one instance
        # where 2^K alone is more, and do not follow `lp.STACK_ENTRIES`
        subset_sums = oracle._subset_sums
        instances = [stock_instance(n_users, 0.1, mix64(243, n_users, k))
                     for n_users in (4, 12, 17) for k in range(40)]

        def chunks():
            shapes = []

            def recording(terms):
                if not (terms == 1.0).all():  # not a size-penalty table's column of ones
                    shapes.append((1 << len(terms), terms.shape[1]))
                return subset_sums(terms)

            monkeypatch.setattr(oracle, "_subset_sums", recording)
            brute_force_rate_max_batch(instances, OracleBudget(max_users_rate=17))
            # each chunk sums w*r, then (a + b*g)*r
            assert shapes[::2] == shapes[1::2]
            return shapes[::2]

        stock = chunks()
        monkeypatch.setattr(lp, "STACK_ENTRIES", budget)
        assert chunks() == stock
        assert oracle._CHUNK_ENTRIES == 1 << 16
        assert stock == [(16, 40), (4096, 16), (4096, 16), (4096, 8), *[(1 << 17, 1)] * 40]

    @pytest.mark.parametrize("n_users", [2, 5, 9, 12])
    def test_identical_users_tie_in_a_mixed_chunk(self, n_users):
        instances = [homogeneous_instance(n_users, d, k) if k % 3 else
                     stock_instance(n_users, d, mix64(251, k))
                     for k, d in enumerate((0.05, 0.1, 0.3, 0.5, 1.0, 2.0) * 3)]
        schedules = self.assert_reference(instances)
        # identical users tie every set of the best size below K
        assert any(len(s.scheduled) < n_users for s in schedules[1::3])

    @pytest.mark.parametrize("degradation", [1e30, 1e300])
    def test_saturated_penalties(self, degradation):
        for n_users in (1, 2, 3, 8, 12):
            self.assert_reference([stock_instance(n_users, degradation, mix64(257, n_users, k))
                                   for k in range(10)])

    def test_subset_sums_add_in_ascending_id_from_zero(self):
        terms = np.random.default_rng(263).uniform(-1.0, 1.0, (6, 3)) * 10.0 ** np.arange(6)[:, None]
        terms[2, 1] = -0.0
        sums = oracle._subset_sums(terms)
        bits = fresh_bits(6)
        for mask, row in enumerate(sums.tolist()):
            for column, total in enumerate(row):
                members = terms[bits[mask] != 0.0, column].tolist()
                assert repr(total) == repr(functools.reduce(operator.add, members, 0.0))


def fresh_bits(n):
    masks = np.arange(1 << n, dtype=np.int64)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


class TestSubsetTables:
    """The rate oracle's winners and their bits must be what the per-call
    enumeration gives, and the energy oracle's kept subsets what a fresh
    subset matrix of bounds keeps."""

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

    def test_raised_budget_builds_per_call_and_keeps_nothing(self):
        inst = stock_instance(13, 0.1, 4)
        schedule = brute_force_rate_max(inst, OracleBudget(max_users_rate=13))
        assert repr(schedule) == repr(reference_brute_force_rate_max(inst))

    def test_energy_bounds_match_a_fresh_subset_matrix(self, monkeypatch):
        # With no margin, a ceiling at each subset's fresh bound must keep
        # exactly the other subsets whose fresh bound is not above it: the
        # walk's bounds are the matrix rows' sums, to the bit.
        monkeypatch.setattr(oracle, "_prune_margin", lambda scale, n_optional: 0.0)
        cases, fulls, expected = [], [], []
        for inst in oracle_mix():
            part = partition_users(inst)
            optional = sorted(part.free_saving)
            # each row summed left to right from 0.0, as the objective is
            fresh = [functools.reduce(operator.add, row, 0.0)
                     for row in (table_loads(inst, part, optional) * inst.delta_per_bit).tolist()]
            for ceiling in fresh:
                cases.append((inst, part, optional))
                fulls.append(SimpleNamespace(objective=ceiling))
                expected.append([mask for mask, bound in enumerate(fresh[:-1])
                                 if not bound > ceiling])
        kept = oracle._kept_masks(cases, fulls)
        assert kept == expected
        # some ceilings keep subsets, and some skip some
        assert len(cases) > 100 and any(kept)
        assert any(len(masks) < (1 << len(optional)) - 1
                   for masks, (_, _, optional) in zip(kept, cases))


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
        objective = functools.reduce(
            operator.add, (delta[uid] * b for uid, b in sorted(full.items())), 0.0
        )
        if best is not None:
            tol = 1e-12 * (1.0 + abs(best[0]))
            if not (objective < best[0] - tol or (objective <= best[0] + tol and s1 < best[1])):
                continue
        best = (objective, s1, full, te)
    if best is None:
        return EnergySchedule(frozenset(), MappingProxyType({u.id: 0.0 for u in instance.users}),
                              0.0, math.nan, math.nan, "infeasible",
                              feasibility_tmin(instance))
    objective, s1, full, te = best
    return EnergySchedule(partition.forced | frozenset(s1), MappingProxyType(full), te, objective,
                          objective + instance.local_energy, "lp-path")


def oracle_mix():
    """Stock instances with up to 5 optional users, from infeasible to
    slack deadlines."""
    return [
        stock_instance(8, 0.25, mix64(161, seed), deadline=(0.3, 0.45, 0.6, 0.9)[seed % 4])
        for seed in range(40)
    ]


def mixed_user_counts():
    """`oracle_mix` with a K = 4 and a K = 12 draw after every fourth of its
    K = 8 draws, so that one batch holds three user counts."""
    draws = []
    for k, instance in enumerate(oracle_mix()):
        draws.append(instance)
        if k % 4 == 3:
            draws += [stock_instance(4, 0.25, mix64(163, 4, k), deadline=(0.9, 1.2)[k // 4 % 2]),
                      stock_instance(12, 0.25, mix64(163, 12, k),
                                     deadline=(0.45, 0.6, 0.9)[k // 4 % 3])]
    return draws


def table_loads(instance, partition, optional):
    """The full-offload loads of every subset mask over `optional`, as the
    (2^n, K) subset table: `energy._commitment`'s loads with the mask's
    members at their whole task."""
    base, _ = energy._commitment(instance, partition, ())
    ids = np.asarray(optional, dtype=np.intp)
    chosen = fresh_bits(ids.size)
    bits = np.repeat(base[None, :], len(chosen), axis=0)
    bits[:, ids] = np.where(chosen != 0.0, instance.task_bits[ids], 0.0)
    return bits


def table_bounds(instance, partition, optional):
    """The full-offload bound of every subset mask over `optional`, each
    row of `table_loads` summed by `sums_in_order`, and the bound scale
    sum_k |delta_k| L_k."""
    delta = instance.delta_per_bit
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound prunes nothing
        scale = sums_in_order(np.abs(delta * instance.task_bits))
        bounds = sums_in_order(table_loads(instance, partition, optional) * delta)
    return bounds.tolist(), scale.item()


def kept_masks_against_the_table(blocks, monkeypatch):
    """Run the energy oracle on each block with `_kept_masks` checked
    against the masks that the whole subset table's bounds keep.  Returns
    the oracle's schedules of each block, the instances it pruned, those
    that the walk took past level 1 (where the full set less some member
    is kept), the bounds that overflowed and the pruned instances whose
    level-1 bounds lie on both sides of the ceiling."""
    kept_masks = oracle._kept_masks
    seen = SimpleNamespace(schedules=[], pruned=[], walked=[], overflowed=[], mixed=[])

    def table_masks(cases, fulls):
        masks = []
        for (instance, partition, optional), full in zip(cases, fulls):
            kept = range((1 << len(optional)) - 1)
            if full is not None and optional:
                bounds, scale = table_bounds(instance, partition, optional)
                ceiling = full.objective + oracle._prune_margin(scale, len(optional))
                kept = [mask for mask in kept if not bounds[mask] > ceiling]
                seen.pruned.append(instance)
                seen.overflowed += [bound for bound in bounds if not math.isfinite(bound)]
                everyone = (1 << len(optional)) - 1
                above = {bounds[everyone ^ (1 << j)] > ceiling for j in range(len(optional))}
                if False in above:
                    seen.walked.append(instance)
                if len(above) == 2:
                    seen.mixed.append(instance)
            masks.append(list(kept))
        return masks

    def checking(cases, fulls):
        kept = kept_masks(cases, fulls)
        assert kept == table_masks(cases, fulls)
        return kept

    monkeypatch.setattr(oracle, "_kept_masks", checking)
    seen.schedules = [brute_force_energy_batch(block) for block in blocks]
    return seen


class TestEnergyOracleBatch:
    def test_batch_matches_the_scalar_subset_loop(self, monkeypatch):
        # K = 4 and 12 draws among the K = 8 ones, in one batch
        instances = mixed_user_counts()
        seen = kept_masks_against_the_table([instances], monkeypatch)
        [batch] = seen.schedules
        assert repr(batch) == repr([reference_brute_force_energy(i) for i in instances])
        assert repr(batch) == repr([brute_force_energy(i) for i in instances])
        assert {s.status for s in batch} == {"lp-path", "infeasible"}
        assert max(len(partition_users(i).free_saving) for i in instances) >= 3
        assert {i.n_users for i in seen.pruned} == {4, 8, 12}

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
            stacks.append([p.size for p in problems])
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


def tmin_draws():
    """Stock draws at T = 1e-9 s for K in {1, 5, 12}, d in {0, 0.1, 0.3} and
    seeds 0-9, with their t_min."""
    draws = []
    for n_users in (1, 5, 12):
        for degradation in (0.0, 0.1, 0.3):
            for seed in range(10):
                instance = stock_instance(n_users, degradation, seed, deadline=1e-9)
                draws.append((instance, feasibility_tmin(instance)))
    return draws


class TestOneFeasibilityRule:
    """The oracle refuses a deadline exactly where the heuristic's gap test
    does, and builds no LP for it: just below t_min the subset LPs still
    admit a schedule to the simplex's tolerance."""

    @pytest.mark.parametrize("below", [True, False], ids=["below-t_min", "at-t_min"])
    def test_the_oracle_and_the_heuristic_agree_at_t_min(self, below, monkeypatch):
        builds = count_builds(monkeypatch)
        draws = tmin_draws()
        assert len(draws) == 90
        for base, t_min in draws:
            assert t_min > 0.0
            instance = with_deadline(base, math.nextafter(t_min, 0.0) if below else t_min)
            schedule = solve_energy_suboptimal(instance)
            built = builds.problems
            reference = brute_force_energy(instance)
            if below:
                assert energy.feasibility_gap(instance, instance.deadline) > 0.0
                assert schedule.status == reference.status == "infeasible"
                assert schedule.t_min == reference.t_min == t_min
                assert builds.problems == built  # no LP
            else:
                assert schedule.status != "infeasible" and reference.status != "infeasible"
                assert validate_energy_schedule(instance, reference).ok
                assert reference.total_energy <= schedule.total_energy * (1.0 + 1e-9)

    def test_the_lone_subset_lp_refuses_below_t_min(self, monkeypatch):
        builds = count_builds(monkeypatch)
        admitted = 0  # the draws whose LP alone admits the deadline below t_min
        for base, t_min in tmin_draws():
            for t in (math.nextafter(t_min, 0.0), t_min):
                instance = with_deadline(base, t)
                part = instance.partition
                for s1 in ((), part.free_saving):
                    built = builds.problems
                    schedule = solve_subset_lp(instance, part, s1)
                    direct = energy._subset_schedules([(instance, part, s1)])[0]
                    if t < t_min:
                        assert schedule is None and builds.problems == built + 1  # direct's LP
                        admitted += direct is not None
                    else:
                        assert repr(schedule) == repr(direct)
        assert admitted > 90

    def test_certify_agrees_below_t_min(self, tmp_path, capsys):
        base, t_min = tmin_draws()[0]  # K = 1, d = 0, seed 0
        path = tmp_path / "below.json"
        write_instance(with_deadline(base, math.nextafter(t_min, 0.0)), path)
        assert cli_main(["certify", str(path)]) == 0
        assert f"energy: both infeasible (t_min = {t_min!r} s)" in capsys.readouterr().out


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
        inst = with_deadline(inst, feasibility_tmin(inst) * slack + extra)
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

    @pytest.mark.parametrize("variant", ["stock", "costly", "overflow"])
    @pytest.mark.parametrize("seed", [7, 20240])
    def test_single_removal_bounds_keep_the_tables_masks(self, seed, variant, monkeypatch):
        # `_kept_masks` decides most instances from the bounds of the full
        # set less one member (level 1 of its walk), and must keep the masks
        # that the whole 2^n bound table keeps.  The costly variant gives every third user 100
        # times the transmit power; the overflow variant weights of 1e300
        # and 3e11 times that power, so that the forced costly users' terms
        # overflow the bounds.
        power, weight = {"stock": (1.0, 1.0), "costly": (100.0, 1.0),
                         "overflow": (3e11, 1e300)}[variant]
        seen = kept_masks_against_the_table(
            [[scaled(i, power, weight) for i in block]
             for block in stock_grid_blocks(seed, experiments=("energy-vs-T", "energy-vs-d"))],
            monkeypatch)
        assert len(seen.pruned) > 400
        if variant == "overflow":
            assert seen.overflowed and len(seen.walked) == len(seen.pruned)
        else:
            assert not seen.overflowed and len(seen.walked) < len(seen.pruned) / 10

    def test_single_removal_bounds_on_both_sides_of_the_ceiling(self, monkeypatch):
        # at d = 0.6 and 1.0 smaller subsets often beat the full one, and
        # some instances keep a few single-removal sets but not all
        blocks = []
        for d in (0.6, 1.0):
            draws = [stock_instance(8, d, mix64(171, seed), deadline=0.45) for seed in range(40)]
            blocks.append([with_deadline(i, feasibility_deadline(i, (1.2, 1.4, 1.6, 2.0)[k % 4]))
                           for k, i in enumerate(draws)])
        seen = kept_masks_against_the_table(blocks, monkeypatch)
        assert len(seen.mixed) > 10 and len(seen.walked) < len(seen.pruned)


def scaled(instance, power, weight):
    """The instance with `power` times the transmit power of users 1, 4, 7,
    ... and `weight` times every weight."""
    if power == weight == 1.0:
        return instance
    tx_power = instance.tx_power.copy()
    tx_power[1::3] *= power
    return dataclasses.replace(instance, tx_power=tx_power, weight=instance.weight * weight)


def feasibility_deadline(instance, factor):
    from mecoffload import feasibility_tmin

    return feasibility_tmin(instance) * factor
