import ast
import dataclasses
import functools
import hashlib
import json
import math
import operator
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mecoffload import (
    ConfigurationError,
    GenerationSpec,
    ParseError,
    RateSchedule,
    benchmark_all_offloading,
    benchmark_energy_all_offloading,
    benchmark_greedy,
    brute_force_energy,
    brute_force_rate_max,
    derive_user,
    feasibility_tmin,
    generate_instance,
    generate_instances,
    model,
    read_instance,
    solve_energy_suboptimal,
    solve_rate_max,
    validate_energy_schedule,
    validate_rate_schedule,
    with_deadline,
    write_instance,
)
from mecoffload.harness import SweepSpec, run_sweep
from mecoffload.model import Instance, UserProfile
from mecoffload.rng import mix64, uniform_rows
from support import SplitMix64, make_instance, make_user, unit_roundtrip_user

# An instance's per-user columns: one per UserProfile field but the id, and
# the roundtrip time formed from them.
COLUMNS = tuple(f.name for f in dataclasses.fields(UserProfile))[1:] + ("roundtrip_time_per_bit",)


def scalar_generate_instance(spec, seed):
    """The per-user loop `generate_instance` replaced: the spec's deadline
    and degradation checked first, as `Instance` checks them, and its
    constants, which must be finite and positive; then seven scalar draws
    per user, in field order, each field converted one float at a time, and
    an output ratio whose power overflows taken as inf."""
    Instance(deadline=spec.deadline_s, degradation=spec.degradation, users=())
    for name in ("energy_coeff", "tx_power_w", "weight"):
        value = getattr(spec, name)
        if not (value > 0.0 and math.isfinite(value)):
            raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    rng = SplitMix64(seed)
    users = []
    for i in range(spec.n_users):
        uplink = rng.uniform(*spec.uplink_mbps)
        downlink = rng.uniform(*spec.downlink_mbps)
        service = rng.uniform(*spec.service_rate_bps)
        exponent = rng.uniform(*spec.output_ratio_exponent)
        task_kb = rng.uniform(*spec.task_kb)
        cycles = rng.uniform(*spec.cycles_per_bit)
        freq = rng.uniform(*spec.cpu_freq_hz)
        try:
            ratio = 10.0 ** (-exponent)
        except OverflowError:
            ratio = math.inf
        users.append(
            UserProfile(
                id=i,
                weight=spec.weight,
                uplink_time_per_bit=1.0 / (uplink * 1e6),
                downlink_time_per_bit=1.0 / (downlink * 1e6),
                output_ratio=ratio,
                service_rate=service,
                task_bits=task_kb * 8000.0,
                cycles_per_bit=cycles,
                cpu_freq=freq,
                energy_coeff=spec.energy_coeff,
                tx_power=spec.tx_power_w,
            )
        )
    return Instance(deadline=spec.deadline_s, degradation=spec.degradation, users=tuple(users))


def test_sum_in_order_adds_floats_left_to_right():
    # Python 3.12 made the builtin sum of floats compensated (Neumaier);
    # the solvers' sums must add in plain order on every version
    add = model.sum_in_order
    assert add([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert repr(add([-0.0])) == repr(add([])) == "0.0"
    assert add([1.0, 2.0], 0.5) == 3.5
    assert repr(add([-0.0], -0.0)) == "-0.0"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(-1e300, 1e300)), start=st.floats(-1e300, 1e300))
def test_sum_in_order_is_the_sequential_reduce(values, start):
    expected = functools.reduce(operator.add, values, start)
    assert repr(model.sum_in_order(values, start)) == repr(expected)


_ROW_FLOATS = st.floats() | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(_ROW_FLOATS, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_sums_in_order_is_sum_in_order_of_each_row(rows):
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and 1e308 + 1e308
        sums = model.sums_in_order(np.array(rows, dtype=float)).tolist()
    assert [repr(s) for s in sums] == [repr(model.sum_in_order(row)) for row in rows]


@pytest.mark.parametrize("row", [
    [], [-0.0], [0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [1.0, -1.0], [-1.0, 1.0, -0.0],
    [1.0, 1e100, 1.0, -1e100], [math.inf, -math.inf], [math.nan, 1.0], [-math.inf, -0.0],
])
def test_sums_in_order_of_signed_zeros_and_specials(row):
    # a lone row, a block of it and a (2, 1, K) stack of it sum alike
    expected = repr(model.sum_in_order(row))
    with np.errstate(invalid="ignore"):  # inf - inf
        assert repr(model.sums_in_order(np.array(row, dtype=float)).item()) == expected
        sums = model.sums_in_order(np.array([row, row])).tolist()
        assert [repr(s) for s in sums] == [expected] * 2
        assert model.sums_in_order(np.array([[row]] * 2)).shape == (2, 1)


def test_only_model_calls_np_add_accumulate():
    # the left-to-right array sum has one home, `model.sums_in_order`
    calls = {
        path.name
        for path in sorted(Path(model.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "accumulate"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "add"
    }
    assert calls == {"model.py"}


def test_no_module_calls_builtin_sum():
    # the builtin sum's bits depend on the Python version, and validators
    # print their residuals with repr: every sum goes through `sum_in_order`
    # or `sums_in_order`
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(model.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []


class TestDerivedUser:
    def test_energy_delta_cancels_symmetrically(self):
        u = make_user(0, weight=1.0, a=1.0, power=1.0, kappa=1.0, cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=4.0)
        assert derive_user(inst, 0).energy_delta_per_bit == 0.0

    def test_min_offload_bits_direct(self):
        # 10-bit task, 4 s deadline, 1 bit/s local speed: 6 bits must go out
        u = make_user(0, task=10.0, cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=4.0)
        assert derive_user(inst, 0).min_offload_bits == pytest.approx(6.0, abs=1e-12)

    def test_min_offload_bits_clamps_at_zero(self):
        u = make_user(0, task=10.0, cycles=1.0, freq=1.0)
        inst = make_instance([u], deadline=20.0)
        assert derive_user(inst, 0).min_offload_bits == 0.0

    def test_unknown_id_raises(self):
        inst = make_instance([make_user(0)])
        with pytest.raises(KeyError):
            derive_user(inst, 3)

    def test_tx_rates(self):
        u = make_user(0, weight=2.0, a=0.25, b=0.25, gamma=1.0)
        inst = make_instance([u])
        d = derive_user(inst, 0)
        assert d.tx_rate == pytest.approx(2.0)
        assert d.weighted_tx_rate == pytest.approx(4.0)

    @given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=0.01, max_value=50.0))
    def test_min_offload_nonincreasing_in_deadline(self, t1, t2):
        lo, hi = sorted((t1, t2))
        u = make_user(0, task=10.0, cycles=2.0, freq=1.0)
        a = derive_user(make_instance([u], deadline=lo), 0).min_offload_bits
        b = derive_user(make_instance([u], deadline=hi), 0).min_offload_bits
        assert b <= a + 1e-12
        if hi >= u.cycles_per_bit * u.task_bits / u.cpu_freq:
            assert b == 0.0


# the instance's columns that the energy side reads
ENERGY_COLUMNS = ("delta_per_bit", "min_offload_bits", "task_bits", "roundtrip_time_per_bit",
                  "service_rate", "cpu_freq", "cycles_per_bit")


def assert_columns_match_derive_user(instance):
    """Every column entry is the scalar reference's double for that user."""
    derived = [derive_user(instance, u.id) for u in instance.users]
    expected = {
        "delta_per_bit": [d.energy_delta_per_bit for d in derived],
        "min_offload_bits": [d.min_offload_bits for d in derived],
        "task_bits": [u.task_bits for u in instance.users],
        "roundtrip_time_per_bit": [d.roundtrip_time_per_bit for d in derived],
        "service_rate": [u.service_rate for u in instance.users],
        "cpu_freq": [u.cpu_freq for u in instance.users],
        "cycles_per_bit": [u.cycles_per_bit for u in instance.users],
    }
    assert tuple(expected) == ENERGY_COLUMNS
    for name, values in expected.items():
        assert getattr(instance, name).tolist() == values, name


class TestMemoisedConstants:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts the instances whose energy memos a block fill derives
        (`model._derive_energy_block`), and `derive_user` calls."""
        calls = {"energy_memos": 0, "derive_user": 0}
        fill = model._derive_energy_block

        def counting_fill(instances):
            calls["energy_memos"] += len(instances)
            return fill(instances)

        def counting_derive(instance, user_id):
            calls["derive_user"] += 1
            return derive_user(instance, user_id)

        monkeypatch.setattr(model, "_derive_energy_block", counting_fill)
        monkeypatch.setattr(model, "derive_user", counting_derive)
        return calls

    def test_solves_derive_each_user_once(self, counted):
        # one block fill derives every user, and nothing derives again
        spec = GenerationSpec(n_users=100, degradation=0.05, deadline_s=1.5)
        inst = generate_instance(spec, 20240)
        energy = solve_energy_suboptimal(inst)
        solve_rate_max(inst)
        assert energy.status == "greedy-path"
        assert counted == {"energy_memos": 1, "derive_user": 0}
        energy = solve_energy_suboptimal(inst)
        solve_rate_max(inst)
        benchmark_greedy(inst)
        assert validate_energy_schedule(inst, energy).ok
        assert counted == {"energy_memos": 1, "derive_user": 0}

    def test_rate_terms_built_once_per_instance(self, monkeypatch):
        # a certified rate sweep reads them in the optimal, greedy,
        # all-offload and oracle schedules' conditional solutions, and in
        # the greedy benchmark's own steps
        built = []
        terms = model.Instance.rate_terms.func

        def counting(instance):
            built.append(instance)
            return terms(instance)

        memo = functools.cached_property(counting)
        memo.__set_name__(model.Instance, "rate_terms")
        monkeypatch.setattr(model.Instance, "rate_terms", memo)
        run_sweep(SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=20, certify=True))
        assert len(built) == len(set(map(id, built))) == 20
        inst = built[0]
        assert inst.rate_terms == (
            tuple((inst.weight * inst.service_rate).tolist()),
            tuple((inst.roundtrip_time_per_bit * inst.service_rate).tolist()),
            tuple((inst.weight / inst.roundtrip_time_per_bit).tolist()),
        )

    @pytest.fixture
    def profiles_built(self, monkeypatch):
        """The ids of the `UserProfile`s constructed, wherever that happens."""
        built = []
        check = UserProfile.__post_init__

        def counting_check(profile):
            built.append(profile.id)
            check(profile)

        monkeypatch.setattr(UserProfile, "__post_init__", counting_check)
        return built

    def test_frame_builds_no_profiles(self, profiles_built):
        spec = GenerationSpec(n_users=100, degradation=0.05, deadline_s=1.5)
        inst = generate_instance(spec, 20240)
        rate = solve_rate_max(inst)[0]
        greedy = benchmark_greedy(inst)
        energy = solve_energy_suboptimal(inst)
        assert validate_rate_schedule(inst, rate).ok
        assert validate_rate_schedule(inst, greedy).ok
        assert validate_energy_schedule(inst, energy).ok
        assert energy.status == "greedy-path"
        later = dataclasses.replace(inst, deadline=0.5)
        assert later.min_offload_bits is not inst.min_offload_bits
        assert later.min_offload_bits.tolist() != inst.min_offload_bits.tolist()
        assert profiles_built == []
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(inst, name)[0] = 0.0
        assert_columns_match_derive_user(later)  # derive_user reads the profiles
        assert len(profiles_built) == 100
        assert inst.users == scalar_generate_instance(spec, 20240).users

    @pytest.mark.parametrize("experiment, value", [("energy-vs-T", 0.45), ("rate-vs-K", 10.0)])
    def test_certified_grid_point_builds_no_profiles(self, profiles_built, experiment, value):
        run_sweep(SweepSpec(experiment=experiment, grid=(value,), realizations=20, certify=True))
        assert profiles_built == []

    def test_memoised_per_instance(self):
        inst = make_instance([make_user(0, task=10.0), make_user(1, task=3.0)])
        assert inst.delta_per_bit is inst.delta_per_bit
        assert inst.min_offload_bits is inst.min_offload_bits
        assert inst.roundtrip_time_per_bit is inst.roundtrip_time_per_bit
        assert inst.users is inst.users
        assert_columns_match_derive_user(inst)

    @pytest.mark.parametrize("n_users", [0, 1, 10, 100])
    def test_local_energy_computed_once(self, n_users, monkeypatch):
        squares = model._squares
        calls = []

        def counting(values):
            calls.append(len(values))
            return squares(values)

        spec = GenerationSpec(n_users=n_users, degradation=0.2, deadline_s=0.45)
        for seed in range(5):
            inst = generate_instance(spec, seed)
            # the expression it memoises, with its left-to-right sum
            energy = (inst.weight * inst.energy_coeff * inst.cycles_per_bit * inst.task_bits
                      * squares(inst.cpu_freq))
            expected = repr(functools.reduce(operator.add, energy.tolist(), 0.0))
            monkeypatch.setattr(model, "_squares", counting)
            inst.delta_per_bit  # squares the CPU speeds, once for both
            assert repr(inst.local_energy) == expected
            solve_energy_suboptimal(inst)
            if n_users <= 10:
                brute_force_energy(inst)
            assert repr(inst.local_energy) == expected
            assert calls == [n_users]
            monkeypatch.setattr(model, "_squares", squares)
            calls.clear()

    @pytest.mark.parametrize("deadline", [0.035, 0.5, 1.5])
    def test_columns_match_derive_user(self, deadline):
        # 20,000 stock users: numpy's square of the CPU speed differs from
        # Python's ** on about 1 in 1,300 of them
        spec = GenerationSpec(n_users=20000, degradation=0.1, deadline_s=deadline)
        assert_columns_match_derive_user(generate_instance(spec, 11))

    def test_rate_solve_derives_nothing(self, counted):
        inst = generate_instance(GenerationSpec(n_users=10), 7)
        solve_rate_max(inst)
        benchmark_greedy(inst)
        assert counted == {"energy_memos": 0, "derive_user": 0}
        run_sweep(SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=20, certify=True))
        assert counted == {"energy_memos": 0, "derive_user": 0}

    def test_replace_builds_fresh_constants(self):
        # 10-bit task at 1 bit/s locally: 6 bits forced out at 4 s, 1 at 9 s
        inst = make_instance([make_user(0, task=10.0, cycles=1.0, freq=1.0)], deadline=4.0)
        assert inst.min_offload_bits.tolist() == [6.0]
        later = dataclasses.replace(inst, deadline=9.0)
        assert later.min_offload_bits is not inst.min_offload_bits
        assert later.delta_per_bit is not inst.delta_per_bit
        assert later.roundtrip_time_per_bit is not inst.roundtrip_time_per_bit
        assert_columns_match_derive_user(later)
        assert later.min_offload_bits.tolist() == [1.0]
        assert inst.min_offload_bits.tolist() == [6.0]

    def test_energy_columns_are_read_only(self):
        inst = generate_instance(GenerationSpec(n_users=5), 3)
        for name in ENERGY_COLUMNS:
            with pytest.raises(ValueError):
                getattr(inst, name)[0] = 0.0

    def test_arrays_are_read_only(self):
        users = [make_user(i, weight=1.0 + i, a=0.25, b=0.5, gamma=0.5, r=3.0 + i) for i in range(3)]
        inst = make_instance(users)
        assert inst.weight.tolist() == [1.0, 2.0, 3.0]
        assert inst.roundtrip_time_per_bit.tolist() == [0.5, 0.5, 0.5]
        assert inst.service_rate.tolist() == [3.0, 4.0, 5.0]
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(inst, name)[0] = 0.0


def per_instance_memos(instance):
    """The energy memos as the per-instance expressions form them: the
    arrays as bytes (so that zero signs count), the local energy as its
    repr, and the partition's sets, each filled in ascending id."""
    squares = np.array([x**2 for x in instance.cpu_freq.tolist()])
    delta = instance.weight * (
        instance.uplink_time_per_bit * instance.tx_power
        - instance.energy_coeff * instance.cycles_per_bit * squares
    )
    with np.errstate(over="ignore"):
        excess = instance.task_bits - instance.deadline * instance.cpu_freq / instance.cycles_per_bit
    min_bits = np.where(0.0 > excess, 0.0, excess)
    energy = (instance.weight * instance.energy_coeff * instance.cycles_per_bit
              * instance.task_bits * squares)
    classes = (2 * (min_bits > 0.0) + (delta < 0.0)).tolist()
    # forced costly, forced saving, free costly, free saving
    sets = [frozenset(k for k, c in enumerate(classes) if c == cls) for cls in (2, 3, 0, 1)]
    return (delta.tobytes(), min_bits.tobytes(),
            repr(functools.reduce(operator.add, energy.tolist(), 0.0)), sets)


def filled_memos(instance):
    """`per_instance_memos` as the instance's memos hold them."""
    part = instance.partition
    sets = [part.forced_costly, part.forced_saving, part.free_costly, part.free_saving]
    return (instance.delta_per_bit.tobytes(), instance.min_offload_bits.tobytes(),
            repr(instance.local_energy), sets)


def assert_block_is_exact(instances):
    """One `derive_energy_columns` call fills every instance with the
    memos of the per-instance expressions, bit for bit, and each partition
    set iterates as the ascending fill does, over Python ints."""
    model.derive_energy_columns(instances)
    for instance in instances:
        filled, expected = filled_memos(instance), per_instance_memos(instance)
        assert filled[:3] == expected[:3]
        for got, want in zip(filled[3], expected[3]):
            assert got == want and list(got) == list(want)
            assert all(type(uid) is int for uid in got)
        for name in ("delta_per_bit", "min_offload_bits"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(instance, name)[...] = 0.0


class TestDeriveEnergyColumns:
    """`model.derive_energy_columns` forms the energy memos of a block with
    one broadcast per user count; every memo must have the bits of the
    per-instance expressions, whatever block it is formed in."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The instance count of each block fill, in call order."""
        sizes = []
        fill = model._derive_energy_block

        def recording(instances):
            sizes.append(len(instances))
            return fill(instances)

        monkeypatch.setattr(model, "_derive_energy_block", recording)
        return sizes

    @pytest.mark.parametrize("count", [1, 2, 55])
    def test_stock_blocks(self, count, blocks):
        spec = GenerationSpec(n_users=10, degradation=0.2, deadline_s=0.45)
        instances = generate_instances(spec, range(count))
        assert_block_is_exact(instances)
        assert blocks == [count]
        for instance in instances[:3]:
            assert_columns_match_derive_user(instance)

    def test_mixed_user_counts_and_filled_instances(self, blocks):
        # four user counts interleaved, two instances filled beforehand
        instances = [
            generate_instance(GenerationSpec(n_users=K, degradation=0.1, deadline_s=0.45), seed)
            for seed in range(3) for K in (0, 1, 3, 10)
        ]
        filled = [instances[5], instances[11]]
        for instance in filled:
            instance.partition
        memos = [dict(vars(instance)) for instance in filled]
        assert blocks == [1, 1]
        assert_block_is_exact(instances + instances[:4])  # repeats are derived once
        assert blocks == [1, 1, 3, 2, 3, 2]  # one block per user count, in first-seen order
        for instance, memo in zip(filled, memos):
            for name in ("delta_per_bit", "min_offload_bits", "local_energy", "partition"):
                assert vars(instance)[name] is memo[name]
        model.derive_energy_columns(instances)
        assert len(blocks) == 6

    def test_replaced_deadlines(self, blocks):
        # copies made with `dataclasses.replace` are new instances that
        # share the columns; they form their own deadline's memos
        base = generate_instances(GenerationSpec(n_users=10, degradation=0.2), range(4))
        copies = [dataclasses.replace(i, deadline=t) for i in base for t in (0.35, 0.65, 50.0)]
        assert_block_is_exact(base + copies)
        assert blocks == [16]
        assert all(not c.partition.forced for c in copies[2::3])
        assert copies[0].min_offload_bits.tolist() != copies[1].min_offload_bits.tolist()
        for instance in copies[:3]:
            assert_columns_match_derive_user(instance)

    def test_overflow_and_zero_signs(self):
        # t f beyond the doubles (nobody forced); a -0.0 task whose local
        # capacity underflows to 0 keeps a -0.0 forced minimum, and its
        # -0.0 local energy term still sums to +0.0 from 0.0
        overflow = make_instance([make_user(0, task=5.0, freq=1e10), make_user(1, freq=1e10)],
                                 deadline=1e300)
        signs = make_instance([make_user(0, task=-0.0, freq=1e-20, cycles=1e10),
                               make_user(1, task=0.0, freq=1e-20, cycles=1e10)],
                              deadline=1e-300)
        assert_block_is_exact([overflow, signs])
        assert overflow.min_offload_bits.tolist() == [0.0, 0.0] and not overflow.partition.forced
        assert np.signbit(signs.min_offload_bits).tolist() == [True, False]
        assert repr(signs.local_energy) == "0.0"
        for instance in (overflow, signs):
            assert_columns_match_derive_user(instance)

    def test_extreme_inputs(self):
        # the degradations and deadlines of tests/test_extreme_inputs.py
        instances = [
            dataclasses.replace(
                generate_instance(GenerationSpec(n_users=K, degradation=d, deadline_s=1e-9), 3),
                deadline=t)
            for K in (0, 1, 12, 13, 1000)
            for d in (0.0, 5e-324, 0.1, 0.3, 3.0, 1e30, 1e300)
            for t in (1e-9, 0.035, 1.5, 1e6, 1e300)
        ]
        assert_block_is_exact(instances)


class TestInvariants:
    def test_user_positive_fields_enforced(self):
        with pytest.raises(ValueError, match="service_rate"):
            make_user(0, r=-1.0)
        with pytest.raises(ValueError, match="task_bits"):
            make_user(0, task=-5.0)

    def test_instance_requires_contiguous_ids(self):
        with pytest.raises(ValueError, match="ids"):
            make_instance([make_user(1)])

    def test_instance_requires_positive_deadline(self):
        with pytest.raises(ValueError, match="deadline"):
            make_instance([make_user(0)], deadline=0.0)

    def test_instance_requires_nonnegative_degradation(self):
        with pytest.raises(ValueError, match="degradation"):
            make_instance([make_user(0)], degradation=-0.1)


class TestValidation:
    def test_empty_schedule_is_valid(self):
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0)
        report = validate_rate_schedule(
            inst, RateSchedule(frozenset(), {0: 0.0}, 0.0, 0.0)
        )
        assert report.ok

    def test_hand_example_valid(self):
        # one user, roundtrip 1 s/bit, r=1: l=1, te=1 fits T=2 at rate 0.5
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0, degradation=0.4)
        report = validate_rate_schedule(
            inst, RateSchedule(frozenset({0}), {0: 1.0}, 1.0, 0.5)
        )
        assert report.ok, report.render()

    def test_overfull_offload_reports_residual(self):
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0, degradation=0.4)
        report = validate_rate_schedule(
            inst, RateSchedule(frozenset({0}), {0: 1.5}, 1.0, 0.75)
        )
        assert not report.ok
        upper = {c.name: c for c in report.checks}["offload_upper[0]"]
        assert not upper.ok
        assert upper.residual == pytest.approx(0.5, abs=1e-9)

    def test_unknown_user_raises(self):
        inst = make_instance([unit_roundtrip_user(0)])
        with pytest.raises(KeyError):
            validate_rate_schedule(inst, RateSchedule(frozenset({4}), {4: 0.0}, 0.0, 0.0))

    def test_rate_mismatch_flagged(self):
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0)
        report = validate_rate_schedule(
            inst, RateSchedule(frozenset({0}), {0: 1.0}, 1.0, 0.75)
        )
        assert not report.ok
        names = [c.name for c in report.failures()]
        assert names == ["rate_consistency"]

    @pytest.mark.parametrize("ulps, ok", [(3, True), (4, False)])
    def test_latency_tolerance_is_n_plus_2_ulps_of_the_deadline(self, ulps, ok):
        # one user, so (1 + 2) ulps of T = 2^40 s pass beyond TIME_TOL, and
        # the next overrun fails: ulp(T) = 2^-12 s is far above TIME_TOL
        deadline = 2.0**40
        inst = make_instance([unit_roundtrip_user(0)], deadline=deadline, degradation=0.4)
        half = deadline / 2
        te = half + ulps * math.ulp(deadline)
        report = validate_rate_schedule(
            inst, RateSchedule(frozenset({0}), {0: half}, te, half / deadline)
        )
        budget = {c.name: c for c in report.checks}["latency_budget"]
        assert budget.residual == ulps * math.ulp(deadline)
        assert budget.ok == report.ok == ok

    @pytest.mark.parametrize("deadline", [1e6, 1e7, 1e8, 1e10, 1e12])
    def test_long_deadline_schedules_pass_the_latency_budget(self, deadline):
        # before the tolerance scaled with T, 14 to 39 of these 200 schedules
        # failed it at each deadline from 1e7 s
        spec = GenerationSpec(n_users=8, degradation=0.1, deadline_s=deadline)
        for inst in generate_instances(spec, range(200)):
            report = validate_rate_schedule(inst, solve_rate_max(inst)[0])
            assert report.ok, report.failures()

    def test_report_renders_and_records(self):
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0)
        report = validate_rate_schedule(inst, RateSchedule(frozenset(), {0: 0.0}, 0.0, 0.0))
        assert "overall: valid" in report.render()
        assert all(set(r) == {"constraint", "residual", "ok"} for r in report.to_records())


def perturbed_schedules(schedule, n_users):
    """The schedule, then copies of it with one change each: the bits of its
    lowest member and of its lowest non-member times 1.000001, nan, -1, inf
    and -0.0; its zero entries left out; every entry 0; an unknown user
    scheduled; and the window times 1.01, nan and negative."""
    bits, window = dict(schedule.offload_bits), schedule.compute_time
    yield schedule
    members = sorted(schedule.scheduled)[:1]
    others = [k for k in range(n_users) if k not in schedule.scheduled][:1]
    for uid in members + others:
        for value in (bits.get(uid, 0.0) * 1.000001, math.nan, -1.0, math.inf, -0.0):
            yield dataclasses.replace(schedule, offload_bits={**bits, uid: value})
    yield dataclasses.replace(schedule, offload_bits={k: v for k, v in bits.items() if v != 0.0})
    yield dataclasses.replace(schedule, offload_bits=dict.fromkeys(bits, 0.0))
    yield dataclasses.replace(schedule, scheduled=schedule.scheduled | {n_users})
    for window in (window * 1.01, math.nan, -window - 1e-6):
        yield dataclasses.replace(schedule, compute_time=window)


def validation_corpus():
    """(validator, instance, schedule) of stock draws at K <= 30 and
    d in {0, 0.1, 0.3}, at deadlines 0.9, 1.05 and 3 t_min: every rate and
    energy solver's schedule (the oracles' at K <= 12), each perturbed by
    `perturbed_schedules`."""
    for k in (1, 3, 5, 10, 12, 30):
        for d in (0.0, 0.1, 0.3):
            base = generate_instance(GenerationSpec(n_users=k, degradation=d), 1000 * k + int(10 * d))
            t_min = feasibility_tmin(base)
            for factor in (0.9, 1.05, 3.0):
                inst = with_deadline(base, factor * t_min)
                rate = [solve_rate_max(inst)[0], benchmark_greedy(inst), benchmark_all_offloading(inst)]
                energy = [solve_energy_suboptimal(inst), benchmark_energy_all_offloading(inst)]
                if k <= 12:
                    rate.append(brute_force_rate_max(inst))
                    energy.append(brute_force_energy(inst))
                for validate, schedules in ((validate_rate_schedule, rate),
                                            (validate_energy_schedule, energy)):
                    for schedule in schedules:
                        for p in perturbed_schedules(schedule, k):
                            yield validate, inst, p


class TestValidationBytes:
    """Every report and refusal of `validation_corpus`, byte for byte.  The
    digests were recorded with the per-user validators, which formed each
    bound one Python float at a time; the array validators must give every
    residual, verdict and message as they did."""

    REPORTS = "1ac4f55ae821a13633fc7dd4189a1a126752bf0e275174fef7974c6383e9df19"
    REFUSALS = "70df53972176d8491966036911d21b70d68a333815a2d36ea2e9805a0c087491"

    def test_reports_and_refusals_digest(self):
        reports, refusals = hashlib.sha256(), hashlib.sha256()
        counts = [0, 0]
        for validate, inst, schedule in validation_corpus():
            try:
                report = validate(inst, schedule)
            except (KeyError, ValueError) as exc:
                refusals.update(f"{type(exc).__name__}: {exc}\n".encode())
                counts[1] += 1
                continue
            reports.update(f"{report.render()}\n{report.to_records()!r}\n".encode())
            counts[0] += 1
        assert counts == [3617, 943]
        assert (reports.hexdigest(), refusals.hexdigest()) == (self.REPORTS, self.REFUSALS)


class TestResidualTypes:
    # the digests above would show a numpy scalar's repr; this covers a
    # Python caller's ints, which the per-user validators kept as ints
    def test_int_bits_give_float_residuals(self):
        inst = make_instance([unit_roundtrip_user(0), unit_roundtrip_user(1)], deadline=4.0)
        rate = validate_rate_schedule(inst, RateSchedule(frozenset({0}), {0: 1, 1: 0}, 1, 0))
        energy = validate_energy_schedule(inst, model.EnergySchedule(
            frozenset({0}), {0: 1, 1: 0}, 1, 0, inst.local_energy, "lp-path"))
        for report in (rate, energy):
            assert {type(c.residual) for c in report.checks} == {float}
            assert {type(c.ok) for c in report.checks} == {bool}
        residuals = {c.name: c.residual for c in rate.checks}
        assert residuals["offload_nonneg[0]"] == -1.0
        assert residuals["unscheduled_zero[1]"] == 0.0
        assert residuals["compute_time_nonneg"] == -1.0


class TestGeneration:
    def test_empty_instance(self):
        inst = generate_instance(GenerationSpec(n_users=0), seed=1)
        assert inst.n_users == 0

    def test_exact_uplink_rate_conversion(self):
        spec = GenerationSpec(n_users=1, uplink_mbps=(100.0, 100.0))
        inst = generate_instance(spec, seed=9)
        assert inst.users[0].uplink_time_per_bit == pytest.approx(1e-8, rel=1e-15)

    def test_task_kb_conversion(self):
        spec = GenerationSpec(n_users=1, task_kb=(50.0, 50.0))
        inst = generate_instance(spec, seed=9)
        assert inst.users[0].task_bits == pytest.approx(400_000.0, rel=1e-15)

    def test_deterministic(self):
        spec = GenerationSpec(n_users=5)
        assert generate_instance(spec, 123) == generate_instance(spec, 123)
        assert generate_instance(spec, 123) != generate_instance(spec, 124)

    def test_fields_inside_ranges(self):
        spec = GenerationSpec(n_users=20)
        inst = generate_instance(spec, 7)
        for u in inst.users:
            assert 1.0 / (150e6) <= u.uplink_time_per_bit <= 1.0 / (100e6)
            assert 1e7 <= u.service_rate <= 2e7
            assert 10.0**-1.5 <= u.output_ratio <= 10.0**-0.5

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_instance(GenerationSpec(n_users=1, uplink_mbps=(150.0, 100.0)), 0)
        with pytest.raises(ConfigurationError):
            generate_instance(GenerationSpec(n_users=1, service_rate_bps=(0.0, 1e7)), 0)
        with pytest.raises(ConfigurationError):
            generate_instance(GenerationSpec(n_users=-1), 0)

    @pytest.mark.parametrize("n_users", [10**19, 10**20])
    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
    def test_oversized_user_count_is_refused_by_name(self, n_users, seeds):
        # numpy refuses these sizes before it allocates anything; a count
        # that it would try to allocate is not tried here
        message = f"cannot draw {n_users} users for {len(seeds)} seed(s): "
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            generate_instances(GenerationSpec(n_users=n_users), seeds)


class TestArrayGeneration:
    """`generate_instance` draws the whole instance as one array; it must
    give the scalar loop's instance, float for float."""

    @staticmethod
    def assert_same(spec, seed):
        inst = generate_instance(spec, seed)
        assert inst == scalar_generate_instance(spec, seed)
        # Python floats, not numpy scalars, so files and reprs are unchanged
        assert all(
            type(getattr(u, f.name)) is float
            for u in inst.users
            for f in dataclasses.fields(u)
            if f.name != "id"
        )

    @pytest.mark.parametrize("n_users", [0, 1, 4, 10, 100, 1000])
    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**70])
    def test_matches_scalar_loop(self, n_users, seed):
        self.assert_same(GenerationSpec(n_users=n_users), seed)

    @given(
        n_users=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
    )
    def test_matches_scalar_loop_any_seed(self, n_users, seed):
        self.assert_same(GenerationSpec(n_users=n_users, degradation=0.2), seed)

    def test_degenerate_ranges(self):
        spec = GenerationSpec(
            n_users=12,
            uplink_mbps=(120.0, 120.0),
            output_ratio_exponent=(1.0, 1.0),
            task_kb=(0.0, 0.0),
            cpu_freq_hz=(3e8, 3e8),
        )
        self.assert_same(spec, 5)
        assert {u.task_bits for u in generate_instance(spec, 5).users} == {0.0}


class TestGenerationRefusals:
    """Generation refuses what the per-user loop refuses, with the same
    error for the same user, and without a numpy warning on the way."""

    @staticmethod
    def refusals(spec, seed):
        with pytest.raises(ValueError) as expected:
            scalar_generate_instance(spec, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                generate_instance(spec, seed)
        assert type(refused.value) is type(expected.value)
        assert str(refused.value) == str(expected.value)
        return str(refused.value)

    @pytest.mark.parametrize("spec, message", [
        (GenerationSpec(n_users=3, output_ratio_exponent=(400.0, 500.0)),
         "user 0: output_ratio must be finite and > 0, got 0.0"),
        (GenerationSpec(n_users=3, uplink_mbps=(1e-320, 1e-320)),
         "user 0: uplink_time_per_bit must be finite and > 0, got inf"),
        (GenerationSpec(n_users=3, downlink_mbps=(1e-306, 1e-306),
                        output_ratio_exponent=(-10.0, -10.0)),
         "user 0: roundtrip time per bit is not finite"),
        # a spec constant is refused by its field name before anything is drawn
        (GenerationSpec(n_users=3, weight=math.inf), "weight must be finite and > 0, got inf"),
        (GenerationSpec(n_users=3, task_kb=(1e305, 1e305)),
         "user 0: task_bits must be finite and >= 0"),
        (GenerationSpec(n_users=3, deadline_s=math.inf),
         "deadline must be finite and > 0, got inf"),
        (GenerationSpec(n_users=3, degradation=math.nan),
         "degradation must be finite and >= 0, got nan"),
        # the deadline is checked before anything is drawn
        (GenerationSpec(n_users=3, deadline_s=math.nan, output_ratio_exponent=(-400.0, -400.0)),
         "deadline must be finite and > 0, got nan"),
        (GenerationSpec(n_users=3, output_ratio_exponent=(-400.0, -400.0)),
         "user 0: output_ratio must be finite and > 0, got inf"),
    ])
    def test_same_error_as_scalar_loop(self, spec, message):
        assert self.refusals(spec, 5) == message

    @pytest.mark.parametrize("name", ["energy_coeff", "tx_power_w", "weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("n_users", [0, 3])
    def test_spec_constant_is_refused_by_name(self, name, value, n_users):
        # before anything is drawn, with or without users
        spec = GenerationSpec(n_users=n_users, **{name: value})
        message = f"{name} must be finite and > 0, got {value}"
        for call in (lambda: generate_instance(spec, 5), lambda: generate_instances(spec, [])):
            with pytest.raises(ValueError) as refused:
                call()
            assert (type(refused.value), str(refused.value)) == (ConfigurationError, message)

    @pytest.mark.parametrize("seed", range(8))
    def test_first_bad_user_is_refused(self, seed):
        # exponents past about 323.3 underflow the ratio to 0.0; below about
        # -308.3 the power overflows to inf; either is refused at its user,
        # after any bad user before it
        for exponents in ((300.0, 330.0), (-330.0, 0.0), (-400.0, 400.0)):
            spec = GenerationSpec(n_users=12, output_ratio_exponent=exponents)
            try:
                scalar_generate_instance(spec, seed)
            except ValueError:
                self.refusals(spec, seed)
            else:
                assert generate_instance(spec, seed) == scalar_generate_instance(spec, seed)

    def test_columns_are_checked_like_profiles(self):
        inst = generate_instance(GenerationSpec(n_users=4), 1)
        service = inst.service_rate.copy()
        service[2] = -1.0
        with pytest.raises(ValueError, match=r"^user 2: service_rate must be finite and > 0, got -1.0$"):
            dataclasses.replace(inst, service_rate=service)
        with pytest.raises(TypeError):
            Instance(deadline=1.0, degradation=0.0, weight=inst.weight)


def column_bytes(instance):
    """Every column of the instance as raw bytes: equal only bit for bit."""
    return [getattr(instance, name).tobytes() for name in COLUMNS]


class TestBlockGeneration:
    """`generate_instances` draws a block of seeds in one call; each of its
    instances must be that seed's own instance, column for column and bit
    for bit, and a refusal must be the first bad seed's own refusal."""

    @staticmethod
    def assert_block(spec, seeds):
        block = generate_instances(spec, seeds)
        assert len(block) == len(seeds)
        for instance, seed in zip(block, seeds):
            expected = scalar_generate_instance(spec, seed)
            assert column_bytes(instance) == column_bytes(expected)
            assert column_bytes(instance) == column_bytes(generate_instance(spec, seed))
            assert (instance.deadline, instance.degradation) == (spec.deadline_s,
                                                                 spec.degradation)
            assert all(not getattr(instance, name).flags.writeable for name in COLUMNS)

    @pytest.mark.parametrize("n_users", [0, 1, 4, 10, 100])
    def test_block_matches_each_seed(self, n_users):
        seeds = [0, -1, 2**63, 2**64 - 1, 2**70, -(2**70), 12345, 12345]
        self.assert_block(GenerationSpec(n_users=n_users), seeds)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(min_value=0, max_value=20),
        seeds=st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=8),
    )
    def test_any_block_matches_each_seed(self, n_users, seeds):
        self.assert_block(GenerationSpec(n_users=n_users, degradation=0.2), seeds)

    @pytest.mark.parametrize("n", [0, 1, 7, 70])
    def test_uniform_rows_are_each_seeds_stream(self, n):
        seeds = [0, -1, 2**63, 2**64 - 1, 2**70, 99]
        rows = uniform_rows(seeds, n)
        assert rows.shape == (len(seeds), n) and rows.dtype == float
        for row, seed in zip(rows, seeds):
            scalar = SplitMix64(seed)
            assert row.tolist() == [scalar.uniform() for _ in range(n)]

    @staticmethod
    def classify(spec, seeds):
        """Each seed's outcome from the per-user loop: None where it draws
        an instance, else the type and text of its error."""
        outcomes = {}
        for seed in seeds:
            try:
                scalar_generate_instance(spec, seed)
            except ValueError as exc:
                outcomes[seed] = (type(exc), str(exc))
            else:
                outcomes[seed] = None
        return outcomes

    # one user each: exponents past about 323.3 underflow the output ratio to
    # 0.0; below about -308.3 its power overflows to inf
    MIXED = GenerationSpec(n_users=1, output_ratio_exponent=(-400.0, 400.0))

    @pytest.mark.parametrize("third", ["got 0.0", "got inf"])
    def test_third_instance_refuses_with_its_own_error(self, third):
        outcomes = self.classify(self.MIXED, range(200))
        good = [seed for seed, outcome in outcomes.items() if outcome is None]
        bad = {ratio: [seed for seed, outcome in outcomes.items()
                       if outcome is not None and outcome[1].endswith(ratio)]
               for ratio in ("got 0.0", "got inf")}
        later = bad["got inf" if third == "got 0.0" else "got 0.0"][0]
        seeds = [good[0], good[1], bad[third][0], later, good[2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as refused:
                generate_instances(self.MIXED, seeds)
        assert (type(refused.value), str(refused.value)) == outcomes[bad[third][0]]
        assert generate_instances(self.MIXED, good[:3])  # the good ones alone draw

    @pytest.mark.parametrize("seed", range(8))
    def test_many_users_refuse_as_each_seed(self, seed):
        # a block of bad seeds refuses with its first seed's first bad user
        for exponents in ((300.0, 330.0), (-330.0, 0.0), (-400.0, 400.0)):
            spec = GenerationSpec(n_users=12, output_ratio_exponent=exponents)
            seeds = [mix64(seed, k) for k in range(4)]
            first_bad = next(
                (outcome for outcome in self.classify(spec, seeds).values() if outcome), None
            )
            if first_bad is None:
                self.assert_block(spec, seeds)
                continue
            with pytest.raises(ValueError) as refused:
                generate_instances(spec, seeds)
            assert (type(refused.value), str(refused.value)) == first_bad

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(min_value=0, max_value=12),
        seeds=st.lists(st.integers(min_value=-(2**70), max_value=2**70), max_size=4),
        exponents=st.sampled_from([(0.5, 1.5), (-400.0, -300.0), (-330.0, 0.0), (300.0, 330.0),
                                   (-400.0, 400.0)]),
        uplink=st.sampled_from([(100.0, 150.0), (1e-320, 1e-320)]),
        task=st.sampled_from([(50.0, 100.0), (1e305, 1e305)]),
        weight=st.sampled_from([1.0, math.inf]),
        deadline=st.sampled_from([0.035, math.nan, math.inf]),
        degradation=st.sampled_from([0.1, math.nan]),
    )
    def test_refuses_with_typed_errors_only(self, n_users, seeds, exponents, uplink, task,
                                            weight, deadline, degradation):
        # a block either draws each seed's own instance or raises the
        # ValueError of its first bad seed, never another error or a warning
        spec = GenerationSpec(n_users=n_users, output_ratio_exponent=exponents, uplink_mbps=uplink,
                              task_kb=task, weight=weight, deadline_s=deadline,
                              degradation=degradation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                block, refused = generate_instances(spec, seeds), None
            except ValueError as exc:
                block, refused = None, exc
        try:
            # the spec's scalars and constants are refused even with no seed to draw
            scalar_generate_instance(dataclasses.replace(spec, n_users=0), 0)
            expected = [scalar_generate_instance(spec, seed) for seed in seeds]
        except ValueError as exc:
            assert (type(refused), str(refused)) == (type(exc), str(exc))
        else:
            assert refused is None
            assert list(map(column_bytes, block)) == list(map(column_bytes, expected))

    def test_spec_is_checked_once_even_for_no_seeds(self):
        assert generate_instances(GenerationSpec(n_users=3), []) == []
        with pytest.raises(ConfigurationError):
            generate_instances(GenerationSpec(n_users=-1), [])


class TestRng:
    def test_splitmix_reference_stream(self):
        # first outputs for seed 0, fixed forever
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_in_range(self):
        rng = SplitMix64(99)
        xs = [rng.uniform(2.0, 3.0) for _ in range(100)]
        assert all(2.0 <= x < 3.0 for x in xs)

    @pytest.mark.parametrize("n", [0, 1, 7, 700])
    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1, 2**70])
    def test_uniform_array_continues_the_scalar_stream(self, n, seed):
        # a row of n draws, then one of n + 1 that goes one step further
        [drawn] = uniform_rows([seed], n)
        [longer] = uniform_rows([seed], n + 1)
        scalar_rng = SplitMix64(seed)
        assert drawn.dtype == float and drawn.shape == (n,)
        assert drawn.tolist() + longer[n:].tolist() == [
            scalar_rng.uniform() for _ in range(n + 1)
        ]

    def test_mix64_order_sensitive(self):
        assert mix64(1, 2, 3) != mix64(3, 2, 1)
        assert mix64(1, 2, 3) == mix64(1, 2, 3)


class TestInstanceFiles:
    def test_round_trip_identity(self, tmp_path):
        inst = generate_instance(GenerationSpec(n_users=4), 5)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degradation": 0.1, "users": []}))
        with pytest.raises(ParseError, match="deadline_s"):
            read_instance(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"deadline_s": 1.0, "degradation": 0.0, "users": [], "x": 1}))
        with pytest.raises(ParseError, match="'x'"):
            read_instance(path)

    def test_negative_service_rate_is_validation_error(self, tmp_path):
        inst = generate_instance(GenerationSpec(n_users=1), 5)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["users"][0]["service_rate"] = -1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="service_rate"):
            read_instance(path)

    def test_malformed_json_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"deadline_s": 1.0,\n  "degradation": }')
        with pytest.raises(ParseError, match="line 2"):
            read_instance(path)

    @pytest.mark.parametrize("field", ["deadline_s", "degradation"])
    @pytest.mark.parametrize("value", ["abc", "1.5", [1], None, {}, True])
    def test_top_level_field_must_be_a_number(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        doc = {"deadline_s": 1.0, "degradation": 0.0, "users": []}
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"{field} must be a number"):
            read_instance(path)

    def test_bool_id_rejected(self, tmp_path):
        inst = generate_instance(GenerationSpec(n_users=2), 5)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        doc = json.loads(path.read_text())
        doc["users"][1]["id"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=r"users\[1\]: id must be an integer"):
            read_instance(path)


# JSON values of every type but a number, and a number that is not an integer
_NOT_A_NUMBER = st.one_of(
    st.text(max_size=4), st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_NOT_AN_ARRAY = st.one_of(st.text(max_size=4), st.booleans(), st.none(), st.integers(),
                          st.floats(allow_nan=False), st.dictionaries(st.text(max_size=3), st.integers()))
_NOT_AN_OBJECT = st.one_of(st.text(max_size=4), st.booleans(), st.none(), st.integers(),
                           st.lists(st.integers(), max_size=2))


class TestInstanceFileProperties:
    """Files written by `write_instance` read back equal, and any field of
    one dropped, retyped or renamed is a `ParseError`, never a `TypeError`
    or `KeyError`."""

    @staticmethod
    def read_doc(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.json"
            path.write_text(json.dumps(doc))
            return read_instance(path)

    @staticmethod
    def written_doc(n_users, seed):
        inst = generate_instance(GenerationSpec(n_users=n_users, degradation=0.2), seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "inst.json"
            write_instance(inst, path)
            assert read_instance(path) == inst
            return json.loads(path.read_text())

    # Without a `.hypothesis/unicode_data` cache (a fresh checkout), the first
    # `st.text` draw builds hypothesis's character table, about 2 s, and the
    # too_slow health check then fails the test on a correct program.
    file_settings = settings(max_examples=100, deadline=None, derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])

    @file_settings
    @given(n_users=st.integers(0, 5), seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_damaged_field_is_a_parse_error(self, n_users, seed, data):
        doc = self.written_doc(n_users, seed)
        # the object holding the field, and the field
        holders = [doc] + doc["users"]
        holder = data.draw(st.sampled_from(holders))
        key = data.draw(st.sampled_from(sorted(holder)))
        damage = data.draw(st.sampled_from(["drop", "retype", "rename"]))
        value = holder.pop(key)
        if damage == "retype":
            if key == "users":
                holder[key] = data.draw(_NOT_AN_ARRAY)
            elif key == "id":
                holder[key] = data.draw(st.one_of(_NOT_A_NUMBER, st.floats(allow_nan=False)))
            else:
                holder[key] = data.draw(_NOT_A_NUMBER)
        elif damage == "rename":
            holder[data.draw(st.text(max_size=12).filter(lambda name: name != key))] = value
        with pytest.raises(ParseError):
            self.read_doc(doc)

    @file_settings
    @given(n_users=st.integers(1, 5), seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_retyped_user_is_a_parse_error(self, n_users, seed, data):
        doc = self.written_doc(n_users, seed)
        k = data.draw(st.integers(0, n_users - 1))
        doc["users"][k] = data.draw(_NOT_AN_OBJECT)
        with pytest.raises(ParseError, match=rf"users\[{k}\]: must be an object"):
            self.read_doc(doc)
