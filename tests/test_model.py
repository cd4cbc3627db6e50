import dataclasses
import functools
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mecoffload import (
    ConfigurationError,
    GenerationSpec,
    ParseError,
    RateSchedule,
    baseline_local_energy,
    benchmark_greedy,
    brute_force_energy,
    derive_user,
    generate_instance,
    generate_instances,
    model,
    read_instance,
    solve_energy_suboptimal,
    solve_rate_max,
    validate_energy_schedule,
    validate_rate_schedule,
    write_instance,
)
from mecoffload.harness import SweepSpec, run_sweep
from mecoffload.model import Instance, UserProfile
from mecoffload.rng import SplitMix64, mix64, uniform_rows
from support import make_instance, make_user, unit_roundtrip_user

# An instance's per-user columns: one per UserProfile field but the id, and
# the roundtrip time formed from them.
COLUMNS = tuple(f.name for f in dataclasses.fields(UserProfile))[1:] + ("roundtrip_time_per_bit",)


def scalar_generate_instance(spec, seed):
    """The per-user loop `generate_instance` replaced: seven scalar draws
    per user, in field order, each field converted one float at a time."""
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
        users.append(
            UserProfile(
                id=i,
                weight=spec.weight,
                uplink_time_per_bit=1.0 / (uplink * 1e6),
                downlink_time_per_bit=1.0 / (downlink * 1e6),
                output_ratio=10.0 ** (-exponent),
                service_rate=service,
                task_bits=task_kb * 8000.0,
                cycles_per_bit=cycles,
                cpu_freq=freq,
                energy_coeff=spec.energy_coeff,
                tx_power=spec.tx_power_w,
            )
        )
    return Instance(deadline=spec.deadline_s, degradation=spec.degradation, users=tuple(users))


def test_builtin_sum_adds_floats_left_to_right():
    # Python 3.12 made the builtin sum of floats compensated (Neumaier).
    assert sum([1.0, 1e100, 1.0, -1e100]) == 0.0, (
        f"builtin sum is compensated on Python {sys.version.split()[0]}: "
        "energy._Balance.gap, the energy._schedule objective, model.baseline_local_energy, the "
        "energy._subset_lp budget and rate._fixed_set_sums rely on a left-to-right float sum, "
        "and with another order the perfbench fingerprints and the stock sweep CSV bytes change"
    )


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
        """Counts the builds of the two derived columns and `derive_user` calls."""
        calls = {"delta_per_bit": 0, "min_offload_bits": 0, "derive_user": 0}

        def counting(name):
            build = getattr(model.Instance, name).func

            def counting_build(instance):
                calls[name] += 1
                return build(instance)

            memo = functools.cached_property(counting_build)
            memo.__set_name__(model.Instance, name)
            monkeypatch.setattr(model.Instance, name, memo)

        def counting_derive(instance, user_id):
            calls["derive_user"] += 1
            return derive_user(instance, user_id)

        counting("delta_per_bit")
        counting("min_offload_bits")
        monkeypatch.setattr(model, "derive_user", counting_derive)
        return calls

    def test_solves_derive_each_user_once(self, counted):
        # one column build derives every user, and nothing derives again
        spec = GenerationSpec(n_users=100, degradation=0.05, deadline_s=1.5)
        inst = generate_instance(spec, 20240)
        energy = solve_energy_suboptimal(inst)
        solve_rate_max(inst)
        assert energy.status == "greedy-path"
        assert counted == {"delta_per_bit": 1, "min_offload_bits": 1, "derive_user": 0}
        energy = solve_energy_suboptimal(inst)
        solve_rate_max(inst)
        benchmark_greedy(inst)
        assert validate_energy_schedule(inst, energy).ok
        assert counted == {"delta_per_bit": 1, "min_offload_bits": 1, "derive_user": 0}

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
            expected = repr(sum(energy.tolist(), 0.0))
            inst.delta_per_bit  # squares the CPU speeds too
            monkeypatch.setattr(model, "_squares", counting)
            assert repr(baseline_local_energy(inst)) == expected
            solve_energy_suboptimal(inst)
            if n_users <= 10:
                brute_force_energy(inst)
            assert repr(baseline_local_energy(inst)) == expected
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
        assert counted == {"delta_per_bit": 0, "min_offload_bits": 0, "derive_user": 0}

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

    def test_report_renders_and_records(self):
        inst = make_instance([unit_roundtrip_user(0)], deadline=2.0)
        report = validate_rate_schedule(inst, RateSchedule(frozenset(), {0: 0.0}, 0.0, 0.0))
        assert "overall: valid" in report.render()
        assert all(set(r) == {"constraint", "residual", "ok"} for r in report.to_records())


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
        with pytest.raises((ValueError, OverflowError)) as expected:
            scalar_generate_instance(spec, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ValueError, OverflowError)) as refused:
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
        (GenerationSpec(n_users=3, weight=math.inf),
         "user 0: weight must be finite and > 0, got inf"),
        (GenerationSpec(n_users=3, task_kb=(1e305, 1e305)),
         "user 0: task_bits must be finite and >= 0"),
        (GenerationSpec(n_users=3, deadline_s=math.inf), "deadline must be finite and > 0"),
        (GenerationSpec(n_users=3, degradation=math.nan), "degradation must be finite and >= 0"),
        # the power overflows at user 0, before the instance checks its deadline
        (GenerationSpec(n_users=3, deadline_s=math.nan, output_ratio_exponent=(-400.0, -400.0)),
         "(34, 'Numerical result out of range')"),
    ])
    def test_same_error_as_scalar_loop(self, spec, message):
        assert self.refusals(spec, 5) == message

    @pytest.mark.parametrize("seed", range(8))
    def test_first_bad_user_is_refused(self, seed):
        # exponents past about 323.3 underflow the ratio to 0.0; below about
        # -308.3 the power overflows, which the per-user loop meets at that
        # user, after refusing any bad user before it
        for exponents in ((300.0, 330.0), (-330.0, 0.0), (-400.0, 400.0)):
            spec = GenerationSpec(n_users=12, output_ratio_exponent=exponents)
            try:
                scalar_generate_instance(spec, seed)
            except (ValueError, OverflowError):
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
            except (ValueError, OverflowError) as exc:
                outcomes[seed] = (type(exc), str(exc))
            else:
                outcomes[seed] = None
        return outcomes

    # one user each: exponents past about 323.3 underflow the output ratio to
    # 0.0, a ValueError; below about -308.3 its power overflows
    MIXED = GenerationSpec(n_users=1, output_ratio_exponent=(-400.0, 400.0))

    @pytest.mark.parametrize("third", [ValueError, OverflowError])
    def test_third_instance_refuses_with_its_own_error(self, third):
        outcomes = self.classify(self.MIXED, range(200))
        good = [seed for seed, outcome in outcomes.items() if outcome is None]
        bad = {kind: [seed for seed, outcome in outcomes.items()
                      if outcome is not None and outcome[0] is kind]
               for kind in (ValueError, OverflowError)}
        later = bad[OverflowError if third is ValueError else ValueError][0]
        seeds = [good[0], good[1], bad[third][0], later, good[2]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ValueError, OverflowError)) as refused:
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
            with pytest.raises((ValueError, OverflowError)) as refused:
                generate_instances(spec, seeds)
            assert (type(refused.value), str(refused.value)) == first_bad

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
