import json

import pytest
from hypothesis import given, strategies as st

from mecoffload import (
    ConfigurationError,
    GenerationSpec,
    ParseError,
    RateSchedule,
    derive_user,
    generate_instance,
    read_instance,
    validate_rate_schedule,
    write_instance,
)
from mecoffload.rng import SplitMix64, mix64
from support import make_instance, make_user, unit_roundtrip_user


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
