import contextlib
import csv
import dataclasses
import hashlib
import json
import math
from collections import Counter

import pytest

from mecoffload import (
    ConfigurationError,
    GenerationSpec,
    brute_force_energy_batch,
    generate_instance,
    harness,
    lp,
    solve_energy_suboptimal,
    write_instance,
)
from mecoffload.harness import (
    SweepSpec,
    cli_main,
    run_sweep,
    schedule_from_doc,
    schedule_to_doc,
    sweep_spec_from_doc,
)
from mecoffload.model import EnergySchedule
from mecoffload.rate import solve_rate_max
from mecoffload.rng import mix64
from support import empty_subset_lp, make_instance, make_user, subset_lps


def tiny_spec(**kw):
    base = dict(experiment="rate-vs-K", grid=(4.0, 5.0), realizations=3, base_seed=11)
    base.update(kw)
    return SweepSpec(**base)


class TestSweep:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError, match="rate-vs-K"):
            run_sweep(SweepSpec(experiment="nope"))

    def test_unknown_algorithm_lists_valid_names(self):
        with pytest.raises(ConfigurationError, match="suboptimal"):
            run_sweep(SweepSpec(experiment="energy-vs-T", algorithms=("nope",)))
        with pytest.raises(ConfigurationError, match="all-offload"):
            run_sweep(tiny_spec(algorithms=("nope",)))

    def test_schema_and_shape(self):
        text = run_sweep(tiny_spec(algorithms=("optimal", "greedy")))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "experiment,param,value,algorithm,realizations,mean_rate_bps,stderr_rate_bps"
        )
        assert len(lines) == 1 + 2 * 2  # grid points x algorithms
        cells = lines[1].split(",")
        assert cells[0] == "rate-vs-K" and cells[1] == "n_users"
        float(cells[5]), float(cells[6])  # full-precision numerics parse back

    def test_byte_identical_reruns(self):
        spec = tiny_spec(algorithms=("optimal", "all-offload"))
        assert run_sweep(spec) == run_sweep(spec)

    def test_energy_sweep_counts_feasible(self):
        spec = SweepSpec(
            experiment="energy-vs-T",
            grid=(0.05, 0.5),  # first point infeasible, second fine
            realizations=3,
            base_seed=5,
            n_users=4,
            algorithms=("suboptimal",),
        )
        lines = run_sweep(spec).strip().split("\n")
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[5] == "0" and first[6] == ""  # nothing feasible at 50 ms
        assert second[5] == "3" and float(second[6]) > 0

    def test_certify_columns(self):
        text = run_sweep(tiny_spec(certify=True, algorithms=("optimal",)))
        header = text.split("\n", 1)[0]
        assert header.endswith("certified,max_rel_gap")
        row = text.strip().split("\n")[1].split(",")
        assert row[-2] == "3"
        assert float(row[-1]) <= 1e-9

    def test_spec_file_round_trip(self):
        doc = {"experiment": "rate-vs-d", "grid": [0.0, 0.1], "realizations": 2}
        spec = sweep_spec_from_doc(doc)
        assert spec.experiment == "rate-vs-d"
        with pytest.raises(ConfigurationError, match="bogus"):
            sweep_spec_from_doc({"experiment": "rate-vs-d", "bogus": 1})
        with pytest.raises(ConfigurationError, match="experiment"):
            sweep_spec_from_doc({"grid": [1]})


class TestStockEnergyBytes:
    """The certified stock energy sweeps, byte for byte.  The digests were
    recorded with the row-at-a-time simplex; the vectorised one must make the
    same pivots with the same arithmetic, so any change to the simplex, the
    energy LPs or the oracle that moves a bit of these CSVs fails here.  The
    oracle-row digests pin the oracle's own schedules too."""

    DIGESTS = {  # by test id: experiment, algorithms, digest
        "energy-vs-T": ("energy-vs-T", "suboptimal,all-offload",
                        "c6944e4b16cca00a6000b4e76e14ff035471f6eaeca9e939dde90ee8b3c05355"),
        "energy-vs-d": ("energy-vs-d", "suboptimal,all-offload",
                        "50d644ebaee034cdaf0ea8b5dc186228688c5fdfbdb89b7621b19f3ad7b461ad"),
        "energy-vs-T-oracle": ("energy-vs-T", "suboptimal,all-offload,oracle",
                               "ebb7564c0630bb1ab4d121d34eab75c4a5cadeaa8374e840b269660b130cc971"),
        "energy-vs-d-oracle": ("energy-vs-d", "suboptimal,all-offload,oracle",
                               "6cd022f4018ed95efe67c12698df3001968aef2f401a9dbcdbb6852b042c84a1"),
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_certified_sweep_digest(self, case, tmp_path):
        experiment, algorithms, digest = self.DIGESTS[case]
        out = tmp_path / f"{case}.csv"
        assert cli_main([
            "sweep", "--experiment", experiment, "--realizations", "20", "--seed", "7",
            "--algorithms", algorithms, "--certify", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestRateBlocks:
    """A rate sweep draws and solves a grid point's realizations a block at
    a time, `optimal` and `lr` through one lockstep batch solve; the block
    boundaries must not show in the CSV."""

    @pytest.mark.parametrize("experiment", ["rate-vs-K", "rate-vs-d"])
    def test_block_size_leaves_the_bytes(self, experiment, monkeypatch):
        spec = SweepSpec(experiment=experiment, realizations=100, base_seed=7, certify=True)
        blocked = run_sweep(spec)
        # one realization per block, and every grid point as one block
        for block in (1, 10**9):
            monkeypatch.setattr(harness, "_block", lambda n_users, block=block: block)
            assert run_sweep(spec) == blocked

    def test_one_draw_and_one_batch_solve_per_block(self, monkeypatch):
        draws, solves = [], []
        generate, solve = harness.generate_instances, harness.solve_rate_max_batch

        def counting_draw(generation, seeds):
            draws.append(len(seeds))
            return generate(generation, seeds)

        def counting_solve(instances):
            solves.append(len(instances))
            return solve(instances)

        monkeypatch.setattr(harness, "generate_instances", counting_draw)
        monkeypatch.setattr(harness, "solve_rate_max_batch", counting_solve)
        run_sweep(SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=120))
        capacity = harness._block(10)
        # `optimal` and `lr` share the one solve of each block
        assert draws == solves == [capacity, capacity, 120 - 2 * capacity]

    def test_per_instance_algorithms_call_the_module_names(self, monkeypatch):
        # a wrapper set on the harness's name is the one a sweep calls, as
        # a tracer that wraps functions where they are looked up needs
        spec = SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=30,
                         algorithms=("greedy",))
        plain = run_sweep(spec)
        calls = []
        greedy = harness.benchmark_greedy

        def counting(instance):
            calls.append(instance)
            return greedy(instance)

        monkeypatch.setattr(harness, "benchmark_greedy", counting)
        assert run_sweep(spec) == plain
        assert len(calls) == len(set(map(id, calls))) == 30


class TestEnergyBlocks:
    """An energy sweep solves a grid point's LPs a block of realizations at
    a time, in stacks cut by the LP stack budget, and a block holds as many
    realizations as one stack holds all-offload LPs; the block and stack
    boundaries must not show in the CSV."""

    @pytest.mark.parametrize("experiment", ["energy-vs-T", "energy-vs-d"])
    def test_block_size_leaves_the_bytes(self, experiment, monkeypatch):
        spec = SweepSpec(experiment=experiment, realizations=37, base_seed=3, certify=True)
        stacked = run_sweep(spec)
        # every LP alone, in blocks of one realization; and every grid
        # point as one block, its LPs in one stack per batch
        for budget in (0, math.inf):
            monkeypatch.setattr(lp, "STACK_ENTRIES", budget)
            assert run_sweep(spec) == stacked

    def test_a_block_fills_one_stack(self, monkeypatch):
        calls = []
        batch = harness.brute_force_energy_batch

        def counting(instances, *args):
            calls.append(len(instances))
            return batch(instances, *args)

        monkeypatch.setitem(harness.ENERGY_ALGORITHMS, "oracle", counting)
        run_sweep(SweepSpec(experiment="energy-vs-d", grid=(0.2,), realizations=120,
                            certify=True))
        # the all-offload LP of K = 10 users has 21 rows over 11 columns
        capacity = lp.STACK_ENTRIES // lp._entries(21, 11)
        assert calls == [capacity, capacity, 120 - 2 * capacity]
        assert lp.stack_capacity(21, 11) == capacity and 1 < capacity < 60

    @pytest.mark.parametrize("experiment, value, exhaustive, pruned", [
        pytest.param("energy-vs-T", 0.35, 20, 20, id="energy-vs-T-0.35"),  # one LP each
        pytest.param("energy-vs-d", 0.3, 34, 21, id="energy-vs-d-0.3"),
    ])
    def test_only_the_oracle_lps_reach_the_simplex(self, experiment, value, exhaustive, pruned,
                                                    monkeypatch):
        # No stock user is costly, so the all-offload LP is the oracle's
        # full-subset LP; the heuristic's LP branch solves the empty-subset
        # LP, which the oracle solves only where that subset could win.  A
        # block stacks each distinct LP once: the oracle's, and the LP-branch
        # LPs the oracle skipped.
        spec = SweepSpec(experiment=experiment, grid=(value,), realizations=20, base_seed=7,
                         certify=True)
        generation = harness._generation_spec(spec.normalized(), value)
        instances = [generate_instance(generation, mix64(7, 0, ri)) for ri in range(20)]
        assert sum(p is not None for i in instances for p in subset_lps(i)) == exhaustive
        lp_branch = [
            lp._key(empty_subset_lp(i))
            for i in instances if solve_energy_suboptimal(i).status == "lp-path"
        ]
        assert lp_branch
        blocks = stacked_keys(monkeypatch)
        brute_force_energy_batch(instances)
        oracle_keys = blocks.pop()
        assert len(oracle_keys) == pruned
        run_sweep(spec)
        assert len(blocks) == 1  # the grid point's 20 realizations, one block
        for block in blocks:
            assert len(set(block)) == len(block)
        skipped = [key for key in lp_branch if key not in set(oracle_keys)]
        assert Counter(key for block in blocks for key in block) == Counter(oracle_keys + skipped)

    def test_the_oracle_row_reuses_the_references(self, monkeypatch):
        # A certified block's references are its oracle row: one oracle
        # batch per block (7 grid points of two blocks, 100 realizations
        # over blocks of 55), and the same rows as the uncertified sweep,
        # which solves the oracle row on its own.
        calls = []
        batch = harness.brute_force_energy_batch

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return batch(*args, **kwargs)

        monkeypatch.setitem(harness.ENERGY_ALGORITHMS, "oracle", counting)
        spec = SweepSpec(experiment="energy-vs-d", realizations=100, base_seed=7, certify=True,
                         algorithms=("suboptimal", "all-offload", "oracle"))
        certified = run_sweep(spec).strip().split("\n")
        assert len(calls) == 14 and sum(calls) == 700
        plain = run_sweep(dataclasses.replace(spec, certify=False)).strip().split("\n")
        assert [line.rsplit(",", 2)[0] for line in certified] == plain
        for row in csv.DictReader(certified):
            if row["algorithm"] == "oracle":
                assert row["certified"] == row["feasible"] and row["max_rel_gap"] == "0.0"


def stacked_keys(monkeypatch):
    """The keys (`lp._key`) of the problems that reach `lp._solve_stack`
    from here on: one list of them so far, and a new one for each
    `lp.shared_solutions` scope that `run_sweep` opens."""
    blocks = [[]]
    solve, scope = lp._solve_stack, harness.shared_solutions

    def recording(shifted):
        blocks[-1].extend(lp._key(s.problem) for s in shifted)
        return solve(shifted)

    @contextlib.contextmanager
    def opening():
        blocks.append([])
        with scope():
            yield

    monkeypatch.setattr(lp, "_solve_stack", recording)
    monkeypatch.setattr(harness, "shared_solutions", opening)
    return blocks


class TestStockRateBytes:
    """The certified stock rate sweeps, byte for byte.  The digests were
    recorded with the per-user scalar instance generator and with `lr`
    solved on its own; the array generator and the shared `optimal`/`lr`
    solve must leave every byte of these CSVs as it was."""

    DIGESTS = {
        "rate-vs-K": "c9586b784a94581649ace0b062b32e69d396929b860ffd6086cae7e4a8aa1eb2",
        "rate-vs-d": "14c40b2f4b5e906c6eb10274485788b06cfc730a5757d678ed6aeb0b5cbb2c93",
    }

    @pytest.mark.parametrize("experiment", sorted(DIGESTS))
    def test_certified_sweep_digest(self, experiment, tmp_path):
        out = tmp_path / f"{experiment}.csv"
        assert cli_main([
            "sweep", "--experiment", experiment, "--realizations", "20", "--seed", "7",
            "--certify", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[experiment]


class TestScheduleDocs:
    def test_energy_infeasible_round_trips_through_null(self):
        schedule = EnergySchedule(
            scheduled=frozenset(),
            offload_bits={0: 0.0},
            compute_time=0.0,
            objective=float("nan"),
            total_energy=float("nan"),
            status="infeasible",
            t_min=0.25,
        )
        doc = schedule_to_doc(schedule)
        assert doc["objective"] is None
        text = json.dumps(doc)  # must be strict JSON, no NaN literals
        back = schedule_from_doc(json.loads(text))
        assert back.status == "infeasible"
        assert back.t_min == 0.25


def write_single_user_feasibility_instance(path):
    """The instance whose smallest feasible deadline is 11/2.1 s."""
    u = make_user(0, a=0.05, b=0.05, gamma=1.0, r=1.0, task=10.0, cycles=1.0, freq=1.0)
    write_instance(make_instance([u], deadline=1.0, degradation=0.0), path)


class TestCli:
    def test_generate_solve_validate_chain(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        sched_path = tmp_path / "sched.json"
        table_path = tmp_path / "table.csv"
        assert cli_main([
            "generate", "--users", "6", "--seed", "3", "--degradation", "0.15",
            "--out", str(inst_path),
        ]) == 0
        assert cli_main([
            "solve-rate", str(inst_path), "--out", str(sched_path), "--table", str(table_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "sum_rate_bps" in out
        table = table_path.read_text().strip().split("\n")
        assert table[0] == "m,rate_bps,iterations,selected"
        assert len(table) == 1 + 6
        assert cli_main(["validate", str(inst_path), str(sched_path)]) == 0
        # tamper: double one offload size
        doc = json.loads(sched_path.read_text())
        uid = str(sorted(doc["scheduled"])[0])
        doc["offload_bits"][uid] *= 2
        sched_path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(inst_path), str(sched_path)]) == 1

    def test_solve_rate_matches_library(self, tmp_path, capsys):
        inst = generate_instance(GenerationSpec(n_users=1, degradation=0.1), 5)
        path = tmp_path / "one.json"
        write_instance(inst, path)
        assert cli_main(["solve-rate", str(path)]) == 0
        out = capsys.readouterr().out
        printed = float(out.split("sum_rate_bps: ")[1].split()[0])
        assert printed == pytest.approx(solve_rate_max(inst)[0].sum_rate, rel=1e-12)

    def test_tmin_prints_algebraic_value(self, tmp_path, capsys):
        path = tmp_path / "feas.json"
        write_single_user_feasibility_instance(path)
        assert cli_main(["tmin", str(path)]) == 0
        printed = float(capsys.readouterr().out.split()[0])
        assert printed == pytest.approx(11.0 / 2.1, abs=1e-6)

    def test_solve_energy_reports_infeasible(self, tmp_path, capsys):
        path = tmp_path / "feas.json"
        write_single_user_feasibility_instance(path)
        assert cli_main(["solve-energy", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status: infeasible" in out
        assert "t_min_s" in out

    def test_certify_small_instance(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert cli_main([
            "generate", "--users", "8", "--seed", "12", "--deadline-ms", "400",
            "--degradation", "0.2", "--out", str(inst_path),
        ]) == 0
        assert cli_main(["certify", str(inst_path)]) == 0
        out = capsys.readouterr().out
        assert "rate: MATCH (rel err < 1e-9)" in out
        assert "energy" in out

    def test_certify_skips_past_both_oracle_budgets(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        assert cli_main([
            "generate", "--users", "20", "--seed", "3", "--degradation", "0.05",
            "--deadline-ms", "1500", "--out", str(inst_path),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["certify", str(inst_path)]) == 0
        out, err = capsys.readouterr()
        assert out == (
            "rate: SKIPPED (instance above oracle budget)\n"
            "energy: SKIPPED (13 optional users above oracle budget)\n"
        )
        assert err == ""

    def test_sweep_cli_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert cli_main([
            "sweep", "--experiment", "rate-vs-d", "--grid", "0.0,0.1",
            "--realizations", "2", "--seed", "9", "--algorithms", "optimal,greedy",
            "--out", str(out_path),
        ]) == 0
        text = out_path.read_text()
        assert text.startswith("experiment,param,value,algorithm")
        assert len(text.strip().split("\n")) == 5

    def test_sweep_spec_file_with_flag_overrides(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "out.csv"
        spec_path.write_text(json.dumps({
            "experiment": "rate-vs-K",
            "grid": [4, 5],
            "realizations": 2,
            "base_seed": 3,
            "algorithms": ["optimal"],
        }))
        assert cli_main(["sweep", str(spec_path), "--out", str(out_path)]) == 0
        assert out_path.exists()

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        assert cli_main(["sweep"]) == 2
        assert "error:" in capsys.readouterr().err
        assert cli_main(["sweep", "--experiment", "rate-vs-K",
                         "--algorithms", "bogus", "--realizations", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        missing = tmp_path / "missing.json"
        assert cli_main(["solve-rate", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.strip("\n")

    @pytest.mark.parametrize("field, value", [
        ("realizations", "5"),
        ("grid", 5),
        ("certify", "no"),
    ])
    def test_mistyped_sweep_field_exits_2(self, tmp_path, capsys, field, value):
        spec_path = tmp_path / "spec.json"
        doc = {"experiment": "rate-vs-K", "realizations": 1, field: value}
        spec_path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and repr(field) in err

    @pytest.mark.parametrize("field, value", [
        ("offload_bits", [1]),
        ("scheduled", 5),
        ("compute_time", None),
    ])
    def test_mistyped_schedule_field_exits_2(self, tmp_path, capsys, field, value):
        inst_path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
        inst = generate_instance(GenerationSpec(n_users=3, deadline_s=0.6), 2)
        write_instance(inst, inst_path)
        doc = schedule_to_doc(solve_energy_suboptimal(inst))
        sched_path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(inst_path), str(sched_path)]) == 0
        capsys.readouterr()
        sched_path.write_text(json.dumps({**doc, field: value}))
        assert cli_main(["validate", str(inst_path), str(sched_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and field in err

    def test_byte_identical_sweep_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli_main([
                "sweep", "--experiment", "energy-vs-d", "--grid", "0.0,0.2",
                "--realizations", "2", "--seed", "4", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
