import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mecoffload

from mecoffload import (
    ConfigurationError,
    GenerationSpec,
    brute_force_energy_batch,
    brute_force_rate_max_batch,
    feasibility_gap,
    generate_instance,
    generate_instances,
    harness,
    lp,
    oracle,
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
from mecoffload import rate as ratemod
from mecoffload.model import EnergySchedule
from mecoffload.rate import solve_rate_max
from mecoffload.rng import mix64
from support import (count_builds, count_closed_forms, empty_subset_lp, lp_key, make_instance,
                     make_user, subset_lps)


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

    @pytest.mark.parametrize("value", [4.5, 5.5, 0.0, -3.0, 0.5, math.nan, math.inf])
    def test_rate_vs_k_grid_takes_whole_user_counts(self, value):
        spec = sweep_spec_from_doc({"experiment": "rate-vs-K", "grid": [4.0, value]})
        with pytest.raises(ConfigurationError, match=f"whole user counts >= 1, not {value!r}$"):
            spec.normalized()

    @pytest.mark.parametrize("experiment, field, value, message", [
        ("energy-vs-d", "deadline_s", math.nan, "deadline must be finite and > 0, got nan"),
        ("rate-vs-K", "degradation", math.nan, "degradation must be finite and >= 0, got nan"),
        ("rate-vs-d", "n_users", -5, "n_users must be >= 0, got -5"),
        # values that once stood for the experiment's own
        ("energy-vs-d", "deadline_s", -1.0, "deadline must be finite and > 0, got -1.0"),
        ("energy-vs-T", "degradation", -0.5, "degradation must be finite and >= 0, got -0.5"),
        ("energy-vs-d", "deadline_s", math.inf, "deadline must be finite and > 0, got inf"),
    ])
    def test_bad_fixed_value_is_refused_by_name(self, experiment, field, value, message):
        # refused as the generator refuses it: the deadline and the
        # degradation by `Instance`'s rule, also where the grid sets the field
        expected = ConfigurationError if field == "n_users" else ValueError
        doc = {"experiment": experiment, "grid": [3.0], "realizations": 2, field: value}
        for spec in (SweepSpec(experiment=experiment, grid=(3.0,), realizations=2,
                               **{field: value}),
                     sweep_spec_from_doc(doc)):
            with pytest.raises(ValueError) as refused:
                spec.normalized()
            assert (type(refused.value), str(refused.value)) == (expected, message)

    def test_rate_vs_k_grid_value_is_the_user_count(self):
        spec = tiny_spec(grid=(1, 7.0), algorithms=("optimal",)).normalized()
        assert [harness._generation_spec(spec, v).n_users for v in spec.grid] == [1, 7]
        rows = [line.split(",") for line in run_sweep(spec).strip().split("\n")[1:]]
        assert [row[2] for row in rows] == ["1.0", "7.0"]


class TestExperimentValues:
    """A `SweepSpec` field left None, or null in a spec file, takes the
    experiment's value; any other value is used as given, so a bad one is
    refused by name before anything is drawn, never replaced."""

    @pytest.mark.parametrize("field", ["grid", "algorithms"])
    def test_empty_list_is_refused_by_name(self, field, tmp_path, capsys):
        message = f"{field} must not be empty"
        for make_spec in (lambda: SweepSpec(experiment="rate-vs-d", **{field: ()}),
                          lambda: sweep_spec_from_doc({"experiment": "energy-vs-d", field: []})):
            with pytest.raises(ValueError) as refused:
                make_spec().normalized()
            assert (type(refused.value), str(refused.value)) == (ConfigurationError, message)
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps({"experiment": "energy-vs-d", field: []}))
        assert cli_main(["sweep", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "", "grid must not be empty"),
        ("--grid", " , ", "grid must not be empty"),
        ("--algorithms", ",", "algorithms must not be empty"),
    ])
    def test_empty_flag_exits_2_with_no_csv(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--experiment", "rate-vs-d", f"{flag}={value}",
                         "--realizations", "1", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("experiment, grid, message", [
        ("energy-vs-d", "0.1,-0.1", "degradation must be finite and >= 0, got -0.1"),
        ("energy-vs-T", "0.4,0.0", "deadline must be finite and > 0, got 0.0"),
    ])
    def test_bad_grid_value_draws_nothing(self, experiment, grid, message, tmp_path, capsys,
                                          monkeypatch):
        draws = []
        generate = harness.generate_instances
        monkeypatch.setattr(harness, "generate_instances",
                            lambda spec, seeds: draws.append(spec) or generate(spec, seeds))
        spec = SweepSpec(experiment=experiment, grid=tuple(map(float, grid.split(","))),
                         realizations=2)
        with pytest.raises(ValueError) as refused:
            run_sweep(spec)
        assert (type(refused.value), str(refused.value)) == (ValueError, message)
        out = tmp_path / "out.csv"
        assert cli_main(["sweep", "--experiment", experiment, "--grid", grid,
                         "--realizations", "2", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert draws == [] and not out.exists()

    @pytest.mark.parametrize("experiment", ["rate-vs-K", "energy-vs-d"])
    def test_null_is_the_experiments_value(self, experiment, tmp_path):
        omitted = {"experiment": experiment, "realizations": 2, "base_seed": 5}
        nulls = {**omitted, **dict.fromkeys(
            ("grid", "algorithms", "n_users", "degradation", "deadline_s"))}
        csvs = []
        for name, doc in (("omitted", omitted), ("nulls", nulls)):
            spec_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            spec_path.write_text(json.dumps(doc))
            assert cli_main(["sweep", str(spec_path), "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].count(b"\n") == 1 + len(harness.DEFAULT_GRIDS[experiment]) * len(
            SweepSpec(experiment=experiment).normalized().algorithms)

    def test_explicit_zero_users_is_used_as_given(self):
        doc = {"experiment": "energy-vs-T", "grid": [0.4], "realizations": 2, "n_users": 0}
        spec = sweep_spec_from_doc(doc)
        assert spec.normalized().n_users == 0
        rows = [line.split(",") for line in run_sweep(spec).strip().split("\n")[1:]]
        # no user, no energy: every realization is feasible at zero
        assert [row[5:] for row in rows] == [["2", "0.0", "0.0"]] * 2
        # the rate solvers refuse an instance without users, so a rate
        # sweep refuses 0 users by name before anything is drawn
        with pytest.raises(ConfigurationError, match="^n_users must be >= 1 for rate-vs-d, got 0$"):
            run_sweep(SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=1, n_users=0))

    def test_zero_users_on_a_rate_sweep_draws_nothing(self, tmp_path, capsys, monkeypatch):
        draws = []
        generate = harness.generate_instances
        monkeypatch.setattr(harness, "generate_instances",
                            lambda spec, seeds: draws.append(spec) or generate(spec, seeds))
        message = "n_users must be >= 1 for rate-vs-d, got 0"
        doc = {"experiment": "rate-vs-d", "grid": [0.1], "realizations": 1, "n_users": 0}
        for spec in (SweepSpec(**{**doc, "grid": (0.1,)}), sweep_spec_from_doc(doc)):
            with pytest.raises(ValueError) as refused:
                run_sweep(spec)
            assert (type(refused.value), str(refused.value)) == (ConfigurationError, message)
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert draws == [] and not out.exists()

    @pytest.mark.parametrize("experiment, field, value", [
        ("rate-vs-K", "n_users", 3),
        ("rate-vs-d", "degradation", 0.1),
        ("energy-vs-T", "deadline_s", 5.0),
        ("energy-vs-d", "degradation", 0.2),
    ])
    def test_a_value_for_the_grids_field_is_refused(self, experiment, field, value, tmp_path,
                                                   capsys, monkeypatch):
        # the grid sets the field at every point, so a value given for it
        # would be ignored: it is refused by name before anything is drawn,
        # even where it equals the experiment's own
        draws = []
        generate = harness.generate_instances
        monkeypatch.setattr(harness, "generate_instances",
                            lambda spec, seeds: draws.append(spec) or generate(spec, seeds))
        message = f"{field} is set by the {experiment} grid and takes no value"
        doc = {"experiment": experiment, "realizations": 1, field: value}
        for spec in (SweepSpec(**doc), sweep_spec_from_doc(doc)):
            with pytest.raises(ValueError) as refused:
                run_sweep(spec)
            assert (type(refused.value), str(refused.value)) == (ConfigurationError, message)
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert draws == [] and not out.exists()
        # a bad value keeps the generator's refusal, and None the grid's value
        with pytest.raises(ValueError, match="must be"):
            SweepSpec(**{**doc, field: -1}).normalized()
        spec = SweepSpec(experiment=experiment, realizations=1).normalized()
        assert getattr(spec, field) is None and spec.normalized() == spec


class TestOneScalarRule:
    """A deadline or degradation is refused by one rule, `Instance`'s,
    with one type and one message, however it arrives."""

    CASES = [
        ("deadline_s", 0.0, "deadline must be finite and > 0, got 0.0"),
        ("deadline_s", -1.0, "deadline must be finite and > 0, got -1.0"),
        ("deadline_s", math.inf, "deadline must be finite and > 0, got inf"),
        ("deadline_s", math.nan, "deadline must be finite and > 0, got nan"),
        ("degradation", -1.0, "degradation must be finite and >= 0, got -1.0"),
        ("degradation", math.inf, "degradation must be finite and >= 0, got inf"),
        ("degradation", math.nan, "degradation must be finite and >= 0, got nan"),
    ]

    @staticmethod
    def refusal(call):
        with pytest.raises(ValueError) as refused:
            call()
        return type(refused.value), str(refused.value)

    @pytest.mark.parametrize("field, value, message", CASES)
    def test_library_refusals(self, field, value, message):
        scalars = {"deadline_s": 0.5, "degradation": 0.1, field: value}
        expected = (ValueError, message)
        assert self.refusal(lambda: mecoffload.Instance(
            deadline=scalars["deadline_s"], degradation=scalars["degradation"],
            users=())) == expected
        assert self.refusal(lambda: generate_instances(
            GenerationSpec(n_users=3, **scalars), [1, 2])) == expected
        assert self.refusal(lambda: generate_instances(
            GenerationSpec(n_users=3, **scalars), [])) == expected
        # the grid of energy-vs-d sets the degradation, and energy-vs-T's the deadline
        experiment = "energy-vs-d" if field == "deadline_s" else "energy-vs-T"
        assert self.refusal(lambda: SweepSpec(
            experiment=experiment, realizations=1, **{field: value}).normalized()) == expected

    @pytest.mark.parametrize("field, value, message", CASES)
    def test_generate_command(self, field, value, message, tmp_path, capsys):
        out = tmp_path / "instance.json"
        flag = (f"--deadline-ms={value * 1000.0}" if field == "deadline_s"
                else f"--degradation={value}")
        assert cli_main(["generate", "--users", "3", flag, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


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

    # Uncertified, no oracle runs first, so the heuristic builds every
    # LP-branch LP itself: 11 of the first grid point's 20 draws of
    # energy-vs-T, in one block.
    UNCERTIFIED = {
        "energy-vs-T": "347561309daa615a1ae032cf59e485dd62d14559e4845908d60dea640d0302d0",
        "energy-vs-d": "2bbd57e36484c439fc03e1f7c861ba67da7deb53ad87dbad1c7ad7d5af1692e2",
    }

    @pytest.mark.parametrize("experiment", sorted(UNCERTIFIED))
    def test_uncertified_sweep_digest(self, experiment, tmp_path):
        out = tmp_path / f"{experiment}.csv"
        assert cli_main([
            "sweep", "--experiment", experiment, "--realizations", "20", "--seed", "7",
            "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.UNCERTIFIED[experiment]


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
        run_sweep(SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=240))
        capacity = harness._block(10)
        # `optimal` and `lr` share the one solve of each block
        assert draws == solves == [capacity, capacity, 240 - 2 * capacity]

    def test_a_certified_block_calls_each_batch_once(self, monkeypatch):
        # every algorithm and the certifying oracle take each block whole:
        # one call per block, and none per instance
        calls = []

        def counting(name, batch):
            def wrapper(instances, *args):
                calls.append((name, len(instances)))
                return batch(instances, *args)
            return wrapper

        for name in ("greedy", "all-offload"):
            monkeypatch.setitem(harness.RATE_ALGORITHMS, name,
                                counting(name, harness.RATE_ALGORITHMS[name]))
        for name in ("solve_rate_max_batch", "brute_force_rate_max_batch"):
            monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
        for name in ("conditional_solution", "benchmark_greedy", "benchmark_all_offloading"):
            monkeypatch.setattr(ratemod, name, None)  # a per-instance call would fail
        monkeypatch.setattr(oracle, "brute_force_rate_max", None)
        run_sweep(SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=240, certify=True))
        capacity = harness._block(10)
        names = ("brute_force_rate_max_batch", "solve_rate_max_batch", "greedy", "all-offload")
        assert calls == [
            (name, size) for size in (capacity, capacity, 240 - 2 * capacity) for name in names
        ]

    def test_a_wrapped_algorithm_entry_is_the_one_called(self, monkeypatch):
        # a wrapper set on an entry of the algorithm table is the one a
        # sweep calls, as a tracer that wraps functions where they are
        # looked up needs
        spec = SweepSpec(experiment="rate-vs-d", grid=(0.1,), realizations=30,
                         algorithms=("greedy",))
        plain = run_sweep(spec)
        calls = []
        greedy = harness.RATE_ALGORITHMS["greedy"]

        def counting(instances):
            calls.append(instances)
            return greedy(instances)

        monkeypatch.setitem(harness.RATE_ALGORITHMS, "greedy", counting)
        assert run_sweep(spec) == plain
        assert [len(block) for block in calls] == [30]

    @pytest.mark.parametrize("experiment, value", [("rate-vs-K", 12.0), ("rate-vs-d", 0.3)])
    def test_each_closed_form_once_per_block(self, experiment, value, monkeypatch):
        # the oracle's winner is the `optimal` set, and at stock rates
        # greedy's set is the all-offload set: one scope forms each once
        spec = SweepSpec(experiment=experiment, grid=(value,), base_seed=7, certify=True)
        generation = harness._generation_spec(spec.normalized(), value)
        spec = dataclasses.replace(spec, realizations=harness._block(generation.n_users))
        instances = generate_instances(
            generation, [mix64(7, 0, ri) for ri in range(spec.realizations)])
        rows = zip(brute_force_rate_max_batch(instances),
                   *(harness.RATE_ALGORITHMS[name](instances)
                     for name in ("optimal", "greedy", "all-offload")))
        distinct = sum(len({s.scheduled for s in row}) for row in rows)
        assert distinct <= 2 * spec.realizations  # of four rows per instance
        formed = count_closed_forms(monkeypatch)
        run_sweep(spec)
        assert len(formed) == len(set(formed)) == distinct


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
        run_sweep(SweepSpec(experiment="energy-vs-d", grid=(0.2,), realizations=240,
                            certify=True))
        # the all-offload LP of K = 10 users has 21 rows over 11 columns; a
        # stack holds a stock grid point's 100 of them
        capacity = lp.STACK_ENTRIES // lp._entries(21, 11)
        assert calls == [capacity, capacity, 240 - 2 * capacity]
        assert lp.stack_capacity(21, 11) == capacity and 100 <= capacity < 120

    def test_a_stock_grid_point_is_one_block_and_one_full_subset_stack(self, monkeypatch):
        # a certified stock energy-vs-T point at 100 realizations: one
        # oracle batch, whose first stage stacks every full-subset LP at
        # once.  At T = 0.35 s every stock user is forced, so the block
        # needs no other LP.
        calls = []
        batch = harness.brute_force_energy_batch

        def counting(instances, *args):
            calls.append(len(instances))
            return batch(instances, *args)

        monkeypatch.setitem(harness.ENERGY_ALGORITHMS, "oracle", counting)
        spec = SweepSpec(experiment="energy-vs-T", grid=(0.35,), realizations=100,
                         base_seed=20240, certify=True)
        generation = harness._generation_spec(spec.normalized(), 0.35)
        instances = generate_instances(generation, [mix64(20240, 0, ri) for ri in range(100)])
        fulls = [lp_key(subset_lps(i)[-1]) for i in instances
                 if feasibility_gap(i, i.deadline) <= 0.0]
        assert 90 < len(fulls) < 100  # some draws are below t_min, and take no LP
        blocks = stacked_keys(monkeypatch)
        stacks = []
        solve = lp._solve_stack

        def sizing(problems):
            stacks.append(len(problems))
            return solve(problems)

        monkeypatch.setattr(lp, "_solve_stack", sizing)
        run_sweep(spec)
        [block] = blocks[1:]
        assert calls == [100]
        assert stacks == [len(fulls)] and block == fulls

    @pytest.mark.parametrize("experiment, value, exhaustive, pruned, refused", [
        # one LP each; one draw is below t_min
        pytest.param("energy-vs-T", 0.35, 20, 19, 1, id="energy-vs-T-0.35"),
        pytest.param("energy-vs-d", 0.3, 34, 21, 0, id="energy-vs-d-0.3"),
    ])
    def test_only_the_oracle_lps_reach_the_simplex(self, experiment, value, exhaustive, pruned,
                                                    refused, monkeypatch):
        # No stock user is costly, so the all-offload LP is the oracle's
        # full-subset LP; the heuristic's LP branch solves the empty-subset
        # LP, which the oracle solves only where that subset could win.  No
        # row builds an LP for a draw whose deadline is below t_min (for
        # the all-offload row, `TestAllOffloadRefusal` in test_energy.py).  A
        # block stacks each distinct LP once: the oracle's and the LP-branch
        # LPs the oracle skipped.
        spec = SweepSpec(experiment=experiment, grid=(value,), realizations=20, base_seed=7,
                         certify=True)
        generation = harness._generation_spec(spec.normalized(), value)
        instances = [generate_instance(generation, mix64(7, 0, ri)) for ri in range(20)]
        assert sum(p is not None for i in instances for p in subset_lps(i)) == exhaustive
        lp_branch = [
            lp_key(empty_subset_lp(i))
            for i in instances if solve_energy_suboptimal(i).status == "lp-path"
        ]
        assert lp_branch
        below = [i for i in instances if feasibility_gap(i, i.deadline) > 0.0]
        assert len(below) == refused
        blocks = stacked_keys(monkeypatch)
        brute_force_energy_batch([dataclasses.replace(i) for i in instances])
        oracle_keys = blocks.pop()
        assert len(oracle_keys) == pruned
        run_sweep(spec)
        assert len(blocks) == 1  # the grid point's 20 realizations, one block
        for block in blocks:
            assert len(set(block)) == len(block)
        skipped = [key for key in lp_branch if key not in set(oracle_keys)]
        assert Counter(key for block in blocks for key in block) == Counter(
            oracle_keys + skipped)

    def test_a_certified_block_builds_each_lp_once(self, monkeypatch):
        # the oracle builds its LPs; the all-offload LPs and the LP-branch
        # LPs the oracle solved are its plans, neither rebuilt nor restacked
        builds = count_builds(monkeypatch)
        blocks = stacked_keys(monkeypatch)
        run_sweep(SweepSpec(experiment="energy-vs-d", grid=(0.3,), realizations=55, base_seed=7,
                            certify=True))
        [block] = blocks[1:]
        assert builds.problems == len(block) == len(set(block)) > 55

    def test_an_uncertified_block_builds_the_shared_lp_once(self, monkeypatch):
        # At T = 0.35 s every stock user is forced, so no instance has a
        # free saving user: its LP-branch LP is its full-subset LP, which
        # is its all-offload LP too.  The heuristic runs first; the
        # all-offload row takes its plans.  The draw below t_min takes none.
        spec = SweepSpec(experiment="energy-vs-T", grid=(0.35,), realizations=20, base_seed=7)
        generation = harness._generation_spec(spec.normalized(), 0.35)
        instances = [generate_instance(generation, mix64(7, 0, ri)) for ri in range(20)]
        assert not any(i.partition.free_saving for i in instances)
        assert any(solve_energy_suboptimal(i).status == "lp-path" for i in instances)
        builds = count_builds(monkeypatch)
        blocks = stacked_keys(monkeypatch)
        run_sweep(spec)
        [block] = blocks[1:]
        assert builds.problems == len(block) == len(set(block)) == 19

    def test_the_oracle_row_reuses_the_references(self, monkeypatch):
        # A certified block's references are its oracle row: one oracle
        # batch per block (7 grid points of one block of 100
        # realizations), and the same rows as the uncertified sweep, which
        # solves the oracle row on its own.
        calls = []
        batch = harness.brute_force_energy_batch

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return batch(*args, **kwargs)

        monkeypatch.setitem(harness.ENERGY_ALGORITHMS, "oracle", counting)
        spec = SweepSpec(experiment="energy-vs-d", realizations=100, base_seed=7, certify=True,
                         algorithms=("suboptimal", "all-offload", "oracle"))
        certified = run_sweep(spec).strip().split("\n")
        assert calls == [100] * 7
        plain = run_sweep(dataclasses.replace(spec, certify=False)).strip().split("\n")
        assert [line.rsplit(",", 2)[0] for line in certified] == plain
        for row in csv.DictReader(certified):
            if row["algorithm"] == "oracle":
                assert row["certified"] == row["feasible"] and row["max_rel_gap"] == "0.0"


def stacked_keys(monkeypatch):
    """The keys (`lp_key`) of the problems that reach `lp._solve_stack`
    from here on: one list of them so far, and a new one for each block
    that `run_sweep` draws with `generate_instances`."""
    blocks = [[]]
    solve, generate = lp._solve_stack, harness.generate_instances

    def recording(problems):
        blocks[-1].extend(lp_key(p) for p in problems)
        return solve(problems)

    def drawing(*args, **kwargs):
        blocks.append([])
        return generate(*args, **kwargs)

    monkeypatch.setattr(lp, "_solve_stack", recording)
    monkeypatch.setattr(harness, "generate_instances", drawing)
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

    def test_the_module_prints_the_same_bytes(self):
        # `python -m mecoffload` from the source tree, without installing
        env = {**os.environ, "PYTHONPATH": str(Path(mecoffload.__file__).parents[1])}
        done = subprocess.run([
            sys.executable, "-m", "mecoffload", "sweep", "--experiment", "rate-vs-K",
            "--realizations", "20", "--seed", "7", "--certify",
        ], capture_output=True, env=env, check=True)
        assert hashlib.sha256(done.stdout).hexdigest() == self.DIGESTS["rate-vs-K"]


class TestStockSweepBytes:
    """The four stock experiments at their stock size (500 realizations,
    seed 7), plain and certified, byte for byte: the reference behaviour
    every change to the solvers must keep."""

    DIGESTS = {  # by (experiment, certify)
        ("rate-vs-K", False): "286e6bc97296cb7b853a89591107a90c4b7e4c79468258e6884974d86a663d47",
        ("rate-vs-K", True): "6698fc04c6f94987215bc837f586a794d60a9bfe1c515170540dafa938ba7ea3",
        ("rate-vs-d", False): "2b44977d38cf99bab2e013a589915e619272a192e079f575c28e42d8eb716354",
        ("rate-vs-d", True): "d8de149414c344906454a69fbe2e0fff919c2af8395abc1327071b201ecf3d55",
        ("energy-vs-T", False): "a267856e1ef007083f1b4b034947aadf513ab97b97292345cfdcdc88390eaee3",
        ("energy-vs-T", True): "a9fc37a9c76ecb4cb8e25acb49500cf9ed00901e91908028336514638d58b7f5",
        ("energy-vs-d", False): "657c2b5fa5241df38a3420f1f291eb57c33a26e908b345d608f48436769334d9",
        ("energy-vs-d", True): "67047ffdfa894ea991ee0ee335b9aaef7161cc7d4fb227e691e88e0d8ccd4a70",
    }

    @pytest.mark.parametrize("experiment, certify", sorted(DIGESTS))
    def test_stock_sweep_digest(self, experiment, certify):
        text = run_sweep(SweepSpec(experiment=experiment, realizations=500, base_seed=7,
                                   certify=certify))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[experiment, certify]


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

    def test_certify_zero_energy_totals(self, tmp_path, capsys):
        # every task is 0 bits, so both energy totals are 0: the gap is 0,
        # not a division by zero
        inst_path = tmp_path / "inst.json"
        write_instance(generate_instance(GenerationSpec(n_users=4, task_kb=(0.0, 0.0),
                                                        deadline_s=0.5), 1), inst_path)
        assert cli_main(["certify", str(inst_path)]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("energy gap: 0.0000%\n")
        assert err == ""

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

    @pytest.mark.parametrize("grid", ["4.5", "5.5", "nan", "0", "4,-1"])
    def test_fractional_user_count_exits_2(self, capsys, grid):
        assert cli_main(["sweep", "--experiment", "rate-vs-K", "--grid", grid,
                         "--realizations", "1"]) == 2
        err = capsys.readouterr().err
        value = repr(float(grid.split(",")[-1]))
        assert err == f"error: rate-vs-K grid values must be whole user counts >= 1, not {value}\n"

    @pytest.mark.parametrize("field, value", [
        ("deadline_s", math.nan),
        ("degradation", math.nan),
        ("n_users", -5),
        ("deadline_s", -1.0),
        ("degradation", -0.5),
        ("deadline_s", math.inf),
    ])
    def test_bad_fixed_value_in_spec_file_exits_2(self, tmp_path, capsys, field, value):
        spec_path, csv_path = tmp_path / "spec.json", tmp_path / "out.csv"
        doc = {"experiment": "energy-vs-d", "realizations": 2, "grid": [0.1], field: value}
        spec_path.write_text(json.dumps(doc))  # nan and inf are written as NaN and Infinity
        assert cli_main(["sweep", str(spec_path), "--out", str(csv_path)]) == 2
        out, err = capsys.readouterr()
        name = field.removesuffix("_s")  # `Instance`'s rule names the deadline without its unit
        assert out == "" and err.startswith(f"error: {name} must be ")
        assert err.endswith(f", got {value}\n") and err.count("\n") == 1
        assert not csv_path.exists()

    @pytest.mark.parametrize("experiment, algorithms", [
        ("rate-vs-d", "optimal,optimal"),
        ("energy-vs-d", "suboptimal,all-offload,suboptimal"),
    ])
    def test_repeated_algorithm_exits_2(self, capsys, experiment, algorithms):
        # a repeated name would count each realization's sample twice
        assert cli_main(["sweep", "--experiment", experiment, "--grid", "0.1", "--algorithms",
                         algorithms, "--realizations", "3", "--certify"]) == 2
        out, err = capsys.readouterr()
        name = algorithms.split(",")[0]
        assert out == "" and err == f"error: algorithm {name!r} is named more than once\n"

    @pytest.mark.parametrize("users", ["1e19", "1e20"])
    def test_oversized_user_count_exits_2(self, tmp_path, capsys, users):
        # numpy refuses these sizes before it allocates anything
        n = int(float(users))
        out = tmp_path / "instance.json"
        for argv in (["sweep", "--experiment", "rate-vs-K", "--grid", users, "--realizations", "1"],
                     ["generate", "--users", str(n), "--out", str(out)]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot draw {n} users for 1 seed(s): ")
            assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("realizations", "5"),
        ("grid", 5),
        ("certify", "no"),
        ("realizations", None),  # null stands for the experiment's value only
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
        # keys that would name user 1 besides "1" itself, the last one winning
        ("offload_bits", {"1": 5.0, "01": 6.0, "\u0661": 7.0}),
        ("offload_bits", {"01": 5.0}),
        ("offload_bits", {"\u0661": 5.0}),
        ("offload_bits", {"00": 5.0}),
        # past int()'s digit limit, and past any list's length at 20 digits
        ("offload_bits", {"1" * 5000: 0.0}),
        ("offload_bits", {"1" * 20: 0.0}),
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

    @pytest.mark.parametrize("field, value", [("scheduled", [0, 7]), ("offload_bits", {"7": 0.0})])
    def test_unknown_user_is_printed_unquoted(self, tmp_path, capsys, field, value):
        # the str of a KeyError is the repr of its message
        inst_path, sched_path = tmp_path / "inst.json", tmp_path / "sched.json"
        inst = generate_instance(GenerationSpec(n_users=3, deadline_s=0.6), 2)
        write_instance(inst, inst_path)
        doc = schedule_to_doc(solve_energy_suboptimal(inst))
        sched_path.write_text(json.dumps({**doc, field: value}))
        assert cli_main(["validate", str(inst_path), str(sched_path)]) == 2
        assert capsys.readouterr() == ("", "error: schedule references unknown user 7\n")

    def test_byte_identical_sweep_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert cli_main([
                "sweep", "--experiment", "energy-vs-d", "--grid", "0.0,0.2",
                "--realizations", "2", "--seed", "4", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
