"""The benchmark's span and count targets must name functions the library
has, so that a rename fails here rather than in `perfbench/run.py --trace 1`;
and the K = 100 frames and one round of each sweep workload must keep the
outputs whose digests the benchmark recorded, so that a solver change that
moves a bit fails here too.

The benchmark's own modules are loaded from `perfbench/`, read but not
run: `run.import_library` describes the library exactly as the benchmark
sees it."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling modules by their plain names
    sys.path.insert(0, str(PERFBENCH))
    try:
        return load("run")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def bench(run):
    return run.spans, run.import_library()


def targets():
    spans = load("spans")
    return spans.SPAN_TARGETS + spans.COUNT_TARGETS


@pytest.mark.parametrize("name", targets())
def test_target_resolves_in_its_defining_module(bench, name):
    _spans, lib = bench
    module, attr = name.split(".", 1)
    assert module in lib.MODULES
    target = getattr(getattr(lib, module), attr)
    assert callable(target)
    assert target.__module__ == f"{lib.package.__name__}.{module}"


def test_install_wraps_every_target_and_undo_restores(bench):
    spans, lib = bench
    originals = {
        name: getattr(getattr(lib, name.split(".")[0]), name.split(".", 1)[1])
        for name in targets()
    }
    patches = spans.install(lib, spans.Tracer())
    try:
        wrapped = {id(original) for _, _, original, _ in patches.log}
        assert wrapped == {id(fn) for fn in originals.values()}
        for name, original in originals.items():
            module, attr = name.split(".", 1)
            assert getattr(getattr(lib, module), attr) is not original, name
    finally:
        patches.undo()
    assert patches.restored()


def recorded_fingerprint(run, lib, name):
    """The benchmark's fingerprinted units of one workload (one round of a
    sweep workload, the 100 frames of large-K), run and checked as it does
    at its recorded seed: their combined digests, and the digests it
    recorded.  Neither file is written."""
    recorded = json.loads((PERFBENCH / "fingerprints.json").read_text(encoding="utf-8"))
    assert recorded["seed"] == run.DEFAULT_SEED == 20240
    workload = run.workloads.WORKLOADS[name]
    parts, problems = {}, []
    for index in range(workload.traced_units(lib)):
        verdict = workload.check(lib, workload.run(lib, recorded["seed"], index))
        problems += verdict.problems
        parts.update(verdict.fingerprint)
    assert problems == []
    assert len(parts) == workload.traced_units(lib)
    return run.workloads.combine_fingerprints(parts), recorded[name]


def test_large_k_frames_keep_their_recorded_fingerprint(run, bench):
    _spans, lib = bench
    combined, recorded = recorded_fingerprint(run, lib, "large-K")
    assert run.workloads.WORKLOADS["large-K"].traced_units(lib) == 100
    assert combined == recorded


@pytest.mark.parametrize("name", ["rate-sweep", "energy-sweep"])
def test_sweep_rounds_keep_their_recorded_fingerprint(run, bench, name):
    # one certified round of every stock grid point at 100 realizations, so
    # that a block or stack change that moves a CSV byte fails here
    _spans, lib = bench
    combined, recorded = recorded_fingerprint(run, lib, name)
    assert combined == recorded and len(recorded) == 2
