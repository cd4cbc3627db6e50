"""Smoke tests of the measuring scripts under `tools/`: each runs as a user
runs it, exits 0, prints what its docstring promises and writes no file."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(tmp_path, script, *args) -> list[str]:
    """The stdout lines of `python tools/<script> args`, run from an empty
    directory that must stay empty."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
    return done.stdout.splitlines()


def test_src_lines_totals_its_modules(tmp_path):
    header, *rows, total = run_tool(tmp_path, "src_lines.py", str(ROOT / "src"))
    assert header.split() == ["lines", "code", "module"]
    counts = [tuple(map(int, row.split()[:2])) for row in rows]
    assert [row.split()[2] for row in rows] == sorted(
        str(path.relative_to(ROOT / "src")) for path in (ROOT / "src").rglob("*.py"))
    assert all(0 <= code <= lines for lines, code in counts)
    lines, code, label = total.split()
    assert label == "total"
    assert (int(lines), int(code)) == tuple(map(sum, zip(*counts)))


def test_lp_layer_replays_one_round(tmp_path):
    # one replay of a certified energy-sweep round: about 0.4 s on 2 CPUs
    out = run_tool(tmp_path, "lp_layer.py", "--repeat", "1")
    stacks = re.fullmatch(
        r"energy-sweep round, seed 20240: (\d+) solve_lps calls, (\d+) stacks, (\d+) problems",
        out[0])
    assert stacks, out
    calls, stacks, problems = map(int, stacks.groups())
    assert 0 < calls <= stacks <= problems
    assert re.fullmatch(r"lockstep steps \d+, pivots \d+, steps on a fresh copy of the working "
                        r"stack \d+", out[1]), out
    assert re.fullmatch(r"solve_lps best of 1: [\d.]+ ms", out[2]), out
    form = re.fullmatch(r"standard form best of 1: [\d.]+ ms over (\d+) stacks", out[3])
    assert form and int(form.group(1)) == stacks, out
