"""The E11 perf gates CI runs (``tools/bench_gate.py``).

The passing pair is the committed ``BENCH_e11.json`` against a copy of
itself from a machine twice as slow (the row guard normalises machine
speed away); each failing pair breaks one gate and must fail that gate
alone.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((REPO_ROOT / "BENCH_e11.json").read_text())


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", REPO_ROOT / "tools" / "bench_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _slower_machine():
    """The committed artifact as a machine at half the speed reads it."""
    fresh = copy.deepcopy(COMMITTED)
    for row in fresh["adversaries"].values():
        row["batched_rounds_per_second"] /= 2
        row["scalar_kernel_rounds_per_second"] /= 2
    return fresh


def _set(mapping, key, value):
    mapping[key] = value


#: case -> (the gate it breaks, how: a function of (committed, fresh))
BROKEN = {
    "kernel off in the fresh run": (
        "capture", lambda c, f: _set(f, "array_kernel", False),
    ),
    "capture below its floor": (
        "capture",
        lambda c, f: _set(
            c["adversaries"]["capture"], "batched_rounds_per_second", 1600.0,
        ),
    ),
    "summary below its floor": (
        "summary",
        lambda c, f: _set(c["results"]["summary"], "rounds_per_second",
                          11000.0),
    ),
    "n-scaling row missing": (
        "summary", lambda c, f: f["n_scaling"].pop("1024"),
    ),
    "kernel slower than scalar": (
        "summary",
        lambda c, f: _set(f["n_scaling"]["16"], "kernel_speedup", 0.9),
    ),
    "adversary row missing": (
        "rows", lambda c, f: f["adversaries"].pop("alpha"),
    ),
    "one row 25% behind its peers": (
        "rows",
        lambda c, f: _set(
            f["adversaries"]["partition"], "batched_rounds_per_second",
            0.75 * f["adversaries"]["partition"]["batched_rounds_per_second"],
        ),
    ),
}


def _run(tmp_path, committed, fresh):
    paths = []
    for name, artifact in (("committed", committed), ("fresh", fresh)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(artifact))
        paths.append(str(path))
    return _load_gate().main(paths)


def test_committed_artifact_passes_every_gate(tmp_path, capsys):
    committed, fresh = copy.deepcopy(COMMITTED), _slower_machine()
    gate = _load_gate()
    for check in gate.GATES.values():
        assert check(committed, fresh) == []
    assert _run(tmp_path, committed, fresh) == 0
    assert capsys.readouterr().out.endswith("bench gate: ok\n")


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_each_gate_fails_its_broken_pair(case, tmp_path, capsys):
    broken_gate, breaks = BROKEN[case]
    committed, fresh = copy.deepcopy(COMMITTED), _slower_machine()
    breaks(committed, fresh)
    gate = _load_gate()
    for name, check in gate.GATES.items():
        assert bool(check(committed, fresh)) == (name == broken_gate), name
    assert _run(tmp_path, committed, fresh) == 1
    fails = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    ]
    assert fails and all(
        line.startswith(f"FAIL {broken_gate}:") for line in fails
    )
