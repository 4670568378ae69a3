"""The perf gates CI runs (``tools/bench_gate.py``).

E11: the passing pair is the committed ``BENCH_e11.json`` against a
copy of itself from a machine twice as slow (the row guard normalises
machine speed away); each failing pair breaks one gate and must fail
that gate alone.

E18 (``--campaign``): the passing artifact is the committed
``BENCH_e18.json`` plus the idle-hook section a CI run adds with
``--fault-overhead``; each failing artifact breaks one campaign gate
and must fail that gate alone.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((REPO_ROOT / "BENCH_e11.json").read_text())
E18 = json.loads((REPO_ROOT / "BENCH_e18.json").read_text())

#: The ``fault_overhead`` section of a fresh ``bench_e18_campaign.py
#: --quick --fault-overhead`` run on a 2-vCPU machine.
FAULT_OVERHEAD = {
    "absent_cells": 32, "absent_seconds": 0.0396, "hook_visits": 99,
    "idle_cells": 32, "idle_seconds": 0.0393, "overhead_ratio": 0.0019,
    "per_visit_seconds": 7.7e-07, "reps": 3, "wallclock_ratio": -0.0073,
}


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


# ----------------------------------------------------------------------
# The campaign gates over BENCH_e18.json
# ----------------------------------------------------------------------
def _campaign_artifact():
    report = copy.deepcopy(E18)
    report["fault_overhead"] = dict(FAULT_OVERHEAD)
    return report


def _leg(report, label):
    return report["timeout_paths"]["worker_reuse"][label]


#: case -> (the campaign gate it breaks, how: a function of the report)
BROKEN_CAMPAIGN = {
    "pooled report diverged": (
        "pooled",
        lambda r: _set(r["timeout_paths"], "reports_identical", False),
    ),
    "pooled below 2x": (
        "pooled", lambda r: _set(r["timeout_paths"], "speedup", 1.9),
    ),
    "pooled leg fell back in-process": (
        "pooled", lambda r: _set(_leg(r, "pooled"), "in_process", True),
    ),
    "width-1 grid too small": (
        "pooled", lambda r: _set(_leg(r, "width1"), "cells", 1),
    ),
    "workers not reused": (
        "pooled",
        lambda r: _set(_leg(r, "pooled"), "distinct_worker_pids", 12),
    ),
    "no timeout_paths section": (
        "pooled", lambda r: r.pop("timeout_paths"),
    ),
    "idle hooks never visited": (
        "faultline", lambda r: _set(r["fault_overhead"], "hook_visits", 0),
    ),
    "idle hooks at 3%": (
        "faultline",
        lambda r: _set(r["fault_overhead"], "overhead_ratio", 0.03),
    ),
    "no fault_overhead section": (
        "faultline", lambda r: r.pop("fault_overhead"),
    ),
}


def _run_campaign(tmp_path, report):
    path = tmp_path / "BENCH_e18.json"
    path.write_text(json.dumps(report))
    return _load_gate().main(["--campaign", str(path)])


def test_campaign_artifact_passes_every_campaign_gate(tmp_path, capsys):
    report = _campaign_artifact()
    gate = _load_gate()
    for check in gate.CAMPAIGN_GATES.values():
        assert check(report) == []
    assert _run_campaign(tmp_path, report) == 0
    assert capsys.readouterr().out.endswith("bench gate: ok\n")


@pytest.mark.parametrize("case", sorted(BROKEN_CAMPAIGN))
def test_each_campaign_gate_fails_its_broken_artifact(case, tmp_path, capsys):
    broken_gate, breaks = BROKEN_CAMPAIGN[case]
    report = _campaign_artifact()
    breaks(report)
    gate = _load_gate()
    for name, check in gate.CAMPAIGN_GATES.items():
        assert bool(check(report)) == (name == broken_gate), name
    assert _run_campaign(tmp_path, report) == 1
    fails = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    ]
    assert fails and all(
        line.startswith(f"FAIL {broken_gate}:") for line in fails
    )
