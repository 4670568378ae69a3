"""The perf gates CI runs (``tools/bench_gate.py --campaign``).

The passing artifact is the committed ``BENCH_e18.json`` plus the
idle-hook section every fresh ``benchmarks/bench_e18_campaign.py`` run
writes; each failing artifact breaks one campaign gate and must fail
that gate alone.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
E18 = json.loads((REPO_ROOT / "BENCH_e18.json").read_text())

#: The ``fault_overhead`` section of a fresh ``bench_e18_campaign.py``
#: run on a 2-vCPU machine.
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


def _set(mapping, key, value):
    mapping[key] = value


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


def test_only_the_campaign_form_is_accepted(tmp_path, capsys):
    path = tmp_path / "BENCH_e18.json"
    path.write_text(json.dumps(_campaign_artifact()))
    gate = _load_gate()
    assert gate.main([str(path), str(path)]) == 2
    assert gate.main(["--campaign"]) == 2
    assert "--campaign BENCH_e18.json" in capsys.readouterr().err
