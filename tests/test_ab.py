"""The A/B verdict of ``tools/ab.py`` and the committed A/B artifacts.

The verdict is a pure function of the run records: the change must win
at least nine tenths of the pairs and beat the parent's median by more
than the parent's interquartile range.  Synthetic pairs pin a clear
win, a win that is only the host drifting under both sides, and a loss;
PR 27's recorded per-run ``cells_per_s`` reproduce its three verdicts;
``repro all`` runs are correct only with the parent's output digest, and
their ``wall_s`` verdict is lower-is-better; and every committed
``BENCH_ab_*.json`` must parse and carry the verdict and summary its
own runs give.
"""

from __future__ import annotations

import copy
import glob
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab", REPO_ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent, change, metric="cells_per_s"):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, value in (("parent", p), ("change", c)):
            runs.append({"pair": pair, "side": side, "correct": True,
                         "metrics": {metric: value}})
    return runs


BASE = [800.0, 812.0, 790.0, 805.0, 798.0, 820.0, 795.0, 808.0, 801.0,
        803.0]


def test_a_clear_win_is_met(ab):
    v = ab.verdict(_runs(BASE, [b * 1.2 for b in BASE]), "cells_per_s",
                   True)
    assert (v["pairs_won"], v["pairs_needed"], v["met"]) == (10, 9, True)


def test_a_win_that_is_only_drift_is_not_met(ab):
    # The host speeds up pair by pair under both sides; the change wins
    # every pair by 1%, far less than the parent's own spread.
    parent = [600.0 + 40 * i for i in range(10)]
    v = ab.verdict(_runs(parent, [p * 1.01 for p in parent]),
                   "cells_per_s", True)
    assert v["pairs_won"] == 10
    assert v["median_gain"] < v["parent_iqr"]
    assert not v["met"]


def test_a_loss_is_not_met_and_direction_is_honoured(ab):
    v = ab.verdict(_runs(BASE, [b * 0.8 for b in BASE]), "cells_per_s",
                   True)
    assert (v["pairs_won"], v["met"]) == (0, False)
    # The same numbers as latencies, where lower is better, are a win.
    v = ab.verdict(_runs(BASE, [b * 0.8 for b in BASE], "cell_ms_p50"),
                   "cell_ms_p50", False)
    assert (v["pairs_won"], v["met"]) == (10, True)


def test_a_failed_change_run_voids_the_claim(ab):
    runs = _runs(BASE, [b * 1.2 for b in BASE])
    runs[3]["correct"] = False  # pair 1's change run
    assert not ab.verdict(runs, "cells_per_s", True)["met"]


def _evaluation_runs(parent, change):
    """``repro all`` runs that all exited 0 and printed the same bytes."""
    runs = _runs(parent, change, "wall_s")
    for run in runs:
        run.update(returncode=0, stdout_sha256="a" * 64)
    return runs


WALL = [12.1, 11.8, 12.6, 12.0, 13.1]


def test_a_digest_mismatch_makes_an_evaluation_run_incorrect(ab):
    runs = _evaluation_runs(WALL, [w * 0.5 for w in WALL])
    runs[3]["stdout_sha256"] = "b" * 64  # pair 1's change run
    runs[4]["returncode"] = 1  # pair 2's parent run, right bytes
    ab.check_digests(runs)
    assert [run["correct"] for run in runs] == [
        True, True, True, False, False, True, True, True, True, True,
    ]
    v = ab.verdict(runs, *ab.verdict_metric(ab.ALL, {}))
    assert (v["pairs_won"], v["change_runs_correct"], v["met"]) \
        == (5, False, False)
    # The reference is the first parent run: when it is the odd one
    # out, every other run is incorrect.
    runs = _evaluation_runs(WALL, WALL)
    runs[0]["stdout_sha256"] = "c" * 64
    assert [run["correct"] for run in ab.check_digests(runs)] \
        == [True] + [False] * 9


def test_evaluation_wall_s_verdict_is_lower_is_better(ab):
    metric, higher = ab.verdict_metric(ab.ALL, {})
    assert (metric, higher) == ("wall_s", False)
    faster = ab.check_digests(_evaluation_runs(
        BASE, [b * 0.8 for b in BASE]))
    v = ab.verdict(faster, metric, higher)
    assert (v["pairs_won"], v["met"]) == (10, True)
    slower = ab.check_digests(_evaluation_runs(
        BASE, [b * 1.2 for b in BASE]))
    v = ab.verdict(slower, metric, higher)
    assert (v["pairs_won"], v["met"]) == (0, False)
    assert v["median_gain"] < 0


#: PR 27's recorded per-run ``cells_per_s`` (CHANGES.md), pairs 0-9,
#: with the medians, parent quartiles and verdicts it reported.
PR27 = {
    "e18-small": (
        [985.9, 835.1, 752.4, 909.6, 711.2, 913.8, 789.0, 875.1, 683.8,
         682.5],
        [1115.2, 1140.2, 843.5, 863.0, 790.2, 906.8, 833.9, 979.0, 766.2,
         844.8],
        (812.0, 721.5, 901.0, 853.9, 8, False),
    ),
    "e18-small second batch": (
        [660.6, 623.4, 716.0, 807.7, 720.8, 791.3, 748.5, 779.2, 793.9,
         853.6],
        [772.0, 705.5, 801.8, 983.8, 798.7, 913.1, 774.5, 876.1, 917.5,
         990.1],
        (763.8, 717.2, 793.2, 839.0, 10, False),
    ),
    "e19-churn": (
        [599.5, 603.1, 474.5, 486.6, 436.3, 449.4, 508.8, 482.3, 409.6,
         402.0],
        [779.5, 686.1, 587.9, 702.4, 648.0, 601.9, 608.1, 601.6, 542.5,
         548.2],
        (478.4, 439.6, 503.3, 605.0, 10, True),
    ),
}


@pytest.mark.parametrize("batch", sorted(PR27))
def test_pr27_runs_reproduce_its_verdicts(ab, batch):
    parent, change, expected = PR27[batch]
    median, q1, q3, change_median, won, met = expected
    runs = _runs(parent, change)
    cmp_ = ab.compare(runs, "cells_per_s", True)
    # CHANGES.md printed one decimal.
    assert [cmp_["parent"][k] for k in ("median", "q1", "q3")] \
        == pytest.approx([median, q1, q3], abs=0.051)
    assert cmp_["change"]["median"] == pytest.approx(change_median,
                                                     abs=0.051)
    v = ab.verdict(runs, "cells_per_s", True)
    assert (v["pairs_won"], v["met"]) == (won, met)


def test_committed_ab_artifacts_match_their_runs(ab):
    paths = sorted(glob.glob(str(REPO_ROOT / "BENCH_ab_*.json")))
    assert paths, "no committed BENCH_ab_*.json"
    with open(REPO_ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        assert Path(path).name == f"BENCH_ab_{doc['workload']}.json"
        runs = doc["runs"]
        pairs = doc["protocol"]["pairs"]
        assert len(runs) == 2 * pairs
        # Alternating order: the parent runs first on even pairs.
        for run in runs:
            first = "parent" if run["pair"] % 2 == 0 else "change"
            assert (run["position"] == 0) == (run["side"] == first)
        metric, higher = ab.verdict_metric(doc["workload"], spec)
        evaluation = doc["workload"] == ab.ALL
        assert doc["verdict"]["metric"] == metric
        assert doc["protocol"]["seed"] == (None if evaluation else ab.SEED)
        if evaluation:
            assert runs == ab.check_digests(copy.deepcopy(runs))
        assert doc["verdict"] == ab.verdict(runs, metric, higher)
        assert doc["summary"] == ab.summarise(runs, spec)
