#!/usr/bin/env python
"""Interleaved A/B runs of perfbench: parent tree against change tree.

Usage::

    python tools/ab.py --parent ../parent --change . \
        --workload e18-small --pairs 10 --seconds 20
    python tools/ab.py --parent ../parent --change . --workload all \
        --pairs 5

Each pair runs ``perfbench/run.py --workload W --seed 0 --seconds T
--trace 0`` once in each tree, each run a fresh process of this
interpreter, the parent first on even pairs and the change first on odd
ones.  For each run the tool records every end-to-end metric the run
printed, whether it was correct, its wall time, and the CPU seconds of
its whole process tree (the ``RUSAGE_CHILDREN`` delta around the run:
perfbench, its set-up probes and its dispatcher workers), from which it
derives ``cells_per_cpu_s``, the cells the run attempted per CPU
second.  That figure is a diagnostic, not a cost comparison: the CPU
seconds include the run's fixed work (set-up probes, warm-up and
reference run), which a tree attempting more cells in the fixed run
length spreads over more cells, so it reads higher for the faster tree
even when each cell costs the same.  It writes
``BENCH_ab_<workload>.json``: the runs, each metric's medians and
quartiles with the pairs the change won and its ``BENCHMARK.json``
bound, and the verdict on ``cells_per_s``.

The verdict is :func:`verdict`, a pure function of the run records: the
change must win at least nine tenths of the pairs (ties count for
neither side), its median must beat the parent's by more than the
parent's interquartile range, and no change run may fail.  Quartiles are
linear interpolation over the sorted values (``statistics.quantiles``,
inclusive).  Standard library only; the tool touches nothing but its
own child processes.

``--workload all`` times the whole evaluation instead: each run is
``python -m repro all`` in the tree (its ``src`` on ``PYTHONPATH``;
``--seconds`` does not apply), recorded with its wall and CPU seconds
and the SHA-256 of what it printed.  A run is correct only if it exits
0 and its digest equals the parent's, the digest of the first parent
run (:func:`check_digests`).  The verdict is on ``wall_s``, lower is
better, and the file is ``BENCH_ab_all.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Share of the pairs the change must win for a gain to be claimed.
WIN_SHARE = 0.9

#: The two sides, in the order even pairs run them.
SIDES = ("parent", "change")

#: The perfbench seed of every run.
SEED = 0

#: The metric the verdict is on.
METRIC = "cells_per_s"

#: The ``--workload`` that runs ``python -m repro all``; its verdict is
#: on :data:`ALL_METRIC`, lower is better.
ALL = "all"
ALL_METRIC = "wall_s"


def verdict_metric(workload: str, spec: Dict[str, Any]) -> Tuple[str, bool]:
    """The metric ``workload``'s verdict is on, and whether higher is
    better (from ``spec``, ``BENCHMARK.json``, for perfbench metrics)."""
    if workload == ALL:
        return ALL_METRIC, False
    better = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    return METRIC, better[METRIC]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, linear interpolation (inclusive method)."""
    if len(values) == 1:
        (only,) = values
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _by_pair(runs: Sequence[Dict[str, Any]], metric: str, side: str
             ) -> Dict[int, float]:
    return {
        run["pair"]: run["metrics"][metric] for run in runs
        if run["side"] == side and metric in run["metrics"]
    }


def compare(runs: Sequence[Dict[str, Any]], metric: str,
            higher_is_better: bool) -> Dict[str, Any]:
    """One metric across the pairs: each side's quartiles, the pairs
    the change won, and the change's median gain (positive = better)."""
    parent = _by_pair(runs, metric, "parent")
    change = _by_pair(runs, metric, "change")
    pairs = sorted(set(parent) & set(change))
    sign = 1.0 if higher_is_better else -1.0
    won = sum(1 for p in pairs if sign * (change[p] - parent[p]) > 0)
    parent_q = quartiles([parent[p] for p in pairs])
    change_q = quartiles([change[p] for p in pairs])
    return {
        "parent": parent_q,
        "change": change_q,
        "pairs": len(pairs),
        "pairs_won": won,
        "median_gain": sign * (change_q["median"] - parent_q["median"]),
        "parent_iqr": parent_q["q3"] - parent_q["q1"],
    }


def verdict(runs: Sequence[Dict[str, Any]], metric: str,
            higher_is_better: bool) -> Dict[str, Any]:
    """Is a gain on ``metric`` shown by these runs?

    Met when the change won at least :data:`WIN_SHARE` of the pairs,
    its median gain exceeds the parent's interquartile range, and every
    change run was correct.
    """
    cmp_ = compare(runs, metric, higher_is_better)
    needed = math.ceil(WIN_SHARE * cmp_["pairs"])
    change_ok = all(run["correct"] for run in runs
                    if run["side"] == "change")
    return {
        "metric": metric,
        "pairs": cmp_["pairs"],
        "pairs_won": cmp_["pairs_won"],
        "pairs_needed": needed,
        "median_gain": cmp_["median_gain"],
        "parent_iqr": cmp_["parent_iqr"],
        "change_runs_correct": change_ok,
        "met": bool(cmp_["pairs"] and cmp_["pairs_won"] >= needed
                    and cmp_["median_gain"] > cmp_["parent_iqr"]
                    and change_ok),
    }


def summarise(runs: Sequence[Dict[str, Any]],
              spec: Dict[str, Any]) -> Dict[str, Any]:
    """Every metric the runs carry, compared across the pairs: each
    end-to-end metric of ``spec`` (``BENCHMARK.json``) and
    ``cells_per_cpu_s`` for perfbench runs, ``wall_s`` and ``cpu_s`` for
    ``repro all`` runs.  A metric is ``within_bound`` when the change's
    median is no worse than the parent's by more than the metric's bound
    (a share of the parent's median); ``cells_per_cpu_s``, a diagnostic
    (see the module docstring), ``wall_s`` and ``cpu_s`` have no
    bound."""
    out = {}
    declared = [(m["name"], m["better"] == "higher", m["bound"])
                for m in spec["end_to_end"]]
    declared += [("cells_per_cpu_s", True, None), (ALL_METRIC, False, None),
                 ("cpu_s", False, None)]
    present = {name for run in runs for name in run["metrics"]}
    for name, higher, bound in declared:
        if name not in present:
            continue
        cmp_ = compare(runs, name, higher)
        if not cmp_["pairs"]:
            continue
        base = cmp_["parent"]["median"]
        worse = -cmp_["median_gain"] / base if base else 0.0
        cmp_["bound"] = bound
        cmp_["within_bound"] = None if bound is None else worse <= bound
        out[name] = cmp_
    return out


def check_digests(runs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Mark each ``repro all`` run correct when it exited 0 and printed
    exactly what the first parent run printed; returns ``runs``."""
    parent = [run for run in runs if run["side"] == "parent"]
    reference = (min(parent, key=lambda run: run["pair"])["stdout_sha256"]
                 if parent else None)
    for run in runs:
        run["correct"] = (run["returncode"] == 0 and reference is not None
                          and run["stdout_sha256"] == reference)
    return runs


def _timed(tree: str, argv: List[str],
           env: Optional[Dict[str, str]] = None
           ) -> Tuple[subprocess.CompletedProcess, float, float]:
    """Run ``argv`` in ``tree``: the finished process, its wall seconds
    and the CPU seconds of its whole process tree."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          timeout=600)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (
        after.ru_stime - before.ru_stime)
    return proc, wall, cpu


def run_evaluation(tree: str) -> Dict[str, Any]:
    """One ``python -m repro all`` in ``tree``: wall and CPU seconds and
    the SHA-256 of its stdout (:func:`check_digests` sets ``correct``)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc, wall, cpu = _timed(tree, [sys.executable, "-m", "repro", "all"],
                             env)
    return {
        "returncode": proc.returncode, "wall_s": wall, "cpu_s": cpu,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "correct": False, "metrics": {ALL_METRIC: wall, "cpu_s": cpu},
    }


def run_once(tree: str, workload: str, seconds: float) -> Dict[str, Any]:
    """One perfbench run in ``tree``; its metrics, CPU and wall time."""
    proc, wall, cpu = _timed(tree, [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"])
    record: Dict[str, Any] = {
        "returncode": proc.returncode, "wall_s": wall, "cpu_s": cpu,
        "correct": False, "failed": None, "attempted": None, "metrics": {},
    }
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["error"] = proc.stderr.decode().strip()[-2000:]
        return record
    record.update(
        correct=bool(result["correct"]) and proc.returncode == 0,
        failed=result["failed"], attempted=result["attempted"],
        metrics={k: v["value"] for k, v in result["metrics"].items()},
    )
    if cpu > 0:
        record["metrics"]["cells_per_cpu_s"] = result["attempted"] / cpu
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent tree")
    parser.add_argument("--change", required=True, help="change tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    evaluation = args.workload == ALL
    metric, higher = verdict_metric(args.workload, spec)
    runs: List[Dict[str, Any]] = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            if evaluation:
                record = run_evaluation(trees[side])
            else:
                record = run_once(trees[side], args.workload, args.seconds)
            record.update(pair=pair, side=side, position=position)
            runs.append(record)
            value = record["metrics"].get(metric)
            print(f"pair {pair} {side:6s} {metric}="
                  f"{'FAILED' if value is None else f'{value:.1f}'} "
                  f"cpu_s={record['cpu_s']:.1f}", flush=True)
    if evaluation:
        check_digests(runs)
        command = "-m repro all"
    else:
        command = (f"perfbench/run.py --workload {args.workload} --seed "
                   f"{SEED} --seconds {args.seconds:g} --trace 0")
    doc = {
        "workload": args.workload,
        "protocol": {
            "pairs": args.pairs,
            "seconds": None if evaluation else args.seconds,
            "seed": None if evaluation else SEED,
            "order": "parent first on even pairs, change first on odd",
            "command": f"{os.path.basename(sys.executable)} {command}",
            "python": sys.version.split()[0],
            "PYTHONDONTWRITEBYTECODE": os.environ.get(
                "PYTHONDONTWRITEBYTECODE"),
            "cpu_count": os.cpu_count(),
        },
        "runs": runs,
        "summary": summarise(runs, spec),
        "verdict": verdict(runs, metric, higher),
    }
    with open(f"BENCH_ab_{args.workload}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    v = doc["verdict"]
    print(f"{metric}: won {v['pairs_won']}/{v['pairs']} pairs, median "
          f"gain {v['median_gain']:.3g} vs parent IQR "
          f"{v['parent_iqr']:.3g} -> {'met' if v['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
