#!/usr/bin/env python3
"""E18 campaign benchmark: the two legs ``tools/bench_gate.py --campaign``
gates, written to ``BENCH_e18.json``.

* ``timeout_paths`` — the quick E18 grid with three replicates (12
  cells) runs twice under a generous per-cell deadline, on a one-worker
  pool and on a ``--processes``-wide one (default 4), and the artifact
  publishes both wall clocks, the speedup, whether the two reports are
  byte-identical, and each leg's ``worker_reuse`` (distinct worker pids
  vs cells dispatched, so a regression to spawn-per-cell is visible).
* ``fault_overhead`` — the Faultline hooks' installed-but-idle cost over
  the quick grid with eight replicates (32 cells), run in-process.

Usage::

    PYTHONPATH=src python benchmarks/bench_e18_campaign.py \
        --out BENCH_e18.json
    python tools/bench_gate.py --campaign BENCH_e18.json

The campaign resume smoke (interrupt, resume, ``cmp`` against a serial
run) runs through ``python -m repro campaign``; see docs/campaigns.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time

from repro.experiments.campaign import CampaignRunner
from repro.experiments.harness import consensus_sweep_cell
from repro.experiments.matrix import E18

#: Per-cell wall-clock beat for the width comparison.  The consensus
#: simulation itself runs in ~2ms, which no pool width can amortise
#: past its own dispatch cost; the comparison is about the *loop's*
#: concurrency under deadlines (the long-tailed cells deadline pools
#: exist for), so each cell carries a fixed beat.
PAD_SECONDS = 0.08

#: Per-cell budget for both comparison legs: generous, so the runs
#: measure dispatch, not timeouts.
CELL_TIMEOUT = 60.0


def _padded_cell(params, seed):
    """``consensus_sweep_cell`` plus a fixed wall-clock beat.

    ``pad_seconds`` arrives via ``extra_params`` — merged into
    ``params`` at execution time but excluded from cell identity and
    seeding — so both comparison legs produce byte-identical reports
    while each cell holds its worker long enough that the measurement
    is dispatch concurrency, not the ~2ms simulation.
    """
    payload = consensus_sweep_cell(params, seed)
    time.sleep(float(params.get("pad_seconds", 0.0)))
    return payload


def compare_timeout_paths(processes: int, base_seed: int) -> dict:
    """Wall-clock the unified loop at width 1 against width ``processes``.

    Runs the same grid twice in throwaway stores — once on a one-worker
    dispatcher pool and once at ``processes`` width — both under the
    same generous per-cell budget, and also byte-compares the two
    reports: pool width under deadlines must never change the merged
    outcomes, only the wall-clock.
    """
    axes = E18.grid(quick=True, trial=3)
    tmp = tempfile.mkdtemp(prefix="repro-e18-timing-")
    timings: dict = {"worker_reuse": {}}
    reports = {}
    try:
        for label, procs in (("width1", 1), ("pooled", processes)):
            db = os.path.join(tmp, f"{label}.db")
            with CampaignRunner(
                _padded_cell,
                db_path=db,
                base_seed=base_seed,
                processes=procs,
                cell_timeout=CELL_TIMEOUT,
                extra_params={"sqlite_db": db,
                              "pad_seconds": PAD_SECONDS},
            ) as runner:
                start = time.perf_counter()
                outcomes = runner.resume(**axes)
                timings[f"{label}_seconds"] = time.perf_counter() - start
                timings[f"{label}_cells"] = len(outcomes)
                timings["worker_reuse"][label] = runner.last_dispatch_stats
                reports[label] = runner.report(**axes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    timings["processes"] = processes
    timings["cell_timeout"] = CELL_TIMEOUT
    timings["pad_seconds"] = PAD_SECONDS
    timings["speedup"] = (
        timings["width1_seconds"] / timings["pooled_seconds"]
        if timings["pooled_seconds"] > 0 else None
    )
    timings["reports_identical"] = reports["width1"] == reports["pooled"]
    return timings


#: The idle plan for the overhead leg: armed (so every hook runs the
#: full fire() path — clock tick, rule scan) but matching nothing the
#: campaign ever visits, so no fault actually fires.
_IDLE_PLAN_SPEC = {
    "name": "idle-overhead-probe",
    "seed": 0,
    "rules": [
        {"site": "merge", "match": "no-such-shard",
         "action": {"kind": "error"}},
    ],
}


def fault_overhead(base_seed: int, reps: int = 3) -> dict:
    """Measure the Faultline hooks' installed-but-idle overhead.

    Runs the grid in-process (no pool spawn noise) with no plan and
    with an armed-but-never-firing plan, in fresh throwaway stores.
    With no plan the hooks are a ``None``-check; with the idle plan
    every injection site pays the full clock-tick + rule-scan path.

    The true overhead (sub-microsecond per visit, a few hundred visits
    per quick grid) sits far below the wall-clock noise floor of a
    shared CI host, so the **gated** ratio is assembled from
    variance-controlled factors: the exact number of injection-point
    visits the idle leg performed (read off the plan's
    :class:`~repro.testing.faultline.FaultClock`) times the measured
    per-visit cost (a tight microbenchmark of the same ``fire()``
    path), over the campaign's min-of-reps wall clock.  The raw
    two-leg wall clocks are published alongside as
    ``wallclock_ratio`` for eyeballing; gating on that directly would
    only measure the host's scheduler.
    """
    import timeit

    from repro.testing.faultline import FaultPlan

    axes = E18.grid(quick=True, trial=8)
    tmp = tempfile.mkdtemp(prefix="repro-e18-faultline-")
    results: dict = {"reps": reps}
    best: dict = {}
    visits = None

    def one_pass(label: str, rep: str) -> float:
        nonlocal visits
        db = os.path.join(tmp, f"{label}-{rep}.db")
        plan = (
            FaultPlan.from_spec(_IDLE_PLAN_SPEC)
            if label == "idle" else None
        )
        with CampaignRunner(
            consensus_sweep_cell,
            db_path=db,
            base_seed=base_seed,
            in_process=True,
            fault_plan=plan,
        ) as runner:
            start = time.perf_counter()
            outcomes = runner.resume(**axes)
            elapsed = time.perf_counter() - start
        if plan is not None:
            if plan.log:
                raise RuntimeError(
                    f"idle overhead plan fired {plan.log!r}; the "
                    "measurement is void"
                )
            visits = plan.clock.total()
        results.setdefault(f"{label}_cells", len(outcomes))
        return elapsed

    try:
        for label in ("absent", "idle"):
            one_pass(label, "warmup")  # caches, imports, page-ins
        for rep in range(reps):
            # Alternate the legs so host drift hits both equally.
            for label in ("absent", "idle"):
                elapsed = one_pass(label, str(rep))
                best[label] = min(best.get(label, elapsed), elapsed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    probe = FaultPlan.from_spec(_IDLE_PLAN_SPEC)
    per_visit = min(timeit.repeat(
        lambda: probe.fire("sqlite", "record-cell"),
        number=20000, repeat=5,
    )) / 20000

    results["absent_seconds"] = best["absent"]
    results["idle_seconds"] = best["idle"]
    results["wallclock_ratio"] = (
        best["idle"] / best["absent"] - 1.0
        if best["absent"] > 0 else None
    )
    results["hook_visits"] = visits
    results["per_visit_seconds"] = per_visit
    results["overhead_ratio"] = (
        (visits * per_visit) / best["absent"]
        if best["absent"] > 0 else None
    )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--processes", type=int, default=4,
                        help="width of the pooled leg (default 4)")
    parser.add_argument("--out", default="BENCH_e18.json",
                        help="write the bench JSON artifact here "
                             "(default BENCH_e18.json)")
    args = parser.parse_args()

    comparison = compare_timeout_paths(args.processes, args.base_seed)
    print(
        f"timeout paths: width1 {comparison['width1_seconds']:.2f}s vs "
        f"pooled({comparison['processes']}) "
        f"{comparison['pooled_seconds']:.2f}s "
        f"-> {comparison['speedup']:.2f}x, reports identical: "
        f"{comparison['reports_identical']}"
    )
    overhead = fault_overhead(args.base_seed)
    print(
        f"fault-overhead: {overhead['hook_visits']} hook visits x "
        f"{overhead['per_visit_seconds'] * 1e6:.2f}us over "
        f"{overhead['absent_seconds']:.3f}s -> "
        f"{overhead['overhead_ratio'] * 100.0:.3f}% "
        f"(wallclock legs: absent {overhead['absent_seconds']:.3f}s "
        f"vs idle {overhead['idle_seconds']:.3f}s, "
        f"{overhead['wallclock_ratio'] * 100.0:+.2f}% informational)"
    )

    artifact = {
        "benchmark": "e18_campaign",
        "python": platform.python_version(),
        "timeout_paths": comparison,
        "fault_overhead": overhead,
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
