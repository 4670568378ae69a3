#!/usr/bin/env python
"""Perf gates over the E18 campaign artifact.

Usage::

    python tools/bench_gate.py --campaign BENCH_e18.json

The tool reads the ``BENCH_e18.json`` that
``benchmarks/bench_e18_campaign.py`` just wrote, and runs two gates on
it:

* ``pooled`` — the pooled-with-deadlines report equals the width-1
  report, the pool is at least 2x faster than width 1, and each leg ran
  in worker processes, on more cells than its width, with no more
  distinct worker pids than its width (workers are reused);
* ``faultline`` — Faultline's armed-but-idle hooks were visited, and
  their cost stays under 3% of the campaign's wall clock.

Exit status 0 when every gate passes, 1 with one ``FAIL`` line per
problem otherwise.  Standard library only.
"""

from __future__ import annotations

import json
import sys

#: The pooled campaign leg (width ``timeout_paths.processes``) must be
#: at least this much faster than width 1.
POOLED_SPEEDUP = 2.0

#: Faultline's armed-but-idle hooks may cost at most this share of the
#: campaign's wall clock.
IDLE_HOOK_CEILING = 0.03


def gate_pooled(report: dict) -> list:
    """Pooled-with-deadlines campaigns: same report, >= 2x, reused workers."""
    timing = report.get("timeout_paths")
    if timing is None:
        return ["no timeout_paths section — regenerate the artifact with "
                "benchmarks/bench_e18_campaign.py"]
    print(
        f"width1 {timing['width1_seconds']:.2f}s vs "
        f"pooled({timing['processes']}) {timing['pooled_seconds']:.2f}s "
        f"-> {timing['speedup']:.2f}x"
    )
    failures = []
    if not timing["reports_identical"]:
        failures.append("pooled-with-deadlines report diverged from width-1")
    if timing["speedup"] < POOLED_SPEEDUP:
        failures.append(
            f"expected >={POOLED_SPEEDUP:g}x on a 4-core runner, got "
            f"{timing['speedup']:.2f}x"
        )
    # Worker reuse is universal: each leg dispatched its whole grid onto
    # at most its pool width of distinct pids (spawn-per-cell would
    # show one pid per cell).
    for label, width in (("width1", 1), ("pooled", timing["processes"])):
        reuse = timing["worker_reuse"][label]
        print(f"{label}: {reuse['distinct_worker_pids']} pids / "
              f"{reuse['cells']} cells (width {width})")
        if reuse["in_process"]:
            failures.append(f"{label} leg fell back in-process")
        if reuse["cells"] <= width:
            failures.append(f"{label} grid too small to prove reuse")
        if reuse["distinct_worker_pids"] > width:
            failures.append(
                f"{label}: {reuse['distinct_worker_pids']} distinct pids "
                f"for a width-{width} pool — workers are not being reused"
            )
    return failures


def gate_faultline(report: dict) -> list:
    """Faultline's armed-but-idle hooks: visited, and under 3%."""
    overhead = report.get("fault_overhead")
    if overhead is None:
        return ["no fault_overhead section — regenerate the artifact with "
                "benchmarks/bench_e18_campaign.py"]
    # The gated ratio is variance-controlled: the exact number of
    # injection-point visits the armed-but-idle plan saw (read off its
    # FaultClock) times a microbenchmarked per-visit fire() cost, over
    # the campaign's min-of-reps wall clock.  The raw two-leg wall
    # clocks are printed but not gated — at tens of milliseconds a
    # wall-clock diff measures the runner's scheduler, not the hooks.
    print(
        f"{overhead['hook_visits']} hook visits x "
        f"{overhead['per_visit_seconds'] * 1e6:.2f}us over "
        f"{overhead['absent_seconds']:.3f}s -> "
        f"{overhead['overhead_ratio'] * 100.0:.3f}% "
        f"(wallclock legs: {overhead['wallclock_ratio'] * 100.0:+.2f}%)"
    )
    failures = []
    if overhead["hook_visits"] <= 0:
        failures.append(
            "idle plan saw no injection-point visits — hooks are dead"
        )
    if overhead["overhead_ratio"] >= IDLE_HOOK_CEILING:
        failures.append(
            f"Faultline idle hooks cost "
            f"{overhead['overhead_ratio'] * 100.0:.2f}% of the campaign "
            f"wall clock — the injection points must stay under "
            f"{IDLE_HOOK_CEILING:.0%} when armed but never firing"
        )
    return failures


CAMPAIGN_GATES = {"pooled": gate_pooled, "faultline": gate_faultline}


def run_gates(gates: dict, report: dict) -> int:
    """Run every gate over ``report``; print the verdict, return it."""
    failures = []
    for name, gate in gates.items():
        print(f"\n[{name}]")
        failures += [f"FAIL {name}: {problem}" for problem in gate(report)]
    print()
    for line in failures:
        print(line)
    if failures:
        print(f"bench gate: {len(failures)} failure(s)")
        return 1
    print("bench gate: ok")
    return 0


def main(argv: list) -> int:
    if len(argv) != 2 or argv[0] != "--campaign":
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        return run_gates(CAMPAIGN_GATES, json.load(fh))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
