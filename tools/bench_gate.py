#!/usr/bin/env python
"""Perf gates over the E11 smoke and E18 campaign artifacts.

Usage::

    python tools/bench_gate.py COMMITTED.json FRESH.json
    python tools/bench_gate.py --campaign BENCH_e18.json

In the first form ``COMMITTED`` is the ``BENCH_e11.json`` a change ships
and ``FRESH`` the one ``benchmarks/e11_smoke.py`` just wrote on the CI
runner.  The tool prints the fresh per-adversary table, then runs three
gates:

* ``capture`` — the fresh run used the array kernel, and the committed
  capture row holds at least 2x its pre-rework figure;
* ``summary`` — the committed SUMMARY n=64 row holds at least 1.5x its
  pre-interning figure, every committed n-scaling size is in the fresh
  run, and at each of them the fresh kernel is not slower than the
  scalar reference;
* ``rows`` — every committed adversary row is in the fresh run, and no
  row got more than 20% slower relative to the others.

The absolute floors read the committed numbers, so they hold whatever
machine runs the gate; the fresh run is held to same-run ratios only.

The ``--campaign`` form reads the ``BENCH_e18.json`` that
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
import statistics
import sys

#: Committed capture rounds/sec before the vectorised per-round
#: substream rework; the committed artifact must hold CAPTURE_FACTOR
#: times that.
CAPTURE_PRE_REWORK = 829.0
CAPTURE_FACTOR = 2.0

#: Committed SUMMARY n=64 rounds/sec before the intern-everything kernel
#: (message interning, batched transitions, substrate arrays); the
#: committed artifact must hold SUMMARY_FACTOR times that.
SUMMARY_PRE_INTERNING = 7773.0
SUMMARY_FACTOR = 1.5

#: The pooled campaign leg (width ``timeout_paths.processes``) must be
#: at least this much faster than width 1.
POOLED_SPEEDUP = 2.0

#: Faultline's armed-but-idle hooks may cost at most this share of the
#: campaign's wall clock.
IDLE_HOOK_CEILING = 0.03

#: The committed artifact comes from whatever machine shipped the
#: change, so raw rounds/sec are not comparable run to run.  Dividing
#: each row's fresh/committed ratio by the median ratio over all rows
#: cancels the machine-speed factor: a row whose normalised ratio still
#: falls below ROW_FLOOR got >20% slower *relative to the rest of the
#: engine*, which is a hot-path regression in that adversary, not
#: runner noise.
ROW_FLOOR = 0.8


def adversary_table(fresh: dict) -> list:
    """The fresh run's per-adversary throughput, one line per row."""
    lines = [
        f"{'adversary':12s} {'batched r/s':>12s} {'scalar r/s':>12s} "
        f"{'kernel':>8s}"
    ]
    for name, entry in fresh["adversaries"].items():
        lines.append(
            f"{name:12s} {entry['batched_rounds_per_second']:12.0f} "
            f"{entry['scalar_kernel_rounds_per_second']:12.0f} "
            f"{entry['kernel_speedup']:7.2f}x"
        )
    return lines


def gate_capture(committed: dict, fresh: dict) -> list:
    """Kernel on in the fresh run; committed capture above its floor."""
    failures = []
    if not fresh["array_kernel"]:
        failures.append("the fresh run did not use the array kernel")
    capture = committed["adversaries"]["capture"]["batched_rounds_per_second"]
    floor = CAPTURE_FACTOR * CAPTURE_PRE_REWORK
    print(f"committed capture: {capture:.0f} rounds/s (floor {floor:.0f})")
    if capture < floor:
        failures.append(
            f"committed capture figure {capture:.0f} rounds/s is below "
            f"the {floor:.0f} floor — the vectorised substream rework "
            f"must stay >= {CAPTURE_FACTOR:g}x the pre-rework "
            f"{CAPTURE_PRE_REWORK:.0f} figure"
        )
    return failures


def gate_summary(committed: dict, fresh: dict) -> list:
    """Committed SUMMARY n=64 above its floor; the n-scaling rows."""
    failures = []
    summary = committed["results"]["summary"]["rounds_per_second"]
    floor = SUMMARY_FACTOR * SUMMARY_PRE_INTERNING
    print(f"committed SUMMARY n=64: {summary:.0f} rounds/s "
          f"(floor {floor:.0f})")
    if summary < floor:
        failures.append(
            f"committed SUMMARY n=64 figure {summary:.0f} rounds/s is "
            f"below the {floor:.0f} floor — the interned kernel must "
            f"stay >= {SUMMARY_FACTOR:g}x the pre-interning "
            f"{SUMMARY_PRE_INTERNING:.0f} figure"
        )
    # Every committed size must be in the fresh run (regenerate the
    # committed artifact alongside any curve change); each size's kernel
    # speedup is a same-run ratio, so it compares across machines.
    missing = [
        size for size in committed["n_scaling"]
        if size not in fresh["n_scaling"]
    ]
    if missing:
        failures.append(
            f"n-scaling rows {missing} are in the committed artifact but "
            "not in the fresh run — regenerate the committed artifact "
            "alongside the curve change"
        )
    print(f"{'n':>6s} {'committed x':>12s} {'fresh x':>10s}")
    for size, entry in committed["n_scaling"].items():
        if size in missing:
            continue
        speedup = fresh["n_scaling"][size]["kernel_speedup"]
        print(f"{size:>6s} {entry['kernel_speedup']:11.2f}x "
              f"{speedup:9.2f}x")
        # The kernel's win grows with n; at every published size it
        # must at least not lose to the scalar reference.
        if speedup < 1.0:
            failures.append(
                f"the fresh kernel is slower than the scalar reference at "
                f"n={size} ({speedup:.2f}x)"
            )
    return failures


def gate_rows(committed: dict, fresh: dict) -> list:
    """No adversary row missing, none >20% slower than its peers."""
    missing = [
        name for name in committed["adversaries"]
        if name not in fresh["adversaries"]
    ]
    if missing:
        return [
            f"adversary rows {missing} are in the committed artifact but "
            "not in the fresh run — regenerate the committed artifact "
            "alongside the matrix change"
        ]
    ratios = {
        name: (
            fresh["adversaries"][name]["batched_rounds_per_second"]
            / entry["batched_rounds_per_second"]
        )
        for name, entry in committed["adversaries"].items()
    }
    scale = statistics.median(ratios.values())
    print(f"machine-speed scale (median ratio): {scale:.2f}x")
    regressed = []
    for name, ratio in ratios.items():
        normalised = ratio / scale
        flag = "  <-- REGRESSION" if normalised < ROW_FLOOR else ""
        print(f"{name:12s} {ratio:5.2f}x raw, "
              f"{normalised:5.2f}x normalised{flag}")
        if normalised < ROW_FLOOR:
            regressed.append(name)
    if regressed:
        return [
            f"adversary rows regressed by more than "
            f"{1 - ROW_FLOOR:.0%}: {regressed}"
        ]
    return []


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


GATES = {"capture": gate_capture, "summary": gate_summary, "rows": gate_rows}
CAMPAIGN_GATES = {"pooled": gate_pooled, "faultline": gate_faultline}


def run_gates(gates: dict, *artifacts) -> int:
    """Run every gate over ``artifacts``; print the verdict, return it."""
    failures = []
    for name, gate in gates.items():
        print(f"\n[{name}]")
        failures += [f"FAIL {name}: {problem}"
                     for problem in gate(*artifacts)]
    print()
    for line in failures:
        print(line)
    if failures:
        print(f"bench gate: {len(failures)} failure(s)")
        return 1
    print("bench gate: ok")
    return 0


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--campaign":
        with open(argv[1]) as fh:
            return run_gates(CAMPAIGN_GATES, json.load(fh))
    with open(argv[0]) as fh:
        committed = json.load(fh)
    with open(argv[1]) as fh:
        fresh = json.load(fh)
    print("\n".join(adversary_table(fresh)))
    return run_gates(GATES, committed, fresh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
