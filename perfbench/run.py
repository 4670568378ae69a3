"""End-to-end campaign benchmark: real E18/E19 grids timed to report bytes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload e18-small --seed 0 \
        --seconds 20 --trace 0

One run sets the workload up several times in fresh interpreters
(``probe.py``; the median is ``setup_s``), then repeats *passes* for
``--seconds`` seconds.  A pass is one whole campaign through the public
:class:`~repro.experiments.campaign.CampaignRunner`: construction,
``resume()`` over the workload's grid on a closed loop of two dispatcher
workers, then ``report()`` and ``report_table()``.  Every pass's report
bytes must equal an in-process serial reference run of the same grid
and seed, and every store must pass ``verify_campaign_store``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
span wrappers of ``spans.py`` before any worker forks and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object; the line before it, starting ``# perfbench``, carries the
backend, sample counts and failure fraction.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Set-ups per run; ``setup_s`` is their median.  One set-up is a short
#: burst of imports that follows the host's load closely, so it takes
#: many of them to make the median steady.
SETUP_PROBES = 15

#: Latency samples a run collects at least, so p90 has 10 beyond it.
MIN_SAMPLES = 100

#: A run that cannot collect its samples in this long gives up, so the
#: command always exits well inside three minutes.
MAX_TIMED_SECONDS = 120.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (exit code 2)."""


def parse_args(argv: List[str]) -> argparse.Namespace:
    import metrics
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=metrics.spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def _hwm_kb(pid: Any = "self") -> int:
    """Peak resident set size of a process in kB (0 if unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    if pid == "self":
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return 0


def _remove_store(db_path: str) -> None:
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(db_path + suffix):
            os.remove(db_path + suffix)


def _store_bytes(db_path: str) -> int:
    return sum(
        os.path.getsize(db_path + suffix)
        for suffix in ("", "-wal")
        if os.path.exists(db_path + suffix)
    )


class LatencyProbe:
    """Per-cell latency from hand-out to checkpoint commit, in the parent.

    The runner clears a cell's rounds (``SqliteSink.clear_rounds``) the
    moment the dispatcher pulls the cell for a free worker, and
    checkpoints it with ``SqliteSink.record_cell``; pairing the two by
    cell seed gives the latency the campaign parent sees.
    """

    def __init__(self) -> None:
        self.handout: Dict[int, float] = {}
        self.latency: Dict[int, float] = {}

    def install(self, patches: list) -> None:
        from repro.core.records import SqliteSink

        probe = self
        clear_rounds = SqliteSink.__dict__["clear_rounds"]
        record_cell = SqliteSink.__dict__["record_cell"]

        def timed_clear_rounds(sink, cell_seed):
            probe.handout.setdefault(int(cell_seed), time.perf_counter())
            return clear_rounds(sink, cell_seed)

        def timed_record_cell(sink, *args, **kwargs):
            result = record_cell(sink, *args, **kwargs)
            start = probe.handout.pop(int(kwargs["seed"]), None)
            if start is not None:
                probe.latency[int(kwargs["seed"])] = (
                    time.perf_counter() - start
                )
            return result

        patches.append((SqliteSink, "clear_rounds", clear_rounds))
        patches.append((SqliteSink, "record_cell", record_cell))
        SqliteSink.clear_rounds = timed_clear_rounds
        SqliteSink.record_cell = timed_record_cell

    def reset(self) -> None:
        self.handout = {}
        self.latency = {}


@dataclasses.dataclass
class PassResult:
    wall: float
    digest: str
    cells: int
    not_done: int
    rounds: int
    latency: Dict[int, float]
    elapsed: Dict[int, float]
    workers: int
    worker_hwm_kb: int
    db_bytes: int
    store_clean: bool


def run_pass(workload, seed: int, fn, db_path: str, probe: LatencyProbe,
             tracer=None) -> PassResult:
    """One campaign, timed from runner construction to report bytes."""
    import workloads
    from repro.experiments.verify import verify_campaign_store

    grid = workload.grid()
    probe.reset()
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    runner = workloads.make_runner(workload, db_path, seed, fn=fn)
    try:
        runner.resume(**grid)
        report = runner.report(**grid).encode()
        runner.report_table(**grid)
        wall = time.perf_counter() - start
        worker_hwm = max(
            [_hwm_kb(pid) for pid in runner.dispatcher.worker_pids()] or [0]
        )
        stats = runner.last_dispatch_stats
    finally:
        if tracer is not None:
            tracer.active = False
        runner.close()
    doc = json.loads(report)
    entries = doc["cells"]
    conn = sqlite3.connect(db_path)
    try:
        elapsed = {
            seed_: value for seed_, value in conn.execute(
                "SELECT cell_seed, elapsed FROM cells"
            ) if value is not None
        }
    finally:
        conn.close()
    result = PassResult(
        wall=wall,
        digest=hashlib.sha256(report).hexdigest(),
        cells=len(entries),
        not_done=sum(1 for e in entries if e["status"] != "done"),
        rounds=sum(e["payload"]["rounds"] for e in entries
                   if e["status"] == "done"),
        latency=dict(probe.latency),
        elapsed=elapsed,
        workers=(stats or {}).get("distinct_worker_pids", 0),
        worker_hwm_kb=worker_hwm,
        db_bytes=_store_bytes(db_path),
        store_clean=verify_campaign_store(db_path)["ok"],
    )
    _remove_store(db_path)
    return result


def reference_digest(workload, seed: int, db_path: str) -> str:
    """Report digest of the in-process serial run of the same grid."""
    import workloads

    grid = workload.grid()
    with workloads.make_runner(workload, db_path, seed,
                               in_process=True) as runner:
        runner.resume(**grid)
        report = runner.report(**grid).encode()
    _remove_store(db_path)
    return hashlib.sha256(report).hexdigest()


def setup_probes(workload, seed: int, work: str) -> List[float]:
    """Time ``SETUP_PROBES`` set-ups; returns their durations."""
    samples = []
    db_path = os.path.join(work, "setup.db")
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"),
             workload.name, str(seed), db_path],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise BenchmarkError(
                f"set-up probe failed ({proc.returncode}): "
                f"{proc.stderr.strip()[-2000:]}"
            )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(passes: List[PassResult], samples_ms: List[float],
               setup: List[float], rss_kb: int) -> Dict[str, float]:
    from metrics import percentile

    p50 = percentile(samples_ms, 50)
    p90 = percentile(samples_ms, 90)
    if p50 is None or p90 is None:
        raise BenchmarkError(
            f"{len(samples_ms)} latency samples cannot support p90"
        )
    return {
        "cells_per_s": statistics.median(
            [p.cells / p.wall for p in passes]
        ),
        "rounds_per_s": statistics.median(
            [p.rounds / p.wall for p in passes]
        ),
        "cell_ms_p50": p50,
        "cell_ms_p90": p90,
        "setup_s": statistics.median(setup),
        "rss_peak_mb": rss_kb / 1024.0,
    }


def per_layer(passes: List[PassResult], merged: Dict[str, Any],
              width: int) -> Dict[str, float]:
    import spans

    n = len(passes)
    cells = sum(p.cells for p in passes)

    def per_pass(name: str) -> float:
        return spans.seconds(merged, name) / n

    def mean_us(name: str) -> float:
        calls = spans.calls(merged, name)
        return spans.seconds(merged, name) / calls * 1e6 if calls else 0.0

    overheads = [
        p.latency[s] - p.elapsed[s]
        for p in passes for s in p.latency if s in p.elapsed
    ]
    busy = sum(sum(p.elapsed.values()) for p in passes)
    step = spans.seconds(merged, "engine.step")
    return {
        "grid.derive_s": per_pass("grid.derive"),
        "scenario.build_ms": spans.seconds(merged, "scenario.build")
        / cells * 1e3,
        "dispatch.overhead_ms_per_cell": sum(overheads) / len(overheads)
        * 1e3,
        "dispatch.worker_busy_frac": busy / sum(p.wall * width
                                                 for p in passes),
        "dispatch.workers_spawned": sum(p.workers for p in passes) / n,
        "store.write_round_us": mean_us("store.write_round"),
        "store.write_round_calls": spans.calls(merged, "store.write_round")
        / n,
        "store.write_round_s": per_pass("store.write_round"),
        "store.record_cell_us": mean_us("store.record_cell"),
        "store.clear_rounds_us": mean_us("store.clear_rounds"),
        "store.connects": spans.calls(merged, "store.connect") / n,
        "store.get_cells_s": per_pass("store.get_cells"),
        "store.round_aggregates_s": per_pass("store.round_aggregates"),
        "store.db_bytes": statistics.median(
            [p.db_bytes for p in passes]
        ),
        "campaign.resume_s": per_pass("campaign.resume"),
        "campaign.report_s": per_pass("campaign.report"),
        "engine.step_us": mean_us("engine.step"),
        "engine.step_self_s": spans.self_seconds(merged, "engine.step") / n,
        "engine.kernel_round_frac": merged["counters"]["engine.kernel_rounds"]
        / merged["counters"]["engine.rounds"],
        "loss.resolve_s": per_pass("loss.resolve"),
        "detector.advise_s": per_pass("detector.advise"),
        "process.message_s": per_pass("process.message"),
        "process.transition_s": per_pass("process.transition"),
        # Shares of step time, not seconds: on E18 these layers never
        # run, and a time that reads 0 on every run is not a measurement.
        "churn.events_frac": spans.seconds(merged, "churn.events") / step,
        "substrate.multihop_frac": spans.seconds(merged,
                                                 "substrate.multihop") / step,
        "bench.traced_cells_per_s": statistics.median(
            [p.cells / p.wall for p in passes]
        ),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace, work: str) -> Dict[str, Any]:
    import metrics
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # The probes also guard the grid's identity (distinct seeds and tags).
    setup = setup_probes(workload, args.seed, work)

    fn = workloads.cell_function(workload)
    probe = LatencyProbe()
    patches: list = []
    tracer = None
    probe.install(patches)
    if args.trace:
        trace_dir = os.path.join(work, "spans")
        os.makedirs(trace_dir)
        tracer = spans.Tracer(trace_dir)
        tracer.active = False
        patches.extend(spans.install(tracer))
        fn = spans.TracedCell(fn, tracer)

    def one_pass(number: int, traced) -> PassResult:
        return run_pass(workload, args.seed, fn,
                        os.path.join(work, f"pass-{number}.db"), probe,
                        traced)

    try:
        # The first pass of a fresh process runs ~30% slow (first sqlite
        # schema, cold page cache); it is checked but not timed.
        warmup = one_pass(0, None)
        passes: List[PassResult] = []
        started = time.perf_counter()
        while True:
            passes.append(one_pass(len(passes) + 1, tracer))
            samples_ms = [v * 1e3 for p in passes
                          for v in p.latency.values()]
            spent = time.perf_counter() - started
            if spent >= args.seconds and len(samples_ms) >= MIN_SAMPLES:
                break
            if spent >= MAX_TIMED_SECONDS:
                raise BenchmarkError(
                    f"only {len(samples_ms)} latency samples in "
                    f"{spent:.0f}s"
                )
        rss_kb = max([_hwm_kb()] + [p.worker_hwm_kb for p in passes])
        merged = spans.merge(tracer) if tracer is not None else None
    finally:
        spans.restore(patches)

    backend = workloads.backend()
    checked = [warmup] + passes
    expected = reference_digest(workload, args.seed,
                                os.path.join(work, "reference.db"))
    pinned = workloads.PINNED_DIGESTS.get((workload.name, backend))
    reference_ok = (args.seed != workloads.DEFAULT_SEED
                    or pinned in (None, expected))
    bad_passes = sum(
        1 for p in checked
        if p.digest != expected or not p.store_clean or not reference_ok
    )
    attempted = sum(p.cells for p in checked)
    failed = sum(p.not_done for p in checked) + bad_passes

    if args.trace:
        values = per_layer(passes, merged, workloads.WIDTH)
        declared = metrics.spec()["per_layer"]
    else:
        values = end_to_end(passes, samples_ms, setup, rss_kb)
        declared = metrics.spec()["end_to_end"]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "backend": backend,
        "passes": len(passes),
        "cells_per_pass": passes[0].cells,
        "latency_samples": len(samples_ms),
        "setup_samples": setup,
        "failed_frac": failed / attempted,
        "report_digests": sorted({p.digest for p in checked}),
        "reference_digest": expected,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    return {"info": info, "result": result}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        out = measure(args, work)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    print("# perfbench " + json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
