"""Quick-mode E11 smoke benchmark: engine rounds/sec per record policy
(vectorised kernel vs pure-python scalar path), plus per-adversary
loss-resolution throughput.

Writes a small JSON artifact (default ``BENCH_e11.json``) so CI can track
the engine's throughput trajectory from PR to PR without the full
pytest-benchmark machinery.  Usage::

    PYTHONPATH=src python benchmarks/e11_smoke.py --quick --out BENCH_e11.json

``--quick`` shrinks repetitions for CI; omit it for steadier numbers.

Every record-policy row carries two figures: ``rounds_per_second`` is the
engine as shipped (array round kernel active whenever numpy is — the
number the CI regression guard tracks), ``scalar_rounds_per_second``
forces ``use_array_kernel=False``, so the kernel's own win is visible as
``kernel_speedup`` without leaving the artifact.

The ``n_scaling`` section publishes the size curve the interned kernel
is for: SUMMARY-mode throughput at n in {16, 64, 256, 1024}, kernel and
scalar, with per-n ``kernel_speedup``.  Round counts shrink as n grows
so the block stays CI-sized; the per-n speedups are same-run ratios and
therefore machine-independent.

The per-adversary section runs every built-in loss adversary two ways
under ``RecordPolicy.NONE``: on the array kernel
(``batched_rounds_per_second``) and with the kernel forced off
(``scalar_kernel_rounds_per_second``), with their ratio as
``kernel_speedup``.  CI gates on the committed ``capture`` row: the
vectorised block-substream rework must hold >= 2x the pre-rework 829
rounds/sec figure.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

from repro.adversary.loss import (
    AlphaLoss,
    CaptureEffectLoss,
    ComposedLoss,
    EventualCollisionFreedom,
    IIDLoss,
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    SilenceLoss,
)
from repro.contention.services import NoContentionManager
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment, array_kernel_module
from repro.core.execution import ExecutionEngine
from repro.core.process import ScriptedProcess
from repro.core.records import RecordPolicy
from repro.detectors.classes import ZERO_AC


def _adversary_matrix(n: int):
    """Name -> factory for every built-in loss adversary at size ``n``."""
    half = n // 2
    return {
        "reliable": lambda: ReliableDelivery(),
        "silence": lambda: SilenceLoss(),
        "alpha": lambda: AlphaLoss(),
        "iid_0.3": lambda: IIDLoss(0.3, seed=0),
        "capture": lambda: CaptureEffectLoss(capture_limit=1, seed=0),
        "partition": lambda: PartitionLoss(
            [range(half), range(half, n)]
        ),
        "composed": lambda: ComposedLoss(
            [PartitionLoss([range(half), range(half, n)]),
             IIDLoss(0.2, seed=1)]
        ),
        "ecf_iid": lambda: EventualCollisionFreedom(
            IIDLoss(0.3, seed=0), r_cf=1
        ),
    }


def run_rounds(
    n: int,
    rounds: int,
    policy: RecordPolicy,
    loss: LossAdversary = None,
    use_array_kernel=None,
) -> float:
    """One timed raw-engine execution; returns elapsed seconds.

    ``use_array_kernel`` passes through to the engine: ``None`` is the
    shipped auto-gated behaviour, ``False`` pins the pure-python
    reference path for the scalar comparison legs.
    """
    env = Environment(
        indices=tuple(range(n)),
        detector=ZERO_AC.make(),
        contention=NoContentionManager(),
        loss=loss if loss is not None else IIDLoss(0.3, seed=0),
    )
    env.reset()
    algo = Algorithm(
        lambda i: ScriptedProcess(["m"] * rounds), anonymous=False
    )
    engine = ExecutionEngine(
        env, algo.spawn_all(env.indices), record_policy=policy,
        use_array_kernel=use_array_kernel,
    )
    start = time.perf_counter()
    engine.run(rounds, until_all_decided=False)
    elapsed = time.perf_counter() - start
    assert engine.round == rounds
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_e11.json")
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repetitions (CI smoke mode)",
    )
    args = parser.parse_args()

    reps = 3 if args.quick else 7
    kernel_active = array_kernel_module() is not None
    report = {
        "benchmark": "e11_engine_throughput_smoke",
        "n": args.n,
        "rounds": args.rounds,
        "repetitions": reps,
        "python": platform.python_version(),
        "array_kernel": kernel_active,
        "results": {},
        "adversaries": {},
    }
    print(f"array kernel: {'active' if kernel_active else 'off (pure python)'}")
    for policy in (RecordPolicy.FULL, RecordPolicy.SUMMARY, RecordPolicy.NONE):
        best = min(
            run_rounds(args.n, args.rounds, policy) for _ in range(reps)
        )
        scalar_best = min(
            run_rounds(
                args.n, args.rounds, policy, use_array_kernel=False
            )
            for _ in range(reps)
        )
        report["results"][policy.value] = {
            "best_seconds": best,
            "rounds_per_second": args.rounds / best,
            "scalar_best_seconds": scalar_best,
            "scalar_rounds_per_second": args.rounds / scalar_best,
            "kernel_speedup": scalar_best / best,
        }
        print(
            f"{policy.value:8s} best {best * 1000:8.1f} ms   "
            f"{args.rounds / best:8.0f} rounds/s   "
            f"(scalar {args.rounds / scalar_best:8.0f} r/s, "
            f"kernel {scalar_best / best:.2f}x)"
        )

    full = report["results"]["full"]["rounds_per_second"]
    summary = report["results"]["summary"]["rounds_per_second"]
    report["summary_over_full"] = summary / full

    # The n-scaling curve (SUMMARY mode: the campaign workhorse).
    # Rounds shrink with n to keep the block CI-sized; throughput is
    # per-round so the rows stay comparable along the curve.
    report["n_scaling"] = {}
    scale_reps = 2 if args.quick else 3
    print(f"\n{'n':>6s} {'kernel r/s':>12s} {'scalar r/s':>12s} "
          f"{'speedup':>8s}")
    for size in (16, 64, 256, 1024):
        scale_rounds = max(30, (args.rounds * 64) // size)
        best = min(
            run_rounds(size, scale_rounds, RecordPolicy.SUMMARY)
            for _ in range(scale_reps)
        )
        scalar_best = min(
            run_rounds(
                size, scale_rounds, RecordPolicy.SUMMARY,
                use_array_kernel=False,
            )
            for _ in range(scale_reps)
        )
        row = {
            "rounds": scale_rounds,
            "rounds_per_second": scale_rounds / best,
            "scalar_rounds_per_second": scale_rounds / scalar_best,
            "kernel_speedup": scalar_best / best,
        }
        report["n_scaling"][str(size)] = row
        print(
            f"{size:6d} {row['rounds_per_second']:12.0f} "
            f"{row['scalar_rounds_per_second']:12.0f} "
            f"{row['kernel_speedup']:7.2f}x"
        )

    # Per-adversary kernel vs scalar throughput (NONE mode: the loss
    # resolution dominates, so the ratio isolates each adversary's
    # kernel win).
    # Quick mode still takes min-of-3: the CI regression guard gates on
    # these rows, and a single scheduling stall must not be able to
    # masquerade as a >20% per-row regression.
    adv_reps = 3 if args.quick else 4
    adv_rounds = max(50, args.rounds // 2)
    print(f"\n{'adversary':10s} {'batched r/s':>12s} {'scalar r/s':>12s} "
          f"{'kernel':>8s}")
    for name, factory in _adversary_matrix(args.n).items():
        batched = min(
            run_rounds(args.n, adv_rounds, RecordPolicy.NONE, factory())
            for _ in range(adv_reps)
        )
        scalar = min(
            run_rounds(
                args.n, adv_rounds, RecordPolicy.NONE, factory(),
                use_array_kernel=False,
            )
            for _ in range(adv_reps)
        )
        entry = {
            "batched_rounds_per_second": adv_rounds / batched,
            "scalar_kernel_rounds_per_second": adv_rounds / scalar,
            "kernel_speedup": scalar / batched,
        }
        report["adversaries"][name] = entry
        print(
            f"{name:10s} {entry['batched_rounds_per_second']:12.0f} "
            f"{entry['scalar_kernel_rounds_per_second']:12.0f} "
            f"{entry['kernel_speedup']:7.2f}x"
        )

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
