"""Where the benchmark's metrics are declared, and the statistics it uses.

``BENCHMARK.json`` is the one list of metric names, units and
directions; :func:`spec` reads it.  :data:`ARROWS` adds, for each
per-layer metric, the program module it measures and the end-to-end
metric and workload it should move, which ``summary.py`` prints beside
the value and ``perfbench/README.md`` explains.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Optional, Sequence, Tuple

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10

_E18 = "on e18-small"
_BOTH = "on e19-churn and e18-small"

#: Per-layer metric -> (module it measures, what it should move).
ARROWS: Dict[str, Tuple[str, str]] = {
    "grid.derive_s": ("experiments.harness", "cells_per_s " + _E18),
    "scenario.build_ms": ("experiments.harness", "cell_ms_p50 " + _E18),
    "dispatch.overhead_ms_per_cell": (
        "experiments.dispatch", "cells_per_s and cell_ms_p50 " + _E18),
    "dispatch.worker_busy_frac": ("experiments.dispatch",
                                  "cells_per_s " + _E18),
    "dispatch.workers_spawned": ("experiments.dispatch", "setup_s"),
    "store.write_round_us": ("core.records", "cells_per_s " + _BOTH),
    "store.write_round_calls": ("core.records", "cells_per_s " + _BOTH),
    "store.write_round_s": ("core.records", "cells_per_s " + _BOTH),
    "store.record_cell_us": ("core.records", "cell_ms_p50 " + _E18),
    "store.clear_rounds_us": ("core.records", "cell_ms_p50 " + _E18),
    "store.connects": ("core.records", "cells_per_s " + _E18),
    "store.get_cells_s": ("core.records", "cells_per_s " + _E18),
    "store.round_aggregates_s": ("core.records", "cells_per_s " + _E18),
    "store.db_bytes": ("core.records", "cells_per_s " + _E18),
    "campaign.resume_s": ("experiments.campaign", "cells_per_s " + _E18),
    "campaign.report_s": ("experiments.campaign", "cells_per_s " + _E18),
    "engine.step_us": ("core.execution", "rounds_per_s " + _BOTH),
    "engine.step_self_s": ("core.execution", "rounds_per_s " + _BOTH),
    "engine.kernel_round_frac": ("core.execution",
                                 "rounds_per_s on e19-churn"),
    "loss.resolve_s": ("adversary.loss", "rounds_per_s " + _BOTH),
    "detector.advise_s": ("detectors", "rounds_per_s " + _BOTH),
    "process.message_s": ("algorithms", "rounds_per_s " + _BOTH),
    "process.transition_s": ("algorithms", "rounds_per_s " + _BOTH),
    "churn.events_frac": ("adversary.churn", "rounds_per_s on e19-churn"),
    "substrate.multihop_frac": ("substrate.multihop",
                                "rounds_per_s on e19-churn"),
    "bench.traced_cells_per_s": (
        "perfbench", "tracing overhead against the untraced cells_per_s"),
}


def spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` at the root of the checkout."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (nearest rank), or ``None`` if unsupported.

    The nearest-rank value is the ``ceil(q/100 * n)``-th smallest sample.
    It is refused (``None``) when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond that rank, because a tail read from fewer samples
    moves with every outlier.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]
