"""repro — an executable reproduction of *Consensus and Collision Detectors
in Wireless Ad Hoc Networks* (Chockler, Demirbas, Gilbert, Newport, Nolte;
PODC 2005 / Newport's MIT Master's thesis, 2006).

The package is organised by the paper's own structure:

* :mod:`repro.core`        — the formal model (Sections 2-3, 6): multisets,
  processes, environments, the synchronous round engine, traces, and the
  consensus-property checkers.
* :mod:`repro.detectors`   — receiver-side collision detectors and the
  Figure 1 completeness/accuracy class lattice (Section 5).
* :mod:`repro.contention`  — wake-up / leader-election services and a
  practical backoff manager (Section 4).
* :mod:`repro.adversary`   — message-loss and crash adversaries, including
  eventual collision freedom (Property 1).
* :mod:`repro.algorithms`  — Algorithms 1-3 and the non-anonymous variant
  (Section 7), plus naive baselines.
* :mod:`repro.lowerbounds` — the Section 8 impossibility and round-
  complexity constructions, as executable adversaries.
* :mod:`repro.substrate`   — a physical-layer substitute (capture-effect
  radio, carrier-sense detection, drifting clocks) standing in for the
  mote hardware the paper's motivation cites.
* :mod:`repro.experiments` — the per-table/figure experiment harness.

Quickstart::

    from repro import quick_consensus

    result = quick_consensus(values=["commit", "abort"], n=5)
    print(result.decisions)
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .core import (
    ConsensusReport,
    Environment,
    ExecutionResult,
    RecordPolicy,
    RoundSummary,
    evaluate,
    run_consensus,
)
from .core.types import ProcessId, Value

__version__ = "1.0.0"


def quick_consensus(
    values: Sequence[Value],
    n: int = 5,
    assignment: Optional[Dict[ProcessId, Value]] = None,
    loss_rate: float = 0.3,
    seed: int = 0,
    max_rounds: int = 500,
) -> ExecutionResult:
    """Run Algorithm 2 end-to-end with sensible defaults.

    Builds ``n`` processes, a zero-complete eventually-accurate detector,
    a wake-up service, and a lossy-but-eventually-collision-free channel,
    then runs Algorithm 2 until everyone decides.  This is the package's
    "hello world"; see :mod:`repro.experiments` for the full harness.
    """
    from .adversary import EventualCollisionFreedom, IIDLoss
    from .algorithms import algorithm_2
    from .contention import WakeUpService
    from .detectors import ZERO_OAC

    indices = tuple(range(n))
    if assignment is None:
        assignment = {
            i: values[i % len(values)] for i in indices
        }
    environment = Environment(
        indices=indices,
        detector=ZERO_OAC.make(r_acc=1),
        contention=WakeUpService(stabilization_round=1),
        loss=EventualCollisionFreedom(IIDLoss(loss_rate, seed=seed), r_cf=1),
    )
    return run_consensus(
        environment, algorithm_2(values), assignment, max_rounds=max_rounds
    )


__all__ = [
    "__version__",
    "quick_consensus",
    "Environment",
    "ExecutionResult",
    "RecordPolicy",
    "RoundSummary",
    "ConsensusReport",
    "evaluate",
    "run_consensus",
]
