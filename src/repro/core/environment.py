"""Environments and systems (Definitions 9-10) plus CST bookkeeping.

An *environment* bundles a process index set ``P``, a collision detector,
and a contention manager; a *system* pairs an environment with an
algorithm.  Operationally the environment also carries the two adversaries
(message loss and crashes) that resolve the model's remaining
nondeterminism — formally these are properties of a specific execution,
but fixing them up front is how every proof in the paper proceeds.

The *communication stabilization time* ``CST = max(r_cf, r_acc, r_wake)``
(Definition 20) is computed here from the components' declared
stabilization rounds; all round-complexity bounds in the paper are stated
relative to it.

This module also hosts the *array-kernel capability probe*
(:func:`array_kernel_module`): the single place the execution engine
asks whether the vectorised round kernel may run.  The probe delegates
to :mod:`repro.core.arrays` — numpy importable and ``REPRO_PURE_PYTHON``
unset — so the engine, the batched loss adversaries, and the multihop
layer's array advice all gate on one answer and an execution can never
mix backends mid-run.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..adversary.churn import ChurnAdversary, NoChurn
from ..adversary.crash import CrashAdversary, NoCrashes
from ..adversary.loss import LossAdversary, ReliableDelivery
from ..contention.manager import ContentionManager
from ..detectors.detector import CollisionDetector, ParametricCollisionDetector
from .arrays import numpy_or_none
from .errors import ConfigurationError
from .types import ProcessId


def array_kernel_module():
    """The numpy module the array round kernel runs on, or ``None``.

    ``None`` means the engine must take its pure-python reference path:
    numpy is not importable, or the operator forced the pure backend by
    exporting ``REPRO_PURE_PYTHON=1`` before the interpreter started.
    The two paths produce indistinguishable executions (asserted by the
    equivalence suite in ``tests/test_array_kernel.py``); only the
    throughput differs.
    """
    return numpy_or_none()


@dataclasses.dataclass
class Environment:
    """Definition 9: ``(P, CD, CM)`` plus this execution's adversaries."""

    indices: Tuple[ProcessId, ...]
    detector: CollisionDetector
    contention: ContentionManager
    loss: LossAdversary = dataclasses.field(default_factory=ReliableDelivery)
    crash: CrashAdversary = dataclasses.field(default_factory=NoCrashes)
    churn: ChurnAdversary = dataclasses.field(default_factory=NoChurn)

    def __post_init__(self) -> None:
        if not self.indices:
            raise ConfigurationError("an environment needs a non-empty P")
        if len(set(self.indices)) != len(self.indices):
            raise ConfigurationError("process indices must be distinct")
        self.indices = tuple(sorted(self.indices))

    @property
    def n(self) -> int:
        """``|P|`` — unknown to the processes, known to the experimenter."""
        return len(self.indices)

    def communication_stabilization_time(self) -> Optional[int]:
        """Definition 20: ``max(r_cf, r_acc, r_wake)`` when all are known.

        Returns ``None`` when any component makes no stabilization promise
        (e.g. NoCM-style managers promise nothing; always-accurate
        detectors count as ``r_acc = 1``).
        """
        r_cf = self.loss.r_cf
        r_wake = self.contention.stabilization_round
        r_acc = _detector_r_acc(self.detector)
        if r_cf is None or r_wake is None or r_acc is None:
            return None
        return max(r_cf, r_acc, r_wake)

    def reset(self) -> None:
        """Reset all stateful components for a fresh execution."""
        self.detector.reset()
        self.contention.reset()
        self.loss.reset()
        self.crash.reset()
        self.churn.reset()


def _detector_r_acc(detector: CollisionDetector) -> Optional[int]:
    """The round from which the detector is accurate, if it ever is."""
    if isinstance(detector, ParametricCollisionDetector):
        from ..detectors.properties import AccuracyMode

        if detector.accuracy is AccuracyMode.ALWAYS:
            return 1
        if detector.accuracy is AccuracyMode.EVENTUAL:
            return detector.r_acc
        return None
    r_acc = getattr(detector, "r_acc", None)
    return r_acc
