"""End-to-end testbed: paper algorithms over the simulated physical layer.

The formal experiments drive algorithms with *formal* detectors and
adversaries; this module closes the loop the paper's Section 1.3 sketches
by running the same algorithm code over the physical substitute stack:

* message loss comes from the capture-effect radio,
* collision advice comes from carrier sensing over the same round's
  channel energy,
* contention management comes from the practical randomized backoff.

Because the hardware detector only *approximately* achieves a formal
class, the safety-critical question is whether the algorithms' agreement
and validity survive — which is precisely the paper's safety/liveness
separation: safety must not depend on the CM or on round-perfect
detection quality, and the resilience experiment (E10) verifies that.
"""

from __future__ import annotations

import dataclasses
from typing import AbstractSet, Dict, Mapping, Optional, Sequence

from ..adversary.crash import CrashAdversary, NoCrashes
from ..adversary.loss import LossAdversary, RoundLosses
from ..contention.backoff import BackoffContentionManager
from ..core.algorithm import ConsensusAlgorithm
from ..core.arrays import numpy_or_none
from ..core.environment import Environment
from ..core.execution import ExecutionEngine
from ..core.records import ExecutionResult
from ..core.types import CollisionAdvice, ProcessId, Value
from ..detectors.detector import CollisionDetector
from .carrier_sense import CarrierSenseDetector
from .radio import (
    RadioChannel,
    RadioConfig,
    TransmissionOutcome,
    outcome_drop_arrays,
)

_np = numpy_or_none()


class PhysicalLayer(LossAdversary, CollisionDetector):
    """One object playing both engine roles, backed by one channel.

    The engine asks the loss adversary and the collision detector
    separately, but physically both answers come from the *same* round of
    radio arbitration.  The layer resolves each round once (memoised by
    round index) and serves both interfaces from the cached outcome.
    """

    def __init__(
        self,
        indices: Sequence[ProcessId],
        config: Optional[RadioConfig] = None,
        seed: int = 0,
    ) -> None:
        self.indices = tuple(indices)
        self.channel = RadioChannel(config, seed=seed)
        self.sensor = CarrierSenseDetector(self.channel.config)
        self._round_cache: Dict[int, Dict[ProcessId, TransmissionOutcome]] = {}

    # -- shared round resolution ---------------------------------------
    def _outcomes(
        self, round_index: int, senders: Sequence[ProcessId]
    ) -> Dict[ProcessId, TransmissionOutcome]:
        if round_index not in self._round_cache:
            self._round_cache[round_index] = self.channel.resolve_round(
                senders, self.indices
            )
        return self._round_cache[round_index]

    # -- LossAdversary interface ----------------------------------------
    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        # One radio arbitration per round (memoised for the detector's
        # benefit); every view of the losses derives from the cached
        # outcomes, so none of them consumes randomness.
        outcomes = self._outcomes(round_index, senders)
        receivers_t = (
            receivers if type(receivers) is tuple else tuple(receivers)
        )

        def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
            for pid in receivers_t:
                decoded = set(outcomes[pid].decoded)
                out[pid] = {
                    s for s in senders if s != pid and s not in decoded
                }
            return out

        if _np is None:
            return RoundLosses.from_sets(senders, receivers_t, materialise())
        drop_counts, pairs = outcome_drop_arrays(
            _np, outcomes, senders, receivers_t
        )
        return RoundLosses(
            senders, receivers_t, drop_counts, materialise, pairs=pairs
        )

    # -- CollisionDetector interface --------------------------------------
    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        outcomes = self._round_cache.get(round_index)
        if outcomes is None:
            # No broadcast resolution happened (nobody sent): silent round.
            return {
                pid: CollisionAdvice.NULL for pid in received_counts
            }
        return {
            pid: self.sensor.advise_from_outcome(outcomes[pid])
            for pid in received_counts
        }

    def reset(self) -> None:
        self.channel.reset()
        self._round_cache = {}

    @property
    def r_cf(self) -> Optional[int]:
        # The radio promises nothing formally; liveness is empirical.
        return None


@dataclasses.dataclass
class TestbedResult:
    """Outcome of one testbed run."""

    # Not a pytest class, despite the collectable name.
    __test__ = False

    execution: ExecutionResult
    backoff_stabilized_at: Optional[int]
    leader: Optional[ProcessId]


class Testbed:
    """Run a consensus algorithm over the physical substitute stack."""

    # Not a pytest class, despite the collectable name.
    __test__ = False

    def __init__(
        self,
        n: int,
        config: Optional[RadioConfig] = None,
        seed: int = 0,
        crash: Optional[CrashAdversary] = None,
    ) -> None:
        self.indices = tuple(range(n))
        self.config = config or RadioConfig()
        self.seed = seed
        self.crash = crash or NoCrashes()

    def run(
        self,
        algorithm: ConsensusAlgorithm,
        initial_values: Mapping[ProcessId, Value],
        max_rounds: int = 1000,
    ) -> TestbedResult:
        """Execute until everyone decides or the horizon expires."""
        layer = PhysicalLayer(self.indices, self.config, seed=self.seed)
        backoff = BackoffContentionManager(seed=self.seed + 1)
        environment = Environment(
            indices=self.indices,
            detector=layer,
            contention=backoff,
            loss=layer,
            crash=self.crash,
        )
        environment.reset()
        processes = algorithm.instantiate(dict(initial_values))
        engine = ExecutionEngine(environment, processes, dict(initial_values))
        execution = engine.run(max_rounds, until_all_decided=True)
        # A process can broadcast its confirming solo message and crash
        # *after send* in the same round: the backoff locks it in, and
        # only the next advise() would heal.  If the run ended first,
        # don't report a crashed process as the standing leader.
        leader = backoff.leader
        stabilized_at = backoff.stabilized_at
        if leader is not None and execution.crash_rounds.get(leader) is not None:
            leader = None
            stabilized_at = None
        return TestbedResult(
            execution=execution,
            backoff_stabilized_at=stabilized_at,
            leader=leader,
        )
