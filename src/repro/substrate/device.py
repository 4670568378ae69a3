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
from typing import AbstractSet, Dict, Mapping, Optional, Sequence, Tuple

from ..adversary.crash import CrashAdversary, NoCrashes
from ..adversary.loss import LossAdversary, RoundLosses
from ..contention.backoff import BackoffContentionManager
from ..core.algorithm import ConsensusAlgorithm
from ..core.environment import Environment
from ..core.errors import ConfigurationError
from ..core.execution import ExecutionEngine
from ..core.records import ExecutionResult
from ..core.types import CollisionAdvice, ProcessId, Value
from ..detectors.detector import CollisionDetector
from .carrier_sense import CarrierSenseDetector
from .radio import RadioChannel, RadioConfig, TransmissionOutcome


class PhysicalLayer(LossAdversary, CollisionDetector):
    """One object playing both engine roles, backed by one channel.

    The engine asks the loss adversary and the collision detector
    separately, but physically both answers come from the *same* round of
    radio arbitration.  The layer resolves each round once, keeps only
    the round it last resolved, and serves both interfaces from that
    outcome; asked to advise on any other round it raises
    :class:`~repro.core.errors.ConfigurationError`, so it must be
    installed as the environment's loss adversary too.
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
        # The last resolved round and its radio outcomes.
        self._resolved: Tuple[Optional[int], Dict] = (None, {})

    # -- shared round resolution ---------------------------------------
    def _outcomes(
        self, round_index: int, senders: Sequence[ProcessId]
    ) -> Dict[ProcessId, TransmissionOutcome]:
        resolved_round, outcomes = self._resolved
        if resolved_round != round_index:
            outcomes = self.channel.resolve_round(senders, self.indices)
            self._resolved = (round_index, outcomes)
        return outcomes

    # -- LossAdversary interface ----------------------------------------
    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        # One radio arbitration per round (kept for the detector's
        # benefit); the drop sets derive from the kept outcomes, so
        # building them consumes no randomness.
        outcomes = self._outcomes(round_index, senders)
        receivers_t = (
            receivers if type(receivers) is tuple else tuple(receivers)
        )
        drops: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers_t:
            decoded = set(outcomes[pid].decoded)
            drops[pid] = {
                s for s in senders if s != pid and s not in decoded
            }
        return RoundLosses.from_sets(senders, receivers_t, drops)

    # -- CollisionDetector interface --------------------------------------
    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        resolved_round, outcomes = self._resolved
        if resolved_round != round_index:
            raise ConfigurationError(
                f"PhysicalLayer holds no radio outcome for round "
                f"{round_index}: install the same layer as the "
                "environment's loss adversary"
            )
        return {
            pid: self.sensor.advise_from_outcome(outcomes[pid])
            for pid in received_counts
        }

    def reset(self) -> None:
        self.channel.reset()
        self._resolved = (None, {})

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
