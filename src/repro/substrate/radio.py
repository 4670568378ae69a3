"""A single-hop radio channel with capture effect and interference.

The channel implements the physics the paper's communication model
abstracts away (Section 1.1):

* every sender has a transmit power; every (sender, receiver) pair draws
  independent log-normal fading per round, so different receivers see
  different signal strengths from the *same* transmission;
* a receiver decodes greedily by descending signal strength: the strongest
  frame is decoded if its SINR (signal over remaining interference plus
  noise) clears ``capture_threshold`` — the capture effect [71]; decoding
  then continues against the residual interference, so a receiver can
  occasionally decode more than one frame per round (long rounds relative
  to packet time);
* external interference bursts (a neighbouring clique transmitting) raise
  the noise floor for whole rounds, losing messages even when only a
  single local process broadcasts — the reason the paper makes collision
  freedom only *eventual*.

The outcome of a round is, per receiver, the decoded subset and the total
in-band energy — the latter is what carrier-sense collision detection
(see :mod:`repro.substrate.carrier_sense`) gets to look at.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.types import Message, ProcessId


@dataclasses.dataclass(frozen=True)
class RadioConfig:
    """Channel parameters.

    Defaults are tuned so that contention produces the 20-50% loss band
    the paper's empirical citations report, while a lone broadcaster
    (absent interference bursts) is received with near certainty.
    """

    tx_power: float = 1.0
    #: Log-normal fading sigma (in nats) applied per (sender, receiver, round).
    fading_sigma: float = 0.6
    #: Thermal noise floor.
    noise_floor: float = 0.01
    #: Minimum SINR to decode a frame.  The default puts pairwise
    #: contention at ~7% loss and three-way contention at ~58%, bracketing
    #: the 20-50% band the paper's empirical citations report, while a
    #: lone broadcaster is received with near certainty.
    capture_threshold: float = 0.9
    #: Fraction of a decoded frame's energy that survives interference
    #: cancellation and keeps jamming weaker frames (1.0 = pure capture of
    #: a single frame, 0.0 = ideal successive cancellation).
    cancellation_residual: float = 0.35
    #: Probability that a round suffers an external interference burst.
    burst_probability: float = 0.0
    #: Noise added during a burst (sensed by carrier sensing too).
    burst_noise: float = 5.0
    #: Energy-detection threshold used by carrier sensing.
    energy_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.tx_power <= 0 or self.noise_floor <= 0:
            raise ConfigurationError("powers must be positive")
        if not 0.0 <= self.burst_probability <= 1.0:
            raise ConfigurationError("burst_probability must be in [0,1]")


@dataclasses.dataclass(frozen=True)
class TransmissionOutcome:
    """What one receiver experienced in one round."""

    decoded: Tuple[ProcessId, ...]
    total_energy: float
    burst: bool

    @property
    def decoded_count(self) -> int:
        return len(self.decoded)


class RadioChannel:
    """The seeded physical channel.

    :meth:`resolve_round` takes the set of local senders and returns, per
    receiver, a :class:`TransmissionOutcome`.  Self-reception is handled
    by the caller (the model makes it unconditional); the channel only
    arbitrates *other* senders' frames.
    """

    def __init__(self, config: Optional[RadioConfig] = None, seed: int = 0) -> None:
        self.config = config or RadioConfig()
        self.seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    def resolve_round(
        self,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> Dict[ProcessId, TransmissionOutcome]:
        """Resolve one round of simultaneous broadcasts."""
        cfg = self.config
        burst = self._rng.random() < cfg.burst_probability
        noise = cfg.noise_floor + (cfg.burst_noise if burst else 0.0)
        outcomes: Dict[ProcessId, TransmissionOutcome] = {}
        for receiver in receivers:
            others = [s for s in senders if s != receiver]
            signals: List[Tuple[float, ProcessId]] = []
            for sender in others:
                fading = math.exp(
                    self._rng.gauss(0.0, cfg.fading_sigma)
                )
                signals.append((cfg.tx_power * fading, sender))
            signals.sort(reverse=True)
            signal_energy = sum(power for power, _ in signals)
            decoded: List[ProcessId] = []
            undecoded = signal_energy
            cancelled = 0.0
            for power, sender in signals:
                interference = (
                    (undecoded - power)
                    + cfg.cancellation_residual * cancelled
                    + noise
                )
                if power / interference >= cfg.capture_threshold:
                    decoded.append(sender)
                    undecoded -= power
                    cancelled += power
                else:
                    # Signals are sorted: once the strongest remaining frame
                    # fails the SINR test, the weaker ones fail too.
                    break
            # Carrier sensing sees everything in band, bursts included.
            sensed = signal_energy + (cfg.burst_noise if burst else 0.0)
            outcomes[receiver] = TransmissionOutcome(
                decoded=tuple(decoded),
                total_energy=sensed,
                burst=burst,
            )
        return outcomes

    # ------------------------------------------------------------------
    def loss_statistics(
        self,
        n: int,
        broadcasters: int,
        rounds: int,
    ) -> Mapping[str, float]:
        """Measure per-receiver message-loss fractions over many rounds.

        Used by the calibration experiment (E9) to confirm the channel
        sits in the paper's 20-50% loss band under contention.
        """
        if broadcasters < 1 or broadcasters > n:
            raise ConfigurationError("broadcasters must be in 1..n")
        indices = list(range(n))
        lost = 0
        possible = 0
        delivered_single = 0
        single_rounds = 0
        for _ in range(rounds):
            senders = indices[:broadcasters]
            outcomes = self.resolve_round(senders, indices)
            for receiver in indices:
                others = [s for s in senders if s != receiver]
                if not others:
                    continue
                possible += len(others)
                lost += len(others) - outcomes[receiver].decoded_count
            if broadcasters == 1:
                single_rounds += 1
                receiver_hits = sum(
                    1
                    for receiver in indices
                    if receiver != senders[0]
                    and outcomes[receiver].decoded_count == 1
                )
                delivered_single += receiver_hits
        stats = {
            "loss_fraction": lost / possible if possible else 0.0,
        }
        if broadcasters == 1 and single_rounds:
            stats["single_broadcaster_delivery"] = delivered_single / (
                single_rounds * (n - 1)
            )
        return stats
