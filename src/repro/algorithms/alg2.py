"""Algorithm 2: anonymous consensus with ECF and a 0-OAC detector (§7.2).

Cycles of ``⌈lg|V|⌉ + 2`` rounds, three phases per cycle:

* **prepare** — CM-``active`` processes broadcast their (binary-encoded)
  estimate; a clean, non-empty reception adopts the minimum;
* **propose** — one round per estimate bit: broadcast iff the bit is 1;
  a process whose bit is 0 that hears anything (message or collision)
  learns the estimates differ and clears its ``decide`` flag;
* **accept** — processes with a cleared flag broadcast ``veto``; a
  completely quiet accept round lets everyone decide.

Safety needs only zero completeness: a quiet round certifies that *nobody*
broadcast (Corollary 1), so a quiet accept round means no process objected,
which (by the propose-phase bit test) forces all estimates equal
(Lemma 10).  Termination is ``CST + 2(⌈lg|V|⌉ + 1)`` (Theorem 2).

The phase schedule is a pure function of the round number, so anonymous
processes stay in lockstep without any coordination.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.algorithm import ConsensusAlgorithm
from ..core.multiset import Multiset
from ..core.process import Process
from ..core.types import (
    ACTIVE,
    COLLISION,
    CollisionAdvice,
    ContentionAdvice,
    Message,
    Value,
)
from .encoding import BinaryEncoding, bit_width
from .markers import VETO, VOTE

PREPARE = "prepare"
PROPOSE = "propose"
ACCEPT = "accept"


class Alg2Process(Process):
    """One process of Algorithm 2.

    The estimate lives in its binary representation (the paper's
    ``V^{0,1}``); ``bit`` is 1-based with the most significant bit first,
    exactly matching the pseudocode's ``estimate_i[bit_i]``.
    """

    def __init__(self, initial_value: Value, encoding: BinaryEncoding) -> None:
        super().__init__()
        self.encoding = encoding
        self.estimate: str = encoding.encode(initial_value)
        self.size = encoding.width
        self.phase = PREPARE
        self.decide_flag = True
        self.bit = 1

    # ------------------------------------------------------------------
    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        if self.phase == PREPARE:
            # Lines 7-8: only CM-active processes broadcast the estimate.
            return self.estimate if cm_advice is ACTIVE else None
        if self.phase == PROPOSE:
            # Lines 17-18: broadcast iff the current bit is 1.
            return VOTE if self.estimate[self.bit - 1] == "1" else None
        # Lines 27-28: veto iff this cycle found an inconsistency.
        return VETO if not self.decide_flag else None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        if self.phase == PREPARE:
            estimates = {
                m for m in received.support() if isinstance(m, str)
            }
            # Lines 11-12: adopt the (lexicographic) minimum on a clean
            # reception; bit strings share a width, so lexicographic order
            # is the encoding's canonical order.
            if cd_advice is not COLLISION and estimates:
                self.estimate = min(estimates)
            # Lines 13-14: re-arm the cycle.
            self.decide_flag = True
            self.bit = 1
            self.phase = PROPOSE
        elif self.phase == PROPOSE:
            # Lines 21-22: a 0-bit listener that hears anything objects.
            heard_something = (
                len(received) > 0 or cd_advice is COLLISION
            )
            if heard_something and self.estimate[self.bit - 1] == "0":
                self.decide_flag = False
            self.bit += 1
            if self.bit > self.size:
                self.phase = ACCEPT
        else:  # ACCEPT
            # Lines 31-32: a perfectly quiet accept round decides.
            if received.is_empty() and cd_advice is not COLLISION:
                self.decide(self.encoding.decode(self.estimate))
                self.halt()
            self.phase = PREPARE


def algorithm_2(values: Iterable[Value]) -> ConsensusAlgorithm:
    """The anonymous (E(0-OAC, WS), V, ECF)-consensus algorithm over ``V``.

    All processes derive the same binary encoding from ``V``, mirroring the
    paper's assumption that the value set is common knowledge.
    """
    encoding = BinaryEncoding(values)
    return ConsensusAlgorithm.anonymous(
        lambda v: Alg2Process(v, encoding), name="algorithm-2"
    )


def cycle_length(value_count: int) -> int:
    """Rounds per prepare/propose/accept cycle: ``⌈lg|V|⌉ + 2``."""
    return bit_width(value_count) + 2


def termination_bound(cst: int, value_count: int) -> int:
    """Theorem 2's termination round: ``CST + 2(⌈lg|V|⌉ + 1)``."""
    return cst + 2 * (bit_width(value_count) + 1)
