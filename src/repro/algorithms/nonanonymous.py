"""The non-anonymous consensus variant of Section 7.3.

When the identifier space ``I`` is smaller than the value space ``V``,
running Algorithm 2 directly over ``V`` is wasteful: electing a *leader*
by running Algorithm 2 over ``I`` (each process's initial value is its own
ID) and then having the leader disseminate its real value costs only
``Θ(lg|I|)`` rounds.  The composite terminates in
``CST + Θ(min{lg|V|, lg|I|})`` rounds, (almost) matching Corollary 3.

Structure, following the paper's informal description:

* ``|V| <= |I|`` — plain Algorithm 2 over ``V``, unmodified.
* ``|V| > |I|`` — rounds are grouped into repeating triples:

  - **phase-1 rounds** (``r ≡ 1 mod 3``) run consecutive instances of
    Algorithm 2 over the ID space.  A new instance's prepare-phase
    broadcasts are suppressed until the current leader is detected dead,
    so re-election cannot begin (let alone finish) while the leader lives;
  - **phase-2 rounds** (``r ≡ 2 mod 3``): the elected leader broadcasts a
    value; everyone else listens.  A silent phase-2 round after an
    election is definitive evidence of leader death (a live leader
    broadcasts every phase-2 round, and zero completeness turns "heard
    nothing, no collision" into "nobody broadcast" — Corollary 1);
  - **phase-3 rounds** (``r ≡ 0 mod 3``): processes that have not yet
    received a leader value broadcast ``veto``; a quiet phase-3 round
    certifies that every live process holds the value, and every holder
    that observes the quiet round decides.

Reproduction notes (where this departs from the paper):

1. The paper has non-leaders decide *on first reception* of a phase-2
   value.  That is unsafe if the leader crashes after a partial delivery:
   a later leader would broadcast a different value.  We instead decide on
   the first *quiet phase-3* round, the same negative-acknowledgement
   pattern as Algorithm 1 — a quiet phase 3 proves all live processes hold
   the value, at the cost of at most one extra round triple.
2. Leaders broadcast their *locked* value — the first phase-2 value they
   ever received — falling back to their own initial value.  Combined with
   note 1 this makes re-election value-preserving: if anyone decided ``v``,
   every live process holds ``v``, so every future leader re-broadcasts
   ``v``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..core.algorithm import ConsensusAlgorithm
from ..core.errors import ConfigurationError
from ..core.multiset import Multiset
from ..core.process import Process
from ..core.types import (
    ACTIVE,
    COLLISION,
    CollisionAdvice,
    ContentionAdvice,
    Message,
    ProcessId,
    Value,
)
from .alg2 import Alg2Process, algorithm_2
from .encoding import BinaryEncoding
from .markers import VETO, VOTE

PHASE1 = "election"
PHASE2 = "dissemination"
PHASE3 = "confirmation"


class _ValueEnvelope:
    """A phase-2 payload: distinguishes leader values from election traffic."""

    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"LeaderValue({self.value!r})"


class LeaderElectProcess(Process):
    """The ``|V| > |I|`` composite: elect-by-ID, then disseminate.

    The phase-1 election machinery is a repeated-cycle Algorithm 2 over
    the ID space, inlined (not delegated to :class:`Alg2Process`) because
    it must never halt and must gate its prepare broadcasts on leader
    liveness.
    """

    def __init__(
        self,
        pid: ProcessId,
        initial_value: Value,
        id_encoding: BinaryEncoding,
    ) -> None:
        super().__init__()
        if pid not in id_encoding:
            raise ConfigurationError(
                f"process id {pid!r} is outside the declared ID space"
            )
        self.pid = pid
        self.initial_value = initial_value
        self.id_encoding = id_encoding

        # Election (phase-1) state: an Algorithm 2 cycle over ID bits.
        self.id_estimate: str = id_encoding.encode(pid)
        self.id_size = id_encoding.width
        self.election_phase = "prepare"
        self.election_decide = True
        self.election_bit = 1

        # Leadership / dissemination state.
        self.leader: Optional[ProcessId] = None
        self.leader_dead = False
        self.locked_value: Optional[Value] = None
        self._phase1_count = 0

    # ------------------------------------------------------------------
    @property
    def round_phase(self) -> str:
        """Which of the three interleaved phases the *next* round is."""
        position = self._round % 3
        return (PHASE1, PHASE2, PHASE3)[position]

    @property
    def is_leader(self) -> bool:
        return self.leader == self.pid

    @property
    def value_to_disseminate(self) -> Value:
        """Locked value when one exists, else this process's own input."""
        return (
            self.locked_value
            if self.locked_value is not None
            else self.initial_value
        )

    # ------------------------------------------------------------------
    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        phase = self.round_phase
        if phase == PHASE1:
            return self._election_message(cm_advice)
        if phase == PHASE2:
            if self.is_leader:
                return _ValueEnvelope(self.value_to_disseminate)
            return None
        # PHASE3: veto while the leader's value is still missing here.
        if (
            self.leader is not None
            and not self.is_leader
            and self.locked_value is None
        ):
            return VETO
        return None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        phase = self.round_phase
        if phase == PHASE1:
            self._election_transition(received, cd_advice)
        elif phase == PHASE2:
            self._dissemination_transition(received, cd_advice)
        else:
            self._confirmation_transition(received, cd_advice)

    # ------------------------------------------------------------------
    # Phase 1: repeated Algorithm 2 cycles over the ID space.
    # ------------------------------------------------------------------
    def _election_message(
        self, cm_advice: ContentionAdvice
    ) -> Optional[Message]:
        if self.election_phase == "prepare":
            suppressed = self.leader is not None and not self.leader_dead
            if cm_advice is ACTIVE and not suppressed:
                return self.id_estimate
            return None
        if self.election_phase == "propose":
            bit = self.id_estimate[self.election_bit - 1]
            return VOTE if bit == "1" else None
        # accept
        return VETO if not self.election_decide else None

    def _election_transition(
        self, received: Multiset, cd_advice: CollisionAdvice
    ) -> None:
        if self.election_phase == "prepare":
            estimates = {
                m for m in received.support() if isinstance(m, str)
            }
            if cd_advice is not COLLISION and estimates:
                self.id_estimate = min(estimates)
            self.election_decide = True
            self.election_bit = 1
            self.election_phase = "propose"
        elif self.election_phase == "propose":
            heard = len(received) > 0 or cd_advice is COLLISION
            if heard and self.id_estimate[self.election_bit - 1] == "0":
                self.election_decide = False
            self.election_bit += 1
            if self.election_bit > self.id_size:
                self.election_phase = "accept"
        else:  # accept
            if received.is_empty() and cd_advice is not COLLISION:
                self.leader = self.id_encoding.decode(self.id_estimate)
                self.leader_dead = False
                # Start the next instance fresh from this process's own ID.
                self.id_estimate = self.id_encoding.encode(self.pid)
            self.election_phase = "prepare"

    # ------------------------------------------------------------------
    # Phase 2: leader dissemination and death detection.
    # ------------------------------------------------------------------
    def _dissemination_transition(
        self, received: Multiset, cd_advice: CollisionAdvice
    ) -> None:
        envelopes = [
            m for m in received if isinstance(m, _ValueEnvelope)
        ]
        if envelopes and self.locked_value is None:
            # Lock the first leader value ever received (reproduction
            # note 2): this is what we would re-broadcast as leader.
            self.locked_value = envelopes[0].value
        if (
            self.leader is not None
            and not self.is_leader
            and self.locked_value is None
            and received.is_empty()
            and cd_advice is not COLLISION
        ):
            # Silence with a zero-complete detector means nobody broadcast,
            # and a live leader always broadcasts in phase 2: it is dead.
            self.leader_dead = True

    # ------------------------------------------------------------------
    # Phase 3: negative acknowledgements and the decision rule.
    # ------------------------------------------------------------------
    def _confirmation_transition(
        self, received: Multiset, cd_advice: CollisionAdvice
    ) -> None:
        quiet = received.is_empty() and cd_advice is not COLLISION
        if quiet and self.locked_value is not None:
            # A quiet phase 3 proves every live process holds the value
            # (anyone missing it would have vetoed, and zero completeness
            # makes a missed veto visible as a collision).
            self.decide(self.locked_value)
            self.halt()


def non_anonymous_algorithm(
    values: Iterable[Value], id_space: Sequence[ProcessId]
) -> ConsensusAlgorithm:
    """The Section 7.3 algorithm for value set ``V`` and ID space ``I``.

    Chooses the cheaper machinery: plain Algorithm 2 over ``V`` when
    ``|V| <= |I|``, leader-election-then-disseminate otherwise.
    """
    value_list = list(values)
    ids = list(id_space)
    if not ids:
        raise ConfigurationError("the ID space must be non-empty")
    if len(set(ids)) != len(ids):
        raise ConfigurationError("the ID space contains duplicates")
    if len(value_list) <= len(ids):
        inner = algorithm_2(value_list)
        return ConsensusAlgorithm.indexed(
            lambda pid, v: inner.spawn(pid, v),
            name="non-anonymous(alg2-on-values)",
        )
    id_encoding = BinaryEncoding(ids)
    return ConsensusAlgorithm.indexed(
        lambda pid, v: LeaderElectProcess(pid, v, id_encoding),
        name="non-anonymous(leader-elect)",
    )


def termination_bound(
    cst: int, value_count: int, id_count: int
) -> int:
    """``CST + Θ(min{lg|V|, lg|I|})`` with explicit constants.

    For the Algorithm 2 branch this is Theorem 2's bound.  For the
    leader-elect branch: the election is an Algorithm 2 run over ``I``
    whose rounds are diluted 3x by the phase interleaving, plus one full
    dissemination/confirmation triple.
    """
    if value_count <= id_count:
        width = BinaryEncoding(range(value_count)).width
        return cst + 2 * (width + 1)
    width = BinaryEncoding(range(id_count)).width
    election_rounds = 3 * 2 * (width + 2)
    return cst + election_rounds + 6
