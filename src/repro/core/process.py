"""Process automata (Definition 1).

A process in the paper is an automaton with a message-generation function
``msg(state, cm_advice)`` and a transition function
``trans(state, received_multiset, cd_advice, cm_advice)``, plus a single
absorbing *fail* state used to model crash failures.

We express the automaton in object form: subclasses keep their state in
instance attributes and implement :meth:`Process.message` and
:meth:`Process.transition`.  The execution engine owns the fail state — a
crashed process is simply never stepped again — which is observationally
identical to the paper's ``fail_A`` (no messages, no state change, forever).

Decision bookkeeping (``decide(v)`` / ``halt()``) follows the paper's
convention of dedicated decide states: once :meth:`Process.decide` is called
the decision is latched and cannot change; a *halted* process broadcasts
nothing and ignores further input, but is still "correct" (halting is not a
crash).
"""

from __future__ import annotations

import abc
from typing import Optional

from .errors import ModelViolation
from .multiset import Multiset
from .types import CollisionAdvice, ContentionAdvice, Message, Value

_UNDECIDED = object()


class Process(abc.ABC):
    """Base class for deterministic process automata.

    Subclasses must implement :meth:`message` and :meth:`transition` and
    must be deterministic: the model (Section 3.1) considers deterministic
    protocols only, and the lower-bound machinery replays executions under
    the assumption that identical advice sequences yield identical behavior.
    """

    def __init__(self) -> None:
        self._decision: object = _UNDECIDED
        self._decision_round: Optional[int] = None
        self._halted = False
        self._round = 0

    # ------------------------------------------------------------------
    # The automaton interface (msg_A and trans_A)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        """Return the message to broadcast this round, or ``None``.

        This is the paper's ``msg_A(state, advice)``.  The contention
        manager's advice is a *hint*; the process is free to ignore it
        (and Algorithm 3 does).
        """

    @abc.abstractmethod
    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        """Evolve local state at the end of a round.

        This is the paper's ``trans_A(state, received, cd, cm)``.
        ``received`` always contains the process's own message when it
        broadcast (Definition 11, constraint 5).
        """

    # ------------------------------------------------------------------
    # Decision bookkeeping
    # ------------------------------------------------------------------
    def decide(self, value: Value) -> None:
        """Latch a decision value (enter a decide state for ``value``).

        Deciding twice with different values is a programming error in an
        algorithm implementation and raises :class:`ModelViolation` so tests
        catch it immediately.
        """
        if self._decision is not _UNDECIDED and self._decision != value:
            raise ModelViolation(
                f"process attempted to re-decide: {self._decision!r} -> {value!r}"
            )
        if self._decision is _UNDECIDED:
            self._decision = value
            # decide() is called from within a round's transition, before
            # the engine advances the round counter, so the current round
            # is one past the completed count.
            self._decision_round = self._round + 1

    def halt(self) -> None:
        """Stop participating (no further broadcasts or transitions)."""
        self._halted = True

    # ------------------------------------------------------------------
    # Introspection used by the engine and by consensus checking
    # ------------------------------------------------------------------
    @property
    def decision(self) -> Optional[Value]:
        """The decided value, or ``None`` when undecided."""
        return None if self._decision is _UNDECIDED else self._decision

    @property
    def has_decided(self) -> bool:
        """True once :meth:`decide` has been called."""
        return self._decision is not _UNDECIDED

    @property
    def decision_round(self) -> Optional[int]:
        """1-based round in which the decision was made, or ``None``."""
        return self._decision_round

    @property
    def halted(self) -> bool:
        """True once :meth:`halt` has been called."""
        return self._halted

    @property
    def round(self) -> int:
        """The number of completed rounds for this process."""
        return self._round

    # ------------------------------------------------------------------
    # Engine hooks (internal)
    # ------------------------------------------------------------------
    def _advance_round(self) -> None:
        self._round += 1


class SilentProcess(Process):
    """A process that never broadcasts and never decides.

    Useful as a passive observer in tests and as a degenerate baseline.
    """

    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        return None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        return None


class ScriptedProcess(Process):
    """A process that broadcasts a fixed script of messages.

    Entry ``script[r-1]`` is broadcast in round ``r`` (``None`` = silent).
    After the script is exhausted the process stays silent.  Used heavily by
    engine and detector unit tests, where full algorithms would obscure the
    behaviour under test.
    """

    def __init__(self, script) -> None:
        super().__init__()
        self._script = list(script)
        self.observations = []

    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        if self._round < len(self._script):
            return self._script[self._round]
        return None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        self.observations.append((received, cd_advice, cm_advice))
