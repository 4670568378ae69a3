"""Free-choice policies for collision detectors.

A detector *class* only constrains behaviour; inside the constraints a
detector may answer however it likes (the paper's MAXCD captures exactly
this freedom, Definition 15).  We factor the freedom into a *policy* object
that is consulted only when neither the completeness nor the accuracy
obligation pins down the answer.

Policies matter in two directions:

* **Upper bounds** run against hostile policies (spurious notifications,
  seeded noise) to demonstrate that the algorithms tolerate *any* detector
  in their class.
* **Lower bounds** drive the policy directly (:class:`CallbackPolicy`) to
  realise the specific adversarial detector their proofs construct.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Iterable, Optional, Set

from ..core.types import CollisionAdvice, ProcessId


class DetectorPolicy(abc.ABC):
    """Chooses advice for (round, process) pairs left free by the class."""

    #: True when ``free_choice`` depends only on ``(round_index, c, t)``
    #: — never on the pid and never on mutable/RNG state — so a detector
    #: may compute one answer per distinct ``t`` per round and fan it out
    #: to every process.  Conservative default: per-pid evaluation.
    pid_independent = False

    @abc.abstractmethod
    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        """Return the advice for an unconstrained (round, process) pair."""

    def reset(self) -> None:
        """Forget internal state before a fresh execution (default: none)."""


class BenignPolicy(DetectorPolicy):
    """Report a collision exactly when the process actually lost a message.

    This is the "honest" detector: within its class constraints it behaves
    like a perfect detector.  Used as the default for examples.
    """

    pid_independent = True

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        return CollisionAdvice.COLLISION if t < c else CollisionAdvice.NULL


class SilentPolicy(DetectorPolicy):
    """Stay silent whenever allowed — the *minimal* detector in its class.

    Against a half-complete detector this policy realises the adversarial
    "exactly half lost, no notification" behaviour at the heart of
    Theorem 6.
    """

    pid_independent = True

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        return CollisionAdvice.NULL


class NoisyPolicy(DetectorPolicy):
    """Report a collision whenever allowed — the *maximal* false-positive
    detector.  With ``AccuracyMode.NEVER`` this realises the paper's
    trivial ``NOCD`` detector that returns ``±`` everywhere."""

    pid_independent = True

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        return CollisionAdvice.COLLISION


class SpuriousUntilPolicy(DetectorPolicy):
    """False positives before a threshold round, honest afterwards.

    Models an eventually-accurate detector whose pre-``r_acc`` noise is as
    bad as the class permits: every free choice before ``quiet_round`` is a
    collision report.
    """

    pid_independent = True

    def __init__(self, quiet_round: int) -> None:
        self.quiet_round = quiet_round
        self._benign = BenignPolicy()

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        if round_index < self.quiet_round:
            return CollisionAdvice.COLLISION
        return self._benign.free_choice(round_index, pid, c, t)


class SeededRandomPolicy(DetectorPolicy):
    """Flip a seeded coin for every free choice.

    ``p_collision`` is the probability of answering ``±`` when
    unconstrained.  Deterministic given the seed, so executions replay.
    """

    def __init__(self, p_collision: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= p_collision <= 1.0:
            raise ValueError("p_collision must lie in [0, 1]")
        self.p_collision = p_collision
        self.seed = seed
        self._rng = random.Random(seed)

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        if self._rng.random() < self.p_collision:
            return CollisionAdvice.COLLISION
        return CollisionAdvice.NULL

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class TargetedSpuriousPolicy(DetectorPolicy):
    """Spurious collision reports at chosen (round, process) pairs.

    Anything not listed falls through to a benign choice.  Used by tests
    that need one precisely-placed false positive.
    """

    def __init__(
        self,
        spurious_rounds: Iterable[int] = (),
        spurious_pairs: Iterable[tuple] = (),
    ) -> None:
        self.spurious_rounds: Set[int] = set(spurious_rounds)
        self.spurious_pairs: Set[tuple] = set(spurious_pairs)
        self._benign = BenignPolicy()

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        if round_index in self.spurious_rounds:
            return CollisionAdvice.COLLISION
        if (round_index, pid) in self.spurious_pairs:
            return CollisionAdvice.COLLISION
        return self._benign.free_choice(round_index, pid, c, t)


class CallbackPolicy(DetectorPolicy):
    """Delegate every free choice to a callable.

    The callable receives ``(round_index, pid, c, t)`` and must return a
    :class:`CollisionAdvice`.  This is the lower-bound workhorse: each
    impossibility construction scripts the exact detector behaviour its
    proof requires, and the parametric detector still enforces that the
    script stays inside the class (so a buggy construction fails loudly
    instead of proving a false theorem).
    """

    def __init__(
        self,
        fn: Callable[[int, ProcessId, int, int], CollisionAdvice],
        on_reset: Optional[Callable[[], None]] = None,
    ) -> None:
        self._fn = fn
        self._on_reset = on_reset

    def free_choice(
        self, round_index: int, pid: ProcessId, c: int, t: int
    ) -> CollisionAdvice:
        return self._fn(round_index, pid, c, t)

    def reset(self) -> None:
        if self._on_reset is not None:
            self._on_reset()
