"""Concrete collision detectors (Definition 6, realised as objects).

Formally a P-collision detector maps transmission traces to sets of legal
CD traces.  Operationally we implement a detector as an object that, each
round, sees only this round's transmission data ``(c, T)`` — never message
contents or sender identities, exactly as Definition 6 requires — and
returns advice for every process.

:class:`ParametricCollisionDetector` is the single implementation: it
enforces the completeness/accuracy *obligations* of its configured class
and delegates all remaining freedom to a :class:`DetectorPolicy`.  Every
detector in the Figure 1 lattice, plus NoCD and NoACC, is an instance.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.errors import ConfigurationError, ModelViolation
from ..core.types import CollisionAdvice, ProcessId
from .policy import BenignPolicy, DetectorPolicy, NoisyPolicy
from .properties import (
    AccuracyMode,
    Completeness,
    accuracy_active,
    must_report_collision,
    must_report_null,
)


class CollisionDetector(abc.ABC):
    """Interface consumed by the execution engine."""

    @abc.abstractmethod
    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        """Return advice for every process for round ``round_index``.

        ``broadcasters`` is the paper's ``c``; ``received_counts[i]`` is
        ``T(i)``.  Implementations must not consult anything else — the
        engine deliberately passes only counts.
        """

    def advise_array(
        self,
        round_index: int,
        broadcasters: int,
        counts,
        indices: Sequence[ProcessId],
    ) -> List[CollisionAdvice]:
        """Array advice for the engine's vectorised round kernel.

        ``counts`` is an int array of per-process receive counts aligned
        with ``indices`` (the paper's ``T`` as one array instead of a
        mapping); the return value is the advice list in the same
        alignment.  It round-trips through the dict :meth:`advise`, so
        every detector states its obligations once and sees the exact
        calls (same counts, same iteration order) the pure-python engine
        path would have made.  Only
        :class:`~repro.substrate.multihop.MultihopLayer` overrides it,
        resolving its per-neighbourhood obligations on the counts array.
        """
        received_counts = dict(zip(indices, counts.tolist()))
        advice = self.advise(round_index, broadcasters, received_counts)
        if not set(indices) <= advice.keys():
            missing = set(indices) - advice.keys()
            raise ModelViolation(
                f"collision detector omitted advice for {sorted(missing)}"
            )
        return [advice[pid] for pid in indices]

    def reset(self) -> None:
        """Prepare for a fresh execution (default: stateless)."""


class ParametricCollisionDetector(CollisionDetector):
    """A detector defined by (completeness, accuracy, policy).

    Parameters
    ----------
    completeness:
        The completeness obligation (Properties 4-7) the detector honours.
    accuracy:
        ``ALWAYS``, ``EVENTUAL`` or ``NEVER`` (Properties 8-9).
    r_acc:
        For ``EVENTUAL`` accuracy, the (1-based) round from which accuracy
        holds.  The paper's algorithms never learn this value; it exists
        only inside the environment.
    policy:
        Decides every unconstrained answer.  Defaults to
        :class:`BenignPolicy`.

    The detector *checks its own output*: if the policy ever returns advice
    that violates an obligation, the obligation wins, so a parametric
    detector is legal for its class by construction.
    """

    def __init__(
        self,
        completeness: Completeness,
        accuracy: AccuracyMode,
        r_acc: Optional[int] = None,
        policy: Optional[DetectorPolicy] = None,
    ) -> None:
        if accuracy is AccuracyMode.EVENTUAL:
            if r_acc is None or r_acc < 1:
                raise ConfigurationError(
                    "EVENTUAL accuracy requires r_acc >= 1"
                )
        elif r_acc is not None:
            raise ConfigurationError(
                "r_acc is only meaningful with EVENTUAL accuracy"
            )
        self.completeness = completeness
        self.accuracy = accuracy
        self.r_acc = r_acc
        self.policy = policy if policy is not None else BenignPolicy()

    # ------------------------------------------------------------------
    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        advice: Dict[ProcessId, CollisionAdvice] = {}
        c = broadcasters
        # The completeness/accuracy obligations depend only on (c, t), and
        # c is fixed for the round: resolve each distinct t once.  Free
        # choices stay per-process unless the policy declares itself
        # pid-independent, in which case they memoise per t as well.
        obligation: Dict[int, Optional[CollisionAdvice]] = {}
        free_choice = self.policy.free_choice
        memo_free = self.policy.pid_independent
        for pid, t in received_counts.items():
            if t > c:
                raise ModelViolation(
                    f"process {pid} received {t} messages but only {c} "
                    "were broadcast"
                )
            if t in obligation:
                obliged = obligation[t]
            elif must_report_collision(self.completeness, c, t):
                obliged = obligation[t] = CollisionAdvice.COLLISION
            elif must_report_null(
                self.accuracy, round_index, self.r_acc, c, t
            ):
                obliged = obligation[t] = CollisionAdvice.NULL
            elif memo_free:
                obliged = obligation[t] = free_choice(round_index, pid, c, t)
            else:
                obliged = obligation[t] = None
            advice[pid] = (
                obliged if obliged is not None
                else free_choice(round_index, pid, c, t)
            )
        return advice

    def reset(self) -> None:
        self.policy.reset()

    # ------------------------------------------------------------------
    def accuracy_active_at(self, round_index: int) -> bool:
        """Is the accuracy obligation in force at ``round_index``?"""
        return accuracy_active(self.accuracy, round_index, self.r_acc)

    def __repr__(self) -> str:
        acc = self.accuracy.name
        if self.accuracy is AccuracyMode.EVENTUAL:
            acc += f"(r_acc={self.r_acc})"
        return (
            f"ParametricCollisionDetector({self.completeness.name}, {acc}, "
            f"policy={type(self.policy).__name__})"
        )


def no_cd_detector() -> ParametricCollisionDetector:
    """The paper's trivial ``NOCD_P`` detector: ``±`` everywhere.

    Returning ``±`` to every process in every round trivially satisfies
    completeness (Lemma 1: NoCD is a subset of NoACC) and satisfies no
    accuracy property.
    """
    return ParametricCollisionDetector(
        Completeness.FULL, AccuracyMode.NEVER, policy=NoisyPolicy()
    )


def perfect_detector() -> ParametricCollisionDetector:
    """A detector in AC with honest free choices: the classical "perfect"
    collision detector (complete and accurate)."""
    return ParametricCollisionDetector(
        Completeness.FULL, AccuracyMode.ALWAYS, policy=BenignPolicy()
    )
