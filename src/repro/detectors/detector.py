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

from ..core.arrays import numpy_or_none
from ..core.errors import ConfigurationError, ModelViolation
from ..core.types import CollisionAdvice, ProcessId
from .policy import BenignPolicy, DetectorPolicy, NoisyPolicy
from .properties import (
    AccuracyMode,
    Completeness,
    accuracy_active,
    collision_obligation_array,
    must_report_collision,
    must_report_null,
)

#: Optional acceleration for array advice; same gate as every other
#: vectorised path (numpy importable, ``REPRO_PURE_PYTHON`` unset).
_np = numpy_or_none()

#: Advice by obligation truth value: ``lut[bool]``.
_ADVICE_LUT = (CollisionAdvice.NULL, CollisionAdvice.COLLISION)

#: policy class -> may its ``free_choice_array`` stand in for
#: ``free_choice``?  See :func:`_trusted_free_choice_array`.
_FCA_TRUSTED: Dict[type, bool] = {}


def _trusted_free_choice_array(policy_cls: type) -> bool:
    """May ``policy_cls.free_choice_array`` answer for ``free_choice``?

    Only when the *same* class (walking the MRO) provides both: a
    subclass that overrides ``free_choice`` while inheriting an
    ancestor's ``free_choice_array`` must not have its override silently
    bypassed by the array path, so the first class that defines either
    method decides — it is trusted exactly when it defines the array
    form itself.
    """
    cached = _FCA_TRUSTED.get(policy_cls)
    if cached is None:
        cached = False
        for klass in policy_cls.__mro__:
            owns_array = "free_choice_array" in klass.__dict__
            if owns_array or "free_choice" in klass.__dict__:
                cached = owns_array
                break
        _FCA_TRUSTED[policy_cls] = cached
    return cached


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
        alignment.  The default implementation round-trips through the
        dict :meth:`advise`, so third-party detectors written against
        the mapping interface keep working under the array kernel — they
        see the exact calls (same counts, same iteration order) the
        pure-python engine path would have made.  Two detectors override
        it with vectorised obligation resolution:
        :class:`ParametricCollisionDetector` (every Figure 1 class) and
        :class:`~repro.substrate.multihop.MultihopLayer`; every other
        detector, the phased ones included, takes this round trip.
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

    def advise_array(
        self,
        round_index: int,
        broadcasters: int,
        counts,
        indices: Sequence[ProcessId],
    ) -> List[CollisionAdvice]:
        """Vectorised advice: obligations in whole-array passes.

        Elementwise identical to :meth:`advise` — completeness and
        accuracy resolve as array predicates (Properties 4-9 over the
        counts array); free choices go to the policy exactly as the dict
        path would call it: through ``free_choice_array`` when the
        policy's own class vouches for it, once per distinct ``t`` for
        pid-independent policies, and once per unconstrained process
        *in index order* otherwise, so seeded policies consume their
        streams identically on both paths.  Subclasses that override
        :meth:`advise` are routed through the dict fallback, so their
        customisation is never silently bypassed.
        """
        if _np is None or type(self).advise is not ParametricCollisionDetector.advise:
            return CollisionDetector.advise_array(
                self, round_index, broadcasters, counts, indices
            )
        c = broadcasters
        if len(counts) and counts.max() > c:
            k = int((counts > c).argmax())
            raise ModelViolation(
                f"process {indices[k]} received {int(counts[k])} messages "
                f"but only {c} were broadcast"
            )
        obliged = collision_obligation_array(self.completeness, c, counts)
        accurate = accuracy_active(self.accuracy, round_index, self.r_acc)
        policy = self.policy
        if _trusted_free_choice_array(type(policy)):
            # A trusted array choice is a pure function of the counts, so
            # it is asked unconditionally: obliged cells stay COLLISION
            # and, when accuracy holds, a receiver that heard all c
            # messages is NULL.
            chosen = policy.free_choice_array(round_index, c, counts)
            if chosen is not None:
                if accurate:
                    chosen = chosen & (counts != c)
                return [_ADVICE_LUT[v] for v in (obliged | chosen).tolist()]
        if accurate:
            free = ~(obliged | (counts == c))
        else:
            free = ~obliged
        if free.any():
            free_choice = policy.free_choice
            if policy.pid_independent:
                for t in _np.unique(counts[free]).tolist():
                    mask = free & (counts == t)
                    first = int(mask.argmax())
                    choice = free_choice(round_index, indices[first], c, t)
                    if choice is CollisionAdvice.COLLISION:
                        obliged = obliged | mask
            else:
                counts_list = counts.tolist()
                for k in _np.flatnonzero(free).tolist():
                    choice = free_choice(
                        round_index, indices[k], c, counts_list[k]
                    )
                    if choice is CollisionAdvice.COLLISION:
                        obliged[k] = True
        return [_ADVICE_LUT[v] for v in obliged.tolist()]

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
