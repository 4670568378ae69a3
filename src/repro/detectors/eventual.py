"""Phased-completeness detectors (the conclusion's open questions).

The paper's conclusion asks about detectors whose *completeness* varies
over time: "a collision detector that is always zero complete and
occasionally fully complete", and notes that consensus is impossible "if
a collision detector might satisfy no completeness properties for an a
priori unknown number of rounds".  This module supplies the detector
family for both investigations:

:class:`PhasedCompletenessDetector` honours a *weak* completeness level
before an unknown round ``r_comp`` and a *strong* one from it onward
(accuracy is configured independently, as usual).  Two instantiations
matter:

* ``weak=NONE`` — eventual completeness only.  The executable
  impossibility (:func:`repro.lowerbounds.theorems.eventual_completeness_witness`)
  shows why the paper never studies this class: before ``r_comp`` the
  detector may stay silent through arbitrary loss, so a partition is
  invisible, exactly as with NoCD.
* ``weak=ZERO, strong=FULL`` — the open question's "usually perfect,
  always at least carrier-sense" detector.  Algorithm 2 runs unmodified
  (zero completeness is all it needs); Algorithm 1 is *unsafe* before
  ``r_comp`` (its agreement argument needs majority completeness in
  every round), which the E13 experiment demonstrates with a concrete
  violating execution.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..core.errors import ConfigurationError, ModelViolation
from ..core.types import CollisionAdvice, ProcessId
from .detector import CollisionDetector
from .policy import BenignPolicy, DetectorPolicy
from .properties import (
    AccuracyMode,
    Completeness,
    must_report_collision,
    must_report_null,
)


class PhasedCompletenessDetector(CollisionDetector):
    """Weak completeness before ``r_comp``, strong completeness after.

    Parameters mirror :class:`ParametricCollisionDetector`; the policy
    decides everything neither phase's obligations pin down.  Kernel
    rounds reach :meth:`advise` through the base ``advise_array`` round
    trip, as they reach every single-hop detector, so both engine paths
    make the same policy calls.
    """

    def __init__(
        self,
        weak: Completeness,
        strong: Completeness,
        r_comp: int,
        accuracy: AccuracyMode = AccuracyMode.ALWAYS,
        r_acc: Optional[int] = None,
        policy: Optional[DetectorPolicy] = None,
    ) -> None:
        if strong.value < weak.value:
            raise ConfigurationError(
                "the strong completeness level must be at least the weak one"
            )
        if r_comp < 1:
            raise ConfigurationError("r_comp must be >= 1")
        if accuracy is AccuracyMode.EVENTUAL and (r_acc is None or r_acc < 1):
            raise ConfigurationError("EVENTUAL accuracy requires r_acc >= 1")
        if accuracy is not AccuracyMode.EVENTUAL and r_acc is not None:
            raise ConfigurationError(
                "r_acc is only meaningful with EVENTUAL accuracy"
            )
        self.weak = weak
        self.strong = strong
        self.r_comp = r_comp
        self.accuracy = accuracy
        self.r_acc = r_acc
        self.policy = policy if policy is not None else BenignPolicy()

    def completeness_at(self, round_index: int) -> Completeness:
        """The completeness obligation in force at ``round_index``."""
        return self.strong if round_index >= self.r_comp else self.weak

    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        level = self.completeness_at(round_index)
        advice: Dict[ProcessId, CollisionAdvice] = {}
        for pid, t in received_counts.items():
            if t > broadcasters:
                raise ModelViolation(
                    f"process {pid} received {t} of {broadcasters} messages"
                )
            if must_report_collision(level, broadcasters, t):
                advice[pid] = CollisionAdvice.COLLISION
            elif must_report_null(
                self.accuracy, round_index, self.r_acc, broadcasters, t
            ):
                advice[pid] = CollisionAdvice.NULL
            else:
                advice[pid] = self.policy.free_choice(
                    round_index, pid, broadcasters, t
                )
        return advice

    def reset(self) -> None:
        self.policy.reset()

    def __repr__(self) -> str:
        return (
            f"PhasedCompletenessDetector({self.weak.name}->"
            f"{self.strong.name}@r{self.r_comp}, {self.accuracy.name})"
        )


def eventually_complete_detector(
    r_comp: int, policy: Optional[DetectorPolicy] = None
) -> PhasedCompletenessDetector:
    """No completeness before ``r_comp``, full completeness after."""
    return PhasedCompletenessDetector(
        Completeness.NONE, Completeness.FULL, r_comp,
        accuracy=AccuracyMode.ALWAYS, policy=policy,
    )


def usually_perfect_detector(
    r_comp: int, policy: Optional[DetectorPolicy] = None
) -> PhasedCompletenessDetector:
    """The open question's detector: always 0-complete, eventually full."""
    return PhasedCompletenessDetector(
        Completeness.ZERO, Completeness.FULL, r_comp,
        accuracy=AccuracyMode.ALWAYS, policy=policy,
    )
