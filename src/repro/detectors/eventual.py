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

from typing import Optional

from ..core.errors import ConfigurationError
from .detector import ParametricCollisionDetector
from .policy import DetectorPolicy
from .properties import AccuracyMode, Completeness


class PhasedCompletenessDetector(ParametricCollisionDetector):
    """Weak completeness before ``r_comp``, strong completeness after.

    Parameters mirror :class:`ParametricCollisionDetector`; the policy
    decides everything neither phase's obligations pin down.  Its
    ``completeness`` is the level it honours in every round (``weak``);
    only :meth:`completeness_at` differs from the parent's, so the
    inherited ``advise`` and the environment's CST (``r_acc = 1`` when
    always accurate) treat it as they treat a Figure 1 class.
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
        super().__init__(weak, accuracy, r_acc=r_acc, policy=policy)
        self.weak = weak
        self.strong = strong
        self.r_comp = r_comp

    def completeness_at(self, round_index: int) -> Completeness:
        """The completeness obligation in force at ``round_index``."""
        return self.strong if round_index >= self.r_comp else self.weak

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
