"""The Figure 1 collision-detector class lattice.

Figure 1 of the paper names eight classes — the product of four
completeness levels and two accuracy regimes::

                Complete   maj-Complete   half-Complete   0-Complete
    Accurate       AC         maj-AC         half-AC         0-AC
    Ev.Accurate    OAC        maj-OAC        half-OAC        0-OAC

plus two special classes: **NoCD** (the trivial always-``±`` detector) and
**NoACC** (complete, but no accuracy guarantee whatsoever).

This module provides a registry of these classes, membership and subset
tests (the containment lattice drives which theorems transfer between
classes, e.g. Lemma 1: ``NoCD ⊆ NoACC``), and factory helpers to build a
concrete :class:`ParametricCollisionDetector` inside a class.

Every detector built through :meth:`DetectorClass.make` is a
:class:`ParametricCollisionDetector`, which states the
completeness/accuracy obligations once, in its dict ``advise``, which
the engine calls every round (see :mod:`repro.detectors.detector`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from ..core.errors import ConfigurationError
from .detector import ParametricCollisionDetector, no_cd_detector
from .policy import DetectorPolicy
from .properties import AccuracyMode, Completeness


@dataclasses.dataclass(frozen=True)
class DetectorClass:
    """A named collision-detector class from the paper.

    ``special`` marks NoCD, whose definition is "the one trivial detector"
    rather than a property combination.
    """

    name: str
    completeness: Completeness
    accuracy: AccuracyMode
    special: bool = False

    def contains(self, detector: ParametricCollisionDetector) -> bool:
        """Class membership: does ``detector`` satisfy our properties?

        A detector with a stronger completeness level and a stronger
        accuracy regime is a member of every weaker class (the containment
        direction used throughout Sections 7-8).
        """
        if self.special:
            # NoCD contains exactly the trivial detector; we approximate by
            # requiring FULL completeness, NEVER accuracy and a policy that
            # always answers collision — checked structurally.
            from .policy import NoisyPolicy

            return (
                detector.accuracy is AccuracyMode.NEVER
                and isinstance(detector.policy, NoisyPolicy)
            )
        return detector.completeness.at_least(
            self.completeness
        ) and detector.accuracy.at_least(self.accuracy)

    def is_subclass_of(self, other: "DetectorClass") -> bool:
        """Class containment: every detector of ``self`` is in ``other``.

        Holds when ``self`` demands at-least-as-strong completeness *and*
        accuracy.  NoCD is a subclass of NoACC (Lemma 1) because the
        trivial detector reports every loss (vacuously complete) and NoACC
        demands no accuracy.
        """
        if self.special:
            # NoCD: the trivial detector is complete and never accurate.
            return Completeness.FULL.at_least(
                other.completeness
            ) and AccuracyMode.NEVER.at_least(other.accuracy)
        if other.special:
            return False
        return self.completeness.at_least(
            other.completeness
        ) and self.accuracy.at_least(other.accuracy)

    def make(
        self,
        r_acc: Optional[int] = None,
        policy: Optional[DetectorPolicy] = None,
    ) -> ParametricCollisionDetector:
        """Build a concrete member of this class.

        For eventually-accurate classes, ``r_acc`` positions the round from
        which accuracy holds (default 1 — accurate from the start, which is
        a legal member of every OAC class).  For always-accurate classes
        ``r_acc`` must be omitted.
        """
        if self.special:
            if policy is not None or r_acc is not None:
                raise ConfigurationError("NoCD admits exactly one detector")
            return no_cd_detector()
        if self.accuracy is AccuracyMode.EVENTUAL:
            r_acc = 1 if r_acc is None else r_acc
        elif r_acc is not None:
            raise ConfigurationError(
                f"class {self.name} does not take an r_acc"
            )
        return ParametricCollisionDetector(
            self.completeness, self.accuracy, r_acc=r_acc, policy=policy
        )

    def __str__(self) -> str:
        return self.name


# ----------------------------------------------------------------------
# The registry (Figure 1 plus the two special classes)
# ----------------------------------------------------------------------
AC = DetectorClass("AC", Completeness.FULL, AccuracyMode.ALWAYS)
OAC = DetectorClass("OAC", Completeness.FULL, AccuracyMode.EVENTUAL)
MAJ_AC = DetectorClass("maj-AC", Completeness.MAJORITY, AccuracyMode.ALWAYS)
MAJ_OAC = DetectorClass("maj-OAC", Completeness.MAJORITY, AccuracyMode.EVENTUAL)
HALF_AC = DetectorClass("half-AC", Completeness.HALF, AccuracyMode.ALWAYS)
HALF_OAC = DetectorClass("half-OAC", Completeness.HALF, AccuracyMode.EVENTUAL)
ZERO_AC = DetectorClass("0-AC", Completeness.ZERO, AccuracyMode.ALWAYS)
ZERO_OAC = DetectorClass("0-OAC", Completeness.ZERO, AccuracyMode.EVENTUAL)
NO_ACC = DetectorClass("NoACC", Completeness.FULL, AccuracyMode.NEVER)
NO_CD = DetectorClass("NoCD", Completeness.FULL, AccuracyMode.NEVER, special=True)

#: All classes discussed in the paper, in Figure 1 order.
ALL_CLASSES: Tuple[DetectorClass, ...] = (
    AC, MAJ_AC, HALF_AC, ZERO_AC,
    OAC, MAJ_OAC, HALF_OAC, ZERO_OAC,
    NO_ACC, NO_CD,
)

#: Lookup by name.
CLASSES_BY_NAME: Dict[str, DetectorClass] = {c.name: c for c in ALL_CLASSES}


def get_class(name: str) -> DetectorClass:
    """Look up a detector class by its Figure 1 name."""
    try:
        return CLASSES_BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector class {name!r}; known: "
            f"{sorted(CLASSES_BY_NAME)}"
        ) from None


def containment_pairs() -> Tuple[Tuple[str, str], ...]:
    """All (subclass, superclass) name pairs in the lattice.

    Used by tests to verify the lattice matches the paper's containment
    claims (e.g. every class with completeness is inside 0-OAC except the
    always-accurate ones inside 0-AC, AC ⊆ maj-AC ⊆ half-AC ⊆ 0-AC, and
    X-AC ⊆ X-OAC for every level X).
    """
    pairs = []
    for a in ALL_CLASSES:
        for b in ALL_CLASSES:
            if a.name != b.name and a.is_subclass_of(b):
                pairs.append((a.name, b.name))
    return tuple(pairs)
