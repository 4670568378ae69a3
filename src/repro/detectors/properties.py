"""Collision-detector completeness and accuracy properties (Section 5).

The paper classifies detectors by *when they must report* a collision
(completeness, Properties 4-7) and *when they must stay silent*
(accuracy, Properties 8-9).  This module encodes both as pure predicates
over a round's transmission data ``(c, T(i))``:

* ``c``   — number of processes that broadcast in the round,
* ``t``   — number of messages process ``i`` received (incl. its own).

The four completeness levels, strongest to weakest:

=============  =========================================================
``FULL``       report whenever ``t < c``             (Property 4)
``MAJORITY``   report whenever ``c > 0 and t <= c/2`` (Property 5 —
               the process failed to receive a *strict majority*)
``HALF``       report whenever ``c > 0 and t < c/2``  (Property 6 —
               the process received *less than half*)
``ZERO``       report whenever ``c > 0 and t == 0``   (Property 7)
``NONE``       never obliged to report
=============  =========================================================

The single-message gap between ``MAJORITY`` and ``HALF`` (receiving
*exactly* half obliges a majority-complete detector to report but lets a
half-complete detector stay silent) drives the complexity separation
between Theorem 1's O(1) algorithm and Theorem 6's Omega(log |V|) lower
bound, so we keep both and test the boundary explicitly.
"""

from __future__ import annotations

import enum
from typing import Optional


class Completeness(enum.Enum):
    """The four completeness levels plus NONE, ordered strongest first."""

    FULL = 4
    MAJORITY = 3
    HALF = 2
    ZERO = 1
    NONE = 0

    def at_least(self, other: "Completeness") -> bool:
        """True when this level implies (is at least as strong as) ``other``.

        Stronger completeness obliges a superset of reports, hence a
        detector satisfying ``FULL`` also satisfies ``MAJORITY``, ``HALF``
        and ``ZERO`` (cf. the remark after Lemma 2).
        """
        return self.value >= other.value


class AccuracyMode(enum.Enum):
    """Accuracy regimes, ordered strongest first."""

    ALWAYS = 2     #: accurate in every round (Property 8)
    EVENTUAL = 1   #: accurate from some round ``r_acc`` on (Property 9)
    NEVER = 0      #: no accuracy guarantee at all (the NoACC regime)

    def at_least(self, other: "AccuracyMode") -> bool:
        """True when this mode implies ``other``."""
        return self.value >= other.value


def must_report_collision(level: Completeness, c: int, t: int) -> bool:
    """Is the detector *obliged* to return ``±`` given ``(c, t)``?

    Implements Properties 4-7 exactly.  Note that ``t`` counts the
    receiver's own message when it broadcast, matching the model in which
    broadcasters always receive their own message.
    """
    if c < 0 or t < 0 or t > c:
        raise ValueError(f"invalid transmission data c={c}, t={t}")
    if level is Completeness.FULL:
        return t < c
    if level is Completeness.MAJORITY:
        # Fails to receive a strict majority: t/c <= 0.5  <=>  2t <= c.
        return c > 0 and 2 * t <= c
    if level is Completeness.HALF:
        # Fails to receive half: t/c < 0.5  <=>  2t < c.
        return c > 0 and 2 * t < c
    if level is Completeness.ZERO:
        return c > 0 and t == 0
    return False


def accuracy_active(
    mode: AccuracyMode, round_index: int, r_acc: Optional[int]
) -> bool:
    """Is the accuracy obligation in force at ``round_index`` (1-based)?

    ``ALWAYS`` is in force everywhere; ``EVENTUAL`` from ``r_acc`` on;
    ``NEVER`` nowhere.
    """
    if mode is AccuracyMode.ALWAYS:
        return True
    if mode is AccuracyMode.EVENTUAL:
        if r_acc is None:
            raise ValueError("EVENTUAL accuracy requires an r_acc round")
        return round_index >= r_acc
    return False


def must_report_null(
    mode: AccuracyMode, round_index: int, r_acc: Optional[int], c: int, t: int
) -> bool:
    """Is the detector *obliged* to return ``null`` given ``(c, t)``?

    Properties 8-9: when accuracy is in force and the process received all
    messages sent this round (``t == c``), the detector must stay silent.
    """
    return accuracy_active(mode, round_index, r_acc) and t == c


def advice_legal(
    level: Completeness,
    mode: AccuracyMode,
    round_index: int,
    r_acc: Optional[int],
    c: int,
    t: int,
    reported_collision: bool,
) -> bool:
    """Check one advice value against both obligations.

    The obligations are never contradictory: ``must_report_null`` requires
    ``t == c`` while every completeness obligation requires ``t < c``
    (given ``c > 0``), so at most one of the two fires.
    """
    if must_report_collision(level, c, t) and not reported_collision:
        return False
    if must_report_null(mode, round_index, r_acc, c, t) and reported_collision:
        return False
    return True
