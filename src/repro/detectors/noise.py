"""The noise lemma and detector-legality validators (Section 5.5).

Lemma 2 (the *noise lemma*): with a zero-complete detector, whenever one or
more processes broadcast in a round, every process either receives
something or detects a collision.  Corollary 1: if any process receives
nothing and detects no collision, then nobody broadcast — "silence implies
silence".  Both are the load-bearing facts behind the veto phases of
Algorithms 1-3.

This module checks these guarantees, and full class-legality of a CD trace
(Definition 11, constraint 6), over finished executions.  The execution
engine already constructs legal advice; these validators exist so tests and
lower-bound constructions can *prove* legality rather than assume it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.records import ExecutionResult
from ..core.types import CollisionAdvice
from .properties import AccuracyMode, Completeness, advice_legal


def noise_lemma_violations(
    result: ExecutionResult,
) -> List[Tuple[int, int]]:
    """Return ``(round, pid)`` pairs violating Lemma 2.

    A violation is a round with at least one broadcaster in which some
    process received nothing *and* got ``null`` advice.  For any detector
    satisfying zero completeness this list must be empty.
    """
    violations = []
    for rec in result.records:
        c = rec.broadcast_count
        if c == 0:
            continue
        for pid in result.indices:
            if len(rec.received[pid]) == 0 and (
                rec.cd_advice[pid] is CollisionAdvice.NULL
            ):
                violations.append((rec.round, pid))
    return violations


def check_noise_lemma(result: ExecutionResult) -> bool:
    """True when Lemma 2 holds throughout ``result``."""
    return not noise_lemma_violations(result)


def silence_implies_no_broadcast(result: ExecutionResult) -> bool:
    """Corollary 1 check: silence at any process implies nobody broadcast.

    Scans every round; if some process received nothing with ``null``
    advice, the round's broadcast count must be zero.
    """
    for rec in result.records:
        for pid in result.indices:
            quiet = len(rec.received[pid]) == 0 and (
                rec.cd_advice[pid] is CollisionAdvice.NULL
            )
            if quiet and rec.broadcast_count > 0:
                return False
    return True


def detector_trace_violations(
    result: ExecutionResult,
    completeness: Completeness,
    accuracy: AccuracyMode,
    r_acc: Optional[int] = None,
) -> List[Tuple[int, int, str]]:
    """Check a CD trace against a detector class's obligations.

    Returns a list of ``(round, pid, reason)`` triples; empty means the
    trace is a legal output of some detector in the class (Definition 11,
    constraint 6 holds), checked per process against the Properties 4-9
    predicates in :func:`~repro.detectors.properties.advice_legal`.
    """
    violations: List[Tuple[int, int, str]] = []
    indices = result.indices
    for rec in result.records:
        c = rec.broadcast_count
        for pid in indices:
            t = len(rec.received[pid])
            reported = rec.cd_advice[pid] is CollisionAdvice.COLLISION
            if not advice_legal(
                completeness, accuracy, rec.round, r_acc, c, t, reported
            ):
                reason = (
                    "missing obligatory collision report"
                    if not reported
                    else "collision report violates accuracy"
                )
                violations.append((rec.round, pid, reason))
    return violations


def check_detector_trace(
    result: ExecutionResult,
    completeness: Completeness,
    accuracy: AccuracyMode,
    r_acc: Optional[int] = None,
) -> bool:
    """True when the execution's CD trace is legal for the class."""
    return not detector_trace_violations(result, completeness, accuracy, r_acc)
