"""Tests for the completeness/accuracy predicates (Properties 4-9).

The maj-vs-half boundary (exactly half received) is load-bearing for the
whole paper — Theorem 1's O(1) algorithm vs Theorem 6's Ω(lg|V|) bound —
so it gets explicit coverage.
"""

import pytest
from maybe_hypothesis import given, strategies as st

from repro.detectors.properties import (
    AccuracyMode,
    Completeness,
    accuracy_active,
    advice_legal,
    must_report_collision,
    must_report_null,
)


# ----------------------------------------------------------------------
# Completeness obligations (Properties 4-7)
# ----------------------------------------------------------------------
def test_full_completeness_reports_any_loss():
    assert must_report_collision(Completeness.FULL, 3, 2)
    assert must_report_collision(Completeness.FULL, 1, 0)
    assert not must_report_collision(Completeness.FULL, 3, 3)
    assert not must_report_collision(Completeness.FULL, 0, 0)


def test_majority_completeness_boundary():
    # Received exactly half (2 of 4): NOT a strict majority -> obliged.
    assert must_report_collision(Completeness.MAJORITY, 4, 2)
    # Received a strict majority (3 of 4): not obliged.
    assert not must_report_collision(Completeness.MAJORITY, 4, 3)
    # Odd counts: 2 of 3 is a strict majority.
    assert not must_report_collision(Completeness.MAJORITY, 3, 2)
    assert must_report_collision(Completeness.MAJORITY, 3, 1)


def test_half_completeness_boundary_differs_by_one_message():
    # Exactly half received: half-complete detectors may stay silent...
    assert not must_report_collision(Completeness.HALF, 4, 2)
    # ...but majority-complete detectors may not.  This single-message gap
    # separates Theorem 1 from Theorem 6.
    assert must_report_collision(Completeness.MAJORITY, 4, 2)
    # Less than half: both oblige.
    assert must_report_collision(Completeness.HALF, 4, 1)


def test_zero_completeness_only_on_total_loss():
    assert must_report_collision(Completeness.ZERO, 3, 0)
    assert not must_report_collision(Completeness.ZERO, 3, 1)
    assert not must_report_collision(Completeness.ZERO, 0, 0)


def test_none_never_obliges():
    for c, t in ((3, 0), (5, 2), (1, 0)):
        assert not must_report_collision(Completeness.NONE, c, t)


def test_invalid_transmission_data_rejected():
    with pytest.raises(ValueError):
        must_report_collision(Completeness.FULL, 2, 3)
    with pytest.raises(ValueError):
        must_report_collision(Completeness.FULL, -1, 0)


def test_completeness_strength_ordering():
    assert Completeness.FULL.at_least(Completeness.MAJORITY)
    assert Completeness.MAJORITY.at_least(Completeness.HALF)
    assert Completeness.HALF.at_least(Completeness.ZERO)
    assert Completeness.ZERO.at_least(Completeness.NONE)
    assert not Completeness.ZERO.at_least(Completeness.HALF)


# ----------------------------------------------------------------------
# Accuracy obligations (Properties 8-9)
# ----------------------------------------------------------------------
def test_always_accuracy_in_force_everywhere():
    assert accuracy_active(AccuracyMode.ALWAYS, 1, None)
    assert accuracy_active(AccuracyMode.ALWAYS, 10**6, None)


def test_eventual_accuracy_from_r_acc():
    assert not accuracy_active(AccuracyMode.EVENTUAL, 4, 5)
    assert accuracy_active(AccuracyMode.EVENTUAL, 5, 5)
    assert accuracy_active(AccuracyMode.EVENTUAL, 6, 5)


def test_eventual_accuracy_requires_r_acc():
    with pytest.raises(ValueError):
        accuracy_active(AccuracyMode.EVENTUAL, 1, None)


def test_never_accuracy_never_in_force():
    assert not accuracy_active(AccuracyMode.NEVER, 1, None)


def test_must_report_null_only_when_all_received():
    assert must_report_null(AccuracyMode.ALWAYS, 1, None, 3, 3)
    assert not must_report_null(AccuracyMode.ALWAYS, 1, None, 3, 2)
    assert not must_report_null(AccuracyMode.EVENTUAL, 1, 5, 3, 3)
    assert must_report_null(AccuracyMode.EVENTUAL, 5, 5, 3, 3)


def test_accuracy_mode_ordering():
    assert AccuracyMode.ALWAYS.at_least(AccuracyMode.EVENTUAL)
    assert AccuracyMode.EVENTUAL.at_least(AccuracyMode.NEVER)
    assert not AccuracyMode.NEVER.at_least(AccuracyMode.EVENTUAL)


# ----------------------------------------------------------------------
# advice_legal: joint obligation checking
# ----------------------------------------------------------------------
def test_advice_legal_enforces_completeness():
    assert not advice_legal(
        Completeness.FULL, AccuracyMode.NEVER, 1, None, 2, 1, False
    )
    assert advice_legal(
        Completeness.FULL, AccuracyMode.NEVER, 1, None, 2, 1, True
    )


def test_advice_legal_enforces_accuracy():
    assert not advice_legal(
        Completeness.ZERO, AccuracyMode.ALWAYS, 1, None, 2, 2, True
    )
    assert advice_legal(
        Completeness.ZERO, AccuracyMode.ALWAYS, 1, None, 2, 2, False
    )


def test_free_zone_allows_both_answers():
    # One of two messages lost with a zero-complete, accurate detector:
    # neither obligation fires.
    for reported in (True, False):
        assert advice_legal(
            Completeness.ZERO, AccuracyMode.ALWAYS, 1, None, 2, 1, reported
        )


# ----------------------------------------------------------------------
# Property-based checks
# ----------------------------------------------------------------------
ct_pairs = st.integers(0, 30).flatmap(
    lambda c: st.tuples(st.just(c), st.integers(0, c))
)


@given(ct_pairs)
def test_obligations_never_contradict(ct):
    """must_report_collision and must_report_null can never both fire."""
    c, t = ct
    for level in Completeness:
        obliged_collision = must_report_collision(level, c, t)
        obliged_null = must_report_null(
            AccuracyMode.ALWAYS, 1, None, c, t
        )
        assert not (obliged_collision and obliged_null)


@given(ct_pairs)
def test_stronger_completeness_obliges_superset(ct):
    c, t = ct
    order = [
        Completeness.NONE, Completeness.ZERO, Completeness.HALF,
        Completeness.MAJORITY, Completeness.FULL,
    ]
    for weak, strong in zip(order, order[1:]):
        if must_report_collision(weak, c, t):
            assert must_report_collision(strong, c, t)


@given(ct_pairs)
def test_maj_and_half_differ_only_at_exactly_half(ct):
    c, t = ct
    maj = must_report_collision(Completeness.MAJORITY, c, t)
    half = must_report_collision(Completeness.HALF, c, t)
    if maj != half:
        assert 2 * t == c and c > 0
