"""Tests for phased-completeness detectors and their consequences."""

import pytest

from repro.adversary.loss import EventualCollisionFreedom, IIDLoss
from repro.algorithms.alg1 import algorithm_1
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.baselines import naive_min_consensus
from repro.contention.services import WakeUpService
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError
from repro.core.types import COLLISION, NULL
from repro.detectors.classes import AC, ZERO_AC
from repro.detectors.eventual import (
    PhasedCompletenessDetector,
    eventually_complete_detector,
    usually_perfect_detector,
)
from repro.detectors.policy import NoisyPolicy, SilentPolicy
from repro.detectors.properties import AccuracyMode, Completeness
from repro.lowerbounds.alpha import alpha_execution
from repro.lowerbounds.compose import compose_alpha_executions
from repro.lowerbounds.theorems import eventual_completeness_witness


# ----------------------------------------------------------------------
# The detector itself
# ----------------------------------------------------------------------
def test_phase_boundary_switches_obligations():
    det = PhasedCompletenessDetector(
        Completeness.NONE, Completeness.FULL, r_comp=5,
        policy=SilentPolicy(),
    )
    # Round 4: total loss, no obligation, policy stays silent.
    assert det.advise(4, 2, {0: 0})[0] is NULL
    # Round 5: full completeness obliges the report.
    assert det.advise(5, 2, {0: 0})[0] is COLLISION


def test_accuracy_still_enforced_in_weak_phase():
    det = PhasedCompletenessDetector(
        Completeness.NONE, Completeness.FULL, r_comp=10,
        policy=NoisyPolicy(),
    )
    # Clean reception: accuracy forces null despite the noisy policy.
    assert det.advise(1, 2, {0: 2})[0] is NULL
    # Loss: free in the weak phase, the noisy policy reports.
    assert det.advise(1, 2, {0: 1})[0] is COLLISION


def test_usually_perfect_keeps_zero_completeness_always():
    det = usually_perfect_detector(r_comp=100, policy=SilentPolicy())
    # Total loss before r_comp: zero completeness still obliges.
    assert det.advise(1, 3, {0: 0})[0] is COLLISION
    # Partial loss before r_comp: free (the silent policy hides it).
    assert det.advise(1, 3, {0: 1})[0] is NULL
    # After r_comp: any loss is reported.
    assert det.advise(100, 3, {0: 1})[0] is COLLISION


def test_validation():
    with pytest.raises(ConfigurationError):
        PhasedCompletenessDetector(
            Completeness.FULL, Completeness.ZERO, r_comp=1
        )
    with pytest.raises(ConfigurationError):
        PhasedCompletenessDetector(
            Completeness.ZERO, Completeness.FULL, r_comp=0
        )
    with pytest.raises(ConfigurationError):
        PhasedCompletenessDetector(
            Completeness.ZERO, Completeness.FULL, r_comp=1,
            accuracy=AccuracyMode.EVENTUAL,
        )


def test_always_accurate_phased_detector_counts_as_r_acc_1():
    """E13's Algorithm 2 environment stabilises at its CST of 3, as it
    does with an AC detector in the phased detector's place."""
    def environment(detector):
        return Environment(
            indices=tuple(range(4)),
            detector=detector,
            contention=WakeUpService(stabilization_round=3),
            loss=EventualCollisionFreedom(IIDLoss(0.3, seed=4), r_cf=3),
        )

    phased = environment(usually_perfect_detector(r_comp=25))
    assert phased.communication_stabilization_time() == 3
    assert environment(AC.make()).communication_stabilization_time() == 3


def test_phased_detector_is_a_member_of_its_weak_class():
    det = usually_perfect_detector(r_comp=25)
    assert ZERO_AC.contains(det)
    assert not AC.contains(det)


def test_repr():
    det = eventually_complete_detector(7)
    assert "NONE->FULL@r7" in repr(det)


# ----------------------------------------------------------------------
# Consequences
# ----------------------------------------------------------------------
def test_eventual_completeness_defeats_everything():
    """Impossibility: both a naive decider AND Algorithm 1 split."""
    for algo in (naive_min_consensus(2), algorithm_1()):
        outcome = eventual_completeness_witness(algo, "a", "b", n=3)
        assert outcome.violation == "agreement", outcome.detail
        assert outcome.indistinguishability_ok


def test_usually_perfect_breaks_algorithm1_before_r_comp():
    alpha_a = alpha_execution(algorithm_1(), (0, 1), "a", 4)
    alpha_b = alpha_execution(algorithm_1(), (2, 3), "b", 4)
    composed = compose_alpha_executions(
        algorithm_1(), alpha_a, alpha_b, "a", "b", k=4,
        completeness=Completeness.ZERO,
    )
    assert composed.indistinguishability_holds
    decided = set(composed.gamma.decided_values().values())
    assert decided == {"a", "b"}


def test_usually_perfect_cannot_break_algorithm2():
    """Algorithm 2 needs only the weak phase's zero completeness: the
    same composition leaves it safe."""
    values = ["a", "b", "c", "d"]
    algo = algorithm_2(values)
    alpha_a = alpha_execution(algo, (0, 1), "a", 2)
    alpha_b = alpha_execution(algo, (2, 3), "b", 2)
    composed = compose_alpha_executions(
        algo, alpha_a, alpha_b, "a", "b", k=2,
        completeness=Completeness.ZERO, extra_rounds=60,
    )
    from repro.core.consensus import evaluate

    report = evaluate(composed.gamma)
    assert report.agreement and report.strong_validity
