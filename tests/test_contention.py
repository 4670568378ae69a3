"""Tests for the contention managers (Section 4)."""

import random

import pytest

from repro.adversary.crash import ScheduledCrashes
from repro.adversary.loss import ReliableDelivery
from repro.contention.backoff import BackoffContentionManager
from repro.contention.services import (
    KWakeUpService,
    LeaderElectionService,
    NoContentionManager,
    ScriptedContentionManager,
    WakeUpService,
    _scrambled_pick,
    all_passive_schedule,
)
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError
from repro.core.execution import run_algorithm
from repro.core.process import ScriptedProcess
from repro.core.types import ACTIVE, PASSIVE
from repro.detectors.detector import perfect_detector

INDICES = (0, 1, 2, 3)


def active_set(advice):
    return {i for i, a in advice.items() if a is ACTIVE}


def test_nocm_everyone_active_always():
    cm = NoContentionManager()
    for r in (1, 5, 100):
        assert active_set(cm.advise(r, INDICES)) == set(INDICES)


def test_wakeup_service_single_active_after_stabilization():
    cm = WakeUpService(stabilization_round=3)
    assert active_set(cm.advise(1, INDICES)) == set(INDICES)  # prelude
    for r in range(3, 12):
        assert len(active_set(cm.advise(r, INDICES))) == 1


def test_wakeup_default_chooser_rotates():
    """The default wake-up service is NOT a leader-election service."""
    cm = WakeUpService(stabilization_round=1)
    actives = {next(iter(active_set(cm.advise(r, INDICES))))
               for r in range(1, 9)}
    assert len(actives) > 1


def test_wakeup_memoised_pick_is_the_seeded_rng_law():
    """The default chooser's memo answers exactly what a fresh
    ``random.Random(round)`` would, for every campaign-sized (round,
    live count), and stays bounded."""
    for k in range(1, 17):
        for r in range(0, 501):
            assert _scrambled_pick(r, k) == random.Random(r).randrange(k)
    maxsize = _scrambled_pick.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    assert _scrambled_pick.cache_info().currsize <= maxsize
    # The chooser indexes the *sorted* live list with the pick.
    live = [7, 3, 5]
    for r in range(1, 40):
        assert WakeUpService._scrambled_chooser(r, live) == sorted(live)[
            random.Random(r).randrange(3)
        ]


def test_wakeup_custom_prelude():
    cm = WakeUpService(
        stabilization_round=4, pre_schedule=all_passive_schedule
    )
    assert active_set(cm.advise(2, INDICES)) == set()


def test_wakeup_rejects_bad_stabilization():
    with pytest.raises(ConfigurationError):
        WakeUpService(stabilization_round=0)


def test_wakeup_chooser_must_pick_live_index():
    cm = WakeUpService(stabilization_round=1, chooser=lambda r, idx: 99)
    with pytest.raises(ConfigurationError):
        cm.advise(1, INDICES)


def test_leader_election_same_leader_forever():
    cm = LeaderElectionService(stabilization_round=2, leader=3)
    for r in range(2, 10):
        assert active_set(cm.advise(r, INDICES)) == {3}


def test_leader_election_defaults_to_min_index():
    cm = LeaderElectionService(stabilization_round=1)
    assert active_set(cm.advise(1, INDICES)) == {0}


def test_leader_election_is_a_wakeup_service():
    """Property 3 implies Property 2: exactly one active per round."""
    cm = LeaderElectionService(stabilization_round=1)
    for r in range(1, 6):
        assert len(active_set(cm.advise(r, INDICES))) == 1


def test_leader_election_rejects_dead_leader():
    cm = LeaderElectionService(stabilization_round=1, leader=9)
    with pytest.raises(ConfigurationError):
        cm.advise(1, INDICES)


def test_scripted_manager_follows_script_then_default():
    cm = ScriptedContentionManager(
        script={1: [0, 2], 2: []}, default="leader"
    )
    assert active_set(cm.advise(1, INDICES)) == {0, 2}
    assert active_set(cm.advise(2, INDICES)) == set()
    assert active_set(cm.advise(3, INDICES)) == {0}


def test_scripted_manager_defaults():
    assert active_set(
        ScriptedContentionManager({}, default="all").advise(1, INDICES)
    ) == set(INDICES)
    assert active_set(
        ScriptedContentionManager({}, default="none").advise(1, INDICES)
    ) == set()
    with pytest.raises(ConfigurationError):
        ScriptedContentionManager({}, default="bogus")


# ----------------------------------------------------------------------
# Backoff (the practical manager)
# ----------------------------------------------------------------------
def test_backoff_eventually_stabilizes_to_one_leader():
    cm = BackoffContentionManager(seed=0)
    for r in range(1, 200):
        advice = cm.advise(r, INDICES)
        cm.observe(r, len(active_set(advice)))
        if cm.leader is not None:
            break
    assert cm.leader is not None
    # After lock-in, only the leader is active.
    advice = cm.advise(r + 1, INDICES)
    assert active_set(advice) == {cm.leader}
    assert cm.stabilized_at is not None


def test_backoff_is_deterministic_per_seed():
    def trace(seed):
        cm = BackoffContentionManager(seed=seed)
        out = []
        for r in range(1, 30):
            advice = cm.advise(r, INDICES)
            cm.observe(r, len(active_set(advice)))
            out.append(tuple(sorted(active_set(advice))))
        return out

    assert trace(5) == trace(5)


def test_backoff_reopens_after_leader_crash():
    cm = BackoffContentionManager(seed=1)
    for r in range(1, 100):
        advice = cm.advise(r, INDICES)
        cm.observe(r, len(active_set(advice)))
        if cm.leader is not None:
            break
    dead = cm.leader
    survivors = tuple(i for i in INDICES if i != dead)
    advice = cm.advise(r + 1, survivors)
    assert cm.leader != dead
    assert set(advice) == set(survivors)


def test_backoff_reset_restores_initial_state():
    cm = BackoffContentionManager(seed=2)
    cm.advise(1, INDICES)
    cm.observe(1, 4)
    cm.reset()
    assert cm.leader is None
    assert cm.stabilized_at is None


def test_backoff_makes_no_formal_promise():
    assert BackoffContentionManager().stabilization_round is None


@pytest.mark.parametrize("make", [
    NoContentionManager,
    WakeUpService,
    LeaderElectionService,
    lambda: KWakeUpService(k=2),
    lambda: ScriptedContentionManager(script={}),
    BackoffContentionManager,
], ids=["nocm", "wakeup", "leader", "k-wakeup", "scripted", "backoff"])
def test_empty_live_set_gets_empty_advice(make):
    """Crashes or churn may empty the live set; every manager then
    answers ``{}``, before and after stabilization, and a run whose
    processes all crash finishes its rounds instead of raising."""
    cm = make()
    assert cm.advise(1, ()) == {}
    assert cm.advise(5, ()) == {}
    env = Environment(
        indices=(0, 1),
        detector=perfect_detector(),
        contention=make(),
        loss=ReliableDelivery(),
        crash=ScheduledCrashes.at({2: [0, 1]}),
    )
    result = run_algorithm(
        env, Algorithm(lambda i: ScriptedProcess(["x"] * 6), anonymous=False),
        max_rounds=6, until_all_decided=False,
    )
    assert result.rounds == 6
    assert result.no_correct_processes
