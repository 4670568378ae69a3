"""Tests for the loss and crash adversaries."""

import pytest

from repro.adversary.crash import (
    CrashEvent,
    NoCrashes,
    ScheduledCrashes,
    SeededRandomCrashes,
)
from repro.adversary.loss import (
    AlphaLoss,
    CaptureEffectLoss,
    ComposedLoss,
    EventualCollisionFreedom,
    IIDLoss,
    PartitionLoss,
    ReliableDelivery,
    ScriptedLoss,
    SilenceLoss,
)
from repro.core.errors import ConfigurationError

SENDERS = [0, 1, 2]


def lost_at(adv, round_index, senders, receiver):
    """``receiver``'s drop set, resolved through the one contract method."""
    return adv.losses_for_round(round_index, senders, (receiver,))[receiver]


# ----------------------------------------------------------------------
# Loss adversaries
# ----------------------------------------------------------------------
def test_reliable_delivery_drops_nothing():
    adv = ReliableDelivery()
    assert lost_at(adv, 1, SENDERS, 5) == frozenset()
    assert adv.r_cf == 1


def test_silence_drops_everything():
    adv = SilenceLoss()
    assert lost_at(adv, 1, SENDERS, 5) == frozenset(SENDERS)
    assert adv.r_cf is None


def test_iid_loss_is_seeded_and_bounded():
    adv = IIDLoss(0.5, seed=3)
    runs1 = [lost_at(adv, r, SENDERS, 9) for r in range(30)]
    adv.reset()
    runs2 = [lost_at(adv, r, SENDERS, 9) for r in range(30)]
    assert runs1 == runs2
    assert any(runs1)          # some losses at p=0.5
    assert not all(len(l) == 3 for l in runs1)


def test_iid_loss_never_drops_own_message():
    adv = IIDLoss(1.0, seed=0)
    assert 1 not in lost_at(adv, 1, SENDERS, 1)


def test_iid_loss_validates_probability():
    with pytest.raises(ConfigurationError):
        IIDLoss(1.5)


def test_alpha_loss_single_broadcaster_delivers():
    adv = AlphaLoss()
    assert lost_at(adv, 1, [2], 0) == frozenset()


def test_alpha_loss_contention_keeps_only_own():
    adv = AlphaLoss()
    assert lost_at(adv, 1, SENDERS, 1) == {0, 2}
    assert lost_at(adv, 1, SENDERS, 9) == {0, 1, 2}


def test_partition_loss_blocks_cross_group():
    adv = PartitionLoss([(0, 1), (2, 3)])
    assert lost_at(adv, 1, [0, 2], 1) == {2}
    assert lost_at(adv, 1, [0, 2], 3) == {0}


def test_partition_loss_until_round_then_clean():
    adv = PartitionLoss([(0, 1), (2, 3)], until_round=5)
    assert lost_at(adv, 5, [0, 2], 3) == {0}
    assert lost_at(adv, 6, [0, 2], 3) == frozenset()
    assert adv.r_cf == 6


def test_partition_loss_rejects_overlapping_groups():
    with pytest.raises(ConfigurationError):
        PartitionLoss([(0, 1), (1, 2)])


def test_partition_intra_adversary_composes():
    adv = PartitionLoss([(0, 1), (2,)], intra=SilenceLoss())
    # Cross-group AND in-group messages are lost (except self).
    assert lost_at(adv, 1, [0, 1, 2], 0) == {1, 2}


def test_capture_effect_limits_decoding_under_contention():
    adv = CaptureEffectLoss(capture_limit=1, seed=0)
    losses = lost_at(adv, 1, SENDERS, 9)
    assert len(losses) >= len(SENDERS) - 1   # at most one captured


def test_capture_effect_single_broadcast_delivers_by_default():
    adv = CaptureEffectLoss(seed=0)
    assert lost_at(adv, 1, [0], 9) == frozenset()


def test_scripted_loss_delegates():
    adv = ScriptedLoss(lambda r, s, recv: {s[0]} if s else set(), r_cf=4)
    assert lost_at(adv, 1, SENDERS, 9) == {0}
    assert adv.r_cf == 4


def test_composed_loss_unions_drops():
    adv = ComposedLoss([
        ScriptedLoss(lambda r, s, recv: {0}),
        ScriptedLoss(lambda r, s, recv: {2}),
    ])
    assert lost_at(adv, 1, SENDERS, 9) == {0, 2}
    with pytest.raises(ConfigurationError):
        ComposedLoss([])


def test_ecf_wrapper_forces_single_broadcaster_delivery():
    adv = EventualCollisionFreedom(SilenceLoss(), r_cf=3)
    # Before r_cf the inner adversary rules.
    assert lost_at(adv, 2, [0], 1) == {0}
    # From r_cf on, single-broadcaster rounds deliver...
    assert lost_at(adv, 3, [0], 1) == frozenset()
    # ...but contention rounds still defer to the inner adversary
    # (which drops everything from the other senders).
    assert lost_at(adv, 3, SENDERS, 1) == {0, 2}
    assert adv.r_cf == 3


def test_ecf_wrapper_validates_round():
    with pytest.raises(ConfigurationError):
        EventualCollisionFreedom(SilenceLoss(), r_cf=0)


# ----------------------------------------------------------------------
# Crash adversaries
# ----------------------------------------------------------------------
def test_no_crashes():
    assert NoCrashes().crashes(1, [0, 1]) == ()
    assert NoCrashes().last_crash_round == 0


def test_scheduled_crashes_fire_once():
    adv = ScheduledCrashes.at({2: [1]}, after_send=False)
    assert adv.crashes(1, [0, 1]) == ()
    events = adv.crashes(2, [0, 1])
    assert events == (CrashEvent(1, after_send=False),)
    # Already-crashed pids are filtered by liveness.
    assert adv.crashes(2, [0]) == ()
    assert adv.last_crash_round == 2


def test_scheduled_crashes_reject_bad_round():
    with pytest.raises(ConfigurationError):
        ScheduledCrashes({0: [CrashEvent(1)]})


def test_random_crashes_bounded_and_seeded():
    adv = SeededRandomCrashes(
        p=0.5, max_crashes=2, deadline=10, seed=0
    )
    total = []
    for r in range(1, 20):
        live = [i for i in range(5) if i not in total]
        total.extend(ev.pid for ev in adv.crashes(r, live))
    assert len(total) <= 2
    adv2 = SeededRandomCrashes(p=0.5, max_crashes=2, deadline=10, seed=0)
    replay = []
    for r in range(1, 20):
        live = [i for i in range(5) if i not in replay]
        replay.extend(ev.pid for ev in adv2.crashes(r, live))
    assert total == replay


def test_random_crashes_spare_at_least_one():
    adv = SeededRandomCrashes(p=1.0, max_crashes=10, deadline=5, seed=1)
    live = [0, 1, 2]
    for r in range(1, 6):
        events = adv.crashes(r, live)
        live = [i for i in live if i not in {e.pid for e in events}]
    assert len(live) >= 1


def test_random_crashes_stop_after_deadline():
    adv = SeededRandomCrashes(p=1.0, max_crashes=10, deadline=2, seed=0)
    assert adv.crashes(3, [0, 1, 2]) == ()
    assert adv.last_crash_round == 2


def test_random_crashes_validate_parameters():
    with pytest.raises(ConfigurationError):
        SeededRandomCrashes(p=2.0, max_crashes=1, deadline=1)
    with pytest.raises(ConfigurationError):
        SeededRandomCrashes(p=0.5, max_crashes=-1, deadline=1)
    with pytest.raises(ConfigurationError):
        SeededRandomCrashes(p=0.5, max_crashes=1, deadline=-1)
