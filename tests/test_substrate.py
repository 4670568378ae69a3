"""Tests for the physical substrate (radio, carrier sense, clocks, testbed)."""

import pytest

from repro.adversary.crash import ScheduledCrashes
from repro.adversary.loss import IIDLoss
from repro.algorithms.alg1 import algorithm_1
from repro.algorithms.alg2 import algorithm_2
from repro.contention.services import WakeUpService
from repro.core.consensus import evaluate
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError
from repro.core.execution import run_consensus
from repro.core.types import COLLISION, NULL
from repro.substrate.carrier_sense import (
    CarrierSenseDetector,
    measure_detector_quality,
)
from repro.substrate.clock import (
    ClockModel,
    DriftingClock,
    ReferenceBroadcastSync,
)
from repro.substrate.device import PhysicalLayer, Testbed
from repro.substrate.radio import RadioChannel, RadioConfig, TransmissionOutcome


# ----------------------------------------------------------------------
# Radio channel
# ----------------------------------------------------------------------
def test_radio_config_validation():
    with pytest.raises(ConfigurationError):
        RadioConfig(tx_power=0)
    with pytest.raises(ConfigurationError):
        RadioConfig(burst_probability=2.0)


def test_single_broadcaster_is_nearly_always_decoded():
    channel = RadioChannel(seed=0)
    stats = channel.loss_statistics(n=6, broadcasters=1, rounds=300)
    assert stats["single_broadcaster_delivery"] > 0.99


def test_contention_loss_grows_with_broadcasters():
    fractions = []
    for b in (2, 3, 5):
        channel = RadioChannel(seed=1)
        fractions.append(
            channel.loss_statistics(n=8, broadcasters=b, rounds=300)[
                "loss_fraction"
            ]
        )
    assert fractions[0] < fractions[1] < fractions[2]


def test_pairwise_contention_in_papers_loss_band():
    channel = RadioChannel(seed=2)
    two = channel.loss_statistics(n=8, broadcasters=2, rounds=400)
    channel.reset()
    three = channel.loss_statistics(n=8, broadcasters=3, rounds=400)
    # 2-3 simultaneous senders bracket the paper's 20-50% band.
    assert two["loss_fraction"] < 0.5
    assert three["loss_fraction"] > 0.2


def test_receive_sets_are_non_uniform():
    """The capture-effect scenario of §1.1: two receivers of the same two
    broadcasts can decode different subsets."""
    channel = RadioChannel(seed=3)
    differs = False
    for _ in range(100):
        outcomes = channel.resolve_round([0, 1], [2, 3])
        if set(outcomes[2].decoded) != set(outcomes[3].decoded):
            differs = True
            break
    assert differs


def test_interference_burst_can_kill_single_broadcast():
    cfg = RadioConfig(burst_probability=1.0, burst_noise=50.0)
    channel = RadioChannel(cfg, seed=0)
    outcomes = channel.resolve_round([0], [1])
    assert outcomes[1].decoded == ()
    assert outcomes[1].burst


def test_channel_is_deterministic_per_seed():
    a = RadioChannel(seed=9).resolve_round([0, 1, 2], [3])
    b = RadioChannel(seed=9).resolve_round([0, 1, 2], [3])
    assert a[3].decoded == b[3].decoded


def test_loss_statistics_validates_broadcasters():
    with pytest.raises(ConfigurationError):
        RadioChannel().loss_statistics(4, 5, 10)


# ----------------------------------------------------------------------
# Carrier sensing
# ----------------------------------------------------------------------
def test_carrier_sense_flags_undecoded_energy():
    det = CarrierSenseDetector(RadioConfig())
    noisy = TransmissionOutcome(decoded=(), total_energy=3.0, burst=False)
    assert det.advise_from_outcome(noisy) is COLLISION
    clean = TransmissionOutcome(decoded=(5,), total_energy=1.0, burst=False)
    assert det.advise_from_outcome(clean) is NULL
    silent = TransmissionOutcome(decoded=(), total_energy=0.0, burst=False)
    assert det.advise_from_outcome(silent) is NULL


def test_measured_quality_reproduces_paper_shape():
    stats = measure_detector_quality(n=8, broadcasters=3, rounds=300, seed=1)
    assert stats.zero_complete_rate > 0.99       # "100% of rounds"
    assert stats.majority_complete_rate > 0.9    # "over 90%"
    assert stats.full_complete_rate <= stats.majority_complete_rate
    assert stats.observations == 8 * 300
    rows = stats.as_rows()
    assert {r["property"] for r in rows} == {
        "0-completeness", "half-completeness", "maj-completeness",
        "completeness", "accuracy",
    }


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
def test_drifting_clock_accumulates_skew():
    fast = DriftingClock(rate_error=100e-6)
    slow = DriftingClock(rate_error=-100e-6)
    skew = fast.local_time(1000.0) - slow.local_time(1000.0)
    assert skew == pytest.approx(0.2)


def test_resync_collapses_offset():
    clock = DriftingClock(rate_error=100e-6)
    clock.resynchronise(true_time=1000.0, jitter=0.0)
    assert clock.local_time(1000.0) == pytest.approx(1000.0)


def test_rbs_keeps_rounds_aligned():
    sync = ReferenceBroadcastSync(n=10, resync_interval=100, seed=0)
    assert sync.rounds_stay_aligned(1000)


def test_skew_grows_without_resync():
    model = ClockModel(drift_ppm=100.0)
    rare = ReferenceBroadcastSync(5, model=model, resync_interval=10**6,
                                  seed=4)
    often = ReferenceBroadcastSync(5, model=model, resync_interval=20,
                                   seed=4)
    assert rare.max_skew_between_resyncs(500) > (
        often.max_skew_between_resyncs(500)
    )


def test_clock_model_validation():
    with pytest.raises(ConfigurationError):
        ClockModel(round_length=0)
    with pytest.raises(ConfigurationError):
        ReferenceBroadcastSync(n=1)


# ----------------------------------------------------------------------
# Testbed
# ----------------------------------------------------------------------
def test_physical_layer_serves_both_interfaces_consistently():
    layer = PhysicalLayer((0, 1, 2), seed=0)
    losses = layer.losses_for_round(1, [0, 1], (0, 1, 2))[2]
    advice = layer.advise(1, 2, {0: 1, 1: 1, 2: 0})
    assert set(advice) == {0, 1, 2}
    assert losses <= {0, 1}


def test_physical_layer_refuses_rounds_it_never_resolved():
    """The layer keeps only the round it last resolved.  Installed only
    as the detector, it holds no radio outcome for any round, so it
    refuses to advise instead of answering null."""
    layer = PhysicalLayer((0, 1, 2), seed=0)
    layer.losses_for_round(1, [0, 1], (0, 1, 2))
    layer.losses_for_round(2, [2], (0, 1, 2))
    assert set(layer.advise(2, 1, {0: 0, 1: 0, 2: 1})) == {0, 1, 2}
    with pytest.raises(ConfigurationError, match="round 1"):
        layer.advise(1, 2, {0: 1, 1: 1, 2: 0})
    env = Environment(
        indices=range(4),
        detector=PhysicalLayer(tuple(range(4)), seed=3),
        loss=IIDLoss(0.6, seed=2),
        contention=WakeUpService(stabilization_round=2),
    )
    values = list(range(8))
    with pytest.raises(ConfigurationError, match="loss adversary"):
        run_consensus(
            env, algorithm_2(values), {i: values[i] for i in range(4)},
            max_rounds=40,
        )


def test_testbed_runs_alg2_to_agreement():
    # A 2-value domain decides within ~6 rounds -- before the backoff ever
    # hears a confirmed single-broadcaster round -- so use a 16-value
    # domain: the longer descent gives the channel time to confirm a
    # leader (lock-in now requires a *heard* solo broadcast, not merely
    # solo-active advice).
    testbed = Testbed(n=5, seed=7)
    values = list(range(16))
    result = testbed.run(
        algorithm_2(values),
        {i: values[i % 16] for i in range(5)},
        max_rounds=2000,
    )
    report = evaluate(result.execution)
    assert report.solved
    assert result.leader is not None
    assert result.backoff_stabilized_at is not None


def test_testbed_alg1_safe_across_seeds():
    for seed in range(5):
        testbed = Testbed(n=4, seed=seed)
        result = testbed.run(
            algorithm_1(), {i: i for i in range(4)}, max_rounds=2000
        )
        report = evaluate(result.execution)
        assert report.safe, f"seed {seed}: {report.problems}"


def test_testbed_with_crashes_keeps_safety():
    testbed = Testbed(
        n=4, seed=3, crash=ScheduledCrashes.at({5: [0]})
    )
    result = testbed.run(
        algorithm_2(list(range(4))), {i: i for i in range(4)},
        max_rounds=2000,
    )
    report = evaluate(result.execution)
    assert report.agreement and report.strong_validity
