"""Tests for the execution engine (Definition 11's seven constraints)."""

import pytest

from repro.adversary.crash import CrashEvent, NoCrashes, ScheduledCrashes
from repro.adversary.loss import (
    IIDLoss,
    ReliableDelivery,
    ScriptedLoss,
    SilenceLoss,
)
from repro.contention.services import (
    LeaderElectionService,
    NoContentionManager,
    WakeUpService,
)
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError, ModelViolation
from repro.core.execution import ExecutionEngine, run_algorithm
from repro.core.multiset import Multiset
from repro.core.process import ScriptedProcess
from repro.core.types import ACTIVE, COLLISION, NULL, PASSIVE
from repro.detectors.detector import ParametricCollisionDetector, perfect_detector
from repro.detectors.properties import AccuracyMode, Completeness


def make_env(n=3, detector=None, cm=None, loss=None, crash=None):
    return Environment(
        indices=tuple(range(n)),
        detector=detector or perfect_detector(),
        contention=cm or NoContentionManager(),
        loss=loss or ReliableDelivery(),
        crash=crash or NoCrashes(),
    )


def scripted_algorithm(scripts):
    """Algorithm running per-index message scripts."""
    return Algorithm(
        lambda i: ScriptedProcess(scripts.get(i, [])), anonymous=False
    )


def test_reliable_delivery_all_receive_all():
    env = make_env(3)
    result = run_algorithm(
        env, scripted_algorithm({0: ["a"], 1: ["b"]}), max_rounds=1,
        until_all_decided=False,
    )
    rec = result.records[0]
    for pid in range(3):
        assert rec.received[pid] == Multiset(["a", "b"])


def test_broadcaster_always_receives_own_message():
    # Even under total silence, constraint 5 holds.
    env = make_env(3, loss=SilenceLoss())
    result = run_algorithm(
        env, scripted_algorithm({0: ["a"], 1: ["b"]}), max_rounds=1,
        until_all_decided=False,
    )
    rec = result.records[0]
    assert rec.received[0] == Multiset(["a"])
    assert rec.received[1] == Multiset(["b"])
    assert rec.received[2] == Multiset([])


def test_receive_sets_are_submultisets_of_broadcasts():
    env = make_env(4, loss=IIDLoss(0.5, seed=7))
    result = run_algorithm(
        env,
        scripted_algorithm({i: ["m", "m"] for i in range(4)}),
        max_rounds=2,
        until_all_decided=False,
    )
    for rec in result.records:
        sent = Multiset(
            [m for m in rec.messages.values() if m is not None]
        )
        for pid in range(4):
            assert rec.received[pid] <= sent


def test_perfect_detector_reports_exactly_on_loss():
    env = make_env(3, loss=SilenceLoss())
    result = run_algorithm(
        env, scripted_algorithm({0: ["a"]}), max_rounds=1,
        until_all_decided=False,
    )
    rec = result.records[0]
    assert rec.cd_advice[0] is NULL        # received everything (its own)
    assert rec.cd_advice[1] is COLLISION   # lost the only message
    assert rec.cd_advice[2] is COLLISION


def test_silent_round_gives_null_advice_with_accuracy():
    env = make_env(3)
    result = run_algorithm(
        env, scripted_algorithm({}), max_rounds=1, until_all_decided=False
    )
    rec = result.records[0]
    assert all(adv is NULL for adv in rec.cd_advice.values())
    assert rec.broadcast_count == 0


def test_crash_after_send_broadcasts_then_dies():
    env = make_env(
        3,
        crash=ScheduledCrashes({1: [CrashEvent(0, after_send=True)]}),
    )
    result = run_algorithm(
        env, scripted_algorithm({0: ["last-words", "never"]}),
        max_rounds=2, until_all_decided=False,
    )
    assert result.records[0].messages[0] == "last-words"
    assert 0 in result.records[0].crashed_during
    assert result.records[1].messages[0] is None
    assert result.crash_rounds[0] == 1


def test_crash_before_send_is_silent_in_crash_round():
    env = make_env(
        3,
        crash=ScheduledCrashes({1: [CrashEvent(0, after_send=False)]}),
    )
    result = run_algorithm(
        env, scripted_algorithm({0: ["never"]}),
        max_rounds=1, until_all_decided=False,
    )
    assert result.records[0].messages[0] is None
    assert result.crash_rounds[0] == 1


def test_crashed_process_never_steps_again():
    env = make_env(
        2, crash=ScheduledCrashes.at({1: [0]})
    )
    processes = {0: ScriptedProcess(["a", "b", "c"]),
                 1: ScriptedProcess([])}
    engine = ExecutionEngine(env, processes)
    engine.run(3, until_all_decided=False)
    # Only the crash round observed by process 0; its round counter froze.
    assert processes[0].round == 0
    assert processes[1].round == 3


def test_correct_indices_excludes_crashed(tmp_path=None):
    env = make_env(3, crash=ScheduledCrashes.at({2: [1]}))
    result = run_algorithm(
        env, scripted_algorithm({}), max_rounds=3, until_all_decided=False
    )
    assert result.correct_indices() == (0, 2)
    assert result.crashed_indices() == (1,)


def test_cm_advice_recorded_for_everyone():
    env = make_env(3, cm=LeaderElectionService(1, leader=2))
    result = run_algorithm(
        env, scripted_algorithm({}), max_rounds=1, until_all_decided=False
    )
    rec = result.records[0]
    assert rec.cm_advice[2] is ACTIVE
    assert rec.cm_advice[0] is PASSIVE
    assert rec.cm_advice[1] is PASSIVE


def test_engine_requires_matching_process_map():
    env = make_env(3)
    with pytest.raises(ConfigurationError):
        ExecutionEngine(env, {0: ScriptedProcess([])})


def test_negative_max_rounds_rejected():
    env = make_env(2)
    engine = ExecutionEngine(
        env, {0: ScriptedProcess([]), 1: ScriptedProcess([])}
    )
    with pytest.raises(ConfigurationError):
        engine.run(-1)


def test_run_can_be_resumed():
    env = make_env(2)
    engine = ExecutionEngine(
        env, {0: ScriptedProcess(["a"] * 5), 1: ScriptedProcess([])}
    )
    engine.run(2, until_all_decided=False)
    assert engine.round == 2
    engine.run(3, until_all_decided=False)
    assert engine.round == 5
    assert engine.result().rounds == 5


def test_halted_process_is_silent_but_not_crashed():
    class HaltEarly(ScriptedProcess):
        def transition(self, received, cd, cm):
            super().transition(received, cd, cm)
            self.halt()

    env = make_env(2)
    processes = {0: HaltEarly(["x", "y"]), 1: ScriptedProcess([])}
    engine = ExecutionEngine(env, processes)
    result = engine.run(2, until_all_decided=False)
    assert result.records[0].messages[0] == "x"
    assert result.records[1].messages[0] is None   # halted, not crashed
    assert result.crash_rounds[0] is None


def test_detector_sees_only_counts():
    """The engine passes only (c, T) to the detector (Definition 6)."""
    seen = []

    class SpyDetector(ParametricCollisionDetector):
        def advise(self, round_index, broadcasters, received_counts):
            seen.append((round_index, broadcasters, dict(received_counts)))
            return super().advise(round_index, broadcasters, received_counts)

    env = make_env(
        2,
        detector=SpyDetector(Completeness.FULL, AccuracyMode.ALWAYS),
    )
    run_algorithm(
        env, scripted_algorithm({0: ["secret"]}), max_rounds=1,
        until_all_decided=False,
    )
    assert seen == [(1, 1, {0: 1, 1: 1})]


def test_malformed_loss_adversary_is_caught():
    """An adversary claiming a receiver got more than was sent trips the
    model validator inside the detector path."""

    def bad_rule(round_index, senders, receiver):
        return frozenset()

    env = make_env(2, loss=ScriptedLoss(bad_rule))

    class LyingDetector(ParametricCollisionDetector):
        def advise(self, round_index, broadcasters, received_counts):
            return super().advise(
                round_index, broadcasters + 10, received_counts
            )

    # Direct detector check: t > c raises.
    det = ParametricCollisionDetector(
        Completeness.FULL, AccuracyMode.ALWAYS
    )
    with pytest.raises(ModelViolation):
        det.advise(1, 0, {0: 5})


def test_until_all_decided_stops_early():
    class DecideImmediately(ScriptedProcess):
        def transition(self, received, cd, cm):
            self.decide("v")
            self.halt()

    env = make_env(2)
    engine = ExecutionEngine(
        env, {0: DecideImmediately([]), 1: DecideImmediately([])}
    )
    result = engine.run(100, until_all_decided=True)
    assert result.rounds == 1
    assert result.all_correct_decided()


def test_benchmark_compatibility_names_stay_inert():
    """Four names the engine no longer uses stay for perfbench/, inert:
    ``workloads.backend()`` reads the probe, ``spans.install`` reads
    ``kernel_rounds`` and wraps ``advise_array`` (``MultihopLayer``'s
    own binding included), and ``selftest.py`` calls ``advise_array``."""
    import array

    from repro.core.environment import array_kernel_module
    from repro.detectors.detector import CollisionDetector
    from repro.substrate.multihop import MultihopLayer

    assert array_kernel_module() is None
    env = make_env(3, loss=IIDLoss(0.3, seed=1))
    engine = ExecutionEngine(
        env, scripted_algorithm({i: ["m"] * 4 for i in range(3)})
        .spawn_all(env.indices),
    )
    engine.run(4, until_all_decided=False)
    assert engine.round == 4 and engine.kernel_rounds == 0
    assert "advise_array" in MultihopLayer.__dict__
    assert MultihopLayer.advise_array is CollisionDetector.advise_array
    det = ParametricCollisionDetector(
        Completeness.MAJORITY, AccuracyMode.ALWAYS
    )
    counts = {0: 3, 1: 2, 2: 1}
    expected = det.advise(2, 3, counts)
    for form in (list(counts.values()), array.array("l", counts.values())):
        assert det.advise_array(2, 3, form, (0, 1, 2)) == [
            expected[pid] for pid in (0, 1, 2)
        ]
