"""The engine's one receive stage, held to the paper-literal round.

This module once held the array round kernel to the reference receive
stage.  The kernel and its array backend are retired; the tests keep
their names and now hold the engine to ``tests/spec_round.py`` over the
widest system matrix in the suite:

* every built-in detector class (the full Figure 1 lattice plus the
  phased detectors) and seeded, silent and spurious policies x
  {reliable, iid, capture, partition} x {FULL, SUMMARY, NONE}, with
  crashes, halting and decisions;
* a third-party detector is asked exactly the spec's Definition 6
  calls, and one that omits a pid from its advice is rejected, by the
  engine and by the ``advise_array`` round trip kept for compatibility;
* a subclass overriding ``advise`` on a built-in detector, or
  ``free_choice`` on a built-in policy, is never bypassed;
* ``CollisionDetector.advise_array`` == ``advise`` elementwise for every
  class;
* every built-in adversary and both substrate layers answer a
  :class:`RoundLosses` that iterates in receiver order, names only
  other senders in each drop set and replays from a fresh instance with
  the same seed; it behaves as a Mapping, and the engine rejects a
  resolution that omits a receiver;
* ``CaptureEffectLoss`` is deterministic per ``(seed, round)``, draws
  independent streams for disjoint receiver groups in one round, and
  samples the documented capture law;
* round by round, a round with two distinct payloads records exactly
  what the spec records;
* the paper's algorithms (Algorithms 1-3 and anonymous counting) and
  both substrate layers execute the spec's round under every record
  policy; multihop advice is legal for every receiver, checked against a
  local ``c`` counted from the graph and each record's senders, and a
  receive count above its local ``c`` is a ``ModelViolation``.

Where the spec has no loss law of its own (``IIDLoss`` and the substrate
layers), :func:`spec_round.resolved` reads the drop sets off a fresh
instance of the adversary; the round around them is still the spec's.
"""

import pytest

import spec_round as spec
from repro.adversary.crash import NoCrashes, ScheduledCrashes
from repro.adversary.loss import (
    AlphaLoss,
    CaptureEffectLoss,
    ComposedLoss,
    EventualCollisionFreedom,
    IIDLoss,
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    RoundLosses,
    ScriptedLoss,
    SilenceLoss,
)
from repro.algorithms.alg1 import algorithm_1
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.alg3 import algorithm_3
from repro.algorithms.counting import counting_algorithm
from repro.contention.services import (
    KWakeUpService,
    NoContentionManager,
    WakeUpService,
)
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment
from repro.core.errors import ModelViolation
from repro.core.execution import ExecutionEngine, run_algorithm
from repro.core.process import ScriptedProcess
from repro.core.records import RecordPolicy
from repro.core.types import CollisionAdvice
from repro.detectors.classes import ALL_CLASSES, MAJ_OAC, ZERO_AC, ZERO_OAC
from repro.detectors.detector import (
    CollisionDetector,
    ParametricCollisionDetector,
)
from repro.detectors.eventual import PhasedCompletenessDetector
from repro.detectors.policy import (
    BenignPolicy,
    SeededRandomPolicy,
    SilentPolicy,
    SpuriousUntilPolicy,
)
from repro.detectors.properties import (
    AccuracyMode,
    Completeness,
    advice_legal,
)
from repro.substrate.device import PhysicalLayer
from repro.substrate.multihop import MultihopLayer, MultihopNetwork
from repro.substrate.radio import RadioConfig

N = 6
ROUNDS = 14
INDICES = tuple(range(N))


class DecideThenHalt(ScriptedProcess):
    """Scripted broadcasts plus a decision/halt at a fixed round, so
    executions exercise ``decided_during`` and halted-but-live rounds."""

    def __init__(self, script, decide_after: int, value) -> None:
        super().__init__(script)
        self._decide_after = decide_after
        self._value = value

    def transition(self, received, cd_advice, cm_advice) -> None:
        super().transition(received, cd_advice, cm_advice)
        if len(self.observations) == self._decide_after:
            self.decide(self._value)
            self.halt()


def mixed_algorithm(n: int = N, rounds: int = ROUNDS) -> Algorithm:
    """Distinct and shared messages, silent rounds, staggered halts."""

    def spawn(i):
        script = []
        for r in range(rounds):
            if (r + i) % 4 == 3:
                script.append(None)
            elif r % 3 == 0:
                script.append("m")
            else:
                script.append(f"m{i % 3}")
        return DecideThenHalt(script, decide_after=rounds - 2 - (i % 2),
                              value=i % 2)

    return Algorithm(spawn, anonymous=False)


def detector_matrix():
    """Every built-in detector class as a concrete instance factory."""
    matrix = {}
    for cls in ALL_CLASSES:
        if cls.special:
            matrix[cls.name] = lambda c=cls: c.make()
        elif cls.accuracy is AccuracyMode.EVENTUAL:
            matrix[cls.name] = lambda c=cls: c.make(r_acc=4)
        else:
            matrix[cls.name] = lambda c=cls: c.make()
    # Policy variety on top of the lattice: seeded RNG free choices
    # (stream-order sensitive), spurious noise, and minimal silence.
    matrix["AC+seeded"] = lambda: ParametricCollisionDetector(
        Completeness.ZERO, AccuracyMode.ALWAYS,
        policy=SeededRandomPolicy(p_collision=0.4, seed=13),
    )
    matrix["half-AC+silent"] = lambda: ParametricCollisionDetector(
        Completeness.HALF, AccuracyMode.ALWAYS, policy=SilentPolicy(),
    )
    matrix["0-OAC+spurious"] = lambda: ParametricCollisionDetector(
        Completeness.ZERO, AccuracyMode.EVENTUAL, r_acc=5,
        policy=SpuriousUntilPolicy(quiet_round=5),
    )
    matrix["phased"] = lambda: PhasedCompletenessDetector(
        Completeness.ZERO, Completeness.FULL, r_comp=4,
    )
    matrix["phased+seeded"] = lambda: PhasedCompletenessDetector(
        Completeness.ZERO, Completeness.FULL, r_comp=4,
        policy=SeededRandomPolicy(p_collision=0.3, seed=7),
    )
    return matrix


_HALVES = [(0, 1, 2), (3, 4, 5)]

LOSSES = {
    "reliable": lambda: ReliableDelivery(),
    "iid": lambda: IIDLoss(0.35, seed=5),
    "capture": lambda: CaptureEffectLoss(capture_limit=1, seed=2),
    "partition": lambda: PartitionLoss(_HALVES),
}

#: The spec's law for each of :data:`LOSSES`, over :data:`INDICES`.
LAWS = {
    "reliable": spec.reliable,
    "iid": lambda: spec.resolved(LOSSES["iid"](), INDICES),
    "capture": lambda: spec.capture(capture_limit=1, seed=2),
    "partition": lambda: spec.partition(_HALVES),
}

POLICIES = (RecordPolicy.FULL, RecordPolicy.SUMMARY, RecordPolicy.NONE)


def run_once(detector_factory, loss_factory, record_policy, crash=None):
    env = Environment(
        indices=INDICES,
        detector=detector_factory(),
        contention=NoContentionManager(),
        loss=loss_factory(),
        crash=crash() if crash else NoCrashes(),
    )
    return run_algorithm(
        env, mixed_algorithm(), max_rounds=ROUNDS,
        until_all_decided=False, record_policy=record_policy,
    )


def spec_once(detector_factory, loss_name, crash=None):
    """The spec's run of :func:`run_once`'s system, from fresh parts."""
    return spec.run_spec(
        INDICES, mixed_algorithm().spawn, detector_factory(),
        NoContentionManager(), LAWS[loss_name](), ROUNDS,
        crash=crash() if crash else None,
    )


def single_payload_rounds(records):
    """How many of ``records`` carry at most one distinct payload."""
    return sum(
        len({m for m in rec.messages.values() if m is not None}) <= 1
        for rec in records
    )


# ----------------------------------------------------------------------
# The headline matrix: every built-in detector x loss x record policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("detector_name", sorted(detector_matrix()))
@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_kernel_and_fallback_executions_are_identical(
    detector_name, loss_name
):
    detector_factory = detector_matrix()[detector_name]
    reference = spec_once(detector_factory, loss_name)
    for record_policy in POLICIES:
        result = run_once(detector_factory, LOSSES[loss_name], record_policy)
        spec.assert_matches(result, reference, record_policy)


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
@pytest.mark.parametrize("record_policy", POLICIES)
def test_kernel_equivalence_under_crashes(loss_name, record_policy):
    crash = lambda: ScheduledCrashes.at(
        {3: [1], 5: [4]}, after_send=True
    )
    detector_factory = detector_matrix()["AC"]
    result = run_once(
        detector_factory, LOSSES[loss_name], record_policy, crash=crash,
    )
    reference = spec_once(detector_factory, loss_name, crash=crash)
    spec.assert_matches(result, reference, record_policy)
    assert result.crash_rounds[1] == 3 and result.crash_rounds[4] == 5


# ----------------------------------------------------------------------
# Third-party detectors and subclass overrides
# ----------------------------------------------------------------------
class RecordingThirdPartyDetector(CollisionDetector):
    """A mapping-interface-only detector; no ``advise_array`` override."""

    def __init__(self):
        self.calls = []

    def advise(self, round_index, broadcasters, received_counts):
        self.calls.append(
            (round_index, broadcasters, dict(received_counts))
        )
        return {
            pid: (
                CollisionAdvice.COLLISION
                if t < broadcasters and (round_index + pid) % 2
                else CollisionAdvice.NULL
            )
            for pid, t in received_counts.items()
        }


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_third_party_detector_rides_the_dict_fallback(loss_name):
    engine_detector = RecordingThirdPartyDetector()
    spec_detector = RecordingThirdPartyDetector()
    result = run_once(lambda: engine_detector, LOSSES[loss_name],
                      RecordPolicy.FULL)
    reference = spec_once(lambda: spec_detector, loss_name)
    spec.assert_matches(result, reference, RecordPolicy.FULL)
    # The engine makes exactly the spec's Definition 6 calls: same
    # rounds, same counts, same iteration order.
    assert engine_detector.calls == spec_detector.calls
    assert len(engine_detector.calls) == ROUNDS


class OmitsPidFour(CollisionDetector):
    """A third-party detector whose advice leaves out pid 4."""

    def advise(self, round_index, broadcasters, received_counts):
        return {
            pid: CollisionAdvice.NULL
            for pid in received_counts if pid != 4
        }


@pytest.mark.parametrize("kernel", [True, False],
                         ids=["kernel-on", "kernel-off"])
def test_omitted_detector_advice_raises_on_both_receive_paths(kernel):
    """The engine's receive stage ("kernel-off") and the ``advise_array``
    round trip kept for compatibility ("kernel-on", where the retired
    kernel asked the detector) both reject the omission."""
    omitted = r"collision detector omitted advice for \[4\]"
    if kernel:
        with pytest.raises(ModelViolation, match=omitted):
            OmitsPidFour().advise_array(1, 2, [2] * N, INDICES)
        return
    env = Environment(
        indices=INDICES, detector=OmitsPidFour(),
        contention=NoContentionManager(),
    )
    engine = ExecutionEngine(env, mixed_algorithm().spawn_all(env.indices))
    with pytest.raises(ModelViolation, match=omitted):
        engine.step()


def test_detector_subclass_override_is_not_bypassed():
    seen = []

    class SpyDetector(ParametricCollisionDetector):
        def advise(self, round_index, broadcasters, received_counts):
            seen.append(round_index)
            return super().advise(
                round_index, broadcasters, received_counts
            )

    run_once(
        lambda: SpyDetector(Completeness.FULL, AccuracyMode.ALWAYS),
        LOSSES["iid"], RecordPolicy.NONE,
    )
    assert seen == list(range(1, ROUNDS + 1))


def test_policy_free_choice_override_is_not_bypassed():
    asked = []

    class ContraryBenign(BenignPolicy):
        """Inverts every free choice: the engine must ask it."""

        def free_choice(self, round_index, pid, c, t):
            asked.append(round_index)
            choice = super().free_choice(round_index, pid, c, t)
            return (
                CollisionAdvice.NULL
                if choice is CollisionAdvice.COLLISION
                else CollisionAdvice.COLLISION
            )

    factory = lambda: ParametricCollisionDetector(
        Completeness.ZERO, AccuracyMode.ALWAYS, policy=ContraryBenign()
    )
    result = run_once(factory, LOSSES["iid"], RecordPolicy.FULL)
    assert asked
    spec.assert_matches(result, spec_once(factory, "iid"), RecordPolicy.FULL)


# ----------------------------------------------------------------------
# Detector-level elementwise equivalence of the compatibility name
# ----------------------------------------------------------------------
@pytest.mark.parametrize("detector_name", sorted(detector_matrix()))
def test_advise_array_matches_dict_advise_elementwise(detector_name):
    indices = tuple(range(8))
    for c, counts in (
        (8, [8, 7, 0, 3, 8, 5, 1, 8]),
        (5, [5, 5, 5, 5, 5, 5, 5, 5]),
        (4, [0, 0, 0, 0, 2, 2, 4, 4]),
        (0, [0, 0, 0, 0, 0, 0, 0, 0]),
        (1, [1, 0, 1, 0, 1, 0, 1, 0]),
    ):
        for round_index in (1, 4, 6):
            dict_detector = detector_matrix()[detector_name]()
            array_detector = detector_matrix()[detector_name]()
            expected = dict_detector.advise(
                round_index, c, dict(zip(indices, counts))
            )
            got = array_detector.advise_array(
                round_index, c, counts, indices
            )
            assert got == [expected[pid] for pid in indices], (
                detector_name, round_index, c, counts,
            )


# ----------------------------------------------------------------------
# RoundLosses: normalization, replay and Mapping behaviour
# ----------------------------------------------------------------------
@pytest.mark.parametrize("adversary_factory, senders", [
    (lambda: IIDLoss(0.4, seed=9), list(range(6))),
    (lambda: CaptureEffectLoss(capture_limit=2, seed=9), list(range(6))),
    (lambda: CaptureEffectLoss(p_single_loss=0.5, seed=9), [3]),
    (lambda: IIDLoss(0.4, seed=9), [1, 4]),  # partial sender set
    pytest.param(ReliableDelivery, [0, 2, 5], id="reliable"),
    pytest.param(SilenceLoss, [0, 2, 5], id="silence"),
    pytest.param(AlphaLoss, [4], id="alpha-one-sender"),
    pytest.param(AlphaLoss, [0, 2, 5], id="alpha-several-senders"),
    # Pid 5 is in no group: it forms one more group on its own.
    pytest.param(
        lambda: PartitionLoss(
            [[0, 1, 2], [3, 4]], intra=IIDLoss(0.4, seed=9)
        ),
        [0, 1, 3, 5], id="partition",
    ),
    pytest.param(
        lambda: ComposedLoss([
            PartitionLoss([[0, 1, 2], [3, 4, 5]]),
            CaptureEffectLoss(capture_limit=1, seed=9),
        ]),
        list(range(6)), id="composed",
    ),
    # Round 1 defers to the inner adversary, rounds 2 and 7 deliver.
    pytest.param(
        lambda: EventualCollisionFreedom(IIDLoss(0.6, seed=9), r_cf=2),
        [3], id="ecf",
    ),
    # The script names non-senders, pids outside the system and, in
    # some rounds, the receiver itself.
    pytest.param(
        lambda: ScriptedLoss(
            lambda r, s, recv: {x for x in range(8) if (x + r) % 3}
        ),
        [0, 1, 3, 4], id="scripted",
    ),
    pytest.param(
        lambda: MultihopLayer(
            MultihopNetwork.ring(6), inner=IIDLoss(0.4, seed=9)
        ),
        [0, 1, 3, 4], id="multihop-ring",
    ),
    pytest.param(
        lambda: PhysicalLayer(INDICES, seed=9), [0, 2, 3, 5],
        id="physical-layer",
    ),
])
def test_array_losses_counts_match_materialised_sets(
    adversary_factory, senders
):
    """Every built-in answers a normalized :class:`RoundLosses`: one drop
    set per receiver, in receiver order, naming only other senders; a
    fresh instance with the same seed replays the same sets."""
    adversary, replay = adversary_factory(), adversary_factory()
    receivers = tuple(range(6))
    for r in (1, 2, 7):
        lost_map = adversary.losses_for_round(r, senders, receivers)
        assert type(lost_map) is RoundLosses
        assert len(lost_map) == len(receivers)
        assert list(lost_map) == list(receivers)
        for pid in receivers:
            assert set(lost_map[pid]) <= set(senders) - {pid}
        assert dict(replay.losses_for_round(r, senders, receivers)) == dict(
            lost_map
        )
        assert lost_map.get("nope", "default") == "default"


def test_array_losses_mapping_interface():
    lost_map = IIDLoss(0.5, seed=3).losses_for_round(
        1, list(range(5)), tuple(range(5))
    )
    assert isinstance(lost_map, RoundLosses)
    as_dict = dict(lost_map)
    assert lost_map == as_dict
    assert set(lost_map.keys()) == set(range(5))
    assert 0 in lost_map and "x" not in lost_map
    assert len(list(lost_map.items())) == 5


def test_engine_rejects_breaching_array_resolution():
    class OmittingLoss(LossAdversary):
        """Resolves every receiver but the last."""

        def losses_for_round(self, round_index, senders, receivers):
            receivers = tuple(receivers)[:-1]
            return RoundLosses(
                receivers, {pid: frozenset() for pid in receivers}
            )

    env = Environment(
        indices=tuple(range(4)),
        detector=detector_matrix()["AC"](),
        contention=NoContentionManager(),
        loss=OmittingLoss(),
    )
    env.reset()
    engine = ExecutionEngine(
        env,
        Algorithm(
            lambda i: ScriptedProcess(["a"]), anonymous=False
        ).spawn_all(env.indices),
        record_policy=RecordPolicy.NONE,
    )
    with pytest.raises(ModelViolation, match="omitted receiver"):
        engine.step()


# ----------------------------------------------------------------------
# CaptureEffectLoss: per-receiver substreams, determinism and law
# ----------------------------------------------------------------------
def _counts(losses):
    """Each receiver's drop count, in receiver order."""
    return [len(losses[pid]) for pid in losses]


def test_capture_block_draw_is_deterministic_per_seed_and_round():
    senders = list(range(5))
    receivers = tuple(range(5))
    a = CaptureEffectLoss(capture_limit=1, seed=21)
    b = CaptureEffectLoss(capture_limit=1, seed=21)
    for r in (1, 2, 9):
        left = a.losses_for_round(r, senders, receivers)
        right = b.losses_for_round(r, senders, receivers)
        assert dict(left) == dict(right)
    # Different rounds (and different seeds) draw different patterns.
    patterns = {
        tuple(_counts(CaptureEffectLoss(capture_limit=1, seed=21)
                      .losses_for_round(r, senders, receivers)))
        for r in range(1, 30)
    }
    assert len(patterns) > 1


def test_capture_blocks_are_independent_across_same_round_calls():
    """Group-delegating wrappers (PartitionLoss intra, multihop
    neighbourhoods) resolve each group with its own call in the same
    round; disjoint groups must draw independent patterns."""
    adv = CaptureEffectLoss(capture_limit=1, seed=7)
    group_a = [0, 1, 2]
    group_b = [3, 4, 5]
    identical = 0
    rounds = 120
    for r in range(1, rounds + 1):
        left = adv.losses_for_round(r, group_a, tuple(group_a))
        right = adv.losses_for_round(r, group_b, tuple(group_b))
        identical += _counts(left) == _counts(right)
    # Two independent 3-vectors over {1, 2} collide sometimes (1/8 by
    # chance), but nowhere near always.
    assert identical < rounds // 2, identical
    # And through PartitionLoss itself the per-group delegation holds.
    partition = PartitionLoss(
        [tuple(group_a), tuple(group_b)],
        intra=CaptureEffectLoss(capture_limit=1, seed=7),
    )
    lost_map = partition.losses_for_round(
        2, group_a + group_b, tuple(range(6))
    )
    for pid in range(6):
        assert set(lost_map[pid]) >= {
            s for s in range(6)
            if (s < 3) != (pid < 3)
        }  # cross-group is always lost; intra handled by capture


def test_capture_block_draw_counts_are_lazy_but_committed():
    """A second resolution of the same round replays its drop sets."""
    adv = CaptureEffectLoss(capture_limit=2, seed=4)
    senders = list(range(6))
    first = adv.losses_for_round(3, senders, tuple(range(6)))
    again = adv.losses_for_round(3, senders, tuple(range(6)))
    assert any(first.values())
    assert {pid: set(first[pid]) for pid in range(6)} == {
        pid: set(again[pid]) for pid in range(6)
    }


def test_capture_block_draw_samples_the_capture_law():
    # capture_limit=1 under full contention: every receiver keeps at
    # most one competitor, so drop counts are m or m-1 (m = n-1 here).
    adv = CaptureEffectLoss(capture_limit=1, seed=11)
    senders = list(range(8))
    kept_any = 0
    rounds = 300
    for r in range(1, rounds + 1):
        lost_map = adv.losses_for_round(r, senders, tuple(range(8)))
        for drop in _counts(lost_map):
            assert drop in (6, 7)
            kept_any += drop == 6
    # Capture counts are uniform on {0, 1}: about half the
    # (round, receiver) pairs decode one competitor.
    share = kept_any / (rounds * 8)
    assert 0.42 < share < 0.58


def test_capture_single_sender_ambient_loss_law():
    adv = CaptureEffectLoss(p_single_loss=0.3, seed=8)
    receivers = tuple(range(10))
    losses = 0
    rounds = 200
    for r in range(1, rounds + 1):
        drops = _counts(adv.losses_for_round(r, [0], receivers))
        assert drops[0] == 0  # the sender always keeps its own message
        losses += sum(drops[1:])
    rate = losses / (rounds * 9)
    assert abs(rate - 0.3) < 0.05


def test_capture_pure_python_batched_path_unchanged():
    adv = CaptureEffectLoss(capture_limit=2, seed=11)
    senders = [0, 1, 2, 3]
    batched = adv.losses_for_round(7, senders, [0, 1, 2, 3, 4])
    assert isinstance(batched, RoundLosses)
    law = spec.capture(capture_limit=2, seed=11)
    for pid in [0, 1, 2, 3, 4]:
        assert set(batched[pid]) == law(7, senders, pid)


# ----------------------------------------------------------------------
# Round by round
# ----------------------------------------------------------------------
def test_multi_payload_round_takes_the_reference_stage():
    """Round 2 sends two distinct payloads; rounds 1 and 3 one, round 4
    none.  Every round's record is the spec's."""
    scripts = {
        0: ["a", "a", "x", None],
        1: ["a", "b", "x", None],
        2: ["a", "a", "x", None],
    }
    detector = detector_matrix()["AC+seeded"]
    env = Environment(
        indices=(0, 1, 2),
        detector=detector(),
        contention=NoContentionManager(),
        loss=IIDLoss(0.5, seed=3),
    )
    env.reset()
    engine = ExecutionEngine(
        env, {pid: ScriptedProcess(s) for pid, s in scripts.items()},
    )
    reference = spec.run_spec(
        (0, 1, 2), lambda pid: ScriptedProcess(scripts[pid]), detector(),
        NoContentionManager(),
        spec.resolved(IIDLoss(0.5, seed=3), (0, 1, 2)), 4,
    )
    for record in reference.records:
        assert engine.step() == record
    assert set(reference.records[1].messages.values()) == {"a", "b"}


# ----------------------------------------------------------------------
# The paper's algorithms
# ----------------------------------------------------------------------
# Before the wake-up service stabilizes, every process is active and
# broadcasts its own estimate, so proposal rounds carry several distinct
# payloads at once.
ALG_SUITE = {
    "alg1": lambda: (
        algorithm_1(),
        lambda: MAJ_OAC.make(r_acc=4),
        lambda: WakeUpService(stabilization_round=5),
    ),
    "alg2": lambda: (
        algorithm_2([0, 1, 2]),
        lambda: ZERO_OAC.make(r_acc=4),
        lambda: WakeUpService(stabilization_round=5),
    ),
    "alg3": lambda: (
        algorithm_3([0, 1, 2]),
        lambda: ZERO_AC.make(),
        lambda: WakeUpService(stabilization_round=5),
    ),
}

#: The algorithm suite's loss trio (partition stays covered by the
#: headline matrix above).
ALG_LOSSES = ("capture", "iid", "reliable")


def run_real_algorithm(alg_name, loss_name, record_policy):
    algorithm, detector_factory, cm_factory = ALG_SUITE[alg_name]()
    env = Environment(
        indices=INDICES,
        detector=detector_factory(),
        contention=cm_factory(),
        loss=LOSSES[loss_name](),
    )
    env.reset()
    initials = {i: i % 3 for i in range(N)}
    engine = ExecutionEngine(
        env, algorithm.instantiate(initials), initials,
        record_policy=record_policy,
    )
    return engine.run(ROUNDS, until_all_decided=False)


@pytest.mark.parametrize("alg_name", sorted(ALG_SUITE))
@pytest.mark.parametrize("loss_name", ALG_LOSSES)
def test_real_algorithm_kernel_identity(alg_name, loss_name):
    algorithm, detector_factory, cm_factory = ALG_SUITE[alg_name]()
    initials = {i: i % 3 for i in range(N)}
    reference = spec.run_spec(
        INDICES, lambda pid: algorithm.spawn(pid, initials[pid]),
        detector_factory(), cm_factory(), LAWS[loss_name](), ROUNDS,
    )
    for record_policy in POLICIES:
        result = run_real_algorithm(alg_name, loss_name, record_policy)
        spec.assert_matches(result, reference, record_policy)
    single = single_payload_rounds(reference.records)
    # Pre-stabilization everyone proposes its own estimate, so the
    # value-carrying algorithms genuinely produce multi-payload rounds
    # (Algorithm 3 votes with one fixed marker — its rounds stay
    # single-payload by design).
    if alg_name in ("alg1", "alg2"):
        assert 0 < single < ROUNDS
    else:
        assert single == ROUNDS


@pytest.mark.parametrize("loss_name", ALG_LOSSES)
def test_counting_kernel_identity(loss_name):
    """Anonymous counting announces one fixed marker; every process
    steps through ``CountingProcess.transition``."""
    detector = detector_matrix()["AC"]
    contention = lambda: KWakeUpService(k=2, stabilization_round=4)
    reference = spec.run_spec(
        INDICES, counting_algorithm().spawn, detector(), contention(),
        LAWS[loss_name](), ROUNDS,
    )
    for record_policy in POLICIES:
        env = Environment(
            indices=INDICES,
            detector=detector(),
            contention=contention(),
            loss=LOSSES[loss_name](),
        )
        env.reset()
        engine = ExecutionEngine(
            env, counting_algorithm().spawn_all(env.indices),
            record_policy=record_policy,
        )
        result = engine.run(ROUNDS, until_all_decided=False)
        spec.assert_matches(result, reference, record_policy)


# ----------------------------------------------------------------------
# PhysicalLayer: radio arbitration as both loss and detector
# ----------------------------------------------------------------------
RADIO_CONFIGS = {
    "default": lambda: None,
    "bursty": lambda: RadioConfig(
        burst_probability=0.3, capture_threshold=0.7
    ),
}


def run_physical(record_policy, config=None, seed=3):
    layer = PhysicalLayer(INDICES, config, seed=seed)
    env = Environment(
        indices=INDICES,
        detector=layer,
        contention=NoContentionManager(),
        loss=layer,
    )
    env.reset()
    engine = ExecutionEngine(
        env, mixed_algorithm().spawn_all(env.indices),
        record_policy=record_policy,
    )
    return engine.run(ROUNDS, until_all_decided=False)


@pytest.mark.parametrize("config_name", sorted(RADIO_CONFIGS))
@pytest.mark.parametrize("record_policy", POLICIES)
def test_physical_layer_kernel_identity(config_name, record_policy):
    config = RADIO_CONFIGS[config_name]
    layer = PhysicalLayer(INDICES, config(), seed=3)
    reference = spec.run_spec(
        INDICES, mixed_algorithm().spawn, layer, NoContentionManager(),
        spec.resolved(layer, INDICES), ROUNDS,
    )
    result = run_physical(record_policy, config=config())
    spec.assert_matches(result, reference, record_policy)
    assert 0 < single_payload_rounds(reference.records) < ROUNDS


# ----------------------------------------------------------------------
# MultihopLayer: per-neighbourhood delegation
# ----------------------------------------------------------------------
MULTIHOP_TOPOLOGIES = {
    "line": lambda: MultihopNetwork.line(N),
    "ring": lambda: MultihopNetwork.ring(N),
    "grid": lambda: MultihopNetwork.grid(3, 2),
}

MULTIHOP_INNERS = {
    "none": lambda: None,
    "iid": lambda: IIDLoss(0.4, seed=11),
    "capture": lambda: CaptureEffectLoss(capture_limit=1, seed=6),
    # Names odd pids outside the neighbourhood it is handed: a drop the
    # layer already counts as cross-neighbourhood must not count twice.
    "scripted_nonlocal": lambda: ScriptedLoss(
        lambda r, s, recv: {x for x in range(6) if x % 2 and x != recv}
    ),
}


def multihop_layer(topology_name, inner_name, detector):
    net = MULTIHOP_TOPOLOGIES[topology_name]()
    return MultihopLayer(
        net, inner=MULTIHOP_INNERS[inner_name](), detector=detector
    )


def run_multihop(topology_name, inner_name, record_policy, detector):
    layer = multihop_layer(topology_name, inner_name, detector)
    env = Environment(
        indices=tuple(layer.network.indices),
        detector=layer,
        contention=NoContentionManager(),
        loss=layer,
    )
    env.reset()
    engine = ExecutionEngine(
        env, mixed_algorithm().spawn_all(env.indices),
        record_policy=record_policy,
    )
    return engine.run(ROUNDS, until_all_decided=False)


def spec_multihop(topology_name, inner_name, detector):
    layer = multihop_layer(topology_name, inner_name, detector)
    indices = tuple(layer.network.indices)
    return spec.run_spec(
        indices, mixed_algorithm().spawn, layer, NoContentionManager(),
        spec.resolved(layer, indices), ROUNDS,
    )


def assert_multihop_advice_legal(result, net, detector):
    """Every FULL record's advice is legal per receiver, with the local
    ``c`` counted here from the graph and the record's senders — not by
    the layer under test."""
    for rec in result.records:
        senders = set(rec.broadcasters)
        for pid, advice in rec.cd_advice.items():
            c_local = len(senders & net.closed_neighborhood(pid))
            assert advice_legal(
                detector.completeness_at(rec.round), detector.accuracy,
                rec.round, detector.r_acc, c_local, len(rec.received[pid]),
                advice is CollisionAdvice.COLLISION,
            ), (rec.round, pid, c_local, advice)


@pytest.mark.parametrize("topology_name", sorted(MULTIHOP_TOPOLOGIES))
@pytest.mark.parametrize("inner_name", sorted(MULTIHOP_INNERS))
def test_multihop_layer_kernel_identity(topology_name, inner_name):
    def detector():
        return ParametricCollisionDetector(
            Completeness.MAJORITY, AccuracyMode.EVENTUAL, r_acc=4,
        )

    reference = spec_multihop(topology_name, inner_name, detector())
    for record_policy in POLICIES:
        result = run_multihop(
            topology_name, inner_name, record_policy, detector()
        )
        spec.assert_matches(result, reference, record_policy)
        if record_policy is RecordPolicy.FULL:
            net = MULTIHOP_TOPOLOGIES[topology_name]()
            assert_multihop_advice_legal(result, net, detector())
    assert 0 < single_payload_rounds(reference.records) < ROUNDS


def test_multihop_seeded_policy_stream_identity():
    """The layer asks its detector through dict ``advise``, one call per
    local broadcaster count: a seeded policy's stream comes out as the
    spec round's."""
    def detector():
        return ParametricCollisionDetector(
            Completeness.ZERO, AccuracyMode.EVENTUAL, r_acc=6,
            policy=SeededRandomPolicy(p_collision=0.4, seed=17),
        )

    result = run_multihop("grid", "iid", RecordPolicy.FULL, detector())
    reference = spec_multihop("grid", "iid", detector())
    spec.assert_matches(result, reference, RecordPolicy.FULL)


class HearsEveryone(MultihopLayer):
    """Records the round's senders, then delivers every message to every
    receiver, neighbours or not."""

    def losses_for_round(self, round_index, senders, receivers):
        super().losses_for_round(round_index, senders, receivers)
        return RoundLosses.lossless(senders, receivers)


def test_multihop_advise_array_validates_counts():
    """``t > c_local`` is the layer detector's ModelViolation, in the
    engine and through the ``advise_array`` round trip kept for
    compatibility: on a line, the far end cannot hear both senders."""
    net = MultihopNetwork.line(3)
    too_many = r"process 0 received 3 messages but only 2"
    layer = HearsEveryone(net)
    env = Environment(
        indices=tuple(net.indices), detector=layer,
        contention=NoContentionManager(), loss=layer,
    )
    env.reset()
    spawn = Algorithm(lambda i: ScriptedProcess(["m"]), anonymous=False)
    engine = ExecutionEngine(env, spawn.spawn_all(env.indices))
    with pytest.raises(ModelViolation, match=too_many):
        engine.step()
    # The layer resolved round 1 before its detector refused.
    with pytest.raises(ModelViolation, match=too_many):
        layer.advise_array(1, 3, [3, 3, 3], tuple(net.indices))
