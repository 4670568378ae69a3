"""Equivalence suite for the array round kernel.

The pure-python engine path is the reference; every vectorised branch
must be observationally invisible.  A round rides the kernel only when
numpy is on, no churn event fires and the round carries at most one
distinct payload; every other round takes the reference receive stage
and the per-process transitions, so on those rounds the kernel-on vs
kernel-off comparison holds the reference against itself and the
paper-literal spec in ``tests/test_batched_loss.py`` is the oracle that
has to catch their bugs.  Covered here:

* byte-identical vectorised-vs-fallback executions for every built-in
  detector class (the full Figure 1 lattice plus the phased detectors)
  x {reliable, iid, capture, partition} x {FULL, SUMMARY, NONE},
  including runs with crashes, halting, decisions, and a seeded-RNG
  detector policy (whose stream order the array path must preserve);
* a third-party detector without ``advise_array`` rides the dict
  round trip under the kernel and sees the exact same calls either way,
  and one that omits a pid from its advice is rejected on both receive
  paths;
* a subclass overriding ``advise`` on a built-in detector, or
  ``free_choice`` on a built-in policy, is never silently bypassed;
* detector-level ``advise_array`` == ``advise`` elementwise for every
  lattice class;
* :class:`RoundLosses` keeps its counts and its lazily materialised
  sets consistent, behaves as a Mapping, and the engine rejects
  resolutions that breach the drop-count budget;
* the reworked ``CaptureEffectLoss`` block draw is deterministic per
  ``(seed, round)`` and samples the documented capture law;
* ``use_array_kernel=True`` without numpy fails loudly instead of
  silently running the slow path;
* the routing rule, round by round: a round with two distinct payloads
  leaves ``kernel_rounds`` unchanged and records exactly as the
  kernel-off run does, while single-payload and silent rounds count;
* the paper's real algorithms (Algorithms 1-3 and anonymous counting)
  run byte-identically kernel-on vs kernel-off under {reliable, iid,
  capture} x every record policy — their proposal rounds carry several
  distinct payloads at once, which take the reference stage;
* every built-in adversary and both substrate layers run
  byte-identically kernel-on vs kernel-off, with ``kernel_rounds``
  equal to the exact number of rounds that carry at most one distinct
  payload (read from the FULL run's records) under every record policy
  — including a multihop inner script that names senders outside the
  neighbourhood it was handed;
* both multihop runs give legal advice to every receiver, checked
  against a local ``c`` counted from the graph and each record's
  senders (both paths reach the same dict ``advise``, so this is the
  independent check), and a receive count above its local ``c`` is a
  ``ModelViolation`` on both receive paths.

On the no-numpy CI leg the kernel-on and kernel-off runs collapse onto
the same reference path, so the equivalence assertions hold trivially
there and substantively on the numpy leg — both backends run this file.
"""

import pytest

import repro.core.execution as execution_mod
from repro.adversary.crash import NoCrashes, ScheduledCrashes
from repro.adversary.loss import (
    CaptureEffectLoss,
    IIDLoss,
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    RoundLosses,
    ScriptedLoss,
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
from repro.core.environment import Environment, array_kernel_module
from repro.core.errors import ConfigurationError, ModelViolation
from repro.core.execution import ExecutionEngine, run_algorithm
from repro.core.multiset import Multiset
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

_np = array_kernel_module()
needs_numpy = pytest.mark.skipif(
    _np is None, reason="array kernel requires numpy"
)

N = 6
ROUNDS = 14


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


LOSSES = {
    "reliable": lambda: ReliableDelivery(),
    "iid": lambda: IIDLoss(0.35, seed=5),
    "capture": lambda: CaptureEffectLoss(capture_limit=1, seed=2),
    "partition": lambda: PartitionLoss([(0, 1, 2), (3, 4, 5)]),
}

POLICIES = (RecordPolicy.FULL, RecordPolicy.SUMMARY, RecordPolicy.NONE)


def run_once(detector_factory, loss_factory, record_policy,
             use_array_kernel, crash=None, algorithm=None):
    env = Environment(
        indices=tuple(range(N)),
        detector=detector_factory(),
        contention=NoContentionManager(),
        loss=loss_factory(),
        crash=crash() if crash else NoCrashes(),
    )
    return run_algorithm(
        env, algorithm or mixed_algorithm(), max_rounds=ROUNDS,
        until_all_decided=False, record_policy=record_policy,
        use_array_kernel=use_array_kernel,
    )


def single_payload_rounds(result):
    """How many rounds of a FULL ``result`` carry at most one distinct
    payload: in a churn-free execution with numpy on, exactly the rounds
    the array kernel serves."""
    return sum(
        len({m for m in rec.messages.values() if m is not None}) <= 1
        for rec in result.records
    )


def assert_identical(vec, ref, record_policy):
    assert vec.decisions == ref.decisions
    assert vec.decision_rounds == ref.decision_rounds
    assert vec.crash_rounds == ref.crash_rounds
    assert vec.rounds == ref.rounds
    if record_policy is RecordPolicy.FULL:
        assert vec.records == ref.records  # full per-round equality
    elif record_policy is RecordPolicy.SUMMARY:
        assert vec.summaries == ref.summaries


# ----------------------------------------------------------------------
# The headline matrix: every built-in detector x loss x record policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("detector_name", sorted(detector_matrix()))
@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_kernel_and_fallback_executions_are_identical(
    detector_name, loss_name
):
    detector_factory = detector_matrix()[detector_name]
    loss_factory = LOSSES[loss_name]
    for record_policy in POLICIES:
        vec = run_once(detector_factory, loss_factory, record_policy, None)
        ref = run_once(detector_factory, loss_factory, record_policy, False)
        assert_identical(vec, ref, record_policy)


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
@pytest.mark.parametrize("record_policy", POLICIES)
def test_kernel_equivalence_under_crashes(loss_name, record_policy):
    crash = lambda: ScheduledCrashes.at(
        {3: [1], 5: [4]}, after_send=True
    )
    vec = run_once(
        detector_matrix()["AC"], LOSSES[loss_name], record_policy, None,
        crash=crash,
    )
    ref = run_once(
        detector_matrix()["AC"], LOSSES[loss_name], record_policy, False,
        crash=crash,
    )
    assert_identical(vec, ref, record_policy)
    assert vec.crash_rounds[1] == 3 and vec.crash_rounds[4] == 5


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
    runs = {}
    for kernel in (None, False):
        detector = RecordingThirdPartyDetector()
        runs[kernel] = (
            run_once(lambda: detector, LOSSES[loss_name],
                     RecordPolicy.FULL, kernel),
            detector.calls,
        )
    vec, vec_calls = runs[None]
    ref, ref_calls = runs[False]
    assert_identical(vec, ref, RecordPolicy.FULL)
    # The fallback hook reconstructs the exact dict calls: same rounds,
    # same counts, same iteration order.
    assert vec_calls == ref_calls
    assert len(vec_calls) == ROUNDS


class OmitsPidFour(CollisionDetector):
    """A third-party detector whose advice leaves out pid 4."""

    def advise(self, round_index, broadcasters, received_counts):
        return {
            pid: CollisionAdvice.NULL
            for pid in received_counts if pid != 4
        }


@pytest.mark.parametrize("kernel", [
    pytest.param(True, marks=needs_numpy), False,
], ids=["kernel-on", "kernel-off"])
def test_omitted_detector_advice_raises_on_both_receive_paths(kernel):
    env = Environment(
        indices=tuple(range(N)), detector=OmitsPidFour(),
        contention=NoContentionManager(),
    )
    engine = ExecutionEngine(
        env, mixed_algorithm().spawn_all(env.indices),
        use_array_kernel=kernel,
    )
    with pytest.raises(ModelViolation,
                       match=r"collision detector omitted advice for \[4\]"):
        engine.step()
    # Round 1 sends one payload: with the kernel on it asked the detector
    # through ``advise_array``, with it off through ``_receive_scalar``.
    assert engine.kernel_rounds == (1 if kernel else 0)


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
        LOSSES["iid"], RecordPolicy.NONE, None,
    )
    assert seen == list(range(1, ROUNDS + 1))


def test_policy_free_choice_override_is_not_bypassed():
    class ContraryBenign(BenignPolicy):
        """Inverts every free choice: both engine paths must ask it."""

        def free_choice(self, round_index, pid, c, t):
            choice = super().free_choice(round_index, pid, c, t)
            return (
                CollisionAdvice.NULL
                if choice is CollisionAdvice.COLLISION
                else CollisionAdvice.COLLISION
            )

    factory = lambda: ParametricCollisionDetector(
        Completeness.ZERO, AccuracyMode.ALWAYS, policy=ContraryBenign()
    )
    vec = run_once(factory, LOSSES["iid"], RecordPolicy.FULL, None)
    ref = run_once(factory, LOSSES["iid"], RecordPolicy.FULL, False)
    assert_identical(vec, ref, RecordPolicy.FULL)


# ----------------------------------------------------------------------
# Detector-level elementwise equivalence
# ----------------------------------------------------------------------
@needs_numpy
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
                round_index, c,
                _np.asarray(counts, dtype=_np.int64), indices,
            )
            assert got == [expected[pid] for pid in indices], (
                detector_name, round_index, c, counts,
            )


# ----------------------------------------------------------------------
# RoundLosses: counts/sets consistency and Mapping behaviour
# ----------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("adversary_factory, senders", [
    (lambda: IIDLoss(0.4, seed=9), list(range(6))),
    (lambda: CaptureEffectLoss(capture_limit=2, seed=9), list(range(6))),
    (lambda: CaptureEffectLoss(p_single_loss=0.5, seed=9), [3]),
    (lambda: IIDLoss(0.4, seed=9), [1, 4]),  # partial sender set
])
def test_array_losses_counts_match_materialised_sets(
    adversary_factory, senders
):
    adversary = adversary_factory()
    receivers = tuple(range(6))
    for r in (1, 2, 7):
        lost_map = adversary.losses_for_round(r, senders, receivers)
        assert isinstance(lost_map, RoundLosses)
        counts = lost_map.drop_counts.tolist()
        assert len(lost_map) == len(receivers)
        assert list(lost_map) == list(receivers)
        for k, pid in enumerate(receivers):
            lost = lost_map[pid]
            assert len(lost) == counts[k]
            assert pid not in lost
            assert set(lost) <= set(senders)
        assert lost_map.get("nope", "default") == "default"


@needs_numpy
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


@needs_numpy
def test_engine_rejects_breaching_array_resolution():
    class BreachingArrayLoss(LossAdversary):
        def __init__(self, mode):
            self.mode = mode

        def losses_for_round(self, round_index, senders, receivers):
            receivers = tuple(receivers)
            if self.mode == "overdrop":
                drops = _np.full(len(receivers), len(senders) + 1,
                                 dtype=_np.int64)
            elif self.mode == "negative":
                drops = _np.full(len(receivers), -1, dtype=_np.int64)
            else:  # omit a receiver
                receivers = receivers[:-1]
                drops = _np.zeros(len(receivers), dtype=_np.int64)
            return RoundLosses(
                senders, receivers, drops,
                lambda: {pid: frozenset() for pid in receivers},
            )

    for mode, match in (
        ("overdrop", "droppable budget"),
        ("negative", "droppable budget"),
        ("omit", "omitted receiver"),
    ):
        env = Environment(
            indices=tuple(range(4)),
            detector=detector_matrix()["AC"](),
            contention=NoContentionManager(),
            loss=BreachingArrayLoss(mode),
        )
        env.reset()
        engine = ExecutionEngine(
            env,
            Algorithm(
                lambda i: ScriptedProcess(["a"]), anonymous=False
            ).spawn_all(env.indices),
            record_policy=RecordPolicy.NONE,
        )
        with pytest.raises(ModelViolation, match=match):
            engine.step()


# ----------------------------------------------------------------------
# CaptureEffectLoss: block-substream determinism and law
# ----------------------------------------------------------------------
@needs_numpy
def test_capture_block_draw_is_deterministic_per_seed_and_round():
    senders = list(range(5))
    receivers = tuple(range(5))
    a = CaptureEffectLoss(capture_limit=1, seed=21)
    b = CaptureEffectLoss(capture_limit=1, seed=21)
    for r in (1, 2, 9):
        left = a.losses_for_round(r, senders, receivers)
        right = b.losses_for_round(r, senders, receivers)
        assert left.drop_counts.tolist() == right.drop_counts.tolist()
        assert dict(left) == dict(right)
    # Different rounds (and different seeds) draw different blocks.
    patterns = {
        tuple(CaptureEffectLoss(capture_limit=1, seed=21)
              .losses_for_round(r, senders, receivers)
              .drop_counts.tolist())
        for r in range(1, 30)
    }
    assert len(patterns) > 1


@needs_numpy
def test_capture_blocks_are_independent_across_same_round_calls():
    """Group-delegating wrappers (PartitionLoss intra, multihop
    neighbourhoods) resolve each group with its own call in the same
    round; those calls must draw independent blocks, not replay one."""
    adv = CaptureEffectLoss(capture_limit=1, seed=7)
    group_a = [0, 1, 2]
    group_b = [3, 4, 5]
    identical = 0
    rounds = 120
    for r in range(1, rounds + 1):
        left = adv.losses_for_round(r, group_a, tuple(group_a))
        right = adv.losses_for_round(r, group_b, tuple(group_b))
        identical += (
            left.drop_counts.tolist() == right.drop_counts.tolist()
        )
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


@needs_numpy
def test_capture_block_draw_counts_are_lazy_but_committed():
    """Counts read before and after set materialisation agree — the set
    draw is reserved tail randomness, never a re-draw."""
    adv = CaptureEffectLoss(capture_limit=2, seed=4)
    senders = list(range(6))
    untouched = adv.losses_for_round(3, senders, tuple(range(6)))
    counts_before = untouched.drop_counts.tolist()
    materialised = adv.losses_for_round(3, senders, tuple(range(6)))
    sets = {pid: set(materialised[pid]) for pid in range(6)}
    assert materialised.drop_counts.tolist() == counts_before
    assert untouched.drop_counts.tolist() == counts_before
    assert {pid: len(s) for pid, s in sets.items()} == {
        pid: counts_before[k] for k, pid in enumerate(range(6))
    }


@needs_numpy
def test_capture_block_draw_samples_the_capture_law():
    # capture_limit=1 under full contention: every receiver keeps at
    # most one competitor, so drop counts are m or m-1 (m = n-1 here).
    adv = CaptureEffectLoss(capture_limit=1, seed=11)
    senders = list(range(8))
    kept_any = 0
    rounds = 300
    for r in range(1, rounds + 1):
        lost_map = adv.losses_for_round(r, senders, tuple(range(8)))
        for k, drop in enumerate(lost_map.drop_counts.tolist()):
            assert drop in (6, 7)
            kept_any += drop == 6
    # Capture counts are uniform on {0, 1}: about half the
    # (round, receiver) pairs decode one competitor.
    share = kept_any / (rounds * 8)
    assert 0.42 < share < 0.58


@needs_numpy
def test_capture_single_sender_ambient_loss_law():
    adv = CaptureEffectLoss(p_single_loss=0.3, seed=8)
    receivers = tuple(range(10))
    losses = 0
    rounds = 200
    for r in range(1, rounds + 1):
        lost_map = adv.losses_for_round(r, [0], receivers)
        drops = lost_map.drop_counts.tolist()
        assert drops[0] == 0  # the sender always keeps its own message
        losses += sum(drops[1:])
    rate = losses / (rounds * 9)
    assert abs(rate - 0.3) < 0.05
    # And the sets agree with the flags.
    lost_map = adv.losses_for_round(1, [0], receivers)
    for pid in receivers[1:]:
        assert (lost_map[pid] == frozenset({0})) == bool(
            lost_map.drop_counts[pid]
        )


def test_capture_pure_python_batched_path_unchanged(monkeypatch):
    import repro.adversary.loss as loss_mod
    import spec_round

    monkeypatch.setattr(loss_mod, "_np", None)
    adv = CaptureEffectLoss(capture_limit=2, seed=11)
    senders = [0, 1, 2, 3]
    batched = adv.losses_for_round(7, senders, [0, 1, 2, 3, 4])
    assert isinstance(batched, RoundLosses)
    law = spec_round.capture(capture_limit=2, seed=11)
    for pid in [0, 1, 2, 3, 4]:
        assert set(batched[pid]) == law(7, senders, pid)


# ----------------------------------------------------------------------
# Gating and supporting pieces
# ----------------------------------------------------------------------
def test_forcing_the_kernel_without_numpy_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        execution_mod, "array_kernel_module", lambda: None
    )
    env = Environment(
        indices=(0, 1),
        detector=detector_matrix()["AC"](),
        contention=NoContentionManager(),
    )
    with pytest.raises(ConfigurationError, match="requires numpy"):
        ExecutionEngine(
            env,
            Algorithm(
                lambda i: ScriptedProcess(["a"]), anonymous=False
            ).spawn_all(env.indices),
            use_array_kernel=True,
        )
    # use_array_kernel=None degrades gracefully to the reference path.
    engine = ExecutionEngine(
        env,
        Algorithm(
            lambda i: ScriptedProcess(["a"]), anonymous=False
        ).spawn_all(env.indices),
        use_array_kernel=None,
    )
    assert engine._np is None


@needs_numpy
def test_multi_payload_round_takes_the_reference_stage():
    """The routing rule, round by round.  Round 2 sends two distinct
    payloads: it must leave ``kernel_rounds`` unchanged and record
    exactly what the kernel-off run records.  The single-payload rounds
    1 and 3 and the silent round 4 still count."""
    scripts = {
        0: ["a", "a", "x", None],
        1: ["a", "b", "x", None],
        2: ["a", "a", "x", None],
    }

    def engine(use_array_kernel):
        env = Environment(
            indices=(0, 1, 2),
            detector=detector_matrix()["AC+seeded"](),
            contention=NoContentionManager(),
            loss=IIDLoss(0.5, seed=3),
        )
        env.reset()
        return ExecutionEngine(
            env, {pid: ScriptedProcess(s) for pid, s in scripts.items()},
            use_array_kernel=use_array_kernel,
        )

    on, off = engine(None), engine(False)
    for expected_kernel_rounds in (1, 1, 2, 3):
        assert on.step() == off.step()
        assert on.kernel_rounds == expected_kernel_rounds
    assert off.kernel_rounds == 0
    second = on.result().records[1]
    assert set(second.messages.values()) == {"a", "b"}


def test_multiset_singleton_buckets():
    buckets = Multiset.singleton_buckets("m", {0, 2, 5})
    assert set(buckets) == {0, 2, 5}
    assert buckets[0] == Multiset()
    assert buckets[2] == Multiset(["m", "m"])
    assert len(buckets[5]) == 5 and buckets[5].count("m") == 5


# ----------------------------------------------------------------------
# The paper's algorithms: multi-payload rounds take the reference stage
# ----------------------------------------------------------------------
# Before the wake-up service stabilizes, every process is active and
# broadcasts its own estimate, so proposal rounds carry several distinct
# payloads at once; those rounds take the reference receive stage and
# the per-process transitions, and only the rest ride the kernel.
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

#: The ISSUE's algorithm-suite loss trio (partition stays covered by the
#: headline matrix above).
ALG_LOSSES = ("capture", "iid", "reliable")


def run_real_algorithm(alg_name, loss_name, record_policy,
                       use_array_kernel):
    algorithm, detector_factory, cm_factory = ALG_SUITE[alg_name]()
    env = Environment(
        indices=tuple(range(N)),
        detector=detector_factory(),
        contention=cm_factory(),
        loss=LOSSES[loss_name](),
    )
    env.reset()
    initials = {i: i % 3 for i in range(N)}
    engine = ExecutionEngine(
        env, algorithm.instantiate(initials), initials,
        record_policy=record_policy, use_array_kernel=use_array_kernel,
    )
    result = engine.run(ROUNDS, until_all_decided=False)
    return result, engine.kernel_rounds


@pytest.mark.parametrize("alg_name", sorted(ALG_SUITE))
@pytest.mark.parametrize("loss_name", ALG_LOSSES)
def test_real_algorithm_kernel_identity(alg_name, loss_name):
    assert POLICIES[0] is RecordPolicy.FULL  # the count comes from it
    for record_policy in POLICIES:
        vec, vec_kernel = run_real_algorithm(
            alg_name, loss_name, record_policy, None
        )
        ref, ref_kernel = run_real_algorithm(
            alg_name, loss_name, record_policy, False
        )
        assert_identical(vec, ref, record_policy)
        assert ref_kernel == 0
        if record_policy is RecordPolicy.FULL:
            single = single_payload_rounds(vec)
            # Pre-stabilization everyone proposes its own estimate, so
            # the value-carrying algorithms genuinely produce
            # multi-payload rounds (Algorithm 3 votes with one fixed
            # marker — its rounds stay single-payload by design).
            if alg_name in ("alg1", "alg2"):
                assert 0 < single < vec.rounds
            else:
                assert single == vec.rounds
        if _np is not None:
            # Exactly the rounds with at most one distinct payload,
            # silent and loss-free ones included, ride the kernel under
            # every policy.
            assert vec_kernel == single


@pytest.mark.parametrize("loss_name", ALG_LOSSES)
def test_counting_kernel_identity(loss_name):
    """Anonymous counting announces one fixed marker, so every round
    rides the kernel; ``CountingProcess`` has no batched form, so its
    kernel rounds run the per-process ``transition`` loop."""

    def run(record_policy, use_array_kernel):
        env = Environment(
            indices=tuple(range(N)),
            detector=detector_matrix()["AC"](),
            contention=KWakeUpService(k=2, stabilization_round=4),
            loss=LOSSES[loss_name](),
        )
        env.reset()
        engine = ExecutionEngine(
            env, counting_algorithm().spawn_all(env.indices),
            record_policy=record_policy,
            use_array_kernel=use_array_kernel,
        )
        result = engine.run(ROUNDS, until_all_decided=False)
        return result, engine.kernel_rounds

    for record_policy in POLICIES:
        vec, vec_kernel = run(record_policy, None)
        ref, ref_kernel = run(record_policy, False)
        assert_identical(vec, ref, record_policy)
        assert ref_kernel == 0
        if _np is not None:
            assert vec_kernel == vec.rounds


# ----------------------------------------------------------------------
# PhysicalLayer: radio arbitration under both engine paths
# ----------------------------------------------------------------------
RADIO_CONFIGS = {
    "default": lambda: None,
    "bursty": lambda: RadioConfig(
        burst_probability=0.3, capture_threshold=0.7
    ),
}


def run_physical(record_policy, use_array_kernel, config=None, seed=3):
    layer = PhysicalLayer(tuple(range(N)), config, seed=seed)
    env = Environment(
        indices=tuple(range(N)),
        detector=layer,
        contention=NoContentionManager(),
        loss=layer,
    )
    env.reset()
    engine = ExecutionEngine(
        env, mixed_algorithm().spawn_all(env.indices),
        record_policy=record_policy, use_array_kernel=use_array_kernel,
    )
    result = engine.run(ROUNDS, until_all_decided=False)
    return result, engine.kernel_rounds


@pytest.mark.parametrize("config_name", sorted(RADIO_CONFIGS))
@pytest.mark.parametrize("record_policy", POLICIES)
def test_physical_layer_kernel_identity(config_name, record_policy):
    config = RADIO_CONFIGS[config_name]
    vec, vec_kernel = run_physical(record_policy, None, config=config())
    ref, ref_kernel = run_physical(record_policy, False, config=config())
    assert_identical(vec, ref, record_policy)
    assert ref_kernel == 0
    full, _ = run_physical(RecordPolicy.FULL, False, config=config())
    single = single_payload_rounds(full)
    assert 0 < single < full.rounds
    if _np is not None:
        assert vec_kernel == single


@needs_numpy
def test_physical_layer_losses_are_arrays_and_consistent():
    layer = PhysicalLayer(tuple(range(N)), seed=9)
    senders = [0, 2, 3, 5]
    lost_map = layer.losses_for_round(4, senders, tuple(range(N)))
    assert isinstance(lost_map, RoundLosses)
    counts = lost_map.drop_counts.tolist()
    for k, pid in enumerate(range(N)):
        lost = lost_map[pid]
        assert len(lost) == counts[k]
        assert pid not in lost
        assert set(lost) <= set(senders)


# ----------------------------------------------------------------------
# MultihopLayer: per-neighbourhood delegation under both engine paths
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


def run_multihop(topology_name, inner_name, record_policy,
                 use_array_kernel, detector):
    net = MULTIHOP_TOPOLOGIES[topology_name]()
    layer = MultihopLayer(
        net, inner=MULTIHOP_INNERS[inner_name](), detector=detector
    )
    env = Environment(
        indices=tuple(net.indices),
        detector=layer,
        contention=NoContentionManager(),
        loss=layer,
    )
    env.reset()
    engine = ExecutionEngine(
        env, mixed_algorithm().spawn_all(env.indices),
        record_policy=record_policy, use_array_kernel=use_array_kernel,
    )
    result = engine.run(ROUNDS, until_all_decided=False)
    return result, engine.kernel_rounds


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

    assert POLICIES[0] is RecordPolicy.FULL  # the count comes from it
    for record_policy in POLICIES:
        vec, vec_kernel = run_multihop(
            topology_name, inner_name, record_policy, None, detector()
        )
        ref, ref_kernel = run_multihop(
            topology_name, inner_name, record_policy, False, detector()
        )
        assert_identical(vec, ref, record_policy)
        assert ref_kernel == 0
        if record_policy is RecordPolicy.FULL:
            single = single_payload_rounds(vec)
            assert 0 < single < vec.rounds
            net = MULTIHOP_TOPOLOGIES[topology_name]()
            for run in (vec, ref):
                assert_multihop_advice_legal(run, net, detector())
        if _np is not None:
            assert vec_kernel == single


def test_multihop_seeded_policy_stream_identity():
    """Both receive paths ask the layer's detector through the same dict
    ``advise``, one call per local broadcaster count — a seeded policy's
    stream must come out identical either way."""
    def detector():
        return ParametricCollisionDetector(
            Completeness.ZERO, AccuracyMode.EVENTUAL, r_acc=6,
            policy=SeededRandomPolicy(p_collision=0.4, seed=17),
        )

    vec, _ = run_multihop("grid", "iid", RecordPolicy.FULL, None, detector())
    ref, _ = run_multihop("grid", "iid", RecordPolicy.FULL, False, detector())
    assert_identical(vec, ref, RecordPolicy.FULL)


class HearsEveryone(MultihopLayer):
    """Records the round's senders, then delivers every message to every
    receiver, neighbours or not."""

    def losses_for_round(self, round_index, senders, receivers):
        super().losses_for_round(round_index, senders, receivers)
        return RoundLosses.lossless(senders, receivers)


def test_multihop_advise_array_validates_counts():
    """``t > c_local`` is the layer detector's ModelViolation on both
    receive paths: on a line, the far end cannot hear both senders."""
    net = MultihopNetwork.line(3)
    for kernel in (False, True) if _np is not None else (False,):
        layer = HearsEveryone(net)
        env = Environment(
            indices=tuple(net.indices), detector=layer,
            contention=NoContentionManager(), loss=layer,
        )
        env.reset()
        spawn = Algorithm(lambda i: ScriptedProcess(["m"]), anonymous=False)
        engine = ExecutionEngine(
            env, spawn.spawn_all(env.indices), use_array_kernel=kernel,
        )
        with pytest.raises(ModelViolation,
                           match=r"process 0 received 3 messages but only 2"):
            engine.step()
        # One payload: the kernel asked through ``advise_array``.
        assert engine.kernel_rounds == (1 if kernel else 0)
