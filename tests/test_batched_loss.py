"""The loss contract: ``losses_for_round`` across the stack.

Covers the contract-level guarantees:

* every deterministic built-in adversary (and the capture law) executes
  identically on the paper-literal round spec (``tests/spec_round.py``)
  and on the engine, with full per-round record equality, crashes
  included;
* the same spec == engine equality over generated adversary
  compositions x crash/churn schedules (crash events naming absent and
  out-of-range pids among them, and crashes emptying the live set) x
  process fleets (one shared class, mixed classes, an
  ``_advance_round`` override, counting, and Algorithm 2 across a churn
  rejoin) x record policies, and exhaustively over every drop pattern of
  two rounds at n = 3;
* ``IIDLoss``'s whole-round law and determinism;
* one round's two views (drop counts, drop sets) agree whether the
  lazy sets are built at once or only after later rounds resolved, for
  ``IIDLoss`` (engine-shaped rounds and the one-receiver groups a
  multihop layer hands it) and for grouped rounds (``PartitionLoss``,
  ``MultihopLayer``);
* ``CaptureEffectLoss`` is independent of receiver enumeration order;
* ``ModelViolation`` on every contract breach: a drop set naming its
  receiver or a non-sender, counts that disagree with the sets, an
  omitted receiver, an answer that is not a ``RoundLosses``;
* the lower-bound searches accept ``SUMMARY`` results wherever they only
  consult broadcast-count sequences.

Test names that mention a kernel or a scalar path, and the ``backend``
parameter, date from the retired array backend and its kernel:
one stream family and one engine path remain.
"""

import random
from itertools import combinations, product

import pytest

import spec_round as spec
from maybe_hypothesis import HealthCheck, given, settings, strategies as st
from repro.adversary.churn import NoChurn, SeededChurn
from repro.adversary.crash import (
    CrashAdversary,
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
    LossAdversary,
    PartitionLoss,
    ReliableDelivery,
    RoundLosses,
    ScriptedLoss,
    SilenceLoss,
)
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.counting import CountingProcess
from repro.contention.services import (
    KWakeUpService,
    NoContentionManager,
    WakeUpService,
)
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError, ModelViolation
from repro.core.execution import ExecutionEngine, run_algorithm
from repro.core.algorithm import Algorithm
from repro.core.process import Process, ScriptedProcess
from repro.core.records import RecordPolicy
from repro.core.types import CollisionAdvice
from repro.detectors.classes import MAJ_OAC
from repro.detectors.detector import (
    ParametricCollisionDetector,
    perfect_detector,
)
from repro.detectors.policy import SeededRandomPolicy
from repro.detectors.properties import AccuracyMode, Completeness
from repro.lowerbounds.compose import compose_alpha_executions
from repro.lowerbounds.pigeonhole import lemma21_find_pair, theorem9_find_pair
from repro.lowerbounds.conjecture import max_composable_prefix
from repro.substrate.multihop import MultihopLayer, MultihopNetwork

POLICIES = (RecordPolicy.FULL, RecordPolicy.SUMMARY, RecordPolicy.NONE)


def varied_script(i, rounds):
    """Distinct messages and silent rounds, so executions exercise both
    the single- and multi-message engine paths and rounds with partial
    sender sets."""
    script = []
    for r in range(rounds):
        if (r + i) % 4 == 3:
            script.append(None)  # silent round for this index
        elif r % 3 == 0:
            script.append("m")  # single shared message round
        else:
            script.append(f"m{i % 3}")
        # (None entries vary the sender set per round)
    return script


def varied_algorithm(n, rounds):
    """Scripted processes running :func:`varied_script`."""
    return Algorithm(
        lambda i: ScriptedProcess(varied_script(i, rounds)), anonymous=False
    )


class Gossip(Process):
    """Broadcasts the least value it has heard (marked when told of a
    collision), so what a process loses in one round changes what it
    sends in the next; silent every third round unless ``always``, and
    decides and halts at ``decide_at``."""

    def __init__(self, pid, decide_at=None, always=False):
        super().__init__()
        self.pid = pid
        self.value = "ab"[pid % 2]
        self.decide_at = decide_at
        self.always = always

    def message(self, cm_advice):
        if not self.always and (self._round + self.pid) % 3 == 2:
            return None
        return self.value

    def transition(self, received, cd_advice, cm_advice):
        if received:
            self.value = min(self.value, min(received.support()))
        if cd_advice is CollisionAdvice.COLLISION:
            self.value += "!"
        if self._round + 1 == self.decide_at:
            self.decide(self.value)
            self.halt()


class Ticking(ScriptedProcess):
    """Tags each broadcast with the round advances it has seen, through
    its own ``_advance_round``, so record equality sees whether every
    path advances rounds through the process's own hook."""

    def __init__(self, script):
        super().__init__(script)
        self.ticks = 0

    def message(self, cm_advice):
        m = super().message(cm_advice)
        return None if m is None else f"{m}@{self.ticks}"

    def _advance_round(self):
        super()._advance_round()
        self.ticks += 1


class ReportingCounter(CountingProcess):
    """Anonymous counting whose announcements carry the process's counts
    and round, so record equality sees all the state that
    ``CountingProcess.transition`` writes."""

    def message(self, cm_advice):
        m = super().message(cm_advice)
        return None if m is None else (m, tuple(self.counts), self._round)


class WildCrashes(CrashAdversary):
    """Names pids across the index range and beyond each round —
    absent, crashed or outside the indices alike — but at most one live
    pid, the last one included: the live set may empty, and every
    contention manager answers an empty live set with no advice."""

    def __init__(self, p, seed):
        self.p = p
        self.seed = seed

    def crashes(self, round_index, live):
        rng = random.Random(f"{self.seed}|{round_index}")
        named = [pid for pid in range(N_GEN + 2) if rng.random() < self.p]
        victims = [pid for pid in named if pid in live][:1]
        return tuple(
            CrashEvent(pid, after_send=rng.random() < 0.5)
            for pid in named if pid not in live or pid in victims
        )


def run_against_spec(loss_factory, law, algorithm, rounds, n=6,
                     detector=perfect_detector,
                     contention=NoContentionManager,
                     crash=None, churn=None, policies=(RecordPolicy.FULL,)):
    """The spec run, then the engine under each policy; every engine run
    must match the spec."""
    indices = tuple(range(n))
    reference = spec.run_spec(
        indices, algorithm.spawn, detector(), contention(), law, rounds,
        crash=crash() if crash else None, churn=churn() if churn else None,
    )
    for record_policy in policies:
        env = Environment(
            indices=indices,
            detector=detector(),
            contention=contention(),
            loss=loss_factory(),
            crash=crash() if crash else NoCrashes(),
            churn=churn() if churn else NoChurn(),
        )
        result = run_algorithm(
            env, algorithm, max_rounds=rounds, until_all_decided=False,
            record_policy=record_policy,
        )
        spec.assert_matches(result, reference, record_policy)
    return reference


# ----------------------------------------------------------------------
# Every deterministic built-in: spec == engine
# ----------------------------------------------------------------------
def _scripted_rule(r, s, recv):
    return {x for x in s if (x + r) % 3 == 0}


def _odd_rounds_first_sender(r, s, recv):
    return {s[0]} if s and r % 2 else set()


_HALVES = [(0, 1, 2), (3, 4, 5)]

#: name -> (adversary factory, the spec's law for it)
DETERMINISTIC_ADVERSARIES = {
    "reliable": (ReliableDelivery, spec.reliable()),
    "silence": (SilenceLoss, spec.silence()),
    "alpha": (AlphaLoss, spec.alpha()),
    "partition": (
        lambda: PartitionLoss(_HALVES), spec.partition(_HALVES),
    ),
    "partition_silence_intra": (
        lambda: PartitionLoss(_HALVES, intra=SilenceLoss(), until_round=8),
        spec.partition(_HALVES, intra=spec.silence(), until_round=8),
    ),
    "scripted": (lambda: ScriptedLoss(_scripted_rule), _scripted_rule),
    "composed": (
        lambda: ComposedLoss([
            PartitionLoss(_HALVES), ScriptedLoss(_odd_rounds_first_sender),
        ]),
        spec.composed([spec.partition(_HALVES), _odd_rounds_first_sender]),
    ),
    "ecf_silence": (
        lambda: EventualCollisionFreedom(SilenceLoss(), r_cf=5),
        spec.ecf(spec.silence(), 5),
    ),
    "capture": (
        lambda: CaptureEffectLoss(capture_limit=2, seed=3),
        spec.capture(capture_limit=2, seed=3),
    ),
}


@pytest.mark.parametrize("name", sorted(DETERMINISTIC_ADVERSARIES))
def test_batched_and_fallback_executions_are_identical(name):
    """The engine, reading the adversary's whole-round (batched)
    resolution, executes the spec's round, which asks the law one
    receiver at a time, record for record."""
    factory, law = DETERMINISTIC_ADVERSARIES[name]
    run_against_spec(factory, law, varied_algorithm(6, 12), rounds=12)


def test_batched_and_fallback_identical_under_crashes():
    factory, law = DETERMINISTIC_ADVERSARIES["partition_silence_intra"]
    run_against_spec(
        factory, law, varied_algorithm(6, 12), rounds=12,
        crash=lambda: ScheduledCrashes.at({3: [1], 5: [4]}, after_send=True),
    )


# ----------------------------------------------------------------------
# Generated compositions x crash/churn schedules x record policies
# ----------------------------------------------------------------------
N_GEN = 5
ROUNDS_GEN = 8


def _script(seed):
    """A per-receiver script naming arbitrary pids — non-senders, pids
    outside the senders it was handed, and the receiver itself."""

    def rule(r, senders, receiver):
        rng = random.Random(f"{seed}|{r}|{receiver}")
        return {x for x in range(N_GEN + 1) if rng.random() < 0.4}

    return rule


def build(desc):
    """``(adversary factory, law)`` for one generated description."""
    kind = desc[0]
    if kind == "reliable":
        return ReliableDelivery, spec.reliable()
    if kind == "silence":
        return SilenceLoss, spec.silence()
    if kind == "alpha":
        return AlphaLoss, spec.alpha()
    if kind == "script":
        rule = _script(desc[1])
        return (lambda: ScriptedLoss(rule)), rule
    if kind == "partition":
        _, groups, inner, until = desc
        make, law = build(inner)
        return (
            lambda: PartitionLoss(groups, intra=make(), until_round=until),
            spec.partition(groups, law, until),
        )
    if kind == "ecf":
        _, inner, r_cf = desc
        make, law = build(inner)
        return (
            lambda: EventualCollisionFreedom(make(), r_cf=r_cf),
            spec.ecf(law, r_cf),
        )
    parts = [build(d) for d in desc[1]]
    return (
        lambda: ComposedLoss([make() for make, _ in parts]),
        spec.composed([law for _, law in parts]),
    )


_leaves = st.one_of(
    st.sampled_from([("reliable",), ("silence",), ("alpha",)]),
    st.tuples(st.just("script"), st.integers(0, 10**6)),
)
_groups = st.lists(
    st.sampled_from([0, 1, 2, None]), min_size=N_GEN, max_size=N_GEN
).map(lambda labels: [
    [pid for pid, g in enumerate(labels) if g == k] for k in range(3)
])
_descriptions = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.just("partition"), _groups, inner,
                  st.one_of(st.none(), st.integers(1, ROUNDS_GEN))),
        st.tuples(st.just("ecf"), inner, st.integers(1, ROUNDS_GEN)),
        st.tuples(st.just("composed"), st.lists(inner, min_size=1,
                                                max_size=3)),
    ),
    max_leaves=4,
)
_crashes = st.one_of(
    st.none(),
    st.tuples(
        st.floats(0.0, 0.4), st.integers(0, 2), st.integers(1, ROUNDS_GEN),
        st.integers(0, 10**6), st.booleans(),
    ),
    st.tuples(st.just("wild"), st.floats(0.0, 0.2), st.integers(0, 10**6)),
)
_churn = st.one_of(st.none(), st.tuples(
    st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.integers(0, 10**6),
    st.integers(1, ROUNDS_GEN), st.booleans(),
))
_DETECTORS = {
    "perfect": perfect_detector,
    "maj-OAC": lambda: MAJ_OAC.make(r_acc=3),
    "seeded": lambda: ParametricCollisionDetector(
        Completeness.ZERO, AccuracyMode.ALWAYS,
        policy=SeededRandomPolicy(p_collision=0.5, seed=7),
    ),
}
_CONTENTION = {
    "none": NoContentionManager,
    "wake-up": lambda: WakeUpService(stabilization_round=3),
    # Rotating solo rounds: counting fleets reach their second block
    # start, and so append counts, within ROUNDS_GEN rounds.
    "k-wake-up": lambda: KWakeUpService(k=1, stabilization_round=2),
}
_ALGORITHMS = {
    "scripted": lambda: varied_algorithm(N_GEN, ROUNDS_GEN),
    "gossip": lambda: Algorithm(
        lambda pid: Gossip(pid, decide_at=ROUNDS_GEN - 1 - pid % 2),
        anonymous=False,
    ),
    # No class shared by the whole fleet.
    "mixed": lambda: Algorithm(
        lambda pid: ScriptedProcess(varied_script(pid, ROUNDS_GEN))
        if pid % 2 == 0 else Gossip(pid, decide_at=ROUNDS_GEN - 1),
        anonymous=False,
    ),
    "ticking": lambda: Algorithm(
        lambda pid: Ticking(varied_script(pid, ROUNDS_GEN)),
        anonymous=False,
    ),
    # Counting through its per-process ``transition``.
    "counting": lambda: Algorithm.anonymous(ReportingCounter),
    # Algorithm 2; after a churn rejoin one round holds a fresh
    # process at prepare beside a fleet mid-cycle.
    "alg2": lambda: algorithm_2(range(4)).with_fixed_values(
        {pid: (3 * pid) % 4 for pid in range(N_GEN)}
    ),
}


def _crash_factory(crash):
    if crash is None:
        return None
    if crash[0] == "wild":
        return lambda: WildCrashes(p=crash[1], seed=crash[2])
    return lambda: SeededRandomCrashes(
        p=crash[0], max_crashes=crash[1], deadline=crash[2],
        seed=crash[3], after_send=crash[4],
    )


@given(
    desc=_descriptions,
    crash=_crashes,
    churn=_churn,
    detector=st.sampled_from(sorted(_DETECTORS)),
    contention=st.sampled_from(sorted(_CONTENTION)),
    algorithm=st.sampled_from(sorted(_ALGORITHMS)),
)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_spec_scalar_and_kernel_agree_on_generated_compositions(
    desc, crash, churn, detector, contention, algorithm
):
    factory, law = build(desc)
    run_against_spec(
        factory, law, _ALGORITHMS[algorithm](), ROUNDS_GEN, n=N_GEN,
        detector=_DETECTORS[detector], contention=_CONTENTION[contention],
        crash=_crash_factory(crash),
        churn=churn and (lambda: SeededChurn(
            leave_rate=churn[0], join_rate=churn[1], seed=churn[2],
            deadline=churn[3], after_send=churn[4],
        )),
        policies=POLICIES,
    )


def test_spec_scalar_and_kernel_agree_on_every_two_round_drop_pattern():
    """Small-scope exhaustive check: n = 3, everyone sends in both
    rounds, and the adversary picks any subset of the other two senders
    per receiver per round — 4^3 patterns a round, 4,096 executions."""
    indices = (0, 1, 2)
    per_receiver = [
        [frozenset(c) for k in range(3)
         for c in combinations([s for s in indices if s != pid], k)]
        for pid in indices
    ]
    patterns = [dict(zip(indices, p)) for p in product(*per_receiver)]
    assert len(patterns) == 64
    algorithm = Algorithm(lambda pid: Gossip(pid, always=True),
                          anonymous=False)
    detector = lambda: ParametricCollisionDetector(
        Completeness.HALF, AccuracyMode.ALWAYS,
        policy=SeededRandomPolicy(p_collision=0.5, seed=1),
    )
    runs = 0
    for first, second in product(patterns, patterns):
        script = {1: first, 2: second}
        run_against_spec(
            lambda: ScriptedLoss(round_fn=lambda r, s, recvs: script[r]),
            lambda r, senders, receiver: script[r][receiver],
            algorithm, rounds=2, n=3, detector=detector,
        )
        runs += 1
    assert runs == 4096


# ----------------------------------------------------------------------
# IIDLoss: batched law and determinism
# ----------------------------------------------------------------------
def _loss_rate_over_rounds(adv, n, rounds):
    senders = list(range(n))
    pairs = 0
    losses = 0
    for r in range(1, rounds + 1):
        lost_map = adv.losses_for_round(r, senders, senders)
        for pid in senders:
            pairs += n - 1
            losses += len(lost_map[pid])
    return pairs, losses


@pytest.mark.parametrize("backend", ["python"])
def test_iid_batched_matches_bernoulli_marginal(backend):
    p = 0.3
    adv = IIDLoss(p, seed=42)
    # 40 x 40 grid over 10 rounds: 15600 non-self pairs, std ~ 0.004.
    pairs, losses = _loss_rate_over_rounds(adv, 40, 10)
    assert pairs >= 10_000
    rate = losses / pairs
    assert abs(rate - p) < 0.02


@pytest.mark.parametrize("backend", ["python"])
def test_iid_batched_is_seed_deterministic(backend):
    senders = list(range(10))
    a = IIDLoss(0.4, seed=7)
    b = IIDLoss(0.4, seed=7)
    maps_a = [dict(a.losses_for_round(r, senders, senders)) for r in range(5)]
    maps_b = [dict(b.losses_for_round(r, senders, senders)) for r in range(5)]
    assert maps_a == maps_b
    a.reset()
    maps_again = [
        dict(a.losses_for_round(r, senders, senders)) for r in range(5)
    ]
    assert maps_again == maps_a


@pytest.mark.parametrize("backend", ["python"])
@pytest.mark.parametrize("p", [0.0, 1e-300, 1.0])
def test_iid_batched_edge_probabilities(backend, p):
    senders = list(range(8))
    lost_map = IIDLoss(p, seed=0).losses_for_round(1, senders, senders)
    if p >= 1.0:
        for pid in senders:
            assert set(lost_map[pid]) == set(senders) - {pid}
    else:
        assert all(not lost_map[pid] for pid in senders)


@pytest.mark.parametrize("backend", ["python"])
def test_iid_batched_handles_empty_receivers(backend):
    assert IIDLoss(0.3, seed=0).losses_for_round(1, [0, 1, 2], []) == {}


def test_composed_component_omission_surfaces_as_model_violation():
    class Omitting(LossAdversary):
        def losses_for_round(self, round_index, senders, receivers):
            return RoundLosses.lossless(senders, tuple(receivers)[:-1])

    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=ComposedLoss([Omitting(), ReliableDelivery()]),
        crash=NoCrashes(),
    )
    env.reset()
    engine = ExecutionEngine(
        env,
        Algorithm(
            lambda i: ScriptedProcess(["a"]), anonymous=False
        ).spawn_all(env.indices),
    )
    with pytest.raises(ModelViolation, match="omitted receiver"):
        engine.step()


def test_iid_batched_never_drops_self():
    senders = list(range(30))
    lost_map = IIDLoss(0.9, seed=5).losses_for_round(1, senders, senders)
    assert isinstance(lost_map, RoundLosses)
    for pid in senders:
        assert pid not in lost_map[pid]


def _views(losses):
    """A round's two views: the counts and the sets they count."""
    return (
        list(losses.drop_counts),
        {pid: set(losses[pid]) for pid in losses.receivers},
    )


#: (senders, receivers) shapes: the engine's (every sender a receiver,
#: plus silent receivers) and the small groups MultihopLayer hands its
#: inner adversary — one receiver that sent, one that did not, and two
#: members sharing a neighbourhood.
_IID_SHAPES = {
    "engine": (list(range(6)), tuple(range(8))),
    "group-sender": ([1, 2, 4], (2,)),
    "group-listener": ([1, 2, 4], (3,)),
    "group-pair": ([0, 1, 5], (0, 5)),
}


@pytest.mark.parametrize("backend", ["python"])
@pytest.mark.parametrize("shape", sorted(_IID_SHAPES))
def test_iid_views_agree_in_either_access_order(shape, backend):
    """The counts and the sets of one round stay consistent, whether the
    sets are read at once or only after later rounds drew, and no set
    ever names its receiver."""
    senders, receivers = _IID_SHAPES[shape]
    a = IIDLoss(0.6, seed=11)
    b = IIDLoss(0.6, seed=11)
    rounds = range(1, 40)
    late = [b.losses_for_round(r, senders, receivers) for r in rounds]
    drops = 0
    for r, deferred in zip(rounds, late):
        counts, sets = _views(a.losses_for_round(r, senders, receivers))
        assert _views(deferred) == (counts, sets)
        assert counts == [len(sets[pid]) for pid in receivers]
        for pid in receivers:
            assert pid not in sets[pid]
            assert sets[pid] <= set(senders)
        drops += sum(counts)
    assert drops > 0


#: Group-resolving adversaries: cross-group drops plus one inner
#: resolution per group.
_GROUPED = {
    "partition-iid": lambda: PartitionLoss(
        [range(3), range(3, 7)], intra=IIDLoss(0.4, seed=2)
    ),
    "partition-silence": lambda: PartitionLoss(
        [[0, 2, 4], [1, 3]], intra=SilenceLoss()
    ),
    "ring-iid": lambda: MultihopLayer(
        MultihopNetwork.ring(7), inner=IIDLoss(0.3, seed=1)
    ),
    "line-capture": lambda: MultihopLayer(
        MultihopNetwork.line(7), inner=CaptureEffectLoss(1, seed=4)
    ),
    "line-scripted": lambda: MultihopLayer(
        MultihopNetwork.line(7), inner=ScriptedLoss(_scripted_rule)
    ),
}


@pytest.mark.parametrize("name", sorted(_GROUPED))
def test_grouped_views_agree_in_either_access_order(name):
    """Grouped rounds count each group's cross-group senders plus the
    inner counts; the lazy sets, built at once or only after later
    rounds resolved, name exactly that many other senders."""
    a, b = _GROUPED[name](), _GROUPED[name]()
    rng = random.Random(name)
    receivers = tuple(range(7))
    rounds = range(1, 40)
    sender_lists = [
        [pid for pid in receivers if rng.random() < 0.6] for _ in rounds
    ]
    late = [
        b.losses_for_round(r, senders, receivers)
        for r, senders in zip(rounds, sender_lists)
    ]
    for r, senders, deferred in zip(rounds, sender_lists, late):
        counts, sets = _views(a.losses_for_round(r, senders, receivers))
        assert _views(deferred) == (counts, sets)
        assert counts == [len(sets[pid]) for pid in receivers]
        for pid in receivers:
            assert pid not in sets[pid]
            assert sets[pid] <= set(senders)


# ----------------------------------------------------------------------
# CaptureEffectLoss: per-receiver substreams
# ----------------------------------------------------------------------
def test_capture_effect_is_receiver_order_independent():
    senders = [0, 1, 2, 3]
    forward = CaptureEffectLoss(capture_limit=1, seed=9).losses_for_round(
        1, senders, [0, 1, 2, 3, 4]
    )
    backward = CaptureEffectLoss(capture_limit=1, seed=9).losses_for_round(
        1, senders, [4, 3, 2, 1, 0]
    )
    assert {pid: set(forward[pid]) for pid in range(5)} == {
        pid: set(backward[pid]) for pid in range(5)
    }


def test_capture_effect_batched_equals_per_receiver():
    # The whole-round resolution is the spec's per-receiver capture law.
    senders = [0, 1, 2, 3]
    receivers = [0, 1, 2, 3, 4, 5]
    law = spec.capture(capture_limit=2, seed=11)
    batched = CaptureEffectLoss(capture_limit=2, seed=11).losses_for_round(
        7, senders, receivers
    )
    for pid in receivers:
        assert set(batched[pid]) == law(7, senders, pid)


# ----------------------------------------------------------------------
# ModelViolation on contract breaches
# ----------------------------------------------------------------------
class BreachingAdversary(LossAdversary):
    """Answers with a RoundLosses that breaks the contract on demand."""

    def __init__(self, breach):
        self.breach = breach

    def losses_for_round(self, round_index, senders, receivers):
        receivers = tuple(receivers)
        sets = {pid: frozenset() for pid in receivers}
        if self.breach == "self":
            # Drop a broadcaster's own message at itself.
            sets[senders[0]] = frozenset({senders[0]})
        elif self.breach == "non_sender":
            non_senders = [r for r in receivers if r not in set(senders)]
            sets[receivers[0]] = frozenset(non_senders[:1])
        elif self.breach == "omit":
            receivers = receivers[:-1]
        elif self.breach == "miscount":
            # Sets say nothing is lost; the counts claim one loss each
            # at the receivers that have another sender to lose.
            counts = [1 if set(senders) - {pid} else 0 for pid in receivers]
            return RoundLosses(senders, receivers, counts, lambda: sets)
        elif self.breach == "dict":
            return dict(sets)
        return RoundLosses.from_sets(
            senders, receivers, {pid: sets[pid] for pid in receivers}
        )


def assert_breach_raises(breach, match):
    """The engine rejects the breach in the round it is answered."""
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=BreachingAdversary(breach),
        crash=NoCrashes(),
    )
    env.reset()
    scripts = {0: ["a"], 1: ["b"]}
    algo = Algorithm(
        lambda i: ScriptedProcess(scripts.get(i, [])), anonymous=False
    )
    engine = ExecutionEngine(env, algo.spawn_all(env.indices))
    with pytest.raises(ModelViolation, match=match):
        engine.step()


def test_self_delivery_breach_raises_through_batched_path():
    assert_breach_raises("self", "own message|not another sender")


def test_non_sender_in_normalized_drop_set_raises():
    assert_breach_raises("non_sender", "non-sender|not another sender")


def test_omitted_receiver_raises_through_batched_path():
    assert_breach_raises("omit", "omitted receiver")


def test_drop_counts_disagreeing_with_drop_sets_raise():
    assert_breach_raises("miscount", "drop set names|disagree")


def test_answer_that_is_not_round_losses_raises():
    assert_breach_raises("dict", "not RoundLosses")


def test_scripted_loss_normalizes_untrusted_drop_sets():
    # The script names the receiver, a non-sender (9) and a pid outside
    # the senders; only the other senders survive normalization.
    adv = ScriptedLoss(lambda r, s, recv: [recv, 9, 0, 1, 1])
    lost_map = adv.losses_for_round(1, [0, 1], (0, 1, 2))
    assert {pid: set(lost_map[pid]) for pid in (0, 1, 2)} == {
        0: {1}, 1: {0}, 2: {0, 1},
    }
    assert list(lost_map.drop_counts) == [1, 1, 2]


def test_scripted_round_fn_constructor_validation():
    with pytest.raises(ConfigurationError):
        ScriptedLoss()
    with pytest.raises(ConfigurationError):
        ScriptedLoss(
            lambda r, s, recv: set(),
            round_fn=lambda r, s, recvs: {},
        )


def test_scripted_round_fn_drives_whole_round():
    def round_fn(r, senders, receivers):
        shared = frozenset(s for s in senders if s != 0)
        return {pid: (shared if pid == 0 else frozenset()) for pid in receivers}

    adv = ScriptedLoss(round_fn=round_fn)
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        loss=adv,
        crash=NoCrashes(),
    )
    result = run_algorithm(
        env,
        Algorithm(lambda i: ScriptedProcess(["x"]), anonymous=False),
        max_rounds=1, until_all_decided=False,
    )
    rec = result.records[0]
    assert len(rec.received[0]) == 1  # only its own message
    assert len(rec.received[1]) == 3
    assert adv.losses_for_round(1, [0, 1, 2], (0, 1, 2))[0] == {1, 2}


# ----------------------------------------------------------------------
# Lower bounds under SUMMARY retention
# ----------------------------------------------------------------------
def test_lemma21_search_accepts_summary_results():
    values = list(range(8))
    full = lemma21_find_pair(algorithm_2(values), (0, 1), values)
    summary = lemma21_find_pair(
        algorithm_2(values), (0, 1), values,
        record_policy=RecordPolicy.SUMMARY,
    )
    assert full is not None and summary is not None
    assert (full[0], full[1]) == (summary[0], summary[1])
    assert summary[2].record_policy is RecordPolicy.SUMMARY


def test_theorem9_search_accepts_summary_results():
    from repro.algorithms.alg3 import algorithm_3

    values = list(range(8))
    full = theorem9_find_pair(algorithm_3(values), (0, 1), values)
    summary = theorem9_find_pair(
        algorithm_3(values), (0, 1), values,
        record_policy=RecordPolicy.SUMMARY,
    )
    assert full is not None and summary is not None
    assert (full[0], full[1]) == (summary[0], summary[1])


def test_composition_rejects_summary_alphas_loudly():
    values = list(range(8))
    pair = lemma21_find_pair(
        algorithm_2(values), (0, 1), values,
        record_policy=RecordPolicy.SUMMARY,
    )
    assert pair is not None
    v_a, v_b, alpha_a, alpha_b = pair
    with pytest.raises(ConfigurationError, match="FULL"):
        compose_alpha_executions(
            algorithm_2(values), alpha_a, alpha_b, v_a, v_b, k=1
        )


def test_max_composable_prefix_defaults_to_summary_retention():
    from repro.algorithms.nonanonymous import non_anonymous_algorithm

    values = [0, 1]
    ids = list(range(4))
    algo = non_anonymous_algorithm(values, ids)
    k_summary = max_composable_prefix(
        algo, ids, 2, values, mode="disjoint", k_limit=4
    )
    k_full = max_composable_prefix(
        algo, ids, 2, values, mode="disjoint", k_limit=4,
        record_policy=RecordPolicy.FULL,
    )
    assert k_summary == k_full
