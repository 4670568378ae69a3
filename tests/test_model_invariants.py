"""Property-based model invariants: every execution the engine produces
must satisfy Definition 11's constraints, whatever the adversaries do.

These tests drive randomized (but seeded) combinations of algorithm,
loss, crash, detector class, and contention manager, then check the
*finished execution* against the formal constraints using the trace
validators — the engine is not trusted, it is audited.
"""

from maybe_hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.crash import SeededRandomCrashes
from repro.adversary.loss import (
    CaptureEffectLoss,
    EventualCollisionFreedom,
    IIDLoss,
    satisfies_ecf,
)
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.alg3 import algorithm_3
from repro.contention.services import KWakeUpService, WakeUpService
from repro.core.environment import Environment
from repro.core.execution import run_consensus
from repro.core.multiset import Multiset
from repro.detectors.classes import MAJ_OAC, ZERO_AC, ZERO_OAC
from repro.detectors.noise import check_detector_trace, check_noise_lemma
from repro.detectors.policy import SeededRandomPolicy
from repro.detectors.properties import AccuracyMode, Completeness

VALUES = list(range(8))

INVARIANT_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

params = st.fixed_dictionaries({
    "seed": st.integers(0, 10**6),
    "n": st.integers(2, 6),
    "cst": st.integers(1, 12),
    "loss_rate": st.floats(0.0, 0.9),
    "capture": st.booleans(),
    "detector": st.sampled_from(["maj-OAC", "0-OAC", "0-AC"]),
    "kwakeup": st.booleans(),
})


def build(p):
    inner = (
        CaptureEffectLoss(seed=p["seed"])
        if p["capture"]
        else IIDLoss(p["loss_rate"], seed=p["seed"])
    )
    det_cls = {"maj-OAC": MAJ_OAC, "0-OAC": ZERO_OAC, "0-AC": ZERO_AC}[
        p["detector"]
    ]
    policy = SeededRandomPolicy(0.4, seed=p["seed"] + 1)
    detector = (
        det_cls.make(r_acc=p["cst"], policy=policy)
        if det_cls.accuracy is AccuracyMode.EVENTUAL
        else det_cls.make(policy=policy)
    )
    cm = (
        KWakeUpService(k=2, stabilization_round=p["cst"])
        if p["kwakeup"]
        else WakeUpService(stabilization_round=p["cst"])
    )
    return Environment(
        indices=tuple(range(p["n"])),
        detector=detector,
        contention=cm,
        loss=EventualCollisionFreedom(inner, r_cf=p["cst"]),
        crash=SeededRandomCrashes(
            p=0.05, max_crashes=p["n"] - 1, deadline=20,
            seed=p["seed"] + 2,
        ),
    )


def run(p):
    env = build(p)
    assignment = {i: VALUES[(i + p["seed"]) % len(VALUES)]
                  for i in range(p["n"])}
    result = run_consensus(
        env, algorithm_2(VALUES), assignment, max_rounds=60
    )
    return env, result


@given(params)
@INVARIANT_SETTINGS
def test_receive_sets_always_submultisets(p):
    """Definition 11, constraint 4."""
    _, result = run(p)
    for rec in result.records:
        sent = Multiset(
            [m for m in rec.messages.values() if m is not None]
        )
        for pid in result.indices:
            assert rec.received[pid] <= sent


@given(params)
@INVARIANT_SETTINGS
def test_self_delivery_always_holds(p):
    """Definition 11, constraint 5."""
    _, result = run(p)
    for rec in result.records:
        for pid, message in rec.messages.items():
            if message is not None:
                assert message in rec.received[pid]


@given(params)
@INVARIANT_SETTINGS
def test_cd_trace_always_legal_for_the_class(p):
    """Definition 11, constraint 6: the recorded advice must be a legal
    output of a detector in the configured class."""
    env, result = run(p)
    det = env.detector
    assert check_detector_trace(
        result, det.completeness, det.accuracy, det.r_acc
    )


@given(params)
@INVARIANT_SETTINGS
def test_noise_lemma_holds_whenever_zero_complete(p):
    """Lemma 2 must hold for every zero-or-stronger detector class."""
    env, result = run(p)
    if env.detector.completeness.at_least(Completeness.ZERO):
        assert check_noise_lemma(result)


@given(params)
@INVARIANT_SETTINGS
def test_single_active_after_wakeup_stabilization(p):
    """Property 2 over the recorded CM trace (live processes only)."""
    _, result = run(p)
    for rec in result.records:
        if rec.round < p["cst"]:
            continue
        live_active = [
            pid
            for pid, advice in rec.cm_advice.items()
            if advice.value == "active"
            and (result.crash_rounds.get(pid) is None
                 or result.crash_rounds[pid] >= rec.round)
        ]
        assert len(live_active) <= 1


@given(params)
@INVARIANT_SETTINGS
def test_ecf_holds_from_r_cf(p):
    """Property 1 over the recorded transmission trace."""
    _, result = run(p)
    trace = result.transmission_trace()
    received = [entry.received for entry in trace]
    assert satisfies_ecf(trace, received, r_cf=p["cst"])


@given(params)
@INVARIANT_SETTINGS
def test_crashed_processes_stay_silent_forever(p):
    """The fail state is absorbing (Definition 1 / constraint 2)."""
    _, result = run(p)
    for pid, crash_round in result.crash_rounds.items():
        if crash_round is None:
            continue
        for rec in result.records:
            if rec.round > crash_round:
                assert rec.messages[pid] is None


@given(st.integers(0, 10**6), st.integers(2, 5))
@INVARIANT_SETTINGS
def test_alg3_runs_are_replayable(seed, n):
    """Same seeds => byte-identical executions (determinism audit)."""
    from repro.experiments.scenarios import nocf_environment

    def once():
        env = nocf_environment(n, loss=IIDLoss(0.5, seed=seed))
        assignment = {i: VALUES[(i * 3 + seed) % len(VALUES)]
                      for i in range(n)}
        return run_consensus(
            env, algorithm_3(VALUES), assignment, max_rounds=80
        )

    a, b = once(), once()
    assert a.decisions == b.decisions
    assert a.broadcast_count_sequence() == b.broadcast_count_sequence()
