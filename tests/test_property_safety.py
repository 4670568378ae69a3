"""Property-based safety tests: agreement and validity must survive ANY
legal adversary.

The paper's safety/liveness separation says the algorithms' safety may
not depend on the contention manager, the channel, or detector free
choices.  Hypothesis drives randomized-but-legal combinations of all
three and asserts the safety half of each theorem unconditionally.
"""

from maybe_hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary.crash import SeededRandomCrashes
from repro.adversary.loss import EventualCollisionFreedom, IIDLoss
from repro.algorithms.alg1 import algorithm_1
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.alg3 import algorithm_3
from repro.contention.services import WakeUpService
from repro.core.consensus import evaluate
from repro.core.environment import Environment
from repro.core.execution import run_consensus
from repro.detectors.classes import MAJ_OAC, ZERO_OAC
from repro.detectors.policy import SeededRandomPolicy
from repro.experiments.scenarios import nocf_environment

VALUES = list(range(8))

adversary_params = st.fixed_dictionaries({
    "seed": st.integers(0, 10**6),
    "loss_rate": st.floats(0.0, 0.9),
    "cst": st.integers(1, 20),
    "n": st.integers(2, 6),
    "p_spurious": st.floats(0.0, 0.8),
    "crash_p": st.floats(0.0, 0.15),
})

SAFETY_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_env(detector_class, p):
    detector = detector_class.make(
        r_acc=p["cst"],
        policy=SeededRandomPolicy(p["p_spurious"], seed=p["seed"] + 1),
    )
    return Environment(
        indices=tuple(range(p["n"])),
        detector=detector,
        contention=WakeUpService(stabilization_round=p["cst"]),
        loss=EventualCollisionFreedom(
            IIDLoss(p["loss_rate"], seed=p["seed"]), r_cf=p["cst"]
        ),
        crash=SeededRandomCrashes(
            p=p["crash_p"], max_crashes=p["n"] - 1,
            deadline=p["cst"] + 10, seed=p["seed"] + 2,
        ),
    )


def assignment_for(n, seed):
    return {i: VALUES[(i * 3 + seed) % len(VALUES)] for i in range(n)}


@given(adversary_params)
@SAFETY_SETTINGS
def test_alg1_safety_is_unconditional(p):
    env = build_env(MAJ_OAC, p)
    result = run_consensus(
        env, algorithm_1(), assignment_for(p["n"], p["seed"]),
        max_rounds=80,
    )
    report = evaluate(result)
    assert report.agreement, report.problems
    assert report.strong_validity, report.problems


@given(adversary_params)
@SAFETY_SETTINGS
def test_alg2_safety_is_unconditional(p):
    env = build_env(ZERO_OAC, p)
    result = run_consensus(
        env, algorithm_2(VALUES), assignment_for(p["n"], p["seed"]),
        max_rounds=80,
    )
    report = evaluate(result)
    assert report.agreement, report.problems
    assert report.strong_validity, report.problems


@given(st.integers(0, 10**6), st.floats(0.0, 1.0), st.integers(2, 6))
@SAFETY_SETTINGS
def test_alg3_safety_under_arbitrary_loss(seed, loss_rate, n):
    env = nocf_environment(
        n,
        loss=IIDLoss(loss_rate, seed=seed),
        crash=SeededRandomCrashes(
            p=0.05, max_crashes=n - 1, deadline=20, seed=seed + 1
        ),
    )
    result = run_consensus(
        env, algorithm_3(VALUES), assignment_for(n, seed), max_rounds=120
    )
    report = evaluate(result)
    assert report.agreement, report.problems
    assert report.strong_validity, report.problems


@given(adversary_params)
@SAFETY_SETTINGS
def test_alg1_terminates_once_hypotheses_hold(p):
    """Liveness: with no crashes after CST, Algorithm 1 decides soon
    after stabilization (the wake-up service may first need to cycle to a
    proposal-phase-aligned live process)."""
    env = build_env(MAJ_OAC, p)
    env.crash = SeededRandomCrashes(
        p=p["crash_p"], max_crashes=p["n"] - 1,
        deadline=max(1, p["cst"] - 1), seed=p["seed"] + 2,
    )
    horizon = p["cst"] + 2 * (p["n"] + 2)
    result = run_consensus(
        env, algorithm_1(), assignment_for(p["n"], p["seed"]),
        max_rounds=horizon,
    )
    report = evaluate(result)
    assert report.termination, (
        f"no decision by round {horizon} (cst={p['cst']}): "
        f"{report.problems}"
    )
