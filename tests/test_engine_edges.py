"""Edge-case coverage for the engine entry points and bookkeeping."""

import pytest

from repro.adversary.churn import ScheduledChurn
from repro.adversary.crash import CrashAdversary, CrashEvent
from repro.algorithms.alg1 import algorithm_1
from repro.contention.services import NoContentionManager
from repro.core.algorithm import Algorithm
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError
from repro.core.execution import ExecutionEngine, run_algorithm, run_consensus
from repro.core.process import ScriptedProcess
from repro.detectors.detector import perfect_detector
from repro.experiments.scenarios import maj_oac_environment


def simple_env(n=2):
    return Environment(
        indices=tuple(range(n)),
        detector=perfect_detector(),
        contention=NoContentionManager(),
    )


def test_run_consensus_requires_matching_assignment():
    env = maj_oac_environment(3)
    with pytest.raises(ConfigurationError):
        run_consensus(env, algorithm_1(), {0: "a"}, max_rounds=5)
    with pytest.raises(ConfigurationError):
        run_consensus(
            env, algorithm_1(), {0: "a", 1: "b", 2: "c", 9: "d"},
            max_rounds=5,
        )


def test_round_observer_sees_every_round():
    env = simple_env()
    seen = []
    algo = Algorithm(lambda i: ScriptedProcess(["m"] * 3), anonymous=False)
    env.reset()
    engine = ExecutionEngine(env, algo.spawn_all(env.indices))
    engine.run(3, until_all_decided=False, observer=seen.append)
    assert [rec.round for rec in seen] == [1, 2, 3]


def test_result_snapshot_is_stable_across_calls():
    env = simple_env()
    algo = Algorithm(lambda i: ScriptedProcess([]), anonymous=False)
    env.reset()
    engine = ExecutionEngine(env, algo.spawn_all(env.indices))
    engine.run(2, until_all_decided=False)
    first = engine.result()
    engine.run(1, until_all_decided=False)
    second = engine.result()
    assert first.rounds == 2
    assert second.rounds == 3


def test_run_algorithm_resets_environment_components():
    """Stateful components must be reset between runs for replayability."""
    env = maj_oac_environment(3, cst=2, seed=5)
    a = run_consensus(
        env, algorithm_1(), {0: 1, 1: 2, 2: 3}, max_rounds=20
    )
    b = run_consensus(
        env, algorithm_1(), {0: 1, 1: 2, 2: 3}, max_rounds=20
    )
    assert a.decisions == b.decisions
    assert a.broadcast_count_sequence() == b.broadcast_count_sequence()


def test_zero_round_run_produces_empty_result():
    env = simple_env()
    result = run_algorithm(
        env,
        Algorithm(lambda i: ScriptedProcess([]), anonymous=False),
        max_rounds=0,
    )
    assert result.rounds == 0
    assert result.correct_indices() == (0, 1)
    assert result.broadcast_count_sequence() == ()


class _BlindCrashes(CrashAdversary):
    """Names its scheduled pids whether or not they are live."""

    def __init__(self, schedule):
        self.schedule = schedule

    def crashes(self, round_index, live):
        return tuple(
            CrashEvent(pid) for pid in self.schedule.get(round_index, ())
        )


class _DecideOnSecondFullRound(ScriptedProcess):
    """Decides its pid the second time it hears all three processes."""

    def __init__(self, pid):
        super().__init__(["m"] * 30)
        self.pid = pid
        self.full_rounds = 0

    def transition(self, received, cd_advice, cm_advice):
        super().transition(received, cd_advice, cm_advice)
        self.full_rounds += len(received) == 3
        if self.full_rounds == 2:
            self.decide(self.pid)


def test_crash_naming_a_departed_pid_is_a_no_op():
    # pid 0 goes silent and leaves at round 2 and rejoins at round 4;
    # the crash named at round 3, while it is away, must not touch it.
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        crash=_BlindCrashes({3: [0]}),
        churn=ScheduledChurn.at(
            leaves={2: [0]}, joins={4: [0]}, after_send=False
        ),
    )
    result = run_algorithm(
        env, Algorithm(_DecideOnSecondFullRound, anonymous=False),
        max_rounds=30,
    )
    assert result.crash_rounds == {0: None, 1: None, 2: None}
    # pids 1 and 2 hear rounds 1 and 4 in full, and the fresh
    # incarnation of pid 0 rounds 4 and 5: the run stops at round 5,
    # once every correct process has decided.
    assert result.decisions == {0: 0, 1: 1, 2: 2}
    assert result.rounds == 5


def test_crash_naming_a_pid_outside_the_indices_is_a_no_op():
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        crash=_BlindCrashes({1: [99]}),
    )
    result = run_algorithm(
        env, Algorithm(lambda i: ScriptedProcess(["m"]), anonymous=False),
        max_rounds=2, until_all_decided=False,
    )
    for record in result.records:
        assert record.crashed_during == frozenset()
        assert set(record.cm_advice) == {0, 1, 2}
