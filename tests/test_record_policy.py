"""Tests for record policies, the fast-path engine, and grid cells.

Covers this PR's contract:

* ``FULL`` vs ``SUMMARY`` vs ``NONE`` produce identical decisions,
  decision rounds, and crash rounds on the same seeds (the policy changes
  what is retained, never what happens);
* summary mode retains per-round aggregates and refuses full-trace
  queries; NONE retains nothing per round;
* an all-crashed run is flagged, not reported as vacuous success;
* the backoff manager only locks a leader the channel confirmed;
* ``Multiset.from_counts`` validates integer multiplicities;
* grids enumerate row-major with deterministic per-cell seeds, and a
  one-pass grid (``run_grid``) is worker-placement-independent and
  raises one error naming every cell that failed.
"""

import pytest

from repro.adversary.crash import ScheduledCrashes
from repro.adversary.loss import IIDLoss
from repro.algorithms.alg2 import algorithm_2
from repro.algorithms.alg2 import termination_bound as alg2_bound
from repro.contention.backoff import BackoffContentionManager
from repro.contention.services import NoContentionManager
from repro.core.algorithm import Algorithm
from repro.core.consensus import evaluate
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError
from repro.core.execution import ExecutionEngine, run_consensus
from repro.core.multiset import Multiset
from repro.core.process import ScriptedProcess
from repro.core.records import RecordPolicy, RoundRecord, RoundSummary
from repro.core.types import ACTIVE
from repro.detectors.classes import ZERO_AC
from repro.detectors.detector import perfect_detector
from repro.experiments.campaign import CampaignRunner, run_grid
from repro.experiments.harness import (
    cell_seed,
    consensus_sweep_cell,
    iter_cells,
)
from repro.experiments.scenarios import zero_oac_environment


def _alg2_run(policy, n=5, seed=3, vc=16, crash=None):
    values = list(range(vc))
    env = zero_oac_environment(n, cst=3, seed=seed, crash=crash)
    assignment = {i: values[(i * 7) % vc] for i in range(n)}
    bound = alg2_bound(3, vc)
    return run_consensus(
        env, algorithm_2(values), assignment, max_rounds=bound + 20,
        record_policy=policy,
    )


# ----------------------------------------------------------------------
# FULL vs SUMMARY vs NONE equivalence
# ----------------------------------------------------------------------
# The E11 throughput workloads, run to completion under each policy.
@pytest.mark.parametrize("policy", list(RecordPolicy))
@pytest.mark.parametrize("n", [4, 16, 64])
def test_scripted_fleet_runs_every_round_under_iid_loss(policy, n):
    env = Environment(
        indices=tuple(range(n)),
        detector=ZERO_AC.make(),
        contention=NoContentionManager(),
        loss=IIDLoss(0.3, seed=0),
    )
    env.reset()
    fleet = Algorithm(
        lambda i: ScriptedProcess(["m"] * 200), anonymous=False
    )
    engine = ExecutionEngine(
        env, fleet.spawn_all(env.indices), record_policy=policy
    )
    engine.run(200, until_all_decided=False)
    assert engine.round == 200


@pytest.mark.parametrize("n, policy", [
    (4, RecordPolicy.FULL), (16, RecordPolicy.FULL),
    (16, RecordPolicy.SUMMARY),
])
def test_alg2_decides_over_256_values_within_100_rounds(n, policy):
    values = list(range(256))
    result = run_consensus(
        zero_oac_environment(n, cst=5, seed=1), algorithm_2(values),
        {i: values[(i * 31) % 256] for i in range(n)}, max_rounds=100,
        record_policy=policy,
    )
    assert result.all_correct_decided()


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n", [3, 5, 8])
def test_policies_produce_identical_outcomes(seed, n):
    full = _alg2_run(RecordPolicy.FULL, n=n, seed=seed)
    summary = _alg2_run(RecordPolicy.SUMMARY, n=n, seed=seed)
    none = _alg2_run(RecordPolicy.NONE, n=n, seed=seed)
    for other in (summary, none):
        assert other.decisions == full.decisions
        assert other.decision_rounds == full.decision_rounds
        assert other.crash_rounds == full.crash_rounds
        assert other.rounds == full.rounds


def test_policies_identical_under_crashes():
    crash = ScheduledCrashes.at({2: [0], 4: [1]}, after_send=False)
    full = _alg2_run(RecordPolicy.FULL, crash=crash)
    crash = ScheduledCrashes.at({2: [0], 4: [1]}, after_send=False)
    summary = _alg2_run(RecordPolicy.SUMMARY, crash=crash)
    assert summary.decisions == full.decisions
    assert summary.decision_rounds == full.decision_rounds
    assert summary.crash_rounds == full.crash_rounds


def test_summary_mode_streams_aggregates():
    full = _alg2_run(RecordPolicy.FULL)
    summary = _alg2_run(RecordPolicy.SUMMARY)
    assert len(summary.summaries) == summary.rounds
    assert (
        summary.broadcast_count_sequence()
        == full.broadcast_count_sequence()
    )
    for rec, agg in zip(full.records, summary.summaries):
        assert agg.round == rec.round
        assert agg.broadcast_count == rec.broadcast_count
        assert agg.crashed_during == rec.crashed_during
        assert dict(agg.decided_during) == dict(rec.decided_during)


def test_non_full_results_refuse_trace_queries():
    summary = _alg2_run(RecordPolicy.SUMMARY)
    none = _alg2_run(RecordPolicy.NONE)
    for result in (summary, none):
        with pytest.raises(ConfigurationError):
            result.records
        with pytest.raises(ConfigurationError):
            result.transmission_trace()
        with pytest.raises(ConfigurationError):
            result.cd_trace()
        with pytest.raises(ConfigurationError):
            result.cm_trace()
        with pytest.raises(ConfigurationError):
            result.view(0)
    assert not none.summaries
    with pytest.raises(ConfigurationError):
        none.broadcast_count_sequence()


def test_step_returns_policy_matched_artifacts():
    def make_engine(policy):
        env = Environment(
            indices=(0, 1),
            detector=perfect_detector(),
            contention=NoContentionManager(),
            loss=IIDLoss(0.2, seed=0),
        )
        env.reset()
        algo = Algorithm(lambda i: ScriptedProcess(["m"]), anonymous=False)
        return ExecutionEngine(
            env, algo.spawn_all(env.indices), record_policy=policy
        )

    assert isinstance(make_engine(RecordPolicy.FULL).step(), RoundRecord)
    assert isinstance(make_engine(RecordPolicy.SUMMARY).step(), RoundSummary)
    assert isinstance(make_engine(RecordPolicy.NONE).step(), RoundSummary)


def test_observer_sees_summaries_in_streaming_mode():
    seen = []
    env = zero_oac_environment(3, cst=2, seed=1)
    env.reset()
    values = list(range(4))
    processes = algorithm_2(values).instantiate({i: values[i] for i in range(3)})
    engine = ExecutionEngine(
        env, processes, record_policy=RecordPolicy.NONE
    )
    engine.run(30, observer=seen.append)
    assert seen
    assert all(isinstance(s, RoundSummary) for s in seen)


# ----------------------------------------------------------------------
# All-crashed runs are flagged, not vacuous successes
# ----------------------------------------------------------------------
def test_all_crashed_run_is_not_vacuous_success():
    env = Environment(
        indices=(0, 1, 2),
        detector=perfect_detector(),
        contention=NoContentionManager(),
        crash=ScheduledCrashes.at({1: [0, 1, 2]}, after_send=False),
    )
    env.reset()
    algo = Algorithm(lambda i: ScriptedProcess(["m"] * 10), anonymous=False)
    engine = ExecutionEngine(
        env, algo.spawn_all(env.indices),
        initial_values={0: "a", 1: "b", 2: "a"},
    )
    result = engine.run(10, until_all_decided=True)
    assert result.no_correct_processes
    assert not result.all_correct_decided()
    assert result.correct_indices() == ()
    # The consensus checker must not call this terminated/solved either.
    report = evaluate(result)
    assert not report.termination
    assert not report.solved
    assert any("no correct processes" in p for p in report.problems)


def test_partial_crash_still_reports_success():
    env = zero_oac_environment(
        4, cst=2, seed=0,
        crash=ScheduledCrashes.at({2: [0]}, after_send=False),
    )
    values = list(range(4))
    result = run_consensus(
        env, algorithm_2(values), {i: values[i] for i in range(4)},
        max_rounds=60,
    )
    assert not result.no_correct_processes
    assert result.all_correct_decided()


# ----------------------------------------------------------------------
# Backoff lock-in is channel-confirmed
# ----------------------------------------------------------------------
def _advance_to_single_active(cm, indices, max_rounds=500):
    """Drive the manager until a round advises exactly one active."""
    for r in range(1, max_rounds):
        advice = cm.advise(r, indices)
        active = [i for i, a in advice.items() if a is ACTIVE]
        if len(active) == 1:
            return r, active[0]
        cm.observe(r, len(active))
    raise AssertionError("never reached a single-active round")


def test_backoff_no_lock_in_when_candidate_crashes_before_send():
    cm = BackoffContentionManager(seed=0)
    indices = (0, 1, 2, 3)
    r, candidate = _advance_to_single_active(cm, indices)
    # The sole active process crashes before send: the channel is silent.
    cm.observe(r, 0)
    assert cm.leader is None
    assert cm.stabilized_at is None
    # Contention stays open; the dead candidate can be excluded later.
    survivors = tuple(i for i in indices if i != candidate)
    advice = cm.advise(r + 1, survivors)
    assert set(advice) == set(survivors)


def test_backoff_locks_in_only_on_confirmed_solo_broadcast():
    cm = BackoffContentionManager(seed=0)
    indices = (0, 1, 2, 3)
    r, candidate = _advance_to_single_active(cm, indices)
    cm.observe(r, 1)   # the solo broadcast was heard
    assert cm.leader == candidate
    assert cm.stabilized_at == r
    advice = cm.advise(r + 1, indices)
    assert [i for i, a in advice.items() if a is ACTIVE] == [candidate]


def test_backoff_no_lock_in_when_single_broadcast_ambiguous():
    cm = BackoffContentionManager(seed=1)
    indices = (0, 1, 2)
    advice = cm.advise(1, indices)
    active = [i for i, a in advice.items() if a is ACTIVE]
    if len(active) < 2:
        pytest.skip("seed did not open with multiple actives")
    # Two advised active but only one heard (the other crashed before
    # send): the manager cannot tell who broadcast, so nobody locks.
    cm.observe(1, 1)
    assert cm.leader is None


# ----------------------------------------------------------------------
# Multiset.from_counts validation
# ----------------------------------------------------------------------
def test_from_counts_rejects_float_multiplicities():
    with pytest.raises(TypeError):
        Multiset.from_counts({"a": 2.0})


def test_from_counts_rejects_bool_and_str_multiplicities():
    with pytest.raises(TypeError):
        Multiset.from_counts({"a": True})
    with pytest.raises(TypeError):
        Multiset.from_counts({"a": "2"})


def test_from_counts_still_accepts_ints_and_drops_zeros():
    m = Multiset.from_counts({"a": 0, "b": 2, "c": 1})
    assert len(m) == 3
    assert "a" not in m
    assert m == Multiset(["b", "b", "c"])
    assert hash(m) == hash(Multiset(["c", "b", "b"]))


def test_operator_results_stay_canonical():
    a = Multiset(["x", "x", "y"])
    b = Multiset(["x", "y"])
    assert (a - b) == Multiset(["x"])
    assert (a + b) == Multiset(["x", "x", "x", "y", "y"])
    assert len(a + b) == 5
    assert hash(a - b) == hash(Multiset(["x"]))


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
def test_sweep_grid_is_row_major_product():
    cells = list(iter_cells(0, a=[1, 2], b=["x", "y"]))
    assert [c.as_dict() for c in cells] == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]
    assert [c.index for c in cells] == [0, 1, 2, 3]


def test_cell_seed_is_deterministic_and_coordinate_sensitive():
    s1 = cell_seed(0, n=4, detector="0-OAC")
    s2 = cell_seed(0, detector="0-OAC", n=4)   # order-insensitive
    s3 = cell_seed(0, n=8, detector="0-OAC")
    s4 = cell_seed(1, n=4, detector="0-OAC")
    assert s1 == s2
    assert len({s1, s3, s4}) == 3


def test_cell_seed_rejects_address_based_reprs():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        cell_seed(0, detector=Opaque())


def _exploding_cell(params, seed):
    raise RuntimeError(f"cell bug at {params}")


def _attribute_bug_cell(params, seed):
    return params.missing_attribute   # dicts have no attributes


def test_sweep_cell_exceptions_propagate():
    """A one-pass grid (E3, E17) raises once every cell has run, naming
    each failed cell's tag, status and error."""
    with pytest.raises(RuntimeError) as info:
        run_grid(_exploding_cell, processes=2, n=[1, 2])
    message = str(info.value)
    assert "2 of 2 grid cells did not finish" in message
    assert "n=1 failed: RuntimeError(\"cell bug at {'n': 1}\")" in message
    assert "n=2 failed" in message
    # An AttributeError raised *by a cell* is reported like any other —
    # never mistaken for a pickling failure and silently re-run serially.
    with pytest.raises(RuntimeError, match="n=1 failed: AttributeError"):
        run_grid(_attribute_bug_cell, processes=2, n=[1, 2])


def test_sweep_unpicklable_cell_fn_falls_back_serially(tmp_path):
    def local_cell(params, seed):
        return {"n": params["n"]}

    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with CampaignRunner(
            local_cell, str(tmp_path / "c.db"), processes=2
        ) as runner:
            outcomes = runner.resume(n=[1, 2])
    assert [o.payload["n"] for o in outcomes] == [1, 2]
    assert runner.last_dispatch_stats["in_process"]
    assert any("not picklable" in str(w.message) for w in caught)


def test_sweep_serial_and_parallel_agree():
    axes = dict(n=[3, 4], trial=[0, 1])
    serial = run_grid(consensus_sweep_cell, processes=1, **axes)
    parallel = run_grid(consensus_sweep_cell, processes=2, **axes)
    assert [o.params for o in serial] == [o.params for o in parallel]
    assert [o.payload for o in serial] == [o.payload for o in parallel]
    assert all(o.payload["agreement"] for o in serial)


def test_consensus_sweep_cell_policies_agree():
    params = {"n": 4, "values": 8, "cst": 2}
    summary = consensus_sweep_cell(dict(params, record_policy="summary"), 11)
    full = consensus_sweep_cell(dict(params, record_policy="full"), 11)
    assert summary["decisions"] == full["decisions"]
    assert summary["decision_rounds"] == full["decision_rounds"]
    assert summary["rounds"] == full["rounds"]
    assert summary["solved"]
