"""Write-behind checkpoints: the store's batches, and a killed parent.

``SqliteSink`` queues every write and applies the queue in issue order,
in one transaction, when a read needs it, when the runner ends a pass,
on close, and when the queued cells' summed ``elapsed`` reaches
``CHECKPOINT_BATCH_SECONDS`` (or ``CHECKPOINT_BATCH_CELLS`` cells
queue).  This module holds the store to that contract:

* another connection sees only flushed batches; a batch flushes when it
  fills, a cell slower than the bound commits on its own, and instant
  cells flush every ``CHECKPOINT_BATCH_CELLS``;
* a queued delete applies before the same batch's inserts for the same
  seed; a transient error mid-batch rolls the whole batch back and the
  retry re-applies all of it; a batch that exhausts its retry budget
  leaves the queue, so ``close()`` does not retry it;
* a runner pass commits its last batch before ``resume()`` returns, in
  two store transactions for a fresh store; each grid is derived once
  per runner; ``report_table()`` decodes no payload;
* a campaign parent SIGKILLed in a child process before its first batch
  commit, between batches, or after its last loses only the cells in
  flight and the unflushed batch: the resumed report is byte-identical
  to an uninterrupted run, ``verify`` is clean, and no committed cell
  runs again.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.core.records import (
    CHECKPOINT_BATCH_CELLS,
    CHECKPOINT_BATCH_SECONDS,
    RoundSummary,
    SqliteSink,
)
from repro.experiments import harness
from repro.experiments.campaign import CampaignRunner
from repro.experiments.verify import verify_campaign_store
from repro.testing.faultline import FaultPlan, FaultRule

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)


def _rows(seed: int, rounds: int, bc: int = 2):
    return tuple((seed, r, bc, "[]", "{}") for r in range(1, rounds + 1))


def _record(sink: SqliteSink, i: int, elapsed, rounds: int = 3,
            bc: int = 2) -> None:
    sink.record_cell(
        tag=f"cell-{i}", seed=i, index=i, params_text="{}", status="done",
        payload_text="{}", elapsed=elapsed, rounds=_rows(i, rounds, bc),
    )


def _committed(db: str):
    """``(cell tags, round rows)`` a separate connection sees."""
    conn = sqlite3.connect(db)
    try:
        tags = [t for (t,) in conn.execute(
            "SELECT cell_tag FROM cells ORDER BY cell_index")]
        rows = conn.execute(
            "SELECT cell_seed, round, broadcast_count FROM round_summaries "
            "ORDER BY cell_seed, round").fetchall()
    finally:
        conn.close()
    return tags, rows


# ----------------------------------------------------------------------
# The store's batches
# ----------------------------------------------------------------------
def test_checkpoints_stay_queued_until_their_batch_fills(tmp_path):
    db = str(tmp_path / "c.db")
    step = CHECKPOINT_BATCH_SECONDS * 0.3
    with SqliteSink(db) as sink:
        sink.get_meta("base_seed")  # creates the store
        for i in range(3):
            _record(sink, i, elapsed=step)
            assert _committed(db) == ([], [])
        _record(sink, 3, elapsed=step)  # 4 x 0.3 of the bound: flush
        tags, rows = _committed(db)
        assert tags == [f"cell-{i}" for i in range(4)] and len(rows) == 12
        _record(sink, 4, elapsed=step)
        assert len(_committed(db)[0]) == 4
        # A read through the sink flushes first: it reads its writes.
        assert len(sink.get_cells()) == 5
        assert len(_committed(db)[0]) == 5


def test_a_cell_slower_than_the_bound_commits_on_its_own(tmp_path):
    db = str(tmp_path / "c.db")
    with SqliteSink(db) as sink:
        sink.get_meta("base_seed")
        _record(sink, 0, elapsed=CHECKPOINT_BATCH_SECONDS * 2.5)
        assert _committed(db)[0] == ["cell-0"]


def test_instant_cells_flush_every_batch_cell_cap(tmp_path):
    db = str(tmp_path / "c.db")
    with SqliteSink(db) as sink:
        sink.get_meta("base_seed")
        for i in range(CHECKPOINT_BATCH_CELLS - 1):
            _record(sink, i, elapsed=None, rounds=0)
        assert _committed(db)[0] == []
        _record(sink, CHECKPOINT_BATCH_CELLS - 1, elapsed=0.0, rounds=0)
        assert len(_committed(db)[0]) == CHECKPOINT_BATCH_CELLS


def test_a_queued_delete_applies_before_the_same_batchs_inserts(tmp_path):
    """A re-run cell's hand-out clears its old rows and its checkpoint
    brings new ones, in one batch: only the new rows survive."""
    db = str(tmp_path / "c.db")
    with SqliteSink(db) as sink:
        _record(sink, 5, elapsed=0.0, rounds=6, bc=9)
        sink.flush()
        sink.clear_rounds(5)
        _record(sink, 5, elapsed=0.0, rounds=2, bc=1)
        assert _committed(db)[1] == [(5, r, 9) for r in range(1, 7)]
        sink.flush()
    assert _committed(db) == (["cell-5"], [(5, 1, 1), (5, 2, 1)])


class _LockedOnce:
    """A connection whose ``fail_at``-th ``executemany`` raises a
    transient lock error once, after earlier statements ran."""

    def __init__(self, conn: sqlite3.Connection, fail_at: int) -> None:
        self._conn = conn
        self.fail_at = fail_at
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def executemany(self, sql, rows):
        self.calls += 1
        if self.calls == self.fail_at:
            raise sqlite3.OperationalError("database is locked")
        return self._conn.executemany(sql, rows)


def test_a_transient_error_mid_batch_retries_the_whole_batch(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(time, "sleep", lambda _s: None)
    # Armed on another site, so every consultation ticks the clock.
    plan = FaultPlan([FaultRule(site="merge", match="none",
                                action={"kind": "error"})])
    db = str(tmp_path / "c.db")
    sink = SqliteSink(db, fault_plan=plan)
    flaky = _LockedOnce(sink._connect(), fail_at=5)
    sink._conn = flaky
    for i in range(3):
        sink.clear_rounds(i)
        _record(sink, i, elapsed=0.0, rounds=4)
    sink.flush()
    # Three cells, each a delete, a rounds insert and a cell insert: the
    # lock hit the fifth statement, and the retry ran all nine again.
    assert flaky.calls == 4 + 1 + 9
    assert plan.clock.count("sqlite", "clear-rounds") == 6
    assert plan.clock.count("sqlite", "record-cell") == 6
    sink._conn = flaky._conn
    sink.close()
    tags, rows = _committed(db)
    assert tags == ["cell-0", "cell-1", "cell-2"]
    assert rows == [(i, r, 2) for i in range(3) for r in range(1, 5)]


def test_an_exhausted_batch_leaves_the_queue(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda _s: None)
    plan = FaultPlan([FaultRule(
        site="sqlite", match="record-cell",
        count_in=tuple(range(1, SqliteSink.MAX_SQLITE_ATTEMPTS + 1)),
        action={"kind": "operational-error", "flavor": "busy"},
    )])
    db = str(tmp_path / "c.db")
    sink = SqliteSink(db, fault_plan=plan)
    sink.get_meta("base_seed")
    _record(sink, 0, elapsed=0.0)
    with pytest.raises(ConfigurationError, match="still failing after"):
        sink.flush()
    sink.close()  # nothing left to retry
    assert plan.clock.count("sqlite", "record-cell") \
        == SqliteSink.MAX_SQLITE_ATTEMPTS
    assert _committed(db) == ([], [])


def test_disconnect_drops_the_connection_not_the_queue(tmp_path):
    db = str(tmp_path / "c.db")
    with SqliteSink(db) as sink:
        sink.get_meta("base_seed")
        _record(sink, 0, elapsed=0.0)
        sink.disconnect()
        assert sink._conn is None
        sink.flush()
        assert _committed(db)[0] == ["cell-0"]


# ----------------------------------------------------------------------
# The runner's passes
# ----------------------------------------------------------------------
def _trivial_cell(params, seed):
    return {"seed": seed, "trial": params["trial"]}


def test_a_pass_commits_its_last_batch_before_resume_returns(
    tmp_path, monkeypatch
):
    """A fresh store takes two transactions for a pass and both reports
    (the identity stamp, then one batch), and another connection sees
    every cell as soon as ``resume`` returns."""
    transactions = []
    guarded = SqliteSink._guarded

    def counted(sink, ops, fn):
        transactions.append(list(ops))
        return guarded(sink, ops, fn)

    monkeypatch.setattr(SqliteSink, "_guarded", counted)
    db = str(tmp_path / "c.db")
    with CampaignRunner(_trivial_cell, db_path=db, in_process=True) as runner:
        runner.resume(trial=range(8))
        assert len(_committed(db)[0]) == 8
        runner.report(trial=range(8))
        runner.report_table(trial=range(8))
    assert transactions == [
        ["set-meta"] * 3, ["clear-rounds", "record-cell"] * 8,
    ]


def test_each_grid_is_derived_once_per_runner(tmp_path, monkeypatch):
    derived = []
    derive = harness.cell_seed

    def counting(base_seed, **params):
        derived.append(params["trial"])
        return derive(base_seed, **params)

    monkeypatch.setattr(harness, "cell_seed", counting)
    db = str(tmp_path / "c.db")
    with CampaignRunner(_trivial_cell, db_path=db, in_process=True) as runner:
        first = runner.cells(trial=range(4))
        first.clear()  # a copy: the runner's grid is untouched
        runner.resume(trial=range(4))
        runner.report(trial=[0, 1, 2, 3])
        runner.report_table(trial=range(4))
        assert len(runner.cells(trial=range(4))) == 4
        assert derived == [0, 1, 2, 3]
        runner.cells(trial=range(5))
        assert derived == [0, 1, 2, 3, 0, 1, 2, 3, 4]


def test_report_table_decodes_no_payload(tmp_path):
    db = str(tmp_path / "c.db")
    with CampaignRunner(_trivial_cell, db_path=db, in_process=True) as runner:
        runner.resume(trial=range(3))
        conn = sqlite3.connect(db)
        with conn:
            conn.execute("UPDATE cells SET payload = '{torn' "
                         "WHERE cell_index = 1")
        conn.close()
        with pytest.raises(ConfigurationError, match="corrupt payload"):
            runner.report(trial=range(3))
        assert runner.report_table(trial=range(3)).endswith(
            "3 cells: 3 done, 0 failed, 0 timed_out; 3 attempts")


# ----------------------------------------------------------------------
# A campaign parent SIGKILLed mid-pass, in a child process
# ----------------------------------------------------------------------
#: Each padded cell sleeps this long, so every batch holds at most
#: ``BATCH`` cells and a 10-cell pass flushes five or more times.
PAD = 0.06
BATCH = int(CHECKPOINT_BATCH_SECONDS // PAD) + 1
WIDTH = 2
TRIALS = 10


def _padded_cell(params, seed):
    """Logs its start, streams three rounds, sleeps ``PAD``."""
    with open(params["log"], "a") as fh:
        fh.write(f"{params['trial']}\n")
    with SqliteSink(params["sqlite_db"], cell_seed=seed) as sink:
        for r in range(1, 4):
            sink(RoundSummary(round=r, broadcast_count=params["trial"],
                              crashed_during=frozenset(),
                              decided_during={}))
    time.sleep(PAD)
    return {"seed": seed, "trial": params["trial"]}


def _runner(db: str, log: str, **kwargs) -> CampaignRunner:
    return CampaignRunner(
        _padded_cell, db_path=db, base_seed=5,
        extra_params={"log": log, "sqlite_db": db}, **kwargs,
    )


CHILD = """
import json, os, signal, sys
sys.path[:0] = [sys.argv[4], sys.argv[5]]
from repro.testing.faultline import FaultPlan
from test_checkpoint_batches import TRIALS, WIDTH, _runner
db, log, plan = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
runner = _runner(db, log, processes=WIDTH,
                 fault_plan=FaultPlan.from_spec(plan) if plan else None)
runner.resume(trial=range(TRIALS))
os.kill(os.getpid(), signal.SIGKILL)
"""


def _sigkill_at(count: int):
    return {"seed": 0, "rules": [{
        "site": "sqlite", "match": "record-cell", "count_in": [count],
        "action": {"kind": "sigkill"},
    }]}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    path = tmp_path_factory.mktemp("uninterrupted")
    db, log = str(path / "c.db"), str(path / "log")
    with _runner(db, log, in_process=True) as runner:
        runner.resume(trial=range(TRIALS))
        return runner.report(trial=range(TRIALS))


def _trials(log: str):
    if not os.path.exists(log):
        return []
    with open(log) as fh:
        return [int(line) for line in fh.read().split()]


@pytest.mark.parametrize("kill_point,plan", [
    ("before-first-batch", _sigkill_at(1)),
    ("between-batches", _sigkill_at(5)),
    ("after-last-batch", None),
])
def test_a_killed_parent_loses_only_its_unflushed_cells(
    tmp_path, uninterrupted, kill_point, plan
):
    db, log = str(tmp_path / "c.db"), str(tmp_path / "log")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, db, log, json.dumps(plan),
         os.path.join(REPO_ROOT, "src"), TESTS_DIR],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # Rows and checkpoints committed together: the corpse is clean.
    assert verify_campaign_store(db)["ok"]
    started = set(_trials(log))
    # Each tag is the cell's coordinate text, here "trial=<n>".
    committed = {int(tag.split("=")[1]) for tag in _committed(db)[0]}
    if kill_point == "before-first-batch":
        assert committed == set()
    elif kill_point == "between-batches":
        assert 0 < len(committed) < TRIALS
    else:
        assert committed == set(range(TRIALS))
    # The kill bound: what was lost is the batch being flushed (at most
    # BATCH padded cells) plus the cells still in flight.
    assert committed <= started
    assert len(started - committed) <= BATCH + WIDTH
    before = len(_trials(log))
    with _runner(db, log, in_process=True) as runner:
        runner.resume(trial=range(TRIALS))
        report = runner.report(trial=range(TRIALS))
    rerun = _trials(log)[before:]
    assert sorted(rerun) == sorted(set(range(TRIALS)) - committed)
    assert report == uninterrupted
    assert verify_campaign_store(db)["ok"]
