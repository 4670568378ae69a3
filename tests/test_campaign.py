"""The campaign layer: sqlite round/cell store and the resumable runner.

Covers the PR's durability contract end to end:

* ``SqliteSink`` round-trips round summaries (write, reopen, read back
  ordered by round) and survives two processes appending to one
  database (WAL mode);
* a standalone sink writes its rounds in one transaction when it
  closes, surviving a transient error at flush and a failed flush
  before; inside a campaign the parent is the store's only writer —
  workers never connect, a cell's rows commit with its checkpoint (a
  failed checkpoint leaves no orphan rows), pooled and in-process
  stores hold identical rows, a store recreated in place gets the next
  run's rows, and no sqlite connection is open when a worker forks;
* ``SqliteSink`` opens lazily, so a cell that raises before round 1
  leaves no rows behind (the ``consensus_sweep_cell`` exception path);
* ``CampaignRunner.resume`` is idempotent — the parity suite interrupts
  after any prefix under every dispatcher configuration ({1, 4} workers
  x {no timeout, timeout}) and each resumed report is byte-identical to
  the in-process serial reference;
* per-cell timeouts checkpoint ``timed_out`` instead of killing the
  grid — enforced by the unified dispatcher pool at any width (overrun
  workers are replaced, SIGTERM-ignoring cells cannot hang the grid, a
  worker dying mid-cell checkpoints ``failed``, and a 4-wide pool beats
  a one-worker pool by >= 2x on sleepy grids);
* worker reuse is universal: a grid larger than the pool runs on at
  most ``processes`` distinct worker pids, with or without a timeout,
  and back-to-back resumes reuse the parked pool;
* teardown is deterministic: every test asserts no leaked child
  processes afterwards (an autouse fixture), and ``close()`` — not GC
  timing — reaps the pool;
* a killed or failed attempt leaves zero rows in ``round_summaries``;
* ``failed`` cells are retried on resume only within the
  ``max_retries`` budget (``attempts`` is migrated into pre-existing
  stores in place); a store created under a different base_seed is
  rejected loudly.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import re
import signal
import sqlite3
import sys
import time

import pytest

from repro.adversary.loss import RNG_BACKEND
from repro.core.errors import ConfigurationError
from repro.core.records import RoundSummary, SqliteSink
from repro.experiments.campaign import CampaignRunner, cell_tag, run_family
from repro.experiments.churn import E19, churn_sweep_cell
from repro.experiments.dispatch import CampaignDispatcher
from repro.experiments.harness import consensus_sweep_cell, iter_cells
from repro.experiments.matrix import E18
from repro.testing import faultline


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Satellite invariant: no campaign test may leak a child process.

    Autouse, so it is set up before (and finalized after) the
    ``make_runner`` teardown — by the time this assertion runs, every
    runner the test created has been closed.
    """
    yield
    children = multiprocessing.active_children()
    assert children == [], f"leaked worker processes: {children}"


@pytest.fixture
def make_runner():
    """Factory for runners that are always closed at teardown."""
    runners = []

    def make(*args, **kwargs):
        runner = CampaignRunner(*args, **kwargs)
        runners.append(runner)
        return runner

    yield make
    for runner in runners:
        runner.close()


def _summary(r: int, bc: int = 2, crashed=(), decided=None) -> RoundSummary:
    return RoundSummary(
        round=r,
        broadcast_count=bc,
        crashed_during=frozenset(crashed),
        decided_during=dict(decided or {}),
    )


# ----------------------------------------------------------------------
# SqliteSink: the observer protocol and the store
# ----------------------------------------------------------------------
def test_sqlite_sink_roundtrip_ordered_by_round(tmp_path):
    db = str(tmp_path / "campaign.db")
    with SqliteSink(db, cell_seed=11) as sink:
        # Out-of-order writes must still read back ordered by round.
        for r in (3, 1, 2):
            sink(_summary(r, bc=r, crashed={r}, decided={0: r * 10}))
        assert sink.rounds_written == 3
    with SqliteSink(db) as sink:
        rows = sink.read_summaries(cell_seed=11)
    assert [s.round for s in rows] == [1, 2, 3]
    assert [s.broadcast_count for s in rows] == [1, 2, 3]
    assert rows[0].crashed_during == frozenset({1})
    assert rows[2].decided_during == {0: 30}
    # A different cell's keyspace is empty.
    with SqliteSink(db) as sink:
        assert sink.read_summaries(cell_seed=999) == []


def test_sqlite_sink_write_is_idempotent_per_round(tmp_path):
    db = str(tmp_path / "campaign.db")
    with SqliteSink(db, cell_seed=5) as sink:
        sink(_summary(1, bc=1))
        sink(_summary(1, bc=4))  # replayed round overwrites, no dup key
        assert [s.broadcast_count for s in sink.read_summaries()] == [4]
        sink(_summary(2))
        sink.clear_rounds(5)  # clears the still-buffered round 2 too
    with SqliteSink(db) as sink:
        assert sink.read_summaries(cell_seed=5) == []


def test_sqlite_sink_streams_from_engine(tmp_path):
    db = str(tmp_path / "campaign.db")
    payload = consensus_sweep_cell(
        {"n": 3, "values": 4, "record_policy": "none", "sqlite_db": db},
        seed=77,
    )
    with SqliteSink(db) as sink:
        rows = sink.read_summaries(cell_seed=77)
    assert len(rows) == payload["rounds"]
    assert [s.round for s in rows] == list(range(1, payload["rounds"] + 1))


def test_sqlite_sink_rejects_after_close_and_without_seed(tmp_path):
    db = str(tmp_path / "campaign.db")
    sink = SqliteSink(db, cell_seed=1)
    sink.close()
    with pytest.raises(ConfigurationError):
        sink(_summary(1))
    storeless = SqliteSink(db)  # store-only: observing needs a cell_seed
    with pytest.raises(ConfigurationError):
        storeless(_summary(1))
    storeless.close()


def _append_rounds(db: str, cell_seed: int, rounds: int) -> None:
    """Two-process append worker (module-level so it forks/spawns)."""
    with SqliteSink(db, cell_seed=cell_seed) as sink:
        for r in range(1, rounds + 1):
            sink(_summary(r, bc=cell_seed))


def test_sqlite_sink_concurrent_two_process_append(tmp_path):
    db = str(tmp_path / "campaign.db")
    # Create the schema up front so both writers race only on appends —
    # and close the connection before forking (an inherited sqlite
    # descriptor can break the writers' WAL locking).
    with SqliteSink(db, cell_seed=0) as schema:
        schema._connect()
    procs = [
        multiprocessing.Process(target=_append_rounds, args=(db, seed, 40))
        for seed in (101, 202)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
    assert all(p.exitcode == 0 for p in procs)
    with SqliteSink(db) as sink:
        for seed in (101, 202):
            rows = sink.read_summaries(cell_seed=seed)
            assert [s.round for s in rows] == list(range(1, 41))
            assert all(s.broadcast_count == seed for s in rows)


def test_cell_writes_its_rounds_in_one_store_visit(tmp_path):
    db = str(tmp_path / "campaign.db")
    # Armed, so every sqlite visit ticks its clock, but never fires.
    plan = faultline.FaultPlan([
        faultline.FaultRule(site="merge", match="no-such-shard",
                            action={"kind": "error"}),
    ])
    previous = faultline.installed()
    faultline.install(plan)
    try:
        payload = consensus_sweep_cell(
            {"n": 4, "values": 8, "sqlite_db": db}, seed=77
        )
    finally:
        faultline.install(previous)
    assert payload["rounds"] > 1
    assert plan.clock.count("sqlite", "write-round") == 1
    with SqliteSink(db) as sink:
        assert len(sink.read_summaries(cell_seed=77)) == payload["rounds"]


def test_transient_error_at_flush_still_lands_every_round(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(time, "sleep", lambda _s: None)
    plan = faultline.FaultPlan([
        faultline.FaultRule(
            site="sqlite", match="write-round", count_in=(1,),
            action={"kind": "operational-error", "flavor": "locked"},
        ),
    ])
    db = str(tmp_path / "campaign.db")
    with SqliteSink(db, cell_seed=5, fault_plan=plan) as sink:
        for r in range(1, 8):
            sink(_summary(r))
    assert [(e["key"], e["count"]) for e in plan.log] == [("write-round", 1)]
    with SqliteSink(db) as sink:
        assert [s.round for s in sink.read_summaries(cell_seed=5)] == list(
            range(1, 8)
        )


class _CommitFails:
    """A connection whose ``commit`` raises after the rows went in."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def commit(self) -> None:
        raise sqlite3.OperationalError("disk I/O error")


def test_failed_flush_never_leaks_into_the_next_cell(tmp_path):
    """A standalone sink's own connection is rolled back when a flush
    fails, so the next commit on it cannot publish the failed flush's
    half-written rows."""
    db = str(tmp_path / "campaign.db")
    sink = SqliteSink(db, cell_seed=1)
    conn = sink._connect()
    sink._conn = _CommitFails(conn)
    for r in range(1, 4):
        sink(_summary(r))
    with pytest.raises(sqlite3.OperationalError, match="disk I/O"):
        sink.flush()
    sink._conn = conn
    sink(_summary(4))
    sink.close()
    with SqliteSink(db) as reader:
        assert [s.round for s in reader.read_summaries(cell_seed=1)] == [4]


# ----------------------------------------------------------------------
# Lazy sinks: the consensus_sweep_cell exception path
# ----------------------------------------------------------------------
def test_sweep_cell_failure_before_round_one_leaves_no_sink_file(
    tmp_path, monkeypatch
):
    import repro.core.execution as execution

    def boom(*args, **kwargs):
        raise RuntimeError("engine refused to start")

    monkeypatch.setattr(execution, "run_consensus", boom)
    db = str(tmp_path / "campaign.db")
    with pytest.raises(RuntimeError, match="refused to start"):
        consensus_sweep_cell(
            {"n": 3, "values": 4, "sqlite_db": db},
            seed=9,
        )
    assert not db_exists_with_rows(db)


def db_exists_with_rows(db: str) -> bool:
    if not os.path.exists(db):
        return False
    with SqliteSink(db) as sink:
        return bool(sink.read_summaries(cell_seed=9))


# ----------------------------------------------------------------------
# CampaignRunner: resume determinism
# ----------------------------------------------------------------------
AXES = dict(
    n=[3, 4], detector=["0-OAC"], loss_rate=[0.1, 0.3], trial=[0, 1],
    values=[8], record_policy=["summary"],
)


def _serial_runner(db: str, base_seed: int = 3, **kwargs) -> CampaignRunner:
    """The in-process serial reference every other configuration must
    match byte-for-byte (``in_process=True`` spawns no workers)."""
    return CampaignRunner(
        consensus_sweep_cell, db_path=db, base_seed=base_seed,
        in_process=True, **kwargs,
    )


@pytest.fixture(scope="module")
def serial_reference_report(tmp_path_factory):
    """The AXES grid's report bytes from one clean in-process pass."""
    db = str(tmp_path_factory.mktemp("parity") / "serial.db")
    runner = _serial_runner(db)
    outcomes = runner.resume(**AXES)
    assert all(o.status == "done" for o in outcomes)
    return runner.report(**AXES)


@pytest.mark.parametrize("prefix", [1, 3, 7])
def test_resume_after_any_prefix_is_byte_identical(
    tmp_path, prefix, serial_reference_report
):
    interrupted = _serial_runner(str(tmp_path / "interrupted.db"))
    first = interrupted.resume(max_cells=prefix, **AXES)
    assert len(first) == prefix
    assert all(o.status == "done" for o in first)
    second = interrupted.resume(**AXES)
    assert len(second) == 8

    assert interrupted.report(**AXES) == serial_reference_report
    # Resuming a complete campaign is a no-op with the same bytes.
    third = interrupted.resume(**AXES)
    assert [o.status for o in third] == [o.status for o in second]
    assert interrupted.report(**AXES) == serial_reference_report


# The dispatcher parity suite: one fixed grid, every dispatcher
# configuration x every interruption point, all byte-identical to the
# serial reference.  This is the refactor's acceptance bar — pool
# width, deadlines, and interrupt/resume scheduling must be invisible
# in the report.
@pytest.mark.parametrize("prefix", [1, 3, 7])
@pytest.mark.parametrize("cell_timeout", [None, 60.0],
                         ids=["no-timeout", "timeout"])
@pytest.mark.parametrize("processes", [1, 4])
def test_unified_loop_parity_under_interrupt_and_resume(
    tmp_path, make_runner, serial_reference_report,
    processes, cell_timeout, prefix,
):
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=processes, cell_timeout=cell_timeout,
    )
    first = runner.resume(max_cells=prefix, **AXES)
    assert len(first) == prefix
    assert all(o.status == "done" for o in first)
    resumed = runner.resume(**AXES)
    assert len(resumed) == 8
    assert all(o.status == "done" for o in resumed)
    assert runner.report(**AXES) == serial_reference_report


def _refuse_to_start(process):
    raise OSError("no processes on this platform")


def test_a_pool_whose_first_worker_cannot_start_runs_in_process(
    tmp_path, make_runner, monkeypatch, serial_reference_report
):
    """The first spawn is the capability check: when it fails the pass
    warns and runs every cell in-process, with the reference bytes."""
    monkeypatch.setattr(multiprocessing.Process, "start", _refuse_to_start)
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=2,
    )
    with pytest.warns(RuntimeWarning, match="worker processes unavailable"):
        outcomes = runner.resume(**AXES)
    assert [o.status for o in outcomes] == ["done"] * 8
    assert runner.dispatcher.in_process
    assert runner.last_dispatch_stats["in_process"]
    assert runner.report(**AXES) == serial_reference_report


def test_a_later_spawn_failure_still_raises(
    tmp_path, make_runner, monkeypatch
):
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=1,
    )
    runner.resume(max_cells=1, **AXES)
    runner.close()
    monkeypatch.setattr(multiprocessing.Process, "start", _refuse_to_start)
    with pytest.raises(OSError, match="no processes"):
        runner.resume(**AXES)
    assert not runner.dispatcher.in_process


def test_outcomes_payloads_survive_the_json_roundtrip(tmp_path):
    runner = _serial_runner(str(tmp_path / "campaign.db"))
    outcomes = runner.resume(**AXES)
    fresh = consensus_sweep_cell(
        outcomes[0].params, outcomes[0].cell.seed
    )
    # Stored payloads are the canonical-JSON round-trip of fresh ones.
    assert outcomes[0].payload == json.loads(
        json.dumps(fresh, sort_keys=True, default=str)
    )


def test_store_with_different_base_seed_is_rejected(tmp_path):
    db = str(tmp_path / "campaign.db")
    _serial_runner(db, base_seed=3).resume(max_cells=2, **AXES)
    with pytest.raises(ConfigurationError, match="different base_seed"):
        _serial_runner(db, base_seed=4).resume(**AXES)
    # The read-only paths reject the mismatch too — a report must never
    # attribute stored payloads to seeds they were not produced under.
    with pytest.raises(ConfigurationError, match="different base_seed"):
        _serial_runner(db, base_seed=4).report(**AXES)
    with pytest.raises(ConfigurationError, match="different base_seed"):
        _serial_runner(db, base_seed=4).outcomes(**AXES)


def test_store_filled_on_another_rng_backend_is_rejected(tmp_path):
    db = str(tmp_path / "campaign.db")
    _serial_runner(db).resume(max_cells=2, **AXES)
    with SqliteSink(db) as store:
        assert store.get_meta("rng_backend") == RNG_BACKEND == "pure"
        # A store from before the stamp gets stamped in place.
        store._connect().execute(
            "DELETE FROM campaign_meta WHERE key = 'rng_backend'"
        )
        store._connect().commit()
    _serial_runner(db).resume(max_cells=1, **AXES)
    with SqliteSink(db) as store:
        assert store.get_meta("rng_backend") == RNG_BACKEND
        # As if the retired numpy backend had filled it.
        store.set_meta("rng_backend", "numpy")
    runner = _serial_runner(db)
    legacy = re.escape(f"campaign db {db!r} was filled by the retired numpy")
    for read in (runner.resume, runner.report, runner.report_table,
                 runner.outcomes):
        with pytest.raises(ConfigurationError, match=legacy):
            read(**AXES)
    with SqliteSink(db) as store:
        assert store.get_meta("rng_backend") == "numpy"
        store.set_meta("rng_backend", "gpu")
    with pytest.raises(ConfigurationError, match="unknown rng_backend"):
        runner.resume(**AXES)


def test_rerun_clears_stale_rounds_from_a_dead_attempt(tmp_path):
    db = str(tmp_path / "campaign.db")
    runner = _serial_runner(db, extra_params={"sqlite_db": db})
    # Simulate a killed earlier attempt: 40 orphan rounds streamed under
    # a pending cell's seed, with no cells row checkpointed.
    victim = runner.cells(**AXES)[0]
    with SqliteSink(db, cell_seed=victim.seed) as sink:
        for r in range(1, 41):
            sink(_summary(r, bc=9))
    outcomes = runner.resume(**AXES)
    (outcome,) = [o for o in outcomes if o.cell.seed == victim.seed]
    with SqliteSink(db) as sink:
        rows = sink.read_summaries(cell_seed=victim.seed)
    # No stale rows past the real attempt's final round.
    assert len(rows) == outcome.payload["rounds"] < 40
    assert all(s.broadcast_count != 9 for s in rows)


def test_campaign_streams_round_summaries_into_the_same_db(tmp_path):
    db = str(tmp_path / "campaign.db")
    runner = _serial_runner(db, extra_params={"sqlite_db": db})
    outcomes = runner.resume(max_cells=2, **AXES)
    with SqliteSink(db) as sink:
        for outcome in outcomes:
            rows = sink.read_summaries(cell_seed=outcome.cell.seed)
            assert len(rows) == outcome.payload["rounds"]
    # extra_params stay out of cell identity: tags only hold grid coords.
    assert "sqlite_db" not in cell_tag(outcomes[0].cell)
    assert "sqlite_db" not in runner.report(**AXES)


def _assert_rounds_stored(db: str, outcomes) -> None:
    assert outcomes and all(o.status == "done" for o in outcomes)
    with SqliteSink(db) as sink:
        for outcome in outcomes:
            rows = sink.read_summaries(cell_seed=outcome.cell.seed)
            assert len(rows) == outcome.payload["rounds"]


def test_pooled_workers_never_connect_to_the_store(
    tmp_path, make_runner, monkeypatch
):
    """The parent is the store's only writer: pooled cells hand their
    rows back and no worker ever calls ``sqlite3.connect``."""
    log = tmp_path / "connects.log"
    connect = sqlite3.connect

    def logged_connect(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", logged_connect)
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=2,
        extra_params={"sqlite_db": db},
    )
    outcomes = runner.resume(**AXES)
    assert len(outcomes) == 8
    assert runner.last_dispatch_stats["distinct_worker_pids"] == 2
    connects = collections.Counter(int(pid) for pid in log.read_text().split())
    assert set(connects) == {os.getpid()}
    _assert_rounds_stored(db, outcomes)


def test_store_recreated_in_place_gets_the_next_runs_rows(tmp_path):
    """A store deleted and recreated between two runs gets the second
    run's rows, never an unlinked file's."""
    db = str(tmp_path / "campaign.db")
    for _ in range(2):
        runner = _serial_runner(db, extra_params={"sqlite_db": db})
        _assert_rounds_stored(db, runner.resume(max_cells=3, **AXES))
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(db + suffix):
                os.remove(db + suffix)


def test_no_sqlite_connection_is_open_when_a_worker_forks(
    tmp_path, make_runner, monkeypatch
):
    """Never fork with a live sqlite connection: in-process cells leave
    none open, and the runner's store is dropped by the dispatcher's
    ``pre_fork=store.disconnect``."""
    tracked = []
    connect = sqlite3.connect

    def tracking_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        tracked.append(conn)
        return conn

    def open_connections():
        alive = []
        for conn in tracked:
            try:
                conn.total_changes
            except sqlite3.ProgrammingError:  # closed
                continue
            alive.append(conn)
        return alive

    monkeypatch.setattr(sqlite3, "connect", tracking_connect)
    db = str(tmp_path / "campaign.db")
    _serial_runner(db, extra_params={"sqlite_db": db}).resume(
        max_cells=4, **AXES
    )
    # The in-process cells handed their rows to the runner, whose store
    # connection closed with the pass.
    assert tracked and open_connections() == []

    fork = os.fork
    open_at_fork = []

    def audited_fork():
        pid = fork()
        if pid:  # parent: the fork hooks ran, nothing else has since
            open_at_fork.append(len(open_connections()))
        return pid

    monkeypatch.setattr(os, "fork", audited_fork)
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=2,
        extra_params={"sqlite_db": db},
    )
    outcomes = runner.resume(**AXES)
    assert len(outcomes) == 8
    # One fork per worker, and no other.
    assert open_at_fork == [0, 0]
    _assert_rounds_stored(db, outcomes)


@pytest.mark.parametrize("in_process", [True, False],
                         ids=["in-process", "pooled"])
def test_failed_checkpoint_leaves_no_orphan_rounds(
    tmp_path, make_runner, monkeypatch, in_process
):
    """A cell's rows commit with its checkpoint, in the parent: when the
    first ``record-cell`` fails on every attempt and aborts the pass,
    the cell's rows never reach the store either."""
    from repro.experiments.verify import verify_campaign_store

    monkeypatch.setattr(time, "sleep", lambda _s: None)
    plan = faultline.FaultPlan([
        faultline.FaultRule(
            site="sqlite", match="record-cell",
            count_in=tuple(range(1, SqliteSink.MAX_SQLITE_ATTEMPTS + 1)),
            action={"kind": "operational-error", "flavor": "locked"},
        ),
    ])
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=2,
        in_process=in_process, fault_plan=plan,
        extra_params={"sqlite_db": db},
    )
    with pytest.raises(ConfigurationError, match="still failing after"):
        runner.resume(**AXES)
    findings = verify_campaign_store(db)["findings"]
    assert "orphan-rounds" not in {f["kind"] for f in findings}
    with SqliteSink(db) as sink:
        assert sink.cell_count() == 0
        assert sink.round_aggregates() == {}


#: The CLI's ``--quick`` grids of both campaign families.
QUICK_GRIDS = {
    "e18": (consensus_sweep_cell, E18.grid(quick=True)),
    "e19": (churn_sweep_cell, E19.grid(quick=True)),
}


@pytest.mark.parametrize("grid", sorted(QUICK_GRIDS))
def test_pooled_and_in_process_stores_hold_identical_round_rows(
    tmp_path, make_runner, grid
):
    cell_fn, axes = QUICK_GRIDS[grid]
    rows = {}
    for mode, kwargs in (("in-process", {"in_process": True}),
                         ("pooled", {"processes": 2})):
        db = str(tmp_path / f"{mode}.db")
        runner = make_runner(
            cell_fn, db_path=db, base_seed=3,
            extra_params={"sqlite_db": db}, **kwargs,
        )
        _assert_rounds_stored(db, runner.resume(**axes))
        conn = sqlite3.connect(db)
        try:
            rows[mode] = conn.execute(
                "SELECT * FROM round_summaries ORDER BY cell_seed, round"
            ).fetchall()
        finally:
            conn.close()
    assert rows["pooled"] and rows["pooled"] == rows["in-process"]


# ----------------------------------------------------------------------
# CampaignRunner: timeouts and failure isolation
# ----------------------------------------------------------------------
def _sleepy_cell(params, seed):
    if params["trial"] == 1:
        time.sleep(60)
    return {"seed": seed, "trial": params["trial"]}


def _flaky_cell(params, seed):
    if not os.path.exists(params["flag"]):
        raise ValueError(f"flag missing for trial {params['trial']}")
    return {"seed": seed}


def test_cell_timeout_marks_timed_out_without_killing_the_grid(
    tmp_path, make_runner
):
    runner = make_runner(
        _sleepy_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, cell_timeout=1.0,
    )
    outcomes = runner.resume(trial=[0, 1, 2])
    assert [o.status for o in outcomes] == ["done", "timed_out", "done"]
    assert outcomes[1].payload is None
    # Resume skips the timed-out cell rather than hanging on it again.
    start = time.monotonic()
    again = runner.resume(trial=[0, 1, 2])
    assert time.monotonic() - start < 30
    assert [o.status for o in again] == ["done", "timed_out", "done"]


def test_failed_cells_are_checkpointed_and_retried_on_resume(
    tmp_path, make_runner
):
    flag = str(tmp_path / "flag")
    runner = make_runner(
        _flaky_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=0, extra_params={"flag": flag},
    )
    outcomes = runner.resume(trial=[0, 1])
    assert [o.status for o in outcomes] == ["failed", "failed"]
    assert "flag missing" in outcomes[0].error
    open(flag, "w").close()
    outcomes = runner.resume(trial=[0, 1])
    assert [o.status for o in outcomes] == ["done", "done"]


def _exiting_cell(params, seed):
    """Trial 1 calls ``sys.exit(3)``; the others complete."""
    if params["trial"] == 1:
        sys.exit(3)
    return {"seed": seed, "trial": params["trial"]}


def test_a_cell_calling_sys_exit_fails_alike_in_every_mode(
    tmp_path, make_runner
):
    """``sys.exit`` in a cell checkpoints that cell ``failed`` with its
    repr, in-process as on a pool worker, and the grid runs on."""
    reports = {}
    for mode, kwargs in (("in-process", {"in_process": True}),
                         ("pooled", {"processes": 1})):
        runner = make_runner(
            _exiting_cell, db_path=str(tmp_path / f"{mode}.db"),
            base_seed=0, **kwargs,
        )
        outcomes = runner.resume(trial=[0, 1, 2])
        assert [o.status for o in outcomes] == ["done", "failed", "done"]
        assert outcomes[1].error == "SystemExit(3)"
        reports[mode] = runner.report(trial=[0, 1, 2])
    assert reports["pooled"] == reports["in-process"]


# ----------------------------------------------------------------------
# The unified dispatcher pool: fan-out, deadlines, worker lifecycle
# ----------------------------------------------------------------------
def _stubborn_cell(params, seed):
    """Trial 1 ignores SIGTERM and sleeps far past any deadline."""
    if params["trial"] == 1:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        time.sleep(120)
    return {"seed": seed, "trial": params["trial"]}


def _napping_cell(params, seed):
    """Every cell sleeps a fixed beat — wall-clock is pure dispatch."""
    time.sleep(0.4)
    return {"seed": seed, "trial": params["trial"]}


def _streaming_cell(params, seed):
    """Streams five rounds, then (by trial) returns, hangs, or raises."""
    from repro.core.records import SqliteSink

    with SqliteSink(params["db"], cell_seed=seed) as sink:
        for r in range(1, 6):
            sink(_summary(r, bc=7))
    if params["trial"] == 1:
        time.sleep(120)
    if params["trial"] == 2:
        raise RuntimeError("deterministic crash after streaming")
    return {"seed": seed, "trial": params["trial"]}


def test_deadline_pool_times_out_cells_in_parallel(tmp_path, make_runner):
    """Two sleepers on a 3-wide pool: both overrun concurrently, both
    workers are replaced, and the grid keeps moving."""
    runner = make_runner(
        _sleepy_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=3, cell_timeout=1.0,
    )
    start = time.monotonic()
    outcomes = runner.resume(trial=[0, 1, 2])
    elapsed = time.monotonic() - start
    assert [o.status for o in outcomes] == ["done", "timed_out", "done"]
    # The sleeper burned its budget concurrently with the other cells,
    # not serially after them.
    assert elapsed < 30
    # Resume skips the timed-out cell rather than hanging on it again.
    again = runner.resume(trial=[0, 1, 2])
    assert [o.status for o in again] == ["done", "timed_out", "done"]


def test_sigterm_ignoring_cell_cannot_hang_the_pool(tmp_path, make_runner):
    """terminate→kill escalation: a cell that ignores SIGTERM is still
    evicted, its worker replaced, and every other cell completes."""
    runner = make_runner(
        _stubborn_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=2, cell_timeout=1.0,
    )
    start = time.monotonic()
    outcomes = runner.resume(trial=[0, 1, 2, 3])
    elapsed = time.monotonic() - start
    assert [o.status for o in outcomes] == [
        "done", "timed_out", "done", "done"
    ]
    assert elapsed < 60
    # The replacement worker (not the killed one) ran the later cells.
    assert outcomes[2].payload["trial"] == 2
    assert outcomes[3].payload["trial"] == 3


def test_wide_pool_beats_one_worker_pool(tmp_path, make_runner):
    """8 napping cells: 4 pooled workers must finish the grid at least
    2x faster than the same loop at width 1."""
    trials = list(range(8))
    serial = make_runner(
        _napping_cell, db_path=str(tmp_path / "serial.db"),
        base_seed=0, processes=1, cell_timeout=30.0,
    )
    start = time.monotonic()
    serial.resume(trial=trials)
    serial_elapsed = time.monotonic() - start

    pooled = make_runner(
        _napping_cell, db_path=str(tmp_path / "pooled.db"),
        base_seed=0, processes=4, cell_timeout=30.0,
    )
    start = time.monotonic()
    pooled.resume(trial=trials)
    pooled_elapsed = time.monotonic() - start

    assert pooled.report(trial=trials) == serial.report(trial=trials)
    assert pooled_elapsed * 2 <= serial_elapsed, (
        f"pooled {pooled_elapsed:.2f}s vs serial {serial_elapsed:.2f}s"
    )


def _worker_pid_cell(params, seed):
    """Reports which pool worker process ran it."""
    return {"worker_pid": os.getpid(), "trial": params["trial"]}


def _suicidal_cell(params, seed):
    """Trial 1 hard-kills its own worker mid-cell (no reply, no EOF
    courtesy) — the OOM-kill / hard-crash stand-in."""
    if params["trial"] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return {"seed": seed, "trial": params["trial"]}


@pytest.mark.parametrize("cell_timeout", [None, 30.0],
                         ids=["no-timeout", "timeout"])
def test_worker_reuse_is_universal(tmp_path, make_runner, cell_timeout):
    """Acceptance bar: a grid larger than the pool runs on at most
    ``processes`` distinct worker pids — with and without a timeout."""
    runner = make_runner(
        _worker_pid_cell, db_path=str(tmp_path / "c.db"),
        base_seed=2, processes=2, cell_timeout=cell_timeout,
    )
    outcomes = runner.resume(trial=list(range(8)))
    assert all(o.status == "done" for o in outcomes)
    pids = {o.payload["worker_pid"] for o in outcomes}
    assert 1 <= len(pids) <= 2
    # The runner publishes the same accounting for the benchmarks.
    stats = runner.last_dispatch_stats
    assert stats["cells"] == 8
    assert stats["distinct_worker_pids"] == len(pids)
    assert stats["in_process"] is False


@pytest.mark.parametrize("cell_timeout", [None, 30.0],
                         ids=["no-timeout", "timeout"])
def test_worker_death_mid_cell_checkpoints_failed(
    tmp_path, make_runner, cell_timeout
):
    """A worker dying mid-cell (SIGKILL — no reply ever comes) must
    checkpoint the cell ``failed`` and keep the grid moving, on both
    the timeout and no-timeout configurations (the no-timeout loop
    blocks on the pipes indefinitely, so the EOF is its only wake-up)."""
    runner = make_runner(
        _suicidal_cell, db_path=str(tmp_path / "c.db"),
        base_seed=0, processes=2, cell_timeout=cell_timeout,
        max_retries=0,
    )
    outcomes = runner.resume(trial=[0, 1, 2, 3])
    assert [o.status for o in outcomes] == [
        "done", "failed", "done", "done"
    ]
    assert "worker died without a result" in outcomes[1].error


def test_pool_workers_survive_across_resumes(tmp_path):
    """Two back-to-back resumes on one runner reuse the same pool
    workers: the second pass's cells run on the pids the first pass
    spawned, and only close() tears the pool down."""
    runner = CampaignRunner(
        _worker_pid_cell, db_path=str(tmp_path / "c.db"),
        base_seed=2, processes=2, cell_timeout=30.0,
    )
    try:
        first = runner.resume(trial=[0, 1])
        pool_pids_after_first = set(runner.dispatcher.worker_pids())
        second = runner.resume(trial=[0, 1, 2, 3])
    finally:
        procs = [w.proc for w in runner.dispatcher._workers]
        runner.close()
    first_pids = {o.payload["worker_pid"] for o in first}
    assert len(pool_pids_after_first) == 2
    assert first_pids <= pool_pids_after_first
    # The second pass ran only the two new cells — on the same workers.
    new_pids = {
        o.payload["worker_pid"]
        for o in second if o.params["trial"] in (2, 3)
    }
    assert new_pids <= pool_pids_after_first
    assert {p.pid for p in procs} == pool_pids_after_first
    # close() really shut the pool down (idempotently).
    for proc in procs:
        proc.join(5.0)
        assert not proc.is_alive()
    runner.close()
    assert runner.dispatcher.worker_pids() == []


def test_campaign_runner_context_manager_closes_pool(tmp_path):
    with CampaignRunner(
        _worker_pid_cell, db_path=str(tmp_path / "c.db"),
        base_seed=2, processes=2, cell_timeout=30.0,
    ) as runner:
        runner.resume(trial=[0, 1])
        procs = [w.proc for w in runner.dispatcher._workers]
        assert procs  # the pool outlived the pass
    for proc in procs:
        proc.join(5.0)
        assert not proc.is_alive()


def test_dispatcher_pulls_cell_source_lazily():
    """The cell source is an iterator seam: the loop pulls a cell only
    when a worker slot frees up, never more than ``width`` ahead of the
    completions (what a distributed shard feed relies on)."""
    cells = list(iter_cells(0, trial=list(range(6))))
    pulled = []

    def source():
        for cell in cells:
            pulled.append(cell.index)
            yield cell

    completed = []

    def on_result(cell, result):
        assert result.status == "done"
        # At delivery time the source is never more than one pull per
        # in-flight slot ahead of the completions.
        assert len(pulled) <= len(completed) + 2
        completed.append(cell.index)

    with CampaignDispatcher(_trivial_cell, processes=2) as dispatcher:
        count = dispatcher.run(source(), on_result)
    assert count == 6
    assert sorted(completed) == list(range(6))
    assert pulled == list(range(6))  # pulled in grid order


@pytest.mark.parametrize("processes", [0, 4])
def test_dead_attempts_leave_zero_round_rows(tmp_path, make_runner, processes):
    """A timed-out or failed attempt contributes nothing to
    round_summaries — only a ``done`` checkpoint commits a cell's rows
    (timed_out cells never re-run, so the pre-run sweep can't help)."""
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        _streaming_cell, db_path=db, base_seed=0, processes=processes,
        cell_timeout=1.5, extra_params={"db": db},
    )
    outcomes = runner.resume(trial=[0, 1, 2])
    assert [o.status for o in outcomes] == ["done", "timed_out", "failed"]
    with SqliteSink(db) as sink:
        done, hung, crashed = (o.cell.seed for o in outcomes)
        # The completed attempt's rounds survive ...
        assert len(sink.read_summaries(cell_seed=done)) == 5
        # ... while killed and failed attempts leave zero rows.
        assert sink.read_summaries(cell_seed=hung) == []
        assert sink.read_summaries(cell_seed=crashed) == []


# ----------------------------------------------------------------------
# Retry budgets and the attempts migration
# ----------------------------------------------------------------------
def _counting_crash_cell(params, seed):
    """Deterministically crashes, leaving one marker file per run."""
    marker_dir = params["marker_dir"]
    os.makedirs(marker_dir, exist_ok=True)
    run = len(os.listdir(marker_dir))
    open(os.path.join(marker_dir, f"run-{run}"), "w").close()
    raise RuntimeError("always fails")


def _trivial_cell(params, seed):
    return {"seed": seed, "trial": params["trial"]}


def test_retry_budget_makes_resume_converge(tmp_path, make_runner):
    marker_dir = str(tmp_path / "runs")
    runner = make_runner(
        _counting_crash_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=0, max_retries=1,
        extra_params={"marker_dir": marker_dir},
    )
    (first,) = runner.resume(trial=[0])
    assert first.status == "failed" and first.attempts == 1
    (second,) = runner.resume(trial=[0])
    assert second.status == "failed" and second.attempts == 2
    # Budget exhausted (1 + max_retries runs): the cell stays failed
    # permanently and further resumes do no work at all.
    for _ in range(3):
        (done,) = runner.resume(trial=[0])
        assert done.status == "failed" and done.attempts == 2
    assert len(os.listdir(marker_dir)) == 2
    assert "always fails" in done.error
    # The report surfaces the attempt count.
    report = json.loads(runner.report(trial=[0]))
    assert report["cells"][0]["attempts"] == 2
    assert report["cells"][0]["status"] == "failed"


def test_attempts_within_budget_still_retry_to_success(tmp_path, make_runner):
    flag = str(tmp_path / "flag")
    runner = make_runner(
        _flaky_cell, db_path=str(tmp_path / "campaign.db"),
        base_seed=0, processes=0, max_retries=2,
        extra_params={"flag": flag},
    )
    assert [o.attempts for o in runner.resume(trial=[0])] == [1]
    open(flag, "w").close()
    (outcome,) = runner.resume(trial=[0])
    assert outcome.status == "done" and outcome.attempts == 2


_PRE_ATTEMPTS_SCHEMA = """
CREATE TABLE cells (
    cell_tag   TEXT PRIMARY KEY,
    cell_seed  INTEGER NOT NULL,
    cell_index INTEGER NOT NULL,
    params     TEXT NOT NULL,
    status     TEXT NOT NULL,
    payload    TEXT,
    error      TEXT,
    elapsed    REAL
);
CREATE TABLE round_summaries (
    cell_seed       INTEGER NOT NULL,
    round           INTEGER NOT NULL,
    broadcast_count INTEGER NOT NULL,
    crashed_during  TEXT NOT NULL,
    decided_during  TEXT NOT NULL,
    PRIMARY KEY (cell_seed, round)
);
"""


def test_pre_attempts_store_is_migrated_in_place(tmp_path, make_runner):
    """A store written by the pre-`attempts` schema is readable: the
    column is added in place and old rows backfill to attempts=1."""
    db = str(tmp_path / "old.db")
    runner = make_runner(
        _trivial_cell, db_path=db, base_seed=0, processes=0,
    )
    done_cell, pending_cell = runner.cells(trial=[0, 1])
    conn = sqlite3.connect(db)
    conn.executescript(_PRE_ATTEMPTS_SCHEMA)
    conn.execute(
        "INSERT INTO cells (cell_tag, cell_seed, cell_index, params, "
        "status, payload, error, elapsed) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (cell_tag(done_cell), done_cell.seed, done_cell.index,
         json.dumps(done_cell.as_dict()),
         "done",
         json.dumps({"seed": done_cell.seed, "trial": 0}, sort_keys=True),
         None, 0.1),
    )
    conn.commit()
    conn.close()

    with SqliteSink(db) as store:
        rows = store.get_cells()
    assert rows[cell_tag(done_cell)]["attempts"] == 1

    # Resume reads the migrated store: the old cell is skipped, the
    # missing one runs, and both carry attempt counts.
    outcomes = runner.resume(trial=[0, 1])
    assert [o.status for o in outcomes] == ["done", "done"]
    assert [o.attempts for o in outcomes] == [1, 1]
    assert outcomes[0].payload == {"seed": done_cell.seed, "trial": 0}


# ----------------------------------------------------------------------
# E18 and the CLI subcommand
# ----------------------------------------------------------------------
def test_run_family_resumes_from_its_db(tmp_path):
    db = str(tmp_path / "campaign.db")
    kwargs = dict(
        db_path=db, processes=0,
        axes=E18.grid(n=[3], detector=["0-OAC"], loss_rate=[0.1], trial=2),
    )
    partial = run_family(E18, max_cells=1, **kwargs)
    assert partial[0].column("cells") == [1]
    tables = run_family(E18, **kwargs)
    (row,) = tables[0].rows
    assert row["cells"] == 2 and row["done"] == 2
    assert row["solved"] == "2/2"


def test_cli_campaign_subcommand_launches_and_reports(tmp_path, capsys):
    from repro.__main__ import main

    db = str(tmp_path / "campaign.db")
    base = ["campaign", "--db", db, "--quick", "--seeds", "1",
            "--in-process"]
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "E18" in out and "campaign.db" in out
    assert main(base + ["--report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["cells"]) == 4
    assert all(c["status"] == "done" for c in report["cells"])


def test_cli_campaign_quick_rejects_explicit_grid_flags(tmp_path, capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--db", str(tmp_path / "c.db"), "--quick",
              "--n", "16"])
    assert excinfo.value.code == 2
    assert "--quick fixes the grid" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["e18", "e19"])
def test_cli_report_lists_cells_under_their_stored_index(
    tmp_path, capsys, family
):
    """Run and report modes build one grid: every report entry carries
    the ``cell_index`` its run stored, and the table lists the cells in
    that order."""
    from repro.__main__ import main
    from repro.experiments.harness import coordinate_text

    db = str(tmp_path / "campaign.db")
    grid = ["--family", family, "--db", db, "--quick"]
    assert main(["campaign", *grid, "--in-process"]) == 0
    capsys.readouterr()
    conn = sqlite3.connect(db)
    try:
        stored = dict(conn.execute("SELECT cell_tag, cell_index FROM cells"))
    finally:
        conn.close()
    assert main(["campaign", "report", *grid]) == 0
    entries = json.loads(capsys.readouterr().out)["cells"]
    assert len(entries) == len(stored) == 8
    assert [e["index"] for e in entries] == [
        stored[coordinate_text(e["params"])] for e in entries
    ]
    assert main(["campaign", "report", "--table", *grid]) == 0
    rows = capsys.readouterr().out.splitlines()[2:-2]
    assert [row.split()[0] for row in rows] == sorted(stored,
                                                      key=stored.get)


@pytest.mark.parametrize("mode", [
    ["--report"], ["report"], ["report", "--table"],
    ["report", "--allow-partial"],
])
def test_cli_report_rejects_a_missing_store(tmp_path, capsys, mode):
    from repro.__main__ import main

    db = tmp_path / "missing.db"
    assert main(["campaign", *mode, "--db", str(db), "--quick"]) == 2
    assert repr(str(db)) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--seeds", "0"], "--seeds must be at least 1"),
    (["--quick", "--seeds", "0"], "--seeds must be at least 1"),
    (["--churn-rate", "0.1"], "--churn-rate"),
    (["--topology", "ring"], "--topology"),
    (["--quick", "--churn-rate", "0.1", "--topology", "ring"],
     "--churn-rate, --topology"),
])
def test_cli_rejects_grids_that_run_nothing_or_do_not_apply(
    tmp_path, capsys, flags, message
):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--family", "e18", "--db",
              str(tmp_path / "c.db"), *flags])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_family_grids_keep_run_order():
    assert list(E18.grid()) == [
        "n", "detector", "loss_rate", "trial", "values", "record_policy",
    ]
    assert list(E19.grid(quick=True)) == [
        "n", "detector", "loss_rate", "churn_rate", "topology", "trial",
        "values", "record_policy",
    ]
    assert E18.grid(quick=True, trial=3, values=8) == dict(
        n=[3, 4], detector=["0-OAC"], loss_rate=[0.1, 0.3],
        trial=[0, 1, 2], values=[8], record_policy=["summary"],
    )
    assert E19.grid(n=None) == E19.grid()
    with pytest.raises(ConfigurationError, match="--quick fixes the grid"):
        E19.grid(quick=True, topology=["ring"])


def test_report_table_aggregates_rounds_per_cell(tmp_path, make_runner):
    """The table view reads per-cell round counts and mean broadcast
    counts straight out of round_summaries, in grid order, with aligned
    columns."""
    db = str(tmp_path / "campaign.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=0,
        extra_params={"sqlite_db": db},
    )
    axes = dict(
        n=[3], detector=["0-OAC"], loss_rate=[0.1, 0.3], trial=[0],
        values=[8], record_policy=["summary"],
    )
    outcomes = runner.resume(**axes)
    table = runner.report_table(**axes)
    lines = table.splitlines()
    header, rule, *rows = lines[:-2]
    footer_rule, footer = lines[-2:]
    assert header.split() == [
        "cell", "status", "attempts", "rounds", "mean_bcast"
    ]
    assert set(rule) <= {"-", " "}
    assert set(footer_rule) <= {"-", " "}
    assert footer == "2 cells: 2 done, 0 failed, 0 timed_out; 2 attempts"
    assert len(rows) == len(outcomes) == 2
    with SqliteSink(db) as store:
        aggregates = store.round_aggregates()
    for row, outcome in zip(rows, outcomes):
        cols = row.split()
        assert cols[0] == cell_tag(outcome.cell)
        assert cols[1] == "done"
        rounds, mean = aggregates[outcome.cell.seed]
        assert cols[3] == str(rounds)
        assert cols[4] == f"{mean:.2f}"
    # Every header starts at a consistent column (alignment).
    assert header.index("status") <= rows[0].index("done")


def test_cli_campaign_report_table_subcommand(tmp_path, capsys):
    from repro.__main__ import main

    db = str(tmp_path / "campaign.db")
    base = ["campaign", "--db", db, "--quick", "--seeds", "1",
            "--processes", "0"]
    assert main(base) == 0
    capsys.readouterr()
    assert main(["campaign", "report", "--table", "--db", db,
                 "--quick", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split()[:2] == ["cell", "status"]
    # header + rule + one row per quick cell + footer rule + footer
    assert len(lines) == 2 + 4 + 2
    assert all("done" in line for line in lines[2:-2])
    assert lines[-1] == "4 cells: 4 done, 0 failed, 0 timed_out; 4 attempts"
    # --table without report mode is a usage error, not silence.
    with pytest.raises(SystemExit) as excinfo:
        main(["campaign", "--db", db, "--quick", "--table"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# The respawn-storm breaker
# ----------------------------------------------------------------------
def _exit_cell(params, seed):
    """Kills its worker outright — no result ever crosses the pipe."""
    os._exit(1)


def _exit_on_odd_trial_cell(params, seed):
    """Completes even trials, kills the worker on odd ones."""
    if params["trial"] % 2:
        os._exit(1)
    return {"trial": params["trial"]}


def test_spawn_death_storm_aborts_loudly():
    """K fresh spawns dying in a row abort the campaign with
    WorkerPoolError instead of respawning forever."""
    from repro.experiments.dispatch import WorkerPoolError

    cells = list(iter_cells(0, trial=list(range(10))))
    delivered = []
    with CampaignDispatcher(_exit_cell, processes=1) as dispatcher:
        dispatcher.max_spawn_deaths = 3
        dispatcher.respawn_backoff = 0.001
        with pytest.raises(WorkerPoolError, match="3 freshly-spawned"):
            dispatcher.run(
                iter(cells), lambda cell, res: delivered.append(res)
            )
    # Each doomed spawn still checkpointed its cell as failed before
    # the breaker tripped.
    assert len(delivered) == 3
    assert all(r.status == "failed" for r in delivered)


def test_established_worker_death_does_not_trip_breaker():
    """A worker that already delivered results dying mid-cell is an
    isolated casualty: the cell fails, a replacement spawns, and the
    breaker (even at its tightest setting) never fires."""
    cells = list(iter_cells(0, trial=[0, 1, 2, 3, 4]))
    results = {}
    with CampaignDispatcher(
        _exit_on_odd_trial_cell, processes=1
    ) as dispatcher:
        dispatcher.max_spawn_deaths = 1
        dispatcher.respawn_backoff = 0.0
        count = dispatcher.run(
            iter(cells),
            lambda cell, res: results.__setitem__(
                cell.as_dict()["trial"], res.status
            ),
        )
    assert count == 5
    assert results == {
        0: "done", 1: "failed", 2: "done", 3: "failed", 4: "done",
    }


def test_delivered_result_resets_spawn_death_streak():
    """The streak counts *consecutive* fresh-spawn deaths: any
    delivered result resets it, so sporadic deaths below the threshold
    never accumulate into an abort."""
    # Worker 1 dies fresh (streak 1); worker 2 completes trial 1
    # (streak 0) then dies on trial 2 as an established worker (no
    # count); worker 3 completes the rest.  max_spawn_deaths=2 would
    # trip on two consecutive fresh deaths — which never happen here.
    def statuses():
        return [results[t] for t in sorted(results)]

    cells = list(iter_cells(0, trial=[1, 0, 3, 2]))
    results = {}
    with CampaignDispatcher(
        _exit_on_odd_trial_cell, processes=1
    ) as dispatcher:
        dispatcher.max_spawn_deaths = 2
        dispatcher.respawn_backoff = 0.0
        count = dispatcher.run(
            iter(cells),
            lambda cell, res: results.__setitem__(
                cell.as_dict()["trial"], res.status
            ),
        )
    assert count == 4
    assert statuses() == ["done", "failed", "done", "failed"]
