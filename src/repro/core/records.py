"""Execution records and the paper's trace types (Definitions 4, 5, 7, 11).

An execution in the formal model is the infinite sequence
``C0, M1, N1, D1, W1, C1, ...``.  The engine produces a finite prefix of this
sequence as a list of :class:`RoundRecord` objects, each holding the round's
message assignment (``M_r``), message-set assignment (``N_r``), collision
advice (``D_r``), contention advice (``W_r``), and the set of processes that
crashed during the round.

From a finished :class:`ExecutionResult` we can extract the three trace
types used throughout the paper:

* the **transmission trace** ``(c_r, T_r)`` — how many processes broadcast
  and how many messages each process received (Definition 4);
* the **CD trace** — collision advice per process per round (Definition 5);
* the **CM trace** — contention advice per process per round (Definition 7);

plus the **basic broadcast count sequence** (Definition 22) used by the
lower bounds, and observable *indistinguishability* between two executions
(Definition 12).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import json
import os
import sqlite3
import time
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .errors import ConfigurationError
from .multiset import Multiset
from .types import CollisionAdvice, ContentionAdvice, Message, ProcessId, Value


class RecordPolicy(enum.Enum):
    """How much per-round state an execution retains.

    * ``FULL``    — keep every :class:`RoundRecord` (multisets, advice maps);
      required by the trace validators, lower-bound replays, and
      ``indistinguishable``.  Memory is O(rounds × n).
    * ``SUMMARY`` — keep one small :class:`RoundSummary` per round
      (broadcast count, decisions, crashes); enough for consensus checking
      and the broadcast-count sequence.  Memory is O(rounds).
    * ``NONE``    — keep nothing per round; only the final per-process
      outcomes survive.  The fastest mode, for high-volume sweeps.

    Decisions, decision rounds, and crash rounds are identical across
    policies for the same seeded execution — the policy changes what is
    *retained*, never what *happens*.
    """

    FULL = "full"
    SUMMARY = "summary"
    NONE = "none"


@dataclasses.dataclass(frozen=True)
class RoundSummary:
    """Streaming per-round aggregate kept under ``RecordPolicy.SUMMARY``."""

    round: int
    broadcast_count: int
    crashed_during: FrozenSet[ProcessId]
    decided_during: Mapping[ProcessId, Value]


# ----------------------------------------------------------------------
# The sqlite campaign store
# ----------------------------------------------------------------------
_CAMPAIGN_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    cell_tag   TEXT PRIMARY KEY,
    cell_seed  INTEGER NOT NULL,
    cell_index INTEGER NOT NULL,
    params     TEXT NOT NULL,
    status     TEXT NOT NULL,
    payload    TEXT,
    error      TEXT,
    elapsed    REAL,
    attempts   INTEGER NOT NULL DEFAULT 1
);
CREATE TABLE IF NOT EXISTS round_summaries (
    cell_seed       INTEGER NOT NULL,
    round           INTEGER NOT NULL,
    broadcast_count INTEGER NOT NULL,
    crashed_during  TEXT NOT NULL,
    decided_during  TEXT NOT NULL,
    PRIMARY KEY (cell_seed, round)
);
CREATE TABLE IF NOT EXISTS campaign_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def _pid_from_key(key: str) -> Any:
    """Best-effort inverse of the JSON string-keying of process ids."""
    try:
        return int(key)
    except (TypeError, ValueError):
        return key


#: Substrings marking an ``sqlite3.OperationalError`` as transient —
#: another writer holds the lock or the disk hiccuped — and therefore
#: worth a seeded-backoff retry rather than an immediate abort.
_TRANSIENT_SQLITE_MARKERS = ("locked", "busy", "disk is full")


def _is_transient_sqlite(exc: sqlite3.OperationalError) -> bool:
    text = str(exc).lower()
    return any(marker in text for marker in _TRANSIENT_SQLITE_MARKERS)


def _open_store(path: str, busy_timeout: float) -> sqlite3.Connection:
    """Connect to ``path`` as a campaign store: WAL, busy timeout, schema."""
    conn = sqlite3.connect(path, timeout=busy_timeout)
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute("PRAGMA synchronous=NORMAL")
    # The connect-time ``timeout`` installs a busy handler for this
    # Python wrapper; the PRAGMA makes the same budget explicit at the
    # engine level so *every* statement — including ones issued by
    # ATTACH-ed merge work — waits for a lock instead of failing
    # instantly.
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
    conn.executescript(_CAMPAIGN_SCHEMA)
    # Migrate pre-`attempts` stores in place: every checkpointed cell in
    # an old store ran exactly once as far as the retry budget is
    # concerned, so the column backfills to 1.
    cols = {row[1] for row in conn.execute("PRAGMA table_info(cells)")}
    if "attempts" not in cols:
        conn.execute(
            "ALTER TABLE cells ADD COLUMN attempts INTEGER NOT NULL DEFAULT 1"
        )
    conn.commit()
    return conn


#: One ``round_summaries`` row: ``(cell_seed, round, broadcast_count,
#: crashed_during JSON, decided_during JSON)``.
RoundRow = Tuple[int, int, int, str, str]

_INSERT_ROUNDS = (
    "INSERT OR REPLACE INTO round_summaries "
    "(cell_seed, round, broadcast_count, crashed_during, decided_during) "
    "VALUES (?, ?, ?, ?, ?)"
)
_DELETE_ROUNDS = "DELETE FROM round_summaries WHERE cell_seed = ?"
_INSERT_CELL = (
    "INSERT OR REPLACE INTO cells "
    "(cell_tag, cell_seed, cell_index, params, status, payload, "
    "error, elapsed, attempts) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)"
)
_INSERT_META = (
    "INSERT OR REPLACE INTO campaign_meta (key, value) VALUES (?, ?)"
)

#: A checkpoint batch is flushed as soon as the cells queued in it ran
#: this long in total (their summed ``elapsed``, seconds).  Between
#: flushes the queue holds less finished work than this, which is what
#: a killed campaign parent can lose beside its cells in flight; a cell
#: that alone runs this long commits on its own.
CHECKPOINT_BATCH_SECONDS: float = 0.1

#: ... or once it holds this many cells, so cells that finish in no
#: time (instant failures) cannot grow a batch without limit.
CHECKPOINT_BATCH_CELLS: int = 256

#: One queued store write: its Faultline operation key and the
#: ``(sql, rows)`` statements it runs, in order.
_QueuedWrite = Tuple[str, Tuple[Tuple[str, Sequence[tuple]], ...]]

#: ``(absolute store path, row list)`` while a campaign cell runs, else
#: ``None``; see :func:`round_outbox`.
_OUTBOX: Optional[Tuple[str, List[RoundRow]]] = None


@contextlib.contextmanager
def round_outbox(store_path: Optional[str]) -> Iterator[List[RoundRow]]:
    """Collect, instead of write, the round rows bound for ``store_path``.

    While the block runs, every :class:`SqliteSink` flush aimed at
    ``store_path`` appends its rows to the yielded list and opens no
    connection.  The campaign dispatcher arms it around every cell call
    (:func:`~repro.experiments.dispatch.execute_cell_job`), on a pool
    worker and in-process alike, and hands the rows back with the
    cell's result; the campaign parent inserts them together with the
    cell's checkpoint row, in the same transaction
    (:meth:`SqliteSink.record_cell`).  Sinks pointed at another path,
    and every sink when ``store_path`` is ``None``, write directly.
    Cell functions build their own sinks, so the outbox reaches them
    through this module rather than as an argument; leaving the block
    restores whatever was armed before it.
    """
    global _OUTBOX
    rows: List[RoundRow] = []
    previous = _OUTBOX
    _OUTBOX = (
        None if store_path is None
        else (os.path.abspath(store_path), rows)
    )
    try:
        yield rows
    finally:
        _OUTBOX = previous


class SqliteSink:
    """A round observer backed by one sqlite ``campaign.db``.

    Pass an instance as the ``observer`` of
    :meth:`~repro.core.execution.ExecutionEngine.run` (or the
    ``run_algorithm``/``run_consensus`` helpers) and each round's
    artifact, a :class:`RoundSummary` or a :class:`RoundRecord` reduced
    to its summary fields, becomes one row of the ``round_summaries``
    table, keyed on ``(cell_seed, round)`` — plus the campaign
    checkpoint layer the
    :class:`~repro.experiments.campaign.CampaignRunner` resumes from:
    a ``cells`` table with one row per finished sweep cell (its canonical
    coordinate tag, derived seed, grid index, status, and
    canonically-serialised payload), and a ``campaign_meta`` key/value
    table holding store-level identity (``base_seed``, the shard spec)
    that the campaign layer validates before mixing data from two runs.

    Concurrency: the database is opened in WAL journal mode with a busy
    timeout (both the connect-time handler and an explicit
    ``PRAGMA busy_timeout``), so readers never block the writer and a
    second writer waits for the lock instead of failing.  Inside a
    campaign the parent is the only writer: its cells hand their round
    rows back (:func:`round_outbox`) and open no connection, so two
    writers never contend for one ``campaign.db``.

    Durability — write-behind: every write (:meth:`record_cell`,
    :meth:`clear_rounds`, :meth:`set_meta`, and the rounds this sink
    observes) joins an in-memory queue, and :meth:`flush` applies the
    whole queue, in the order it was issued, in one transaction.  The
    queue is flushed before every read, so the sink reads its own
    writes; by :meth:`close`; and by :meth:`record_cell` once the
    queued cells' summed ``elapsed`` reaches
    :data:`CHECKPOINT_BATCH_SECONDS` or their count
    :data:`CHECKPOINT_BATCH_CELLS`.  A cell's round rows and its
    checkpoint row always land in the same batch, so a killed parent
    leaves both or neither; it loses the cells in flight plus the
    unflushed batch — under :data:`CHECKPOINT_BATCH_SECONDS` of finished
    work, plus the cell that was filling it — which a resume re-runs.
    Another connection reading the store sees only flushed batches.
    The store runs WAL with ``synchronous=NORMAL``: a flushed batch
    survives a killed process, but power loss or an operating-system
    crash can roll back the last flushed batches.  Inside a campaign
    cell this sink's observed rounds go to the cell's outbox instead of
    the queue.

    Resilience: every flush runs inside a guarded retry loop — a
    *transient* ``OperationalError`` (``database is locked``/``busy``,
    ``disk is full``) rolls the whole batch back and retries it with
    seeded exponential backoff and jitter, and only after the budget is
    exhausted does the sink raise a
    :class:`~repro.core.errors.ConfigurationError` explaining the likely
    cause (two hosts pointed at one store path) instead of a raw sqlite
    traceback.  The retry delays are derived from
    ``SHA-256(path | operation | attempt)`` (the batch's first
    operation), so a replayed campaign backs off identically.  When a
    :class:`~repro.testing.faultline.FaultPlan` is active (``fault_plan=``
    kwarg, the process-installed plan, or ``REPRO_FAULTLINE``) its
    ``sqlite`` site is consulted once per queued operation, under the
    operation's own key (``record-cell``, ``clear-rounds``,
    ``set-meta``, ``write-round``), on every attempt, inside the retried
    closure, so injected transient errors exercise exactly the
    production retry machinery.

    The connection opens lazily on first use, so an execution that
    raises before round 1 leaves no rows behind, and the sink is a
    context manager.  Writing rounds requires a
    ``cell_seed`` (the key rounds are filed under); store-only callers
    (the campaign runner, report generators) may omit it.
    ``rounds_written`` counts the rounds observed, flushed or not.
    """

    #: Attempts per guarded store write, first try included.
    MAX_SQLITE_ATTEMPTS: int = 5

    #: Base of the exponential backoff between retries (seconds).
    SQLITE_BACKOFF: float = 0.02

    def __init__(
        self,
        path: str,
        cell_seed: Optional[int] = None,
        busy_timeout: float = 30.0,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.path = path
        self.cell_seed = None if cell_seed is None else int(cell_seed)
        self.busy_timeout = busy_timeout
        self._conn: Optional[sqlite3.Connection] = None
        self._closed = False
        self._pending: List[RoundRow] = []
        self._queue: List[_QueuedWrite] = []
        self._queued_elapsed = 0.0
        self._queued_cells = 0
        self.rounds_written = 0
        self._fault_plan = fault_plan
        self._plan_cache: Optional[Any] = None
        self._plan_resolved = False

    # -- fault injection and transient-error retry ---------------------
    def _plan(self) -> Optional[Any]:
        """Resolve the active fault plan once, lazily.

        Imported lazily — :mod:`repro.testing` is a leaf consumer of
        :mod:`repro.core`, and the common no-plan case must not load it
        on the hot write path more than once per sink.
        """
        if not self._plan_resolved:
            from ..testing import faultline

            self._plan_cache = faultline.resolve(self._fault_plan)
            self._plan_resolved = True
        return self._plan_cache

    def _backoff_delay(self, op: str, attempt: int) -> float:
        """Seeded exponential backoff with jitter for retry ``attempt``.

        Deterministic per (store path, operation, attempt) so a
        replayed campaign sleeps the same schedule; the jitter factor
        in ``[0.5, 1.5)`` still de-synchronises distinct writers.
        """
        digest = hashlib.sha256(
            f"{self.path}|{op}|{attempt}".encode()
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2 ** 64
        return min(self.SQLITE_BACKOFF * (2 ** (attempt - 1)), 1.0) * jitter

    def _guarded(self, ops: Sequence[str], fn: Any) -> Any:
        """Run one store transaction under the transient-error retry loop.

        ``fn`` must be a closure over the *whole* transaction (connect
        included — a lock can bite the opening PRAGMAs too); ``ops`` are
        the Faultline keys of the operations it carries, each consulted
        once per attempt, and the first one keys the backoff.  A
        non-transient ``OperationalError`` propagates untouched; a
        transient one is retried ``MAX_SQLITE_ATTEMPTS`` times and then
        converted to a :class:`ConfigurationError` naming the usual
        suspect, because a lock that outlives the whole backoff budget
        is a deployment problem, not a hiccup.  Whatever ``fn`` raises,
        the connection is rolled back first, so neither a retry nor a
        later write on the connection builds on a half-written
        transaction.
        """
        plan = self._plan()
        last_exc: Optional[sqlite3.OperationalError] = None
        for attempt in range(1, self.MAX_SQLITE_ATTEMPTS + 1):
            try:
                if plan is not None:
                    for op in ops:
                        plan.sqlite_check(op)
                return fn()
            except sqlite3.OperationalError as exc:
                self._rollback()
                if not _is_transient_sqlite(exc):
                    raise
                last_exc = exc
                if attempt < self.MAX_SQLITE_ATTEMPTS:
                    time.sleep(self._backoff_delay(ops[0], attempt))
            except BaseException:
                self._rollback()
                raise
        raise ConfigurationError(
            f"sqlite store {self.path!r} still failing after "
            f"{self.MAX_SQLITE_ATTEMPTS} attempts ({last_exc}) — another "
            "process or host is holding this database (two campaigns or "
            "two shard hosts pointed at one path, or a shared/NFS mount); "
            "give each run its own store path"
        ) from last_exc

    # -- connection lifecycle ------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if self._closed:
            raise ConfigurationError(
                f"SqliteSink({self.path!r}) is closed; cannot touch the store"
            )
        if self._conn is None:
            self._conn = _open_store(self.path, self.busy_timeout)
        return self._conn

    def _rollback(self) -> None:
        """Undo whatever a failed operation left open on our connection."""
        if self._conn is not None and self._conn.in_transaction:
            self._conn.rollback()

    def disconnect(self) -> None:
        """Drop the underlying connection; the sink reopens lazily.

        Call this before forking worker processes: an sqlite connection
        must never cross a fork — the child's inherited descriptor can
        release the parent's POSIX locks and corrupt WAL recovery.  The
        campaign runner disconnects its store before every fan-out.
        Queued writes stay queued; the next flush reconnects.
        """
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _enqueue(self, op: str, *statements: Tuple[str, Sequence[tuple]]
                 ) -> None:
        """Queue one write: ``op`` is its Faultline key, ``statements``
        the ``(sql, rows)`` pairs it runs, in order."""
        if self._closed:
            raise ConfigurationError(
                f"SqliteSink({self.path!r}) is closed; cannot touch the store"
            )
        self._queue.append((op, statements))

    def _queue_observed_rounds(self) -> None:
        """Hand the observed rounds on: to the cell's outbox inside a
        campaign cell bound for this store (:func:`round_outbox`), else
        to the write queue."""
        if not self._pending:
            return
        rows, self._pending = self._pending, []
        outbox = _OUTBOX
        if outbox is not None and outbox[0] == os.path.abspath(self.path):
            outbox[1].extend(rows)
        else:
            self._enqueue("write-round", (_INSERT_ROUNDS, rows))

    def flush(self) -> None:
        """Apply every queued write, in issue order, in one transaction.

        The observed rounds join the queue first (inside a campaign
        cell they go to the cell's outbox instead).  The writes leave
        the queue before the transaction: if it fails even after the
        retry budget, the error propagates, none of the batch is in the
        store, and a later flush or :meth:`close` does not retry it.
        """
        self._queue_observed_rounds()
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        self._queued_elapsed = 0.0
        self._queued_cells = 0

        def write() -> None:
            conn = self._connect()
            for _op, statements in batch:
                for sql, rows in statements:
                    conn.executemany(sql, rows)
            conn.commit()

        self._guarded([op for op, _statements in batch], write)

    def close(self) -> None:
        try:
            self.flush()
        finally:
            self.disconnect()
            self._closed = True

    def __enter__(self) -> "SqliteSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the observer protocol -----------------------------------------
    def __call__(self, artifact: Union["RoundRecord", "RoundSummary"]) -> None:
        if self._closed:
            raise ConfigurationError(
                f"SqliteSink({self.path!r}) is closed; cannot stream rounds"
            )
        if self.cell_seed is None:
            raise ConfigurationError(
                "SqliteSink needs a cell_seed to file round summaries "
                "under; construct it as SqliteSink(path, cell_seed=...)"
            )
        # Almost every round crashes and decides nobody; the constants
        # are the bytes json.dumps returns for the empty list and dict.
        crashed = artifact.crashed_during
        decided = artifact.decided_during
        self._pending.append((
            self.cell_seed,
            artifact.round,
            artifact.broadcast_count,
            json.dumps(sorted(crashed, key=repr), default=str)
            if crashed else "[]",
            json.dumps(
                {str(pid): value for pid, value in decided.items()},
                sort_keys=True,
                default=str,
            ) if decided else "{}",
        ))
        self.rounds_written += 1

    def clear_rounds(self, cell_seed: int) -> None:
        """Drop every round summary filed under ``cell_seed``.

        The campaign runner calls this as it hands a cell out, so rounds
        of an earlier run of the cell can never linger past the new
        attempt's final round.  The delete is queued (see
        :meth:`flush`) behind the rounds this sink has observed so far,
        so it clears them too, and ahead of the cell's own checkpoint.
        """
        self._queue_observed_rounds()
        self._enqueue("clear-rounds", (_DELETE_ROUNDS, ((int(cell_seed),),)))

    def read_summaries(
        self, cell_seed: Optional[int] = None
    ) -> List[RoundSummary]:
        """Round summaries for one cell, ordered by round.

        Values round-trip through JSON, so non-JSON message/value
        payloads come back as their ``str`` forms.  Queued writes are
        flushed first, so outside a campaign cell a sink reads its own
        writes.
        """
        key = self.cell_seed if cell_seed is None else int(cell_seed)
        if key is None:
            raise ConfigurationError(
                "read_summaries needs a cell_seed (none bound to this sink)"
            )
        self.flush()
        rows = self._connect().execute(
            "SELECT round, broadcast_count, crashed_during, decided_during "
            "FROM round_summaries WHERE cell_seed = ? ORDER BY round",
            (key,),
        ).fetchall()
        return [
            RoundSummary(
                round=r,
                broadcast_count=bc,
                crashed_during=frozenset(
                    _pid_from_key(p) for p in json.loads(crashed)
                ),
                decided_during={
                    _pid_from_key(p): v
                    for p, v in json.loads(decided).items()
                },
            )
            for r, bc, crashed, decided in rows
        ]

    def round_aggregates(self) -> Dict[int, Tuple[int, float]]:
        """Per-cell aggregates over ``round_summaries`` in one query.

        Returns ``cell_seed -> (rounds, mean broadcast count)`` for every
        cell that streamed at least one round into the store — the
        backbone of the campaign's table report, computed inside sqlite
        so a million-round store never materialises its rows in Python.
        Queued writes are flushed first, as in :meth:`read_summaries`.
        """
        self.flush()
        rows = self._connect().execute(
            "SELECT cell_seed, COUNT(*), AVG(broadcast_count) "
            "FROM round_summaries GROUP BY cell_seed"
        ).fetchall()
        return {seed: (count, mean) for seed, count, mean in rows}

    # -- campaign cell checkpoints -------------------------------------
    def record_cell(
        self,
        tag: str,
        seed: int,
        index: int,
        params_text: str,
        status: str,
        payload_text: Optional[str] = None,
        error: Optional[str] = None,
        elapsed: Optional[float] = None,
        attempts: int = 1,
        rounds: Sequence[RoundRow] = (),
    ) -> None:
        """Checkpoint one finished cell (idempotent upsert, keyed on tag).

        ``attempts`` counts how many times the cell has run in total
        (first run included); the campaign's retry budget reads it back
        to decide whether a ``failed`` cell gets another pass.
        ``rounds`` are the round rows the cell handed back from its
        :func:`round_outbox`; they are queued with the cell row as one
        write, so the store holds both or neither.  The queue is flushed
        here once its cells' summed ``elapsed`` (``None`` counts as 0)
        reaches :data:`CHECKPOINT_BATCH_SECONDS` or it holds
        :data:`CHECKPOINT_BATCH_CELLS` cells; until then the checkpoint
        is in memory only (see :meth:`flush`).
        """
        self._enqueue(
            "record-cell",
            (_INSERT_ROUNDS, rounds),
            (_INSERT_CELL, ((tag, int(seed), int(index), params_text, status,
                             payload_text, error, elapsed, int(attempts)),)),
        )
        self._queued_elapsed += elapsed or 0.0
        self._queued_cells += 1
        if (self._queued_elapsed >= CHECKPOINT_BATCH_SECONDS
                or self._queued_cells >= CHECKPOINT_BATCH_CELLS):
            self.flush()

    def get_cells(self) -> Dict[str, Dict[str, Any]]:
        """All checkpointed cells as ``tag -> row`` (elapsed excluded —
        wall-clock noise never leaks into resume decisions or reports).
        Queued writes are flushed first."""
        self.flush()
        rows = self._connect().execute(
            "SELECT cell_tag, cell_seed, cell_index, params, status, "
            "payload, error, attempts FROM cells"
        ).fetchall()
        return {
            tag: {
                "cell_seed": seed,
                "cell_index": index,
                "params": params,
                "status": status,
                "payload": payload,
                "error": error,
                "attempts": attempts,
            }
            for tag, seed, index, params, status, payload, error, attempts
            in rows
        }

    def cell_count(self) -> int:
        """Number of checkpointed cells (one ``COUNT(*)``, no row fetch).
        Queued writes are flushed first."""
        self.flush()
        return self._connect().execute(
            "SELECT COUNT(*) FROM cells"
        ).fetchone()[0]

    # -- store-level metadata ------------------------------------------
    def set_meta(self, key: str, value: Any) -> None:
        """Record one store-level fact (JSON-serialised, upsert).

        The campaign layer stamps every store with its ``base_seed`` and
        shard spec on first use and validates them on every reopen, so
        two campaigns (or two shards of one campaign) can never silently
        mix their rows in one database.  Queued until the next flush,
        like every write.
        """
        self._enqueue(
            "set-meta",
            (_INSERT_META, ((key, json.dumps(value, sort_keys=True)),)),
        )

    def get_meta(self, key: str, default: Any = None) -> Any:
        """Read one store-level fact back (``default`` when unset).
        Queued writes are flushed first."""
        self.flush()
        row = self._connect().execute(
            "SELECT value FROM campaign_meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else json.loads(row[0])

    def fold_wal(self) -> None:
        """Checkpoint the WAL into the main file and leave WAL mode.

        After this returns, the database is one self-contained file —
        no ``-wal``/``-shm`` sidecars carry live data — which is what
        lets :func:`~repro.experiments.campaign.merge_campaign_stores`
        publish a merged store with a single atomic ``os.replace``.
        Queued writes are flushed first.
        """
        self.flush()
        conn = self._connect()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        conn.execute("PRAGMA journal_mode=DELETE")
        conn.commit()

    # -- shard merging -------------------------------------------------
    def merge_from(self, source_path: str) -> int:
        """Fold another store's ``cells`` and ``round_summaries`` into
        this one (the campaign shard-merge primitive).

        Uses sqlite ``ATTACH`` so the copy happens entirely inside the
        database engine, and plain ``INSERT`` (never ``OR REPLACE``) so
        a cell tag or ``(cell_seed, round)`` key present in both stores
        aborts loudly with :class:`~repro.core.errors.ConfigurationError`
        instead of silently clobbering a row — overlapping shards are a
        configuration error, not a tiebreak.  Returns the number of
        cells copied.  Caller-level validation (matching ``base_seed``,
        a complete non-overlapping shard set) lives in
        :func:`repro.experiments.campaign.merge_campaign_stores`;
        ``campaign_meta`` rows are deliberately *not* copied — the
        merged store's identity is stamped by the caller.  Queued writes
        are flushed first.
        """
        self.flush()
        conn = self._connect()
        conn.execute("ATTACH DATABASE ? AS shard_src", (source_path,))
        try:
            try:
                cur = conn.execute(
                    "INSERT INTO cells (cell_tag, cell_seed, cell_index, "
                    "params, status, payload, error, elapsed, attempts) "
                    "SELECT cell_tag, cell_seed, cell_index, params, "
                    "status, payload, error, elapsed, attempts "
                    "FROM shard_src.cells"
                )
                copied = cur.rowcount
                conn.execute(
                    "INSERT INTO round_summaries (cell_seed, round, "
                    "broadcast_count, crashed_during, decided_during) "
                    "SELECT cell_seed, round, broadcast_count, "
                    "crashed_during, decided_during "
                    "FROM shard_src.round_summaries"
                )
            except sqlite3.IntegrityError as exc:
                conn.rollback()
                raise ConfigurationError(
                    f"merging {source_path!r} into {self.path!r} hit a "
                    f"duplicate key ({exc}) — the stores hold overlapping "
                    "cells, so they are not disjoint shards of one grid"
                ) from exc
            conn.commit()
        finally:
            conn.execute("DETACH DATABASE shard_src")
        return copied


@dataclasses.dataclass(frozen=True)
class TransmissionEntry:
    """One entry ``(c, T)`` of a P-transmission trace (Definition 4).

    ``broadcasters`` is the paper's ``c`` (number of processes that sent a
    non-null message this round); ``received`` maps each process index to
    ``T(i)`` (the number of messages, with multiplicity, it received).
    """

    broadcasters: int
    received: Mapping[ProcessId, int]

    def loss_at(self, pid: ProcessId) -> int:
        """Number of messages process ``pid`` lost this round."""
        return self.broadcasters - self.received[pid]


@dataclasses.dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one synchronous round (1-based)."""

    round: int
    cm_advice: Mapping[ProcessId, ContentionAdvice]
    messages: Mapping[ProcessId, Optional[Message]]
    received: Mapping[ProcessId, Multiset]
    cd_advice: Mapping[ProcessId, CollisionAdvice]
    crashed_during: FrozenSet[ProcessId]
    decided_during: Mapping[ProcessId, Value]

    @property
    def broadcasters(self) -> Tuple[ProcessId, ...]:
        """Indices that broadcast a non-null message this round."""
        return tuple(
            sorted(i for i, m in self.messages.items() if m is not None)
        )

    @property
    def broadcast_count(self) -> int:
        """The paper's ``c`` for this round."""
        return sum(1 for m in self.messages.values() if m is not None)

    def transmission_entry(self) -> TransmissionEntry:
        """This round's ``(c, T)`` transmission-trace entry."""
        return TransmissionEntry(
            broadcasters=self.broadcast_count,
            received={i: len(ms) for i, ms in self.received.items()},
        )


class ExecutionResult:
    """A finite execution prefix plus final per-process outcomes.

    The result is the primary object consumed by the consensus checker, the
    trace validators, the lower-bound machinery, and the experiment
    harness.

    Under ``RecordPolicy.SUMMARY`` or ``NONE`` no per-round records are
    retained: final outcomes (decisions, decision rounds, crash rounds)
    are always present, but ``records`` itself and the trace accessors
    (``transmission_trace``, ``cd_trace``, ``cm_trace``, ``view``)
    require ``FULL`` and raise
    :class:`~repro.core.errors.ConfigurationError` otherwise — a trace
    validator handed a streaming result must fail loudly, never pass
    vacuously over zero rounds.
    """

    def __init__(
        self,
        indices: Sequence[ProcessId],
        records: List[RoundRecord],
        decisions: Mapping[ProcessId, Optional[Value]],
        decision_rounds: Mapping[ProcessId, Optional[int]],
        crash_rounds: Mapping[ProcessId, Optional[int]],
        initial_values: Optional[Mapping[ProcessId, Value]] = None,
        cst: Optional[int] = None,
        record_policy: RecordPolicy = RecordPolicy.FULL,
        summaries: Optional[List[RoundSummary]] = None,
        rounds: Optional[int] = None,
        leave_rounds: Optional[Mapping[ProcessId, Optional[int]]] = None,
        rejoin_counts: Optional[Mapping[ProcessId, int]] = None,
        departed_decisions: Sequence[Tuple[ProcessId, Value, int]] = (),
    ) -> None:
        self.indices: Tuple[ProcessId, ...] = tuple(sorted(indices))
        self._records = records
        self.decisions = dict(decisions)
        self.decision_rounds = dict(decision_rounds)
        self.crash_rounds = dict(crash_rounds)
        self.initial_values = dict(initial_values) if initial_values else None
        self.cst = cst
        self.record_policy = record_policy
        self.summaries: List[RoundSummary] = summaries or []
        self._rounds = len(records) if rounds is None else rounds
        #: pid -> round of its still-standing departure (``0`` for
        #: initially-absent pids that never joined); ``None``/missing for
        #: pids present at the end.  Empty for churn-free executions.
        self.leave_rounds: Dict[ProcessId, Optional[int]] = {
            pid: r
            for pid, r in dict(leave_rounds or {}).items()
            if r is not None
        }
        #: pid -> number of (re)joins it performed (fresh-state entries
        #: beyond its initial spawn).  Empty for churn-free executions.
        self.rejoin_counts: Dict[ProcessId, int] = {
            pid: c for pid, c in dict(rejoin_counts or {}).items() if c
        }
        #: Decisions by process incarnations that later churned out:
        #: ``(pid, value, leave_round)`` in departure order.  The current
        #: incarnation's decision lives in ``decisions``; agreement over
        #: the whole execution must consider both (a rejoined process has
        #: forgotten — and may contradict — its ghost decision).
        self.departed_decisions: Tuple[Tuple[ProcessId, Value, int], ...] = (
            tuple(departed_decisions)
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Number of simulated rounds."""
        return self._rounds

    @property
    def records(self) -> List[RoundRecord]:
        """The retained :class:`RoundRecord` list (``FULL`` policy only).

        Raises under ``SUMMARY``/``NONE`` rather than returning an empty
        list, so code iterating records can never silently conclude
        "nothing happened" about an execution that simply wasn't
        recorded.
        """
        self._require_full("records")
        return self._records

    def _require_full(self, what: str) -> None:
        if self.record_policy is not RecordPolicy.FULL:
            raise ConfigurationError(
                f"{what} requires RecordPolicy.FULL; this execution ran "
                f"with RecordPolicy.{self.record_policy.name}"
            )

    def correct_indices(self) -> Tuple[ProcessId, ...]:
        """Indices of processes that never crashed (Definition 13)."""
        return tuple(
            i for i in self.indices if self.crash_rounds.get(i) is None
        )

    def crashed_indices(self) -> Tuple[ProcessId, ...]:
        """Indices of processes that crashed at some round."""
        return tuple(
            i for i in self.indices if self.crash_rounds.get(i) is not None
        )

    @property
    def churned(self) -> bool:
        """True when membership ever changed under a churn adversary."""
        return bool(self.leave_rounds) or bool(self.rejoin_counts)

    def present_indices(self) -> Tuple[ProcessId, ...]:
        """Indices present at the end: neither crashed nor departed.

        The dynamic-membership analogue of :meth:`correct_indices` —
        agreement-quality metrics (decision rate, termination) are taken
        over the processes actually in the system when the run stopped.
        Identical to ``correct_indices()`` for churn-free executions.
        """
        return tuple(
            i for i in self.indices
            if self.crash_rounds.get(i) is None
            and self.leave_rounds.get(i) is None
        )

    def all_decided_values(self) -> Tuple[Value, ...]:
        """Every value ever decided, ghost (departed) incarnations included.

        Sorted by repr for determinism.  More than one distinct value
        here is a system-level agreement violation even if the *current*
        decisions agree — a rejoined process may have contradicted the
        decision its departed incarnation made.
        """
        values = {v for v in self.decisions.values() if v is not None}
        values.update(v for _, v, _ in self.departed_decisions)
        return tuple(sorted(values, key=repr))

    def decided_values(self) -> Dict[ProcessId, Value]:
        """Map of process index to decided value, decided processes only."""
        return {i: v for i, v in self.decisions.items() if v is not None}

    @property
    def no_correct_processes(self) -> bool:
        """True when every process crashed — the degenerate outcome in
        which the consensus properties hold only vacuously."""
        return not self.correct_indices()

    def all_correct_decided(self) -> bool:
        """True when every correct process has decided.

        Deliberately **not** vacuous: when every process crashed this
        returns False (check :attr:`no_correct_processes` to distinguish
        the all-crashed outcome from a genuine termination failure).
        """
        correct = self.correct_indices()
        return bool(correct) and all(
            self.decisions.get(i) is not None for i in correct
        )

    def last_decision_round(self) -> Optional[int]:
        """Latest decision round among correct processes, if all decided."""
        if not self.all_correct_decided():
            return None
        rounds = [self.decision_rounds[i] for i in self.correct_indices()]
        return max(rounds) if rounds else None

    def last_present_decision_round(self) -> Optional[int]:
        """Latest decision round among *present* processes, if all decided.

        The churn-aware termination metric: :meth:`last_decision_round`
        counts permanently-departed pids as correct-but-undecided (they
        never crashed) and so reports ``None`` for any execution that
        ends with someone churned out.  Identical to it when membership
        is static.
        """
        present = self.present_indices()
        if not present or any(
            self.decisions.get(i) is None for i in present
        ):
            return None
        return max(self.decision_rounds[i] for i in present)

    # ------------------------------------------------------------------
    # Traces
    # ------------------------------------------------------------------
    def transmission_trace(self) -> List[TransmissionEntry]:
        """The execution's transmission trace (Definition 4 prefix)."""
        self._require_full("transmission_trace")
        return [rec.transmission_entry() for rec in self.records]

    def cd_trace(self) -> List[Mapping[ProcessId, CollisionAdvice]]:
        """The execution's CD trace (Definition 5 prefix)."""
        self._require_full("cd_trace")
        return [rec.cd_advice for rec in self.records]

    def cm_trace(self) -> List[Mapping[ProcessId, ContentionAdvice]]:
        """The execution's CM trace (Definition 7 prefix)."""
        self._require_full("cm_trace")
        return [rec.cm_advice for rec in self.records]

    def broadcast_count_sequence(self, through_round: Optional[int] = None):
        """Basic broadcast count sequence (Definition 22).

        Each round maps to ``0``, ``1``, or ``'2+'`` according to how many
        processes broadcast.  Available under ``FULL`` and ``SUMMARY``
        record policies (the summary retains broadcast counts).
        """
        upto = self.rounds if through_round is None else min(
            through_round, self.rounds
        )
        if self.record_policy is RecordPolicy.FULL:
            counts = (rec.broadcast_count for rec in self.records[:upto])
        elif self.record_policy is RecordPolicy.SUMMARY:
            counts = (s.broadcast_count for s in self.summaries[:upto])
        else:
            raise ConfigurationError(
                "broadcast_count_sequence requires RecordPolicy.FULL or "
                "SUMMARY; this execution ran with RecordPolicy.NONE"
            )
        return tuple(c if c < 2 else "2+" for c in counts)

    # ------------------------------------------------------------------
    # Per-process views
    # ------------------------------------------------------------------
    def view(
        self, pid: ProcessId, through_round: Optional[int] = None
    ) -> List[Tuple[Optional[Message], Multiset, CollisionAdvice, ContentionAdvice]]:
        """Process ``pid``'s observable history ``(M, N, D, W)`` per round.

        This is the observable part of Definition 12's indistinguishability:
        for a deterministic automaton with a fixed start state, equal views
        imply equal state sequences.
        """
        self._require_full("view")
        upto = self.rounds if through_round is None else min(
            through_round, self.rounds
        )
        history = []
        for rec in self.records[:upto]:
            history.append(
                (
                    rec.messages[pid],
                    rec.received[pid],
                    rec.cd_advice[pid],
                    rec.cm_advice[pid],
                )
            )
        return history


def indistinguishable(
    a: ExecutionResult,
    b: ExecutionResult,
    pid: ProcessId,
    through_round: int,
    pid_b: Optional[ProcessId] = None,
) -> bool:
    """Definition 12: is ``a`` indistinguishable from ``b`` w.r.t. ``pid``?

    Compares the observable view (messages sent, messages received,
    collision advice, contention advice) through ``through_round``.  Pass
    ``pid_b`` to compare process ``pid`` in ``a`` against a *different*
    index in ``b`` (used by the anonymous symmetry arguments of Lemma 20).
    """
    other = pid if pid_b is None else pid_b
    if a.initial_values is not None and b.initial_values is not None:
        if a.initial_values.get(pid) != b.initial_values.get(other):
            return False
    return a.view(pid, through_round) == b.view(other, through_round)
