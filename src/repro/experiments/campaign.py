"""Checkpointing campaign runner: the one grid runner, over sqlite.

:class:`CampaignRunner` runs a grid of cells — streamed by
:func:`~repro.experiments.harness.iter_cells`, seeded by
:func:`~repro.experiments.harness.cell_seed` — through the
:class:`~repro.experiments.dispatch.CampaignDispatcher` pool, with
durable, cell-granular checkpoints in a single ``campaign.db`` (see
:class:`~repro.core.records.SqliteSink`), so a crash, timeout, or CI
cancellation loses the in-flight cells plus under 0.1 s of finished
work:

* **Checkpointing** — every finished cell is checkpointed into the
  ``cells`` table as it completes (in completion order, not submission
  order, under the pooled paths), keyed on its canonical coordinate tag.
  The store writes behind: checkpoints queue in memory and commit in
  batches, one transaction each, as soon as the queued cells' summed
  run time reaches :data:`~repro.core.records.CHECKPOINT_BATCH_SECONDS`
  (0.1 s; or :data:`~repro.core.records.CHECKPOINT_BATCH_CELLS` cells),
  at the end of every pass, and before any read of the store.  Killing
  the campaign at any point loses the cells still in flight on the
  workers plus the unflushed batch — under 0.1 s of finished work and
  the cell that was filling it — and a resume re-runs exactly those.
  A live reader on another connection sees only committed batches.
  The runner is the store's only writer: a cell's sinks hand their
  ``round_summaries`` rows back with its result
  (:func:`~repro.core.records.round_outbox`), and a ``done`` cell's
  rows commit in the same transaction as its checkpoint row.  A killed,
  timed-out or failed attempt never writes a row.
* **Resume** — :meth:`CampaignRunner.resume` queries the store first and
  only runs cells that are not already checkpointed (``failed`` cells
  are retried while their attempt count is within the ``max_retries``
  budget; ``done`` and ``timed_out`` cells — and ``failed`` cells whose
  budget is exhausted — are skipped).  Resume is *idempotent*: with the
  same ``base_seed`` and the same grid, the merged outcomes — and the
  byte content of :meth:`report` — are identical whether the grid ran
  in one pass or across N interrupted passes, because every payload is
  canonically JSON-serialised on the way into the store and all merging
  reads back out of the store.
* **One dispatcher** — every configuration routes through
  :class:`~repro.experiments.dispatch.CampaignDispatcher`: a persistent
  pool of worker processes driven by a selector event loop over the
  worker pipes.  ``processes`` sets the pool width (``None`` = CPU
  count; ``0``/``1`` = a one-worker pool — still worker reuse, still
  deadlines, just no parallelism) and ``cell_timeout`` optionally arms
  one parent-tracked wall-clock deadline per in-flight cell.  A cell
  that exceeds its budget has its worker terminated (terminate→kill
  escalation, so a SIGTERM-ignoring cell cannot hang the grid) and
  **replaced**, keeping the pool at full width while the cell is
  checkpointed ``timed_out`` and the grid keeps moving; a worker that
  dies mid-cell checkpoints its cell ``failed`` the same way.  The pool
  is *persistent within one runner lifetime*: workers park on their
  pipes between ``resume()`` calls and are reused by the next pass
  (asserted by a worker-pid test), so a campaign loop does not pay a
  pool spin-up per pass.  Call :meth:`CampaignRunner.close` (or use
  the runner as a context manager) for the deterministic teardown;
  ``in_process=True`` is the debugger escape hatch that skips workers
  entirely (and cannot enforce timeouts).
* **Failure isolation** — a cell that raises is checkpointed as
  ``failed`` (with the exception's repr) and the campaign moves on;
  one bad cell never aborts the grid.  Each run increments the cell's
  ``attempts`` count; once a failed cell has been run
  ``1 + max_retries`` times it is left permanently ``failed`` — resume
  converges instead of re-crashing it forever.
* **Distributed sharding** — one grid, many hosts: :func:`shard_of`
  deterministically assigns every cell to one of K shards (SHA-256 of
  its canonical coordinate tag, mod K), :func:`shard_cells` streams a
  shard lazily into the dispatcher's iterator seam, and a runner
  constructed with ``shard_index``/``shard_count`` runs exactly its
  shard into its own WAL store with resume/retry/timeout semantics
  unchanged.  :func:`merge_campaign_stores` folds the K shard stores
  into one store whose :meth:`CampaignRunner.report` bytes equal an
  uninterrupted single-host run — and rejects mismatched base_seeds,
  overlapping shards, and missing shards loudly.  ``python -m repro
  campaign shard --index i --of k`` / ``campaign merge`` are the CLI
  face; ``docs/campaigns.md`` is the operator guide.

Seeds come from :func:`~repro.experiments.harness.cell_seed` over the
grid coordinates only.  Infrastructure parameters that must not perturb
seeding or cell identity (a database path) go in ``extra_params``: they
are merged into the cell function's ``params`` at execution time but
excluded from the tag, the seed, and the report's ``params``, so two
campaigns over the same grid agree cell-for-cell even when their
databases live in different directories.  Byte-stable reports
additionally need the *payload* to be a deterministic function of
``(grid params, seed)``, as ``consensus_sweep_cell``'s is.

Experiments that want a table rather than a store run one pass over a
throwaway store with :func:`run_grid` (E3, E17), which raises unless
every cell finishes ``done``; :func:`campaign_store` is that throwaway
store.  A campaign family (E18, E19) is one :class:`CampaignFamily`
record — cell function, default and ``--quick`` grids, grouped table —
and :func:`run_family` runs one over a kept or throwaway store.

Example::

    runner = CampaignRunner(
        consensus_sweep_cell, db_path="campaign.db", base_seed=7,
        processes=4, cell_timeout=30.0,
    )
    outcomes = runner.resume(
        n=[4, 16], detector=["0-OAC", "maj-OAC"], loss_rate=[0.1, 0.3],
        trial=range(5),
    )                       # first call: runs everything, 4 cells at a time
    outcomes = runner.resume(
        n=[4, 16], detector=["0-OAC", "maj-OAC"], loss_rate=[0.1, 0.3],
        trial=range(5),
    )                       # second call: all cells checkpointed, no work
    print(runner.report(n=[4, 16], ...))   # canonical JSON, byte-stable

(Replicates sweep as a ``trial`` axis, which folds into each cell's
*derived* seed; a literal ``seed`` axis would override the derived seed
inside ``consensus_sweep_cell`` and make cells sharing a seed value
clobber each other's ``(cell_seed, round)`` rows in the shared
``round_summaries`` table.)
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import shutil
import tempfile
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..adversary.loss import RNG_BACKEND
from ..core.errors import ConfigurationError
from ..core.records import SqliteSink
from ..testing import faultline
from .dispatch import CampaignDispatcher, CellResult
from .harness import SweepCell, Table, iter_cells

#: Cell statuses a resume does not re-run.
SKIP_STATUSES: Tuple[str, ...] = ("done", "timed_out")

#: Cell statuses a resume retries (subject to the ``max_retries`` budget).
RETRY_STATUSES: Tuple[str, ...] = ("failed",)


def cell_tag(cell: SweepCell) -> str:
    """The canonical, cross-run-stable identity of one grid cell.

    The cell's :func:`~repro.experiments.harness.coordinate_text`, built
    once when the grid is derived — the same text its seed comes from —
    so the tag is independent of grid order, worker scheduling, and
    which pass of a resumed campaign ran it.
    """
    return cell.tag


def shard_of(tag: str, shard_count: int) -> int:
    """Which of ``shard_count`` hosts owns the cell with this tag.

    The stable hash of the cell's canonical coordinate tag, mod K —
    SHA-256, like :func:`~repro.experiments.harness.cell_seed`, so the
    assignment is identical in every process, on every platform, in
    every run (no ``PYTHONHASHSEED`` dependence), and independent of
    grid order.  Because the tag excludes ``extra_params`` (infra
    paths), the same cell maps to the same shard no matter where each
    host keeps its database.
    """
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}"
        )
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % shard_count


def shard_cells(
    cells: Iterable[SweepCell], shard_index: int, shard_count: int
) -> Iterator[SweepCell]:
    """Lazily yield the cells of one shard, in grid order.

    A generator, not a list: it plugs straight into
    :meth:`~repro.experiments.dispatch.CampaignDispatcher.run`'s lazy
    cell-source seam, so a shard host never materialises the other
    hosts' share of a multi-million-cell grid.  The K shards partition
    the grid — every cell appears in exactly one shard — which is what
    makes the merged store's :meth:`CampaignRunner.report` bytes equal
    a single-host run.
    """
    _validate_shard(shard_index, shard_count)
    for cell in cells:
        if shard_of(cell_tag(cell), shard_count) == shard_index:
            yield cell


def _validate_shard(shard_index: int, shard_count: int) -> None:
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}"
        )
    if not 0 <= shard_index < shard_count:
        raise ConfigurationError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )


def _payload_text(payload: Any) -> str:
    """Canonical JSON for a cell payload (sorted keys, str fallback)."""
    return json.dumps(payload, sort_keys=True, default=str)


def _params_text(cell: SweepCell) -> str:
    return json.dumps(dict(cell.params), sort_keys=True, default=str)


@dataclasses.dataclass(frozen=True)
class CampaignOutcome:
    """One checkpointed cell read back from the campaign store.

    ``payload`` is the JSON round-trip of what the cell function
    returned (``None`` unless ``status == "done"``): int dict keys
    become strings, tuples become lists — identical whether the cell ran
    in this pass or a previous one, which is what makes resumed reports
    byte-stable.  ``attempts`` counts how many times the cell has run
    in total (retries included).
    """

    cell: SweepCell
    status: str
    payload: Any = None
    error: Optional[str] = None
    attempts: int = 1

    @property
    def params(self) -> Dict[str, Any]:
        return self.cell.as_dict()


class CampaignRunner:
    """A resumable, checkpointing wrapper around the sweep machinery.

    Parameters
    ----------
    cell_fn:
        A picklable top-level callable ``fn(params, seed) -> payload``;
        the payload must be JSON-serialisable up to ``str`` fallback.
    db_path:
        The campaign's sqlite store.  One database is one campaign:
        reusing a database with a different ``base_seed`` or a
        conflicting grid raises instead of silently mixing results.
    base_seed:
        Folded into every cell's deterministic seed.
    processes:
        Dispatcher pool width (``None`` picks the CPU count; ``0``/``1``
        mean a *one-worker pool*, not in-process execution — worker
        reuse and deadline enforcement are universal).  Fewer workers
        are spawned when the grid never keeps the full width busy.
    cell_timeout:
        Per-cell wall-clock budget in seconds, enforced at every pool
        width.  Overrunning cells have their worker terminated
        (terminate→kill escalation) and *replaced* while the cell is
        checkpointed ``timed_out`` and the grid keeps moving.  When
        worker processes are unavailable (sandboxed platforms), cells
        run in-process with a warning and the timeout is not enforced.
    in_process:
        Debug escape hatch (CLI ``--in-process``): run cells serially
        inside this process — no workers, no pickling, timeouts
        unenforced.  Reports are byte-identical to any pooled
        configuration of the same grid; this is the serial reference
        the parity suite compares against.
    max_retries:
        How many times a ``failed`` cell may be *re*-run by later
        resumes (default 2, i.e. at most ``1 + max_retries`` total
        attempts).  A cell that exhausts the budget stays ``failed``
        permanently and is skipped, so resuming a campaign with a
        deterministically-crashing cell converges instead of busy-work
        retrying forever.
    extra_params:
        Non-coordinate parameters merged into ``params`` at execution
        time only — excluded from seeding, cell identity, and reports.
    fault_plan:
        Optional :class:`~repro.testing.faultline.FaultPlan` threaded
        through the dispatcher and every store the runner opens.
        ``None`` falls back to the process-installed plan or the
        ``REPRO_FAULTLINE`` environment variable; no plan anywhere is
        the (cheap) common case.
    stall_timeout:
        Optional dispatcher stall watchdog in seconds: a busy worker
        silent for this long (no heartbeat) is killed and replaced and
        its cell checkpoints ``failed`` — retryable on resume — even
        with ``cell_timeout`` unset.  Slow-but-heartbeating cells are
        never touched.
    shard_index, shard_count:
        Distributed sharding: this runner owns shard ``shard_index`` of
        a grid split deterministically across ``shard_count`` hosts
        (:func:`shard_of` over each cell's canonical coordinate tag).
        Every grid operation — resume, outcomes, report — is scoped to
        the shard's cells, fed lazily to the dispatcher by
        :func:`shard_cells`.  The default ``0``/``1`` *is* the
        single-host campaign (one shard owning everything), so sharding
        adds no fourth code path.  The store is stamped with the shard
        spec (and ``base_seed`` and the RNG backend) on first use and
        every reopen validates it, so a shard database can never
        silently absorb another shard's — or an unsharded run's — cells,
        and a store the retired numpy backend filled is refused by name.
    """

    def __init__(
        self,
        cell_fn: Callable[[Dict[str, Any], int], Any],
        db_path: str,
        base_seed: int = 0,
        processes: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        max_retries: int = 2,
        extra_params: Optional[Mapping[str, Any]] = None,
        in_process: bool = False,
        shard_index: int = 0,
        shard_count: int = 1,
        fault_plan: Optional["faultline.FaultPlan"] = None,
        stall_timeout: Optional[float] = None,
    ) -> None:
        self.cell_fn = cell_fn
        self.db_path = str(db_path)
        self.base_seed = base_seed
        self.processes = processes
        self.cell_timeout = cell_timeout
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.max_retries = int(max_retries)
        _validate_shard(shard_index, shard_count)
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        self.extra_params = dict(extra_params or {})
        # The one dispatcher every configuration routes through.  Its
        # pool is persistent across resume() passes within one runner
        # lifetime (spawning a worker costs a fork plus a pipe, so
        # back-to-back resumes — the normal campaign loop — must not
        # pay it per pass); close() is the deterministic teardown.
        self._dispatcher = CampaignDispatcher(
            cell_fn,
            extra_params=self.extra_params,
            processes=processes,
            cell_timeout=cell_timeout,
            in_process=in_process,
            fault_plan=fault_plan,
            stall_timeout=stall_timeout,
        )
        # The dispatcher already resolved kwarg > installed > env; reuse
        # its answer so the runner's stores consult the same plan.
        self.fault_plan = self._dispatcher.fault_plan
        self.stall_timeout = self._dispatcher.stall_timeout
        #: Worker-reuse accounting for the most recent pass that ran
        #: cells: ``{"cells", "distinct_worker_pids", "in_process"}``
        #: (``None`` until a pass dispatches work).  Benchmarks publish
        #: this so a regression to spawn-per-cell is visible.
        self.last_dispatch_stats: Optional[Dict[str, Any]] = None
        # Every grid this runner has derived, keyed on the repr of its
        # axes: resume, report and report_table of one grid derive it
        # once.
        self._grids: Dict[str, List[SweepCell]] = {}

    # ------------------------------------------------------------------
    @property
    def dispatcher(self) -> CampaignDispatcher:
        """The runner's persistent dispatcher (one per runner lifetime)."""
        return self._dispatcher

    def close(self) -> None:
        """Deterministically tear down the dispatcher pool (idempotent).

        Every parked worker gets the shutdown sentinel, pipes are
        closed, and processes are joined within the grace period —
        terminate→kill for stragglers.  The runner remains usable
        afterwards: the next pass simply respawns its workers.
        """
        self._dispatcher.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def cells(self, **axes: Iterable[Any]) -> List[SweepCell]:
        """The seeded grid, scoped to this runner's shard (grid order).

        Shard 0/1 — the default — is the whole grid.  Cell indices and
        seeds always come from *full-grid* enumeration (the shard filter
        runs over the lazily streamed grid afterwards), so a cell's
        identity — tag, seed, index — is identical on every host
        regardless of how many shards the grid is split into.  Each
        grid is derived once per runner; every call returns a fresh
        list.
        """
        grid = {name: list(values) for name, values in axes.items()}
        key = repr(grid)
        cells = self._grids.get(key)
        if cells is None:
            stream = iter_cells(self.base_seed, **grid)
            if self.shard_count > 1:
                stream = shard_cells(stream, self.shard_index,
                                     self.shard_count)
            cells = self._grids[key] = list(stream)
        return list(cells)

    # ------------------------------------------------------------------
    def resume(
        self, max_cells: Optional[int] = None, **axes: Iterable[Any]
    ) -> List[CampaignOutcome]:
        """Run every cell not already checkpointed; return merged outcomes.

        ``max_cells`` bounds how many *pending* cells this pass runs
        (the deterministic interruption used by tests and the CI resume
        smoke); the merged outcome list covers every cell present in the
        store after the pass, in grid order.
        """
        cells = self.cells(**axes)
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            existing = store.get_cells()
            pending = []
            prior_attempts: Dict[int, int] = {}
            for cell in cells:
                tag = cell_tag(cell)
                row = existing.get(tag)
                if row is not None:
                    if row["cell_seed"] != cell.seed:
                        raise ConfigurationError(
                            f"campaign db {self.db_path!r} holds cell "
                            f"{tag!r} with seed {row['cell_seed']}, but "
                            f"this grid derives seed {cell.seed} — the "
                            "store belongs to a different base_seed/grid"
                        )
                    if row["status"] in SKIP_STATUSES:
                        continue
                    if (row["status"] in RETRY_STATUSES
                            and row["attempts"] > self.max_retries):
                        # Retry budget exhausted: 1 + max_retries runs
                        # already happened; the cell stays failed
                        # permanently and resume converges.
                        continue
                    prior_attempts[cell.index] = row["attempts"]
                pending.append(cell)
            if max_cells is not None:
                pending = pending[:max_cells]
            if pending:
                self._run_pending(store, pending, prior_attempts)
            return self._merge(store, cells)

    # ------------------------------------------------------------------
    def _check_store_identity(self, store: SqliteSink) -> None:
        """Stamp (first use) or validate (reopen) the store's identity.

        One database is one (campaign, shard, RNG backend): its
        ``base_seed``, shard spec and ``rng_backend`` are written into
        ``campaign_meta`` the first time a runner touches it and must
        match exactly on every later open — a shard store can never
        silently absorb another shard's cells, an unsharded resume can
        never backfill a shard store into a corrupt "almost full" grid,
        and a store filled by the retired numpy backend, whose loss
        streams differ, can never be resumed or reported
        (:func:`check_rng_backend`).  Stores that predate a stamp (or
        were produced by :func:`merge_campaign_stores`, which stamps
        shard 0/1) are stamped with the current value in place.
        """
        stored_seed = store.get_meta("base_seed")
        if stored_seed is not None and stored_seed != self.base_seed:
            raise ConfigurationError(
                f"campaign db {self.db_path!r} was created with "
                f"base_seed {stored_seed}, but this runner uses a "
                f"different base_seed {self.base_seed} — one store is "
                "one campaign"
            )
        mine = {"count": self.shard_count, "index": self.shard_index}
        stored_shard = store.get_meta("shard")
        if stored_shard is not None and stored_shard != mine:
            raise ConfigurationError(
                f"campaign db {self.db_path!r} belongs to shard "
                f"{stored_shard['index']}/{stored_shard['count']}, but "
                f"this runner is shard {self.shard_index}/"
                f"{self.shard_count} — one store is one shard; use "
                "merge_campaign_stores to combine shards instead of "
                "resuming across specs"
            )
        stored_backend = store.get_meta("rng_backend")
        check_rng_backend(self.db_path, stored_backend)
        if stored_seed is None:
            store.set_meta("base_seed", self.base_seed)
        if stored_shard is None:
            store.set_meta("shard", mine)
        if stored_backend is None:
            store.set_meta("rng_backend", RNG_BACKEND)

    # ------------------------------------------------------------------
    def _checkpoint(
        self,
        store: SqliteSink,
        cell: SweepCell,
        result: CellResult,
        attempts: int,
    ) -> None:
        """Checkpoint one finished cell: its row plus the round rows it
        handed back (only a ``done`` cell hands any back), queued as
        one write of the store's next batch."""
        done = result.status == "done"
        store.record_cell(
            tag=cell_tag(cell),
            seed=cell.seed,
            index=cell.index,
            params_text=_params_text(cell),
            status=result.status,
            payload_text=_payload_text(result.payload) if done else None,
            error=result.error,
            elapsed=result.elapsed,
            attempts=attempts,
            rounds=result.rounds,
        )

    def _run_pending(
        self,
        store: SqliteSink,
        pending: Sequence[SweepCell],
        prior_attempts: Mapping[int, int],
    ) -> None:
        """Dispatch every pending cell and checkpoint in completion order.

        All of it — serial or parallel, with or without deadlines — is
        one :meth:`CampaignDispatcher.run` call.  ``pre_fork`` points at
        ``store.disconnect``: the dispatcher invokes it immediately
        before *every* worker spawn (first fill and replacements alike),
        which is where the "never fork with a live sqlite connection"
        invariant is enforced for the runner's store — a batch commit
        between completions reopens it lazily, and disconnecting keeps
        the queued checkpoints.  ``store_path`` makes every cell hand
        its round rows for this store back instead of writing them, so
        this process is the store's only writer.  The pass ends by
        committing the last batch, so every cell it ran is durable when
        it returns.
        """
        attempts = {
            cell.index: prior_attempts.get(cell.index, 0) + 1
            for cell in pending
        }
        pids = set()

        def checkpoint(cell: SweepCell, result: CellResult) -> None:
            self._checkpoint(store, cell, result, attempts[cell.index])
            if result.worker_pid is not None:
                pids.add(result.worker_pid)

        def feed() -> Iterator[SweepCell]:
            # The dispatcher pulls this generator lazily, one cell per
            # freed worker slot (the same seam the shard filter rides).
            # A pending cell may already hold rows (left by a killed
            # worker of a version that wrote them itself, or by a sink
            # that named the store by another path); queue their delete
            # as the cell is handed out, ahead of its checkpoint, so
            # stale rows never linger past the new attempt's final
            # round.
            for cell in pending:
                store.clear_rounds(cell.seed)
                yield cell

        self._dispatcher.run(feed(), checkpoint,
                             pre_fork=store.disconnect,
                             store_path=self.db_path)
        store.flush()
        self.last_dispatch_stats = {
            "cells": len(pending),
            "distinct_worker_pids": len(pids),
            "in_process": self._dispatcher.in_process,
        }

    # ------------------------------------------------------------------
    def _stored(
        self, store: SqliteSink, cells: Sequence[SweepCell]
    ) -> List[Tuple[SweepCell, Dict[str, Any]]]:
        """``(cell, row)`` for every cell of ``cells`` the store holds,
        in grid order, with each row's seed checked against the grid."""
        rows = store.get_cells()
        stored = []
        for cell in cells:
            row = rows.get(cell_tag(cell))
            if row is None:
                continue  # interrupted before this cell ran
            if row["cell_seed"] != cell.seed:
                # Guard the read path too: a report over a store built
                # under a different base_seed must never attribute its
                # payloads to this grid's seeds.
                raise ConfigurationError(
                    f"campaign db {self.db_path!r} holds cell "
                    f"{cell_tag(cell)!r} with seed {row['cell_seed']}, "
                    f"but this grid derives seed {cell.seed} — the "
                    "store belongs to a different base_seed/grid"
                )
            stored.append((cell, row))
        return stored

    def _merge(
        self,
        store: SqliteSink,
        cells: Sequence[SweepCell],
        corrupt: Optional[List[int]] = None,
    ) -> List[CampaignOutcome]:
        """Grid-ordered outcomes for every cell present in the store.

        Reads *everything* back out of the store — including cells that
        just ran — so a payload always arrives through the same JSON
        round-trip regardless of which pass produced it.

        A stored payload that no longer parses as JSON (torn write,
        disk corruption) raises :class:`ConfigurationError` pointing at
        ``campaign verify``; pass a list as ``corrupt`` to instead
        collect the offending cell indices and skip those cells (the
        ``report(allow_partial=True)`` path).
        """
        merged = []
        for cell, row in self._stored(store, cells):
            payload = None
            if row["payload"] is not None:
                try:
                    payload = json.loads(row["payload"])
                except ValueError as exc:
                    if corrupt is None:
                        raise ConfigurationError(
                            f"campaign db {self.db_path!r} holds a "
                            f"corrupt payload for cell "
                            f"{cell_tag(cell)!r} ({exc}) — run `python "
                            "-m repro campaign verify --db ...` "
                            "(--quarantine demotes it for retry on the "
                            "next resume), or report with "
                            "allow_partial to skip it"
                        ) from exc
                    corrupt.append(cell.index)
                    continue
            merged.append(CampaignOutcome(
                cell=cell,
                status=row["status"],
                payload=payload,
                error=row["error"],
                attempts=row["attempts"],
            ))
        return merged

    def outcomes(self, **axes: Iterable[Any]) -> List[CampaignOutcome]:
        """Merged outcomes currently in the store, without running anything."""
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            return self._merge(store, self.cells(**axes))

    def report(
        self, allow_partial: bool = False, **axes: Iterable[Any]
    ) -> str:
        """A canonical JSON report of the campaign's merged outcomes.

        Byte-identical across any interrupt/resume/fault schedule of
        the same grid, provided every cell completes
        (``done``/``timed_out``): cell order is grid order, every
        payload went through the same canonical serialisation, and
        wall-clock noise (elapsed times) is excluded.  ``attempts``
        appears only on *failed* cells — how many retries a cell needed
        before succeeding is infrastructure noise (a worker crash, a
        transient lock), so surfacing it for ``done`` cells would make
        the report depend on the fault history it is defined to be
        independent of; an exhausted retry budget, by contrast, is a
        result, and stays visible.

        ``allow_partial=True`` degrades gracefully over an incomplete
        or damaged store: cells missing from the store or holding a
        corrupt payload are skipped and listed under a ``"partial"``
        key (omitted when there are no gaps, so a complete store
        reports identical bytes either way) instead of the default
        :class:`ConfigurationError` on corruption.
        """
        cells = self.cells(**axes)
        corrupt: Optional[List[int]] = [] if allow_partial else None
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            merged = self._merge(store, cells, corrupt=corrupt)
        entries = []
        for o in merged:
            entry: Dict[str, Any] = {
                "index": o.cell.index,
                "seed": o.cell.seed,
                "params": o.params,
                "status": o.status,
                "payload": o.payload,
                "error": o.error,
            }
            if o.status == "failed":
                entry["attempts"] = o.attempts
            entries.append(entry)
        doc: Dict[str, Any] = {
            "base_seed": self.base_seed,
            "cells": entries,
        }
        if allow_partial:
            present = {o.cell.index for o in merged}
            skipped = set(corrupt or ())
            missing = [
                c.index for c in cells
                if c.index not in present and c.index not in skipped
            ]
            if missing or corrupt:
                doc["partial"] = {
                    "missing": missing,
                    "corrupt": sorted(corrupt or ()),
                }
        return json.dumps(doc, sort_keys=True, default=str, indent=1)

    def report_table(self, **axes: Iterable[Any]) -> str:
        """An aligned-column table over the store's ``round_summaries``.

        One row per checkpointed cell, in grid order: the cell's
        canonical tag, status, attempt count, how many rounds it
        streamed into the store, and the mean per-round broadcast count
        — the campaign-analytics view in its minimal useful form.  The
        per-cell aggregation happens inside sqlite
        (:meth:`~repro.core.records.SqliteSink.round_aggregates`), so
        the table costs one query however many rounds the store holds.
        Cells that streamed nothing (``NONE``-policy cells, failures
        before round 1, cleared dead attempts) show ``-`` in both round
        columns.  A footer below a closing rule totals the cell counts
        per status and the attempts spent, so a glance at the last line
        answers "how did the campaign go" without scanning the rows.
        The table prints no payload, so it decodes none.
        """
        cells = self.cells(**axes)
        with SqliteSink(self.db_path, fault_plan=self.fault_plan) as store:
            self._check_store_identity(store)
            stored = self._stored(store, cells)
            aggregates = store.round_aggregates()
        headers = ("cell", "status", "attempts", "rounds", "mean_bcast")
        rows = []
        for cell, row in stored:
            agg = aggregates.get(cell.seed)
            rows.append((
                cell_tag(cell),
                row["status"],
                str(row["attempts"]),
                str(agg[0]) if agg is not None else "-",
                f"{agg[1]:.2f}" if agg is not None else "-",
            ))
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in rows))
            if rows else len(headers[col])
            for col in range(len(headers))
        ]

        def fmt(row: Tuple[str, ...]) -> str:
            # The tag column is left-aligned prose; numbers and statuses
            # right-align so columns scan vertically.
            first = row[0].ljust(widths[0])
            rest = "  ".join(
                cell.rjust(widths[col + 1])
                for col, cell in enumerate(row[1:])
            )
            return f"{first}  {rest}".rstrip()

        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(row) for row in rows)
        counts = {}
        for _cell, row in stored:
            counts[row["status"]] = counts.get(row["status"], 0) + 1
        lines.append(fmt(tuple("-" * w for w in widths)))
        lines.append(
            f"{len(stored)} cells: {counts.get('done', 0)} done, "
            f"{counts.get('failed', 0)} failed, "
            f"{counts.get('timed_out', 0)} timed_out; "
            f"{sum(row['attempts'] for _cell, row in stored)} attempts"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Throwaway stores: one pass for a table, not a campaign to keep
# ----------------------------------------------------------------------
@contextlib.contextmanager
def campaign_store(db_path: Optional[str] = None) -> Iterator[str]:
    """Yield ``db_path``, or a throwaway store path when it is ``None``.

    The throwaway store lives in a fresh directory under the system
    temp directory, which is removed — WAL sidecars and all — when the
    block exits.
    """
    if db_path is not None:
        yield db_path
        return
    directory = tempfile.mkdtemp(prefix="repro-campaign-")
    try:
        yield os.path.join(directory, "campaign.db")
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_grid(
    cell_fn: Callable[[Dict[str, Any], int], Any],
    processes: Optional[int] = None,
    base_seed: int = 0,
    **axes: Iterable[Any],
) -> List[CampaignOutcome]:
    """Run one campaign pass over a throwaway store; every cell must
    finish ``done``.

    For experiments that want a table, not a store (E3, E17): the grid
    runs through :class:`CampaignRunner` like any campaign, and the
    outcomes come back in grid order, their payloads through the
    store's JSON round-trip (int dict keys read back as strings).  Any
    cell that is not ``done`` raises one :class:`RuntimeError` naming
    each such cell's tag, status and error.
    """
    with campaign_store() as db_path, CampaignRunner(
        cell_fn, db_path, base_seed=base_seed, processes=processes,
    ) as runner:
        outcomes = runner.resume(**axes)
    unfinished = [o for o in outcomes if o.status != "done"]
    if unfinished:
        raise RuntimeError(
            f"{len(unfinished)} of {len(outcomes)} grid cells did not "
            "finish: " + "; ".join(
                f"{cell_tag(o.cell)} {o.status}: {o.error}"
                for o in unfinished
            )
        )
    return outcomes


# ----------------------------------------------------------------------
# Campaign families: one record per grid the CLI and the registry run
# ----------------------------------------------------------------------
#: The axes that do not shape a family's grid: the replicate count and
#: the one |V|.  ``--quick`` leaves them open, and a table row
#: aggregates over them.
_OPEN_AXES: Tuple[str, ...] = ("trial", "values")


def _flag(axis: str) -> str:
    """The CLI flag that overrides ``axis``."""
    return "--seeds" if axis == "trial" else "--" + axis.replace("_", "-")


def group_mean(values: Sequence[float]) -> Optional[float]:
    """The mean of a table row's values, or ``None`` (a blank cell)."""
    return sum(values) / len(values) if values else None


@dataclasses.dataclass(frozen=True)
class CampaignFamily:
    """One campaign family (E18, E19): cell function, grids and table.

    ``axes`` are the default grid axes in run order, the order that
    fixes every cell's ``cell_index``: ``trial`` is a replicate count,
    ``values`` the one |V|, every other axis a sequence of values.
    ``quick`` replaces some of them for smoke runs (CLI ``--quick``).
    :meth:`grid` is the only code that turns these into a grid, so the
    CLI's run and report modes, the registry and the tests enumerate
    the same cells in the same order.

    The table has one row per combination of the swept axes (all but
    ``trial`` and ``values``), in sorted order: the combination,
    ``cells`` and ``done``, then ``columns``, which
    ``summarise(group, done)`` fills from the group's outcomes and its
    ``done`` ones.
    """

    name: str
    cell_fn: Callable[[Dict[str, Any], int], Any]
    axes: Mapping[str, Any]
    quick: Mapping[str, Any]
    title: str
    columns: Tuple[str, ...]
    summarise: Callable[
        [List[CampaignOutcome], List[CampaignOutcome]], Dict[str, Any]
    ]

    def grid(self, quick: bool = False, **overrides: Any) -> Dict[str, List]:
        """The grid axes for :class:`CampaignRunner`, in run order.

        Each override replaces its default axis; ``None`` keeps it.
        Under ``quick`` only ``trial`` and ``values`` may be overridden.
        Every cell records the ``summary`` trail.  Raises
        :class:`ConfigurationError`, naming CLI flags, for an axis the
        family does not sweep, an override of an axis ``quick`` fixes,
        or fewer than one replicate.
        """
        given = {k: v for k, v in overrides.items() if v is not None}
        unknown = [_flag(k) for k in given if k not in self.axes]
        if unknown:
            raise ConfigurationError(
                f"--family {self.name} does not sweep {', '.join(unknown)}"
            )
        if quick:
            fixed = [_flag(k) for k in given if k not in _OPEN_AXES]
            if fixed:
                raise ConfigurationError(
                    f"--quick fixes the grid; drop {', '.join(fixed)} or "
                    "drop --quick"
                )
        axes = {**self.axes, **(self.quick if quick else {}), **given}
        if axes["trial"] < 1:
            raise ConfigurationError(
                f"--seeds must be at least 1, got {axes['trial']}"
            )
        grid = {
            name: (list(range(value)) if name == "trial"
                   else [value] if name == "values" else list(value))
            for name, value in axes.items()
        }
        grid["record_policy"] = ["summary"]
        return grid

    def table(
        self,
        outcomes: Sequence[CampaignOutcome],
        db_path: Optional[str],
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> Table:
        """The family's table over ``outcomes``, one row per group."""
        shard = (f"shard {shard_index}/{shard_count}"
                 if shard_count > 1 else None)
        keys = [name for name in self.axes if name not in _OPEN_AXES]
        table = Table(
            title=self.title + (f" [{shard}]" if shard else ""),
            columns=[*keys, "cells", "done", *self.columns],
            note=(
                "checkpointed in a throwaway temp store (pass db_path to "
                "keep one)" if db_path is None else
                f"checkpointed in {db_path}; rerun with the same db to "
                "resume — completed cells are read back, not re-simulated"
                + (f"; {shard} — merge the shard stores with 'python -m "
                   "repro campaign merge' for the full grid"
                   if shard else "")
            ),
        )
        groups: Dict[tuple, List[CampaignOutcome]] = {}
        for outcome in outcomes:
            p = outcome.params
            groups.setdefault(tuple(p[k] for k in keys), []).append(outcome)
        for key, group in sorted(groups.items()):
            done = [o for o in group if o.status == "done"]
            table.add(
                **dict(zip(keys, key)), cells=len(group), done=len(done),
                **self.summarise(group, done),
            )
        return table


def run_family(
    family: CampaignFamily,
    db_path: Optional[str] = None,
    axes: Optional[Mapping[str, Iterable[Any]]] = None,
    max_cells: Optional[int] = None,
    **runner_options: Any,
) -> List[Table]:
    """Run (or resume) a family's grid and return its table.

    ``axes`` defaults to ``family.grid()``.  ``db_path=None`` runs a
    fresh campaign in a throwaway store, removed once the table is
    built; an explicit path keeps the store, so the same call resumes
    it.  ``runner_options`` go to :class:`CampaignRunner` unchanged
    (``base_seed``, ``processes``, ``cell_timeout``, shard spec, ...),
    and each cell files its round rows in the store.
    """
    if axes is None:
        axes = family.grid()
    # Context-managed so the pool is torn down before the table is
    # returned: a one-shot run must not park workers.
    with campaign_store(db_path) as path, CampaignRunner(
        family.cell_fn, db_path=path, extra_params={"sqlite_db": path},
        **runner_options,
    ) as runner:
        outcomes = runner.resume(max_cells=max_cells, **axes)
    return [family.table(
        outcomes, db_path, runner.shard_index, runner.shard_count
    )]


#: The campaign families by name (``python -m repro campaign --family``):
#: the experiments submodule that defines each record, and its name there.
FAMILY_INDEX: Dict[str, Tuple[str, str]] = {
    "e18": ("matrix", "E18"),
    "e19": ("churn", "E19"),
}


def load_family(name: str) -> CampaignFamily:
    """The campaign family called ``name``, importing only its module,
    so an E18 campaign never loads E19's churn and multihop stack."""
    module, record = FAMILY_INDEX[name]
    return getattr(importlib.import_module(f".{module}", __package__), record)


def check_rng_backend(path: str, stamp: Optional[str]) -> None:
    """Refuse a store whose ``rng_backend`` stamp is not this version's.

    ``None`` (a store from before the stamp) and :data:`RNG_BACKEND`
    pass.  ``"numpy"`` marks a store filled by the retired numpy backend:
    its ``IIDLoss`` and ``CaptureEffectLoss`` cells were drawn from
    streams this version no longer has, so resuming, reporting or
    merging it would mix two executions of the same grid.
    """
    if stamp is None or stamp == RNG_BACKEND:
        return
    if stamp == "numpy":
        raise ConfigurationError(
            f"campaign db {path!r} was filled by the retired numpy "
            "backend: its IIDLoss and CaptureEffectLoss cells come from "
            "streams this version no longer draws, so it cannot be "
            "resumed, reported or merged — run the campaign again into a "
            "new store"
        )
    raise ConfigurationError(
        f"campaign db {path!r} carries the unknown rng_backend stamp "
        f"{stamp!r}; this version draws the {RNG_BACKEND!r} streams "
        "(`python -m repro campaign verify` flags the stamp)"
    )


# ----------------------------------------------------------------------
# Shard merging: K shard stores -> one single-host-equivalent store
# ----------------------------------------------------------------------
def merge_campaign_stores(
    out_path: str,
    shard_paths: Sequence[str],
    force: bool = False,
) -> Dict[str, Any]:
    """Fold K shard stores into one store equal to a single-host run.

    Validates before copying a single row, and loudly — every rejection
    is a :class:`~repro.core.errors.ConfigurationError` naming exactly
    what disagrees:

    * every input must be a stamped campaign store (``base_seed`` plus
      shard spec in ``campaign_meta``);
    * all shards must share one ``base_seed`` (different seeds are
      different campaigns whose cells merely look alike) and one
      ``rng_backend`` (an unstamped legacy shard counts as its own
      backend until a resume stamps it), and no shard may carry the
      retired numpy backend's stamp, even when every shard agrees on it
      (:func:`check_rng_backend`);
    * all shards must share one shard count K, carry indices inside
      ``[0, K)``, and cover **exactly** the set ``{0, …, K-1}`` — a
      duplicated index is an overlapping shard, an absent one a missing
      shard, and either would make the merged report silently diverge
      from the single-host truth;
    * row-level overlap (the same cell tag or ``(cell_seed, round)``
      key in two stores) aborts inside sqlite via
      :meth:`~repro.core.records.SqliteSink.merge_from`'s plain-INSERT
      discipline, as a belt-and-braces guard under the metadata checks.

    The merged store is stamped as shard ``0/1`` (plus a
    ``merged_from`` provenance key): it *is* a single-host store from
    that point on — :meth:`CampaignRunner.report` over it is
    byte-identical to an uninterrupted single-host run of the same
    grid, because every payload was canonically serialised on its way
    into its shard and cell identity (tag, seed, index) is derived from
    full-grid enumeration on every host.

    The merge is **atomic at the filesystem level**: rows are folded
    into a ``<out_path>.tmp`` sidecar, the WAL is checkpointed into it
    so it is one self-contained file, and only then does a single
    ``os.replace`` publish it as ``out_path``.  A merge killed at any
    instant — SIGKILL included — therefore leaves either no target at
    all or the complete merged store, never a half-written database;
    the deterministic sidecar name lets the next run (and this one's
    cleanup) sweep any stray ``.tmp`` remnants.

    ``out_path`` must not already exist unless ``force`` is set (the
    stale target plus its WAL sidecars are then removed once every
    input has validated), and it must never be one of the shards.
    Returns a summary dict (``base_seed``, ``shards``, ``cells``,
    ``path``).
    """
    if not shard_paths:
        raise ConfigurationError(
            "merge needs at least one shard store to fold"
        )
    target_exists = os.path.exists(out_path)
    for path in shard_paths:
        if not os.path.exists(path):
            raise ConfigurationError(
                f"shard store {path!r} does not exist"
            )
        if target_exists and os.path.samefile(path, out_path):
            raise ConfigurationError(
                f"merge target {out_path!r} is the shard store {path!r} "
                "— the merge would replace one of its own inputs"
            )
    if target_exists and not force:
        raise ConfigurationError(
            f"merge target {out_path!r} already exists — merging "
            "into a live store would mix campaigns; pass "
            "force=True (CLI --force) to replace it"
        )

    infos: List[Dict[str, Any]] = []
    for path in shard_paths:
        # Opening through SqliteSink also migrates legacy schemas in
        # place, so merge_from's column-for-column copy always sees the
        # current shape.
        with SqliteSink(path) as store:
            base_seed = store.get_meta("base_seed")
            shard = store.get_meta("shard")
            backend = store.get_meta("rng_backend")
            cells = store.cell_count()
        check_rng_backend(path, backend)
        if base_seed is None or shard is None:
            raise ConfigurationError(
                f"{path!r} carries no campaign identity metadata — it "
                "is not a (post-sharding) campaign store; resume it "
                "once so it is stamped, then merge"
            )
        infos.append({
            "path": path, "base_seed": base_seed,
            "index": shard["index"], "count": shard["count"],
            "rng_backend": backend, "cells": cells,
        })

    base_seeds = sorted({info["base_seed"] for info in infos})
    if len(base_seeds) > 1:
        raise ConfigurationError(
            f"shard stores disagree on base_seed ({base_seeds}) — they "
            "are shards of different campaigns and must not be merged"
        )
    backends = sorted({info["rng_backend"] for info in infos}, key=repr)
    if len(backends) > 1:
        raise ConfigurationError(
            f"shard stores disagree on rng_backend ({backends}) — None "
            "marks a store from before the stamp: resume it once so it "
            "is stamped, then merge"
        )
    counts = sorted({info["count"] for info in infos})
    if len(counts) > 1:
        raise ConfigurationError(
            f"shard stores disagree on the shard count ({counts}) — "
            "a K-way merge needs K stores from one K-way split"
        )
    k = counts[0]
    owners: Dict[int, List[str]] = {}
    for info in infos:
        owners.setdefault(info["index"], []).append(info["path"])
    bad = sorted(i for i in owners if not 0 <= i < k)
    if bad:
        raise ConfigurationError(
            f"shard indices {bad} are outside [0, {k}) — the stores' "
            "metadata is inconsistent with their shard count"
        )
    overlapping = {i: paths for i, paths in owners.items()
                   if len(paths) > 1}
    if overlapping:
        raise ConfigurationError(
            f"overlapping shards: {overlapping} — the same shard index "
            "appears in more than one store, so their cells would "
            "collide (or worse, silently double)"
        )
    missing = sorted(set(range(k)) - set(owners))
    if missing:
        raise ConfigurationError(
            f"missing shard(s) {missing} of {k} — a merge over an "
            "incomplete shard set would report a partial grid as if it "
            "were the whole campaign"
        )

    if target_exists:
        for suffix in ("", "-wal", "-shm"):
            stale = out_path + suffix
            if os.path.exists(stale):
                os.remove(stale)
    total = 0
    plan = faultline.resolve(None)
    tmp_path = out_path + ".tmp"
    # A merge killed mid-flight leaves its sidecar behind under this
    # deterministic name; sweep any such remnant (WAL sidecars too)
    # before starting, so reruns never trip over a dead merge.
    for suffix in ("", "-wal", "-shm"):
        stale = tmp_path + suffix
        if os.path.exists(stale):
            os.remove(stale)
    try:
        with SqliteSink(tmp_path) as out:
            for info in sorted(infos, key=lambda i: i["index"]):
                if plan is not None:
                    action = plan.fire("merge", f"shard:{info['index']}")
                    if action is not None:
                        kind = action.get("kind")
                        if kind == "sleep":
                            time.sleep(
                                float(action.get("seconds", 0.05))
                            )
                        elif kind == "error":
                            raise ConfigurationError(
                                "injected merge failure at shard "
                                f"{info['index']}"
                            )
                total += out.merge_from(info["path"])
            out.set_meta("base_seed", base_seeds[0])
            out.set_meta("shard", {"count": 1, "index": 0})
            out.set_meta("merged_from", k)
            if backends[0] is not None:
                out.set_meta("rng_backend", backends[0])
            # Fold the WAL so the rename moves one complete database,
            # not a main file whose recent history lives in sidecars
            # os.replace would leave behind.
            out.fold_wal()
        os.replace(tmp_path, out_path)
    finally:
        for suffix in ("", "-wal", "-shm"):
            stray = tmp_path + suffix
            if os.path.exists(stray):
                os.remove(stray)
    return {
        "base_seed": base_seeds[0], "shards": k, "cells": total,
        "path": out_path,
    }
