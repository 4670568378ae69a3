"""One dispatcher for every campaign: a selector-driven persistent pool.

Every way of running a grid of sweep cells — serial, parallel, with or
without per-cell deadlines — is the *same* loop at a different width.
:class:`CampaignDispatcher` owns a persistent pool of worker processes
and drives them with a :mod:`selectors` event loop over the worker
pipes; the campaign runner and the benchmarks route through it, so
worker reuse, deadline enforcement, and completion-order delivery are
universal rather than features of one code path.

The decision table (there is no fourth path)::

    in_process  processes  cell_timeout   behaviour
    ----------  ---------  ------------   ------------------------------
    True        (ignored)  (unenforced)   cells run serially inside the
                                          calling process — the debug
                                          escape hatch; a set timeout
                                          warns that it cannot be
                                          enforced
    False       0/1        None           one persistent worker, results
                                          in completion order (== grid
                                          order at width 1)
    False       0/1        t seconds      same worker, but each cell has
                                          a wall-clock deadline; overrun
                                          => terminate->kill, replace,
                                          checkpoint ``timed_out``
    False       N>1/None   None           N persistent workers (None =
                                          cpu count), completion-order
                                          delivery, worker reuse across
                                          cells and across passes
    False       N>1/None   t seconds      the full deadline pool: N
                                          workers, one parent-tracked
                                          deadline per in-flight cell

Contract highlights:

* **One execution contract** — :func:`execute_cell_job` is the only
  place a cell function is invoked, whether in-process or on a worker,
  so a cell behaves identically everywhere (exceptions and ``sys.exit``
  become ``failed`` results carrying the exception's repr).
  It also arms the cell's round outbox for the ``store_path`` passed to
  ``run``, so the round rows of every cell — pooled or in-process —
  come back in :attr:`CellResult.rounds` for the campaign parent to
  commit, and a worker never opens the store.
* **Cell sources are iterators** — :meth:`CampaignDispatcher.run`
  accepts any iterable of cells and pulls from it *lazily*: a new cell
  is materialised only when a worker slot frees up (never more than
  ``width`` cells ahead of the results).  This is the seam for
  distributed sharding: a shard host is this loop fed by a shard
  iterator instead of a list.
* **Deterministic teardown** — :meth:`CampaignDispatcher.close` settles
  the pool synchronously: sentinel to every idle worker, pipes closed,
  ``join(grace)``, terminate->kill escalation for stragglers.  Workers
  are additionally daemonic purely as an interpreter-exit backstop for
  callers that never close; correctness never leans on GC timing.
* **Fork hygiene** — the ``pre_fork`` callback passed to ``run`` is
  invoked immediately before *every* worker spawn (first fill and
  replacements alike).  The campaign runner points it at
  ``store.disconnect``, so its store connection never crosses a fork;
  workers open no store connection at all.
* **Stall watchdog** — with ``stall_timeout`` set, busy workers send
  periodic heartbeats over their existing result pipes; a worker that
  goes silent past the timeout (SIGSTOPped, wedged in GIL-holding C
  code, swapped to death) is escalated terminate→kill and replaced,
  and its cell checkpoints ``failed`` (so a later resume retries it)
  even when no ``cell_timeout`` is armed.  A slow-but-alive cell keeps
  heartbeating and is never touched — slowness is ``cell_timeout``'s
  business, silence is the watchdog's.
* **Fault injection** — when a
  :class:`~repro.testing.faultline.FaultPlan` is active (``fault_plan=``
  kwarg or the ``REPRO_FAULTLINE`` environment variable) the loop
  consults it at its injection sites: worker spawn (spawn failures),
  job dispatch (SIGKILL/SIGSTOP mid-cell), cell execution (slow
  cells), and the result reply (pipe EOF).  With no plan active every
  site is a ``None``-check.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import multiprocessing
import os
import pickle
import selectors
import signal
import threading
import time
import warnings
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..core.errors import ConfigurationError
from ..core.records import RoundRow, round_outbox
from ..testing import faultline

#: Grace period before a terminate escalates to kill.
TERM_GRACE: float = 5.0

#: Consecutive fresh-spawn deaths tolerated before the pool gives up.
MAX_SPAWN_DEATHS: int = 5

#: Base of the exponential backoff between doomed respawns (seconds).
RESPAWN_BACKOFF: float = 0.05

#: The heartbeat message busy workers send when the stall watchdog is
#: armed.  A 1-tuple, so it can never be confused with the 6-tuple
#: result protocol.
_HEARTBEAT: Tuple[str] = ("__heartbeat__",)


class WorkerPoolError(RuntimeError):
    """Freshly-spawned workers keep dying before delivering any result.

    Raised by :class:`CampaignDispatcher` after ``max_spawn_deaths``
    consecutive spawn->death cycles with zero jobs completed: something
    systemic (the cell function's imports, the environment, resource
    exhaustion) kills every new worker, and respawning forever would
    burn the machine while checkpointing nothing but failures.
    """


# ----------------------------------------------------------------------
# The cell-execution contract
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CellResult:
    """The outcome of one dispatched cell, however it ran.

    ``status`` is ``done``, ``failed``, or ``timed_out``.  ``error`` is
    the repr of the cell's exception (or a dispatcher-level diagnosis
    such as a worker death).  ``worker_pid`` is the pool worker that ran
    the cell (``None`` in-process) — the raw material for worker-reuse
    accounting.  ``rounds`` are the round rows a ``done`` cell handed
    back for its campaign store (see :func:`execute_cell_job`); every
    other status carries none.
    """

    index: int
    status: str
    payload: Any = None
    error: Optional[str] = None
    elapsed: float = 0.0
    worker_pid: Optional[int] = None
    rounds: Tuple[RoundRow, ...] = ()


def execute_cell_job(
    fn: Callable[[Dict[str, Any], int], Any],
    params: Mapping[str, Any],
    seed: int,
    extra: Optional[Mapping[str, Any]] = None,
    store_path: Optional[str] = None,
) -> Tuple[str, Any, Optional[str], float, Tuple[RoundRow, ...]]:
    """Run one cell function, never letting its exception escape.

    Returns ``(status, payload, error, elapsed, rounds)``
    with status ``done`` or ``failed`` — the single execution contract
    behind every dispatch configuration, so a cell behaves identically
    whether it ran in-process or on a pool worker.  An exception or a
    ``sys.exit`` in the cell becomes ``failed`` with its repr; a
    ``KeyboardInterrupt`` propagates.  The call runs inside
    a :func:`~repro.core.records.round_outbox` for ``store_path``:
    ``rounds`` are the round rows the cell's sinks flushed for that
    store, handed back for the campaign parent to commit with the
    checkpoint.  A failed cell hands back none.
    """
    start = time.monotonic()
    with round_outbox(store_path) as rounds:
        try:
            payload = fn(dict(params, **(extra or {})), seed)
        except (Exception, SystemExit) as exc:
            return ("failed", None, repr(exc), time.monotonic() - start,
                    ())
    return ("done", payload, None, time.monotonic() - start, tuple(rounds))


# ----------------------------------------------------------------------
# The worker side of the pipe protocol
# ----------------------------------------------------------------------
def _dispatch_worker(
    conn,
    fn,
    extra: Dict[str, Any],
    fault_spec: Optional[Dict[str, Any]] = None,
    heartbeat_interval: Optional[float] = None,
) -> None:
    """Persistent pool worker: loop over jobs fed by the parent.

    Protocol: the parent sends ``(cell_index, params, seed,
    store_path)`` tuples, strictly one in flight per worker, and a
    ``None`` sentinel to shut down; the worker answers each job with
    ``(cell_index, status, payload, error, elapsed, rounds)`` and never
    raises for a cell's own exception (``BaseException`` included — a
    ``KeyboardInterrupt`` comes back ``failed``, never "worker died",
    and then retires this worker).  A result whose payload cannot be
    pickled degrades to a ``failed`` reply naming the pickling problem,
    so the parent always hears back.
    An overrun worker is simply terminated by the parent — no
    cooperation required — and a fresh worker takes its place.

    When ``heartbeat_interval`` is set (the parent armed its stall
    watchdog) a daemon thread sends :data:`_HEARTBEAT` over the same
    pipe while a job is running, serialised against the result send by
    a lock.  The beats stop with the process — SIGSTOP, a wedged
    GIL-holding extension, an OOM kill all silence them — which is
    exactly the signal the parent's watchdog keys on.

    ``fault_spec`` reconstructs this process's
    :class:`~repro.testing.faultline.FaultPlan` (fresh clocks — its
    sites are keyed per cell, not per process) and installs it as the
    ambient plan so the cell function's own ``SqliteSink`` picks it up.

    Sibling workers fork-inherit the parent's end of this worker's
    pipe, so a hard-killed parent (SIGKILL, OOM) never produces an EOF
    here; the recv poll therefore watches for re-parenting and exits
    when the parent is gone, so idle workers can't outlive a killed
    campaign as orphans.
    """
    plan = None
    if fault_spec is not None:
        plan = faultline.FaultPlan.from_spec(fault_spec)
        faultline.install(plan)
    send_lock = threading.Lock()
    busy_flag = threading.Event()
    hb_stop = threading.Event()
    if heartbeat_interval:
        def _beat() -> None:
            while not hb_stop.wait(heartbeat_interval):
                if not busy_flag.is_set():
                    continue
                try:
                    with send_lock:
                        conn.send(_HEARTBEAT)
                except Exception:
                    return  # pipe gone; the main loop is exiting too
        threading.Thread(target=_beat, daemon=True).start()
    parent_pid = os.getppid()
    try:
        while True:
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # parent died without an EOF; don't orphan
            try:
                job = conn.recv()
            except (EOFError, OSError):
                break
            if job is None:
                break
            index, params, seed, store_path = job
            fault_key = f"cell:{index}"
            if plan is not None:
                action = plan.fire("cell", fault_key)
                if action is not None and action.get("kind") == "sleep":
                    time.sleep(float(action.get("seconds", 0.01)))
            exit_after = False
            busy_flag.set()
            try:
                status, payload, error, elapsed, rounds = (
                    execute_cell_job(fn, params, seed, extra, store_path)
                )
            except BaseException as caught:  # KeyboardInterrupt and kin
                status, payload, error, elapsed, rounds = (
                    "failed", None, repr(caught), 0.0, ()
                )
                exit_after = isinstance(caught, KeyboardInterrupt)
            if plan is not None and plan.fire("cell-reply", fault_key):
                # The pipe-EOF injector: die without replying, exactly
                # like a crash between finishing the cell and sending.
                conn.close()
                os._exit(1)
            try:
                try:
                    with send_lock:
                        conn.send((index, status, payload, error, elapsed,
                                   rounds))
                except (BrokenPipeError, OSError):
                    break
                except Exception as send_exc:
                    # Connection.send pickles before writing, so a
                    # pickling failure leaves the pipe clean for the
                    # degraded reply.
                    with send_lock:
                        conn.send((
                            index, "failed", None,
                            f"cell result not picklable: {send_exc!r}",
                            elapsed, (),
                        ))
            except (BrokenPipeError, OSError):
                break
            finally:
                busy_flag.clear()
            if exit_after:
                break  # interrupted: let the parent replace this worker
    finally:
        hb_stop.set()
        conn.close()


def _doomed_worker(conn) -> None:
    """Target for an injected spawn failure: die at birth.

    Closing our pipe end first guarantees the parent observes the death
    (EOF or a broken send) rather than blocking.
    """
    conn.close()
    os._exit(1)


class _Worker:
    """Parent-side handle on one pool worker process.

    ``jobs_done`` counts results this worker delivered — zero marks a
    fresh spawn, the signal the respawn-storm breaker keys on.
    """

    __slots__ = ("proc", "conn", "jobs_done")

    def __init__(self, proc: multiprocessing.Process, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.jobs_done = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def stop(self, grace: float = TERM_GRACE) -> None:
        """Terminate->kill escalation; never returns with a live process."""
        try:
            self.conn.close()
        except Exception:
            pass
        self.proc.terminate()
        if self.proc.pid is not None:
            # A SIGSTOPped worker (stall injection, an operator's ^Z)
            # holds the SIGTERM pending forever; SIGCONT delivers it.
            # For a running worker this is a no-op.
            try:
                os.kill(self.proc.pid, signal.SIGCONT)
            except (ProcessLookupError, OSError):
                pass
        self.proc.join(grace)
        if self.proc.is_alive():
            # SIGTERM caught/ignored or the cell is stuck in
            # uninterruptible C code — escalate so one cell can never
            # hang the grid.
            self.proc.kill()
            self.proc.join()

    def shutdown(self, grace: float = TERM_GRACE) -> None:
        """Graceful exit for an idle worker: sentinel, close the pipe,
        ``join(grace)``, then escalate.  Deterministic — the caller gets
        back a reaped process or none at all, never a leak."""
        try:
            self.conn.send(None)
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass
        self.proc.join(grace)
        if self.proc.is_alive():
            self.stop(grace)


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class CampaignDispatcher:
    """A persistent worker pool driven by one selector event loop.

    Parameters
    ----------
    cell_fn:
        The cell function ``fn(params, seed) -> payload``.  Must be
        picklable for pooled execution (checked before the first worker
        spawns; an unpicklable function degrades to in-process execution
        with a warning, never a crash).
    extra_params:
        Non-coordinate parameters merged into every cell's ``params`` at
        execution time (the campaign's infra paths).
    processes:
        Pool width.  ``None`` resolves to the CPU count; ``0``/``1``
        mean a one-worker pool — still worker reuse, still deadlines,
        just no parallelism.  Fewer workers than ``width`` are spawned
        when the cell source never keeps that many busy.
    cell_timeout:
        Optional per-cell wall-clock budget in seconds.  ``None`` means
        no deadline tracking: the same loop simply blocks on the worker
        pipes without a timeout.
    in_process:
        Escape hatch: run every cell serially inside the calling
        process (no workers, no pickling, debugger-friendly).  Timeouts
        cannot be enforced in-process; a set ``cell_timeout`` warns.
    fault_plan:
        Optional :class:`~repro.testing.faultline.FaultPlan` consulted
        at the dispatcher's injection sites.  ``None`` falls back to
        the process-installed plan or the ``REPRO_FAULTLINE``
        environment variable (see
        :func:`repro.testing.faultline.resolve`); the common case — no
        plan anywhere — costs one ``None`` check per site.
    stall_timeout:
        Optional stall watchdog budget in seconds.  When set, busy
        workers heartbeat over their result pipes (interval
        ``min(1.0, stall_timeout / 4)``) and a worker silent for this
        long is escalated terminate→kill, replaced, and its cell
        delivered ``failed`` (retryable on resume) with a
        deterministic error message.  Independent of ``cell_timeout``:
        the watchdog catches *silence*, the deadline catches
        *slowness* — a slow cell that keeps heartbeating is never
        touched by the watchdog.

    A worker that must stop gets ``term_grace`` seconds before terminate
    escalates to kill.  After ``max_spawn_deaths`` consecutive fresh-spawn
    deaths (a worker dying before delivering any result) the loop raises
    :class:`WorkerPoolError` instead of respawning forever.  Each doomed
    respawn is preceded by an exponentially growing backoff (base
    ``respawn_backoff`` seconds); any delivered result resets the
    streak, and an *established* worker's death never counts — only a
    spawn storm trips the breaker.  The three attributes start at
    :data:`TERM_GRACE`, :data:`MAX_SPAWN_DEATHS` and
    :data:`RESPAWN_BACKOFF`.

    The pool is *persistent across* :meth:`run` *calls*: workers spawned
    by one pass park on their pipes and are reused by the next, so a
    resume loop does not pay a pool spin-up per pass.  :meth:`close`
    (or the context manager exit) tears the pool down deterministically.
    """

    def __init__(
        self,
        cell_fn: Callable[[Dict[str, Any], int], Any],
        extra_params: Optional[Mapping[str, Any]] = None,
        processes: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        in_process: bool = False,
        fault_plan: Optional["faultline.FaultPlan"] = None,
        stall_timeout: Optional[float] = None,
    ) -> None:
        self.cell_fn = cell_fn
        self.extra_params = dict(extra_params or {})
        if processes is None:
            width = multiprocessing.cpu_count() or 1
        else:
            width = max(1, int(processes))
        self.width = width
        self.cell_timeout = cell_timeout
        self.term_grace = TERM_GRACE
        self.max_spawn_deaths = MAX_SPAWN_DEATHS
        self.respawn_backoff = RESPAWN_BACKOFF
        self.fault_plan = faultline.resolve(fault_plan)
        self._worker_fault_spec = (
            None if self.fault_plan is None else self.fault_plan.to_spec()
        )
        if stall_timeout is not None:
            stall_timeout = float(stall_timeout)
            if stall_timeout <= 0:
                raise ConfigurationError(
                    f"stall_timeout must be positive, got {stall_timeout}"
                )
        self.stall_timeout = stall_timeout
        self._heartbeat_interval = (
            None if stall_timeout is None else min(1.0, stall_timeout / 4.0)
        )
        self._spawn_death_streak = 0
        self._in_process = bool(in_process)
        # The first spawn finds out whether pooled execution works here.
        self._spawned = False
        self._warned_unenforced = False
        self._workers: List[_Worker] = []
        self._pre_fork: Optional[Callable[[], None]] = None
        self._store_path: Optional[str] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def in_process(self) -> bool:
        """Whether cells run inside the calling process (resolved mode)."""
        return self._in_process

    def worker_pids(self) -> List[int]:
        """Pids of the currently parked/live pool workers."""
        return [w.pid for w in self._workers if w.pid is not None]

    def close(self) -> None:
        """Deterministic pool teardown (idempotent).

        Every parked worker gets the shutdown sentinel, its pipe is
        closed, and the process is ``join``\\ ed within the grace period
        — terminate->kill for anything still alive after it.  Nothing is
        left to daemon-flag or destructor timing; after ``close``
        returns there are no pool children.  The dispatcher remains
        usable: the next :meth:`run` simply respawns workers.
        """
        while self._workers:
            self._workers.pop().shutdown(self.term_grace)

    def __enter__(self) -> "CampaignDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- mode resolution ------------------------------------------------
    def _first_worker(self) -> Optional[_Worker]:
        """Spawn the dispatcher's first worker, or settle on in-process.

        Pooled execution needs a cell function that pickles and a
        platform that can start processes, and the first spawn is where
        both are found out — no throwaway process is forked to ask.
        Either failure warns and returns ``None``: the cell in hand and
        every later one run in-process.  A later spawn that fails
        raises, as any broken pool does.
        """
        try:
            pickle.dumps((self.cell_fn, self.extra_params))
        except Exception as exc:
            reason = (f"cell function not picklable ({exc!r}); running "
                      "cells serially in-process")
        else:
            try:
                return self._spawn()
            except Exception as exc:
                reason = (f"worker processes unavailable ({exc!r}); "
                          "running cells in-process")
        warnings.warn(
            f"CampaignDispatcher: {reason}", RuntimeWarning, stacklevel=5,
        )
        self._in_process = True
        return None

    def _warn_unenforced_timeout(self) -> None:
        if self.cell_timeout is not None and not self._warned_unenforced:
            self._warned_unenforced = True
            warnings.warn(
                "CampaignDispatcher: cells run in-process — per-cell "
                "timeouts are NOT enforced",
                RuntimeWarning,
                stacklevel=5,
            )

    # -- the loop -------------------------------------------------------
    def run(
        self,
        cells: Iterable[Any],
        on_result: Callable[[Any, CellResult], None],
        pre_fork: Optional[Callable[[], None]] = None,
        store_path: Optional[str] = None,
    ) -> int:
        """Drive every cell from ``cells`` through the pool.

        ``cells`` may be any iterable of cell objects exposing
        ``.index``, ``.seed``, and ``.as_dict()`` (duck-typed —
        :class:`~repro.experiments.harness.SweepCell` is the usual
        shape); it is consumed *lazily*, one pull per freed worker slot.
        ``on_result(cell, result)`` fires in completion order; an
        exception it raises aborts the run (in-flight workers are
        stopped, parked workers survive) and propagates.  ``pre_fork``
        is called immediately before every worker spawn during this run.
        ``store_path`` names the campaign store whose round rows every
        cell hands back in :attr:`CellResult.rounds` instead of writing
        them (:func:`~repro.core.records.round_outbox`).  Returns the
        number of completed cells.
        """
        self._pre_fork = pre_fork
        self._store_path = store_path
        try:
            if self._in_process:
                return self._run_in_process(cells, on_result)
            return self._run_pool(cells, on_result)
        finally:
            self._pre_fork = None
            self._store_path = None

    def _run_in_process(self, cells, on_result) -> int:
        self._warn_unenforced_timeout()
        completed = 0
        plan = self.fault_plan
        for cell in cells:
            if plan is not None:
                action = plan.fire("cell", f"cell:{cell.index}")
                if action is not None and action.get("kind") == "sleep":
                    time.sleep(float(action.get("seconds", 0.01)))
            status, payload, error, elapsed, rounds = execute_cell_job(
                self.cell_fn, cell.as_dict(), cell.seed, self.extra_params,
                self._store_path,
            )
            completed += 1
            on_result(cell, CellResult(
                index=cell.index, status=status, payload=payload,
                error=error, elapsed=elapsed, worker_pid=None, rounds=rounds,
            ))
        return completed

    def _spawn(self) -> _Worker:
        # Checkpointing between completions may have reopened the
        # caller's store; pre_fork (store.disconnect) runs before every
        # spawn — first fill and replacements alike — because an sqlite
        # connection must never cross a fork.
        if self._pre_fork is not None:
            self._pre_fork()
        parent_conn, child_conn = multiprocessing.Pipe()
        if (
            self.fault_plan is not None
            and self.fault_plan.fire("spawn", "spawn")
        ):
            # Injected spawn failure: the child dies at birth, exactly
            # like a broken cell-function import or an OOM-killed fork.
            proc = multiprocessing.Process(
                target=_doomed_worker, args=(child_conn,)
            )
        else:
            proc = multiprocessing.Process(
                target=_dispatch_worker,
                args=(
                    child_conn, self.cell_fn, self.extra_params,
                    self._worker_fault_spec, self._heartbeat_interval,
                ),
            )
        # Daemonic as an interpreter-exit backstop only: close() is the
        # real teardown, but a caller that never closes must not
        # deadlock interpreter shutdown on the atexit join of a
        # non-daemon child.  (Consequence: cells themselves cannot
        # spawn child processes.)
        proc.daemon = True
        proc.start()
        self._spawned = True
        child_conn.close()
        return _Worker(proc, parent_conn)

    def _inject_dispatch_fault(self, worker: _Worker, cell) -> None:
        """Fire the ``dispatch`` site right after a job send.

        ``sigkill``/``sigstop`` actions hit the worker mid-cell from
        the parent side, exactly like the OOM killer or an operator's
        stray signal would.  A SIGSTOP with neither watchdog armed
        would hang the loop forever, so it is refused loudly.
        """
        if self.fault_plan is None or worker.pid is None:
            return
        action = self.fault_plan.fire("dispatch", f"cell:{cell.index}")
        if action is None:
            return
        kind = action.get("kind")
        if kind == "sigstop":
            if self.stall_timeout is None and self.cell_timeout is None:
                raise ConfigurationError(
                    "fault plan injects SIGSTOP but neither "
                    "stall_timeout nor cell_timeout is armed — the "
                    "dispatcher would wait on the stopped worker "
                    "forever; arm a stall watchdog to run this plan"
                )
            sig = signal.SIGSTOP
        elif kind == "sigkill":
            sig = signal.SIGKILL
        else:
            return
        try:
            os.kill(worker.pid, sig)
        except (ProcessLookupError, OSError):
            pass

    def _run_pool(self, cells, on_result) -> int:
        source = iter(cells)
        requeue: collections.deque = collections.deque()
        exhausted = False

        def next_cell():
            nonlocal exhausted
            if requeue:
                return requeue.popleft()
            if exhausted:
                return None
            cell = next(source, None)
            if cell is None:
                exhausted = True
            return cell

        completed = 0

        def deliver(cell, result: CellResult) -> None:
            nonlocal completed
            completed += 1
            on_result(cell, result)

        # worker -> (cell, started, deadline-or-None) for in-flight cells.
        busy: Dict[_Worker, Tuple[Any, float, Optional[float]]] = {}
        # worker -> monotonic time of its last message (the job send
        # counts as one); only consulted when the watchdog is armed.
        last_seen: Dict[_Worker, float] = {}
        sel = selectors.DefaultSelector()

        def retire(worker: _Worker) -> None:
            """Drop a worker from the pool and stop it (terminate->kill)."""
            if worker in self._workers:
                self._workers.remove(worker)
            worker.stop(self.term_grace)

        def evict(worker: _Worker, status: str,
                  error: Optional[str] = None) -> None:
            """Stop a busy worker and deliver its cell as ``status``."""
            cell, started, _deadline = busy.pop(worker)
            last_seen.pop(worker, None)
            sel.unregister(worker.conn)
            retire(worker)
            deliver(cell, CellResult(
                index=cell.index, status=status, error=error,
                elapsed=time.monotonic() - started, worker_pid=worker.pid,
            ))

        def note_death(worker: _Worker, context: str) -> None:
            """Respawn-storm breaker: count fresh-spawn deaths in a row.

            A worker that never delivered a result died — if that keeps
            happening to every fresh spawn, the cause is systemic and
            respawning is futile: back off exponentially, then abort the
            campaign loudly.  A death after at least one delivered
            result is an isolated casualty and resets nothing either
            way (the streak only tracks *fresh* spawns).
            """
            if worker.jobs_done > 0:
                return
            self._spawn_death_streak += 1
            streak = self._spawn_death_streak
            if streak >= self.max_spawn_deaths:
                raise WorkerPoolError(
                    f"{streak} freshly-spawned workers died in a row "
                    f"(last: {context}); aborting the campaign — "
                    "something systemic is killing new workers "
                    "(cell-function imports, environment, or resource "
                    "exhaustion), so respawning cannot make progress"
                )
            if self.respawn_backoff > 0:
                time.sleep(
                    min(self.respawn_backoff * (2 ** (streak - 1)), 5.0)
                )

        def collect(worker: _Worker) -> None:
            """Recv one message — result, heartbeat, or death — from a
            readable worker.  A heartbeat only refreshes ``last_seen``;
            the worker stays busy and registered."""
            try:
                msg = worker.conn.recv()
            except (EOFError, OSError):
                # The worker died mid-cell (OOM kill, hard crash)
                # without shipping a result; the cell checkpoints
                # ``failed`` and the pool refills lazily.
                evict(worker, "failed", "worker died without a result")
                note_death(worker, f"pid {worker.pid} died mid-cell")
                return
            if len(msg) == 1:
                last_seen[worker] = time.monotonic()
                return
            cell, started, _deadline = busy.pop(worker)
            last_seen.pop(worker, None)
            sel.unregister(worker.conn)
            _, status, payload, error, elapsed, rounds = msg
            worker.jobs_done += 1
            self._spawn_death_streak = 0
            deliver(cell, CellResult(
                index=cell.index, status=status, payload=payload,
                error=error, elapsed=elapsed, worker_pid=worker.pid,
                rounds=rounds,
            ))

        def drain(worker: _Worker) -> None:
            """A message already in the pipe always beats a deadline or
            the watchdog — consume everything pending."""
            while worker in busy and worker.conn.poll():
                collect(worker)

        try:
            while True:
                # Feed: one lazily-pulled cell per free slot.  Idle
                # parked workers are reused; the pool only grows when
                # every live worker is busy and width allows.
                while len(busy) < self.width:
                    cell = next_cell()
                    if cell is None:
                        break
                    worker = next(
                        (w for w in self._workers if w not in busy), None
                    )
                    if worker is None:
                        worker = (self._spawn() if self._spawned
                                  else self._first_worker())
                        if worker is None:
                            return self._run_in_process(
                                itertools.chain([cell], source), on_result,
                            )
                        self._workers.append(worker)
                    try:
                        worker.conn.send((cell.index, cell.as_dict(),
                                          cell.seed, self._store_path))
                    except (BrokenPipeError, OSError):
                        # Died while parked; requeue and refill — unless
                        # fresh spawns keep dying, in which case the
                        # breaker backs off and eventually aborts.
                        pid = worker.pid
                        requeue.append(cell)
                        retire(worker)
                        note_death(
                            worker, f"pid {pid} died parked, before "
                            "accepting a job"
                        )
                        continue
                    now = time.monotonic()
                    deadline = (
                        None if self.cell_timeout is None
                        else now + self.cell_timeout
                    )
                    busy[worker] = (cell, now, deadline)
                    last_seen[worker] = now
                    sel.register(worker.conn, selectors.EVENT_READ, worker)
                    self._inject_dispatch_fault(worker, cell)
                if not busy:
                    break  # source drained and nothing in flight
                # Block until a result lands, the nearest deadline
                # expires, or a watchdog check is due (nothing armed =>
                # block indefinitely).
                waits = [d for _, _, d in busy.values() if d is not None]
                if self.stall_timeout is not None:
                    waits.extend(
                        last_seen[w] + self.stall_timeout for w in busy
                    )
                timeout = (
                    max(0.0, min(waits) - time.monotonic())
                    if waits else None
                )
                for key, _ in sel.select(timeout):
                    collect(key.data)
                if self.cell_timeout is not None:
                    now = time.monotonic()
                    for worker in [
                        w for w, (_, _, d) in busy.items()
                        if d is not None and now >= d
                    ]:
                        # The result may have landed between the select
                        # and this sweep — a result in hand always
                        # beats the deadline.
                        drain(worker)
                        if worker in busy:
                            evict(worker, "timed_out")
                if self.stall_timeout is not None:
                    now = time.monotonic()
                    for worker in [
                        w for w in list(busy)
                        if now - last_seen[w] >= self.stall_timeout
                    ]:
                        # Same courtesy as the deadline sweep: a late
                        # heartbeat or the result itself, already in
                        # the pipe, beats the watchdog.
                        drain(worker)
                        if worker in busy and (
                            time.monotonic() - last_seen[worker]
                            >= self.stall_timeout
                        ):
                            evict(worker, "failed", (
                                "worker stalled: no heartbeat within "
                                f"{self.stall_timeout}s"
                            ))
            return completed
        finally:
            # Exceptional unwind only: workers still mid-cell are in an
            # unknown state and must go; idle workers park for the next
            # pass.  (On a clean exit ``busy`` is already empty.)
            for worker in list(busy):
                if worker in self._workers:
                    self._workers.remove(worker)
                worker.stop(self.term_grace)
            sel.close()
