"""The synchronous round engine (Definition 11, executable).

One engine round (:meth:`ExecutionEngine.step`) runs these stages, in
order:

0. churn — the churn adversary's membership events apply (joins
   re-enter the live set with fresh state immediately; leaves commit at
   the end of the round); static-membership runs skip this stage;
1. crashes — the crash adversary picks this round's crash events; an
   event naming a pid that is not live (already crashed, departed, or
   outside the index set) is a no-op;
2. contention — the contention manager issues ``active``/``passive``
   advice for every live process;
3. messages — every live, non-halted process produces its message via
   ``msg_A`` (processes crashing or leaving *after send* still
   broadcast; *before send* they are silent — both timings are legal
   resolutions of constraint 2);
4. receive — the loss adversary resolves the whole round in one
   ``losses_for_round`` call, answering with a normalized
   :class:`~repro.adversary.loss.RoundLosses` (per-receiver drop counts
   and lazy drop sets that name only other senders — see
   :mod:`repro.adversary.loss` for the contract); self-delivery is
   unconditional (constraint 5), and every loss-free receiver shares the
   round's full broadcast multiset; the collision detector, seeing only
   the counts ``(c, T)`` exactly as Definition 6 prescribes, then issues
   per-process advice;
5. transitions — surviving processes transition on
   ``(N_r[i], D_r[i], W_r[i])``;
6. commit — the round's crashes, then its departures, take effect;
7. record — the contention manager observes the broadcast count, and
   the round is recorded according to the engine's
   :class:`~repro.core.records.RecordPolicy`.

Each stage has exactly one implementation, in pure python: every round
takes the one receive stage (:meth:`ExecutionEngine._receive_scalar`),
asks the detector through its dict ``advise`` and steps every process
through its own ``transition``.  Executions match the paper-literal
round spec in ``tests/spec_round.py`` under every record policy,
including crash, churn and halting rounds.

The engine validates constraints 4 and 5 as it goes and raises
:class:`~repro.core.errors.ModelViolation` on any breach, so a buggy
adversary cannot silently produce an illegal execution.

Record policies
---------------

The engine runs the *same* execution under every policy — seeded
adversaries consume randomness identically, so decisions and decision
rounds match round for round — but retains different amounts of it:

* ``RecordPolicy.FULL`` (default) keeps every :class:`RoundRecord`; this
  is what the trace validators and lower-bound replays need.
* ``RecordPolicy.SUMMARY`` keeps one :class:`RoundSummary` per round and
  skips building receive multisets for processes that will not transition
  (crashed or halted ones), cutting both memory and time.
* ``RecordPolicy.NONE`` retains nothing per round — the fastest mode,
  built for the high-volume sweeps the experiment harness fans out.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..adversary.churn import NoChurn
from ..adversary.loss import resolve_round
from ..core.errors import ConfigurationError, ModelViolation
from ..detectors.detector import aligned_advice
from .algorithm import Algorithm, ConsensusAlgorithm
from .environment import Environment
from .multiset import Multiset
from .process import Process, _UNDECIDED
from .records import ExecutionResult, RecordPolicy, RoundRecord, RoundSummary
from .types import ContentionAdvice, Message, ProcessId, Value

#: What one ``step()`` returns: a full record, or a summary in the
#: streaming modes.
RoundArtifact = Union[RoundRecord, RoundSummary]

#: Optional per-round observer, called after each round with that round's
#: artifact (a ``RoundRecord`` under FULL, a ``RoundSummary`` otherwise).
RoundObserver = Callable[[RoundArtifact], None]

#: Shared empty pid set for rounds without crashes or churn (never
#: mutated).
_EMPTY: frozenset = frozenset()


class ExecutionEngine:
    """Runs one execution of a system, producing an :class:`ExecutionResult`.

    The engine owns the fail state: a crashed process is never stepped
    again, which is observationally identical to the paper's absorbing
    ``fail_A``.

    ``record_policy`` selects how much per-round state is retained; see
    the module docstring.  The executed rounds are identical across
    policies for the same seeded environment.
    """

    def __init__(
        self,
        environment: Environment,
        processes: Mapping[ProcessId, Process],
        initial_values: Optional[Mapping[ProcessId, Value]] = None,
        record_policy: RecordPolicy = RecordPolicy.FULL,
        process_factory: Optional[Callable[[ProcessId], Process]] = None,
    ) -> None:
        if set(processes) != set(environment.indices):
            raise ConfigurationError(
                "process map must cover exactly the environment's indices"
            )
        self.environment = environment
        self.processes = dict(processes)
        self.initial_values = dict(initial_values) if initial_values else None
        self.record_policy = record_policy
        self._records: List[RoundRecord] = []
        self._summaries: List[RoundSummary] = []
        self._crashed: Dict[ProcessId, int] = {}
        self._round = 0
        # Cached live-index list and set, updated only when membership
        # changes; the hot path must not rebuild them every round.  The
        # set backs C-speed keys-view completeness checks on advice maps.
        self._live: List[ProcessId] = list(environment.indices)
        self._live_set: frozenset = frozenset(environment.indices)
        self._indices_set: frozenset = frozenset(environment.indices)
        # pid -> position in the index tuple: departures commit in index
        # order.
        self._pid_pos: Dict[ProcessId, int] = {
            pid: k for k, pid in enumerate(environment.indices)
        }
        # A FULL record's message map starts as a copy of this all-silent
        # map: copying a dict is much cheaper than rebuilding it per key.
        self._no_messages: Dict[ProcessId, None] = dict.fromkeys(
            environment.indices
        )
        # -- dynamic membership (the churn extension) -------------------
        # ``_departed`` maps pid -> round it left (0 = absent from round
        # 1); rejoining clears the entry and, for pids that already
        # participated, replaces the process instance via
        # ``process_factory`` so re-entry is with fresh state.  All of
        # it stays empty under NoChurn, which the hot path checks once.
        self._process_factory = process_factory
        churn = getattr(environment, "churn", None)
        self._has_churn = churn is not None and type(churn) is not NoChurn
        self._departed: Dict[ProcessId, int] = {}
        self._rejoins: Dict[ProcessId, int] = {}
        self._departed_decisions: List[Tuple[ProcessId, Value, int]] = []
        # Inert compatibility, always 0: perfbench/spans.py adds it to
        # its ``engine.kernel_rounds`` counter after every traced run.
        self.kernel_rounds: int = 0
        if self._has_churn:
            absent = frozenset(churn.initially_absent(environment.indices))
            if not absent <= self._indices_set:
                unknown = sorted(absent - self._indices_set, key=repr)
                raise ConfigurationError(
                    f"initially_absent names pids outside the "
                    f"environment's indices: {unknown}"
                )
            if absent:
                for pid in absent:
                    self._departed[pid] = 0
                self._live = [i for i in self._live if i not in absent]
                self._live_set = self._live_set - absent

    # ------------------------------------------------------------------
    @property
    def round(self) -> int:
        """Number of completed rounds."""
        return self._round

    def live_indices(self) -> List[ProcessId]:
        """Indices currently in the system: not crashed, not departed.

        Under a churn adversary this is a *dynamic* set — it shrinks on
        leaves and grows again on (re)joins, always in index order.
        """
        return list(self._live)

    # ------------------------------------------------------------------
    def step(self) -> RoundArtifact:
        """Execute one synchronous round and return its artifact.

        Runs the module docstring's stages in order.
        """
        self._round += 1
        r = self._round
        env = self.environment
        full = self.record_policy is RecordPolicy.FULL
        if self._has_churn:
            leave_after, leave_before = self._apply_churn(r)
        else:
            leave_after = leave_before = _EMPTY
        crash_after, crash_before = self._crashes(r)
        cm_advice = self._contention(r, full)
        sent, base_counts, inactive, halted = self._messages(
            cm_advice, crash_before | leave_before, crash_after | leave_after
        )
        lost = resolve_round(env.loss, r, list(sent), env.indices)
        received, cd_advice = self._receive_scalar(
            r, lost, sent, base_counts, _EMPTY if full else inactive
        )
        decided = self._transitions(
            received, cd_advice, cm_advice, inactive, halted
        )
        # The shared empty set keeps crash-free rounds' artifacts from
        # each holding (and the collector from tracking) one of their own.
        crashing = (crash_before | crash_after) or _EMPTY
        if crashing or leave_after or leave_before:
            self._commit(r, crashing, leave_after | leave_before)
        env.contention.observe(r, len(sent))
        return self._record(
            r, full, cm_advice, sent, received, cd_advice, crashing, decided
        )

    def _crashes(self, r: int):
        """Round ``r``'s crash events as ``(after_send, before_send)`` sets.

        An event naming a pid that is not live — already crashed,
        departed, or outside the index set — is a no-op, as crashing a
        failed process is in the model.
        """
        events = self.environment.crash.crashes(r, self._live)
        if not events:
            return _EMPTY, _EMPTY
        live = self._live_set
        after_send: set = set()
        before_send: set = set()
        for ev in events:
            if ev.pid in live:
                (after_send if ev.after_send else before_send).add(ev.pid)
        return after_send, before_send

    def _contention(self, r: int, full: bool) -> Mapping:
        """The contention manager's advice, consulted over the live set.

        The formal CM trace covers all of P, but a practical manager
        schedules among nodes it can still hear.  A FULL record keeps a
        copy padded with PASSIVE for crashed and departed processes
        (advice they never act on); the streaming modes use the
        manager's map as-is, and it is never mutated.
        """
        advice = self.environment.contention.advise(r, self._live)
        if not self._live_set <= advice.keys():
            missing = self._live_set - advice.keys()
            raise ModelViolation(
                f"contention manager omitted advice for {sorted(missing)}"
            )
        if full:
            advice = dict(advice)
            for pid in chain(self._crashed, self._departed):
                if pid not in advice:
                    advice[pid] = ContentionAdvice.PASSIVE
        return advice

    def _messages(self, cm_advice: Mapping, silent, gone):
        """``msg_A`` for every live process; ``silent`` pids send nothing.

        Pids in ``gone`` broadcast but will not transition (crashing or
        leaving after send).  Returns ``(sent, base_counts, inactive,
        halted)``: sender -> message in index order, the round's
        broadcast multiset as counts, every index that will not
        transition, and the halted live processes, which only advance
        their round counter.
        """
        live = self._live
        if silent:
            live = [pid for pid in live if pid not in silent]
        processes = self.processes
        sent: Dict[ProcessId, Message] = {}
        halted: List[ProcessId] = []
        base_counts: Dict[Message, int] = {}
        base_get = base_counts.get
        for pid in live:
            proc = processes[pid]
            if proc._halted:
                if pid not in gone:
                    halted.append(pid)
                continue
            m = proc.message(cm_advice[pid])
            if m is not None:
                sent[pid] = m
                base_counts[m] = base_get(m, 0) + 1
        inactive = _EMPTY
        if gone or halted or len(live) != len(self.environment.indices):
            inactive = self._indices_set.difference(live).union(gone, halted)
        return sent, base_counts, inactive, halted

    def _receive_scalar(self, r: int, lost, sent, base_counts, skip):
        """The receive stage: per-receiver drop sets, dict advice.

        Definition 11's receive step: each receiver's drop set comes off
        the round's broadcast multiset.  The loss adversary is consulted
        over the full index set every round, pids absent after a leave
        included, so absence never shifts its randomness.
        Each drop set is held to the contract before a count is derived
        from it: other senders only, exactly as many as the drop count
        says.  In a single-message round a receive multiset depends on
        the keep count alone, so one is built per distinct count.
        Returns ``(received, cd_advice)`` aligned with the index tuple,
        ``received`` holding ``None`` for the pids in ``skip``.
        """
        indices = self.environment.indices
        total = len(sent)
        full_round_ms = Multiset._from_counts_unchecked(base_counts, total)
        only_message = (
            next(iter(base_counts)) if len(base_counts) == 1 else None
        )
        sender_set = frozenset(sent)
        counts: Dict[ProcessId, int] = {}
        received: List[Optional[Multiset]] = []
        by_kept: Dict[int, Multiset] = {}
        # The drop-set map itself: one lookup per receiver, not a
        # ``lost[pid]`` call through the Mapping interface each.
        drop_sets = lost._ensure()
        for pid, dropped in zip(indices, lost.drop_counts):
            dropped_from = drop_sets[pid]
            if dropped_from:
                if pid in dropped_from:
                    raise ModelViolation(
                        f"loss adversary dropped {pid}'s own message at "
                        "itself (self-delivery is unconditional)"
                        if pid in sender_set
                        else f"loss adversary listed non-sender {pid} in "
                        "its own drop set"
                    )
                if not sender_set.issuperset(dropped_from):
                    raise ModelViolation(
                        f"drop set for {pid} contains non-senders "
                        f"{sorted(set(dropped_from) - sender_set, key=repr)}"
                    )
            if len(dropped_from) != dropped:
                raise ModelViolation(
                    f"loss resolution claims {dropped} drops at {pid}, but "
                    f"its drop set names {len(dropped_from)} senders"
                )
            kept = counts[pid] = total - dropped
            if skip and pid in skip:
                ms = None
            elif not dropped:
                ms = full_round_ms
            elif only_message is not None:
                ms = by_kept.get(kept)
                if ms is None:
                    ms = by_kept[kept] = Multiset._from_counts_unchecked(
                        {only_message: kept} if kept else {}, kept
                    )
            else:
                cnt = dict(base_counts)
                for s in dropped_from:
                    m = sent[s]
                    left = cnt[m] - 1
                    if left:
                        cnt[m] = left
                    else:
                        del cnt[m]
                ms = Multiset._from_counts_unchecked(cnt, kept)
            received.append(ms)
        return received, aligned_advice(
            self.environment.detector.advise(r, total, counts), indices
        )

    def _transitions(self, received, cd_advice, cm_advice: Mapping,
                     inactive, halted) -> Dict[ProcessId, Value]:
        """``trans_A`` for every process still in the round.

        ``received`` and ``cd_advice`` are aligned with the index tuple;
        pids in ``inactive`` do not transition, and the ``halted`` ones
        only advance their round counter.  Returns the round's new
        decisions in index order.
        """
        processes = self.processes
        for pid in halted:
            processes[pid]._advance_round()
        decided: Dict[ProcessId, Value] = {}
        for k, pid in enumerate(self.environment.indices):
            if inactive and pid in inactive:
                continue
            proc = processes[pid]
            already_decided = proc._decision is not _UNDECIDED
            proc.transition(received[k], cd_advice[k], cm_advice[pid])
            proc._advance_round()
            if not already_decided and proc._decision is not _UNDECIDED:
                decided[pid] = proc._decision
        return decided

    def _commit(self, r: int, crashing, leaving) -> None:
        """Commit round ``r``'s crashes, then its departures.

        A pid both crashing and leaving stays crashed — crashes are
        absorbing even under churn.  A departing incarnation's decision
        is remembered as a ghost: system-level agreement must hold
        against it even after the pid rejoins with fresh state.
        """
        crashed = self._crashed
        for pid in crashing:
            crashed[pid] = r
        gone = set(crashing)
        for pid in sorted(leaving, key=self._pid_pos.get):
            if pid in crashed:
                continue
            self._departed[pid] = r
            gone.add(pid)
            proc = self.processes[pid]
            if proc._decision is not _UNDECIDED:
                self._departed_decisions.append((pid, proc._decision, r))
        self._live = [i for i in self._live if i not in gone]
        self._live_set = self._live_set - gone

    def _record(self, r: int, full: bool, cm_advice: Mapping, sent,
                received, cd_advice, crashed, decided) -> RoundArtifact:
        """Round ``r``'s artifact, retained as the record policy says."""
        if full:
            indices = self.environment.indices
            messages: Dict[ProcessId, Optional[Message]] = (
                self._no_messages.copy()
            )
            messages.update(sent)
            record = RoundRecord(
                round=r,
                cm_advice=cm_advice,
                messages=messages,
                received=dict(zip(indices, received)),
                cd_advice=dict(zip(indices, cd_advice)),
                crashed_during=frozenset(crashed),
                decided_during=decided,
            )
            self._records.append(record)
            return record
        summary = RoundSummary(
            round=r,
            broadcast_count=len(sent),
            crashed_during=frozenset(crashed),
            decided_during=decided,
        )
        if self.record_policy is RecordPolicy.SUMMARY:
            self._summaries.append(summary)
        return summary

    def _apply_churn(self, r: int):
        """Apply round ``r``'s membership events.

        Joins happen immediately: the pid re-enters the cached live
        list/set (rebuilt in index order — the ``live_indices``
        invalidation) with a fresh process instance when it had already
        participated.  Leaves are only *collected* here, with
        ``after_send`` deciding whether the final broadcast goes out —
        the same two legal timings as crashes; :meth:`_commit` applies
        them after transitions.  Returns ``(leave_after_send,
        leave_before_send)``.
        """
        env = self.environment
        processes = self.processes
        departed = self._departed
        decided = frozenset(
            pid for pid in self._live
            if processes[pid]._decision is not _UNDECIDED
        )
        events = env.churn.events(r, self._live, departed, decided)
        if not events:
            return _EMPTY, _EMPTY
        leave_after: set = set()
        leave_before: set = set()
        joined: List[ProcessId] = []
        for ev in events:
            pid = ev.pid
            if ev.kind == "leave":
                # Ignore leaves of absent/crashed pids (a no-op, like
                # crashing the crashed); duplicates keep the first
                # event's send timing.
                if (pid in self._live_set and pid not in leave_after
                        and pid not in leave_before):
                    (leave_after if ev.after_send else leave_before).add(pid)
            elif ev.kind in ("join", "rejoin"):
                left_round = departed.get(pid)
                if left_round is None:
                    continue  # already present (or crashed): a no-op
                if left_round > 0:
                    # Re-entry after participation is with *fresh state*:
                    # a brand-new process instance, no memory of its
                    # pre-leave rounds (decisions included).
                    if self._process_factory is None:
                        raise ConfigurationError(
                            f"churn rejoin of {pid!r} requires a process "
                            "factory (run via run_algorithm/run_consensus,"
                            " or pass process_factory=... to "
                            "ExecutionEngine)"
                        )
                    processes[pid] = self._process_factory(pid)
                # left_round == 0: the initial instance never stepped, so
                # it already is fresh state — no factory needed.
                del departed[pid]
                self._rejoins[pid] = self._rejoins.get(pid, 0) + 1
                joined.append(pid)
            else:  # pragma: no cover - ChurnEvent validates its kind
                raise ConfigurationError(
                    f"unknown churn event kind {ev.kind!r}"
                )
        if joined:
            self._live_set = self._live_set | frozenset(joined)
            self._live = [
                i for i in env.indices if i in self._live_set
            ]
        return leave_after, leave_before

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        until_all_decided: bool = True,
        observer: Optional[RoundObserver] = None,
    ) -> ExecutionResult:
        """Run up to ``max_rounds`` rounds and return the result.

        With ``until_all_decided`` (the default) the run stops as soon as
        every correct (non-crashed) process has decided — the natural stop
        condition for consensus experiments.  Lower-bound replays disable
        it to force a full fixed-length prefix.

        If *every* process crashes, the run does not report vacuous
        success: it stops (no further state can change — every process is
        in the absorbing fail state) and the result flags the outcome via
        :attr:`ExecutionResult.no_correct_processes`, with
        ``all_correct_decided()`` False.
        """
        if max_rounds < 0:
            raise ConfigurationError("max_rounds must be >= 0")
        for _ in range(max_rounds):
            record = self.step()
            if observer is not None:
                observer(record)
            if until_all_decided:
                if not self._live and not self._departed:
                    # All crashed: nothing further can happen; the result
                    # carries the no-correct-process flag instead of a
                    # vacuous "everyone decided".  (With departed pids
                    # the system may repopulate on a later rejoin, so an
                    # empty live set alone is not terminal.)
                    break
                if self._all_correct_decided():
                    break
        return self.result()

    def _all_correct_decided(self) -> bool:
        """Every live process decided — False (not vacuous) when none live."""
        live = self._live
        if not live:
            return False
        processes = self.processes
        return all(
            processes[pid]._decision is not _UNDECIDED for pid in live
        )

    def result(self) -> ExecutionResult:
        """Snapshot the execution so far as an :class:`ExecutionResult`."""
        env = self.environment
        decisions = {
            pid: self.processes[pid].decision for pid in env.indices
        }
        decision_rounds = {
            pid: self.processes[pid].decision_round for pid in env.indices
        }
        crash_rounds = {
            pid: self._crashed.get(pid) for pid in env.indices
        }
        return ExecutionResult(
            indices=env.indices,
            records=list(self._records),
            decisions=decisions,
            decision_rounds=decision_rounds,
            crash_rounds=crash_rounds,
            initial_values=self.initial_values,
            cst=env.communication_stabilization_time(),
            record_policy=self.record_policy,
            summaries=list(self._summaries),
            rounds=self._round,
            leave_rounds=dict(self._departed),
            rejoin_counts=dict(self._rejoins),
            departed_decisions=tuple(self._departed_decisions),
        )


# ----------------------------------------------------------------------
# High-level entry points
# ----------------------------------------------------------------------
def run_algorithm(
    environment: Environment,
    algorithm: Algorithm,
    max_rounds: int,
    until_all_decided: bool = True,
    record_policy: RecordPolicy = RecordPolicy.FULL,
    observer: Optional[RoundObserver] = None,
) -> ExecutionResult:
    """Instantiate ``algorithm`` over the environment's indices and run.

    ``observer`` (e.g. a :class:`~repro.core.records.SqliteSink`) receives
    each round's artifact as it is produced — the streaming companion to
    ``RecordPolicy.SUMMARY``/``NONE``.
    """
    environment.reset()
    processes = algorithm.spawn_all(environment.indices)
    engine = ExecutionEngine(
        environment, processes, record_policy=record_policy,
        process_factory=algorithm.spawn,
    )
    return engine.run(
        max_rounds, until_all_decided=until_all_decided, observer=observer
    )


def run_consensus(
    environment: Environment,
    algorithm: ConsensusAlgorithm,
    initial_values: Mapping[ProcessId, Value],
    max_rounds: int,
    until_all_decided: bool = True,
    record_policy: RecordPolicy = RecordPolicy.FULL,
    observer: Optional[RoundObserver] = None,
) -> ExecutionResult:
    """Run a consensus algorithm with the given initial-value assignment."""
    if set(initial_values) != set(environment.indices):
        raise ConfigurationError(
            "initial values must cover exactly the environment's indices"
        )
    environment.reset()
    processes = algorithm.instantiate(initial_values)
    engine = ExecutionEngine(
        environment, processes, initial_values, record_policy=record_policy,
        # A rejoining process restarts from its initial value — fresh
        # state per the churn model (its pre-leave progress, decisions
        # included, is forgotten).
        process_factory=lambda pid: algorithm.spawn(
            pid, initial_values[pid]
        ),
    )
    return engine.run(
        max_rounds, until_all_decided=until_all_decided, observer=observer
    )
