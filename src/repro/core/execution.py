"""The synchronous round engine (Definition 11, executable).

One engine round performs, in order:

0. the churn adversary's membership events apply (joins re-enter the
   live set with fresh state immediately; leaves commit at the end of
   the round) — static-membership runs skip this entirely;
1. the crash adversary picks this round's crash events;
2. the contention manager issues ``active``/``passive`` advice for every
   index (crashed processes get advice too — the CM trace is defined over
   all of ``P`` — they just never act on it);
3. every live, non-halted process produces its message via ``msg_A``
   (processes crashing *after send* still broadcast; *before send* they
   are silent — both timings are legal resolutions of constraint 2);
4. the loss adversary resolves the whole round in one
   ``losses_for_round`` call, answering with a normalized
   :class:`~repro.adversary.loss.RoundLosses` (per-receiver drop counts,
   lazy drop sets that name only other senders, lazy dropped pairs — see
   :mod:`repro.adversary.loss` for the contract); self-delivery is
   unconditional (constraint 5), and every loss-free receiver shares the
   round's full broadcast multiset;
5. the collision detector, seeing only the counts ``(c, T)`` exactly as
   Definition 6 prescribes, issues per-process advice;
6. surviving processes transition on ``(N_r[i], D_r[i], W_r[i])``;
7. the round is recorded according to the engine's
   :class:`~repro.core.records.RecordPolicy`.

The engine validates constraints 4 and 5 as it goes and raises
:class:`~repro.core.errors.ModelViolation` on any breach, so a buggy
adversary cannot silently produce an illegal execution.

The array round kernel
----------------------

Steps (4)-(6) have a vectorised fast path, gated on
:func:`~repro.core.environment.array_kernel_module` (numpy present,
``REPRO_PURE_PYTHON`` unset) and the engine's ``use_array_kernel``
knob.  The kernel reads the round's drop counts, derives every
receive count with one array subtraction, validates drop budgets
against a sender-membership array, and hands the detector the counts
*array* through the ``advise_array`` hook (whose default round-trips
through dict ``advise``, so third-party detectors keep working).

Receive multisets are shared, never rebuilt per receiver: a
single-message round shares one multiset per distinct keep count
(never touching the drop sets at all), and a *multi-message* round —
distinct payloads in flight — goes through the message interning
table (:class:`~repro.core.arrays.MessageInterner` maps payloads to
small int codes per execution): the round's dropped (receiver,
sender) position pairs (``RoundLosses.drop_pairs``) turn into a
(receivers x codes) kept-count matrix via ``bincount``, and each
*distinct* row materialises exactly one multiset
(:meth:`~repro.core.multiset.Multiset.from_code_row`).

Transitions batch too: when every active process shares one class
whose ``transition_array`` is trusted (the same MRO-guard +
dict-fallback contract as ``advise_array`` — see
:func:`~repro.core.process._trusted_transition_array`), the round's
transitions are one batched call over position-aligned lists instead
of per-process ``transition``/``_advance_round`` call pairs.
Heterogeneous fleets and third-party process classes keep the
per-process loop, call-for-call.

The pure-python path remains the reference: both paths produce
indistinguishable executions under every record policy, including
crash and halting rounds (``tests/test_array_kernel.py``), and both
match the paper-literal round spec in ``tests/spec_round.py``.  With
the kernel on, a round leaves it for exactly one reason: a pending
churn *event* (a leave or join firing this round) takes the scalar
reference path (the *fallback gate*), which reads the same
``RoundLosses``, so no adversary randomness is disturbed and kernel-on
vs kernel-off byte-identity extends to churned executions.  Event-free
rounds — including rounds
where pids are merely *absent* after an earlier leave — ride the
kernel: the loss adversary is consulted over the full index set on
both paths, so absence only gates the per-process bookkeeping, not the
randomness (``tests/test_churn.py`` asserts the gate via the engine's
``kernel_rounds`` counter).

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

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from ..adversary.churn import NoChurn
from ..adversary.loss import resolve_round
from ..core.errors import ConfigurationError, ModelViolation
from .algorithm import Algorithm, ConsensusAlgorithm
from .arrays import MessageInterner
from .environment import Environment, array_kernel_module
from .multiset import Multiset
from .process import Process, _UNDECIDED, _trusted_transition_array
from .records import ExecutionResult, RecordPolicy, RoundRecord, RoundSummary
from .types import CollisionAdvice, ContentionAdvice, Message, ProcessId, Value

#: What one ``step()`` returns: a full record, or a summary in the
#: streaming modes.
RoundArtifact = Union[RoundRecord, RoundSummary]

#: Optional per-round observer, called after each round with that round's
#: artifact (a ``RoundRecord`` under FULL, a ``RoundSummary`` otherwise).
RoundObserver = Callable[[RoundArtifact], None]

#: Shared empty leave set for churn-free rounds (never mutated).
_NO_LEAVES: frozenset = frozenset()


class ExecutionEngine:
    """Runs one execution of a system, producing an :class:`ExecutionResult`.

    The engine owns the fail state: a crashed process is never stepped
    again, which is observationally identical to the paper's absorbing
    ``fail_A``.

    ``record_policy`` selects how much per-round state is retained; see
    the module docstring.  The executed rounds are identical across
    policies for the same seeded environment.

    ``use_array_kernel`` gates the vectorised round kernel (steps 4-5 on
    int arrays, array detector advice): ``None`` (default) enables it
    exactly when :func:`~repro.core.environment.array_kernel_module`
    finds numpy; ``False`` forces the pure-python reference path;
    ``True`` insists on the kernel and raises
    :class:`~repro.core.errors.ConfigurationError` when numpy is
    unavailable rather than silently running the slow path.  The two
    paths produce indistinguishable executions under every record
    policy (the ``tests/test_array_kernel.py`` equivalence suite).
    """

    def __init__(
        self,
        environment: Environment,
        processes: Mapping[ProcessId, Process],
        initial_values: Optional[Mapping[ProcessId, Value]] = None,
        record_policy: RecordPolicy = RecordPolicy.FULL,
        use_array_kernel: Optional[bool] = None,
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
        # Cached live-index list and set, updated only when crashes
        # commit; the hot path must not rebuild them every round.  The
        # set backs C-speed keys-view completeness checks on advice maps.
        self._live: List[ProcessId] = list(environment.indices)
        self._live_set: frozenset = frozenset(environment.indices)
        self._indices_set: frozenset = frozenset(environment.indices)
        np_mod = array_kernel_module()
        if use_array_kernel is None:
            self._np = np_mod
        elif use_array_kernel:
            if np_mod is None:
                raise ConfigurationError(
                    "use_array_kernel=True requires numpy (and "
                    "REPRO_PURE_PYTHON unset); install numpy or pass "
                    "use_array_kernel=None for automatic gating"
                )
            self._np = np_mod
        else:
            self._np = None
        # pid -> position in the index tuple; the array kernel's advice
        # list and counts array are aligned to this ordering.
        self._pid_pos: Dict[ProcessId, int] = {
            pid: k for k, pid in enumerate(environment.indices)
        }
        # Message interning table for multi-message kernel rounds
        # (payload -> small int code, stable per execution); created on
        # first use so single-message workloads never pay for it.
        self._interner: Optional[MessageInterner] = None
        # Singleton-round multiset buckets, shared across rounds:
        # message payload -> {keep count -> Multiset}.  Multisets are
        # immutable, so an execution-wide cache is safe and the common
        # single-payload round reuses every previously built bucket.
        self._ms_buckets: Dict[Optional[Message], Dict[int, Multiset]] = {}
        # Contention-advice list cache for batched transitions, keyed by
        # the advice dict's identity: managers that return a stable,
        # unmutated dict (NoContentionManager) pay the index-aligned
        # list build once instead of every round.
        self._cm_list_key: Optional[dict] = None
        self._cm_list: Optional[list] = None
        # Batched-transition cache: the index-aligned process list and
        # the one class every process shares when its
        # ``transition_array`` is trusted (else None -> per-pid loop).
        # Invalidated whenever a process instance is replaced (churn
        # rejoin) and rebuilt lazily on the next kernel round.
        self._procs_list: Optional[List[Process]] = None
        self._batch_cls: Optional[type] = None
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
        #: Rounds this execution resolved through the array kernel.  The
        #: churn fallback gate is asserted against this: only rounds
        #: with a pending membership *event* (a leave or join firing)
        #: take the scalar reference path; event-free rounds — absent
        #: pids included — ride the kernel.
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
        """Execute one synchronous round and return its artifact."""
        env = self.environment
        indices = env.indices
        crashed = self._crashed
        self._round += 1
        r = self._round
        full = self.record_policy is RecordPolicy.FULL

        # (0) Churn: membership events apply before crashes and loss
        # resolution.  Joins take effect at the start of the round (the
        # pid re-enters ``live`` with fresh state before the contention
        # manager or crash adversary look at it); leaves are collected
        # now and committed at the end of the round, with ``after_send``
        # deciding whether the final broadcast goes out — the same two
        # legal timings as crashes.  Only rounds with a *pending event*
        # (a leave or join firing now) take the scalar reference path
        # below; rounds where pids are merely absent after an earlier
        # leave ride the kernel — the loss adversary sees the full index
        # set on both paths, so absence never shifts its randomness.
        leave_after_send: frozenset = _NO_LEAVES
        leave_before_send: frozenset = _NO_LEAVES
        event_round = False
        if self._has_churn:
            leave_after_send, leave_before_send, event_round = (
                self._apply_churn(r)
            )
        departed = self._departed

        # (1) Crashes for this round.
        live_before = self._live
        events = env.crash.crashes(r, live_before)
        crash_after_send = set()
        crash_before_send = set()
        for ev in events:
            if ev.pid in crashed:
                continue
            if ev.after_send:
                crash_after_send.add(ev.pid)
            else:
                crash_before_send.add(ev.pid)

        # (2) Contention advice.  The formal CM trace covers all of P, but
        # a practical manager schedules among nodes it can still hear, so
        # the engine consults it over the live set and pads crashed
        # processes with PASSIVE (their advice is never acted on).
        cm_advice = env.contention.advise(r, live_before)
        if full or crashed or departed:
            # Copy before padding: FULL mode retains the map in the round
            # record, and crashed/departed processes need PASSIVE filler
            # — never mutate the manager's own dict.  The streaming
            # no-crash path uses the manager's map as-is.
            cm_advice = dict(cm_advice)
        if not self._live_set <= cm_advice.keys():
            missing = self._live_set - cm_advice.keys()
            raise ModelViolation(
                f"contention manager omitted advice for {sorted(missing)}"
            )
        for pid in crashed:
            if pid not in cm_advice:
                cm_advice[pid] = ContentionAdvice.PASSIVE
        for pid in departed:
            if pid not in cm_advice:
                cm_advice[pid] = ContentionAdvice.PASSIVE

        # (3) Message generation.  ``inactive`` collects every process that
        # will not transition this round (already crashed, crashing now,
        # or halted) so the receive loop can decide multiset need with a
        # single membership test.
        processes = self.processes
        messages: Dict[ProcessId, Optional[Message]] = {}
        senders: List[ProcessId] = []
        base_counts: Dict[Message, int] = {}
        base_get = base_counts.get
        inactive = set(crash_after_send)
        if leave_after_send:
            # Broadcast-then-depart: the message goes out but the
            # process never transitions this round.
            inactive |= leave_after_send
        halted_live: List[ProcessId] = []
        if (not crashed and not crash_before_send and not crash_after_send
                and not departed and not event_round):
            # Crash- and churn-free round (the overwhelmingly common
            # case): no per-index membership tests.
            for pid in indices:
                proc = processes[pid]
                if proc._halted:
                    messages[pid] = None
                    inactive.add(pid)
                    halted_live.append(pid)
                    continue
                m = proc.message(cm_advice[pid])
                messages[pid] = m
                if m is not None:
                    senders.append(pid)
                    base_counts[m] = base_get(m, 0) + 1
        else:
            for pid in indices:
                if (pid in crashed or pid in crash_before_send
                        or pid in departed or pid in leave_before_send):
                    messages[pid] = None
                    inactive.add(pid)
                    continue
                proc = processes[pid]
                if proc._halted:
                    messages[pid] = None
                    inactive.add(pid)
                    if (pid not in crash_after_send
                            and pid not in leave_after_send):
                        halted_live.append(pid)
                    continue
                m = proc.message(cm_advice[pid])
                messages[pid] = m
                if m is not None:
                    senders.append(pid)
                    base_counts[m] = base_get(m, 0) + 1

        # (4) Loss resolution and receive multisets.  One
        # ``losses_for_round`` call resolves the whole round as a
        # normalized ``RoundLosses`` (any other answer is a
        # ModelViolation).  The round's full broadcast multiset is built
        # once; loss-free receivers share it outright (Multiset is
        # immutable, so sharing is safe).  Processes that will not
        # transition get no multiset outside FULL records — the detector
        # only ever needs the counts (Definition 6).
        lost_map = resolve_round(env.loss, r, senders, indices)
        np_mod = self._np
        counts: Dict[ProcessId, int] = {}
        received: Dict[ProcessId, Multiset] = {}
        total = len(senders)
        full_round_ms = Multiset._from_counts_unchecked(base_counts, total)
        single = len(base_counts) == 1
        if single:
            (only_message,) = base_counts
        always_multiset = full or not inactive
        counts_arr = None
        received_list: Optional[list] = None
        if np_mod is not None and not event_round:
            # Array kernel (a churn *event* round takes the scalar path
            # below instead, which reads the same RoundLosses, so the
            # adversary's randomness — and the execution — are identical
            # across the gate): receive counts are one vectorised
            # subtraction.
            counts_arr = total - np_mod.asarray(
                lost_map.drop_counts, dtype=np_mod.int64
            )
            counts_list = counts_arr.tolist()
            # Every receiver keeps between none and all ``total``
            # messages, and a sender at least its own (constraint 5).
            low = min(counts_list, default=0)
            pid_pos = self._pid_pos
            if (low < 0 or max(counts_list, default=0) > total
                    or (low == 0 and any(
                        counts_list[pid_pos[s]] == 0 for s in senders
                    ))):
                sent = {pid_pos[s] for s in senders}
                k = next(
                    k for k, kept in enumerate(counts_list)
                    if kept < (k in sent) or kept > total
                )
                raise ModelViolation(
                    f"loss resolution claims {total - counts_list[k]} "
                    f"drops at {indices[k]}, outside its droppable budget "
                    f"of {total - (k in sent)}"
                )
            # Receive multisets live in a list aligned with the index
            # tuple (the ``received`` dict is only materialised for FULL
            # records).  Single-message rounds share one multiset per
            # distinct keep count; the lossless bucket shares the
            # round's full multiset outright.
            if single or total == 0:
                # The buckets persist across rounds (multisets are
                # immutable, so sharing is safe execution-wide): in the
                # steady state every keep count has been seen before and
                # the round is one C-level map over the cache.
                key = only_message if total else None
                buckets = self._ms_buckets.get(key)
                if buckets is None:
                    buckets = self._ms_buckets[key] = {}
                try:
                    received_list = list(
                        map(buckets.__getitem__, counts_list)
                    )
                except KeyError:
                    buckets.update(Multiset.singleton_buckets(
                        key, set(counts_list) - buckets.keys()
                    ))
                    buckets[total] = full_round_ms
                    received_list = list(
                        map(buckets.__getitem__, counts_list)
                    )
            else:
                # Multi-message round: interned message codes turn the
                # dropped (receiver, sender) position pairs into one
                # (receivers x codes) kept-count matrix — one bincount
                # for the drops, one subtraction — and each *distinct*
                # row builds exactly one multiset.  Sharing rows is exact
                # because multiset equality is counts-based,
                # insertion-order-free.
                interner = self._interner
                if interner is None:
                    interner = self._interner = MessageInterner()
                codes = interner.codes(messages[s] for s in senders)
                width = len(interner.payloads)
                codes_arr = np_mod.asarray(codes, dtype=np_mod.int64)
                rows, cols = lost_map.drop_pairs()
                rows = np_mod.asarray(rows, dtype=np_mod.intp)
                cols = np_mod.asarray(cols, dtype=np_mod.intp)
                drop2d = np_mod.bincount(
                    rows * width + codes_arr[cols],
                    minlength=len(indices) * width,
                ).reshape(len(indices), width)
                kept2d = np_mod.bincount(
                    codes_arr, minlength=width
                ) - drop2d
                if not np_mod.array_equal(kept2d.sum(axis=1), counts_arr):
                    raise ModelViolation(
                        "loss resolution's drop pairs disagree with its "
                        "drop counts"
                    )
                payloads = interner.payloads
                rows_list = kept2d.tolist()
                row_cache: Dict[tuple, Multiset] = {}
                received_list = []
                for k, pid in enumerate(indices):
                    if not always_multiset and pid in inactive:
                        received_list.append(None)
                        continue
                    kept = counts_list[k]
                    if kept == total:
                        received_list.append(full_round_ms)
                        continue
                    row = rows_list[k]
                    key = tuple(row)
                    ms = row_cache.get(key)
                    if ms is None:
                        ms = row_cache[key] = Multiset.from_code_row(
                            payloads, row, kept
                        )
                    received_list.append(ms)
            if full:
                received = dict(zip(indices, received_list))
            self.kernel_rounds += 1
        else:
            self._resolve_losses_scalar(
                lost_map, counts, received, base_counts, senders, messages,
                inactive, total, full_round_ms,
                only_message if single else None, always_multiset,
            )

        # (5) Collision-detector advice from counts only.  Kernel rounds
        # hand the detector the counts *array* through the
        # ``advise_array`` hook (whose default round-trips through dict
        # ``advise``, so third-party detectors keep working); rounds
        # that resolved through the scalar loop keep the dict path.  The
        # defensive copy is only needed when the map outlives the round
        # (FULL retains it in the record).
        if counts_arr is not None:
            advice_list = env.detector.advise_array(
                r, total, counts_arr, indices
            )
            cd_advice = dict(zip(indices, advice_list)) if full else None
        else:
            advice_list = None
            cd_advice = env.detector.advise(r, total, counts)
            if full:
                cd_advice = dict(cd_advice)
            if not self._indices_set <= cd_advice.keys():
                missing = self._indices_set - cd_advice.keys()
                raise ModelViolation(
                    f"collision detector omitted advice for {sorted(missing)}"
                )

        # (6) Transitions for surviving processes.  Halted-but-live
        # processes only advance their round counter; ``inactive`` holds
        # exactly the halted and the (newly or previously) crashed.
        decided_during: Dict[ProcessId, Value] = {}
        for pid in halted_live:
            processes[pid]._advance_round()
        if advice_list is not None:
            # Kernel rounds only: advice and multisets live in lists
            # aligned with the index tuple, so transitions never pay
            # per-pid dict lookups (``received_list`` is always set on
            # the path that set ``advice_list``).  When every active
            # process shares one trusted class, the whole round is one
            # ``transition_array`` call; otherwise the per-pid loop is
            # the byte-identical fallback.
            procs_list = self._procs_list
            if procs_list is None:
                procs_list = self._refresh_batch_cache()
            batch_cls = self._batch_cls
            if batch_cls is not None:
                if inactive:
                    ks = [
                        k for k, pid in enumerate(indices)
                        if pid not in inactive
                    ]
                    newly = batch_cls.transition_array(
                        [procs_list[k] for k in ks],
                        [received_list[k] for k in ks],
                        [advice_list[k] for k in ks],
                        [cm_advice[indices[k]] for k in ks],
                    )
                    if newly:
                        for i in newly:
                            pid = indices[ks[i]]
                            decided_during[pid] = processes[pid]._decision
                else:
                    if self._cm_list_key is cm_advice:
                        cm_list = self._cm_list
                    else:
                        cm_list = list(
                            map(cm_advice.__getitem__, indices)
                        )
                        self._cm_list_key = cm_advice
                        self._cm_list = cm_list
                    newly = batch_cls.transition_array(
                        procs_list, received_list, advice_list, cm_list,
                    )
                    if newly:
                        for i in newly:
                            pid = indices[i]
                            decided_during[pid] = processes[pid]._decision
            else:
                for k, pid in enumerate(indices):
                    if inactive and pid in inactive:
                        continue
                    proc = processes[pid]
                    already_decided = proc._decision is not _UNDECIDED
                    proc.transition(
                        received_list[k], advice_list[k], cm_advice[pid]
                    )
                    proc._advance_round()
                    if (not already_decided
                            and proc._decision is not _UNDECIDED):
                        decided_during[pid] = proc._decision
        else:
            active_pids = (
                indices if not inactive
                else [pid for pid in indices if pid not in inactive]
            )
            for pid in active_pids:
                proc = processes[pid]
                # Direct slot reads instead of the has_decided/decision
                # properties: this loop runs once per live process per
                # round.
                already_decided = proc._decision is not _UNDECIDED
                proc.transition(received[pid], cd_advice[pid], cm_advice[pid])
                proc._advance_round()
                if not already_decided and proc._decision is not _UNDECIDED:
                    decided_during[pid] = proc._decision

        # Commit crashes and refresh the cached live list/set.
        newly_crashed: frozenset = _NO_LEAVES
        if crash_before_send or crash_after_send:
            newly_crashed = crash_before_send | crash_after_send
            for pid in newly_crashed:
                crashed[pid] = r
            self._live = [i for i in self._live if i not in newly_crashed]
            self._live_set = self._live_set - newly_crashed
        # Commit departures (a pid both crashing and leaving this round
        # stays crashed — crashes are absorbing even under churn).  A
        # departing incarnation's decision is remembered as a ghost:
        # system-level agreement must hold against it even after the pid
        # rejoins with fresh state.
        if leave_after_send or leave_before_send:
            newly_departed = {
                pid for pid in leave_after_send | leave_before_send
                if pid not in crashed
            }
            if newly_departed:
                for pid in sorted(newly_departed, key=self._pid_pos.get):
                    departed[pid] = r
                    proc = processes[pid]
                    if proc._decision is not _UNDECIDED:
                        self._departed_decisions.append(
                            (pid, proc._decision, r)
                        )
                self._live = [
                    i for i in self._live if i not in newly_departed
                ]
                self._live_set = self._live_set - newly_departed

        # (7) Channel feedback and bookkeeping.
        env.contention.observe(r, len(senders))
        if full:
            record = RoundRecord(
                round=r,
                cm_advice=cm_advice,
                messages=messages,
                received=received,
                cd_advice=cd_advice,
                crashed_during=frozenset(newly_crashed),
                decided_during=decided_during,
            )
            self._records.append(record)
            return record
        summary = RoundSummary(
            round=r,
            broadcast_count=len(senders),
            crashed_during=frozenset(newly_crashed),
            decided_during=decided_during,
        )
        if self.record_policy is RecordPolicy.SUMMARY:
            self._summaries.append(summary)
        return summary

    def _refresh_batch_cache(self) -> List[Process]:
        """Rebuild the index-aligned process list and the batch class.

        ``_batch_cls`` is the one class every process shares when its
        ``transition_array`` may stand in for per-process ``transition``
        calls (:func:`~repro.core.process._trusted_transition_array`);
        ``None`` routes kernel rounds through the per-pid reference
        loop.  Crashed processes stay in the list — the ``inactive``
        filter excludes them per round — so the cache only invalidates
        when an instance is *replaced* (churn rejoin).
        """
        processes = self.processes
        procs = [processes[pid] for pid in self.environment.indices]
        self._procs_list = procs
        cls: Optional[type] = type(procs[0]) if procs else None
        if cls is not None:
            for p in procs:
                if type(p) is not cls:
                    cls = None
                    break
        if cls is not None and not _trusted_transition_array(cls):
            cls = None
        self._batch_cls = cls
        return procs

    def _apply_churn(self, r: int):
        """Apply round ``r``'s membership events.

        Joins happen immediately: the pid re-enters the cached live
        list/set (rebuilt in index order — the ``live_indices``
        invalidation) with a fresh process instance when it had already
        participated.  Leaves are only *collected* here; ``step``
        commits them after transitions.  Returns
        ``(leave_after_send, leave_before_send, any_events)``.
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
            return _NO_LEAVES, _NO_LEAVES, False
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
                    # The batched-transition cache holds the old
                    # instance; rebuild it on the next kernel round.
                    self._procs_list = None
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
        return leave_after, leave_before, True

    def _resolve_losses_scalar(
        self,
        lost_map,
        counts: Dict[ProcessId, int],
        received: Dict[ProcessId, Multiset],
        base_counts: Dict[Message, int],
        senders: List[ProcessId],
        messages: Dict[ProcessId, Optional[Message]],
        inactive: set,
        total: int,
        full_round_ms: Multiset,
        only_message: Optional[Message],
        always_multiset: bool,
    ) -> None:
        """The reference per-receiver loss resolution (pure-python path).

        Fills ``counts`` and ``received`` in index order — byte for byte
        what the array kernel must reproduce — from the round's drop
        sets, and holds each set to the contract before any count is
        derived from it: senders only, never its own receiver, and
        exactly as many as the drop count says.  In a single-message
        round (``only_message`` set) a receive multiset depends on the
        keep count alone, so one is built per distinct count.
        """
        indices = self.environment.indices
        sender_set = frozenset(senders)
        drops = lost_map.drop_counts
        if type(drops) is not list:
            drops = drops.tolist()
        by_kept: Dict[int, Multiset] = {}
        for k, pid in enumerate(indices):
            lost = lost_map[pid]
            dropped = drops[k]
            if lost:
                if pid in lost:
                    raise ModelViolation(
                        f"loss adversary dropped {pid}'s own message at "
                        "itself (self-delivery is unconditional)"
                        if messages[pid] is not None
                        else f"loss adversary listed non-sender {pid} in "
                        "its own drop set"
                    )
                if not sender_set.issuperset(lost):
                    raise ModelViolation(
                        f"drop set for {pid} contains non-senders "
                        f"{sorted(set(lost) - sender_set, key=repr)}"
                    )
            if len(lost) != dropped:
                raise ModelViolation(
                    f"loss resolution claims {dropped} drops at {pid}, but "
                    f"its drop set names {len(lost)} senders"
                )
            kept = total - dropped
            counts[pid] = kept
            if not always_multiset and pid in inactive:
                continue
            if not dropped:
                received[pid] = full_round_ms
                continue
            if only_message is not None:
                ms = by_kept.get(kept)
                if ms is None:
                    ms = by_kept[kept] = Multiset._from_counts_unchecked(
                        {only_message: kept} if kept else {}, kept
                    )
                received[pid] = ms
                continue
            cnt = dict(base_counts)
            for s in lost:
                m = messages[s]
                left = cnt[m] - 1
                if left:
                    cnt[m] = left
                else:
                    del cnt[m]
            received[pid] = Multiset._from_counts_unchecked(cnt, kept)

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
    use_array_kernel: Optional[bool] = None,
) -> ExecutionResult:
    """Instantiate ``algorithm`` over the environment's indices and run.

    ``observer`` (e.g. a :class:`~repro.core.records.JsonlSink`) receives
    each round's artifact as it is produced — the streaming companion to
    ``RecordPolicy.SUMMARY``/``NONE``.  ``use_array_kernel`` passes
    through to :class:`ExecutionEngine` (``None`` = automatic gating).
    """
    environment.reset()
    processes = algorithm.spawn_all(environment.indices)
    engine = ExecutionEngine(
        environment, processes, record_policy=record_policy,
        use_array_kernel=use_array_kernel,
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
    use_array_kernel: Optional[bool] = None,
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
        use_array_kernel=use_array_kernel,
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
