"""A paper-literal executable spec of the synchronous round.

The engine's round is optimised (shared multisets, lazily built drop
sets, cached live sets), and no comparison of the engine with itself can
catch a bug in those.  :func:`run_spec` restates Definition 11 as plainly
as possible, with no caches and nothing shared with
``repro.core.execution``, so the tests can hold the engine to it
(:func:`assert_matches`):

* each receiver gets the round's broadcast multiset minus its drop set,
  with its own message restored (constraint 5);
* the collision detector sees only the Definition 6 counts ``(c, T)``,
  through dict ``advise``;
* surviving processes transition; crashes and churn commit the way
  :mod:`repro.core.execution` documents.

Losses come from *laws*: plain per-receiver functions
``law(round_index, senders, receiver) -> drop set``, written from the
paper's definitions of the deterministic built-in adversaries (plus the
capture law) rather than from ``src/``.  For the adversaries with no law
here (``IIDLoss`` and the substrate layers), :func:`resolved` reads the
drop sets off the adversary itself: the loss law then comes from
``src/``, but the round around it is still this module's.  A law may
name non-senders or the receiver itself; the round ignores both, as the
model does.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.multiset import Multiset
from repro.core.records import RecordPolicy, RoundRecord, RoundSummary
from repro.core.types import ContentionAdvice

Law = Callable[[int, Sequence[Any], Any], Set[Any]]


# ----------------------------------------------------------------------
# Loss laws, one per deterministic built-in
# ----------------------------------------------------------------------
def reliable() -> Law:
    return lambda r, senders, receiver: set()


def silence() -> Law:
    return lambda r, senders, receiver: set(senders)


def alpha() -> Law:
    """Definition 24, rule 3: a lone broadcaster reaches everyone;
    otherwise every receiver keeps only its own message."""
    return lambda r, senders, receiver: (
        set(senders) if len(senders) > 1 else set()
    )


def partition(groups, intra: Optional[Law] = None,
              until_round: Optional[int] = None) -> Law:
    """No message crosses a group (pids in no group form one more);
    ``intra`` rules inside a group; no loss after ``until_round``."""
    group_of = {pid: g for g, members in enumerate(groups) for pid in members}
    intra = intra or reliable()

    def law(r, senders, receiver):
        if until_round is not None and r > until_round:
            return set()
        mine = group_of.get(receiver)
        same = [s for s in senders if group_of.get(s) == mine]
        cross = {s for s in senders if group_of.get(s) != mine}
        return cross | set(intra(r, same, receiver))

    return law


def ecf(inner: Law, r_cf: int) -> Law:
    """Property 1: from ``r_cf`` on, a lone broadcaster reaches everyone."""
    return lambda r, senders, receiver: (
        set() if r >= r_cf and len(senders) == 1
        else set(inner(r, senders, receiver))
    )


def composed(components: Sequence[Law]) -> Law:
    """A message survives only if every component delivers it."""
    return lambda r, senders, receiver: set().union(
        *(c(r, senders, receiver) for c in components)
    )


def capture(capture_limit: int = 1, p_single_loss: float = 0.0,
            seed: int = 0) -> Law:
    """The capture law: one stdlib stream per (seed, round, receiver)
    decides how many competitors it decodes."""

    def law(r, senders, receiver):
        others = [s for s in senders if s != receiver]
        if not others:
            return set()
        rng = random.Random(f"{seed}|{r}|{receiver!r}")
        if len(senders) == 1:
            return set(others) if rng.random() < p_single_loss else set()
        kept = rng.sample(
            others, rng.randint(0, min(capture_limit, len(others)))
        )
        return set(others) - set(kept)

    return law


def resolved(adversary, receivers: Sequence[Any]) -> Law:
    """The drop sets a fresh loss ``adversary`` answers when it resolves
    each round whole over ``receivers``, in index order, as the engine
    asks it (one resolution per round, however many receivers ask)."""
    receivers = tuple(receivers)
    last: List[Any] = [None, None]

    def law(r, senders, receiver):
        if last[0] != r:
            last[0] = r
            last[1] = adversary.losses_for_round(r, list(senders), receivers)
        return set(last[1][receiver])

    return law


# ----------------------------------------------------------------------
# The round
# ----------------------------------------------------------------------
@dataclasses.dataclass
class SpecExecution:
    records: List[RoundRecord]
    decisions: Dict[Any, Any]
    decision_rounds: Dict[Any, Optional[int]]
    crash_rounds: Dict[Any, Optional[int]]
    leave_rounds: Dict[Any, int]
    rejoin_counts: Dict[Any, int]
    departed_decisions: Tuple[Tuple[Any, Any, int], ...]

    @property
    def summaries(self) -> List[RoundSummary]:
        return [
            RoundSummary(
                round=rec.round,
                broadcast_count=rec.broadcast_count,
                crashed_during=rec.crashed_during,
                decided_during=rec.decided_during,
            )
            for rec in self.records
        ]


def run_spec(indices, spawn, detector, contention, law: Law, rounds: int,
             crash=None, churn=None) -> SpecExecution:
    """Run ``rounds`` rounds of fresh processes ``spawn(pid)``.

    ``detector``, ``contention``, ``crash`` and ``churn`` are fresh
    instances, never shared with an engine run.  A pid that rejoins after
    taking part re-enters as a fresh ``spawn(pid)``.
    """
    for part in (detector, contention, crash, churn):
        if part is not None:
            part.reset()
    processes = {pid: spawn(pid) for pid in indices}
    crashed: Dict[Any, int] = {}
    departed: Dict[Any, int] = {}   # pid -> round it left (0: absent)
    if churn is not None:
        for pid in churn.initially_absent(indices):
            departed[pid] = 0
    rejoins: Dict[Any, int] = {}
    ghosts: List[Tuple[Any, Any, int]] = []
    records: List[RoundRecord] = []

    def live():
        return [p for p in indices if p not in crashed and p not in departed]

    for r in range(1, rounds + 1):
        # Churn: joins take effect now, leaves at the end of the round.
        leave_after: Set[Any] = set()
        leave_before: Set[Any] = set()
        if churn is not None:
            present = live()
            decided = frozenset(
                p for p in present if processes[p].has_decided
            )
            for ev in churn.events(r, present, departed, decided):
                if ev.kind == "leave":
                    if (ev.pid in present and ev.pid not in leave_after
                            and ev.pid not in leave_before):
                        (leave_after if ev.after_send
                         else leave_before).add(ev.pid)
                elif ev.pid in departed:
                    if departed.pop(ev.pid) > 0:
                        processes[ev.pid] = spawn(ev.pid)
                    rejoins[ev.pid] = rejoins.get(ev.pid, 0) + 1
        present = live()

        # Crashes — an event naming a pid that is not live is a no-op —
        # then contention advice over the live processes.
        crash_after: Set[Any] = set()
        crash_before: Set[Any] = set()
        if crash is not None:
            for ev in crash.crashes(r, present):
                if ev.pid in present:
                    (crash_after if ev.after_send
                     else crash_before).add(ev.pid)
        cm = dict(contention.advise(r, present))
        for pid in indices:
            if pid in crashed or pid in departed:
                cm.setdefault(pid, ContentionAdvice.PASSIVE)

        # Messages: crashed, absent, halted and silently leaving or
        # crashing processes send nothing.
        messages = {}
        for pid in indices:
            proc = processes[pid]
            if (pid in crashed or pid in departed or pid in crash_before
                    or pid in leave_before or proc.halted):
                messages[pid] = None
            else:
                messages[pid] = proc.message(cm[pid])
        senders = [pid for pid in indices if messages[pid] is not None]

        # Receive multisets: the broadcasts minus the drop set, own
        # message restored.
        received = {}
        for pid in indices:
            dropped = set(law(r, senders, pid))
            received[pid] = Multiset(
                messages[s] for s in senders if s == pid or s not in dropped
            )

        # Definition 6: the detector sees (c, T) only.
        c = len(senders)
        t = {pid: len(received[pid]) for pid in indices}
        cd = dict(detector.advise(r, c, t))

        # Transitions of everyone still in the round.
        gone = crash_before | crash_after | leave_before | leave_after
        decided_during = {}
        for pid in indices:
            proc = processes[pid]
            if pid in crashed or pid in departed or pid in gone:
                continue
            if proc.halted:
                proc._advance_round()
                continue
            was_decided = proc.has_decided
            proc.transition(received[pid], cd[pid], cm[pid])
            proc._advance_round()
            if not was_decided and proc.has_decided:
                decided_during[pid] = proc.decision

        # Commit: crashes are absorbing and beat a same-round leave.
        for pid in crash_before | crash_after:
            crashed[pid] = r
        for pid in indices:
            if pid in leave_after | leave_before and pid not in crashed:
                departed[pid] = r
                if processes[pid].has_decided:
                    ghosts.append((pid, processes[pid].decision, r))
        contention.observe(r, c)
        records.append(RoundRecord(
            round=r,
            cm_advice=cm,
            messages=messages,
            received=received,
            cd_advice=cd,
            crashed_during=frozenset(crash_before | crash_after),
            decided_during=decided_during,
        ))

    return SpecExecution(
        records=records,
        decisions={pid: processes[pid].decision for pid in indices},
        decision_rounds={
            pid: processes[pid].decision_round for pid in indices
        },
        crash_rounds={pid: crashed.get(pid) for pid in indices},
        leave_rounds=dict(departed),
        rejoin_counts=rejoins,
        departed_decisions=tuple(ghosts),
    )


def assert_matches(result, reference: SpecExecution, record_policy) -> None:
    """An engine ``result`` executed the spec's ``reference`` run: the
    same outcome under every policy, and the same retained rounds."""
    assert result.rounds == len(reference.records)
    assert result.decisions == reference.decisions
    assert result.decision_rounds == reference.decision_rounds
    assert result.crash_rounds == reference.crash_rounds
    assert result.leave_rounds == reference.leave_rounds
    assert result.rejoin_counts == reference.rejoin_counts
    assert result.departed_decisions == reference.departed_decisions
    if record_policy is RecordPolicy.FULL:
        assert result.records == reference.records  # full per-round equality
    elif record_policy is RecordPolicy.SUMMARY:
        assert result.summaries == reference.summaries
