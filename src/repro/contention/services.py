"""The formal contention-manager services (Properties 2-3 and NoCM).

* :class:`NoContentionManager` — the trivial ``NOCM_P`` manager: everyone
  is ``active`` every round (the NoCM class).
* :class:`WakeUpService` — Property 2: from some round ``r_wake`` on,
  exactly one process is active per round, but *which* process may change
  every round (no fairness, no stability).
* :class:`LeaderElectionService` — Property 3: from ``r_lead`` on the same
  single process is active.  Every leader-election service is a wake-up
  service; tests verify this containment.

Before stabilization both services may behave arbitrarily; the
pre-stabilization schedule is pluggable so lower bounds can script it
(standing in for the maximal service ``MAXLS_P``, Definition 14) and upper
bounds can stress algorithms with hostile pre-CST advice.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.types import ACTIVE, PASSIVE, ContentionAdvice, ProcessId
from .manager import ContentionManager

#: A pre-stabilization schedule: (round, indices) -> set of active indices.
PreSchedule = Callable[[int, Sequence[ProcessId]], Sequence[ProcessId]]


def all_active_schedule(
    round_index: int, indices: Sequence[ProcessId]
) -> Sequence[ProcessId]:
    """Everyone active — the default (and most contentious) prelude."""
    return list(indices)


def all_passive_schedule(
    round_index: int, indices: Sequence[ProcessId]
) -> Sequence[ProcessId]:
    """Nobody active — a legal, maximally silent prelude."""
    return []


@functools.lru_cache(maxsize=1024)
def _scrambled_pick(round_index: int, live_count: int) -> int:
    """:class:`WakeUpService`'s default pick: a position in the sorted
    live list, a pure function of ``(round, live count)``.

    An RNG seeded with the round number: deterministic and replayable,
    but aperiodic over any arithmetic subsequence of rounds (a
    multiplicative hash mod a power of two would preserve the period of
    the subsequence in its low bits).  Seeding a ``random.Random`` costs
    more than the rest of a small round's advice, so the picks are
    memoised; the memo is bounded, and a campaign's cells share one
    small set of (round, live count) pairs.
    """
    return random.Random(round_index).randrange(live_count)


class NoContentionManager(ContentionManager):
    """The trivial manager ``NOCM_P``: all processes active, always.

    The advice map is cached per *live-list object*: the engine rebuilds
    its live list whenever membership changes, so identity is a sound
    cache key, and the advice contract already forbids callers from
    mutating the returned dict (the engine copies before padding).
    """

    _cache_key: Optional[Sequence[ProcessId]] = None
    _cache_advice: Optional[Dict[ProcessId, ContentionAdvice]] = None

    def advise(
        self, round_index: int, indices: Sequence[ProcessId]
    ) -> Dict[ProcessId, ContentionAdvice]:
        if self._cache_key is indices:
            return self._cache_advice
        advice = {i: ACTIVE for i in indices}
        self._cache_key = indices
        self._cache_advice = advice
        return advice


class WakeUpService(ContentionManager):
    """Property 2: eventually exactly one active process per round.

    Parameters
    ----------
    stabilization_round:
        The round ``r_wake`` from which the guarantee holds.
    pre_schedule:
        Arbitrary advice before ``r_wake`` (default: everyone active).
    chooser:
        Picks the single active index from ``r_wake`` on; receives
        ``(round, indices)``.  The default scrambles deterministically by
        round number, so the service is a wake-up service but *not* a
        leader-election service — exercising the weaker hypothesis the
        upper bounds assume.  Scrambling (rather than plain rotation)
        matters for fairness inside phased algorithms: a rotation whose
        period divides an algorithm's cycle length would hand the same
        process every occurrence of a given phase, starving the others
        (observed with max-merge consensus, whose liveness needs the
        maximum's holder to reach a prepare slot eventually).
    """

    def __init__(
        self,
        stabilization_round: int = 1,
        pre_schedule: Optional[PreSchedule] = None,
        chooser: Optional[Callable[[int, Sequence[ProcessId]], ProcessId]] = None,
    ) -> None:
        if stabilization_round < 1:
            raise ConfigurationError("stabilization_round must be >= 1")
        self._r_wake = stabilization_round
        self._pre = pre_schedule or all_active_schedule
        self._chooser = chooser or self._scrambled_chooser

    @staticmethod
    def _scrambled_chooser(
        round_index: int, indices: Sequence[ProcessId]
    ) -> ProcessId:
        ordered = sorted(indices)
        return ordered[_scrambled_pick(round_index, len(ordered))]

    @staticmethod
    def rotating_chooser(
        round_index: int, indices: Sequence[ProcessId]
    ) -> ProcessId:
        """Plain round-robin, for tests that need a predictable order."""
        ordered = sorted(indices)
        return ordered[round_index % len(ordered)]

    def advise(
        self, round_index: int, indices: Sequence[ProcessId]
    ) -> Dict[ProcessId, ContentionAdvice]:
        if not indices:
            return {}
        if round_index < self._r_wake:
            active = set(self._pre(round_index, indices))
            return {
                i: ACTIVE if i in active else PASSIVE for i in indices
            }
        the_one = self._chooser(round_index, indices)
        if the_one not in indices:
            raise ConfigurationError(
                f"chooser picked {the_one}, not a live index"
            )
        advice = dict.fromkeys(indices, PASSIVE)
        advice[the_one] = ACTIVE
        return advice

    @property
    def stabilization_round(self) -> int:
        return self._r_wake


class LeaderElectionService(ContentionManager):
    """Property 3: eventually the *same* single process is active.

    ``leader`` may be a fixed index or ``None`` (the minimum index, which
    is the choice the lower-bound constructions fix for ``MAXLS``).
    """

    def __init__(
        self,
        stabilization_round: int = 1,
        leader: Optional[ProcessId] = None,
        pre_schedule: Optional[PreSchedule] = None,
    ) -> None:
        if stabilization_round < 1:
            raise ConfigurationError("stabilization_round must be >= 1")
        self._r_lead = stabilization_round
        self._leader = leader
        self._pre = pre_schedule or all_active_schedule

    def advise(
        self, round_index: int, indices: Sequence[ProcessId]
    ) -> Dict[ProcessId, ContentionAdvice]:
        if not indices:
            return {}
        if round_index < self._r_lead:
            active = set(self._pre(round_index, indices))
            return {
                i: ACTIVE if i in active else PASSIVE for i in indices
            }
        leader = self._leader if self._leader is not None else min(indices)
        if leader not in set(indices):
            raise ConfigurationError(
                f"configured leader {leader} is not a live index"
            )
        return {i: ACTIVE if i == leader else PASSIVE for i in indices}

    @property
    def stabilization_round(self) -> int:
        return self._r_lead


class KWakeUpService(ContentionManager):
    """The k-wake-up service sketched in Section 4.1.

    After ``stabilization_round``, the service cycles through the live
    processes in index order, giving each a *block* of ``k`` consecutive
    rounds as the sole active process — so every process is guaranteed k
    solo rounds, infinitely often.  Section 4.1 notes that this strictly
    stronger fairness makes problems like anonymous counting solvable
    that a leader-election service cannot solve (see
    :mod:`repro.algorithms.counting` and
    :mod:`repro.lowerbounds.counting`).

    Note a k-wake-up service *is* a wake-up service (one active process
    per round after stabilization) but is *not* a leader-election service
    (the active process keeps changing).
    """

    def __init__(self, k: int, stabilization_round: int = 1,
                 pre_schedule: Optional[PreSchedule] = None) -> None:
        if k < 1:
            raise ConfigurationError("block length k must be >= 1")
        if stabilization_round < 1:
            raise ConfigurationError("stabilization_round must be >= 1")
        self.k = k
        self._r_stab = stabilization_round
        self._pre = pre_schedule or all_active_schedule

    def advise(
        self, round_index: int, indices: Sequence[ProcessId]
    ) -> Dict[ProcessId, ContentionAdvice]:
        if not indices:
            return {}
        if round_index < self._r_stab:
            active = set(self._pre(round_index, indices))
            return {i: ACTIVE if i in active else PASSIVE for i in indices}
        ordered = sorted(indices)
        block = (round_index - self._r_stab) // self.k
        the_one = ordered[block % len(ordered)]
        return {i: ACTIVE if i == the_one else PASSIVE for i in indices}

    @property
    def stabilization_round(self) -> int:
        return self._r_stab

    def block_start(self, round_index: int) -> bool:
        """Is ``round_index`` the first round of a block (post-stab)?"""
        return (
            round_index >= self._r_stab
            and (round_index - self._r_stab) % self.k == 0
        )


class ScriptedContentionManager(ContentionManager):
    """A manager driven by an explicit per-round active-set script.

    ``script[r]`` (1-based dict) is the set of active indices at round
    ``r``; rounds beyond the script fall back to ``default`` ("leader" =
    min index active, or "all", or "none").  This is the lower-bound
    workhorse — Theorems 4 and 8 script the pre-composition advice
    directly.
    """

    def __init__(
        self,
        script: Dict[int, Sequence[ProcessId]],
        default: str = "leader",
        stabilization_round: Optional[int] = None,
    ) -> None:
        if default not in ("leader", "all", "none"):
            raise ConfigurationError("default must be leader|all|none")
        self._script = {r: set(active) for r, active in script.items()}
        self._default = default
        self._stab = stabilization_round

    def advise(
        self, round_index: int, indices: Sequence[ProcessId]
    ) -> Dict[ProcessId, ContentionAdvice]:
        if not indices:
            return {}
        if round_index in self._script:
            active = self._script[round_index]
        elif self._default == "leader":
            active = {min(indices)}
        elif self._default == "all":
            active = set(indices)
        else:
            active = set()
        return {i: ACTIVE if i in active else PASSIVE for i in indices}

    @property
    def stabilization_round(self) -> Optional[int]:
        return self._stab
