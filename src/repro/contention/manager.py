"""Contention-manager interface (Section 4).

A contention manager advises each process, each round, to be ``active``
(may broadcast) or ``passive`` (should stay silent).  Formally it is just a
set of legal CM traces (Definition 8); operationally we implement it as an
object producing one trace, with an optional channel-feedback hook so that
practical managers (backoff, Section 1.3) can adapt — the formal services
ignore the feedback.

The engine relies on these conventions:

* ``advise(round, indices)`` is called exactly once per round, rounds
  numbered from 1, with the round's live indices; crashes or churn may
  empty them, and an empty live set gets the empty advice ``{}``;
* ``observe(round, broadcast_count)`` is called after the round resolves
  (practical managers may listen to the channel; the paper notes this is
  how real implementations work even though the formal definition is a
  trace set);
* a returned advice dict is *frozen once returned*: the engine reads it
  within the round and never mutates it (a FULL record keeps a padded
  copy), so returning one long-lived, never-mutated dict —
  NoContentionManager does — is fine and cheap.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

from ..core.types import ContentionAdvice, ProcessId


class ContentionManager(abc.ABC):
    """Per-round active/passive advice for every process."""

    @abc.abstractmethod
    def advise(
        self, round_index: int, indices: Sequence[ProcessId]
    ) -> Dict[ProcessId, ContentionAdvice]:
        """Advice for round ``round_index`` (1-based) for each index."""

    def observe(self, round_index: int, broadcast_count: int) -> None:
        """Channel feedback after the round (default: ignored)."""

    def reset(self) -> None:
        """Prepare for a fresh execution (default: stateless)."""

    @property
    def stabilization_round(self) -> Optional[int]:
        """The round ``r_wake``/``r_lead`` from which the service's
        single-active guarantee holds, or ``None`` when the manager makes
        no such promise (NoCM, practical backoff)."""
        return None
