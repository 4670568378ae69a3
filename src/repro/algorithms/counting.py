"""Anonymous counting with a k-wake-up service (Section 4.1's remark).

Section 4.1 observes that "there exist simple problems, such as counting
the number of anonymous processes in the system, that can easily be shown
to be solvable with a k-wake-up service, but impossible with a leader
election service".  This module supplies the solvable half; the
impossibility half is :mod:`repro.lowerbounds.counting`.

Protocol (ECF executions, any zero-complete detector, k-wake-up service):

* a process broadcasts exactly in the **first round of each of its solo
  blocks** — it recognises a block start locally as an ``active`` round
  preceded by a ``passive`` round (or the first round);
* between two consecutive of its own block starts, every *other* live
  process starts exactly one block of its own and (post-stabilization,
  with ECF) its announcement is delivered;
* so at each of its block starts, a process outputs
  ``1 + (announcements heard since its previous block start)``.

Outputs are *stabilizing*, not terminating: before the service and the
channel stabilize the counts can be wrong, and the process has no way to
detect stabilization — but from one full rotation after CST onward every
output equals the number of live processes.  (A terminating count would
contradict the unknown-``n`` model assumption.)

Crashes are handled for free: a crashed process stops announcing, so
counts converge to the number of *live* processes one rotation later.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.algorithm import Algorithm
from ..core.multiset import Multiset
from ..core.process import Process
from ..core.types import (
    ACTIVE,
    CollisionAdvice,
    ContentionAdvice,
    Message,
)
from .markers import Marker

#: The announcement token: content-free, like the paper's vote markers.
ANNOUNCE = Marker("announce")


class CountingProcess(Process):
    """One anonymous process of the counting protocol.

    ``counts`` records every output (one per own block start after the
    first); ``current_count`` is the latest estimate, ``None`` until the
    first full rotation completes.
    """

    def __init__(self) -> None:
        super().__init__()
        self._was_active_last_round = False
        self._announcing = False
        self._heard_since_own_start = 0
        self._seen_own_start = False
        self.counts: List[int] = []

    # ------------------------------------------------------------------
    @property
    def current_count(self) -> Optional[int]:
        """The latest population estimate (live processes incl. self)."""
        return self.counts[-1] if self.counts else None

    # ------------------------------------------------------------------
    def message(self, cm_advice: ContentionAdvice) -> Optional[Message]:
        starting_block = (
            cm_advice is ACTIVE and not self._was_active_last_round
        )
        self._announcing = starting_block
        return ANNOUNCE if starting_block else None

    def transition(
        self,
        received: Multiset,
        cd_advice: CollisionAdvice,
        cm_advice: ContentionAdvice,
    ) -> None:
        if self._announcing:
            # Own block start: emit an estimate, then restart the window.
            if self._seen_own_start:
                self.counts.append(1 + self._heard_since_own_start)
            self._seen_own_start = True
            self._heard_since_own_start = 0
            # Own announcement comes back via self-delivery; don't count it.
            others = len(received) - 1
        else:
            others = len(received)
        self._heard_since_own_start += max(0, others)
        self._was_active_last_round = cm_advice is ACTIVE


def counting_algorithm() -> Algorithm:
    """The anonymous counting algorithm (plain, not consensus-valued)."""
    return Algorithm.anonymous(CountingProcess, name="k-wakeup-counting")
