"""Message-loss adversaries (Definition 11, constraint 4 / Property 1).

The model allows any process to lose any subset of the messages broadcast
by *other* processes in any round (broadcasters always receive their own
message — constraint 5).  A loss adversary makes that choice once per
round: :meth:`LossAdversary.losses_for_round` is its only method, and it
answers with a :class:`RoundLosses`.

The contract
------------

A :class:`RoundLosses` is *normalized*: a read-only mapping from each
receiver, in the order the engine asked, to the set of this round's
senders whose messages it loses.  A drop set never names a non-sender or
its own receiver, so its size is the number of messages the receiver
loses — the receive count ``T`` the detector sees (Definition 6) follows
from it.  The engine's receive stage subtracts each drop set from the
round's broadcast multiset (Definition 11).

A drop set naming a non-sender or its own receiver, an omitted receiver,
or any return type but :class:`RoundLosses` raises
:class:`~repro.core.errors.ModelViolation`.

A per-receiver law ``fn(round_index, senders, receiver)`` — a third-party
adversary, or a lower-bound construction prescribing exact receive sets —
plugs in as ``ScriptedLoss(fn=...)``.  :class:`ScriptedLoss` is the one
place untrusted drop sets are normalized: each is intersected with the
senders the script was handed, and the receiver is removed.  Per-receiver
sets keep the non-uniform receive sets the paper motivates with the
capture effect (Section 1.1) expressible: two listeners within range of
the same two broadcasters may receive different messages.

Determinism guarantees: the same seed and the same call sequence replay
the same execution (the engine always enumerates receivers in index
order, so engine-driven runs are reproducible end to end).
:class:`IIDLoss` and :class:`CaptureEffectLoss` draw from the standard
library's ``random``; :data:`RNG_BACKEND` names that stream family, and
campaign stores record it.

:class:`EventualCollisionFreedom` is the Property 1 wrapper: it delegates
to an inner adversary until ``r_cf`` and thereafter forces delivery in
single-broadcaster rounds (multi-broadcaster rounds stay at the inner
adversary's mercy — ECF promises nothing about them).
"""

from __future__ import annotations

import abc
import math
import random
from collections.abc import Mapping as _MappingABC
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.errors import ConfigurationError, ModelViolation
from ..core.types import ProcessId

#: The empty drop set, shared to avoid churn in the hot path.
_NO_LOSS: FrozenSet[ProcessId] = frozenset()

#: The stream family :class:`IIDLoss` and :class:`CaptureEffectLoss` draw
#: from.  Campaign stores are stamped with it; a store stamped ``"numpy"``
#: was filled by the retired numpy backend, whose streams differ, and is
#: refused (:mod:`repro.experiments.campaign`).
RNG_BACKEND = "pure"


def _as_tuple(receivers: Sequence[ProcessId]) -> Tuple[ProcessId, ...]:
    return receivers if type(receivers) is tuple else tuple(receivers)


class RoundLosses(_MappingABC):
    """One round's losses: the only thing a loss adversary returns.

    A read-only mapping over ``receivers`` (a tuple, in the order the
    adversary was asked): ``sets[pid]`` is the set of senders whose
    messages ``pid`` loses, normalized as the module docstring states, so
    ``len(sets[pid])`` is its drop count.
    """

    __slots__ = ("receivers", "sets")

    def __init__(
        self,
        receivers: Sequence[ProcessId],
        sets: Dict[ProcessId, AbstractSet[ProcessId]],
    ) -> None:
        self.receivers = _as_tuple(receivers)
        self.sets = sets

    @classmethod
    def lossless(
        cls, senders: Sequence[ProcessId], receivers: Sequence[ProcessId]
    ) -> "RoundLosses":
        """Every receiver gets every message."""
        return cls(receivers, dict.fromkeys(receivers, _NO_LOSS))

    @classmethod
    def silence(
        cls, senders: Sequence[ProcessId], receivers: Sequence[ProcessId]
    ) -> "RoundLosses":
        """Every receiver loses every message but its own."""
        everyone = frozenset(senders)
        return cls(receivers, {
            pid: everyone - {pid} if pid in everyone else everyone
            for pid in receivers
        })

    def __getitem__(self, pid: ProcessId) -> AbstractSet[ProcessId]:
        return self.sets[pid]

    def __iter__(self):
        return iter(self.receivers)

    def __len__(self) -> int:
        return len(self.receivers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundLosses({len(self.receivers)} receivers)"


def resolve_round(
    adversary: "LossAdversary",
    round_index: int,
    senders: Sequence[ProcessId],
    receivers: Sequence[ProcessId],
) -> RoundLosses:
    """``adversary.losses_for_round``, held to the contract's shape.

    Raises :class:`~repro.core.errors.ModelViolation` unless the answer
    is a :class:`RoundLosses` over exactly ``receivers``, in order.  The
    engine resolves every round through here, and so does every built-in
    that delegates to another adversary.
    """
    out = adversary.losses_for_round(round_index, senders, receivers)
    if type(out) is not RoundLosses:
        raise ModelViolation(
            f"{type(adversary).__name__}.losses_for_round returned "
            f"{type(out).__name__}, not RoundLosses"
        )
    got = out.receivers
    if got is not receivers and tuple(got) != tuple(receivers):
        present = set(got)
        missing = [pid for pid in receivers if pid not in present]
        raise ModelViolation(
            f"loss adversary omitted receiver {missing[0]!r} from its round "
            "resolution" if missing else
            f"loss adversary resolved receivers {tuple(got)!r} instead of "
            f"{tuple(receivers)!r}"
        )
    return out


def grouped_losses(
    round_index: int,
    senders: Sequence[ProcessId],
    receivers: Sequence[ProcessId],
    groups: Iterable[Tuple[List[ProcessId], List[ProcessId]]],
    inner: Optional["LossAdversary"],
) -> RoundLosses:
    """A round whose receivers fall into groups by the senders they hear.

    ``groups`` lists ``(local, members)`` pairs, ordered by each group's
    first member in ``receivers``: every member hears only the senders in
    ``local`` (a list holding the member itself whenever it sent) and
    loses every other sender's message.  Within ``local`` it loses what
    ``inner`` says (nothing when ``inner`` is ``None``) — one inner
    resolution per group, in group order.  Each member's drop set is the
    group's cross-group senders united with its inner drop set.
    """
    everyone = frozenset(senders)
    sets: Dict[ProcessId, AbstractSet[ProcessId]] = {}
    for local, members in groups:
        cross = everyone.difference(local)
        if inner is None:
            sets.update(dict.fromkeys(members, cross))
            continue
        inner_sets = resolve_round(inner, round_index, local, members).sets
        for pid in members:
            extra = inner_sets[pid]
            sets[pid] = cross | extra if extra else cross
    return RoundLosses(receivers, sets)


class LossAdversary(abc.ABC):
    """Chooses, once per round, which messages each receiver loses."""

    @abc.abstractmethod
    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        """Resolve round ``round_index`` for every receiver at once.

        ``senders`` lists every process that broadcast this round, in
        index order; ``receivers`` every process the engine asks about.
        The answer covers exactly ``receivers``, normalized as the module
        docstring states.
        """

    def reset(self) -> None:
        """Forget internal state before a fresh execution (default: none)."""

    @property
    def r_cf(self) -> Optional[int]:
        """The round from which Property 1 (ECF) holds, if promised."""
        return None


class ReliableDelivery(LossAdversary):
    """No loss at all: every receiver gets every message.

    Trivially satisfies ECF with ``r_cf = 1``.
    """

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        return RoundLosses.lossless(senders, receivers)

    @property
    def r_cf(self) -> int:
        return 1


class SilenceLoss(LossAdversary):
    """Total loss: every receiver loses every other process's message.

    This is the harshest legal behaviour (only self-delivery survives) and
    the backdrop of Theorem 9's ``NOCF`` setting.
    """

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        return RoundLosses.silence(senders, receivers)


class IIDLoss(LossAdversary):
    """Independent per-(receiver, sender) loss with probability ``p``.

    Models the 20-50% loss regime the empirical studies in Section 1.1
    report.  Fully seeded: the same seed replays the same loss pattern.
    The whole round is one pass over the (receiver x sender) grid in
    receiver-major order with geometric gap-skipping (one draw per *loss*
    instead of one per pair), which keeps the exact Bernoulli(p) law per
    non-self pair.
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"loss probability must be in [0,1]: {p}")
        self.p = p
        self.seed = seed
        # The dedicated stream, created on the first lossy round.
        self._batch_rng: Optional[random.Random] = None

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        p = self.p
        n_senders = len(senders)
        if p <= 0.0 or n_senders == 0:
            return RoundLosses.lossless(senders, receivers)
        if p >= 1.0:
            return RoundLosses.silence(senders, receivers)
        log_q = math.log1p(-p)
        if log_q == 0.0:
            # log1p underflows to -0.0 only for p below ~1e-16, where the
            # chance of even one loss in a round is < n^2 * 1e-16 —
            # indistinguishable from lossless at any statistical
            # tolerance.
            return RoundLosses.lossless(senders, receivers)
        receivers_t = _as_tuple(receivers)
        senders_t = tuple(senders)
        total = n_senders * len(receivers_t)
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        if not receivers_t:
            return RoundLosses(receivers_t, out)
        if self._batch_rng is None:
            self._batch_rng = random.Random(f"{self.seed}|batched")
        rand = self._batch_rng.random
        log1p = math.log1p
        inv_log_q = 1.0 / log_q
        # Losses arrive in flat-index order, i.e. receiver-major: walk the
        # current row alongside the skip sequence so each loss costs one
        # subtraction instead of a divmod, and each row's drop set is
        # created exactly once, when its first loss appears.  Self pairs
        # are part of the grid and simply discarded, keeping index
        # arithmetic trivial without changing any other pair's law.
        row = 0
        row_start = 0
        row_end = n_senders
        pid = receivers_t[0]
        lost: Optional[Set[ProcessId]] = None
        idx = -1
        while True:
            # Failures before the next success: floor(log(1-U)/log(1-p)).
            # The float comparison runs before int() so a huge gap (tiny
            # p can push it past float range) ends the round instead of
            # overflowing.
            gap = log1p(-rand()) * inv_log_q
            if gap >= total:
                break
            idx += 1 + int(gap)
            if idx >= total:
                break
            if idx >= row_end:
                row = idx // n_senders
                pid = receivers_t[row]
                row_start = row * n_senders
                row_end = row_start + n_senders
                lost = None
            s = senders_t[idx - row_start]
            if s == pid:
                continue
            if lost is None:
                out[pid] = lost = {s}
            else:
                lost.add(s)
        for pid in receivers_t:
            if pid not in out:
                out[pid] = _NO_LOSS
        return RoundLosses(receivers_t, out)

    def reset(self) -> None:
        self._batch_rng = None


class CaptureEffectLoss(LossAdversary):
    """Capture-effect loss: under contention, each receiver decodes at most
    ``capture_limit`` of the competing messages, chosen per receiver.

    With a single broadcaster the message is delivered (subject to
    ``p_single_loss`` ambient loss, default 0).  With several broadcasters
    each receiver independently "captures" a random subset of size at most
    ``capture_limit`` — reproducing the A/B/C/D example of Section 1.1
    where listeners within range of the same two senders end up with
    different receive sets.

    Determinism contract
    --------------------

    All randomness is a pure function of ``(seed, round_index)`` plus the
    receiver — never of hidden stream state — so the same seed always
    replays the same execution and ``reset()`` has nothing to forget.
    Each receiver draws from a fresh stdlib stream seeded from ``(seed,
    round_index, receiver)``, so the pattern is independent of the order
    in which callers enumerate receivers, and delegated calls for
    disjoint receiver groups within one round (partition groups, multihop
    neighbourhoods) draw independent streams.  Capture counts are uniform
    on ``{0..min(capture_limit, |others|)}`` and capture subsets uniform
    without replacement.
    """

    def __init__(
        self,
        capture_limit: int = 1,
        p_single_loss: float = 0.0,
        seed: int = 0,
    ) -> None:
        if capture_limit < 0:
            raise ConfigurationError("capture_limit must be >= 0")
        if not 0.0 <= p_single_loss <= 1.0:
            raise ConfigurationError("p_single_loss must be in [0,1]")
        self.capture_limit = capture_limit
        self.p_single_loss = p_single_loss
        self.seed = seed

    def _pair_rng(self, round_index: int, receiver: ProcessId) -> random.Random:
        # String seeding hashes with SHA-512 internally: deterministic
        # across runs and platforms, independent of PYTHONHASHSEED.
        return random.Random(f"{self.seed}|{round_index}|{receiver!r}")

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        if not senders:
            return RoundLosses.lossless(senders, receivers)
        receivers_t = _as_tuple(receivers)
        single = len(senders) == 1
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers_t:
            others = [s for s in senders if s != pid]
            if not others:
                out[pid] = _NO_LOSS
                continue
            rng = self._pair_rng(round_index, pid)
            if single:
                lose = rng.random() < self.p_single_loss
                out[pid] = frozenset(others) if lose else _NO_LOSS
                continue
            captured_count = rng.randint(
                0, min(self.capture_limit, len(others))
            )
            captured = set(rng.sample(others, captured_count))
            out[pid] = {s for s in others if s not in captured}
        return RoundLosses(receivers_t, out)

class PartitionLoss(LossAdversary):
    """Split the index set into groups; messages never cross groups.

    Within a group, delivery follows ``intra`` (default: reliable).  This is
    the workhorse of the impossibility constructions (Theorems 4, 8 and the
    Lemma 23 compositions): two groups evolve side by side without ever
    hearing each other.

    ``until_round`` bounds the partition: from the next round on, no loss
    (used by Theorem 4's γ execution, which must satisfy ECF).
    """

    def __init__(
        self,
        groups: Sequence[Iterable[ProcessId]],
        intra: Optional[LossAdversary] = None,
        until_round: Optional[int] = None,
    ) -> None:
        self._group_of: Dict[ProcessId, int] = {}
        for g, members in enumerate(groups):
            for pid in members:
                if pid in self._group_of:
                    raise ConfigurationError(
                        f"process {pid} appears in two partition groups"
                    )
                self._group_of[pid] = g
        self.intra = intra or ReliableDelivery()
        self.until_round = until_round

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        if self.until_round is not None and round_index > self.until_round:
            return RoundLosses.lossless(senders, receivers)
        group_of = self._group_of
        by_group: Dict[Optional[int], List[ProcessId]] = {}
        for pid in receivers:
            by_group.setdefault(group_of.get(pid), []).append(pid)
        # Processes outside every group form one more group (key None).
        return grouped_losses(
            round_index, senders, receivers,
            [
                ([s for s in senders if group_of.get(s) == group], members)
                for group, members in by_group.items()
            ],
            self.intra,
        )

    def reset(self) -> None:
        self.intra.reset()

    @property
    def r_cf(self) -> Optional[int]:
        if self.until_round is None:
            return None
        return self.until_round + 1


class AlphaLoss(LossAdversary):
    """The alpha-execution delivery rule (Definition 24, rule 3).

    * exactly one broadcaster  -> everyone receives the message;
    * two or more broadcasters -> every receiver keeps only its own
      message, all others are lost.

    Satisfies ECF from round 1 by construction.
    """

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        if len(senders) <= 1:
            return RoundLosses.lossless(senders, receivers)
        return RoundLosses.silence(senders, receivers)

    @property
    def r_cf(self) -> int:
        return 1


class ScriptedLoss(LossAdversary):
    """Loss driven by an explicit callable — the fully general adversary.

    ``fn(round_index, senders, receiver)`` returns the senders dropped at
    ``receiver``: the per-receiver form, and the way to plug in any
    third-party per-receiver law.  Lower-bound constructions use it to
    realise exactly the receive behaviour their proofs prescribe.

    The script's drop sets are untrusted: each is intersected with
    ``senders`` and loses its receiver, so a script may name non-senders
    or the receiver itself (self-delivery is unconditional).
    """

    def __init__(
        self,
        fn: Callable[
            [int, Sequence[ProcessId], ProcessId], AbstractSet[ProcessId]
        ],
        r_cf: Optional[int] = None,
    ) -> None:
        self._fn = fn
        self._r_cf = r_cf

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        fn = self._fn
        everyone = frozenset(senders)
        sets: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers:
            lost = fn(round_index, senders, pid)
            if lost:
                lost = everyone.intersection(lost)
                if pid in lost:
                    lost = lost - {pid}
            sets[pid] = lost or _NO_LOSS
        return RoundLosses(receivers, sets)

    @property
    def r_cf(self) -> Optional[int]:
        return self._r_cf


class ComposedLoss(LossAdversary):
    """Union of several adversaries' drop sets: a message survives only if
    *every* component delivers it.  Useful to stack ambient IID loss on top
    of a structural pattern."""

    def __init__(self, components: Sequence[LossAdversary]) -> None:
        if not components:
            raise ConfigurationError("ComposedLoss needs at least one component")
        self.components = list(components)

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        # One resolution per component per round; a receiver whose drops
        # come from one component alone shares that component's set.
        maps = [
            resolve_round(c, round_index, senders, receivers)
            for c in self.components
        ]
        if len(maps) == 1:
            return maps[0]
        receivers_t = maps[0].receivers
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers_t:
            lost: AbstractSet[ProcessId] = _NO_LOSS
            for m in maps:
                extra = m[pid]
                if extra:
                    lost = lost | extra if lost else extra
            out[pid] = lost
        return RoundLosses(receivers_t, out)

    def reset(self) -> None:
        for component in self.components:
            component.reset()


class EventualCollisionFreedom(LossAdversary):
    """Property 1: single-broadcaster rounds deliver from ``r_cf`` on.

    Wraps an arbitrary inner adversary.  Before ``r_cf`` the inner
    adversary is unconstrained; from ``r_cf`` on, rounds with exactly one
    broadcaster deliver to everyone, while multi-broadcaster rounds still
    defer to the inner adversary (ECF says nothing about them).
    """

    def __init__(self, inner: LossAdversary, r_cf: int = 1) -> None:
        if r_cf < 1:
            raise ConfigurationError("r_cf must be >= 1")
        self.inner = inner
        self._r_cf = r_cf

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        if round_index >= self._r_cf and len(senders) == 1:
            return RoundLosses.lossless(senders, receivers)
        return self.inner.losses_for_round(round_index, senders, receivers)

    def reset(self) -> None:
        self.inner.reset()

    @property
    def r_cf(self) -> int:
        return self._r_cf


def satisfies_ecf(
    transmission_trace: Sequence,
    received: Sequence[Mapping[ProcessId, int]],
    r_cf: int,
) -> bool:
    """Check Property 1 over a finished execution's transmission data.

    ``transmission_trace`` holds per-round ``(c, T)`` entries (any object
    with ``broadcasters``); ``received`` the per-round ``T`` maps.  True
    when every round ``r >= r_cf`` with exactly one broadcaster delivered
    to every process.
    """
    for idx, entry in enumerate(transmission_trace):
        round_index = idx + 1
        if round_index < r_cf or entry.broadcasters != 1:
            continue
        if any(t != 1 for t in received[idx].values()):
            return False
    return True
