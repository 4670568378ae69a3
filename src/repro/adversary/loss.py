"""Message-loss adversaries (Definition 11, constraint 4 / Property 1).

The model allows any process to lose any subset of the messages broadcast
by *other* processes in any round (broadcasters always receive their own
message — constraint 5).  A loss adversary makes that choice once per
round: :meth:`LossAdversary.losses_for_round` is its only method, and it
answers with a :class:`RoundLosses` on every backend.

The contract
------------

A :class:`RoundLosses` is *normalized*: receiver ``i``'s drop set names
only this round's senders and never ``i`` itself, so its size is the
number of messages ``i`` loses.  It offers two views of the same drops:

* ``drop_counts`` — per-receiver drop counts aligned with ``receivers``
  (an int array on the numpy backend, a list otherwise), ready at once,
  which is all the engine's array kernel reads: it runs only rounds
  with at most one distinct payload, where a receive multiset depends
  on the keep count alone;
* the drop sets, through the ``Mapping`` interface, built lazily on first
  access, which the engine's reference receive stage subtracts from the
  round's broadcast multiset (Definition 11).

The engine checks the sets against the counts on its scalar path and
the counts against each receiver's droppable budget on its kernel path;
any disagreement, a drop set naming a non-sender or its own receiver, an
omitted receiver, or any return type but :class:`RoundLosses` raises
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
:class:`IIDLoss` and :class:`CaptureEffectLoss` draw one stream on the
numpy backend and another on pure python — the same law, different
patterns — so executions are byte-identical only within one backend;
:func:`rng_backend` names the active one, and campaign stores record it.

:class:`EventualCollisionFreedom` is the Property 1 wrapper: it delegates
to an inner adversary until ``r_cf`` and thereafter forces delivery in
single-broadcaster rounds (multi-broadcaster rounds stay at the inner
adversary's mercy — ECF promises nothing about them).
"""

from __future__ import annotations

import abc
import hashlib
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

from ..core.arrays import numpy_or_none
from ..core.errors import ConfigurationError, ModelViolation
from ..core.types import ProcessId

#: Optional acceleration for whole-round loss resolution.  Shared gating
#: via :func:`repro.core.arrays.numpy_or_none` (numpy importable and
#: ``REPRO_PURE_PYTHON`` unset); tests monkeypatch this binding to pin
#: one backend.
_np = numpy_or_none()

#: The empty drop set, shared to avoid churn in the hot path.
_NO_LOSS: FrozenSet[ProcessId] = frozenset()

#: One-slot pid -> row cache: ``(receivers tuple, positions dict)``.
_RposCache = Optional[Tuple[tuple, Dict[ProcessId, int]]]


def rng_backend() -> str:
    """The stream family the randomised adversaries draw from.

    ``"numpy"`` when the gated numpy legs are active, ``"pure"``
    otherwise.  Executions replay byte for byte only within one backend,
    which is why campaign stores are stamped with this value.
    """
    return "pure" if _np is None else "numpy"


def _as_tuple(receivers: Sequence[ProcessId]) -> Tuple[ProcessId, ...]:
    return receivers if type(receivers) is tuple else tuple(receivers)


def _as_list(values) -> List[int]:
    """An int array or list as a list."""
    return values if type(values) is list else values.tolist()


def _counts(values: List[int]):
    """Per-receiver drop counts in the active backend's representation."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return values


def _cached_receiver_positions(
    receivers: Tuple[ProcessId, ...], cache: _RposCache
) -> Tuple[Dict[ProcessId, int], _RposCache]:
    """``(positions, new cache)`` keyed by receiver-tuple *identity*.

    The engine passes the same indices tuple every round, so the pid ->
    row map is built once per execution, not once per round; holding the
    tuple inside the cache keeps the identity stable.  Shared by every
    array-backed adversary.
    """
    if cache is not None and cache[0] is receivers:
        return cache[1], cache
    rpos = {pid: k for k, pid in enumerate(receivers)}
    return rpos, (receivers, rpos)


class RoundLosses(_MappingABC):
    """One round's losses: the only thing a loss adversary returns.

    ``senders`` is the round's sender sequence and ``receivers`` the
    receiver tuple; ``drop_counts[k]`` is how many messages
    ``receivers[k]`` loses.  ``materialise`` builds the receiver -> drop
    set dict on first mapping access, once: it must describe exactly the
    drops the counts describe, and must not consume randomness any later
    draw depends on (the randomised built-ins reserve the tail of a
    per-round substream for it).  Every drop set is a subset of
    ``senders`` that excludes its receiver — the normalization the
    module docstring states.
    """

    __slots__ = (
        "senders", "receivers", "drop_counts", "_sets", "_materialise",
    )

    def __init__(
        self,
        senders: Sequence[ProcessId],
        receivers: Tuple[ProcessId, ...],
        drop_counts,
        materialise: Optional[
            Callable[[], Dict[ProcessId, AbstractSet[ProcessId]]]
        ],
    ) -> None:
        self.senders = senders
        self.receivers = receivers
        self.drop_counts = drop_counts
        self._sets: Optional[Dict[ProcessId, AbstractSet[ProcessId]]] = None
        self._materialise = materialise

    @classmethod
    def from_sets(
        cls,
        senders: Sequence[ProcessId],
        receivers: Tuple[ProcessId, ...],
        sets: Dict[ProcessId, AbstractSet[ProcessId]],
    ) -> "RoundLosses":
        """Wrap eagerly built, normalized drop sets (one per receiver)."""
        out = cls(
            senders, receivers, _counts([len(sets[pid]) for pid in receivers]),
            None,
        )
        out._sets = sets
        return out

    @classmethod
    def lossless(
        cls, senders: Sequence[ProcessId], receivers: Sequence[ProcessId]
    ) -> "RoundLosses":
        """Every receiver gets every message."""
        receivers = _as_tuple(receivers)
        n = len(receivers)
        counts = (
            _np.zeros(n, dtype=_np.int64) if _np is not None else [0] * n
        )
        return cls(
            senders, receivers, counts,
            lambda: dict.fromkeys(receivers, _NO_LOSS),
        )

    @classmethod
    def silence(
        cls, senders: Sequence[ProcessId], receivers: Sequence[ProcessId]
    ) -> "RoundLosses":
        """Every receiver loses every message but its own."""
        receivers = _as_tuple(receivers)
        everyone = frozenset(senders)
        n_senders = len(senders)
        sent = [pid in everyone for pid in receivers]

        def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            return {
                pid: everyone - {pid} if own else everyone
                for pid, own in zip(receivers, sent)
            }

        return cls(
            senders, receivers, _counts([n_senders - own for own in sent]),
            materialise,
        )

    def _ensure(self) -> Dict[ProcessId, AbstractSet[ProcessId]]:
        sets = self._sets
        if sets is None:
            sets = self._sets = self._materialise()
            self._materialise = None
        return sets

    def __getitem__(self, pid: ProcessId) -> AbstractSet[ProcessId]:
        return self._ensure()[pid]

    def __iter__(self):
        return iter(self.receivers)

    def __len__(self) -> int:
        return len(self.receivers)

    def __contains__(self, pid: object) -> bool:
        return pid in self._ensure()

    def get(self, pid: ProcessId, default=None):
        return self._ensure().get(pid, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "materialised" if self._sets is not None else "lazy"
        return f"RoundLosses({len(self.receivers)} receivers, {state})"


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
    resolution per group, in group order, so the inner adversary's
    randomness is consumed identically whichever view a consumer reads.
    Counts are each group's cross-group size plus the inner counts; the
    sets (cross-group set union inner set) resolve lazily.
    """
    receivers_t = _as_tuple(receivers)
    rpos = {pid: k for k, pid in enumerate(receivers_t)}
    n_senders = len(senders)
    counts = [0] * len(receivers_t)
    resolved = []
    for local, members in groups:
        cross = n_senders - len(local)
        if inner is None:
            inner_map = None
            for pid in members:
                counts[rpos[pid]] = cross
        else:
            inner_map = resolve_round(inner, round_index, local, members)
            for pid, extra in zip(members, _as_list(inner_map.drop_counts)):
                counts[rpos[pid]] = cross + extra
        resolved.append((local, members, inner_map))

    def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
        everyone = frozenset(senders)
        out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for local, members, inner_map in resolved:
            cross = everyone.difference(local)
            for pid in members:
                extra = inner_map[pid] if inner_map is not None else None
                out[pid] = cross | extra if extra else cross
        return out

    return RoundLosses(senders, receivers_t, _counts(counts), materialise)


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
    receiver-major order — vectorised when numpy is available, geometric
    gap-skipping otherwise (one draw per *loss* instead of one per pair)
    — with the exact Bernoulli(p) law per non-self pair on both.
    """

    def __init__(self, p: float, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"loss probability must be in [0,1]: {p}")
        self.p = p
        self.seed = seed
        # Lazily created streams: PCG64 on the numpy backend, a
        # dedicated stdlib stream otherwise.
        self._np_gen = None
        self._batch_rng: Optional[random.Random] = None
        self._rpos_cache: Optional[Tuple[tuple, Dict[ProcessId, int]]] = None
        # [receivers tuple, senders list, flat self cells, their index
        # array once the pair repeats]: revalidated per call by identity
        # + list equality.
        self._self_cache: Optional[list] = None

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
        if _np is not None:
            return self._losses_for_round_np(senders, receivers)
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
            return RoundLosses.from_sets(senders, receivers_t, out)
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
        return RoundLosses.from_sets(senders, receivers_t, out)

    def _losses_for_round_np(
        self,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        """Vectorised whole-round resolution (numpy available).

        Draws the full (receiver x sender) Bernoulli grid in one C call
        from a dedicated PCG64 stream — the exact stream the pre-array
        implementation consumed, so executions replay across versions —
        then clears the self-pair cells in place (self-delivery is
        unconditional, so a self hit is never a drop) and reduces the
        grid to per-receiver drop *counts* with one row sum.  The engine's
        array kernel reads only the counts; any consumer that needs the
        actual drop sets materialises all of them lazily from the same
        cleared grid.
        """
        gen = self._np_gen
        if gen is None:
            self._np_gen = gen = _np.random.Generator(
                _np.random.PCG64(self.seed)
            )
        receivers_t = _as_tuple(receivers)
        n_receivers = len(receivers_t)
        n_senders = len(senders)
        # Row-major (receivers x senders): the same draws, in the same
        # order, as one flat grid of n_receivers * n_senders.
        hits = gen.random((n_receivers, n_senders)) < self.p
        # The self cells (flat grid positions) depend only on the
        # (senders, receivers) pair.  A pair that repeats the previous
        # call's (a steady execution) clears them with one store through
        # an index array built on that repeat; any other call clears its
        # few cells one by one, which is cheaper than building the array,
        # and remembers them.
        cached = self._self_cache
        if (cached is not None and cached[0] is receivers_t
                and cached[1] == senders):
            if cached[2]:
                if cached[3] is None:
                    cached[3] = _np.asarray(cached[2], dtype=_np.intp)
                hits.ravel()[cached[3]] = False
        else:
            rpos, self._rpos_cache = _cached_receiver_positions(
                receivers_t, self._rpos_cache
            )
            cells = []
            for j, s in enumerate(senders):
                k = rpos.get(s)
                if k is not None:
                    hits[k, j] = False
                    cells.append(k * n_senders + j)
            self._self_cache = [receivers_t, list(senders), cells, None]
        drop_counts = hits.sum(axis=1, dtype=_np.int64)

        def materialise() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            # The dropped senders in row-major order, split by each
            # receiver's count.  Fancy-indexing the sender sequence keeps
            # arbitrary hashable ProcessIds intact (object dtype
            # round-trips through tolist).
            lost = _np.asarray(senders)[_np.nonzero(hits)[1]].tolist()
            out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
            end = 0
            for pid, dropped in zip(receivers_t, drop_counts.tolist()):
                if dropped:
                    start = end
                    end += dropped
                    out[pid] = set(lost[start:end])
                else:
                    out[pid] = _NO_LOSS
            return out

        return RoundLosses(senders, receivers_t, drop_counts, materialise)

    def reset(self) -> None:
        self._np_gen = None
        self._batch_rng = None
        self._self_cache = None


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
    Concretely there are two equal-law draw schemes, chosen by backend:

    * **Per-receiver substreams** (pure python): a fresh stdlib stream
      seeded from ``(seed, round_index, receiver)`` per pair, so the
      pattern is independent of the order in which callers enumerate
      receivers.
    * **One vectorised substream block per round** (numpy): a fresh
      PCG64 substream seeded from ``(seed, round_index, senders,
      receivers)`` serves the whole call — first the per-receiver
      capture-count draws (one vectorised call), then, lazily, the
      capture-subset permutations.  The block is a pure function of
      those four inputs, so engine executions (which always enumerate
      receivers in index order) are deterministic end to end, and
      distinct delegated calls within one round — partition groups,
      multihop neighbourhoods — draw *independent* blocks rather than
      replaying a shared one.

    Both schemes sample the same law — capture counts uniform on
    ``{0..min(capture_limit, |others|)}`` and capture subsets uniform
    without replacement — but their concrete patterns differ, exactly as
    :class:`IIDLoss`'s two streams do.  Within one backend, executions
    replay bit-for-bit; the equivalence suite asserts the engine's array
    kernel and its pure-python path see identical patterns because both
    consume this same resolution.
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
        self._rpos_cache: Optional[Tuple[tuple, Dict[ProcessId, int]]] = None

    def _pair_rng(self, round_index: int, receiver: ProcessId) -> random.Random:
        # String seeding hashes with SHA-512 internally: deterministic
        # across runs and platforms, independent of PYTHONHASHSEED.
        return random.Random(f"{self.seed}|{round_index}|{receiver!r}")

    def _round_gen(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ):
        """One PCG64 substream per (round, call context), platform-independent.

        Seeded through SHA-512 of the seed, the round, *and* the sender/
        receiver lists (the same string-hash idiom as :meth:`_pair_rng`),
        so the substream is independent of ``PYTHONHASHSEED``, identical
        across platforms, and — crucially — *distinct for distinct
        delegated calls within one round*: a group-delegating wrapper
        (``PartitionLoss`` intra resolution, ``MultihopLayer``
        neighbourhoods) resolves each group against its own block
        instead of replaying one shared block into correlated losses.
        """
        # C-level container reprs: one pass each, no per-element Python.
        # The engine always hands the same container shapes per call
        # site (senders list, receivers tuple), so the context string is
        # stable wherever determinism is observable.
        context = (
            f"{self.seed}|{round_index}|{senders!r}|{receivers!r}|block"
        )
        digest = hashlib.sha512(context.encode()).digest()
        entropy = int.from_bytes(digest[:32], "little")
        return _np.random.Generator(
            _np.random.PCG64(_np.random.SeedSequence(entropy))
        )

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        if not senders:
            return RoundLosses.lossless(senders, receivers)
        if _np is not None:
            return self._losses_for_round_np(round_index, senders, receivers)
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
        return RoundLosses.from_sets(senders, receivers_t, out)

    def _losses_for_round_np(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        """Whole-round resolution from one vectorised substream block.

        The round's substream (:meth:`_round_gen`) is consumed in a
        fixed order: the per-receiver capture counts first — which is
        all the drop-count array needs — then, only if some consumer
        materialises the drop sets, one uniform matrix whose per-row
        argsort yields each receiver's random capture permutation
        (receiving ``k`` of ``m`` competitors = keeping a uniform
        ``k``-subset, so taking the first ``k`` of a uniform permutation
        reproduces ``rng.sample``'s law exactly).  Laziness is safe
        because nothing else ever draws from the round's substream.
        """
        receivers_t = _as_tuple(receivers)
        n_receivers = len(receivers_t)
        n_senders = len(senders)
        rpos, self._rpos_cache = _cached_receiver_positions(
            receivers_t, self._rpos_cache
        )
        gen = self._round_gen(round_index, senders, receivers_t)
        if n_senders == 1:
            (sole,) = tuple(senders)
            lose = gen.random(n_receivers) < self.p_single_loss
            k = rpos.get(sole)
            if k is not None:
                lose[k] = False  # self-delivery: the sender keeps its own
            drop_counts = lose.astype(_np.int64)

            def materialise_single() -> Dict[ProcessId, AbstractSet[ProcessId]]:
                only = frozenset((sole,))
                return {
                    pid: (only if flag else _NO_LOSS)
                    for pid, flag in zip(receivers_t, lose.tolist())
                }

            return RoundLosses(
                senders, receivers_t, drop_counts, materialise_single
            )
        own = _np.zeros(n_receivers, dtype=bool)
        self_rows: List[int] = []
        self_cols: List[int] = []
        for j, s in enumerate(senders):
            k = rpos.get(s)
            if k is not None:
                own[k] = True
                self_rows.append(k)
                self_cols.append(j)
        # m = |others| per receiver; capture counts uniform on
        # {0..min(capture_limit, m)}; everything not captured is lost.
        m = n_senders - own.astype(_np.int64)
        capped = _np.minimum(self.capture_limit, m)
        captured_counts = gen.integers(capped + 1)
        drop_counts = m - captured_counts

        def materialise_multi() -> Dict[ProcessId, AbstractSet[ProcessId]]:
            # The capture permutations, the round substream's second and
            # last draw: uniform keys per (receiver, sender), each
            # receiver's own column pushed past every finite key so the
            # first m entries of the row's argsort are a uniform
            # permutation of its m competitors.
            keys = gen.random((n_receivers, n_senders))
            if self_rows:
                keys[self_rows, self_cols] = _np.inf
            order = _np.argsort(keys, axis=1)
            sender_arr = _np.asarray(senders)
            out: Dict[ProcessId, AbstractSet[ProcessId]] = {}
            m_list = m.tolist()
            k_list = captured_counts.tolist()
            for i, pid in enumerate(receivers_t):
                mi = m_list[i]
                ki = k_list[i]
                if ki >= mi:
                    out[pid] = _NO_LOSS
                    continue
                out[pid] = set(sender_arr[order[i, ki:mi]].tolist())
            return out

        return RoundLosses(
            senders, receivers_t, drop_counts, materialise_multi
        )


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

    ``round_fn(round_index, senders, receivers)``, if given instead,
    returns the whole round's receiver -> drop set mapping in one call.
    Exactly one of the two must be provided.  Either way the script's
    drop sets are untrusted: each is intersected with ``senders`` and
    loses its receiver, so a script may name non-senders or the receiver
    itself (self-delivery is unconditional), but must answer for every
    receiver.
    """

    def __init__(
        self,
        fn: Optional[
            Callable[[int, Sequence[ProcessId], ProcessId], AbstractSet[ProcessId]]
        ] = None,
        r_cf: Optional[int] = None,
        round_fn: Optional[
            Callable[
                [int, Sequence[ProcessId], Sequence[ProcessId]],
                Mapping[ProcessId, AbstractSet[ProcessId]],
            ]
        ] = None,
    ) -> None:
        if (fn is None) == (round_fn is None):
            raise ConfigurationError(
                "ScriptedLoss needs exactly one of fn / round_fn"
            )
        self._fn = fn
        self._round_fn = round_fn
        self._r_cf = r_cf

    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        receivers_t = _as_tuple(receivers)
        if self._fn is not None:
            fn = self._fn
            script = {pid: fn(round_index, senders, pid) for pid in receivers_t}
        else:
            script = self._round_fn(round_index, senders, receivers)
            for pid in receivers_t:
                if pid not in script:
                    raise ModelViolation(
                        f"loss adversary omitted receiver {pid!r} from its "
                        "round resolution"
                    )
        everyone = frozenset(senders)
        sets: Dict[ProcessId, AbstractSet[ProcessId]] = {}
        for pid in receivers_t:
            lost = script[pid]
            if lost:
                lost = everyone.intersection(lost)
                if pid in lost:
                    lost = lost - {pid}
            sets[pid] = lost or _NO_LOSS
        return RoundLosses.from_sets(senders, receivers_t, sets)

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
        return RoundLosses.from_sets(senders, receivers_t, out)

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
