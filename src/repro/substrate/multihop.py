"""A multihop extension of the model (the conclusion's future work).

The paper's model is single-hop; its conclusion announces the plan to
"extend our formal model to describe a multihop network" and revisit
problems like reliable broadcast there.  This module provides that
extension as a substrate:

* :class:`MultihopNetwork` — an undirected connectivity graph, kept as
  a plain adjacency map (the graphs here hold a few dozen nodes);
  processes hear only graph neighbours;
* :class:`MultihopLayer` — one object serving both engine roles, like
  the physical layer: as a loss adversary it drops every message from a
  non-neighbour (plus an optional inner adversary within the
  neighbourhood); as a collision detector it asks one
  :class:`~repro.detectors.detector.ParametricCollisionDetector` for
  its obligations *per neighbourhood* — ``c_i`` is the number of
  broadcasting neighbours of ``i`` (self included), which is the natural
  multihop reading of Definition 6.  Both engine receive paths reach
  that detector through the layer's dict ``advise``;
* :func:`flood` — the broadcast problem (Bar-Yehuda et al. [7], the
  paper's flagship related problem): a source floods a message; we
  measure rounds until full coverage under two relay strategies, showing
  the contention collapse of blind flooding and the recovery via
  randomized backoff — the behaviour that motivates the whole
  total-collision-model critique of Section 1.2.
"""

from __future__ import annotations

import dataclasses
import random
from typing import (
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

from ..adversary.loss import LossAdversary, RoundLosses, grouped_losses
from ..core.errors import ConfigurationError
from ..core.types import CollisionAdvice, ProcessId
from ..detectors.detector import (
    CollisionDetector,
    ParametricCollisionDetector,
    perfect_detector,
)


class MultihopNetwork:
    """An undirected connectivity graph over process indices.

    ``adjacency`` maps every node to the set of its neighbours; build
    one from an edge list plus any ``nodes`` that have no edge.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[ProcessId, ProcessId]],
        nodes: Iterable[ProcessId] = (),
    ) -> None:
        adjacency: Dict[ProcessId, Set[ProcessId]] = {
            pid: set() for pid in nodes
        }
        for a, b in edges:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        if not adjacency:
            raise ConfigurationError("the network needs at least one node")
        self.adjacency = adjacency
        if len(self._depths(next(iter(adjacency)))) != len(adjacency):
            raise ConfigurationError("the network must be connected")

    # -- canned topologies ------------------------------------------------
    @classmethod
    def line(cls, n: int) -> "MultihopNetwork":
        """A path of ``n`` nodes: diameter ``n - 1``."""
        return cls([(i, i + 1) for i in range(n - 1)], nodes=range(n))

    @classmethod
    def grid(cls, width: int, height: int) -> "MultihopNetwork":
        """A ``width x height`` grid; node ``(i, j)`` is ``i * height + j``."""
        nodes = [i * height + j for i in range(width) for j in range(height)]
        edges = [(p, p + height) for p in nodes if p + height < len(nodes)]
        edges += [(p, p + 1) for p in nodes if (p + 1) % height]
        return cls(edges, nodes=nodes)

    @classmethod
    def clique_chain(cls, cliques: int, size: int) -> "MultihopNetwork":
        """A chain of single-hop cliques bridged by shared nodes."""
        edges = []
        for c in range(cliques):
            members = range(c * (size - 1), c * (size - 1) + size)
            edges.extend((a, b) for a in members for b in members if a < b)
        return cls(edges)

    @classmethod
    def ring(
        cls, n: int, successors: int = 1, fingers: bool = True
    ) -> "MultihopNetwork":
        """A Chord-style ring overlay: successor lists plus finger tables.

        Every node ``i`` is linked to its ``successors`` clockwise
        neighbours ``i+1 .. i+s (mod n)`` — the successor list that keeps
        the ring connected under churn — and, when ``fingers`` is true,
        to the power-of-two fingers ``i + 2^k (mod n)`` for ``2^k < n``,
        which cut the diameter from ``O(n)`` to ``O(log n)``.  The graph
        is undirected, so predecessor links come for free.
        """
        if n < 2:
            raise ConfigurationError("a ring needs at least two nodes")
        if not 1 <= successors < n:
            raise ConfigurationError(
                f"successors must be in [1, n); got {successors} for n={n}"
            )
        edges = []
        for i in range(n):
            edges.extend((i, (i + s) % n) for s in range(1, successors + 1))
            if fingers:
                span = 2
                while span < n:
                    edges.append((i, (i + span) % n))
                    span *= 2
        return cls(edges)

    # -- queries -----------------------------------------------------------
    @property
    def indices(self) -> Sequence[ProcessId]:
        return tuple(sorted(self.adjacency))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def diameter(self) -> int:
        """The largest hop distance between two nodes."""
        return max(
            max(self._depths(pid).values()) for pid in self.adjacency
        )

    def neighbors(self, pid: ProcessId) -> Set[ProcessId]:
        return set(self.adjacency[pid])

    def closed_neighborhood(self, pid: ProcessId) -> Set[ProcessId]:
        return self.neighbors(pid) | {pid}

    def _depths(self, source: ProcessId) -> Dict[ProcessId, int]:
        """Hop distance from ``source`` to every node it reaches (BFS)."""
        depth = {source: 0}
        queue = [source]
        for pid in queue:  # the loop also visits what it appends
            for other in self.adjacency[pid]:
                if other not in depth:
                    depth[other] = depth[pid] + 1
                    queue.append(other)
        return depth


class MultihopLayer(LossAdversary, CollisionDetector):
    """Topology-aware loss plus neighbourhood-local collision detection.

    The same object must be installed as both the environment's loss
    adversary and its detector: the detector needs the senders of the
    round the loss path last resolved (the only round it keeps), and it
    raises :class:`~repro.core.errors.ConfigurationError` for any other.

    ``detector`` (default: complete, always accurate, benign) states the
    obligations; :meth:`advise` asks it once per distinct local
    broadcaster count.  So a receive count above its local ``c`` is the
    detector's :class:`~repro.core.errors.ModelViolation`, and a seeded
    policy is asked in group order (groups ordered by their first
    receiver), not in index order.
    """

    def __init__(
        self,
        network: MultihopNetwork,
        inner: Optional[LossAdversary] = None,
        detector: Optional[ParametricCollisionDetector] = None,
    ) -> None:
        self.network = network
        self.inner = inner
        self.detector = detector or perfect_detector()
        # The last resolved round and its senders; ``reset()`` drops
        # them, and with them each pid's closed neighbourhood, read from
        # the graph on first use in an execution.
        self._resolved: Tuple[Optional[int], FrozenSet] = (None, frozenset())
        self._closed: Dict[ProcessId, FrozenSet[ProcessId]] = {}

    def _closed_neighborhood(self, pid: ProcessId) -> FrozenSet[ProcessId]:
        """``pid``'s closed neighbourhood, read from the graph once per
        execution: the topology is fixed while an execution runs."""
        nbhd = self._closed.get(pid)
        if nbhd is None:
            nbhd = self._closed[pid] = frozenset(
                self.network.closed_neighborhood(pid)
            )
        return nbhd

    # -- LossAdversary ------------------------------------------------------
    def losses_for_round(
        self,
        round_index: int,
        senders: Sequence[ProcessId],
        receivers: Sequence[ProcessId],
    ) -> RoundLosses:
        """Whole-round resolution: one inner delegation per neighbourhood.

        Receivers whose closed neighbourhoods see the *same* local sender
        list form one group: they lose every message from outside it and,
        within it, what one resolution of the inner adversary says
        (:func:`~repro.adversary.loss.grouped_losses`).  On uniform
        topologies (cliques, dense grids) a round is a handful of group
        resolutions.
        """
        self._resolved = (round_index, frozenset(senders))
        closed = self._closed_neighborhood
        groups: Dict[tuple, List[ProcessId]] = {}
        for pid in receivers:
            local = tuple(filter(closed(pid).__contains__, senders))
            groups.setdefault(local, []).append(pid)
        return grouped_losses(
            round_index, senders, receivers,
            [(list(local), members) for local, members in groups.items()],
            self.inner,
        )

    # -- CollisionDetector ----------------------------------------------------
    def advise(
        self,
        round_index: int,
        broadcasters: int,
        received_counts: Mapping[ProcessId, int],
    ) -> Dict[ProcessId, CollisionAdvice]:
        resolved_round, senders = self._resolved
        if resolved_round != round_index:
            raise ConfigurationError(
                f"MultihopLayer has not resolved round {round_index}: "
                "install the same layer as the environment's loss "
                "adversary"
            )
        closed = self._closed_neighborhood
        by_c: Dict[int, Dict[ProcessId, int]] = {}
        for pid, t in received_counts.items():
            by_c.setdefault(len(senders & closed(pid)), {})[pid] = t
        advice: Dict[ProcessId, CollisionAdvice] = {}
        for c_local, counts in by_c.items():
            advice.update(self.detector.advise(round_index, c_local, counts))
        return advice

    # Inert compatibility: the engine never calls it, but
    # perfbench/spans.py wraps ``MultihopLayer.__dict__["advise_array"]``.
    advise_array = CollisionDetector.advise_array

    def reset(self) -> None:
        self._resolved = (None, frozenset())
        self._closed = {}
        if self.inner is not None:
            self.inner.reset()
        self.detector.reset()


# ----------------------------------------------------------------------
# The broadcast problem over the multihop substrate
# ----------------------------------------------------------------------
@dataclasses.dataclass
class FloodResult:
    """Outcome of one flood: coverage trajectory and completion round."""

    covered_by_round: List[int]
    completed_round: Optional[int]
    n: int
    diameter: int
    informed_round: Dict[ProcessId, int] = dataclasses.field(
        default_factory=dict
    )

    @property
    def completed(self) -> bool:
        return self.completed_round is not None

    # -- hops / stabilization metrics ----------------------------------
    @property
    def max_hops(self) -> Optional[int]:
        """Rounds until the last node was informed (``None`` if partial).

        On a contention-free flood this equals the source's graph
        eccentricity; the excess over it is pure contention delay.
        """
        if not self.completed:
            return None
        return max(self.informed_round.values())

    @property
    def mean_hops(self) -> Optional[float]:
        """Mean informing round over all reached nodes but the source."""
        reached = [r for r in self.informed_round.values() if r > 0]
        if not reached:
            return None
        return sum(reached) / len(reached)

    @property
    def stabilization(self) -> Optional[float]:
        """Completion round over diameter — the flood's stretch factor.

        ``1.0`` means the flood advanced one hop per round, the best any
        relay strategy can do; larger values quantify how much the
        channel and the relay policy slowed the frontier down.
        """
        if not self.completed or self.diameter == 0:
            return None
        return self.completed_round / self.diameter


def flood(
    network: MultihopNetwork,
    source: ProcessId,
    strategy: str = "backoff",
    channel: str = "capture",
    relay_probability: float = 0.35,
    capture_limit: int = 1,
    max_rounds: int = 400,
    seed: int = 0,
) -> FloodResult:
    """Flood a message from ``source`` and measure coverage per round.

    Per round, every informed node decides whether to relay:

    * ``blind``   — always relay (the naive flood: heavy contention);
    * ``backoff`` — relay with ``relay_probability`` (simple randomized
      backoff, the standard contention fix).

    Reception semantics per receiver, given its ``talking`` neighbours:

    * ``channel='total'``   — the total collision model of Section 1.2:
      decode iff *exactly one* neighbour talks; two or more jam each
      other completely.  Blind flooding deadlocks on any topology where
      frontier nodes permanently hear several informed relays (e.g. the
      grid's diagonal frontier) — the behaviour that motivates backoff;
    * ``channel='capture'`` — the paper's realistic alternative: up to
      ``capture_limit`` of the talking neighbours are decoded, chosen at
      random per receiver (arbitrary-subset loss, localised).
    """
    if strategy not in ("blind", "backoff"):
        raise ConfigurationError("strategy must be 'blind' or 'backoff'")
    if channel not in ("capture", "total"):
        raise ConfigurationError("channel must be 'capture' or 'total'")
    if source not in set(network.indices):
        raise ConfigurationError(f"source {source} is not in the network")
    rng = random.Random(seed)
    informed: Set[ProcessId] = {source}
    informed_round: Dict[ProcessId, int] = {source: 0}
    trajectory: List[int] = []
    completed: Optional[int] = None
    for round_index in range(1, max_rounds + 1):
        if strategy == "blind":
            relays = set(informed)
        else:
            relays = {
                pid for pid in informed
                if rng.random() < relay_probability
            }
            if not relays and informed != set(network.indices):
                relays = {rng.choice(sorted(informed))}
        newly: Set[ProcessId] = set()
        for pid in network.indices:
            if pid in informed:
                continue
            talking = [r for r in relays if r in network.neighbors(pid)]
            if not talking:
                continue
            if channel == "total":
                if len(talking) == 1:
                    newly.add(pid)
            else:
                decoded = rng.sample(
                    talking, min(capture_limit, len(talking))
                )
                if decoded:
                    newly.add(pid)
        informed |= newly
        for pid in newly:
            informed_round[pid] = round_index
        trajectory.append(len(informed))
        if len(informed) == network.n:
            completed = round_index
            break
    return FloodResult(
        covered_by_round=trajectory,
        completed_round=completed,
        n=network.n,
        diameter=network.diameter,
        informed_round=informed_round,
    )
