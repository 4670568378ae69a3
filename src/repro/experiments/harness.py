"""Experiment harness: tables, rendering, the experiment registry type,
and the parallel sweep runner.

Every evaluation artifact of the paper (Figure 1 and the theorem matrix of
Section 1.5) is reproduced by an *experiment*: a callable producing one or
more :class:`Table` objects whose rows mirror what the paper reports.  The
benchmarks print these tables; EXPERIMENTS.md records paper-vs-measured.

Record policies and the parallel sweep API
------------------------------------------

Large sweeps (the E1 matrix, E3's |V| sweep, E13's phase studies, and any
randomized campaign) have two scaling levers, both provided here and in
:mod:`repro.core`:

1. **Record policies** — :class:`repro.core.records.RecordPolicy` selects
   how much per-round state an execution retains.  ``FULL`` keeps every
   ``RoundRecord`` (required by trace validators and lower-bound
   replays); ``SUMMARY`` streams one small per-round aggregate
   (broadcast count, decisions, crashes); ``NONE`` keeps only final
   outcomes.  Decisions and decision rounds are identical across
   policies for the same seeds — an experiment that only calls
   ``evaluate``/``last_decision_round`` should run under ``SUMMARY`` or
   ``NONE`` and get the same table rows at a fraction of the memory.

2. **The sweep runner** — :class:`SweepRunner` fans a grid of cells
   (e.g. seed × n × detector class) across worker processes by
   delegating to the unified
   :class:`~repro.experiments.dispatch.CampaignDispatcher` loop (the
   same selector-driven pool the campaign layer runs on).  A *cell
   function* is any picklable top-level callable
   ``fn(params: dict, seed: int) -> payload`` returning a picklable
   payload; :func:`sweep_grid` builds the Cartesian product of named
   axes, :func:`cell_seed` derives a deterministic per-cell seed from a
   base seed plus the cell's coordinates (stable across processes and
   runs — no ``PYTHONHASHSEED`` dependence), and ``SweepRunner.run``
   merges payloads back in grid order.  Dispatch problems — a sandboxed
   platform with no workers, an unpicklable cell function — degrade to
   in-process serial execution with a warning, so results never depend
   on where cells ran; an exception raised *by a cell* always
   propagates with its original type.

Example::

    runner = SweepRunner(consensus_sweep_cell, base_seed=7)
    outcomes = runner.run_grid(
        n=[4, 16], detector=["0-OAC", "maj-OAC"], trial=range(3)
    )
    solved = [o.payload["solved"] for o in outcomes]

The campaign layer
------------------

``SweepRunner`` is all-or-nothing: interrupt it and every completed
cell is lost.  :class:`repro.experiments.campaign.CampaignRunner` wraps
the same cell functions and :func:`cell_seed` derivation with durable
checkpoints in one sqlite ``campaign.db``
(:class:`repro.core.records.SqliteSink`, WAL mode):

* **Checkpoint schema** — a ``cells`` table keyed on the cell's
  canonical coordinate tag (status ``done``/``timed_out``/``failed``,
  canonical-JSON payload), plus a ``round_summaries`` table keyed on
  ``(cell_seed, round)`` that cells stream per-round aggregates into
  (pass ``sqlite_db`` to :func:`consensus_sweep_cell`).
* **Resume semantics** — ``resume()`` queries the store and runs only
  unfinished cells (``failed`` retried up to a ``max_retries`` budget,
  ``done``/``timed_out`` skipped).  Same ``base_seed`` + same grid ⇒
  the merged outcomes and ``report()`` bytes are identical whether the
  campaign ran in one pass or across N interrupted passes.
* **One dispatcher** — every campaign configuration (any ``processes``
  width including 1, with or without ``cell_timeout``) runs through
  :class:`~repro.experiments.dispatch.CampaignDispatcher`'s persistent
  worker pool; an overrunning cell's worker is terminated
  (terminate→kill escalation) and *replaced* so the pool stays at full
  width, while the cell is checkpointed ``timed_out`` instead of
  killing the grid.

``python -m repro campaign`` launches/resumes a campaign from the
command line; E18 (``repro.experiments.matrix.run_campaign_matrix``)
drives the full (n × detector × loss_rate × seed) matrix through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .dispatch import CampaignDispatcher, CellResult


@dataclasses.dataclass
class Table:
    """A titled ASCII table with ordered columns."""

    title: str
    columns: Sequence[str]
    rows: List[Mapping[str, object]] = dataclasses.field(default_factory=list)
    note: Optional[str] = None

    def add(self, **cells: object) -> None:
        """Append a row (missing columns render blank)."""
        self.rows.append(cells)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Render to an aligned ASCII table."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                return f"{value:.3f}"
            if value is None:
                return ""
            return str(value)

        header = list(self.columns)
        body = [[fmt(row.get(col)) for col in header] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body
            else len(header[i])
            for i in range(len(header))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            " | ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        lines.append(sep)
        for r in body:
            lines.append(
                " | ".join(c.ljust(w) for c, w in zip(r, widths))
            )
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)

    def column(self, name: str) -> List[object]:
        """Extract one column as a list (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]


@dataclasses.dataclass
class Experiment:
    """One reproducible evaluation artifact.

    ``run`` executes the experiment and returns its tables; ``paper_ref``
    points at the table/figure/theorem being reproduced.
    """

    exp_id: str
    title: str
    paper_ref: str
    run: Callable[[], List[Table]]

    def render(self) -> str:
        tables = self.run()
        banner = f"[{self.exp_id}] {self.title}  ({self.paper_ref})"
        parts = [banner, "#" * len(banner)]
        parts.extend(t.render() for t in tables)
        return "\n\n".join(parts)


class ExperimentRegistry:
    """Name -> experiment lookup used by benchmarks and the CLI examples."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}

    def register(self, experiment: Experiment) -> Experiment:
        if experiment.exp_id in self._experiments:
            raise ValueError(f"duplicate experiment id {experiment.exp_id}")
        self._experiments[experiment.exp_id] = experiment
        return experiment

    def get(self, exp_id: str) -> Experiment:
        return self._experiments[exp_id]

    def all(self) -> List[Experiment]:
        return [self._experiments[k] for k in sorted(self._experiments)]

    def ids(self) -> List[str]:
        return sorted(self._experiments)


# ----------------------------------------------------------------------
# The parallel sweep runner
# ----------------------------------------------------------------------
def _canonical(value: Any) -> str:
    """A stable, value-based encoding of one sweep coordinate.

    Only types with value-based representations are accepted; anything
    falling back to ``object.__repr__`` would embed a memory address and
    silently break cross-run seed determinism, so it is rejected instead.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    if isinstance(value, (list, tuple)):
        inner = ",".join(_canonical(v) for v in value)
        return f"[{inner}]"
    if isinstance(value, dict):
        inner = ",".join(
            f"{_canonical(k)}:{_canonical(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return f"{{{inner}}}"
    raise TypeError(
        f"sweep coordinate {value!r} of type {type(value).__name__} has no "
        "canonical value encoding; use primitive coordinates (e.g. a "
        "detector-class *name*) and construct objects inside the cell fn"
    )


def coordinate_text(params: Mapping[str, Any]) -> str:
    """The canonical text of one cell's coordinates.

    ``name=value`` pairs in name order, joined by ``|``, each value in
    its :func:`_canonical` encoding.  It is the cell's campaign tag
    (:func:`~repro.experiments.campaign.cell_tag`) and, behind the base
    seed, the text :func:`cell_seed` hashes.
    """
    return "|".join(
        f"{name}={_canonical(v)}" for name, v in sorted(params.items())
    )


def cell_seed(base_seed: int, **params: Any) -> int:
    """Deterministic 32-bit seed for one sweep cell.

    The first 4 bytes of SHA-256 over ``base_seed|<coordinate_text>``
    (just ``base_seed`` for the empty grid's one cell), so the same
    cell gets the same seed in every process, on every platform, in
    every run — independent of grid order, worker scheduling, and
    ``PYTHONHASHSEED``.  Coordinates must be primitives (or lists/dicts
    of them); objects without value-based reprs are rejected rather
    than silently seeding from a memory address.  It is the one seed
    derivation: :meth:`SweepRunner.iter_cells` and ``campaign verify``
    both call it through this module.
    """
    text = coordinate_text(params)
    seed_text = f"{int(base_seed)}|{text}" if text else str(int(base_seed))
    digest = hashlib.sha256(seed_text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def iter_sweep_grid(**axes: Iterable[Any]):
    """Lazily stream the Cartesian product of named axes (row-major).

    The generator form of :func:`sweep_grid`: one coordinate dict at a
    time, never the whole grid — the substrate under the campaign
    layer's shard feed, where a host filters a multi-million-cell grid
    down to its own share without materialising the rest.
    """
    names = list(axes)
    values = [list(axes[name]) for name in names]
    for combo in itertools.product(*values):
        yield dict(zip(names, combo))


def sweep_grid(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes, row-major in keyword order."""
    return list(iter_sweep_grid(**axes))


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One point of a sweep grid: its position, seed, and coordinates,
    plus ``tag``, the coordinates' canonical text
    (:func:`coordinate_text`)."""

    index: int
    seed: int
    params: Tuple[Tuple[str, Any], ...]
    tag: str

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """A finished cell: the cell plus whatever its function returned."""

    cell: SweepCell
    payload: Any

    @property
    def params(self) -> Dict[str, Any]:
        return self.cell.as_dict()


class SweepRunner:
    """Fan a grid of experiment cells across worker processes.

    Parameters
    ----------
    cell_fn:
        A picklable top-level callable ``fn(params, seed) -> payload``.
        ``params`` is the cell's coordinate dict; ``seed`` its
        deterministic per-cell seed (which the function may ignore when a
        coordinate supplies its own).  The payload must be picklable —
        return plain dicts/tuples, not live engine objects.
    processes:
        Worker count.  ``None`` picks ``min(cells, cpu_count)``; ``0`` or
        ``1`` forces serial in-process execution (no pickling involved).
    base_seed:
        Folded into every cell's :func:`cell_seed`.
    """

    def __init__(
        self,
        cell_fn: Callable[[Dict[str, Any], int], Any],
        processes: Optional[int] = None,
        base_seed: int = 0,
    ) -> None:
        self.cell_fn = cell_fn
        self.processes = processes
        self.base_seed = base_seed

    # ------------------------------------------------------------------
    def iter_cells(self, **axes: Iterable[Any]):
        """Lazily stream the grid as seeded :class:`SweepCell` objects.

        Indices count the *full* grid in row-major order, so a consumer
        that filters the stream (the campaign layer's shard feed) still
        sees every cell's global identity.  Each cell keeps its
        canonical coordinate text as its ``tag``, so the campaign layer
        never canonicalises it again.
        """
        for i, params in enumerate(iter_sweep_grid(**axes)):
            yield SweepCell(
                index=i,
                seed=cell_seed(self.base_seed, **params),
                params=tuple(sorted(params.items())),
                tag=coordinate_text(params),
            )

    def cells(self, **axes: Iterable[Any]) -> List[SweepCell]:
        """Materialise the grid as seeded :class:`SweepCell` objects."""
        return list(self.iter_cells(**axes))

    def run(self, cells: Sequence[SweepCell]) -> List[SweepOutcome]:
        """Run every cell and return outcomes in grid order.

        Delegates to :class:`~repro.experiments.dispatch.CampaignDispatcher`
        — the unified selector loop the campaign layer runs on — created
        per call and torn down deterministically before returning, so a
        sweep never leaks worker processes.  ``processes <= 1`` (or a
        single-cell grid) maps to the dispatcher's in-process mode,
        preserving the documented no-pickling serial contract; dispatch
        problems (unpicklable cell function, sandboxed platform) degrade
        the same way with a warning.  Unlike the fault-isolating
        campaign layer, a cell that fails aborts the whole sweep: its
        exception is re-raised with the original type.
        """
        workers = self.processes
        if workers is None:
            workers = min(len(cells), os.cpu_count() or 1)
        outcomes: Dict[int, SweepOutcome] = {}

        def on_result(cell: SweepCell, result: CellResult) -> None:
            if result.status != "done":
                if result.exception is not None:
                    raise result.exception
                raise RuntimeError(
                    f"sweep cell {cell.index} failed: {result.error}"
                )
            outcomes[cell.index] = SweepOutcome(
                cell=cell, payload=result.payload
            )

        dispatcher = CampaignDispatcher(
            self.cell_fn,
            processes=workers,
            in_process=(workers <= 1 or len(cells) <= 1),
        )
        with dispatcher:
            dispatcher.run(cells, on_result)
        return [outcomes[cell.index] for cell in cells]

    def run_grid(self, **axes: Iterable[Any]) -> List[SweepOutcome]:
        """Convenience: :meth:`cells` then :meth:`run`."""
        return self.run(self.cells(**axes))


def _fanout_observer(observers: Sequence[Callable[[Any], None]]):
    """Compose round observers (each artifact goes to every sink)."""
    def observe(artifact: Any) -> None:
        for obs in observers:
            obs(artifact)
    return observe


def consensus_sweep_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Built-in sweep cell: Algorithm 2 to decision in an ECF environment.

    Recognised ``params`` (all optional): ``n`` (process count, default 4),
    ``values`` (|V|, default 16), ``cst`` (default 3), ``detector`` (a
    Figure 1 class name, default ``"0-OAC"``), ``loss_rate`` (default
    0.3), ``record_policy`` (``"full"``/``"summary"``/``"none"``, default
    summary), ``seed`` (overrides the derived per-cell seed),
    ``sink_dir`` (a directory path: stream every round's summary to
    ``<sink_dir>/cell-<seed>-<tag>.jsonl`` via a
    :class:`~repro.core.records.JsonlSink`, so even ``NONE``-policy
    campaigns leave a durable per-round trail without holding rounds in
    memory; ``tag`` is derived from the grid coordinates — infra paths
    excluded — so cells sharing an explicit ``seed`` axis value still
    get distinct files and parallel workers never clobber each other,
    while the name itself is machine-independent), and ``sqlite_db`` (a
    database path: file the same per-round summaries in that store's
    ``round_summaries`` table via a
    :class:`~repro.core.records.SqliteSink` keyed on this cell's seed;
    inside a campaign over that store the rows go back to the campaign
    parent, which commits them with the cell's checkpoint, and called
    on its own the cell writes them in one transaction when it ends).
    Both sinks open lazily, so a cell that raises before round 1 leaves
    no empty file (and no spurious rows) behind.  Returns a picklable
    dict with decisions, decision rounds, round count, and the consensus
    report's verdicts; under ``sink_dir`` the payload records the sink
    file's *basename* only (``sink_file``), keeping reports
    byte-identical across machines whose sink directories differ.
    """
    from ..algorithms.alg2 import algorithm_2, termination_bound
    from ..core.consensus import evaluate
    from ..core.execution import run_consensus
    from ..core.records import JsonlSink, RecordPolicy, SqliteSink
    from ..detectors.classes import get_class
    from .scenarios import ecf_environment

    n = int(params.get("n", 4))
    vc = int(params.get("values", 16))
    cst = int(params.get("cst", 3))
    loss_rate = float(params.get("loss_rate", 0.3))
    detector = get_class(str(params.get("detector", "0-OAC")))
    policy = RecordPolicy(str(params.get("record_policy", "summary")))
    seed = int(params.get("seed", seed))
    sink_dir = params.get("sink_dir")
    sqlite_db = params.get("sqlite_db")

    values = list(range(vc))
    env = ecf_environment(n, detector, cst=cst, loss_rate=loss_rate, seed=seed)
    assignment = {i: values[(i * 7 + seed) % vc] for i in env.indices}
    bound = termination_bound(cst, vc)
    sinks: List[Any] = []
    sink_path = None
    if sink_dir:
        os.makedirs(str(sink_dir), exist_ok=True)
        # Distinguish cells that share a seed (e.g. a fixed seed axis):
        # fold every *grid* coordinate into the filename tag.  Infra
        # paths are excluded so the filename — recorded in the payload —
        # is identical no matter where the sinks or store live.
        coords = {
            k: v for k, v in params.items()
            if k not in ("sink_dir", "sqlite_db")
        }
        tag = cell_seed(seed, **coords)
        sink_path = os.path.join(
            str(sink_dir), f"cell-{seed}-{tag:08x}.jsonl"
        )
        sinks.append(JsonlSink(sink_path))
    if sqlite_db:
        sinks.append(SqliteSink(str(sqlite_db), cell_seed=seed))
    observer = None
    if sinks:
        observer = sinks[0] if len(sinks) == 1 else _fanout_observer(sinks)
    try:
        result = run_consensus(
            env, algorithm_2(values), assignment,
            max_rounds=bound + 20, record_policy=policy,
            observer=observer,
        )
    finally:
        for sink in sinks:
            sink.close()
    report = evaluate(result, by_round=bound)
    payload = {
        "decisions": dict(result.decisions),
        "decision_rounds": dict(result.decision_rounds),
        "rounds": result.rounds,
        "solved": report.solved,
        "agreement": report.agreement,
        "decision_round": result.last_decision_round(),
    }
    if sink_path is not None:
        # The payload must be a deterministic function of (grid params,
        # seed): record only the basename — never the absolute path — so
        # reports over sink_dir-streaming campaigns are byte-identical
        # across machines and directories.
        payload["sink_file"] = os.path.basename(sink_path)
    return payload
