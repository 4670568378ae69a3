"""Experiment harness: tables, the experiment registry type, grid
enumeration, and the built-in consensus cell.

Every evaluation artifact of the paper (Figure 1 and the theorem matrix of
Section 1.5) is reproduced by an *experiment*: a callable producing one or
more :class:`Table` objects whose rows mirror what the paper reports.  The
benchmarks print these tables; EXPERIMENTS.md records paper-vs-measured.

Record policies
---------------

:class:`repro.core.records.RecordPolicy` selects how much per-round state
an execution retains.  ``FULL`` keeps every ``RoundRecord`` (required by
trace validators and lower-bound replays); ``SUMMARY`` streams one small
per-round aggregate (broadcast count, decisions, crashes); ``NONE`` keeps
only final outcomes.  Decisions and decision rounds are identical across
policies for the same seeds — an experiment that only calls
``evaluate``/``last_decision_round`` should run under ``SUMMARY`` or
``NONE`` and get the same table rows at a fraction of the memory.

Grids and cells
---------------

A grid sweep (E3's |V| sweep, E17, the E18/E19 campaigns) is a Cartesian
product of named axes, each point a *cell*.  :func:`iter_cells` streams
the grid row-major as seeded :class:`SweepCell` objects; :func:`cell_seed`
derives each cell's seed from a base seed plus the cell's coordinates
(stable across processes and runs — no ``PYTHONHASHSEED`` dependence),
and :func:`coordinate_text` is the canonical text both the seed and the
cell's campaign tag come from.  A *cell function* is any picklable
top-level callable ``fn(params: dict, seed: int) -> payload``;
:func:`consensus_sweep_cell` is the built-in one.

There is one grid runner:
:class:`~repro.experiments.campaign.CampaignRunner` runs cells through
the :class:`~repro.experiments.dispatch.CampaignDispatcher` pool with
durable checkpoints in one sqlite ``campaign.db``
(:class:`repro.core.records.SqliteSink`, WAL mode) — resumable,
fault-isolating (a failing cell is checkpointed ``failed``, never
aborting the grid) and byte-stable in its reports.  Experiments that
want a table rather than a store (E3, E17) run one pass over a
throwaway store with :func:`~repro.experiments.campaign.run_grid`,
which raises if any cell did not finish ``done``.  ``python -m repro
campaign`` launches/resumes a campaign from the command line; the E18
and E19 campaign families (``repro.experiments.matrix.E18`` and
``repro.experiments.churn.E19``, run by
:func:`~repro.experiments.campaign.run_family`) drive the full
(n × detector × loss_rate × seed) matrix and the churn grid through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)


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
# Grid enumeration
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
    derivation: :func:`iter_cells` and ``campaign verify`` both call it
    through this module.
    """
    text = coordinate_text(params)
    seed_text = f"{int(base_seed)}|{text}" if text else str(int(base_seed))
    digest = hashlib.sha256(seed_text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


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


def iter_cells(base_seed: int, **axes: Iterable[Any]) -> Iterator[SweepCell]:
    """Lazily stream the grid of named axes as seeded cells.

    The Cartesian product of ``axes``, row-major in keyword order, one
    cell at a time — never the whole grid, so the campaign layer's
    shard feed filters a multi-million-cell grid down to one host's
    share without materialising the rest.  Indices count the *full*
    grid, so a filtered stream still carries every cell's global
    identity.  Each cell keeps its canonical coordinate text as its
    ``tag`` and gets :func:`cell_seed` over ``base_seed`` and the same
    coordinates.
    """
    names = list(axes)
    for index, combo in enumerate(itertools.product(*axes.values())):
        params = dict(zip(names, combo))
        yield SweepCell(
            index=index,
            seed=cell_seed(base_seed, **params),
            params=tuple(sorted(params.items())),
            tag=coordinate_text(params),
        )


def consensus_sweep_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Built-in sweep cell: Algorithm 2 to decision in an ECF environment.

    Recognised ``params`` (all optional): ``n`` (process count, default 4),
    ``values`` (|V|, default 16), ``cst`` (default 3), ``detector`` (a
    Figure 1 class name, default ``"0-OAC"``), ``loss_rate`` (default
    0.3), ``record_policy`` (``"full"``/``"summary"``/``"none"``, default
    summary), ``seed`` (overrides the derived per-cell seed), and
    ``sqlite_db`` (a database path: file every round's summary in that
    store's ``round_summaries`` table via a
    :class:`~repro.core.records.SqliteSink` keyed on this cell's seed;
    inside a campaign over that store the rows go back to the campaign
    parent, which commits them with the cell's checkpoint, and called
    on its own the cell writes them in one transaction when it ends).
    The sink opens lazily, so a cell that raises before round 1 leaves
    no spurious rows behind.  Returns a picklable dict with decisions,
    decision rounds, round count, and the consensus report's verdicts.
    """
    from ..algorithms.alg2 import algorithm_2, termination_bound
    from ..core.consensus import evaluate
    from ..core.execution import run_consensus
    from ..core.records import RecordPolicy, SqliteSink
    from ..detectors.classes import get_class
    from .scenarios import ecf_environment

    n = int(params.get("n", 4))
    vc = int(params.get("values", 16))
    cst = int(params.get("cst", 3))
    loss_rate = float(params.get("loss_rate", 0.3))
    detector = get_class(str(params.get("detector", "0-OAC")))
    policy = RecordPolicy(str(params.get("record_policy", "summary")))
    seed = int(params.get("seed", seed))
    sqlite_db = params.get("sqlite_db")

    values = list(range(vc))
    env = ecf_environment(n, detector, cst=cst, loss_rate=loss_rate, seed=seed)
    assignment = {i: values[(i * 7 + seed) % vc] for i in env.indices}
    bound = termination_bound(cst, vc)
    sink = SqliteSink(str(sqlite_db), cell_seed=seed) if sqlite_db else None
    try:
        result = run_consensus(
            env, algorithm_2(values), assignment,
            max_rounds=bound + 20, record_policy=policy,
            observer=sink,
        )
    finally:
        if sink is not None:
            sink.close()
    report = evaluate(result, by_round=bound)
    return {
        "decisions": dict(result.decisions),
        "decision_rounds": dict(result.decision_rounds),
        "rounds": result.rounds,
        "solved": report.solved,
        "agreement": report.agreement,
        "decision_round": result.last_decision_round(),
    }
