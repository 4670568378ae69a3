"""The benchmark's workloads: real E18/E19 grids, derived from a seed.

The workload seed is the campaign's ``base_seed``; the grid axes are
fixed per workload, so the same seed always gives the same cells.  Why
each workload exists is recorded below, in ``BENCHMARK.json`` and in
``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Tuple

#: Dispatcher width: every workload is a closed loop of 2 workers.
WIDTH = 2

#: The largest grid the identity guard accepts.  The store keys round
#: rows on a 32-bit cell seed, whose first collision in an E18-shaped
#: grid comes at ~143k cells; every workload stays far below that.
MAX_GRID_CELLS = 20_000

#: The seed ``run.py`` uses when none is given.
DEFAULT_SEED = 0

#: sha256 of the report bytes of ``DEFAULT_SEED`` per (workload,
#: backend).  ``run.py`` checks its serial reference against these, so
#: a reference that drifted along with the passes still fails.
PINNED_DIGESTS: Dict[Tuple[str, str], str] = {
    ("e18-small", "numpy"):
        "ab54dc6cad65fb95f5edf2648e426dd00eb6ec01968ca9484d62eedbdb81346f",
    ("e18-small", "pure"):
        "ab54dc6cad65fb95f5edf2648e426dd00eb6ec01968ca9484d62eedbdb81346f",
    ("e19-churn", "numpy"):
        "3374ed014b17ba9c3bdb370ad674257adc8971edddb7cc96a8cdf3dc7fb3064a",
    ("e19-churn", "pure"):
        "d6aaf8c2ae2c68c148bc68a2e7eefdc27ef36e561bcc17f8735e44b1983474e1",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    family: str                 # "e18" or "e19": which cell function
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]

    def grid(self) -> Dict[str, List[Any]]:
        return {name: list(values) for name, values in self.axes}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        # ~1 ms cells: per-round store writes and dispatch dominate and
        # the engine does little.
        Workload("e18-small", "e18", (
            ("n", (4, 8, 16)),
            ("detector", ("0-OAC", "maj-OAC")),
            ("loss_rate", (0.1, 0.2, 0.3)),
            ("trial", tuple(range(12))),
            ("values", (16,)),
            ("record_policy", ("summary",)),
        )),
        # Churn-event rounds leave the array kernel for the scalar path,
        # and the ring topology runs through MultihopLayer.
        Workload("e19-churn", "e19", (
            ("n", (4, 6)),
            ("detector", ("0-OAC", "maj-OAC")),
            ("loss_rate", (0.1, 0.3)),
            ("churn_rate", (0.0, 0.15, 0.3)),
            ("topology", ("clique", "ring")),
            ("trial", tuple(range(4))),
            ("values", (8,)),
            ("record_policy", ("summary",)),
        )),
    )
}


def cell_function(workload: Workload) -> Callable[[Dict[str, Any], int], Any]:
    if workload.family == "e19":
        from repro.experiments.churn import churn_sweep_cell

        return churn_sweep_cell
    from repro.experiments.harness import consensus_sweep_cell

    return consensus_sweep_cell


def make_runner(workload: Workload, db_path: str, seed: int, fn=None,
                in_process: bool = False):
    """A :class:`CampaignRunner` for one pass of ``workload``."""
    from repro.experiments.campaign import CampaignRunner

    return CampaignRunner(
        fn if fn is not None else cell_function(workload),
        db_path=db_path,
        base_seed=seed,
        processes=WIDTH,
        extra_params={"sqlite_db": db_path},
        in_process=in_process,
    )


class GridIdentityError(RuntimeError):
    """Two cells of a workload's grid share a seed or a tag."""


def guard_grid(cells) -> None:
    """Refuse a grid whose cells do not have distinct seeds and tags.

    The store files round rows under ``(cell_seed, round)``, so two
    cells sharing a seed would overwrite each other's rows and skew the
    ``store.*`` counts without any error.
    """
    from repro.experiments.campaign import cell_tag

    if len(cells) > MAX_GRID_CELLS:
        raise GridIdentityError(
            f"grid of {len(cells)} cells exceeds {MAX_GRID_CELLS}"
        )
    seeds = [c.seed for c in cells]
    if len(set(seeds)) != len(seeds):
        dup = sorted({s for s in seeds if seeds.count(s) > 1})
        raise GridIdentityError(f"cells share seeds {dup[:5]}")
    tags = [cell_tag(c) for c in cells]
    if len(set(tags)) != len(tags):
        raise GridIdentityError("cells share tags")


def backend() -> str:
    from repro.core.environment import array_kernel_module

    return "numpy" if array_kernel_module() is not None else "pure"
