"""The evaluation harness: every paper artifact as a runnable experiment.

``REGISTRY`` indexes experiments E1-E19 (see DESIGN.md for the mapping to
the paper's figures and theorems); each benchmark in ``benchmarks/``
regenerates one entry, and :func:`render_all` reproduces the whole
evaluation as ASCII tables.  E17/E18 are engineering artifacts: the
parallel sweep and the resumable sqlite-checkpointed campaign layer
(``python -m repro campaign``), the one grid runner every sweep goes
through; E19 is the churn campaign — consensus under dynamic membership
(``python -m repro campaign --family e19``).  Each campaign family is
one :class:`CampaignFamily` record (:data:`E18`, :data:`E19`), run by
:func:`run_family`.
"""

from .ablation import run_completeness_ablation
from .applications import run_applications
from .campaign import (
    CampaignFamily,
    CampaignOutcome,
    CampaignRunner,
    cell_tag,
    merge_campaign_stores,
    run_family,
    run_grid,
    shard_cells,
    shard_of,
)
from .churn import E19, churn_sweep_cell
from .conjecture import run_conjecture_exploration
from .counting import run_counting_experiment
from .dispatch import (
    CampaignDispatcher,
    CellResult,
    WorkerPoolError,
    execute_cell_job,
)
from .eventual_completeness import run_eventual_completeness
from .detector_quality import (
    run_clock_calibration,
    run_detector_calibration,
    run_detector_quality,
    run_loss_calibration,
)
from .harness import (
    Experiment,
    ExperimentRegistry,
    SweepCell,
    Table,
    cell_seed,
    consensus_sweep_cell,
    iter_cells,
)
from .lower import run_impossibility_witnesses, run_round_complexity_witnesses
from .matrix import E18, run_matrix
from .multihop import run_multihop_flood
from .registry import REGISTRY, render_all, run_experiment
from .resilience import run_resilience
from .sweep import run_parallel_sweep
from .scenarios import (
    ecf_environment,
    maj_oac_environment,
    nocf_environment,
    zero_oac_environment,
)
from .verify import format_findings, verify_campaign_store
from .termination import (
    run_alg1_termination,
    run_alg2_value_sweep,
    run_alg3_nocf,
    run_nonanon_crossover,
)

__all__ = [
    "Table", "Experiment", "ExperimentRegistry",
    "SweepCell", "iter_cells", "cell_seed", "consensus_sweep_cell",
    "CampaignRunner", "CampaignOutcome", "cell_tag",
    "run_grid", "CampaignFamily", "run_family", "E18", "E19",
    "shard_of", "shard_cells", "merge_campaign_stores",
    "verify_campaign_store", "format_findings",
    "CampaignDispatcher", "CellResult", "execute_cell_job",
    "WorkerPoolError",
    "run_parallel_sweep", "churn_sweep_cell",
    "REGISTRY", "render_all", "run_experiment",
    "ecf_environment", "maj_oac_environment", "zero_oac_environment",
    "nocf_environment",
    "run_matrix",
    "run_alg1_termination", "run_alg2_value_sweep",
    "run_nonanon_crossover", "run_alg3_nocf",
    "run_impossibility_witnesses", "run_round_complexity_witnesses",
    "run_completeness_ablation",
    "run_counting_experiment",
    "run_applications",
    "run_conjecture_exploration",
    "run_multihop_flood",
    "run_eventual_completeness",
    "run_loss_calibration", "run_detector_calibration",
    "run_clock_calibration", "run_detector_quality",
    "run_resilience",
]
