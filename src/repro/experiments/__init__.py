"""The evaluation harness: every paper artifact as a runnable experiment.

``REGISTRY`` indexes experiments E1-E19 (each record names the figure or
theorem it reproduces), and :func:`render_all` reproduces the whole
evaluation as ASCII tables (``python -m repro all``).  E17/E18 are
engineering artifacts: the parallel sweep and the resumable
sqlite-checkpointed campaign layer (``python -m repro campaign``), the
one grid runner every sweep goes through; E19 is the churn campaign —
consensus under dynamic membership (``python -m repro campaign --family
e19``).  Each campaign family is one :class:`CampaignFamily` record
(:data:`E18`, :data:`E19`), run by :func:`run_family`.

The package imports no submodule up front: each public name resolves on
first access, importing only the submodule that defines it (PEP 562).
A campaign process that runs E18 cells therefore never loads the other
experiments, E19's churn and multihop stack included.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("harness", ("Table", "Experiment", "ExperimentRegistry",
                     "SweepCell", "iter_cells", "cell_seed",
                     "consensus_sweep_cell")),
        ("campaign", ("CampaignRunner", "CampaignOutcome", "cell_tag",
                      "run_grid", "CampaignFamily", "run_family",
                      "shard_of", "shard_cells", "merge_campaign_stores")),
        ("matrix", ("E18", "run_matrix")),
        ("churn", ("E19", "churn_sweep_cell")),
        ("verify", ("verify_campaign_store", "format_findings")),
        ("dispatch", ("CampaignDispatcher", "CellResult",
                      "execute_cell_job", "WorkerPoolError")),
        ("sweep", ("run_parallel_sweep",)),
        ("registry", ("REGISTRY", "render_all", "run_experiment")),
        ("scenarios", ("ecf_environment", "maj_oac_environment",
                       "zero_oac_environment", "nocf_environment")),
        ("termination", ("run_alg1_termination", "run_alg2_value_sweep",
                         "run_nonanon_crossover", "run_alg3_nocf")),
        ("lower", ("run_impossibility_witnesses",
                   "run_round_complexity_witnesses")),
        ("ablation", ("run_completeness_ablation",)),
        ("counting", ("run_counting_experiment",)),
        ("applications", ("run_applications",)),
        ("conjecture", ("run_conjecture_exploration",)),
        ("multihop", ("run_multihop_flood",)),
        ("eventual_completeness", ("run_eventual_completeness",)),
        ("detector_quality", ("run_loss_calibration",
                              "run_detector_calibration",
                              "run_clock_calibration",
                              "run_detector_quality")),
        ("resilience", ("run_resilience",)),
    )
    for name in names
}

__all__ = list(_SUBMODULE_OF)

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULE_OF)
