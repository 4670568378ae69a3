"""The experiment index: id -> (paper artifact, runner).

Each entry names the figure, theorem or section it reproduces;
``render_all`` reproduces the whole evaluation in one call (``python -m
repro all``).  Importing this module imports every experiment.
"""

from __future__ import annotations

import functools
from typing import List

from .ablation import run_completeness_ablation
from .applications import run_applications
from .campaign import run_family
from .churn import E19
from .conjecture import run_conjecture_exploration
from .counting import run_counting_experiment
from .eventual_completeness import run_eventual_completeness
from .detector_quality import (
    run_clock_calibration,
    run_detector_calibration,
    run_loss_calibration,
)
from .harness import Experiment, ExperimentRegistry, Table
from .lower import run_impossibility_witnesses, run_round_complexity_witnesses
from .matrix import E18, run_matrix
from .multihop import run_multihop_flood
from .resilience import run_resilience
from .sweep import run_parallel_sweep
from .termination import (
    run_alg1_termination,
    run_alg2_value_sweep,
    run_alg3_nocf,
    run_nonanon_crossover,
)

REGISTRY = ExperimentRegistry()

REGISTRY.register(Experiment(
    exp_id="E1",
    title="Solvability and round-complexity matrix",
    paper_ref="Figure 1 + Section 1.5 result summary",
    run=run_matrix,
))
REGISTRY.register(Experiment(
    exp_id="E2",
    title="Algorithm 1 terminates by CST + 2",
    paper_ref="Theorem 1 (Section 7.1)",
    run=run_alg1_termination,
))
REGISTRY.register(Experiment(
    exp_id="E3",
    title="Algorithm 2 round complexity vs |V|",
    paper_ref="Theorem 2 (Section 7.2)",
    run=run_alg2_value_sweep,
))
REGISTRY.register(Experiment(
    exp_id="E4",
    title="Non-anonymous min{lg|V|, lg|I|} crossover",
    paper_ref="Section 7.3 + Corollary 3",
    run=run_nonanon_crossover,
))
REGISTRY.register(Experiment(
    exp_id="E5",
    title="Algorithm 3 under NOCF, with crash re-ascent",
    paper_ref="Theorem 3 (Section 7.4)",
    run=run_alg3_nocf,
))
REGISTRY.register(Experiment(
    exp_id="E6",
    title="Impossibility witnesses",
    paper_ref="Theorems 4, 5, 8 (Sections 8.1, 8.2, 8.4)",
    run=run_impossibility_witnesses,
))
REGISTRY.register(Experiment(
    exp_id="E7",
    title="Round-complexity lower-bound witnesses",
    paper_ref="Theorems 6, 7, 9 (Sections 8.3, 8.5)",
    run=run_round_complexity_witnesses,
))
REGISTRY.register(Experiment(
    exp_id="E8",
    title="Ablation: maj-complete vs half-complete",
    paper_ref="Theorem 1 vs Theorem 6 (Section 8.3 discussion)",
    run=run_completeness_ablation,
))
REGISTRY.register(Experiment(
    exp_id="E9a",
    title="Radio loss calibration",
    paper_ref="Section 1.1 empirical loss band (20-50%)",
    run=run_loss_calibration,
))
REGISTRY.register(Experiment(
    exp_id="E9b",
    title="Carrier-sense detector class achievement",
    paper_ref="Section 1.3 (0-complete ~100%, maj-complete >90%)",
    run=run_detector_calibration,
))
REGISTRY.register(Experiment(
    exp_id="E9c",
    title="Clock skew under reference-broadcast sync",
    paper_ref="Section 1.3 synchronized rounds / RBS [25]",
    run=run_clock_calibration,
))
REGISTRY.register(Experiment(
    exp_id="E12",
    title="Anonymous counting: k-wake-up vs leader election",
    paper_ref="Section 4.1 (contention-manager separation)",
    run=run_counting_experiment,
))
REGISTRY.register(Experiment(
    exp_id="E13",
    title="Time-varying completeness (open questions)",
    paper_ref="Section 9 conclusion / Section 5.2 remark",
    run=run_eventual_completeness,
))
REGISTRY.register(Experiment(
    exp_id="E14",
    title="Section 1.4 applications: aggregation and cluster voting",
    paper_ref="Section 1.4 motivation (aggregation trees, Kumar [44])",
    run=run_applications,
))
REGISTRY.register(Experiment(
    exp_id="E15",
    title="Conjecture 1: overlapping pigeonhole universes",
    paper_ref="Section 8.3.4, Conjecture 1",
    run=run_conjecture_exploration,
))
REGISTRY.register(Experiment(
    exp_id="E16",
    title="Multihop flooding preview (future work)",
    paper_ref="Section 9 conclusion; Section 1.2 total-collision critique",
    run=run_multihop_flood,
))
REGISTRY.register(Experiment(
    exp_id="E10",
    title="Safety under randomized hostile schedules",
    paper_ref="Section 1.3 safety/liveness separation",
    run=run_resilience,
))
REGISTRY.register(Experiment(
    exp_id="E17",
    title="Parallel sweep under streaming record policies",
    paper_ref="engineering artifact (ROADMAP scaling north star)",
    run=run_parallel_sweep,
))
REGISTRY.register(Experiment(
    exp_id="E18",
    title="Campaign matrix at scale (resumable, sqlite-checkpointed)",
    paper_ref="Figure 1 upper bounds at scale (ROADMAP campaign layer)",
    run=functools.partial(run_family, E18),
))
REGISTRY.register(Experiment(
    exp_id="E19",
    title="Churn campaign: consensus under dynamic membership",
    paper_ref="Section 9 conclusion (dynamic extension; Augustine et al.)",
    run=functools.partial(run_family, E19),
))


def render_all() -> str:
    """Run every experiment and render the full evaluation."""
    return "\n\n\n".join(exp.render() for exp in REGISTRY.all())


def run_experiment(exp_id: str) -> List[Table]:
    """Run one experiment by id."""
    return REGISTRY.get(exp_id).run()
