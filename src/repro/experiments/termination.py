"""Termination experiments E2-E5: measured rounds vs the paper's bounds.

Each experiment runs an algorithm under its theorem's hypotheses and
reports *rounds after CST* against the closed-form bound:

* E2 (Theorem 1)  — Algorithm 1 terminates by ``CST + 2``, for every n,
  CST position, and crash schedule tried;
* E3 (Theorem 2)  — Algorithm 2 terminates by ``CST + 2(⌈lg|V|⌉ + 1)``;
  the sweep over ``|V|`` reproduces the logarithmic growth curve, one
  campaign cell per ``|V|`` (:func:`~repro.experiments.campaign.run_grid`);
* E4 (Cor. 3 / §7.3) — the non-anonymous variant's cost tracks
  ``min{lg|V|, lg|I|}``; sweeping ``|I|`` with ``|V|`` fixed shows the
  crossover;
* E5 (Theorem 3)  — Algorithm 3 under total silence terminates within
  ``8·⌈lg|V|⌉`` rounds of failures ceasing, including the crash-induced
  re-ascent worst case.
"""

from __future__ import annotations

import math
from typing import List

from ..adversary.crash import ScheduledCrashes
from ..algorithms.alg1 import algorithm_1
from ..algorithms.alg1 import termination_bound as alg1_bound
from ..algorithms.alg2 import algorithm_2
from ..algorithms.alg2 import termination_bound as alg2_bound
from ..algorithms.alg3 import algorithm_3
from ..algorithms.alg3 import termination_bound as alg3_bound
from ..algorithms.nonanonymous import non_anonymous_algorithm
from ..algorithms.nonanonymous import termination_bound as nonanon_bound
from ..core.consensus import evaluate
from ..core.execution import run_consensus
from ..core.records import RecordPolicy
from .campaign import run_grid
from .harness import Table
from .scenarios import maj_oac_environment, nocf_environment, zero_oac_environment


def run_alg1_termination(
    ns=(2, 4, 8, 16),
    csts=(1, 8),
    seeds=(0, 1, 2),
) -> List[Table]:
    """E2: Algorithm 1 decides exactly ``CST + 2`` (or earlier)."""
    table = Table(
        title="E2  Algorithm 1 termination (Theorem 1: by CST + 2)",
        columns=[
            "n", "cst", "seed", "decided_round", "bound", "within_bound",
            "agreement",
        ],
    )
    values = list(range(8))
    for n in ns:
        for cst in csts:
            for seed in seeds:
                env = maj_oac_environment(n, cst=cst, seed=seed)
                assignment = {i: values[i % len(values)] for i in range(n)}
                result = run_consensus(
                    env, algorithm_1(), assignment,
                    max_rounds=alg1_bound(cst) + 10,
                )
                report = evaluate(result, by_round=alg1_bound(cst))
                table.add(
                    n=n, cst=cst, seed=seed,
                    decided_round=result.last_decision_round(),
                    bound=alg1_bound(cst),
                    within_bound=report.termination,
                    agreement=report.agreement,
                )
    return [table]


def _alg2_sweep_cell(params, derived_seed):
    """E3 sweep cell (module-level so it pickles to pool workers).

    Reproduces exactly the original serial computation for one ``|V|``:
    the cell's own ``seed`` coordinate overrides the derived per-cell
    seed, so the table is identical however the cells are distributed.
    """
    vc = params["vc"]
    n = params["n"]
    cst = params["cst"]
    seed = params.get("seed", derived_seed)
    values = list(range(vc))
    env = zero_oac_environment(n, cst=cst, seed=seed)
    assignment = {i: values[(i * 7) % vc] for i in range(n)}
    bound = alg2_bound(cst, vc)
    result = run_consensus(
        env, algorithm_2(values), assignment, max_rounds=bound + 20,
        record_policy=RecordPolicy.SUMMARY,
    )
    report = evaluate(result, by_round=bound)
    decided = result.last_decision_round()
    return {
        "|V|": vc,
        "lg|V|": max(1, math.ceil(math.log2(vc))) if vc > 1 else 1,
        "rounds_after_cst": None if decided is None else decided - cst,
        "bound_after_cst": bound - cst,
        "within_bound": report.termination,
        "solved": report.solved,
    }


def run_alg2_value_sweep(
    value_counts=(2, 4, 16, 64, 256, 1024),
    n: int = 5,
    cst: int = 4,
    seed: int = 0,
    processes=None,
) -> List[Table]:
    """E3: Algorithm 2's rounds-after-CST grow as ``2(⌈lg|V|⌉ + 1)``.

    The per-|V| cells are independent, so they run as one campaign
    pass (:func:`~repro.experiments.campaign.run_grid`) across the
    dispatcher's workers; rows come back in grid order under the
    streaming record policy, and a cell that fails raises.
    """
    table = Table(
        title="E3  Algorithm 2 round complexity vs |V| (Theorem 2)",
        columns=[
            "|V|", "lg|V|", "rounds_after_cst", "bound_after_cst",
            "within_bound", "solved",
        ],
        note="rounds_after_cst = decision round - CST; bound = 2(⌈lg|V|⌉+1)",
    )
    outcomes = run_grid(
        _alg2_sweep_cell, processes=processes,
        vc=value_counts, n=[n], cst=[cst], seed=[seed],
    )
    for outcome in outcomes:
        table.add(**outcome.payload)
    return [table]


def run_nonanon_crossover(
    id_counts=(4, 16, 64, 256),
    value_count: int = 256,
    n: int = 4,
    cst: int = 1,
    seed: int = 0,
) -> List[Table]:
    """E4: the non-anonymous variant tracks ``min{lg|V|, lg|I|}``.

    With ``|V|`` fixed at 256, small ID spaces elect a leader cheaply
    (cost ~ lg|I|) and large ID spaces fall back to Algorithm 2 over
    values (cost ~ lg|V|): the measured curve flattens at the crossover.
    """
    table = Table(
        title="E4  Non-anonymous crossover (Corollary 3 / Section 7.3)",
        columns=[
            "|I|", "|V|", "branch", "min_lg", "rounds_after_cst",
            "bound_after_cst", "within_bound", "solved",
        ],
        note="branch: which machinery §7.3 picks; min_lg = min{lg|V|, lg|I|}",
    )
    values = list(range(value_count))
    for ic in id_counts:
        id_space = list(range(ic))
        branch = "alg2-on-values" if value_count <= ic else "leader-elect"
        env = zero_oac_environment(
            n, cst=cst, seed=seed, indices=id_space[:n]
        )
        assignment = {
            i: values[(i * 31 + 5) % value_count] for i in id_space[:n]
        }
        bound = nonanon_bound(cst, value_count, ic)
        result = run_consensus(
            env,
            non_anonymous_algorithm(values, id_space),
            assignment,
            max_rounds=bound + 40,
        )
        report = evaluate(result, by_round=bound)
        decided = result.last_decision_round()
        table.add(**{
            "|I|": ic,
            "|V|": value_count,
            "branch": branch,
            "min_lg": min(
                math.ceil(math.log2(value_count)),
                math.ceil(math.log2(ic)),
            ),
            "rounds_after_cst": None if decided is None else decided - cst,
            "bound_after_cst": bound - cst,
            "within_bound": report.termination,
            "solved": report.solved,
        })
    return [table]


def run_alg3_nocf(
    value_counts=(2, 8, 32, 128, 512),
    n: int = 4,
) -> List[Table]:
    """E5: Algorithm 3 under total silence, with and without crashes."""
    table = Table(
        title="E5  Algorithm 3 under NOCF (Theorem 3: ≤ 8⌈lg|V|⌉ after failures)",
        columns=[
            "|V|", "crashes", "failures_cease", "decided_round", "bound",
            "within_bound", "solved",
        ],
    )
    for vc in value_counts:
        values = list(range(vc))
        # Failure-free run.
        env = nocf_environment(n)
        assignment = {i: values[(i * 13 + 1) % vc] for i in range(n)}
        bound = alg3_bound(vc, after_round=0)
        result = run_consensus(
            env, algorithm_3(values), assignment, max_rounds=bound + 8
        )
        report = evaluate(result, by_round=bound)
        table.add(**{
            "|V|": vc, "crashes": 0, "failures_cease": 0,
            "decided_round": result.last_decision_round(),
            "bound": bound,
            "within_bound": report.termination,
            "solved": report.solved,
        })
        if vc < 8:
            continue
        # Crash the process with the smallest value mid-descent: the
        # survivors must re-ascend (the paper's O(lg|V|) failure cost).
        crash_round = 6
        env = nocf_environment(
            n, crash=ScheduledCrashes.at({crash_round: [0]})
        )
        assignment = {i: values[-1] for i in range(n)}
        assignment[0] = values[0]  # the crasher drags everyone left first
        bound = alg3_bound(vc, after_round=crash_round)
        result = run_consensus(
            env, algorithm_3(values), assignment, max_rounds=bound + 8
        )
        report = evaluate(result, by_round=bound)
        table.add(**{
            "|V|": vc, "crashes": 1, "failures_cease": crash_round,
            "decided_round": result.last_decision_round(),
            "bound": bound,
            "within_bound": report.termination,
            "solved": report.solved,
        })
    return [table]
