"""E1: the Figure 1 / Section 1.5 solvability-and-complexity matrix.

One row per (detector class, channel regime) combination the paper
analyses, reporting:

* the paper's verdict (solvable + bound, or impossible),
* what our implementation *measured*: either the matching algorithm's
  decision round relative to CST, or the witness constructor's verdict
  that no decision happened / a hypothetical fast decider would violate
  agreement.

E18 (the :data:`E18` campaign family) is the matrix *at scale*: the
upper bound rows re-run as a full (n × detector × loss_rate × seed)
grid through the checkpointing :class:`~repro.experiments.campaign.
CampaignRunner`, so the sweep survives interruption and resumes from
its sqlite store (:func:`~repro.experiments.campaign.run_family`).
"""

from __future__ import annotations

import math
from typing import List

from ..algorithms.alg1 import algorithm_1
from ..algorithms.alg1 import termination_bound as alg1_bound
from ..algorithms.alg2 import algorithm_2
from ..algorithms.alg2 import termination_bound as alg2_bound
from ..algorithms.alg3 import algorithm_3
from ..algorithms.alg3 import termination_bound as alg3_bound
from ..algorithms.baselines import naive_min_consensus
from ..core.consensus import evaluate
from ..core.execution import run_consensus
from ..core.records import RecordPolicy
from ..detectors.classes import HALF_AC, MAJ_OAC, ZERO_OAC
from ..lowerbounds.theorems import (
    theorem4_witness,
    theorem5_witness,
    theorem6_witness,
    theorem8_witness,
    theorem9_witness,
)
from .campaign import CampaignFamily, group_mean
from .harness import Table, consensus_sweep_cell
from .scenarios import ecf_environment, nocf_environment

_N = 4
_CST = 3
_VALUES = list(range(64))


def _measure_upper(algorithm_factory, detector_class, bound: int) -> str:
    env = ecf_environment(_N, detector_class, cst=_CST, seed=1)
    assignment = {i: _VALUES[(i * 5) % len(_VALUES)] for i in range(_N)}
    # Upper-bound rows only consult decisions and decision rounds, so the
    # streaming record policy suffices (identical outcomes, less memory).
    result = run_consensus(
        env, algorithm_factory(), assignment, max_rounds=bound + 20,
        record_policy=RecordPolicy.SUMMARY,
    )
    report = evaluate(result, by_round=bound)
    decided = result.last_decision_round()
    status = "ok" if report.solved else "FAILED"
    return f"decided CST+{decided - _CST} (bound CST+{bound - _CST}) {status}"


def run_matrix() -> List[Table]:
    """Build the solvability/complexity matrix (Figure 1 + Section 1.5)."""
    lgv = math.ceil(math.log2(len(_VALUES)))
    table = Table(
        title="E1  Solvability and round complexity per detector class",
        columns=["class", "cm", "channel", "paper", "measured"],
        note=f"|V|={len(_VALUES)} (lg|V|={lgv}), n={_N}, CST={_CST}",
    )

    # --- maj-OAC + WS + ECF: O(1) via Algorithm 1 (Theorem 1). ---------
    table.add(
        **{
            "class": "maj-OAC",
            "cm": "WS",
            "channel": "ECF",
            "paper": "solvable, CST + 2 (Thm 1)",
            "measured": _measure_upper(
                algorithm_1, MAJ_OAC, alg1_bound(_CST)
            ),
        }
    )

    # --- 0-OAC + WS + ECF: Θ(lg|V|) via Algorithm 2 (Theorem 2). -------
    table.add(
        **{
            "class": "0-OAC",
            "cm": "WS",
            "channel": "ECF",
            "paper": "solvable, CST + 2(⌈lg|V|⌉+1) (Thm 2)",
            "measured": _measure_upper(
                lambda: algorithm_2(_VALUES),
                ZERO_OAC,
                alg2_bound(_CST, len(_VALUES)),
            ),
        }
    )

    # --- half-AC + LS + ECF: Ω(lg|V|) lower bound (Theorem 6). ---------
    witness = theorem6_witness(algorithm_2(_VALUES), _VALUES, n=2)
    table.add(
        **{
            "class": "half-AC",
            "cm": "LS",
            "channel": "ECF",
            "paper": "no o(lg|V|)-round algorithm (Thm 6)",
            "measured": (
                f"Alg2 undecided at k={witness.k} after CST "
                f"(bound respected); half-AC compositions legal: "
                f"{witness.indistinguishability_ok}"
            ),
        }
    )
    fast = theorem6_witness(naive_min_consensus(1), _VALUES, n=2)
    table.add(
        **{
            "class": "half-AC",
            "cm": "LS",
            "channel": "ECF",
            "paper": "fast deciders violate agreement (Thm 6 proof)",
            "measured": (
                f"naive baseline: {fast.violation or 'no violation'} "
                f"at k={fast.k}"
            ),
        }
    )

    # --- NoCD + LS + ECF: impossible (Theorem 4). ----------------------
    w4 = theorem4_witness(algorithm_1(), "a", "b", n=3, horizon=40)
    w4_naive = theorem4_witness(naive_min_consensus(2), "a", "b", n=3)
    table.add(
        **{
            "class": "NoCD",
            "cm": "LS",
            "channel": "ECF",
            "paper": "impossible (Thm 4)",
            "measured": (
                f"Alg1 never decides; naive decider -> "
                f"{w4_naive.violation}"
                if not w4.decided
                else "UNEXPECTED: Alg1 decided under NoCD"
            ),
        }
    )

    # --- NoACC + LS + ECF: impossible (Theorem 5). ---------------------
    w5 = theorem5_witness(naive_min_consensus(2), "a", "b", n=3)
    table.add(
        **{
            "class": "NoACC",
            "cm": "LS",
            "channel": "ECF",
            "paper": "impossible (Thm 5, via Lemma 1)",
            "measured": f"naive decider -> {w5.violation}",
        }
    )

    # --- OAC + LS + NoCF: impossible (Theorem 8). ----------------------
    w8 = theorem8_witness(algorithm_1(), "a", "b", n=3, horizon=60)
    w8_naive = theorem8_witness(naive_min_consensus(2), "a", "b", n=3)
    table.add(
        **{
            "class": "OAC",
            "cm": "LS",
            "channel": "NoCF",
            "paper": "impossible (Thm 8)",
            "measured": (
                f"Alg1 never decides; naive decider -> "
                f"{w8_naive.violation}"
                if not w8.decided
                else "UNEXPECTED: Alg1 decided"
            ),
        }
    )

    # --- 0-AC + NoCM + NoCF: Θ(lg|V|) via Algorithm 3 (Thms 3, 9). -----
    env = nocf_environment(_N)
    assignment = {i: _VALUES[(i * 5) % len(_VALUES)] for i in range(_N)}
    bound = alg3_bound(len(_VALUES))
    result = run_consensus(
        env, algorithm_3(_VALUES), assignment, max_rounds=bound + 8,
        record_policy=RecordPolicy.SUMMARY,
    )
    report = evaluate(result, by_round=bound)
    w9 = theorem9_witness(algorithm_3(_VALUES), _VALUES, n=2)
    table.add(
        **{
            "class": "0-AC",
            "cm": "NoCM",
            "channel": "NoCF",
            "paper": "solvable, ≤8⌈lg|V|⌉ after failures; Ω(lg|V|) (Thms 3, 9)",
            "measured": (
                f"Alg3 decided r{result.last_decision_round()} "
                f"(bound {bound}) {'ok' if report.solved else 'FAILED'}; "
                f"undecided at lower-bound k={w9.k}"
            ),
        }
    )
    return [table]


# ----------------------------------------------------------------------
# E18: the matrix at campaign scale
# ----------------------------------------------------------------------
def _summarise(group, done):
    solved = sum(1 for o in done if o.payload["solved"])
    return {
        "timed_out": sum(1 for o in group if o.status == "timed_out"),
        "failed": sum(1 for o in group if o.status == "failed"),
        "solved": f"{solved}/{len(done)}",
        "mean_rounds": group_mean([o.payload["rounds"] for o in done]),
        "mean_decision_round": group_mean([
            o.payload["decision_round"] for o in done
            if o.payload["decision_round"] is not None
        ]),
    }


#: E18: the E1 upper-bound matrix at scale.  Each cell runs Algorithm 2
#: to decision (:func:`~repro.experiments.harness.consensus_sweep_cell`);
#: a row aggregates one (n, detector, loss_rate) over its seeds.
E18 = CampaignFamily(
    name="e18",
    cell_fn=consensus_sweep_cell,
    axes=dict(
        n=(4, 8), detector=("0-OAC", "maj-OAC"), loss_rate=(0.1, 0.3),
        trial=3, values=16,
    ),
    quick=dict(n=(3, 4), detector=("0-OAC",), trial=2),
    title="E18  Campaign matrix: (n x detector x loss_rate x seed)",
    columns=("timed_out", "failed", "solved", "mean_rounds",
             "mean_decision_round"),
    summarise=_summarise,
)
