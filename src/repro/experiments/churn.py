"""E19: consensus under dynamic membership (churn x loss x topology).

The paper's model fixes ``P`` for the whole execution; the churn engine
(:mod:`repro.adversary.churn` plus the execution engine's dynamic live
set) relaxes that.  E19 measures what the relaxation costs: agreement
quality — decision rate over the finally-present membership, system-level
agreement violations (ghost decisions included), and termination round —
as a function of churn rate x loss rate x detector class x topology.

Topologies:

* ``clique``  — the paper's own single-hop setting
  (:func:`~repro.experiments.scenarios.ecf_environment` with a churn
  adversary installed);
* ``ring``    — a Chord-style successor/finger overlay
  (:meth:`~repro.substrate.multihop.MultihopNetwork.ring`) behind a
  :class:`~repro.substrate.multihop.MultihopLayer`, the natural home of
  churn in the dynamic-network literature.  The layer asks the same
  class member the clique runs
  (:func:`~repro.experiments.scenarios.ecf_detector`) per
  neighbourhood.

The sweep is the :data:`E19` campaign family: it runs through
:class:`~repro.experiments.campaign.CampaignRunner` under the
``SUMMARY`` record policy, so E19 campaigns checkpoint, resume, shard
and report byte-identically like E18's — with ``churn_rate`` and
``topology`` folded into every cell's canonical coordinate tag and
derived seed.
"""

from __future__ import annotations

from typing import Any, Dict

# churn_sweep_cell's whole stack loads with this module (the churn
# adversaries and substrate.multihop), so forked pool workers inherit
# it; see the note in harness.py.
from ..adversary.churn import NoChurn, SeededChurn
from ..adversary.loss import IIDLoss
from ..algorithms.alg2 import algorithm_2, termination_bound
from ..contention.services import WakeUpService
from ..core import execution
from ..core.environment import Environment
from ..core.errors import ConfigurationError
from ..core.records import RecordPolicy, SqliteSink
from ..detectors.classes import get_class
from ..substrate.multihop import MultihopLayer, MultihopNetwork
from . import scenarios
from .campaign import CampaignFamily, group_mean


def churn_sweep_cell(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One E19 cell: Algorithm 2 to decision under membership churn.

    Recognised ``params`` (all optional): ``n`` (default 4), ``values``
    (|V|, default 8), ``cst`` (default 2), ``detector`` (a Figure 1
    class name, default ``"0-OAC"``), ``loss_rate`` (default 0.1),
    ``churn_rate`` (per-round leave probability for
    :class:`~repro.adversary.churn.SeededChurn`; 0.0 = static
    membership, default 0.2), ``churn_deadline`` (last churn-active
    round, default ``cst + 6``), ``topology`` (``"clique"`` or
    ``"ring"``, default clique), ``successors`` (ring successor-list
    width, default 1), ``record_policy``, ``seed`` (overrides the
    derived per-cell seed), and ``sqlite_db`` (file per-round
    summaries in that store, exactly like
    :func:`~repro.experiments.harness.consensus_sweep_cell`: inside a
    campaign over it the parent commits them with the cell's
    checkpoint, on its own the cell writes them when it ends).

    The payload reports agreement quality over the *final* membership:
    ``decision_rate`` counts decided processes among
    :meth:`~repro.core.records.ExecutionResult.present_indices` (never
    the departed), while ``agreement`` checks
    :meth:`~repro.core.records.ExecutionResult.all_decided_values` —
    ghost decisions of churned-out processes included, so a rejoiner
    that re-decides differently is a violation even though only one
    incarnation is still present.
    """
    n = int(params.get("n", 4))
    vc = int(params.get("values", 8))
    cst = int(params.get("cst", 2))
    loss_rate = float(params.get("loss_rate", 0.1))
    churn_rate = float(params.get("churn_rate", 0.2))
    deadline = int(params.get("churn_deadline", cst + 6))
    topology = str(params.get("topology", "clique"))
    successors = int(params.get("successors", 1))
    detector_class = get_class(str(params.get("detector", "0-OAC")))
    policy = RecordPolicy(str(params.get("record_policy", "summary")))
    seed = int(params.get("seed", seed))
    sqlite_db = params.get("sqlite_db")

    if topology not in ("clique", "ring"):
        raise ConfigurationError(
            f"topology must be 'clique' or 'ring', got {topology!r}"
        )
    # The churn RNG stream is offset from the loss adversary's so the
    # two draw independent (but still seed-determined) coin sequences.
    if churn_rate > 0.0:
        churn = SeededChurn(
            leave_rate=churn_rate, join_rate=0.5, seed=seed + 101,
            deadline=deadline, min_live=2,
        )
    else:
        churn = NoChurn()

    if topology == "clique":
        env = scenarios.ecf_environment(
            n, detector_class, cst=cst, loss_rate=loss_rate, seed=seed,
            churn=churn,
        )
    else:
        layer = MultihopLayer(
            MultihopNetwork.ring(n, successors=successors, fingers=True),
            inner=IIDLoss(loss_rate, seed=seed),
            detector=scenarios.ecf_detector(detector_class, cst),
        )
        # One object, both roles: the detector needs the loss path's
        # per-round sender sets to compute neighbourhood counts.
        env = Environment(
            indices=tuple(range(n)),
            detector=layer,
            contention=WakeUpService(stabilization_round=cst),
            loss=layer,
            churn=churn,
        )

    values = list(range(vc))
    assignment = {i: values[(i * 7 + seed) % vc] for i in env.indices}
    # Churn erases progress until its deadline; the effective
    # stabilization point is whichever comes later.
    bound = termination_bound(max(cst, deadline), vc)
    sink = SqliteSink(str(sqlite_db), cell_seed=seed) if sqlite_db else None
    try:
        result = execution.run_consensus(
            env, algorithm_2(values), assignment,
            max_rounds=bound + 20, record_policy=policy,
            observer=sink,
        )
    finally:
        if sink is not None:
            sink.close()

    present = result.present_indices()
    # ``decisions`` maps *every* pid (None while undecided), so test the
    # value, not membership.
    decided_present = [
        p for p in present if result.decisions.get(p) is not None
    ]
    distinct = len(set(result.all_decided_values()))
    return {
        "present": len(present),
        "decided": len(decided_present),
        "decision_rate": (
            len(decided_present) / len(present) if present else None
        ),
        "agreement": distinct <= 1,
        "distinct_values": distinct,
        "termination_round": result.last_present_decision_round(),
        "rounds": result.rounds,
        "churned": result.churned,
        "rejoins": sum(result.rejoin_counts.values()),
        "ghost_decisions": len(result.departed_decisions),
    }


# ----------------------------------------------------------------------
# E19 at campaign scale
# ----------------------------------------------------------------------
def _summarise(group, done):
    agree = sum(1 for o in done if o.payload["agreement"])
    return {
        "decision_rate": group_mean([
            o.payload["decision_rate"] for o in done
            if o.payload["decision_rate"] is not None
        ]),
        "agreement": f"{agree}/{len(done)}",
        "mean_term_round": group_mean([
            o.payload["termination_round"] for o in done
            if o.payload["termination_round"] is not None
        ]),
        "mean_rejoins": group_mean([o.payload["rejoins"] for o in done]),
    }


#: E19: agreement quality vs churn rate.  Each cell is a
#: :func:`churn_sweep_cell`; a row aggregates one (n, detector,
#: loss_rate, churn_rate, topology) over its seed replicates.
E19 = CampaignFamily(
    name="e19",
    cell_fn=churn_sweep_cell,
    axes=dict(
        n=(4, 6), detector=("0-OAC", "maj-OAC"), loss_rate=(0.1, 0.3),
        churn_rate=(0.0, 0.15, 0.3), topology=("clique", "ring"),
        trial=2, values=8,
    ),
    quick=dict(
        n=(4,), detector=("0-OAC",), loss_rate=(0.1,),
        churn_rate=(0.0, 0.25),
    ),
    title=("E19  Churn campaign: agreement quality vs "
           "(churn_rate x loss_rate x detector x topology)"),
    columns=("decision_rate", "agreement", "mean_term_round",
             "mean_rejoins"),
    summarise=_summarise,
)
