"""The paper's consensus algorithms (Section 7) and baselines.

* :mod:`repro.algorithms.alg1` — Algorithm 1 (maj-OAC + WS + ECF, O(1)).
* :mod:`repro.algorithms.alg2` — Algorithm 2 (0-OAC + WS + ECF, Θ(lg|V|)).
* :mod:`repro.algorithms.alg3` — Algorithm 3 (0-AC, NoCM, NOCF, O(lg|V|)).
* :mod:`repro.algorithms.nonanonymous` — the Section 7.3 composite
  (Θ(min{lg|V|, lg|I|})).
* :mod:`repro.algorithms.baselines` — naive algorithms defeated by the
  Section 8 lower-bound constructions.
* Supporting structure: binary encodings, the Algorithm 3 value tree, and
  message markers.

The package imports no submodule up front: each public name resolves on
first access, importing only the submodule that defines it (PEP 562),
so a campaign whose cells run Algorithm 2 never loads the others.
"""

from .._lazy import lazy_exports

#: Public name -> the submodule that defines it.
_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("alg1", ("algorithm_1", "Alg1Process", "alg1_termination_bound")),
        ("alg2", ("algorithm_2", "Alg2Process", "alg2_termination_bound",
                  "cycle_length")),
        ("alg3", ("algorithm_3", "Alg3Process", "alg3_termination_bound")),
        ("nonanonymous", ("non_anonymous_algorithm", "LeaderElectProcess",
                          "nonanon_termination_bound")),
        ("baselines", ("eager_decider", "naive_min_consensus",
                       "EagerDecider", "NaiveMinConsensus")),
        ("counting", ("counting_algorithm", "CountingProcess", "ANNOUNCE")),
        ("encoding", ("BinaryEncoding", "bit_width", "canonical_order")),
        ("valuetree", ("ValueTree", "TreeNode")),
        ("markers", ("Marker", "VETO", "VOTE")),
    )
    for name in names
}

#: Public names that differ from the name their submodule gives them.
_ALIASES = {
    "alg1_termination_bound": "termination_bound",
    "alg2_termination_bound": "termination_bound",
    "alg3_termination_bound": "termination_bound",
    "nonanon_termination_bound": "termination_bound",
}

__all__ = list(_SUBMODULE_OF)

__getattr__, __dir__ = lazy_exports(__name__, _SUBMODULE_OF, _ALIASES)

