"""Tests for the experiment harness and every registered experiment.

Each experiment must (a) run, (b) produce the table schema its module
promises, (c) satisfy the headline invariant it exists to check —
"within bound" columns all true, violation columns as expected, and the
calibration numbers inside the paper's bands — and (d) render exactly
the bytes pinned below for the active random stream family, so any
change to any experiment's output fails here until its pin moves.

Every experiment runs once per session (:func:`tables`); the invariant
tests and the digest pins share that run.  E15 takes 10-15 s of it and
runs at full size.
"""

import dataclasses
import functools
import hashlib

import pytest

from repro.adversary.loss import rng_backend
from repro.experiments.harness import Experiment, ExperimentRegistry, Table
from repro.experiments.registry import REGISTRY

#: SHA-256 of each experiment's ``Experiment.render()`` text per random
#: stream family (:func:`~repro.adversary.loss.rng_backend`): one digest
#: per experiment per backend.  A change that means to move an output
#: updates its pin and names the experiment and the reason in
#: CHANGES.md.
_NUMPY_SHA256 = {
    "E1": "c166b006c60adda808428de64e7afaab10efd904646fadac72535ced0053df6e",
    "E10": "7b420d2f26a9633f9117759ef2cf8c183ce982724954397d5861bb5b9979356f",
    "E12": "25bb8ffe83f716086f9514215c1494ad15e621e75123966d853283a40c89df22",
    "E13": "3629a7218a8bb3c649af7057efdae48619324ef2184f06ccfdeb1c8dc34b31be",
    "E14": "ebc56a555d1bf93d0535493b8f184e476c1c3ade65e3fa4f15e7b67308ece774",
    "E15": "a762cbf5c7b8f174a02b1062e61ebbdb9f2269a7a75e6c4241811776ff720949",
    "E16": "e3b3f700b747a8e6bf4bac2b98ea569a2a3140dd9e802ca64bc6ceb13e51e4ba",
    "E17": "061c923dba81f0fd188e58f597ef3563a83d4eaf8b70909021a73a34ce569481",
    "E18": "0c85d47159a4a49fae180040167ec08534b1afb3025b29ba81362126ce752c05",
    "E19": "d9de0f0ac8ea6df8e09fa32edf91d2a4081f47ca8588ccacc773ee5f5949bb19",
    "E2": "35af48207583acc7928ef386f323fba1764825d82178a56ff68de472e231bac6",
    "E3": "368831b6d2a939883a64ed14c402515542e3ec9fd6dd0d3893864a5a47dba88f",
    "E4": "fe8ee961c3dc28fe0537ac39c6b5a11cbfffd14e0b478efea3001237e84581a9",
    "E5": "9b2cc26d254b57a329588e478e0fd50567721f711162e7a8ad27e5d9c19df860",
    "E6": "5886da8c31d42becdbd64db38c0fae806859fa18e07d01d1a8630983d11193ce",
    "E7": "68a08efe73a5d8770cc053b5053536f69df9cfddff5acb7166eb8183e1e72753",
    "E8": "3b49f7b4a6c60513922ec027e32ff6dfcca64be30241cde5f3c42763774f72c5",
    "E9a": "e3b3cde4cfc9fbac2792399024a6f9c87f0c60dfd2608c5003806772e6e7b34c",
    "E9b": "b2b16aa282115460754fe5352fb8c6cd82599832d25b85043aae90ec8ed05cc1",
    "E9c": "aab6b0ead86da1614ec284595623c2ac50ffaa1dc16f383aaf138be78456f087",
}
_PURE_SHA256 = {
    "E1": "c166b006c60adda808428de64e7afaab10efd904646fadac72535ced0053df6e",
    "E10": "7b420d2f26a9633f9117759ef2cf8c183ce982724954397d5861bb5b9979356f",
    "E12": "25bb8ffe83f716086f9514215c1494ad15e621e75123966d853283a40c89df22",
    "E13": "3629a7218a8bb3c649af7057efdae48619324ef2184f06ccfdeb1c8dc34b31be",
    "E14": "ebc56a555d1bf93d0535493b8f184e476c1c3ade65e3fa4f15e7b67308ece774",
    "E15": "a762cbf5c7b8f174a02b1062e61ebbdb9f2269a7a75e6c4241811776ff720949",
    "E16": "e3b3f700b747a8e6bf4bac2b98ea569a2a3140dd9e802ca64bc6ceb13e51e4ba",
    "E17": "061c923dba81f0fd188e58f597ef3563a83d4eaf8b70909021a73a34ce569481",
    "E18": "0c85d47159a4a49fae180040167ec08534b1afb3025b29ba81362126ce752c05",
    "E19": "39eb16882cfea5904c08e087d28a9c5a3293d6bc4804546406fc8ba98de74d6d",
    "E2": "35af48207583acc7928ef386f323fba1764825d82178a56ff68de472e231bac6",
    "E3": "368831b6d2a939883a64ed14c402515542e3ec9fd6dd0d3893864a5a47dba88f",
    "E4": "fe8ee961c3dc28fe0537ac39c6b5a11cbfffd14e0b478efea3001237e84581a9",
    "E5": "9b2cc26d254b57a329588e478e0fd50567721f711162e7a8ad27e5d9c19df860",
    "E6": "5886da8c31d42becdbd64db38c0fae806859fa18e07d01d1a8630983d11193ce",
    "E7": "68a08efe73a5d8770cc053b5053536f69df9cfddff5acb7166eb8183e1e72753",
    "E8": "3b49f7b4a6c60513922ec027e32ff6dfcca64be30241cde5f3c42763774f72c5",
    "E9a": "e3b3cde4cfc9fbac2792399024a6f9c87f0c60dfd2608c5003806772e6e7b34c",
    "E9b": "b2b16aa282115460754fe5352fb8c6cd82599832d25b85043aae90ec8ed05cc1",
    "E9c": "aab6b0ead86da1614ec284595623c2ac50ffaa1dc16f383aaf138be78456f087",
}
RENDER_SHA256 = {"numpy": _NUMPY_SHA256, "pure": _PURE_SHA256}


@functools.lru_cache(maxsize=None)
def tables(exp_id):
    """Experiment ``exp_id``'s tables, run once per test session."""
    return tuple(REGISTRY.get(exp_id).run())


def rendered(exp_id):
    """``Experiment.render()`` over the session's one run."""
    exp = dataclasses.replace(
        REGISTRY.get(exp_id), run=lambda: list(tables(exp_id))
    )
    return exp.render()


# ----------------------------------------------------------------------
# Harness mechanics
# ----------------------------------------------------------------------
def test_table_rendering_alignment_and_floats():
    t = Table(title="T", columns=["a", "bee"], note="hello")
    t.add(a=1, bee=0.5)
    t.add(a="xx")
    text = t.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "0.500" in text
    assert "note: hello" in text
    assert t.column("a") == [1, "xx"]
    assert t.column("bee") == [0.5, None]


def test_registry_rejects_duplicates():
    reg = ExperimentRegistry()
    exp = Experiment("X1", "t", "ref", lambda: [])
    reg.register(exp)
    with pytest.raises(ValueError):
        reg.register(exp)
    assert reg.ids() == ["X1"]
    assert reg.get("X1") is exp


def test_registry_contains_all_design_md_experiments():
    assert set(REGISTRY.ids()) == {
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
        "E9a", "E9b", "E9c", "E10", "E12", "E13", "E14", "E15", "E16",
        "E17", "E18", "E19",
    }


# ----------------------------------------------------------------------
# Individual experiments (invariants, not exact numbers)
# ----------------------------------------------------------------------
def test_e1_matrix_rows_cover_all_regimes():
    (table,) = tables("E1")
    classes = table.column("class")
    assert {"maj-OAC", "0-OAC", "half-AC", "NoCD", "NoACC", "OAC",
            "0-AC"} <= set(classes)
    measured = " ".join(str(m) for m in table.column("measured"))
    assert "FAILED" not in measured
    assert "UNEXPECTED" not in measured


def test_e2_all_runs_within_theorem1_bound():
    (table,) = tables("E2")
    assert table.rows
    assert all(table.column("within_bound"))
    assert all(table.column("agreement"))


def test_e3_rounds_grow_logarithmically_and_within_bound():
    (table,) = tables("E3")
    rounds = table.column("rounds_after_cst")
    assert rounds == sorted(rounds)
    assert all(table.column("within_bound"))
    assert all(table.column("solved"))
    # Shape: doubling |V| adds ~2 rounds, not a multiplicative factor.
    assert rounds[-1] <= rounds[0] + 2 * 10


def test_e17_cells_solve_and_sampled_rows_match_full():
    """Payloads come back through the store's JSON, so ``decisions``
    keys read back as strings; the sampled FULL re-runs must compare
    equal all the same."""
    (table,) = tables("E17")
    assert table.rows
    assert all(table.column("solved"))
    sampled = [v for v in table.column("full_equivalent") if v is not None]
    assert sampled == [True, True]


def test_e4_crossover_branch_flips():
    (table,) = tables("E4")
    branches = table.column("branch")
    assert "leader-elect" in branches and "alg2-on-values" in branches
    assert all(table.column("within_bound"))


def test_e5_crash_rows_cost_more_and_stay_within_bound():
    (table,) = tables("E5")
    assert all(table.column("within_bound"))
    assert all(table.column("solved"))
    by_vc = {}
    for row in table.rows:
        by_vc.setdefault(row["|V|"], {})[row["crashes"]] = row[
            "decided_round"
        ]
    for vc, entry in by_vc.items():
        if 1 in entry:
            assert entry[1] > entry[0], f"|V|={vc}"


def test_e6_and_e7_all_as_expected():
    for exp_id in ("E6", "E7"):
        (table,) = tables(exp_id)
        assert table.rows
        assert all(table.column("as_expected")), exp_id


def test_e8_ablation_shows_the_gap():
    (table,) = tables("E8")
    outcomes = dict(zip(
        [(r["algorithm"], r["detector"]) for r in table.rows],
        table.column("outcome"),
    ))
    assert "agreement + termination" in outcomes[
        ("Algorithm 1", "maj-OAC")
    ]
    assert "VIOLATED" in outcomes[("Algorithm 1", "half-AC (adversarial)")]
    assert outcomes[("Algorithm 2", "half-AC (adversarial)")] == (
        "agreement holds"
    )


def test_e9a_loss_band():
    (table,) = tables("E9a")
    by_b = dict(zip(table.column("broadcasters"),
                    table.column("loss_fraction")))
    assert by_b[1] < 0.05
    assert by_b[2] < by_b[3] < by_b[5]
    # Low contention brackets the paper's 20-50% band.
    assert by_b[2] < 0.5 and by_b[3] > 0.2


def test_e9b_detector_shape():
    (table,) = tables("E9b")
    for row in table.rows:
        assert row["zero"] > 0.99
        assert row["majority"] > 0.9
        assert row["full"] <= row["majority"] + 1e-9


def test_e9c_clocks_stay_aligned():
    (table,) = tables("E9c")
    assert all(table.column("aligned"))
    skews = table.column("max_skew")
    assert skews == sorted(skews)   # less frequent resync => more skew


def test_e10_zero_safety_violations():
    main, testbed = tables("E10")
    assert all(v == 0 for v in main.column("agreement_violations"))
    assert all(v == 0 for v in main.column("validity_violations"))
    assert all(
        s == t for s, t in zip(
            testbed.column("safe"), testbed.column("trials")
        )
    )


def test_e12_counting_tables():
    convergence, impossibility = tables("E12")
    assert all(convergence.column("converged"))
    assert all(impossibility.column("leader_indist"))
    assert all(impossibility.column("counting_defeated"))


def test_e13_eventual_completeness_rows():
    (table,) = tables("E13")
    raw = [str(o) for o in table.column("outcome")]
    outcomes = [o.lower() for o in raw]
    assert sum("violat" in o for o in outcomes) >= 3
    assert not any("failed" in o for o in outcomes)
    assert any("violation: agreement" in o for o in raw)
    assert any("solved within Theorem 2 bound" in o for o in raw)
    assert any("constant-round decision" in o for o in raw)


# ----------------------------------------------------------------------
# E14-E16 headline claims
# ----------------------------------------------------------------------
def test_e14_aggregation_is_exact_and_clustering_agrees():
    aggregation, clustering = tables("E14")
    # Consensus-hardened aggregation is exact at every loss rate; the
    # naive pipeline degrades as loss grows.
    assert all(v == 1.0 for v in aggregation.column("consensus_exact"))
    naive = aggregation.column("naive_exact")
    assert naive[0] > naive[-1]
    # Clustering always agrees, and wins once the source is far away.
    assert all(clustering.column("all_agreed"))
    costs = list(zip(clustering.column("naive_hop_cost"),
                     clustering.column("clustered_hop_cost")))
    assert costs[-1][1] < costs[-1][0]


def test_e15_overlap_dominates_and_reach_grows():
    (table,) = tables("E15")
    assert table.rows
    assert all(table.column("overlap_dominates"))
    # The adversary's empirical reach grows with |I| in both universes.
    ks = table.column("k_overlapping")
    assert ks == sorted(ks)


def test_e16_grid_blind_flood_deadlocks_until_backoff_or_capture():
    (table,) = tables("E16")
    rows = {
        (r["topology"], r["strategy"], r["channel"]): r["completed"]
        for r in table.rows
    }
    # Blind flooding deadlocks on the grid under total collision...
    assert rows[("grid-4x4", "blind", "total")] is False
    # ...but backoff and the capture channel both recover.
    assert rows[("grid-4x4", "backoff", "total")] is True
    assert rows[("grid-4x4", "blind", "capture")] is True


# ----------------------------------------------------------------------
# Output pins
# ----------------------------------------------------------------------
def test_every_experiment_is_pinned_on_both_backends():
    for pins in RENDER_SHA256.values():
        assert sorted(pins) == sorted(REGISTRY.ids())


def test_only_e19_output_depends_on_the_backend():
    """E19 draws IID losses, whose stream differs by backend; every
    other experiment renders the same bytes on both."""
    numpy_pins, pure_pins = RENDER_SHA256["numpy"], RENDER_SHA256["pure"]
    assert [k for k in numpy_pins if numpy_pins[k] != pure_pins[k]] == [
        "E19"
    ]


@pytest.mark.parametrize("exp_id", sorted(REGISTRY.ids()))
def test_render_matches_pinned_digest(exp_id):
    digest = hashlib.sha256(rendered(exp_id).encode()).hexdigest()
    assert digest == RENDER_SHA256[rng_backend()][exp_id], exp_id


def test_experiment_render_includes_banner():
    text = REGISTRY.get("E9c").render()
    assert "[E9c]" in text and "RBS" in text
