"""Tests for the experiment harness and every registered experiment.

Each experiment must (a) run, (b) produce the table schema DESIGN.md
promises, and (c) satisfy the headline invariant it exists to check —
"within bound" columns all true, violation columns as expected, and the
calibration numbers inside the paper's bands.
"""

import pytest

from repro.experiments.harness import Experiment, ExperimentRegistry, Table
from repro.experiments.registry import REGISTRY, run_experiment


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
    (table,) = run_experiment("E1")
    classes = table.column("class")
    assert {"maj-OAC", "0-OAC", "half-AC", "NoCD", "NoACC", "OAC",
            "0-AC"} <= set(classes)
    measured = " ".join(str(m) for m in table.column("measured"))
    assert "FAILED" not in measured
    assert "UNEXPECTED" not in measured


def test_e2_all_runs_within_theorem1_bound():
    (table,) = run_experiment("E2")
    assert table.rows
    assert all(table.column("within_bound"))
    assert all(table.column("agreement"))


def test_e3_rounds_grow_logarithmically_and_within_bound():
    (table,) = run_experiment("E3")
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
    (table,) = run_experiment("E17")
    assert table.rows
    assert all(table.column("solved"))
    sampled = [v for v in table.column("full_equivalent") if v is not None]
    assert sampled == [True, True]


def test_e4_crossover_branch_flips():
    (table,) = run_experiment("E4")
    branches = table.column("branch")
    assert "leader-elect" in branches and "alg2-on-values" in branches
    assert all(table.column("within_bound"))


def test_e5_crash_rows_cost_more_and_stay_within_bound():
    (table,) = run_experiment("E5")
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
        (table,) = run_experiment(exp_id)
        assert table.rows
        assert all(table.column("as_expected")), exp_id


def test_e8_ablation_shows_the_gap():
    (table,) = run_experiment("E8")
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
    (table,) = run_experiment("E9a")
    by_b = dict(zip(table.column("broadcasters"),
                    table.column("loss_fraction")))
    assert by_b[1] < 0.05
    assert by_b[2] < by_b[3] < by_b[5]
    # Low contention brackets the paper's 20-50% band.
    assert by_b[2] < 0.5 and by_b[3] > 0.2


def test_e9b_detector_shape():
    (table,) = run_experiment("E9b")
    for row in table.rows:
        assert row["zero"] > 0.99
        assert row["majority"] > 0.9
        assert row["full"] <= row["majority"] + 1e-9


def test_e9c_clocks_stay_aligned():
    (table,) = run_experiment("E9c")
    assert all(table.column("aligned"))
    skews = table.column("max_skew")
    assert skews == sorted(skews)   # less frequent resync => more skew


def test_e10_zero_safety_violations():
    tables = run_experiment("E10")
    main = tables[0]
    assert all(v == 0 for v in main.column("agreement_violations"))
    assert all(v == 0 for v in main.column("validity_violations"))
    testbed = tables[1]
    assert all(
        s == t for s, t in zip(
            testbed.column("safe"), testbed.column("trials")
        )
    )


def test_e12_counting_tables():
    convergence, impossibility = run_experiment("E12")
    assert all(convergence.column("converged"))
    assert all(impossibility.column("leader_indist"))
    assert all(impossibility.column("counting_defeated"))


def test_e13_eventual_completeness_rows():
    (table,) = run_experiment("E13")
    outcomes = [str(o).lower() for o in table.column("outcome")]
    assert sum("violat" in o for o in outcomes) >= 3
    assert not any("failed" in o for o in outcomes)


def test_experiment_render_includes_banner():
    text = REGISTRY.get("E9c").render()
    assert "[E9c]" in text and "RBS" in text
