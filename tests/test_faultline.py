"""Faultline: deterministic fault injection and the self-healing store.

The campaign stack's contract is that resume-after-anything converges
to the undisturbed report bytes.  This module attacks that contract
systematically:

* unit coverage of the :mod:`repro.testing.faultline` machinery — the
  per-``(site, key)`` clock, the seeded probability gate, rule/plan
  spec round-trips, plan resolution precedence, and the transient
  sqlite raiser;
* the sink's paired hardening — ``PRAGMA busy_timeout`` on every
  connection, seeded exponential-backoff retry absorbing injected
  transient ``OperationalError``\\ s, and a loud
  :class:`ConfigurationError` (never a raw "database is locked") once
  the retry budget is spent;
* the dispatcher's paired hardening — the stall watchdog unmasking
  SIGSTOPped workers with no ``cell_timeout`` armed, the guard that
  refuses SIGSTOP plans with no watchdog to catch them, and the
  respawn-storm breaker (streak reset on a delivered result,
  exponential backoff, explicit abort message);
* the **property matrix**: every built-in fault plan x {1, 4} workers
  x {e18, e19-quick} grids — a faulted pass plus one clean resume
  reports byte-identically to the in-process reference, and the same
  plan + seed replays the identical injection schedule;
* ``verify_campaign_store``: deliberate corruption (flipped status
  byte, torn payload, forged identity, orphaned rounds) is detected,
  detection is read-only and stable, and quarantine + resume converges
  back to the reference bytes; a forced seed collision is flagged on
  both cells and left alone by quarantine;
* merge atomicity: an injected mid-merge failure — or SIGKILL during
  an injected mid-merge sleep — leaves no target database, and a
  ``force=True`` rerun sweeps the stray sidecar and succeeds;
* ``report(allow_partial=True)``: gaps and corrupt cells are listed
  under a ``"partial"`` footer instead of silently narrowing the grid,
  and a complete store reports identical bytes with the flag on or off.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.core.errors import ConfigurationError
from repro.core.records import RoundSummary, SqliteSink
from repro.experiments.campaign import (
    CampaignRunner,
    cell_tag,
    merge_campaign_stores,
)
from repro.experiments.churn import churn_sweep_cell
from repro.experiments.dispatch import WorkerPoolError
from repro.experiments.harness import consensus_sweep_cell, iter_cells
from repro.experiments.verify import format_findings, verify_campaign_store
from repro.testing import faultline
from repro.testing.faultline import (
    FaultClock,
    FaultPlan,
    FaultRule,
    OPERATIONAL_FLAVORS,
    builtin_plan,
    builtin_plan_names,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """No faultline test may leak a child process, however it faulted."""
    yield
    children = multiprocessing.active_children()
    assert children == [], f"leaked worker processes: {children}"


@pytest.fixture(autouse=True)
def no_leaked_ambient_plan():
    """``faultline.install`` is process-global; never leak it."""
    yield
    faultline.install(None)


@pytest.fixture
def make_runner():
    runners = []

    def make(*args, **kwargs):
        runner = CampaignRunner(*args, **kwargs)
        runners.append(runner)
        return runner

    yield make
    for runner in runners:
        runner.close()


# The two campaign families the property matrix drives: the E18
# consensus grid (8 cells) and a quick E19 churn grid (4 cells).
E18_AXES = dict(
    n=[3, 4], detector=["0-OAC"], loss_rate=[0.1, 0.3], trial=[0, 1],
    values=[8], record_policy=["summary"],
)
E19_AXES = dict(
    n=[4], detector=["0-OAC"], loss_rate=[0.1], churn_rate=[0.0, 0.2],
    topology=["clique", "ring"], trial=[0], values=[8],
    record_policy=["summary"],
)
GRIDS = {
    "e18": (consensus_sweep_cell, E18_AXES),
    "e19": (churn_sweep_cell, E19_AXES),
}

#: Watchdog window for faulted passes: generous enough that a loaded
#: CI host cannot miss four heartbeats, small enough not to dominate
#: the matrix runtime.
STALL_TIMEOUT = 2.0


@pytest.fixture(scope="module")
def reference_report(tmp_path_factory):
    """Per-grid report bytes from one clean, in-process, plan-free run."""
    reports = {}
    for grid, (cell_fn, axes) in GRIDS.items():
        db = str(tmp_path_factory.mktemp("faultline-ref") / f"{grid}.db")
        runner = CampaignRunner(
            cell_fn, db_path=db, base_seed=3, in_process=True,
            extra_params={"sqlite_db": db},
        )
        outcomes = runner.resume(**axes)
        assert all(o.status == "done" for o in outcomes)
        reports[grid] = runner.report(**axes)
        runner.close()
    return reports


# ----------------------------------------------------------------------
# FaultClock / FaultRule / FaultPlan units
# ----------------------------------------------------------------------
def test_fault_clock_counts_independent_streams():
    clock = FaultClock()
    assert clock.tick("dispatch", "cell:0") == 1
    assert clock.tick("dispatch", "cell:0") == 2
    assert clock.tick("dispatch", "cell:1") == 1  # per-key stream
    assert clock.tick("sqlite", "cell:0") == 1    # per-site stream
    assert clock.count("dispatch", "cell:0") == 2
    assert clock.count("merge", "shard:0") == 0


def test_draw_is_a_pure_function_of_stable_identities():
    a = faultline._draw(7, "dispatch", "cell:3", 1, 0)
    assert a == faultline._draw(7, "dispatch", "cell:3", 1, 0)
    assert 0.0 <= a < 1.0
    # Every identity component perturbs the draw.
    assert a != faultline._draw(8, "dispatch", "cell:3", 1, 0)
    assert a != faultline._draw(7, "sqlite", "cell:3", 1, 0)
    assert a != faultline._draw(7, "dispatch", "cell:4", 1, 0)
    assert a != faultline._draw(7, "dispatch", "cell:3", 2, 0)
    assert a != faultline._draw(7, "dispatch", "cell:3", 1, 1)


def test_fault_rule_validation_is_loud():
    with pytest.raises(ConfigurationError, match="unknown fault site"):
        FaultRule(site="disk", action={"kind": "die"})
    with pytest.raises(ConfigurationError, match="'kind'"):
        FaultRule(site="spawn", action={"seconds": 1})
    with pytest.raises(ConfigurationError, match="probability"):
        FaultRule(site="spawn", action={"kind": "die"}, p=1.5)
    with pytest.raises(ConfigurationError, match="unknown field"):
        FaultRule.from_spec({
            "site": "spawn", "action": {"kind": "die"}, "when": "always",
        })
    with pytest.raises(ConfigurationError, match="needs 'site'"):
        FaultRule.from_spec({"action": {"kind": "die"}})


def test_rule_and_plan_specs_round_trip():
    rule = FaultRule(
        site="sqlite", action={"kind": "operational-error"},
        match="write-*", p=0.25, count_in=(1, 2), times=3,
    )
    assert FaultRule.from_spec(rule.to_spec()) == rule
    for name in builtin_plan_names():
        plan = builtin_plan(name)
        assert FaultPlan.from_spec(plan.to_spec()).to_spec() == plan.to_spec()


def test_builtin_plan_unknown_name_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown built-in"):
        builtin_plan("chaos-monkey")


def test_first_matching_rule_wins():
    plan = FaultPlan([
        FaultRule(site="dispatch", action={"kind": "sigkill"},
                  match="cell:0"),
        FaultRule(site="dispatch", action={"kind": "sigstop"}),
    ])
    assert plan.fire("dispatch", "cell:0")["kind"] == "sigkill"
    assert plan.fire("dispatch", "cell:1")["kind"] == "sigstop"


def test_times_budget_is_per_key():
    plan = FaultPlan([
        FaultRule(site="sqlite", action={"kind": "operational-error"},
                  times=2),
    ])
    assert plan.fire("sqlite", "write-round") is not None
    assert plan.fire("sqlite", "write-round") is not None
    assert plan.fire("sqlite", "write-round") is None  # budget spent
    assert plan.fire("sqlite", "record-cell") is not None  # fresh key


def test_count_in_restricts_occurrences():
    plan = FaultPlan([
        FaultRule(site="spawn", action={"kind": "die"}, count_in=(2,)),
    ])
    assert plan.fire("spawn", "spawn") is None       # occurrence 1
    assert plan.fire("spawn", "spawn") is not None   # occurrence 2
    assert plan.fire("spawn", "spawn") is None       # occurrence 3


def test_probability_gate_replays_identically():
    spec = {
        "seed": 42,
        "rules": [{"site": "dispatch", "match": "cell:*", "p": 0.5,
                   "action": {"kind": "sigkill"}}],
    }

    def fired(plan):
        return [
            key for key in (f"cell:{i}" for i in range(64))
            if plan.fire("dispatch", key) is not None
        ]

    first = fired(FaultPlan.from_spec(spec))
    assert fired(FaultPlan.from_spec(spec)) == first
    assert 0 < len(first) < 64  # the gate actually discriminates


def test_fire_logs_events_in_memory_and_jsonl(tmp_path):
    log = str(tmp_path / "faults.jsonl")
    plan = FaultPlan(
        [FaultRule(site="merge", action={"kind": "error"})],
        log_path=log,
    )
    assert plan.fire("merge", "shard:0") == {"kind": "error"}
    assert plan.fire("spawn", "spawn") is None  # no rule, no event
    assert plan.log == [{
        "site": "merge", "key": "shard:0", "count": 1,
        "action": {"kind": "error"},
    }]
    with open(log) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines == plan.log


def test_sqlite_check_raises_flavored_transient_errors():
    for flavor, message in OPERATIONAL_FLAVORS.items():
        plan = FaultPlan([
            FaultRule(site="sqlite",
                      action={"kind": "operational-error",
                              "flavor": flavor}),
        ])
        with pytest.raises(sqlite3.OperationalError,
                           match=r"\[injected\]") as err:
            plan.sqlite_check("write-round")
        assert message in str(err.value)
    bad = FaultPlan([
        FaultRule(site="sqlite",
                  action={"kind": "operational-error",
                          "flavor": "meteor"}),
    ])
    with pytest.raises(ConfigurationError, match="unknown sqlite fault"):
        bad.sqlite_check("write-round")
    wrong = FaultPlan([FaultRule(site="sqlite", action={"kind": "sleep"})])
    with pytest.raises(ConfigurationError, match="only honours"):
        wrong.sqlite_check("write-round")


def test_resolve_precedence_explicit_installed_env(tmp_path, monkeypatch):
    env_plan = tmp_path / "env-plan.json"
    env_plan.write_text(json.dumps(
        {"seed": 1, "rules": [], "name": "from-env"}
    ))
    monkeypatch.delenv(faultline.ENV_VAR, raising=False)
    assert faultline.resolve(None) is None
    monkeypatch.setenv(faultline.ENV_VAR, str(env_plan))
    from_env = faultline.resolve(None)
    assert from_env is not None and from_env.name == "from-env"
    assert faultline.resolve(None) is from_env  # cached per path
    ambient = FaultPlan(name="ambient")
    faultline.install(ambient)
    assert faultline.resolve(None) is ambient          # beats env
    explicit = FaultPlan(name="explicit")
    assert faultline.resolve(explicit) is explicit     # beats installed
    faultline.install(None)
    assert faultline.resolve(None) is from_env


def test_plan_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="cannot load fault plan"):
        FaultPlan.from_file(str(path))
    with pytest.raises(ConfigurationError, match="cannot load fault plan"):
        FaultPlan.from_file(str(tmp_path / "absent.json"))


# ----------------------------------------------------------------------
# SqliteSink hardening: busy_timeout + seeded retry with backoff
# ----------------------------------------------------------------------
def _summary(r: int, bc: int = 2) -> RoundSummary:
    return RoundSummary(
        round=r, broadcast_count=bc,
        crashed_during=frozenset(), decided_during={},
    )


def test_sink_sets_busy_timeout_on_every_connection(tmp_path):
    with SqliteSink(str(tmp_path / "c.db"), cell_seed=1) as sink:
        timeout = sink._connect().execute(
            "PRAGMA busy_timeout"
        ).fetchone()[0]
        assert timeout == int(sink.busy_timeout * 1000) == 30000


def test_sink_absorbs_injected_transient_errors(tmp_path, monkeypatch):
    delays = []
    monkeypatch.setattr(time, "sleep", delays.append)
    plan = FaultPlan([
        FaultRule(site="sqlite", match="write-round",
                  action={"kind": "operational-error", "flavor": "locked"},
                  count_in=(1, 2)),
    ], seed=9)
    db = str(tmp_path / "c.db")
    with SqliteSink(db, cell_seed=11, fault_plan=plan) as sink:
        sink(_summary(1))
        sink.flush()  # two injected failures, third attempt lands
        assert [
            (e["key"], e["count"]) for e in plan.log
        ] == [("write-round", 1), ("write-round", 2)]
        # The backoff schedule is the seeded one, attempt by attempt.
        assert delays == [
            sink._backoff_delay("write-round", 1),
            sink._backoff_delay("write-round", 2),
        ]
        assert [s.round for s in sink.read_summaries()] == [1]


def test_sink_exhausted_retry_budget_raises_loudly(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "sleep", lambda _s: None)
    plan = FaultPlan([
        FaultRule(site="sqlite", match="write-round",
                  action={"kind": "operational-error", "flavor": "busy"}),
    ])
    sink = SqliteSink(str(tmp_path / "c.db"), cell_seed=1, fault_plan=plan)
    sink(_summary(1))
    # Never a raw "database is busy": the exhausted budget names the
    # deployment mistake that causes persistent lock-outs.
    with pytest.raises(ConfigurationError,
                       match="give each run its own store path"):
        sink.close()
    assert plan.clock.count("sqlite", "write-round") \
        == SqliteSink.MAX_SQLITE_ATTEMPTS


def test_backoff_delay_is_deterministic_and_exponential(tmp_path):
    sink = SqliteSink(str(tmp_path / "c.db"))
    delays = [sink._backoff_delay("write-round", a) for a in (1, 2, 3)]
    assert delays == [
        sink._backoff_delay("write-round", a) for a in (1, 2, 3)
    ]
    base = SqliteSink.SQLITE_BACKOFF
    for attempt, delay in enumerate(delays, start=1):
        nominal = base * 2 ** (attempt - 1)
        assert nominal * 0.5 <= delay < nominal * 1.5  # jitter band
    sink.close()


# ----------------------------------------------------------------------
# Dispatcher hardening: stall watchdog + respawn-storm breaker
# ----------------------------------------------------------------------
def test_sigstop_plan_without_watchdog_is_rejected(tmp_path, make_runner):
    plan = FaultPlan([
        FaultRule(site="dispatch", action={"kind": "sigstop"},
                  match="cell:0"),
    ])
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=1, fault_plan=plan,
    )
    with pytest.raises(ConfigurationError, match="stall watchdog"):
        runner.resume(**E18_AXES)


def test_stall_watchdog_unmasks_a_sigstopped_worker(
    tmp_path, make_runner, reference_report
):
    plan = FaultPlan([
        FaultRule(site="dispatch", action={"kind": "sigstop"},
                  match="cell:0"),
    ])
    db = str(tmp_path / "c.db")
    faulted = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=2,
        fault_plan=plan, stall_timeout=1.5,
    )
    outcomes = faulted.resume(**E18_AXES)
    stalled = [o for o in outcomes if o.status == "failed"]
    assert [o.cell.index for o in stalled] == [0]
    assert stalled[0].error == "worker stalled: no heartbeat within 1.5s"
    faulted.close()
    clean = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=2,
    )
    assert all(o.status == "done" for o in clean.resume(**E18_AXES))
    assert clean.report(**E18_AXES) == reference_report["e18"]


def test_spawn_death_streak_resets_on_delivered_result(
    tmp_path, make_runner, reference_report
):
    db = str(tmp_path / "c.db")
    faulted = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=1,
        fault_plan=builtin_plan("spawn-flaky"),
    )
    faulted.resume(**E18_AXES)
    # Doomed spawns died, replacements delivered: the streak is clean.
    assert faulted._dispatcher._spawn_death_streak == 0
    faulted.close()
    clean = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, processes=1,
    )
    clean.resume(**E18_AXES)
    assert clean.report(**E18_AXES) == reference_report["e18"]


def _always_dying_spawns() -> FaultPlan:
    return FaultPlan([FaultRule(site="spawn", action={"kind": "die"})])


def test_spawn_death_breaker_aborts_with_explicit_message(
    tmp_path, make_runner, monkeypatch
):
    monkeypatch.setattr(time, "sleep", lambda _s: None)
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=2, fault_plan=_always_dying_spawns(),
    )
    runner._dispatcher.max_spawn_deaths = 3
    with pytest.raises(WorkerPoolError,
                       match="3 freshly-spawned workers died in a row"):
        runner.resume(**E18_AXES)


def test_respawn_backoff_grows_exponentially(
    tmp_path, make_runner, monkeypatch
):
    delays = []
    monkeypatch.setattr(time, "sleep", delays.append)
    runner = make_runner(
        consensus_sweep_cell, db_path=str(tmp_path / "c.db"),
        base_seed=3, processes=1, fault_plan=_always_dying_spawns(),
    )
    runner._dispatcher.max_spawn_deaths = 4
    runner._dispatcher.respawn_backoff = 0.05
    with pytest.raises(WorkerPoolError):
        runner.resume(**E18_AXES)
    # Streaks 1..3 back off doubling from the base; streak 4 aborts.
    assert delays == pytest.approx([0.05, 0.1, 0.2])


# ----------------------------------------------------------------------
# The property matrix: every plan x pool width x campaign family
# ----------------------------------------------------------------------
@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("processes", [1, 4])
@pytest.mark.parametrize("plan_name", builtin_plan_names())
def test_faulted_pass_plus_clean_resume_matches_reference(
    tmp_path, make_runner, reference_report, plan_name, processes, grid,
):
    """The defended invariant: resume-after-faults converges byte-for-
    byte, for every built-in plan, pool width, and campaign family."""
    cell_fn, axes = GRIDS[grid]
    db = str(tmp_path / "c.db")
    faulted = make_runner(
        cell_fn, db_path=db, base_seed=3, processes=processes,
        fault_plan=builtin_plan(plan_name), stall_timeout=STALL_TIMEOUT,
        extra_params={"sqlite_db": db},
    )
    faulted.resume(**axes)
    faulted.close()
    clean = make_runner(
        cell_fn, db_path=db, base_seed=3, processes=processes,
        extra_params={"sqlite_db": db},
    )
    final = clean.resume(**axes)
    assert all(o.status == "done" for o in final)
    assert clean.report(**axes) == reference_report[grid]


@pytest.mark.parametrize("plan_name", builtin_plan_names())
def test_same_plan_and_seed_replays_identical_schedule(
    tmp_path, make_runner, plan_name,
):
    """Two runs of one plan over one grid fire the same injections.

    Width 1 serialises the pool, so even the spawn-site stream is a
    deterministic function of the plan; ``log_path`` collects parent
    and worker firings alike, compared as sorted lines because the
    processes interleave.
    """
    logs = []
    for attempt in ("a", "b"):
        log = str(tmp_path / f"faults-{attempt}.jsonl")
        runner = make_runner(
            consensus_sweep_cell,
            db_path=str(tmp_path / f"c-{attempt}.db"), base_seed=3,
            processes=1,
            fault_plan=builtin_plan(plan_name, log_path=log),
            stall_timeout=STALL_TIMEOUT,
            extra_params={"sqlite_db": str(tmp_path / f"c-{attempt}.db")},
        )
        runner.resume(**E18_AXES)
        runner.close()
        with open(log) as fh:
            logs.append(sorted(fh.read().splitlines()))
    assert logs[0] == logs[1]
    assert logs[0], f"plan {plan_name!r} never fired on the e18 grid"


# ----------------------------------------------------------------------
# verify: detection is read-only and stable; quarantine converges
# ----------------------------------------------------------------------
def test_verify_clean_store_and_missing_store(tmp_path):
    db = str(tmp_path / "c.db")
    runner = CampaignRunner(
        consensus_sweep_cell, db_path=db, base_seed=3, in_process=True,
    )
    runner.resume(**E18_AXES)
    runner.close()
    summary = verify_campaign_store(db)
    assert summary["ok"] and summary["cells"] == 8
    assert "store is clean" in format_findings(summary)
    with pytest.raises(ConfigurationError, match="does not exist"):
        verify_campaign_store(str(tmp_path / "absent.db"))


def test_verify_flags_a_malformed_rng_backend_stamp(tmp_path):
    db = str(tmp_path / "c.db")
    with SqliteSink(db) as store:
        store.set_meta("base_seed", 3)
        store.set_meta("rng_backend", "gpu")
    summary = verify_campaign_store(db)
    assert not summary["ok"]
    assert [f["detail"] for f in summary["findings"]] == [
        "malformed rng_backend stamp 'gpu'"
    ]


def test_verify_flags_a_store_from_the_retired_numpy_backend(tmp_path):
    db = str(tmp_path / "c.db")
    with SqliteSink(db) as store:
        store.set_meta("base_seed", 3)
        store.set_meta("rng_backend", "numpy")
    summary = verify_campaign_store(db)
    assert not summary["ok"]
    assert summary["findings"] == [{
        "kind": "meta",
        "detail": "rng_backend 'numpy': filled by the retired numpy "
                  "backend, so resume, report and merge refuse it",
        "action": "report-only",
    }]


def test_verify_rejects_a_non_database_file(tmp_path):
    path = tmp_path / "c.db"
    path.write_bytes(b"definitely not sqlite" * 100)
    summary = verify_campaign_store(str(path))
    assert not summary["ok"]
    assert summary["findings"][0]["kind"] == "integrity"
    assert "not a database" in summary["findings"][0]["detail"]


def test_verify_reports_schema_damage_without_row_checks(tmp_path):
    db = str(tmp_path / "c.db")
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE cells (cell_tag TEXT PRIMARY KEY)")
    conn.commit()
    conn.close()
    summary = verify_campaign_store(db)
    kinds = {f["kind"] for f in summary["findings"]}
    assert kinds == {"schema"}
    details = " / ".join(f["detail"] for f in summary["findings"])
    assert "round_summaries" in details and "campaign_meta" in details


def test_verify_detects_then_quarantines_then_converges(
    tmp_path, make_runner, reference_report
):
    """The acceptance path: flip a status byte, tear a payload, forge
    an identity, orphan some rounds — verify sees all of it without
    touching the store, quarantine demotes/deletes, and resume +
    report land back on the clean reference bytes."""
    db = str(tmp_path / "c.db")
    seeded = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, in_process=True,
    )
    outcomes = seeded.resume(**E18_AXES)
    assert all(o.status == "done" for o in outcomes)
    tags = [cell_tag(o.cell) for o in outcomes]
    conn = sqlite3.connect(db)
    conn.execute(
        "UPDATE cells SET status='dxne' WHERE cell_tag=?", (tags[0],)
    )
    conn.execute(
        "UPDATE cells SET payload='{torn' WHERE cell_tag=?", (tags[1],)
    )
    conn.execute(
        "UPDATE cells SET cell_tag='forged|tag' WHERE cell_tag=?",
        (tags[2],),
    )
    conn.execute(
        "INSERT INTO round_summaries VALUES (999999, 1, 2, '[]', '{}')"
    )
    conn.commit()
    conn.close()

    first = verify_campaign_store(db)
    assert not first["ok"] and first["quarantined"] == 0
    by_kind = {}
    for finding in first["findings"]:
        by_kind.setdefault(finding["kind"], []).append(finding)
    assert set(by_kind) >= {
        "cell-status", "cell-payload", "cell-identity", "orphan-rounds",
    }
    assert all(
        f["action"] == "report-only" for f in first["findings"]
    )
    # Detection is read-only: a second audit reports the same findings.
    assert verify_campaign_store(db)["findings"] == first["findings"]

    healed = verify_campaign_store(db, quarantine=True)
    assert healed["findings"] and healed["quarantined"] > 0
    actions = {f["kind"]: f["action"] for f in healed["findings"]}
    assert actions["cell-status"] == "demote-cell"
    assert actions["cell-payload"] == "demote-cell"
    assert actions["cell-identity"] == "delete-cell"
    assert actions["orphan-rounds"] == "delete-rounds"

    clean = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, in_process=True,
    )
    final = clean.resume(**E18_AXES)
    assert all(o.status == "done" for o in final)
    assert clean.report(**E18_AXES) == reference_report["e18"]
    assert verify_campaign_store(db)["ok"]


def test_verify_flags_a_forced_seed_collision(
    tmp_path, make_runner, monkeypatch, capsys
):
    """Two cells forced onto one seed share an RNG seed and one set of
    round rows.  Verify flags both cells and exits 1, and quarantine
    leaves the clash alone: only re-keying the rows could fix it."""
    from repro.__main__ import main
    from repro.experiments import harness

    victim, twin = list(iter_cells(3, **E18_AXES))[:2]
    derive = harness.cell_seed
    # Patched for the runner's grid and verify's re-derivation alike.
    monkeypatch.setattr(
        harness, "cell_seed",
        lambda base_seed, **params: derive(
            base_seed,
            **(victim.as_dict() if params == twin.as_dict() else params),
        ),
    )
    db = str(tmp_path / "c.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, in_process=True,
        extra_params={"sqlite_db": db},
    )
    outcomes = runner.resume(**E18_AXES)
    assert all(o.status == "done" for o in outcomes)
    assert outcomes[0].cell.seed == outcomes[1].cell.seed
    summary = verify_campaign_store(db)
    assert [(f["kind"], f["cell_tag"]) for f in summary["findings"]] == [
        ("seed-collision", tag) for tag in sorted((victim.tag, twin.tag))
    ]
    healed = verify_campaign_store(db, quarantine=True)
    assert healed["findings"] == summary["findings"]
    assert healed["quarantined"] == 0
    assert main(["campaign", "verify", "--db", db, "--quarantine"]) == 1
    assert "[seed-collision]" in capsys.readouterr().out


def test_verify_cli_exit_codes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "verify", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    db = str(tmp_path / "c.db")
    runner = CampaignRunner(
        consensus_sweep_cell, db_path=db, base_seed=3, in_process=True,
    )
    runner.resume(n=[3], detector=["0-OAC"], loss_rate=[0.1], trial=[0],
                  values=[8], record_policy=["summary"])
    runner.close()
    clean = cli("--db", db)
    assert clean.returncode == 0 and "store is clean" in clean.stdout
    conn = sqlite3.connect(db)
    conn.execute("UPDATE cells SET status='dxne'")
    conn.commit()
    conn.close()
    dirty = cli("--db", db)
    assert dirty.returncode == 1 and "cell-status" in dirty.stdout
    missing = cli("--db", str(tmp_path / "absent.db"))
    assert missing.returncode == 2
    assert "does not exist" in missing.stderr


# ----------------------------------------------------------------------
# Merge atomicity under injected failures and SIGKILL
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def e18_shards(tmp_path_factory):
    """The e18 grid split across two shard stores (read-only inputs)."""
    base = tmp_path_factory.mktemp("faultline-shards")
    paths = []
    for index in (0, 1):
        db = str(base / f"shard{index}.db")
        runner = CampaignRunner(
            consensus_sweep_cell, db_path=db, base_seed=3,
            in_process=True, shard_index=index, shard_count=2,
        )
        runner.resume(**E18_AXES)
        runner.close()
        paths.append(db)
    return paths


def test_injected_merge_failure_leaves_no_target(
    tmp_path, e18_shards, reference_report
):
    out = str(tmp_path / "merged.db")
    faultline.install(FaultPlan([
        FaultRule(site="merge", match="shard:1", action={"kind": "error"}),
    ]))
    try:
        with pytest.raises(ConfigurationError,
                           match="injected merge failure at shard 1"):
            merge_campaign_stores(out, e18_shards)
    finally:
        faultline.install(None)
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".tmp")  # cleanup swept the sidecar
    summary = merge_campaign_stores(out, e18_shards)
    assert summary["cells"] == 8 and os.path.exists(out)
    merged = CampaignRunner(
        consensus_sweep_cell, db_path=out, base_seed=3, in_process=True,
    )
    assert merged.report(**E18_AXES) == reference_report["e18"]
    merged.close()


def test_sigkilled_merge_is_atomic_and_force_rerun_recovers(
    tmp_path, e18_shards, reference_report
):
    """Satellite guarantee: SIGKILL mid-merge never publishes a target,
    and a ``force=True`` rerun sweeps the stray sidecar and succeeds."""
    out = str(tmp_path / "merged.db")
    tmp_sidecar = out + ".tmp"
    plan_file = tmp_path / "merge-sleep.json"
    plan_file.write_text(json.dumps({
        "seed": 0,
        "rules": [{"site": "merge", "match": "shard:1",
                   "action": {"kind": "sleep", "seconds": 60}}],
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env[faultline.ENV_VAR] = str(plan_file)
    script = (
        "import sys\n"
        "from repro.experiments.campaign import merge_campaign_stores\n"
        "merge_campaign_stores(sys.argv[1], sys.argv[2:])\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script, out, *e18_shards], env=env,
    )
    try:
        # Shard 0 folds, then the injected 60s sleep parks the merge
        # with the sidecar on disk: kill it there, mid-merge.
        deadline = time.monotonic() + 60
        while not os.path.exists(tmp_sidecar):
            assert proc.poll() is None, "merge exited before the fault"
            assert time.monotonic() < deadline, "sidecar never appeared"
            time.sleep(0.05)
        time.sleep(0.2)
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait(timeout=60)
    assert not os.path.exists(out)       # nothing was published
    assert os.path.exists(tmp_sidecar)   # the corpse is the sidecar
    summary = merge_campaign_stores(out, e18_shards, force=True)
    assert summary["cells"] == 8
    for suffix in ("", "-wal", "-shm"):
        assert not os.path.exists(tmp_sidecar + suffix)
    merged = CampaignRunner(
        consensus_sweep_cell, db_path=out, base_seed=3, in_process=True,
    )
    assert merged.report(**E18_AXES) == reference_report["e18"]
    merged.close()


# ----------------------------------------------------------------------
# report(allow_partial=True): explicit gaps, identical bytes when whole
# ----------------------------------------------------------------------
def test_report_allow_partial_lists_gaps_then_matches_when_complete(
    tmp_path, make_runner, reference_report
):
    db = str(tmp_path / "c.db")
    runner = make_runner(
        consensus_sweep_cell, db_path=db, base_seed=3, in_process=True,
    )
    runner.resume(max_cells=3, **E18_AXES)
    doc = json.loads(runner.report(allow_partial=True, **E18_AXES))
    assert doc["partial"] == {"missing": [3, 4, 5, 6, 7], "corrupt": []}
    runner.resume(**E18_AXES)
    complete = runner.report(**E18_AXES)
    assert runner.report(allow_partial=True, **E18_AXES) == complete
    assert complete == reference_report["e18"]

    victim = runner.cells(**E18_AXES)[2]
    conn = sqlite3.connect(db)
    conn.execute(
        "UPDATE cells SET payload='{torn' WHERE cell_tag=?",
        (cell_tag(victim),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(ConfigurationError, match="campaign verify"):
        runner.report(**E18_AXES)
    partial = json.loads(runner.report(allow_partial=True, **E18_AXES))
    assert partial["partial"] == {"missing": [], "corrupt": [2]}
    assert [e["index"] for e in partial["cells"]] == [0, 1, 3, 4, 5, 6, 7]
