"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro                 # list available experiments
    python -m repro all             # run the full evaluation
    python -m repro E3 E8           # run selected experiments

    # launch (or resume — same idempotent operation) a checkpointed
    # campaign over the (n x detector x loss_rate x seed) matrix;
    # every configuration runs through the unified CampaignDispatcher
    # worker pool (--processes sets its width, --cell-timeout arms
    # per-cell deadlines at any width, --in-process is the serial
    # debug escape hatch):
    python -m repro campaign --db campaign.db --quick
    python -m repro campaign --db campaign.db --report   # no work, just JSON
    python -m repro campaign report --table --db campaign.db
                                  # aligned per-cell round analytics

    # the E19 churn family: same resumable machinery over the dynamic-
    # membership grid (churn_rate x topology join the coordinates):
    python -m repro campaign --family e19 --db churn.db --quick

    # distributed sharding: split one grid deterministically across K
    # hosts — each host runs only its share, into its own store, with
    # resume/retry/timeout semantics unchanged — then fold the K shard
    # stores into one whose report is byte-identical to a single-host
    # run (see docs/campaigns.md for the operator guide):
    python -m repro campaign shard --index 0 --of 2 --quick   # host A
    python -m repro campaign shard --index 1 --of 2 --quick   # host B
    python -m repro campaign merge --out merged.db \\
        campaign.shard0-of-2.db campaign.shard1-of-2.db
    python -m repro campaign --db merged.db --quick --report

    # audit a store's integrity (and heal it: --quarantine demotes
    # corrupt cells so the next resume re-runs them); report over a
    # damaged or incomplete store without aborting:
    python -m repro campaign verify --db campaign.db --quarantine
    python -m repro campaign report --allow-partial --db campaign.db
"""

from __future__ import annotations

import argparse
import os
import sys


def _campaign_merge_main(argv: list) -> int:
    """The ``campaign merge`` subcommand: fold shard stores into one."""
    from .core.errors import ConfigurationError
    from .experiments.campaign import merge_campaign_stores

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign merge",
        description=(
            "Fold K shard stores (produced by 'campaign shard "
            "--index i --of k', one store per host) into a single "
            "store whose report is byte-identical to an uninterrupted "
            "single-host run of the same grid.  The merge validates "
            "before copying a row: every input must carry shard "
            "metadata, all inputs must share one base_seed, one RNG "
            "backend and one shard count, and the shard indices must "
            "cover exactly {0..k-1} — mismatched base_seeds or "
            "backends, overlapping shards, and missing shards are all "
            "rejected loudly."
        ),
        epilog=(
            "example: python -m repro campaign merge --out merged.db "
            "campaign.shard0-of-2.db campaign.shard1-of-2.db"
        ),
    )
    parser.add_argument("shards", nargs="+", metavar="SHARD_DB",
                        help="the K shard stores to fold (order is "
                             "irrelevant; each store knows its own "
                             "shard index)")
    parser.add_argument("--out", required=True,
                        help="path for the merged store (must not "
                             "already exist unless --force)")
    parser.add_argument("--force", action="store_true",
                        help="replace an existing --out store (its WAL "
                             "sidecars included) instead of refusing")
    args = parser.parse_args(argv)
    try:
        summary = merge_campaign_stores(
            args.out, args.shards, force=args.force
        )
    except ConfigurationError as exc:
        print(f"merge rejected: {exc}", file=sys.stderr)
        return 2
    print(
        f"merged {summary['shards']} shard store(s) -> "
        f"{summary['path']} ({summary['cells']} cells, "
        f"base_seed {summary['base_seed']}); report it with: "
        f"python -m repro campaign --db {summary['path']} --report "
        "(plus the grid flags the shards ran with)"
    )
    return 0


def _campaign_verify_main(argv: list) -> int:
    """The ``campaign verify`` subcommand: audit (and heal) a store."""
    from .core.errors import ConfigurationError
    from .experiments.verify import format_findings, verify_campaign_store

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign verify",
        description=(
            "Audit one campaign store: PRAGMA integrity_check, schema "
            "and metadata validation, per-cell identity re-derivation "
            "(each row's coordinate tag and seed recomputed from its "
            "stored params must match exactly), payload parseability, "
            "seed collisions between cells (always report-only), and "
            "round_summaries hygiene (orphaned or stale rows).  "
            "With --quarantine, content-corrupt cells are demoted to "
            "failed (attempts reset, rounds cleared) so the next "
            "resume re-runs them, identity-corrupt cells are deleted, "
            "and bad rounds are removed — after which resume + report "
            "converges back to the clean reference bytes.  Exit 0 when "
            "the store is clean, 1 when findings were reported.  See "
            "docs/failure-modes.md for the finding -> action table."
        ),
        epilog=(
            "example: python -m repro campaign verify --db campaign.db "
            "--quarantine && python -m repro campaign --db campaign.db "
            "--quick"
        ),
    )
    parser.add_argument("--db", required=True,
                        help="the campaign store to audit")
    parser.add_argument("--quarantine", action="store_true",
                        help="demote/remove corrupt rows so the next "
                             "resume repairs the campaign (default: "
                             "report only, write nothing)")
    args = parser.parse_args(argv)
    try:
        summary = verify_campaign_store(
            args.db, quarantine=args.quarantine
        )
    except ConfigurationError as exc:
        print(f"verify rejected: {exc}", file=sys.stderr)
        return 2
    print(format_findings(summary))
    return 0 if summary["ok"] else 1


def _campaign_main(argv: list) -> int:
    """The ``campaign`` subcommand: launch/resume/shard/merge/report."""
    from .core.errors import ConfigurationError
    from .experiments.campaign import CampaignRunner, run_family
    from .experiments.registry import FAMILIES

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description=(
            "Run a consensus campaign as a resumable, "
            "sqlite-checkpointed grid. --family e18 (default) sweeps "
            "the (n x detector x loss_rate x seed) matrix; --family "
            "e19 sweeps the churn grid (n x detector x loss_rate x "
            "churn_rate x topology x seed) over dynamic membership. "
            "Every finished cell is checkpointed into the sqlite "
            "store, so re-running the same command resumes an "
            "interrupted grid; completed cells are read back, not "
            "re-simulated, and the merged outcomes are byte-identical "
            "to an uninterrupted run.  Every configuration dispatches "
            "through one persistent worker-pool loop "
            "(CampaignDispatcher); 'campaign shard --index i --of k' "
            "runs one host's deterministic share of the grid and "
            "'campaign merge' folds the shard stores back together "
            "(see docs/campaigns.md)."
        ),
        epilog=(
            "examples: python -m repro campaign --db campaign.db --quick"
            "  |  python -m repro campaign --family e19 --db churn.db "
            "--quick"
            "  |  python -m repro campaign --db campaign.db --report"
            "  |  python -m repro campaign report --table --db campaign.db"
            "  |  python -m repro campaign shard --index 0 --of 2 --quick"
            "  |  python -m repro campaign merge --out merged.db "
            "campaign.shard0-of-2.db campaign.shard1-of-2.db"
        ),
    )
    parser.add_argument("--family", choices=sorted(FAMILIES), default="e18",
                        help="which campaign family to run: e18 = the "
                             "consensus matrix, e19 = the churn grid "
                             "(default e18)")
    parser.add_argument("--db", default=None,
                        help="sqlite checkpoint store (default "
                             "campaign.db; under shard mode, "
                             "campaign.shard<i>-of-<k>.db so two "
                             "shards never share a store by accident)")
    parser.add_argument("--index", type=int, default=None,
                        dest="shard_index",
                        help="shard mode: this host's shard index in "
                             "[0, K) (requires --of)")
    parser.add_argument("--of", type=int, default=None,
                        dest="shard_of", metavar="K",
                        help="shard mode: total number of shards the "
                             "grid is deterministically split across "
                             "(requires --index)")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--n", type=int, nargs="+", default=None,
                        help="process counts to sweep (default 4 8 for "
                             "e18, 4 6 for e19)")
    parser.add_argument("--detector", nargs="+", default=None,
                        help="detector class names to sweep "
                             "(default 0-OAC maj-OAC)")
    parser.add_argument("--loss-rate", type=float, nargs="+",
                        default=None, help="(default 0.1 0.3)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="replicate seeds per cell, at least 1 "
                             "(default 3 for e18, 2 for e19; 2 under "
                             "--quick)")
    parser.add_argument("--values", type=int, default=None,
                        help="|V| (default 16 for e18, 8 for e19)")
    parser.add_argument("--churn-rate", type=float, nargs="+",
                        default=None,
                        help="e19 only: per-round leave probabilities to "
                             "sweep (default 0.0 0.15 0.3)")
    parser.add_argument("--topology", nargs="+", default=None,
                        choices=("clique", "ring"),
                        help="e19 only: topologies to sweep "
                             "(default clique ring)")
    parser.add_argument("--quick", action="store_true",
                        help="shrink the grid for smoke runs (only "
                             "--seeds and --values may go with it)")
    parser.add_argument("--cell-timeout", "--timeout", type=float,
                        default=None, dest="cell_timeout",
                        help="per-cell wall-clock timeout in seconds; "
                             "overruns are checkpointed as timed_out. "
                             "Enforced at any --processes width by the "
                             "unified dispatcher pool")
    parser.add_argument("--processes", type=int, default=None,
                        help="dispatcher pool width (0/1 = a one-worker "
                             "pool; default: one per cpu), honored with "
                             "and without --cell-timeout")
    parser.add_argument("--in-process", action="store_true",
                        help="debug escape hatch: run cells serially "
                             "inside this process (no workers, timeouts "
                             "unenforced); reports stay byte-identical "
                             "to any pooled width")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="how many times a failed cell is re-run by "
                             "later resumes before it is left failed "
                             "permanently (default 2)")
    parser.add_argument("--max-cells", type=int, default=None,
                        help="run at most this many pending cells, then "
                             "stop (deterministic interruption; resume "
                             "later with the same command)")
    parser.add_argument("--report", action="store_true",
                        help="print the canonical JSON report of what "
                             "the store holds and exit without running "
                             "(also available as the 'report' "
                             "subcommand: campaign report [--table])")
    parser.add_argument("--table", action="store_true",
                        help="with report mode: render an aligned-column "
                             "table over the sqlite round_summaries "
                             "(per-cell status, attempts, rounds, mean "
                             "broadcast count) instead of JSON")
    parser.add_argument("--allow-partial", action="store_true",
                        help="with report mode: degrade gracefully over "
                             "an incomplete or damaged store — missing "
                             "and corrupt cells are skipped and listed "
                             "under a 'partial' key instead of aborting "
                             "(a complete store reports identical bytes "
                             "either way)")
    parser.add_argument("--stall-timeout", type=float, default=None,
                        help="arm the dispatcher's stall watchdog: a "
                             "busy worker silent for this many seconds "
                             "(no heartbeat) is killed and replaced and "
                             "its cell checkpointed failed — retryable "
                             "on resume — even without --cell-timeout")
    if argv and argv[0] == "merge":
        return _campaign_merge_main(argv[1:])
    if argv and argv[0] == "verify":
        return _campaign_verify_main(argv[1:])
    shard_word = bool(argv) and argv[0] == "shard"
    if shard_word:
        argv = argv[1:]
    if argv and argv[0] == "report":
        argv = ["--report"] + argv[1:]
    args = parser.parse_args(argv)
    if args.table and not args.report:
        parser.error("--table is a report view; use 'campaign report "
                     "--table' (or add --report)")
    if args.allow_partial and not args.report:
        parser.error("--allow-partial is a report view; use 'campaign "
                     "report --allow-partial' (or add --report)")
    if (args.shard_index is None) != (args.shard_of is None):
        parser.error("--index and --of go together: a shard is one "
                     "host's slice of a K-way split")
    if shard_word and args.shard_of is None:
        parser.error("'campaign shard' needs --index i --of k")
    sharded = args.shard_of is not None
    shard_index = args.shard_index if sharded else 0
    shard_count = args.shard_of if sharded else 1
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        parser.error(f"--index must be in [0, --of) and --of >= 1; "
                     f"got --index {shard_index} --of {shard_count}")
    if args.db is None:
        args.db = (f"campaign.shard{shard_index}-of-{shard_count}.db"
                   if sharded else "campaign.db")
    family = FAMILIES[args.family]
    try:
        axes = family.grid(
            quick=args.quick, n=args.n, detector=args.detector,
            loss_rate=args.loss_rate, churn_rate=args.churn_rate,
            topology=args.topology, trial=args.seeds, values=args.values,
        )
    except ConfigurationError as exc:
        parser.error(str(exc))

    if args.report:
        # A report reads a store; it must not create an empty one and
        # print an empty campaign.
        if not os.path.exists(args.db):
            print(f"report rejected: campaign store {args.db!r} does not "
                  "exist — nothing to report", file=sys.stderr)
            return 2
        # Report mode never dispatches work, so the pool never spawns.
        runner = CampaignRunner(
            family.cell_fn, db_path=args.db, base_seed=args.base_seed,
            shard_index=shard_index, shard_count=shard_count,
        )
        if args.table:
            print(runner.report_table(**axes))
        else:
            print(runner.report(allow_partial=args.allow_partial, **axes))
        return 0

    tables = run_family(
        family, db_path=args.db, axes=axes, max_cells=args.max_cells,
        base_seed=args.base_seed, processes=args.processes,
        cell_timeout=args.cell_timeout, max_retries=args.max_retries,
        in_process=args.in_process, shard_index=shard_index,
        shard_count=shard_count, stall_timeout=args.stall_timeout,
    )
    for table in tables:
        print(table.render())
    return 0


def main(argv: list) -> int:
    from .experiments import REGISTRY, render_all

    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])
    if not argv:
        print("repro — Consensus and Collision Detectors (PODC 2005)")
        print("\nAvailable experiments:")
        for experiment in REGISTRY.all():
            print(f"  {experiment.exp_id:<4} {experiment.title}")
            print(f"       ({experiment.paper_ref})")
        print("\nRun with: python -m repro all | <experiment ids>")
        print("Campaigns: python -m repro campaign --db campaign.db "
              "[--quick|--report] (resumable; see campaign --help)")
        print("Sharding:  python -m repro campaign shard --index i "
              "--of k | campaign merge --out merged.db <shard dbs> "
              "(docs/campaigns.md)")
        return 0
    if argv == ["all"]:
        print(render_all())
        return 0
    unknown = [a for a in argv if a not in REGISTRY.ids()]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"known: {', '.join(REGISTRY.ids())}", file=sys.stderr)
        return 2
    for exp_id in argv:
        print(REGISTRY.get(exp_id).render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
