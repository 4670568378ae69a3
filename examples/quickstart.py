#!/usr/bin/env python3
"""Quickstart: fault-tolerant consensus over an unreliable radio channel.

Five anonymous devices, each holding a proposed configuration value, must
agree on one — while the channel drops 30% of messages, the collision
detector produces false positives for a while, and the contention manager
is still thrashing.  This is Algorithm 2 of the paper (zero-complete,
eventually-accurate detection), the most broadly applicable algorithm:
every practical detector class can run it.

Run:  python examples/quickstart.py
"""

from repro import evaluate, quick_consensus


def main() -> None:
    values = ["channel-1", "channel-6", "channel-11"]
    result = quick_consensus(values=values, n=5, loss_rate=0.3, seed=7)

    report = evaluate(result)
    print("proposals :", result.initial_values)
    print("decisions :", result.decisions)
    print("rounds    :", result.rounds)
    print("agreement :", report.agreement)
    print("validity  :", report.strong_validity)
    print("terminated:", report.termination)
    assert report.solved, report.problems
    print("\nconsensus reached on:",
          next(iter(result.decided_values().values())))

    # Scaling up: sweep a whole (n x detector x loss_rate x seed) grid
    # as a *resumable campaign* — every finished cell is checkpointed in
    # a sqlite store, so an interrupted run continues where it stopped.
    # Every configuration runs the same unified dispatcher loop
    # (a persistent selector-driven worker pool with per-cell deadlines
    # and completion-order checkpointing); the flags only pick its shape:
    #
    #   --processes    --cell-timeout   what runs
    #   ------------   --------------   ----------------------------------
    #   N >= 2         any              N reused workers; overruns are
    #                                   checkpointed timed_out while the
    #                                   grid keeps moving at full width
    #   0 / 1          any              the same loop on one reused
    #                                   worker — deadlines still enforced
    #   --in-process   (unenforced)     debug escape hatch: cells run
    #                                   serially inside this process
    #
    # Reports are byte-identical across every row of that table, and
    # failed cells are retried on resume only --max-retries times before
    # they are left failed permanently:
    #
    #   python -m repro campaign --db campaign.db --quick \
    #       --processes 4 --cell-timeout 30 --max-retries 2
    #   python -m repro campaign --db campaign.db --report
    #
    # or from code:
    #
    #   from repro.experiments import CampaignRunner, consensus_sweep_cell
    #   runner = CampaignRunner(consensus_sweep_cell, db_path="campaign.db",
    #                           processes=4, cell_timeout=30.0)
    #   outcomes = runner.resume(n=[4, 8], detector=["0-OAC"],
    #                            loss_rate=[0.1, 0.3], trial=range(3))
    #
    # Per-cell round analytics come straight out of the store as an
    # aligned table (status, attempts, rounds, mean broadcast count):
    #
    #   python -m repro campaign report --table --db campaign.db
    #
    # Speed: the engine is pure python with no third-party dependency;
    # every round takes one receive stage, and executions replay
    # bit-for-bit given the seeds, under every record policy.  Campaign
    # stores are stamped with the random stream family they were filled
    # with (rng_backend "pure"); a store from the retired numpy backend
    # is refused by name rather than silently resumed.
    # Dynamic membership: every scenario above has a fixed process set,
    # but the environment also takes a *churn adversary* — processes
    # leave mid-execution and (re)join with fresh state, forgetting
    # everything including their decisions (decisions that depart with
    # a process are kept as "ghost decisions" so system-level agreement
    # stays checkable).  Built-ins live next to the crash adversaries:
    #
    #   from repro.adversary.churn import SeededChurn, ScheduledChurn
    #   from repro.experiments import ecf_environment
    #   env = ecf_environment(n=6, loss_rate=0.2, seed=1,
    #                         churn=SeededChurn(0.2, seed=102, deadline=6))
    #
    # The loss adversary is consulted over the full index set every
    # round, absent pids included, so churn never shifts its randomness.
    # There is also a ring overlay for multihop scenarios — successor lists plus
    # Chord-style finger tables:
    #
    #   from repro.substrate.multihop import MultihopNetwork
    #   ring = MultihopNetwork.ring(32, successors=2, fingers=True)
    #
    # and an experiment family over the whole axis, E19: agreement
    # quality vs churn rate x loss rate x detector x topology, run
    # through the same resumable campaign layer:
    #
    #   python -m repro campaign --family e19 --db churn.db --quick
    #   python -m repro campaign --family e19 --db churn.db --report --table
    print("\nnext: resumable campaigns -> python -m repro campaign --help")


if __name__ == "__main__":
    main()
