"""Span tracing for the benchmark, installed from outside the program.

The program under test carries no instrumentation.  A :class:`Tracer`
wraps the public functions of each layer (class methods and module
attributes) for the length of a traced run, and :func:`restore` puts the
originals back.  Three rules keep the numbers honest:

* **Outermost only.**  A span name that is already open on the stack is
  not opened again, so ``EventualCollisionFreedom`` delegating to
  ``IIDLoss``, or a default ``advise_array`` delegating to ``advise``,
  is one ``loss.resolve``/``detector.advise`` span, not two.
* **Self time.**  Every closed span adds its duration to the span below
  it on the stack, so a layer's self time is its total minus the time
  its direct child spans cover (:func:`self_seconds`).
* **Per-process, then merged.**  Wrappers are installed before the
  dispatcher forks its workers, so workers inherit them; a fork resets
  the child's tallies.  Each worker flushes its tallies to
  ``<out_dir>/<pid>.json`` after every cell (:class:`TracedCell`), and
  the parent folds those files into its own tallies with :func:`merge`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(owner, attribute, original)`` triples recorded by :func:`install`.
Patches = List[Tuple[Any, str, Any]]


class Tracer:
    """In-memory span tallies for one process.

    ``totals`` maps a span name to ``[calls, seconds, child_seconds]``;
    ``counters`` holds plain sums added with :meth:`add`.  Nothing is
    written anywhere until :meth:`flush`.  Wrappers record only while
    ``active`` is true, so set-up and result checks stay out of the
    tallies.
    """

    def __init__(
        self,
        out_dir: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.out_dir = out_dir
        self.clock = clock
        self.active = True
        self._reset()
        # A forked worker starts with empty tallies: the parent's open
        # spans and totals belong to the parent.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._open: set = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name`` (outermost call only)."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active or name in tracer._open:
                return fn(*args, **kwargs)
            tracer._open.add(name)
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                tracer._open.discard(name)
                tally = tracer.totals.get(name)
                if tally is None:
                    tally = tracer.totals[name] = [0, 0.0, 0.0]
                tally[0] += 1
                tally[1] += duration
                tally[2] += frame[0]
                if stack:
                    stack[-1][0] += duration

        return spanned

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name`` (while active)."""
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + value

    def flush(self) -> None:
        """Write this process's tallies to ``<out_dir>/<pid>.json``.

        Written to a temporary name and renamed, so a worker killed
        mid-flush leaves its previous complete file behind.
        """
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"totals": self.totals, "counters": self.counters},
                      fh)
        os.replace(tmp, path)


class TracedCell:
    """A campaign cell function that flushes the worker's spans.

    Returns the wrapped function's payload object unchanged, so the
    campaign's report bytes are those of the untraced function.
    """

    def __init__(self, fn: Callable[[Dict[str, Any], int], Any],
                 tracer: Tracer) -> None:
        self.fn = fn
        self.tracer = tracer

    def __call__(self, params: Dict[str, Any], seed: int) -> Any:
        payload = self.fn(params, seed)
        self.tracer.flush()
        return payload


def merge(tracer: Tracer) -> Dict[str, Any]:
    """The parent's tallies plus every worker file in ``out_dir``."""
    totals = {k: list(v) for k, v in tracer.totals.items()}
    counters = dict(tracer.counters)
    if tracer.out_dir is not None:
        mine = f"{os.getpid()}.json"
        for entry in sorted(os.listdir(tracer.out_dir)):
            # The parent's own file (cells run in-process) would count
            # its in-memory tallies twice.
            if not entry.endswith(".json") or entry == mine:
                continue
            with open(os.path.join(tracer.out_dir, entry)) as fh:
                data = json.load(fh)
            for name, (calls, seconds, child) in data["totals"].items():
                tally = totals.setdefault(name, [0, 0.0, 0.0])
                tally[0] += calls
                tally[1] += seconds
                tally[2] += child
            for name, value in data["counters"].items():
                counters[name] = counters.get(name, 0) + value
    return {"totals": totals, "counters": counters}


def calls(merged: Dict[str, Any], name: str) -> int:
    return int(merged["totals"].get(name, (0, 0.0, 0.0))[0])


def seconds(merged: Dict[str, Any], name: str) -> float:
    return float(merged["totals"].get(name, (0, 0.0, 0.0))[1])


def self_seconds(merged: Dict[str, Any], name: str) -> float:
    """Span time minus the time its direct child spans cover."""
    _, total, child = merged["totals"].get(name, (0, 0.0, 0.0))
    return float(total - child)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _subclasses(base: type) -> List[type]:
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def wrap_attr(tracer: Tracer, patches: Patches, owner: Any, attr: str,
              name: str) -> None:
    """Replace ``owner.attr`` by its span-wrapped form, recording the undo.

    Class attributes are looked up in the class's own ``__dict__`` so the
    ``classmethod``/``staticmethod`` descriptor is kept, and a class that
    merely inherits ``attr`` is left alone (its base is wrapped instead):
    the program's "which class defines this method" checks see the same
    answer before and after.
    """
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
    else:
        raw = getattr(owner, attr)
    if isinstance(raw, (classmethod, staticmethod)):
        new = type(raw)(tracer.wrap(name, raw.__func__))
    else:
        new = tracer.wrap(name, raw)
    patches.append((owner, attr, raw))
    setattr(owner, attr, new)


def _wrap_defined(tracer: Tracer, patches: Patches, base: type,
                  attrs: Tuple[str, ...], name: str) -> None:
    for cls in _subclasses(base):
        for attr in attrs:
            if attr in cls.__dict__:
                wrap_attr(tracer, patches, cls, attr, name)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer the benchmark reports on; returns the undo list.

    Call before the dispatcher forks so workers inherit the wrappers,
    and pass the result to :func:`restore` afterwards.
    """
    import sqlite3

    # Import every module whose classes are wrapped, so subclass
    # discovery sees the classes the cell functions use.
    import repro.algorithms  # noqa: F401
    import repro.detectors.eventual  # noqa: F401
    import repro.substrate.device  # noqa: F401
    from repro.adversary.churn import ChurnAdversary
    from repro.adversary.loss import LossAdversary
    from repro.core import environment, execution, records
    from repro.core.process import Process
    from repro.detectors.detector import CollisionDetector
    from repro.experiments import campaign, scenarios
    from repro.substrate import multihop

    patches: Patches = []
    w = functools.partial(wrap_attr, tracer, patches)

    # experiments.harness / campaign: grid derivation and scenarios.
    w(campaign.CampaignRunner, "cells", "grid.derive")
    w(campaign, "cell_tag", "grid.derive")
    w(scenarios, "ecf_environment", "scenario.build")
    w(environment.Environment, "__init__", "scenario.build")
    w(multihop.MultihopNetwork, "ring", "scenario.build")
    w(multihop.MultihopLayer, "__init__", "scenario.build")
    w(campaign.CampaignRunner, "resume", "campaign.resume")
    w(campaign.CampaignRunner, "report", "campaign.report")
    w(campaign.CampaignRunner, "report_table", "campaign.report")

    # core.records: the store.
    w(records.SqliteSink, "__call__", "store.write_round")
    w(records.SqliteSink, "record_cell", "store.record_cell")
    w(records.SqliteSink, "clear_rounds", "store.clear_rounds")
    w(records.SqliteSink, "get_cells", "store.get_cells")
    w(records.SqliteSink, "round_aggregates", "store.round_aggregates")
    w(sqlite3, "connect", "store.connect")

    # core.execution: the engine.
    w(execution.ExecutionEngine, "step", "engine.step")
    original_run = execution.ExecutionEngine.__dict__["run"]

    @functools.wraps(original_run)
    def counted_run(engine, *args, **kwargs):
        result = original_run(engine, *args, **kwargs)
        tracer.add("engine.kernel_rounds", engine.kernel_rounds)
        tracer.add("engine.rounds", engine.round)
        return result

    patches.append((execution.ExecutionEngine, "run", original_run))
    execution.ExecutionEngine.run = counted_run

    # substrate.multihop first, so the loss/detector spans wrap it.
    w(multihop.MultihopLayer, "losses_for_round", "substrate.multihop")
    w(multihop.MultihopLayer, "advise_array", "substrate.multihop")
    _wrap_defined(tracer, patches, LossAdversary, ("losses_for_round",),
                  "loss.resolve")
    _wrap_defined(tracer, patches, CollisionDetector,
                  ("advise", "advise_array"), "detector.advise")
    _wrap_defined(tracer, patches, Process, ("message",), "process.message")
    _wrap_defined(tracer, patches, Process,
                  ("transition", "transition_array"), "process.transition")
    _wrap_defined(tracer, patches, ChurnAdversary, ("events",),
                  "churn.events")
    return patches


def restore(patches: Patches) -> None:
    """Undo :func:`install` (or any :func:`wrap_attr` calls), newest first."""
    while patches:
        owner, attr, raw = patches.pop()
        setattr(owner, attr, raw)
