"""Faultline: seeded, deterministic fault injection for the campaign stack.

The repo's contract is that campaign results are *provably*
reproducible — resume after any interruption and ``report()`` bytes
equal a clean run.  Faultline exists to attack that contract
systematically instead of with hand-rolled kill tests: a
:class:`FaultPlan` composes injectors — worker SIGKILL/SIGSTOP
mid-cell, spawn failure, pipe EOF, transient sqlite
``OperationalError`` (locked/busy/disk-full), slow cells, and merges
interrupted mid-ATTACH — and the dispatcher, the sqlite sink, and the
shard merge all consult it at fixed *injection sites*.

Determinism is the whole design.  A plan never draws from a shared RNG
stream (parallel completion order would make that schedule
irreproducible); instead:

* a :class:`FaultClock` counts occurrences per ``(site, key)`` — keys
  are stable identities (``cell:<index>``, ``spawn``, ``commit``,
  ``shard:<i>``), so each key's tick stream is sequential within its
  owner no matter how the pool interleaves cells;
* probabilistic rules gate on a SHA-256 draw over
  ``(seed, site, key, count, rule)`` — a pure function of stable
  values, so whether a fault fires at a given injection point is
  identical in every run, every process, every platform;
* every fired injection is appended to the plan's in-memory ``log``
  (and, when ``log_path`` is set, to a JSONL file that worker
  processes append to as well), so two runs of the same plan + seed
  can be compared injection point by injection point.

Faults are **opt-in twice over**: nothing fires unless a component was
handed a plan (``fault_plan=`` kwarg) or the ``REPRO_FAULTLINE``
environment variable names a plan JSON file.  The hooks themselves are
a ``None``-check when no plan is active, and the e18 bench gates their
installed-but-idle overhead below 3%.

Example plan spec (JSON-serialisable, committed for the CI chaos leg)::

    {
      "seed": 7,
      "rules": [
        {"site": "dispatch", "match": "cell:*", "p": 0.25, "times": 1,
         "action": {"kind": "sigkill"}},
        {"site": "sqlite", "match": "*", "p": 0.3, "times": 2,
         "action": {"kind": "operational-error", "flavor": "locked"}}
      ]
    }

Sites and the actions they honour:

======== ============================== ===============================
site     key                            actions
======== ============================== ===============================
spawn    ``spawn``                      ``die`` (worker exits at birth)
dispatch ``cell:<index>``               ``sigkill``, ``sigstop``
cell     ``cell:<index>`` (worker side) ``sleep`` (``seconds``)
cell-reply ``cell:<index>`` (worker)    ``eof`` (exit without replying)
sqlite   ``<operation>``                ``operational-error``
                                        (``flavor``: locked / busy /
                                        disk-full), ``sigkill`` (kills
                                        the calling process)
merge    ``shard:<index>``              ``error``, ``sleep``
======== ============================== ===============================
"""

from __future__ import annotations

import dataclasses
import fnmatch
import hashlib
import json
import os
import signal
import sqlite3
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.errors import ConfigurationError

#: Environment variable naming a fault-plan JSON file.  Read by every
#: component that accepts a ``fault_plan=`` kwarg when none was passed
#: explicitly; inherited by campaign worker processes, so one exported
#: variable arms the whole stack (the CI chaos smoke rides this).
ENV_VAR = "REPRO_FAULTLINE"

#: The injection sites the campaign stack consults.
SITES: Tuple[str, ...] = (
    "spawn", "dispatch", "cell", "cell-reply", "sqlite", "merge",
)

#: sqlite error texts the ``operational-error`` action can raise —
#: the transient flavors the sink's retry-with-backoff must absorb.
OPERATIONAL_FLAVORS: Dict[str, str] = {
    "locked": "database is locked",
    "busy": "database is busy",
    "disk-full": "database or disk is full",
}


class FaultInjected(RuntimeError):
    """An injected hard failure (the ``error`` action) — deliberately
    *not* a :class:`~repro.core.errors.ConfigurationError`, because it
    simulates an arbitrary crash, not a misconfiguration."""


class FaultClock:
    """Deterministic occurrence counter per ``(site, key)``.

    Not wall-clock time: logical injection-point time.  Each
    ``tick(site, key)`` returns the 1-based occurrence number of that
    site/key pair in this process, which is reproducible because each
    key's stream is sequential within its owner (a cell is dispatched
    once per attempt, a commit retries in order) even when the pool
    interleaves different keys nondeterministically.
    """

    def __init__(self) -> None:
        self._counts: Dict[Tuple[str, str], int] = {}

    def tick(self, site: str, key: str) -> int:
        pair = (site, key)
        self._counts[pair] = self._counts.get(pair, 0) + 1
        return self._counts[pair]

    def count(self, site: str, key: str) -> int:
        """Occurrences seen so far (0 if never ticked)."""
        return self._counts.get((site, key), 0)

    def total(self) -> int:
        """Injection-point visits across all ``(site, key)`` streams —
        the exact number of times the stack consulted this plan."""
        return sum(self._counts.values())


def _draw(seed: int, site: str, key: str, count: int, rule: int) -> float:
    """Uniform [0, 1) from stable identities — no RNG stream order.

    SHA-256 like :func:`~repro.experiments.harness.cell_seed`, so the
    same injection point draws the same number in every process, on
    every platform, independent of scheduling.
    """
    text = f"{int(seed)}|{site}|{key}|{int(count)}|{int(rule)}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclasses.dataclass(frozen=True)
class FaultRule:
    """One injector: *where* (site + key glob), *when* (occurrence
    filter, per-key budget, seeded probability), and *what* (action).

    ``count_in`` restricts firing to specific occurrence numbers of the
    ``(site, key)`` stream (e.g. ``[1, 2]`` = the first two commits of
    each cell fail, the third succeeds — the transient-error shape the
    retry-with-backoff machinery exists for).  ``times`` caps how often
    the rule fires per key.  ``p`` gates each eligible occurrence on
    the seeded draw.
    """

    site: str
    action: Dict[str, Any]
    match: str = "*"
    p: float = 1.0
    count_in: Optional[Tuple[int, ...]] = None
    times: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known sites: {SITES}"
            )
        if not isinstance(self.action, dict) or "kind" not in self.action:
            raise ConfigurationError(
                f"fault action must be a dict with a 'kind', "
                f"got {self.action!r}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.p}"
            )

    def to_spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "site": self.site, "match": self.match,
            "action": dict(self.action),
        }
        if self.p != 1.0:
            spec["p"] = self.p
        if self.count_in is not None:
            spec["count_in"] = list(self.count_in)
        if self.times is not None:
            spec["times"] = self.times
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultRule":
        unknown = set(spec) - {
            "site", "match", "action", "p", "count_in", "times"
        }
        if unknown:
            raise ConfigurationError(
                f"fault rule has unknown field(s) {sorted(unknown)}: {spec!r}"
            )
        try:
            site = spec["site"]
            action = dict(spec["action"])
        except KeyError as exc:
            raise ConfigurationError(
                f"fault rule needs 'site' and 'action': {spec!r}"
            ) from exc
        count_in = spec.get("count_in")
        return cls(
            site=site,
            action=action,
            match=spec.get("match", "*"),
            p=float(spec.get("p", 1.0)),
            count_in=None if count_in is None else tuple(
                int(c) for c in count_in
            ),
            times=None if spec.get("times") is None else int(spec["times"]),
        )


class FaultPlan:
    """A seeded, replayable schedule of infrastructure faults.

    The campaign stack calls :meth:`fire` at each injection site; the
    plan answers with an action dict (fault!) or ``None`` (proceed).
    Whether a given point fires is a pure function of
    ``(seed, site, key, occurrence, rule)`` — see the module docstring
    — so running the same plan spec twice over the same campaign
    produces the same injection log, which the property tests compare
    byte for byte.

    One plan instance is one process's schedule: worker processes
    reconstruct their own instance from :meth:`to_spec` (or the
    ``REPRO_FAULTLINE`` file) with fresh clocks, which is exactly right
    because their injection sites (cell execution, round streaming) are
    keyed per cell, not per process.  Set ``log_path`` to collect the
    fired injections of *all* processes in one JSONL file (appends of
    one line are atomic well below ``PIPE_BUF``); compare runs on the
    sorted lines, since processes interleave.
    """

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        seed: int = 0,
        log_path: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        self.log_path = log_path
        self.name = name
        self.clock = FaultClock()
        #: Fired injections, in this process's firing order:
        #: ``{"site", "key", "count", "action"}`` dicts.
        self.log: List[Dict[str, Any]] = []
        self._fired: Dict[Tuple[int, str], int] = {}

    # -- the one hook the stack calls ----------------------------------
    def fire(self, site: str, key: str) -> Optional[Dict[str, Any]]:
        """Tick the clock at one injection point; maybe return an action.

        First matching rule wins.  Returns a *copy* of the action dict
        (callers may annotate it) or ``None``.
        """
        count = self.clock.tick(site, key)
        for index, rule in enumerate(self.rules):
            if rule.site != site:
                continue
            if not fnmatch.fnmatchcase(key, rule.match):
                continue
            if rule.count_in is not None and count not in rule.count_in:
                continue
            fired_key = (index, key)
            if (rule.times is not None
                    and self._fired.get(fired_key, 0) >= rule.times):
                continue
            if (rule.p < 1.0
                    and _draw(self.seed, site, key, count, index) >= rule.p):
                continue
            self._fired[fired_key] = self._fired.get(fired_key, 0) + 1
            event = {
                "site": site, "key": key, "count": count,
                "action": dict(rule.action),
            }
            self.log.append(event)
            if self.log_path:
                with open(self.log_path, "a") as fh:
                    fh.write(json.dumps(event, sort_keys=True) + "\n")
            return dict(rule.action)
        return None

    # -- convenience raisers (keep the call sites one-liners) ----------
    def sqlite_check(self, operation: str) -> None:
        """Raise a transient :class:`sqlite3.OperationalError` if an
        ``operational-error`` action fires for this operation.

        A ``sigkill`` action SIGKILLs the calling process instead: a
        crash at a store-statement boundary, before any statement of
        the transaction being written runs.  Inside a campaign only the
        parent writes the store, so that is the process it kills; use
        it only where that process is a disposable child.
        """
        action = self.fire("sqlite", operation)
        if action is None:
            return
        if action["kind"] == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action["kind"] != "operational-error":
            raise ConfigurationError(
                f"sqlite fault site only honours 'operational-error' and "
                f"'sigkill', got {action!r}"
            )
        flavor = action.get("flavor", "locked")
        try:
            message = OPERATIONAL_FLAVORS[flavor]
        except KeyError:
            raise ConfigurationError(
                f"unknown sqlite fault flavor {flavor!r}; known: "
                f"{sorted(OPERATIONAL_FLAVORS)}"
            ) from None
        raise sqlite3.OperationalError(f"{message} [injected]")

    # -- (de)serialisation ---------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {
            "seed": self.seed,
            "rules": [rule.to_spec() for rule in self.rules],
        }
        if self.log_path:
            spec["log_path"] = self.log_path
        if self.name:
            spec["name"] = self.name
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"fault plan spec must be a JSON object, got {type(spec)}"
            )
        unknown = set(spec) - {"seed", "rules", "log_path", "name"}
        if unknown:
            raise ConfigurationError(
                f"fault plan spec has unknown field(s) {sorted(unknown)}"
            )
        return cls(
            rules=[FaultRule.from_spec(r) for r in spec.get("rules", ())],
            seed=int(spec.get("seed", 0)),
            log_path=spec.get("log_path"),
            name=spec.get("name"),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        try:
            with open(path) as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot load fault plan from {path!r}: {exc}"
            ) from exc
        return cls.from_spec(spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or f"{len(self.rules)} rule(s)"
        return f"FaultPlan({label}, seed={self.seed})"


# ----------------------------------------------------------------------
# Process-wide plan resolution
# ----------------------------------------------------------------------
_installed: Optional[FaultPlan] = None
_env_cache: Dict[str, FaultPlan] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Install *plan* as this process's ambient fault plan.

    Used by dispatcher workers (which receive the plan spec over the
    spawn arguments) so the :class:`~repro.core.records.SqliteSink`
    instances a cell function creates deep inside its call stack pick
    the plan up without any kwarg threading.  ``install(None)``
    uninstalls.
    """
    global _installed
    _installed = plan


def installed() -> Optional[FaultPlan]:
    """The ambient plan installed in this process, if any."""
    return _installed


def resolve(explicit: Optional[FaultPlan] = None) -> Optional[FaultPlan]:
    """The active fault plan: explicit kwarg > installed > environment.

    The environment path (``REPRO_FAULTLINE`` naming a plan JSON file)
    is how the CLI and worker processes opt in without code changes;
    the loaded plan is cached per path so one process shares one clock
    across all its injection sites.  Returns ``None`` when no plan is
    active — the hot-path hooks reduce to this ``None``-check.
    """
    if explicit is not None:
        return explicit
    if _installed is not None:
        return _installed
    path = os.environ.get(ENV_VAR)
    if not path:
        return None
    if path not in _env_cache:
        _env_cache[path] = FaultPlan.from_file(path)
    return _env_cache[path]


# ----------------------------------------------------------------------
# Built-in plans: the property-test matrix and the CI chaos leg
# ----------------------------------------------------------------------
#: Named plan specs covering every injector.  Probability-gated rules
#: use key globs (``cell:*``) so the same plan applies to any grid —
#: which cells get hit is a stable function of (seed, key), never of
#: scheduling.  Every plan is *transient by construction* (``times``
#: caps per key), so a faulted campaign plus one clean resume always
#: converges to the undisturbed reference — the invariant the property
#: matrix in ``tests/test_faultline.py`` asserts.
BUILTIN_PLAN_SPECS: Dict[str, Dict[str, Any]] = {
    # Workers SIGKILLed mid-cell: EOF on the pipe, cell checkpoints
    # ``failed``, the pool refills, a clean resume re-runs it.
    "worker-crash": {
        "seed": 101,
        "rules": [
            {"site": "dispatch", "match": "cell:*", "p": 0.3, "times": 1,
             "action": {"kind": "sigkill"}},
        ],
    },
    # Workers SIGSTOPped mid-cell: heartbeats go silent, the stall
    # watchdog escalates terminate->kill->replace even with no
    # cell_timeout armed.
    "worker-stall": {
        "seed": 202,
        "rules": [
            {"site": "dispatch", "match": "cell:*", "p": 0.2, "times": 1,
             "action": {"kind": "sigstop"}},
        ],
    },
    # Workers that exit without replying: the pipe-EOF injector.
    "pipe-eof": {
        "seed": 303,
        "rules": [
            {"site": "cell-reply", "match": "cell:*", "p": 0.25, "times": 1,
             "action": {"kind": "eof"}},
        ],
    },
    # A couple of fresh spawns die at birth — below the breaker's
    # budget, so the pool backs off, respawns, and completes.
    "spawn-flaky": {
        "seed": 404,
        "rules": [
            {"site": "spawn", "match": "spawn", "count_in": [1, 3],
             "action": {"kind": "die"}},
        ],
    },
    # Transient sqlite adversity on every store operation: the first
    # two attempts of a key may fail locked/busy/disk-full; the seeded
    # backoff-with-jitter retry in SqliteSink absorbs them.
    "sqlite-transient": {
        "seed": 505,
        "rules": [
            {"site": "sqlite", "match": "*", "p": 0.4, "count_in": [1],
             "action": {"kind": "operational-error", "flavor": "locked"}},
            {"site": "sqlite", "match": "*", "p": 0.2, "count_in": [2],
             "action": {"kind": "operational-error", "flavor": "busy"}},
            {"site": "sqlite", "match": "*", "p": 0.1, "count_in": [3],
             "action": {"kind": "operational-error", "flavor": "disk-full"}},
        ],
    },
    # Slow cells: a wall-clock beat on the worker side.  Harmless to
    # results by design — it must be, for reports to stay byte-stable.
    "slow-cells": {
        "seed": 606,
        "rules": [
            {"site": "cell", "match": "cell:*", "p": 0.3, "times": 1,
             "action": {"kind": "sleep", "seconds": 0.05}},
        ],
    },
    # Everything at once, at lower rates: the kitchen sink.
    "kitchen-sink": {
        "seed": 707,
        "rules": [
            {"site": "dispatch", "match": "cell:*", "p": 0.12, "times": 1,
             "action": {"kind": "sigkill"}},
            {"site": "dispatch", "match": "cell:*", "p": 0.08, "times": 1,
             "action": {"kind": "sigstop"}},
            {"site": "cell-reply", "match": "cell:*", "p": 0.1, "times": 1,
             "action": {"kind": "eof"}},
            {"site": "spawn", "match": "spawn", "count_in": [2],
             "action": {"kind": "die"}},
            {"site": "sqlite", "match": "*", "p": 0.25, "count_in": [1],
             "action": {"kind": "operational-error", "flavor": "locked"}},
            {"site": "cell", "match": "cell:*", "p": 0.15, "times": 1,
             "action": {"kind": "sleep", "seconds": 0.02}},
        ],
    },
}


def builtin_plan_names() -> Tuple[str, ...]:
    """The built-in plan names, in a stable order."""
    return tuple(BUILTIN_PLAN_SPECS)


def builtin_plan(
    name: str,
    seed: Optional[int] = None,
    log_path: Optional[str] = None,
) -> FaultPlan:
    """Instantiate one built-in plan (optionally re-seeded/logged)."""
    try:
        spec = json.loads(json.dumps(BUILTIN_PLAN_SPECS[name]))
    except KeyError:
        raise ConfigurationError(
            f"unknown built-in fault plan {name!r}; known: "
            f"{sorted(BUILTIN_PLAN_SPECS)}"
        ) from None
    if seed is not None:
        spec["seed"] = int(seed)
    if log_path is not None:
        spec["log_path"] = log_path
    spec["name"] = name
    return FaultPlan.from_spec(spec)
