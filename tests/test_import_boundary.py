"""What a process imports: exactly the code it runs.

Pool workers are forks of the campaign parent and start with the
modules it had already loaded, so a cell module imports everything its
cells run, and ``repro.experiments``, ``repro.algorithms`` and
``repro.substrate`` import nothing up front: an E18 campaign never
loads the other experiments, E1's lower-bound witnesses or any
algorithm but Algorithm 2, and an E19 campaign never loads the radio
stack.  No module needs a third-party package: the whole package
imports and runs with networkx unimportable.  Every check runs in a
fresh interpreter, so modules this test session already imported
cannot hide a leak.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
import repro.algorithms
import repro.experiments
import repro.substrate
from repro.experiments.campaign import FAMILY_INDEX, load_family

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The experiments modules an E18 campaign process loads.
CAMPAIGN_STACK = [
    "repro.experiments",
    "repro.experiments.campaign",
    "repro.experiments.dispatch",
    "repro.experiments.harness",
    "repro.experiments.scenarios",
]

IMPORT_CAMPAIGN = """
import json, sys
import repro.experiments.campaign
from repro.experiments.harness import consensus_sweep_cell
print(json.dumps({
    "experiments": sorted(m for m in sys.modules
                          if m.startswith("repro.experiments")),
    "numpy": "numpy" in sys.modules,
}))
"""

#: Algorithm modules no campaign cell runs: E18 and E19 cells run
#: Algorithm 2 only.
OTHER_ALGORITHMS = [
    f"repro.algorithms.{m}" for m in
    ("alg1", "alg3", "valuetree", "counting", "baselines", "nonanonymous")
]

#: The physical-layer modules; an E19 ring needs only the multihop one.
RADIO_STACK = [
    f"repro.substrate.{m}" for m in
    ("radio", "carrier_sense", "clock", "device")
]

# The campaign layer plus one cell module, as a campaign parent loads
# them before it forks its workers.
IMPORT_CELL_MODULE = """
import importlib, json, sys
import repro.experiments.campaign
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro."))))
"""

# A cell run the way a pool worker runs it, after the campaign parent
# imported the campaign layer and the cell's module.  numpy loads its
# ``random`` package lazily, on the first draw; that is the one import
# a cell may add, so it is loaded first and everything else is a leak.
RUN_ONE_CELL = """
import importlib, json, sys
from repro.experiments import dispatch
module, name, params, db = sys.argv[1:]
cell = getattr(importlib.import_module(module), name)
if "numpy" in sys.modules:
    import numpy.random
before = set(sys.modules)
status = dispatch.execute_cell_job(
    cell, json.loads(params), 5, {"sqlite_db": db}, db)[0]
print(json.dumps({"status": status,
                  "new": sorted(set(sys.modules) - before)}))
"""

RUN_E18_CAMPAIGN = """
import json, sys
from repro.__main__ import main
code = main(["campaign", "--family", "e18", "--db", sys.argv[1],
             "--quick", "--seeds", "1", "--max-cells", "2",
             "--in-process"])
print(json.dumps({
    "code": code,
    "registry": "repro.experiments.registry" in sys.modules,
    "witnesses": any(m.startswith("repro.lowerbounds") for m in sys.modules),
}))
"""

# Every repro module imported, E16 rendered and one E19 ring cell run,
# in an interpreter where importing networkx fails.
WITHOUT_NETWORKX = """
import hashlib, importlib, importlib.abc, json, pkgutil, sys

class NoNetworkx(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "networkx":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, NoNetworkx())
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
from repro.experiments import dispatch
from repro.experiments.churn import churn_sweep_cell
from repro.experiments.registry import REGISTRY
db = sys.argv[1]
print(json.dumps({
    "e16": hashlib.sha256(REGISTRY.get("E16").render().encode()).hexdigest(),
    "ring": dispatch.execute_cell_job(
        churn_sweep_cell, {"topology": "ring"}, 5, {"sqlite_db": db}, db)[0],
    "networkx": any(m.partition(".")[0] == "networkx" for m in sys.modules),
}))
"""


def run_fresh(code, *args, **env):
    """Run ``code`` in a fresh interpreter; the JSON its last line prints."""
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=environ,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_e18_campaign_stack_loads_no_other_experiment():
    loaded = run_fresh(IMPORT_CAMPAIGN)
    assert loaded["experiments"] == CAMPAIGN_STACK


def test_a_forced_pure_python_process_never_loads_numpy():
    loaded = run_fresh(IMPORT_CAMPAIGN, REPRO_PURE_PYTHON="1")
    assert loaded["experiments"] == CAMPAIGN_STACK
    assert not loaded["numpy"]


@pytest.mark.parametrize("module, needed, unused", [
    ("repro.experiments.harness", ["repro.algorithms.alg2"],
     OTHER_ALGORITHMS),
    ("repro.experiments.churn",
     ["repro.algorithms.alg2", "repro.substrate.multihop"],
     OTHER_ALGORITHMS + RADIO_STACK),
], ids=["e18", "e19"])
def test_a_campaign_loads_only_its_own_algorithm_and_substrate(
    module, needed, unused
):
    loaded = run_fresh(IMPORT_CELL_MODULE, module)
    assert set(needed) <= set(loaded)
    assert sorted(set(unused) & set(loaded)) == []


@pytest.mark.parametrize("module, name, params", [
    ("repro.experiments.harness", "consensus_sweep_cell", {}),
    ("repro.experiments.churn", "churn_sweep_cell", {"topology": "clique"}),
    ("repro.experiments.churn", "churn_sweep_cell", {"topology": "ring"}),
], ids=["e18", "e19-clique", "e19-ring"])
def test_running_a_cell_imports_nothing_its_module_did_not(
    tmp_path, module, name, params
):
    ran = run_fresh(RUN_ONE_CELL, module, name, json.dumps(params),
                    str(tmp_path / "c.db"))
    assert ran == {"status": "done", "new": []}


def test_an_e18_cli_campaign_loads_neither_the_registry_nor_the_witnesses(
    tmp_path
):
    ran = run_fresh(RUN_E18_CAMPAIGN, str(tmp_path / "c.db"))
    assert ran == {"code": 0, "registry": False, "witnesses": False}


def test_the_whole_package_runs_without_networkx(tmp_path):
    from repro.experiments.registry import REGISTRY

    e16 = REGISTRY.get("E16").render().encode()
    ran = run_fresh(WITHOUT_NETWORKX, str(tmp_path / "c.db"))
    assert ran == {"e16": hashlib.sha256(e16).hexdigest(), "ring": "done",
                   "networkx": False}


def test_every_public_name_resolves():
    for package in (repro.experiments, repro.algorithms, repro.substrate):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
        assert set(package.__all__) <= set(dir(package))
        with pytest.raises(AttributeError, match="no attribute 'E20'"):
            package.E20


def test_aliased_termination_bounds_resolve_to_their_modules():
    from repro.algorithms import alg1, alg2, alg3, nonanonymous

    for alias, module in (
        ("alg1_termination_bound", alg1),
        ("alg2_termination_bound", alg2),
        ("alg3_termination_bound", alg3),
        ("nonanon_termination_bound", nonanonymous),
    ):
        assert getattr(repro.algorithms, alias) is module.termination_bound


def test_the_family_index_is_the_registry_s_records():
    from repro.experiments.registry import REGISTRY

    assert sorted(FAMILY_INDEX) == ["e18", "e19"]
    for name in FAMILY_INDEX:
        family = load_family(name)
        assert family.name == name
        assert REGISTRY.get(name.upper()).run.args == (family,)
