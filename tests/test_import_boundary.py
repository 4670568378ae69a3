"""What a process imports: exactly the code it runs.

Pool workers are forks of the campaign parent and start with the
modules it had already loaded, so a cell module imports everything its
cells run, and ``repro.experiments`` imports nothing up front: an E18
campaign never loads the other experiments, nor E1's lower-bound
witnesses.  No module needs a third-party package: the whole package
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
import repro.experiments
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
    for name in repro.experiments.__all__:
        assert getattr(repro.experiments, name) is not None, name
    assert set(repro.experiments.__all__) <= set(dir(repro.experiments))
    with pytest.raises(AttributeError, match="no attribute 'E20'"):
        repro.experiments.E20


def test_the_family_index_is_the_registry_s_records():
    from repro.experiments.registry import REGISTRY

    assert sorted(FAMILY_INDEX) == ["e18", "e19"]
    for name in FAMILY_INDEX:
        family = load_family(name)
        assert family.name == name
        assert REGISTRY.get(name.upper()).run.args == (family,)
