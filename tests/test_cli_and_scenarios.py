"""Tests for the CLI entry point and the canned scenario builders."""

import subprocess
import sys

import pytest

from repro.__main__ import main as cli_main
from repro.detectors.classes import HALF_OAC, MAJ_OAC, ZERO_AC, ZERO_OAC
from repro.detectors.properties import AccuracyMode, Completeness
from repro.experiments.scenarios import (
    ecf_environment,
    maj_oac_environment,
    nocf_environment,
    zero_oac_environment,
)


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
def test_ecf_environment_aligns_all_stabilization_rounds():
    env = ecf_environment(4, ZERO_OAC, cst=7)
    assert env.communication_stabilization_time() == 7
    assert env.n == 4


def test_ecf_environment_with_accurate_class():
    env = ecf_environment(3, ZERO_AC, cst=5)
    assert env.detector.accuracy is AccuracyMode.ALWAYS
    assert env.communication_stabilization_time() == 5


def test_ecf_environment_custom_indices():
    env = ecf_environment(3, HALF_OAC, indices=(7, 9, 11))
    assert env.indices == (7, 9, 11)


def test_maj_and_zero_builders_pick_the_right_class():
    assert maj_oac_environment(2).detector.completeness is (
        Completeness.MAJORITY
    )
    assert zero_oac_environment(2).detector.completeness is (
        Completeness.ZERO
    )


def test_nocf_environment_shape():
    env = nocf_environment(3)
    assert env.detector.completeness is Completeness.ZERO
    assert env.detector.accuracy is AccuracyMode.ALWAYS
    assert env.contention.stabilization_round is None
    # Total silence by default.
    assert env.loss.losses_for_round(1, [0, 1], env.indices)[2] == {0, 1}


def test_ecf_spurious_prelude_only_before_cst():
    env = ecf_environment(2, MAJ_OAC, cst=5)
    # The default policy lies before CST and is honest afterwards.
    from repro.detectors.policy import SpuriousUntilPolicy

    assert isinstance(env.detector.policy, SpuriousUntilPolicy)
    assert env.detector.policy.quiet_round == 5


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lists_experiments(capsys):
    assert cli_main([]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E15" in out


def test_cli_runs_selected_experiment(capsys):
    assert cli_main(["E9c"]) == 0
    out = capsys.readouterr().out
    assert "Clock skew" in out


def test_cli_rejects_unknown_ids(capsys):
    assert cli_main(["E99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "repro"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "Available experiments" in proc.stdout
