"""The formal model, executable (Sections 2-3 and 6 of the paper).

* :mod:`repro.core.multiset` — finite multisets (Section 2).
* :mod:`repro.core.types` — advice enums and aliases.
* :mod:`repro.core.process` / :mod:`repro.core.algorithm` — Definitions 1-3.
* :mod:`repro.core.environment` — Definitions 9-10 and CST (Definition 20).
* :mod:`repro.core.execution` — the round engine (Definition 11).
* :mod:`repro.core.records` — traces and indistinguishability (Defs 4-7, 12).
* :mod:`repro.core.consensus` — the consensus properties (Section 6).
"""

from .algorithm import Algorithm, ConsensusAlgorithm
from .consensus import (
    ConsensusReport,
    check_agreement,
    check_strong_validity,
    check_termination,
    check_uniform_validity,
    evaluate,
    require_agreement,
    require_solved,
    require_strong_validity,
    require_termination,
    require_uniform_validity,
)
from .environment import Environment
from .errors import (
    AgreementViolation,
    ConfigurationError,
    ConsensusViolation,
    ModelViolation,
    ReproError,
    TerminationViolation,
    ValidityViolation,
)
from .execution import ExecutionEngine, run_algorithm, run_consensus
from .multiset import Multiset, multiset_union
from .process import Process, ScriptedProcess, SilentProcess
from .records import (
    ExecutionResult,
    RecordPolicy,
    RoundRecord,
    RoundSummary,
    SqliteSink,
    TransmissionEntry,
    indistinguishable,
)
from .types import (
    ACTIVE,
    COLLISION,
    NULL,
    PASSIVE,
    CollisionAdvice,
    ContentionAdvice,
    Message,
    ProcessId,
    Value,
)

__all__ = [
    "Multiset", "multiset_union",
    "ProcessId", "Message", "Value",
    "CollisionAdvice", "ContentionAdvice",
    "COLLISION", "NULL", "ACTIVE", "PASSIVE",
    "Process", "SilentProcess", "ScriptedProcess",
    "Algorithm", "ConsensusAlgorithm",
    "Environment",
    "ExecutionEngine", "run_algorithm", "run_consensus",
    "ExecutionResult", "RecordPolicy", "RoundRecord", "RoundSummary",
    "SqliteSink", "TransmissionEntry", "indistinguishable",
    "ConsensusReport", "evaluate",
    "check_agreement", "check_strong_validity", "check_uniform_validity",
    "check_termination",
    "require_agreement", "require_strong_validity",
    "require_uniform_validity", "require_termination", "require_solved",
    "ReproError", "ConfigurationError", "ModelViolation",
    "ConsensusViolation", "AgreementViolation", "ValidityViolation",
    "TerminationViolation",
]
