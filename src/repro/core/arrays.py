"""The gated-numpy capability probe shared by every vectorised fast path.

The reproduction runs everywhere Python runs: numpy is an *optional*
accelerator, never a dependency.  Every vectorised branch in the code
base — ``IIDLoss``/``CaptureEffectLoss`` whole-round resolution, the
engine's counts-only receive kernel (rounds with at most one distinct
payload) and the multihop layer's array advice — gates on the probe
defined here, the module's only export, so "is the fast path active?"
has exactly one answer per process:

* numpy importable and ``REPRO_PURE_PYTHON`` unset (or ``0``/``false``)
  → the probe returns the numpy module and every fast path is eligible;
* numpy missing, or ``REPRO_PURE_PYTHON`` set to a truthy value in the
  environment *before the interpreter starts* → the probe returns
  ``None`` and every consumer runs its pure-python reference path.

The environment variable exists so the pure-python reference paths can
be exercised on machines that *do* have numpy installed (CI runs a
dedicated no-numpy leg, but a local ``REPRO_PURE_PYTHON=1 pytest`` run
reproduces it without a second virtualenv).  It is read once, at import
time, because half-switched processes are worse than either mode:
adversary streams seeded under one backend must never continue under
the other mid-execution.

Tests that need to flip backends at runtime monkeypatch the consumer's
module-level ``_np`` binding instead (the convention established by
``repro.adversary.loss``), which scopes the flip to one consumer and
one test.
"""

from __future__ import annotations

import os

#: Truthy spellings accepted for ``REPRO_PURE_PYTHON``.
_TRUTHY = ("1", "true", "yes", "on")

_FORCED_PURE = os.environ.get("REPRO_PURE_PYTHON", "").strip().lower() in _TRUTHY

# A forced-pure process never imports numpy at all.
_numpy = None
if not _FORCED_PURE:
    try:  # Optional acceleration; the pure-python paths are the reference.
        import numpy as _numpy
    except ImportError:  # pragma: no cover - numpy is present in dev/CI
        pass


def numpy_or_none():
    """The numpy module every fast path should use, or ``None``.

    ``None`` means "run the pure-python reference path": either numpy is
    not importable, or the operator exported ``REPRO_PURE_PYTHON=1``
    before starting the process (which then never imports numpy).
    """
    return _numpy
