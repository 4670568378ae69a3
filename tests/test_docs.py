"""Tier-1 docs gate: required docs exist and internal links resolve.

Runs the same checker CI uses (``tools/check_docs.py``) so a broken
link or a deleted doc fails locally before it fails in CI.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_required_docs_exist_and_links_resolve():
    checker = _load_checker()
    problems = checker.check(REPO_ROOT)
    assert problems == []


def test_checker_flags_broken_link(tmp_path):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "see [gone](docs/missing.md) and [ok](docs/campaigns.md)\n"
        "tested in `tests/test_gone.py::test_x` and `docs/campaigns.md`\n")
    (tmp_path / "docs" / "campaigns.md").write_text("hello\n")
    (tmp_path / "docs" / "architecture.md").write_text("hello\n")
    skill = tmp_path / ".claude" / "skills" / "verify"
    skill.mkdir(parents=True)
    (skill / "SKILL.md").write_text(
        "run `tools/gone.py`, then read `docs/campaigns.md`\n")
    problems = checker.check(tmp_path)
    assert any("broken link" in p for p in problems)
    stale = [p for p in problems if "stale path" in p]
    assert stale == [
        "README.md: stale path: tests/test_gone.py",
        ".claude/skills/verify/SKILL.md: stale path: tools/gone.py",
    ]


def test_checker_skips_urls_anchors_and_code_fences(tmp_path):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "campaigns.md").write_text(
        "[web](https://example.com) [anchor](#section)\n"
        "```\n[fenced](does/not/exist.md)\n```\n")
    (tmp_path / "docs" / "architecture.md").write_text("hello\n")
    (tmp_path / "docs" / "failure-modes.md").write_text("hello\n")
    (tmp_path / "README.md").write_text("[a](docs/campaigns.md#section)\n")
    assert checker.check(tmp_path) == []
