#!/usr/bin/env python
"""Docs sanity check: required files exist, internal links resolve.

Usage::

    python tools/check_docs.py [repo_root]

Checks, with no dependencies beyond the standard library:

* ``README.md``, ``docs/campaigns.md``, ``docs/architecture.md``, and
  ``docs/failure-modes.md`` exist and are non-empty;
* every relative markdown link in README.md, docs/*.md, ROADMAP.md and
  CHANGES.md points at a file that exists (``http(s)://`` URLs and
  pure ``#anchor`` links are skipped; a ``path#anchor`` link is checked
  for the path part);
* no link escapes the repository root;
* every backticked repo path in README.md and docs/*.md (one starting
  ``src/``, ``tests/``, ``tools/``, ``benchmarks/``, ``perfbench/``,
  ``docs/`` or ``examples/``, a ``::name`` suffix ignored) exists.
  ROADMAP.md is exempt: it names files that are still planned.

Exit status 0 when clean, 1 with one line per problem otherwise — CI
runs this as the docs gate, and ``tests/test_docs.py`` runs it in
tier-1 so a broken link fails locally before it fails in CI.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REQUIRED = (
    "README.md",
    "docs/campaigns.md",
    "docs/architecture.md",
    "docs/failure-modes.md",
)

#: inline markdown links: [text](target) — images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: inline code naming a repo path, e.g. `tests/test_docs.py::test_x`.
_PATH = re.compile(
    r"`((?:src|tests|tools|benchmarks|perfbench|docs|examples)/[\w./-]*)"
    r"(?:::[\w.]+)?`"
)
#: fenced code blocks contribute neither links nor paths.
_FENCE = re.compile(r"^(```|~~~)")


def iter_matches(text: str, pattern):
    """Yield ``pattern``'s first group over *text*, outside code fences."""
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in pattern.finditer(line):
            yield match.group(1)


def check(root: Path) -> list:
    problems = []
    for rel in REQUIRED:
        path = root / rel
        if not path.is_file():
            problems.append(f"missing required doc: {rel}")
        elif not path.read_text(encoding="utf-8").strip():
            problems.append(f"required doc is empty: {rel}")

    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    sources = docs + [root / "ROADMAP.md", root / "CHANGES.md"]
    for source in sources:
        if not source.is_file():
            continue
        text = source.read_text(encoding="utf-8")
        if source in docs:
            for path in iter_matches(text, _PATH):
                if not (root / path).exists():
                    problems.append(
                        f"{source.relative_to(root)}: stale path: {path}")
        for target in iter_matches(text, _LINK):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel_target = target.split("#", 1)[0]
            if not rel_target:
                continue
            resolved = (source.parent / rel_target).resolve()
            src_rel = source.relative_to(root)
            if root.resolve() not in resolved.parents and resolved != root.resolve():
                problems.append(
                    f"{src_rel}: link escapes the repo: {target}")
            elif not resolved.exists():
                problems.append(
                    f"{src_rel}: broken link: {target}")
    return problems


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    problems = check(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"docs check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs check: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
