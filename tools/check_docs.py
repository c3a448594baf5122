#!/usr/bin/env python
"""Documentation checker: links, anchors, executable examples, API references.

Run from the repository root (CI's docs job does):

    python tools/check_docs.py

Four checks, all zero-dependency:

1. **Relative links resolve.**  Every ``[text](target)`` in the checked
   markdown files whose target is not an URL must point at an existing
   file (relative to the file containing the link).
2. **Anchors resolve.**  A ``file.md#anchor`` (or in-page ``#anchor``)
   target must match a heading in the target file under GitHub's
   slugification (lowercase, spaces to dashes, punctuation dropped).
3. **Examples run.**  Every fenced ``python`` block in ``README.md``,
   ``EXPERIMENTS.md``, ``docs/performance.md``, ``docs/architecture.md``,
   ``docs/robustness.md``, ``docs/incremental.md`` and
   ``docs/service.md`` is executed with ``src/`` on ``sys.path``; a
   failing example fails the build.  Examples in those files are a
   documented contract, not decoration.
4. **API references resolve.**  Every fully qualified ``repro.*`` Sphinx
   role (``:func:``, ``:class:``, ``:meth:``, ``:mod:``, ``:data:``,
   ``:attr:``) in a docstring or comment under ``src/repro/`` must name
   something that exists: the longest importable module prefix is
   imported and the rest is looked up with ``getattr``.  This catches
   the references a deletion leaves behind.

Exit code 0 on success, 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED_FILES = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
EXECUTED_FILES = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "performance.md",
    ROOT / "docs" / "architecture.md",
    ROOT / "docs" / "robustness.md",
    ROOT / "docs" / "incremental.md",
    ROOT / "docs" / "service.md",
]

# [text](target) — but not ![image](...) captures, which we treat the same,
# and not reference-style links (none are used in this repository).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCED = re.compile(r"```[a-z]*\n.*?```", re.DOTALL)
_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)
_API_ROLE = re.compile(r":(?:func|class|meth|mod|data|attr):`~?(repro(?:\.\w+)+)`")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, strip punctuation, spaces to dashes."""
    text = heading.strip().lower()
    # Drop inline code/emphasis markers and trailing formatting.
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- §]", "", text, flags=re.UNICODE)
    text = text.replace("§", "")
    return re.sub(r"\s+", "-", text.strip())


def heading_slugs(path: Path) -> set[str]:
    # Strip fenced blocks first so commented '#' lines are not headings.
    text = _FENCED.sub("", path.read_text(encoding="utf8"))
    slugs: set[str] = set()
    counts: dict[str, int] = {}
    for match in _HEADING.finditer(text):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf8")
    for match in _LINK.finditer(_FENCED.sub("", text)):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(f"{path.relative_to(ROOT)}: broken link -> {target}")
                continue
        else:
            resolved = path
        if anchor and resolved.suffix == ".md":
            if anchor not in heading_slugs(resolved):
                problems.append(
                    f"{path.relative_to(ROOT)}: broken anchor -> {target}"
                )
    return problems


def run_examples(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf8")
    for index, block in enumerate(_PYTHON_BLOCK.findall(text)):
        try:
            exec(compile(block, f"{path.name}[block {index}]", "exec"), {})
        except Exception as exc:  # report and continue to the next block
            problems.append(
                f"{path.relative_to(ROOT)}: python block {index} failed: "
                f"{type(exc).__name__}: {exc}"
            )
    return problems


def resolves(target: str) -> bool:
    """Whether a dotted ``repro.*`` name imports and ``getattr``s cleanly."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:]:
                found = getattr(found, name)
        except AttributeError:
            return False
        return True
    return False


def api_references() -> list[tuple[str, str]]:
    """``(file:line, target)`` of every ``repro.*`` role under ``src/repro/``."""
    references: list[tuple[str, str]] = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf8")
        for match in _API_ROLE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            references.append((f"{path.relative_to(ROOT)}:{line}", match.group(1)))
    return references


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    problems: list[str] = []
    for path in CHECKED_FILES:
        problems.extend(check_links(path))
    for path in EXECUTED_FILES:
        problems.extend(run_examples(path))
    references = api_references()
    problems.extend(
        f"{where}: dangling reference -> {target}"
        for where, target in references
        if not resolves(target)
    )
    if problems:
        print(f"{len(problems)} documentation problem(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    blocks = sum(
        len(_PYTHON_BLOCK.findall(p.read_text(encoding="utf8")))
        for p in EXECUTED_FILES
    )
    print(
        f"docs OK: {len(CHECKED_FILES)} files link-checked, "
        f"{blocks} example block(s) executed, "
        f"{len(references)} API reference(s) resolved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
