#!/usr/bin/env python
"""Docs link checker: every internal markdown link must resolve.

Scans the repo's markdown documentation (``docs/*.md``, ``README.md``,
``ROADMAP.md``) for ``[text](target)`` links and verifies that every
*internal* target — a relative path, optionally with a ``#fragment`` — names
an existing file, and that pure ``#fragment`` links match a heading in the
same document. External links (``http(s)://``, ``mailto:``) are skipped:
CI must not depend on the network.

Run from anywhere: ``python tools/check_docs_links.py``. Exits nonzero and
prints one line per broken link. CI runs it as its own step;
``tests/test_docs.py`` runs the same check in tier-1.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: inline markdown links, skipping images (the docs have none, but be safe)
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
#: fenced code blocks — links inside them are examples, not navigation
_FENCE = re.compile(r"```.*?```", re.DOTALL)


def _anchor(heading: str) -> str:
    """GitHub-style anchor: lowercase, punctuation dropped, spaces → dashes."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"\s+", "-", text)


def doc_files() -> list[Path]:
    docs = sorted((REPO / "docs").glob("*.md")) if (REPO / "docs").is_dir() else []
    return [p for p in [REPO / "README.md", REPO / "ROADMAP.md", *docs]
            if p.exists()]


def check_file(path: Path) -> list[str]:
    text = _FENCE.sub("", path.read_text(encoding="utf-8"))
    problems = []
    rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        if not file_part:  # same-document anchor
            anchors = {_anchor(h) for h in _HEADING.findall(text)}
            if fragment and _anchor(fragment) not in anchors:
                problems.append(f"{rel}: broken anchor #{fragment}")
            continue
        dest = (path.parent / file_part).resolve()
        if not dest.exists():
            problems.append(f"{rel}: broken link {target}")
        elif fragment and dest.suffix == ".md":
            dest_text = dest.read_text(encoding="utf-8")
            anchors = {_anchor(h) for h in _HEADING.findall(dest_text)}
            if _anchor(fragment) not in anchors:
                problems.append(f"{rel}: broken anchor {target}")
    return problems


def main() -> int:
    files = doc_files()
    problems = [p for f in files for p in check_file(f)]
    for p in problems:
        print(p)
    print(f"checked {len(files)} docs: "
          + ("OK" if not problems else f"{len(problems)} broken links"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
