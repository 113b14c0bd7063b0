"""Docs integrity: internal markdown links must resolve (same check CI runs
via ``tools/check_docs_links.py``), and the documented entry points must
exist where the docs say they do."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs_links  # noqa: E402


def test_required_docs_exist():
    for name in ("docs/ARCHITECTURE.md", "docs/BENCHMARKS.md", "README.md"):
        assert (REPO / name).exists(), name


def test_readme_links_the_docs():
    readme = (REPO / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/BENCHMARKS.md" in readme


def test_internal_links_resolve():
    problems = [p for f in check_docs_links.doc_files()
                for p in check_docs_links.check_file(f)]
    assert not problems, "\n".join(problems)


def test_checker_cli_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs_links.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_catches_broken_link(tmp_path, monkeypatch):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](nope/absent.md) and [anchor](#not-there)")
    problems = check_docs_links.check_file(bad)
    assert len(problems) == 2


def _readme_algorithm_rows() -> dict[str, list[str]]:
    """Key → cells of each row of README's ``## Algorithms`` table."""
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Algorithms\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells
    return rows


def test_readme_algorithm_table_matches_registry():
    from repro.core.registry import available_algorithms, get_spec

    rows = _readme_algorithm_rows()
    missing = set(available_algorithms()) - set(rows)
    assert not missing, f"registry keys without a README row: {missing}"
    for key, cells in rows.items():
        spec = get_spec(key)  # raises AlgorithmError for a stale row
        assert cells[3] == ("yes" if spec.supports_complement else "no"), key
