"""Documentation gate in tier-1: links resolve, quickstarts run.

Thin wrapper over ``tools/check_docs.py`` (the same module the CI docs
job runs) so a broken relative link in README/docs/ROADMAP or a rotted
fenced quickstart snippet fails the ordinary test suite too.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def doc_files() -> list[Path]:
    files = [ROOT / "README.md", ROOT / "ROADMAP.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return files


def test_doc_files_exist():
    paths = doc_files()
    assert (ROOT / "docs" / "ARCHITECTURE.md") in paths
    assert all(path.exists() for path in paths)


def test_markdown_links_resolve():
    failures = []
    for path in doc_files():
        failures.extend(check_docs.check_links(path))
    assert not failures, "\n".join(failures)


def test_fenced_quickstart_snippets_execute():
    failures = []
    for path in doc_files():
        failures.extend(check_docs.check_doctests(path))
    assert not failures, "\n".join(failures)


def test_at_least_one_executable_snippet_is_guarded():
    """The gate must actually gate: if every fenced snippet lost its
    doctest prompts, example rot would go unnoticed again."""
    executable = 0
    for path in doc_files():
        for _, source in check_docs.python_fences(path):
            if ">>>" in source:
                executable += 1
    assert executable >= 2


def test_architecture_lists_every_wire_message_with_its_layout():
    """docs/ARCHITECTURE.md names each row of the wire table as
    ``Name(field, ...)`` in exactly the row's byte order — a field added
    to, dropped from or reordered in a layout fails here until the
    message tables say so too."""
    from repro.shard import wire

    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    missing = [
        signature
        for row in wire.TABLE
        for signature in [f"`{row.cls.__name__}({', '.join(row.attrs())})`"]
        if signature not in text
    ]
    assert not missing, "\n".join(missing)
