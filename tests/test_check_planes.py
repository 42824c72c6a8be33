"""The plane lint in tier-1: ``tools/check_planes.py`` passes on the tree
and refuses a private name imported across modules."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_planes", ROOT / "tools" / "check_planes.py"
)
check_planes = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = check_planes  # its dataclasses look the module up
_spec.loader.exec_module(check_planes)


def test_source_tree_is_clean():
    assert check_planes.check([str(ROOT / "src" / "repro")]) == 0


def test_private_name_is_refused_outside_its_module(tmp_path, capsys):
    (tmp_path / "shard").mkdir()
    (tmp_path / "shard" / "__init__.py").write_text("from .pool import _helper\n")
    (tmp_path / "shard" / "pool.py").write_text("def _helper():\n    pass\n")
    (tmp_path / "shard" / "user.py").write_text(
        "from repro.shard import _ok_in_package\n"
        "from repro.shard.pool import _helper\n"
        "from repro.shard.pool import __doc__\n"
    )
    assert check_planes.check([str(tmp_path)]) == 1
    flagged = [line for line in capsys.readouterr().out.splitlines() if "private" in line]
    assert flagged == [
        f"{tmp_path}/shard/__init__.py:1: from repro.shard.pool import _helper"
        " — a private name of another module",
        f"{tmp_path}/shard/user.py:2: from repro.shard.pool import _helper"
        " — a private name of another module",
    ]
