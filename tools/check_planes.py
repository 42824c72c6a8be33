#!/usr/bin/env python3
"""Lint: each plane is the only code allowed to touch its resource.

One AST walker, one table of rules (:data:`RULES`). A rule names a
module whose attributes are off limits (alias-aware, plus the
``from <module> import ...`` forms), optionally builtins that are off
limits too, and the paths exempt from it — each with its reason.

- **Time plane**: no raw ``time.time`` / ``time.monotonic`` /
  ``time.monotonic_ns`` / ``time.sleep`` outside
  ``common/timesource.py``. Those calls are exactly what made fault
  suites sleep real seconds: any new deadline, heartbeat or backoff
  must go through an injectable
  :class:`~repro.common.timesource.TimeSource` so the chaos harness and
  ``$RAILGUN_TIME_SCALE`` keep working. ``time.perf_counter`` /
  ``perf_counter_ns`` stay allowed everywhere: they measure how fast
  *real* hardware ran a benchmark, which is the one thing that must
  never be virtualized.
- **Storage plane**: no builtin ``open`` and no ``os.open`` /
  ``os.fsync`` / ``os.replace`` / ``os.rename`` / ``os.truncate`` /
  ``os.remove`` / ``os.listdir`` / ``os.scandir`` outside
  ``common/storage.py``. Every durable byte goes through a
  :class:`~repro.common.storage.StorageBackend`, so a memory backend or
  a fault-injecting one sees every write, sync and rename in the tree.

Usage: ``python tools/check_planes.py [root ...]`` (default ``src/repro``).
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Rule:
    """One plane: the calls only its own module may make."""

    plane: str
    module: str
    attrs: frozenset[str]
    advice: str
    builtins: frozenset[str] = frozenset()
    #: path under the scanned root (a ``/``-terminated prefix exempts a
    #: whole package) -> why that code may make the calls.
    exempt: dict[str, str] = field(default_factory=dict)

    def exempts(self, rel: str) -> bool:
        return any(
            rel.startswith(path) if path.endswith("/") else rel == path
            for path in self.exempt
        )


RULES = (
    Rule(
        plane="time",
        module="time",
        attrs=frozenset({"time", "monotonic", "monotonic_ns", "sleep"}),
        advice="inject a TimeSource (repro.common.timesource) instead",
        exempt={
            "common/timesource.py": "the time plane: raw clock reads are its implementation",
        },
    ),
    Rule(
        plane="storage",
        module="os",
        attrs=frozenset(
            {"open", "fsync", "replace", "rename", "truncate", "remove", "listdir", "scandir"}
        ),
        builtins=frozenset({"open"}),
        advice="go through a StorageBackend (repro.common.storage) instead",
        exempt={
            "common/storage.py": "the storage plane: FileStorage is the one file writer",
            "bench/": "benchmark harness output (reports, JSON) is not durable state",
            "telemetry/__main__.py": "a CLI reading a snapshot file the user names",
        },
    ),
)


def _violations(tree: ast.AST, rule: Rule) -> list[tuple[int, str]]:
    aliases: set[str] = set()
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == rule.module:
                    aliases.add(alias.asname or rule.module)
        elif isinstance(node, ast.ImportFrom):
            if node.module == rule.module and node.level == 0:
                for alias in node.names:
                    if alias.name in rule.attrs:
                        found.append(
                            (node.lineno, f"from {rule.module} import {alias.name}")
                        )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in rule.attrs
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in rule.builtins
        ):
            found.append((node.lineno, f"builtin {node.func.id}()"))
    return sorted(found)


def check(roots: list[str]) -> int:
    bad = 0
    for root in roots:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, "r", encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                for rule in RULES:
                    if rule.exempts(rel):
                        continue
                    for lineno, what in _violations(tree, rule):
                        print(f"{path}:{lineno}: raw {what} — {rule.advice}")
                        bad += 1
    if bad:
        print(f"check_planes: {bad} raw call site(s)", file=sys.stderr)
        return 1
    print(f"check_planes: clean ({', '.join(rule.plane for rule in RULES)} planes)")
    return 0


if __name__ == "__main__":
    roots = sys.argv[1:] or [os.path.join("src", "repro")]
    sys.exit(check(roots))
