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
- **Private names**: ``from repro.<mod> import _name`` is refused
  outside ``<mod>`` (its own file, or the package's files when ``<mod>``
  is a package). A leading underscore says "this module's detail"; a
  helper two modules share is public API and is named without one.

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


def _module_name(rel: str) -> str:
    """``engine/cluster.py`` -> ``repro.engine.cluster`` (packages by
    their ``__init__``)."""
    parts = ["repro"] + rel[: -len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _private_imports(tree: ast.AST, rel: str) -> list[tuple[int, str]]:
    here = _module_name(rel)
    package = here if rel.endswith("__init__.py") else here.rpartition(".")[0]
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
            module = f"{base}.{node.module}" if node.module else base
        else:
            module = node.module or ""
        if module != "repro" and not module.startswith("repro."):
            continue
        if here == module or here.startswith(module + "."):
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, f"from {module} import {alias.name}"))
    return found


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
                for lineno, what in _private_imports(tree, rel):
                    print(f"{path}:{lineno}: {what} — a private name of another module")
                    bad += 1
    if bad:
        print(f"check_planes: {bad} violation(s)", file=sys.stderr)
        return 1
    planes = ", ".join(rule.plane for rule in RULES)
    print(f"check_planes: clean ({planes} planes, private names)")
    return 0


if __name__ == "__main__":
    roots = sys.argv[1:] or [os.path.join("src", "repro")]
    sys.exit(check(roots))
