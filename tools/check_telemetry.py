#!/usr/bin/env python3
"""Lint: every metric name literal must come from the closed catalog.

Walks every module under ``src/repro`` and checks each string literal
passed as the metric-name argument to a :class:`MetricsRegistry` call
(``counter_add``, ``gauge_set``, ``observe_ms``, ``observe_since``,
``time_stage``, ``counter_value``, ``counter_sum``, ``counter_labels``)
against ``repro.telemetry.METRICS``. An unregistered literal is how
metric catalogs rot — a typo'd name records silently and dashboards
read zeros forever — so the catalog is enforced at lint time, the same
way ``check_planes.py`` enforces the time plane.

Also refuses raw ``time.*`` clock reads inside ``src/repro/telemetry``
itself: the telemetry package's whole claim is that stamps flow through
the TimeSource plane (``check_planes.py`` covers the rest of the tree;
this keeps the rule visible where it matters most).

Usage: ``python tools/check_telemetry.py [root ...]`` (default
``src/repro``).
"""

from __future__ import annotations

import ast
import os
import sys

#: MetricsRegistry methods whose first argument is a catalog name.
REGISTRY_METHODS = {
    "counter_add",
    "gauge_set",
    "observe_ms",
    "observe_since",
    "time_stage",
    "counter_value",
    "counter_sum",
    "counter_labels",
}

#: Receiver attribute names that hold a MetricsRegistry in this repo —
#: narrow on purpose so unrelated APIs sharing a method name (another
#: library's ``gauge_set``) never trip the lint.
REGISTRY_RECEIVERS = {"telemetry", "metrics"}

FORBIDDEN_TIME = {"time", "monotonic", "monotonic_ns", "sleep"}


def _load_catalog() -> set[str]:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    try:
        from repro.telemetry import METRICS
    finally:
        sys.path.pop(0)
    return set(METRICS)


def _receiver_name(func: ast.Attribute) -> str | None:
    """``self.telemetry.observe_ms`` -> ``telemetry``; ``reg.counter_add``
    -> ``reg``; anything unrecognisable -> None."""
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _metric_violations(
    path: str, source: str, catalog: set[str]
) -> list[tuple[int, str]]:
    tree = ast.parse(source, filename=path)
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in REGISTRY_METHODS:
            continue
        receiver = _receiver_name(func)
        if receiver is None or not (
            receiver in REGISTRY_RECEIVERS
            or "telemetry" in receiver
            or "metrics" in receiver
            or "registry" in receiver
        ):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if first.value not in catalog:
                found.append(
                    (node.lineno, f"{func.attr}({first.value!r})")
                )
    return sorted(found)


def _time_violations(path: str, source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source, filename=path)
    aliases: set[str] = set()
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    aliases.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in FORBIDDEN_TIME:
                        found.append(
                            (node.lineno, f"from time import {alias.name}")
                        )
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in FORBIDDEN_TIME
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def check(roots: list[str]) -> int:
    catalog = _load_catalog()
    bad = 0
    for root in roots:
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                for lineno, what in _metric_violations(path, source, catalog):
                    print(
                        f"{path}:{lineno}: unregistered metric name in "
                        f"{what} — declare it in repro.telemetry.METRICS"
                    )
                    bad += 1
                if os.path.sep + "telemetry" + os.path.sep in path:
                    for lineno, what in _time_violations(path, source):
                        print(
                            f"{path}:{lineno}: raw {what} in the telemetry "
                            "package — stamps must go through TimeSource"
                        )
                        bad += 1
    if bad:
        print(f"check_telemetry: {bad} violation(s)", file=sys.stderr)
        return 1
    print("check_telemetry: clean")
    return 0


if __name__ == "__main__":
    roots = sys.argv[1:] or [os.path.join("src", "repro")]
    sys.exit(check(roots))
