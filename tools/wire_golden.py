#!/usr/bin/env python
"""Golden wire frames: ``tests/data/wire_golden.json``.

Each entry is ``{"name", "spec", "hex"}``: a constructor spec for one
message and the exact frame ``wire.encode`` must produce for it. The
frames were written by the last commit with a hand-written codec, so
the file pins the byte layout of every tag; ``tests/test_wire_table.py``
holds the codec to it.

A spec is JSON: scalars as themselves, lists as lists, and objects
tagged ``{"$": "ClassName", attr: spec, ...}`` for a message or record,
``{"$tuple": [...]}``, ``{"$set": [...]}``, ``{"$bytes": "hex"}`` and
``{"$dict": [[key, value], ...]}`` (ordered, any key type).

To add a frame: append ``{"name": ..., "spec": ...}`` (no ``hex``) and
run ``PYTHONPATH=src python tools/wire_golden.py`` — it fills in the hex
of entries that lack one and never rewrites an existing frame.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.catalog import MetricDef, StreamDef
from repro.engine.task import TaskCheckpoint
from repro.events.event import Event
from repro.lsm.db import Checkpoint
from repro.messaging.log import TopicPartition
from repro.shard import wire

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "wire_golden.json"

_CLASSES = {row.cls.__name__: row.cls for row in wire.TABLE}
_CLASSES.update(
    (cls.__name__, cls)
    for cls in (
        Checkpoint,
        Event,
        MetricDef,
        StreamDef,
        TaskCheckpoint,
        TopicPartition,
        wire.TaskCheckpointFrame,
    )
)


def build(spec):
    """The Python value a spec describes."""
    if isinstance(spec, list):
        return [build(item) for item in spec]
    if not isinstance(spec, dict):
        return spec
    if "$tuple" in spec:
        return tuple(build(item) for item in spec["$tuple"])
    if "$set" in spec:
        return {build(item) for item in spec["$set"]}
    if "$bytes" in spec:
        return bytes.fromhex(spec["$bytes"])
    if "$dict" in spec:
        return {build(key): build(value) for key, value in spec["$dict"]}
    cls = _CLASSES[spec["$"]]
    return cls(**{name: build(value) for name, value in spec.items() if name != "$"})


def load() -> list[dict]:
    """The golden entries, in file order."""
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def main() -> int:
    entries = load()
    added = 0
    for entry in entries:
        if "hex" not in entry:
            entry["hex"] = wire.encode(build(entry["spec"])).hex()
            added += 1
    if added:
        lines = ",\n".join(
            json.dumps(entry, ensure_ascii=True, separators=(", ", ": "))
            for entry in entries
        )
        GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wire_golden: {len(entries)} frames, {added} added")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
