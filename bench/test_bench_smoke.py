"""Shape check of the benchmark: every workload, both trace modes, ~50x
less work (numbers meaningless). Collected by tier-1's bare ``pytest``."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TOKEN_ENV = "RAILGUN_BENCH_SMOKE_TOKEN"


def _git_status() -> str | None:
    """Porcelain status, or None where the tree is not a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def _shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("rgshm-")}
    except OSError:
        return set()


def _processes_carrying(token: str) -> list[int]:
    """Live processes that inherited the run's environment marker."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if token.encode() in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def test_smoke_run_matches_benchmark_json(tmp_path):
    status_before, shm_before = _git_status(), _shm_segments()
    token = uuid.uuid4().hex
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--trace",
         "--out-dir", str(tmp_path)],
        cwd=tmp_path, env={**os.environ, TOKEN_ENV: token},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(NAME.fullmatch(name) for name in workloads | metrics)

    latest = json.loads((tmp_path / "latest.json").read_text())
    assert set(latest["workloads"]) == workloads
    for name, run in latest["workloads"].items():
        assert set(run["metrics"]) == metrics, name
        assert run["correct"] and run["failed"] == 0, name
        assert all(m["value"] > 0 for k, m in run["metrics"].items()
                   if k in {e["name"] for e in SPEC["end_to_end"]}), name
        spans = [json.loads(line) for line in
                 (tmp_path / f"trace_{name}.jsonl").read_text().splitlines()]
        assert spans and all(s["end_ns"] >= s["start_ns"] for s in spans), name

    assert _shm_segments() <= shm_before
    assert not _processes_carrying(token)
    assert _git_status() == status_before
