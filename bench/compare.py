#!/usr/bin/env python3
"""Compare two result sets written by ``bench/run.py`` (``latest.json``).

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): A, B, B/A with A as the base,
the bound from BENCHMARK.json, and a verdict — ``ok``; ``worse`` when B
is worse than A by more than the bound; ``unresolved`` when either set
holds several runs (``--runs``) whose own spread (interquartile range
over median) is wider than the bound, so the pair cannot tell. Exits 1
on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _spread(metric: dict) -> float:
    values = metric.get("values", [])
    if len(values) < 4 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(base: dict, other: dict) -> tuple[list[tuple], bool]:
    rows, any_worse = [], False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            try:
                a = base["workloads"][workload]["metrics"][name]
                b = other["workloads"][workload]["metrics"][name]
            except KeyError:
                rows.append((workload, name, None, None, None, bound, "missing"))
                any_worse = True
                continue
            ratio = b["value"] / a["value"] if a["value"] else float("inf")
            loss = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            if max(_spread(a), _spread(b)) > bound:
                verdict = "unresolved"
            elif loss > bound:
                verdict, any_worse = "worse", True
            else:
                verdict = "ok"
            rows.append((workload, name, a["value"], b["value"], ratio, bound, verdict))
    return rows, any_worse


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, other = (json.loads(Path(path).read_text()) for path in paths)
    rows, any_worse = compare(base, other)
    print(f"{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict")
    for workload, name, a, b, ratio, bound, verdict in rows:
        if a is None:
            print(f"{workload:<16} {name:<18} {'-':>12} {'-':>12} {'-':>8} {bound:>6.2f}  {verdict}")
        else:
            print(f"{workload:<16} {name:<18} {a:>12.4f} {b:>12.4f} {ratio:>8.3f} {bound:>6.2f}  {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
