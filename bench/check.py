"""Reply oracle: is what the workload's cluster answered correct?

Two references for the first prefill replies: (a) a fresh single-process
cluster, at shipped defaults, fed the same events one at a time through
``send`` — every topology and the batched path promise replies identical
to it; and (b) on in-order traffic, ``TrueSlidingReference``, an
independent brute-force sliding sum/count.
"""

from __future__ import annotations

import math

from repro.baselines.reference import TrueSlidingReference
from repro.engine import create_cluster

from bench.workloads import PARTITIONS, STREAM, SUM1, Workload

SUM1_WINDOW_MS = 5 * 60 * 1000


def _same(left, right) -> bool:
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    return left == right


def _same_results(left: dict, right: dict) -> bool:
    if left.keys() != right.keys():
        return False
    for metric_id, columns in left.items():
        other = right[metric_id]
        if columns.keys() != other.keys():
            return False
        if not all(_same(value, other[name]) for name, value in columns.items()):
            return False
    return True


def mismatches(workload: Workload, events, results) -> int:
    """How many of ``results`` (reply result dicts for ``events``, in
    order) disagree with either reference."""
    bad = 0
    oracle = create_cluster("single")
    try:
        oracle.create_stream(
            STREAM, ["cardId"], partitions=PARTITIONS, schema=workload.schema
        )
        for query in workload.metrics:
            oracle.create_metric(query)
        for event, got in zip(events, results):
            if not _same_results(oracle.send(STREAM, event=event).results, got):
                bad += 1
    finally:
        oracle.close()
    if not workload.messy:
        if workload.metrics[0] != SUM1[0]:
            raise ValueError("metric 0 must be the 5-minute sum/count the reference checks")
        reference = TrueSlidingReference(SUM1_WINDOW_MS)
        for event, got in zip(events, results):
            card, stamp = event["cardId"], event.timestamp
            reference.on_event(card, stamp, event["amount"])
            row = got.get(0, {})
            if row.get("count(*)") != reference.count(card, stamp) or not math.isclose(
                row.get("sum(amount)", math.nan), reference.sum(card, stamp),
                rel_tol=1e-9, abs_tol=1e-6,
            ):
                bad += 1
    return bad
