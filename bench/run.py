#!/usr/bin/env python3
"""Run the end-to-end MAD benchmark.

One workload, the way the benchmark driver calls it::

    python3 bench/run.py --workload single_steady --seed 7 --seconds 18 --trace 0

prints readable lines and, last, one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Without ``--workload`` every
workload runs in its own subprocess (twice with ``--trace``) and the set
is written to ``bench/out/latest.json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
_ROOT = _BENCH.parent
# Run as a script, sys.path[0] is bench/ itself, where trace.py would
# shadow the standard library's; the package is imported from the root.
sys.path[:] = [p for p in sys.path if not p or Path(p).resolve() != _BENCH]
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

from bench import check, gen, ladder, measure  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import SHARD_WORKERS, WORKLOADS, Workload, setup  # noqa: E402

SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

CHECK_EVENTS = 4_096
LADDER_EVENTS = 4_096


def _round_up(count: float, multiple: int) -> int:
    return -(-int(count) // multiple) * multiple


def _host() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(_ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "git": sha}


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool, out_dir: Path
) -> tuple[dict, dict]:
    """One workload, one process: returns (driver result, detail)."""
    check_events, ladder_events = CHECK_EVENTS, LADDER_EVENTS
    if smoke:  # shape only: ~50x less work, numbers meaningless
        check_events, ladder_events = 128, 512
        workload = dataclasses.replace(
            workload, prefill=max(256, workload.prefill // 48), setup_repeats=1
        )
    if traced:
        closed_s, wrapped_s, open_s = seconds / 6, seconds / 3, seconds / 3
    else:
        closed_s, wrapped_s, open_s = seconds / 3, 0.0, seconds * 2 / 3
    closed_n = _round_up(workload.pool_eps * closed_s, workload.closed_batch)
    wrapped_n = _round_up(workload.pool_eps * wrapped_s, workload.closed_batch)
    open_n = _round_up(workload.open_rate_eps * open_s, workload.open_batch)

    # Only the prefill exists when the cluster is built, so forked worker
    # processes do not inherit (and peak_rss_mb does not count thrice) the
    # event pool. The generator's objects are not the engine's garbage:
    # freezing keeps the collector from re-scanning them in timed phases.
    source = gen.Traffic(seed, wide=workload.wide, messy=workload.messy)
    prefill = source.take(workload.prefill)
    gc.collect()
    gc.freeze()

    setup_times = []
    target = head = None
    layer: dict[str, float] = {}
    try:  # every path out closes the target, which stops and reaps its processes
        for _ in range(workload.setup_repeats):
            if target is not None:
                target.close()
                target = None
            watch = measure.Stopwatch()
            target, head = setup(
                workload, prefill, min(check_events, workload.prefill), watch.lap
            )
            setup_times.append(watch.elapsed * watch.host.factor)

        closed_pool = source.take(closed_n)
        wrapped_pool = source.take(wrapped_n)
        open_pool = source.take(open_n)
        ladder_pool = source.take(ladder_events)
        gc.collect()
        gc.freeze()

        pids = measure.process_tree(os.getpid())
        stage_before = target.telemetry() if traced else {}
        closed = measure.closed_loop(
            target.send, closed_pool, workload.closed_batch, closed_s, pids
        )
        wrapped = None
        if traced:
            tracer = Tracer()
            tracer.install()
            try:
                wrapped = measure.closed_loop(
                    target.send, wrapped_pool, workload.closed_batch, wrapped_s, pids
                )
            finally:
                tracer.uninstall()
            stage_after = target.telemetry()
        opened = measure.open_loop(
            target.send, open_pool, workload.open_batch, workload.open_rate_eps, open_s
        )
        peak_rss = measure.peak_rss_mib(measure.process_tree(os.getpid()))
        counters = target.telemetry().get("counters", {})
        if traced:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(out_dir / f"trace_{workload.name}.jsonl")
            layer.update(ladder.run(
                workload, ladder_pool, head, target.cluster, str(out_dir)
            ))
            layer.update(_wrapped_metrics(tracer, wrapped["events"], wrapped["host_speed"]))
            layer.update(_stage_metrics(stage_before, stage_after))
            layer.update(_busy_metrics(workload, stage_before, stage_after, closed, wrapped))
            if workload.topology == "frontdoor":
                trip_us = statistics.median(closed["trips_ms"]) * 1e3
                direct_us = ladder.direct_trip_us(prefill, ladder_pool, workload.closed_batch)
                layer["server.trip_overhead_us"] = trip_us - direct_us
                layer["server.trip_overhead_frac"] = 1.0 - direct_us / trip_us
            layer["client.lat_p95_ms"] = opened["lat_p95_ms"]
            layer["client.lat_p99_ms"] = opened["lat_p99_ms"]
            layer["client.stalls_over_50ms"] = float(opened["stalls_over_50ms"])
            layer["client.generator_late_ms_p99"] = opened["generator_late_ms_p99"]
            layer["host.speed"] = closed["host_speed"]
            layer["trace.overhead_frac"] = 1.0 - wrapped["capacity_eps"] / closed["capacity_eps"]
            layer["trace.spans"] = float(len(tracer.spans))
    finally:
        if target is not None:
            target.close()

    phases = [closed, opened] + ([wrapped] if wrapped else [])
    sent = sum(phase["events"] for phase in phases)
    lost = sum(phase["failed"] for phase in phases)
    # events-in == replies-out over the whole run, as the engine counts them
    unanswered = abs(
        counters.get("engine_events_in_total", 0) - counters.get("engine_replies_out_total", 0)
    )
    wrong = check.mismatches(workload, prefill[:len(head)], head)
    failed = lost + unanswered + wrong

    if traced:
        unknown = sorted(set(layer) - set(PER_LAYER))
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        values = {name: layer.get(name, 0.0) for name in PER_LAYER}
    else:
        measured = {
            "setup_s": statistics.median(setup_times),
            "capacity_eps": closed["capacity_eps"],
            "cpu_us_per_event": closed["cpu_us_per_event"],
            "lat_p50_ms": opened["lat_p50_ms"],
            "peak_rss_mb": peak_rss,
        }
        values = {name: measured[name] for name in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": sent + len(head),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in values.items()
        },
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "ops_attempted": result["attempted"],
        "ops_failed": failed,
        "oracle_mismatches": wrong,
        "samples": opened["samples"],
        "closed_loop_events": closed["events"],
        "open_rate_eps": workload.open_rate_eps,
        "open_batch": workload.open_batch,
        "lat_p95_ms": opened["lat_p95_ms"],
        "lat_p99_ms": opened["lat_p99_ms"],
        "stalls_over_50ms": opened["stalls_over_50ms"],
        "generator_late_ms_p99": opened["generator_late_ms_p99"],
        "host_speed": {"closed": closed["host_speed"], "open": opened["host_speed"]},
        "capacity_eps_as_clocked": closed["raw_eps"],
        "_host": _host(),
    }
    return result, detail


def _wrapped_metrics(tracer: Tracer, events: int, speed: float) -> dict[str, float]:
    """Times of the wrapped callables per event, at reference host speed."""
    totals = tracer.totals()
    per_event = 1e-3 * speed / max(events, 1)

    def of(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0) * per_event

    out = {
        "engine.cluster.send_batch_us": of("engine.cluster.send_batch", "total_ns"),
        "engine.cluster.self_us": of("engine.cluster.send_batch", "self_ns"),
        "engine.frontend.send_batch_us": of("engine.frontend.send_batch", "total_ns"),
        "engine.task.process_batch_us": of("engine.task.process_batch", "total_ns"),
        "engine.task.self_us": of("engine.task.process_batch", "self_ns")
        + of("engine.task.process", "self_ns"),
        "engine.task.checkpoint_us": of("engine.task.checkpoint", "total_ns"),
        "engine.task.fallback_frac": totals.get("engine.task.process", {}).get("calls", 0)
        / max(events, 1),
        "plan.process_event_us": of("plan.process_event", "self_ns"),
        "reservoir.append_batch_us": of("reservoir.append_batch", "self_ns"),
        "reservoir.append_us": of("reservoir.append", "self_ns"),
        "reservoir.iter_advance_us": of("reservoir.iter_advance", "self_ns"),
        "state.apply_us": of("state.apply", "self_ns"),
    }
    checkpoints = totals.get("engine.task.checkpoint")
    if checkpoints:
        # in-run checkpoints (mid-stream, memtables full) beat the ladder's one-off
        out["engine.task.checkpoint_ms"] = (
            checkpoints["total_ns"] / checkpoints["calls"] / 1e6 * speed
        )
    return out


def _delta_us(before: dict, after: dict, histogram: str, per: str | None = None) -> float:
    """A stage histogram's time, in microseconds per unit of the ``per``
    counter (per observation when None), between two telemetry snapshots."""
    def read(snapshot, field):
        return snapshot.get("histograms", {}).get(histogram, {}).get(field, 0.0)

    def units(snapshot):
        return snapshot.get("counters", {}).get(per, 0) if per else read(snapshot, "count")

    span = units(after) - units(before)
    return (read(after, "sum_ms") - read(before, "sum_ms")) * 1e3 / span if span > 0 else 0.0


def _stage_metrics(before: dict, after: dict) -> dict[str, float]:
    """The engine's own stage histograms over both closed-loop phases:
    the only view into worker and server processes."""
    out = {}
    for stage in ("ingest", "dispatch", "collect", "reply"):
        out[f"shard.stage.engine_{stage}_us"] = _delta_us(
            before, after, f"engine_{stage}_ms", "engine_events_in_total"
        )
    for stage in ("queue_wait", "process_batch", "reservoir_append", "reply_merge"):
        out[f"shard.stage.worker_{stage}_us"] = _delta_us(
            before, after, f"worker_{stage}_ms", "worker_records_total"
        )
    out["server.stage.request_us"] = _delta_us(before, after, "server_request_ms")
    out["server.stage.admission_wait_us"] = _delta_us(
        before, after, "server_admission_wait_ms"
    )
    return out


def _busy_metrics(workload, before, after, closed, wrapped) -> dict[str, float]:
    out = {"shard.coordinator_busy_frac": closed["caller_cpu_s"] / closed["wall_s"]}
    if workload.topology == "process":
        def busy(snapshot):
            return snapshot["histograms"].get("worker_process_batch_ms", {}).get("sum_ms", 0.0)

        out["shard.worker_busy_frac"] = (
            (busy(after) - busy(before)) / 1e3 / SHARD_WORKERS
            / (closed["wall_s"] + wrapped["wall_s"])
        )
    return out


def _claims(name: str, m: dict[str, float]) -> list[tuple[str, bool]]:
    """What the workload table says about today's engine, checked on the
    traced run. Printed, not enforced: a later change may retire one."""
    if name == "single_steady":
        rungs = sum(m[k] for k in (
            "engine.cluster.self_us", "engine.frontend.send_batch_us", "engine.task.self_us",
            "engine.task.checkpoint_us", "plan.process_event_us", "reservoir.append_batch_us",
            "reservoir.append_us", "reservoir.iter_advance_us", "state.apply_us",
        ))
        total = m["engine.cluster.send_batch_us"]
        return [
            ("windows slide: chunks closed, long tail behind the head, chunks read back",
             m["reservoir.chunks_closed"] > 0 and m["reservoir.tail_lag_chunks"] >= 1
             and m["reservoir.demand_chunk_loads"] + m["reservoir.prefetch_chunk_loads"] > 0),
            ("no event takes the per-event fallback", m["engine.task.fallback_frac"] == 0),
            (f"rungs sum to {rungs:.1f} of {total:.1f} us/event (within 10 %)",
             abs(rungs - total) <= 0.1 * total),
        ]
    if name == "single_messy":
        return [("over 10 % of events take the per-event fallback",
                 m["engine.task.fallback_frac"] > 0.1)]
    if name == "shard_wide":
        return [(f"workers busy {m['shard.worker_busy_frac']:.0%} of the closed loop (< 60 %)",
                 m["shard.worker_busy_frac"] < 0.6)]
    return [(f"server overhead is {m['server.trip_overhead_frac']:.0%} of a trip (> 50 %)",
             m["server.trip_overhead_frac"] > 0.5)]


# -- command line -------------------------------------------------------------


def _print_metrics(metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.4f} {metric['unit']}")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def _run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    # a terminated run unwinds like a failed one: children are stopped and reaped
    signal.signal(signal.SIGTERM, _terminated)
    result, detail = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.out_dir
    )
    print(f"{workload.name}: {workload.why}")
    _print_metrics(result["metrics"])
    if args.trace and not args.smoke:
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        for claim, holds in _claims(workload.name, values):
            print(f"  claim {'holds' if holds else 'NOT MET'}: {claim}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run_all(args) -> int:
    """Every workload in its own subprocess; exit 1 on any incorrect reply."""
    runs: dict[str, dict] = {}
    ok = True
    for name in WORKLOADS:
        entry = runs[name] = {"metrics": {}, "correct": True, "attempted": 0, "failed": 0}
        for traced in ((0, 1) if args.trace else (0,)):
            for seed in range(args.seed, args.seed + args.runs):
                command = [
                    sys.executable, str(_BENCH / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(traced), "--out-dir", str(args.out_dir),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                if not lines or not lines[-1].startswith("{"):
                    print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                    print(f"{name} --trace {traced} --seed {seed}: no result "
                          f"(exit {done.returncode})")
                    entry["correct"] = ok = False
                    continue
                result = json.loads(lines[-1])
                for metric, reading in result["metrics"].items():
                    kept = entry["metrics"].setdefault(
                        metric, {"unit": reading["unit"], "values": []}
                    )
                    kept["values"].append(reading["value"])
                entry["correct"] = entry["correct"] and result["correct"]
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                ok = ok and result["correct"]
                print("\n".join(line for line in lines[:-1] if not line.startswith("detail ")))
                print(f"  -> seed {seed}: {'ok' if result['correct'] else 'INCORRECT'}, "
                      f"{result['attempted']} ops, {result['failed']} failed")
        for kept in entry["metrics"].values():
            kept["value"] = statistics.median(kept["values"])
    args.out_dir.mkdir(parents=True, exist_ok=True)
    latest = args.out_dir / "latest.json"
    latest.write_text(json.dumps(
        {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
         "_host": _host(), "workloads": runs},
        indent=1,
    ))
    print(f"wrote {latest}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {SPEC['run_seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload, on seed, seed+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink prefill and phases ~50x: shape only")
    parser.add_argument("--out-dir", type=Path, default=_BENCH / "out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.6 if args.smoke else float(SPEC["run_seconds"])
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
