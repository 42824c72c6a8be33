"""Figure 8 (§5.1) — Flink hopping windows vs Railgun sliding windows.

Setup mirrored from the paper: single computing node, sustained 500
ev/s, one metric (``sum(amount)`` per card) over a 60-minute window.
Flink runs hopping windows with hop sizes from 5 minutes down to 1
second; Railgun runs its real-time sliding window. Reported: the full
latency-percentile distribution per configuration.

Expected shape (paper): hops of 10 s or less cannot sustain 500 ev/s
(latencies diverge); 15–30 s hops breach the 250 ms @ 99.9% SLO; Railgun
stays under the SLO and below every hopping configuration with hop
<= 1 minute.
"""

from __future__ import annotations

import random

from repro.bench.report import ascii_chart, check_expectations, format_percentile_table
from repro.common.percentiles import PERCENTILE_GRID
from repro.common.timesource import MINUTES, SECONDS
from repro.sim import (
    GcConfig,
    HoppingServiceConfig,
    HoppingServiceModel,
    KafkaConfig,
    KafkaModel,
    PipelineConfig,
    RailgunServiceConfig,
    RailgunServiceModel,
    simulate_pipeline,
)

WINDOW_MS = 60 * MINUTES
RATE = 500.0
SLO_MS = 250.0
SLO_PCT = 99.9

#: hop sizes from the paper's legend
HOPS_MS = [5 * MINUTES, 1 * MINUTES, 30 * SECONDS, 15 * SECONDS, 10 * SECONDS, 5 * SECONDS]

_HOP_LABELS = {
    5 * MINUTES: "flink-hop-5min",
    1 * MINUTES: "flink-hop-1min",
    30 * SECONDS: "flink-hop-30s",
    15 * SECONDS: "flink-hop-15s",
    10 * SECONDS: "flink-hop-10s",
    5 * SECONDS: "flink-hop-5s",
}


def _kafka(seed: int) -> KafkaModel:
    # Two topics: events (10 partitions) + replies (1), one broker (§5).
    return KafkaModel(KafkaConfig(), random.Random(seed), total_partitions=11, brokers=1)


def run(fast: bool = True) -> dict:
    """Simulate each configuration; returns percentile series."""
    duration_s = 240.0 if fast else 1800.0  # paper: 35 min runs, 5 warmup
    warmup_s = 30.0 if fast else 300.0
    pipeline = PipelineConfig(
        rate_ev_s=RATE, duration_s=duration_s, warmup_s=warmup_s,
        processors=1, seed=11,
    )
    series: dict[str, dict[float, float]] = {}
    diverged: dict[str, bool] = {}

    railgun = simulate_pipeline(
        pipeline,
        lambda rng: RailgunServiceModel(RailgunServiceConfig(state_keys=1), rng),
        _kafka(50),
        gc_config=GcConfig(alloc_per_event_bytes=600e3, minor_pause_median_ms=6.0),
    )
    series["railgun"] = railgun.recorder.percentiles(PERCENTILE_GRID)
    diverged["railgun"] = railgun.diverged

    for hop_ms in HOPS_MS:
        label = _HOP_LABELS[hop_ms]
        config = HoppingServiceConfig(window_ms=WINDOW_MS, hop_ms=hop_ms)
        # Hopping state scales with panes x keys: more GC pressure at
        # small hops (the §2.2 memory story).
        panes = -(-WINDOW_MS // hop_ms)
        gc = GcConfig(
            alloc_per_event_bytes=250e3 + 800.0 * panes,
            baseline_live_bytes=2e9 + 40e3 * config.active_keys * min(panes, 720) / 12,
        )
        result = simulate_pipeline(
            pipeline,
            lambda rng, c=config: HoppingServiceModel(c, rng),
            _kafka(60 + hop_ms % 37),
            gc_config=gc,
        )
        series[label] = result.recorder.percentiles(PERCENTILE_GRID)
        diverged[label] = result.diverged

    checks = [
        (
            f"Railgun meets the M requirement (<{SLO_MS:.0f}ms @ {SLO_PCT}%)",
            series["railgun"][SLO_PCT] < SLO_MS,
        ),
        ("Flink with 10s hop cannot sustain 500 ev/s", diverged["flink-hop-10s"]),
        ("Flink with 5s hop cannot sustain 500 ev/s", diverged["flink-hop-5s"]),
        (
            "Flink needs hops >= 1min to approach the SLO region",
            series["flink-hop-30s"][SLO_PCT] > SLO_MS,
        ),
    ]
    for hop_ms in HOPS_MS:
        if hop_ms <= 1 * MINUTES:
            label = _HOP_LABELS[hop_ms]
            checks.append(
                (
                    f"railgun below {label} at every percentile >= p50",
                    all(
                        series["railgun"][pct] <= series[label][pct] + 1e-9
                        for pct in PERCENTILE_GRID
                        if pct >= 50.0
                    ),
                )
            )
    return {
        "series": series,
        "diverged": diverged,
        "checks": checks,
        "rate": RATE,
        "duration_s": duration_s,
    }


def render(result: dict) -> str:
    grid = [p for p in PERCENTILE_GRID if p >= 50.0]
    chart_series = {
        name: [values[p] for p in grid] for name, values in result["series"].items()
    }
    lines = [
        "Figure 8 (§5.1) — Flink hopping vs Railgun sliding, "
        f"{result['rate']:.0f} ev/s, 60-min window",
        format_percentile_table(result["series"], grid),
        "",
        ascii_chart(chart_series, [f"p{p:g}" for p in grid]),
        "",
        "diverged (could not sustain load): "
        + ", ".join(name for name, d in result["diverged"].items() if d),
        "",
        "paper expectation: hops <=10s diverge; Railgun under 250ms @ p99.9",
        "and below all hopping configs with hop <= 1min at high percentiles.",
    ]
    lines += check_expectations(result["checks"])
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run(fast=True)))
