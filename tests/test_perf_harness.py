"""The machine-readable micro-benchmark harness (repro.bench.perf)."""

from __future__ import annotations

import json

from repro.bench import perf


REQUIRED_KEYS = {"events_per_sec", "p50_us", "p99_us"}
#: the crash-recovery benches add wall time and replay count on top.
RECOVERY_KEYS = REQUIRED_KEYS | {"recovery_ms", "events_replayed"}
#: the durable reopen bench reports wall time (but replays nothing).
REOPEN_KEYS = REQUIRED_KEYS | {"recovery_ms"}
#: the end-to-end process/frontends ingest benches attach per-stage
#: telemetry histogram summaries from the cluster's merged snapshot.
STAGE_BENCHES = {
    "engine_ingest_process_1w",
    "engine_ingest_process_4w",
    "engine_ingest_process_durable",
    "engine_ingest_process_1f",
    "engine_ingest_process_2f",
    "engine_ingest_process_4f",
}


def expected_keys(name: str) -> set:
    if name.startswith("recovery_"):
        return RECOVERY_KEYS
    if name == "durable_recovery_reopen":
        return REOPEN_KEYS
    if name in STAGE_BENCHES:
        return REQUIRED_KEYS | {"stages"}
    if name == "server_trip_sync_single":
        # prices its own overhead against in-process send_batch
        return REQUIRED_KEYS | {"direct_events_per_sec", "overhead_frac"}
    return REQUIRED_KEYS


class TestRunBenches:
    def test_schema_and_coverage(self):
        results = perf.run_benches(event_count=1500, batch_size=128, warmup=False)
        assert set(results) == set(perf.BENCHES)
        for name, stats in results.items():
            assert set(stats) == expected_keys(name), name
            assert stats["events_per_sec"] > 0, name
            assert 0 < stats["p50_us"] <= stats["p99_us"], name

    def test_select_runs_matching_subset(self):
        results = perf.run_benches(
            event_count=600, batch_size=128, warmup=False,
            engine_event_count=300, select="reservoir",
        )
        assert set(results) == {
            "reservoir_append_batch", "reservoir_append_ties_batch",
            "reservoir_chunk_codec_narrow", "reservoir_chunk_codec_wide",
        }

    def test_engine_benches_are_registered(self):
        assert perf.ENGINE_BENCHES == {
            "engine_ingest_single_process",
            "engine_ingest_process_1w",
            "engine_ingest_process_4w",
            "engine_ingest_process_1f",
            "engine_ingest_process_2f",
            "engine_ingest_process_4f",
            "engine_ingest_process_durable",
            "server_ingest_async_1c",
            "server_ingest_async_64c",
            "server_trip_sync_single",
            "log_append_fsync_never",
            "log_append_fsync_batch",
            "log_append_fsync_always",
            "durable_recovery_reopen",
            "recovery_from_zero",
            "recovery_from_checkpoint",
        }
        assert perf.ENGINE_BENCHES < set(perf.BENCHES)


class TestGates:
    def sample(self, rate: float) -> dict:
        return {"events_per_sec": rate, "p50_us": 1.0, "p99_us": 2.0}

    def test_baseline_pass_and_fail(self):
        results = {"bench": self.sample(1000.0)}
        assert perf.check_baseline(results, {"bench": self.sample(1100.0)}, 0.2) == []
        failures = perf.check_baseline(results, {"bench": self.sample(2000.0)}, 0.2)
        assert len(failures) == 1 and "bench" in failures[0]

    def test_baseline_skips_annotations_and_flags_missing(self):
        results = {"bench": self.sample(1000.0)}
        baseline = {
            "_comment": {"events_per_sec": 1},
            "task_ingest_batch": self.sample(1.0),
        }
        failures = perf.check_baseline(results, baseline, 0.2)
        assert failures == [
            "task_ingest_batch: present in baseline but not measured"
        ]

    def test_baseline_missing_tolerated_under_select(self):
        baseline = {"task_ingest_batch": self.sample(1.0)}
        assert perf.check_baseline({}, baseline, 0.2, require_all=False) == []

    def test_speedup_floors_enforced_with_enough_cpus(self):
        floors = [{"bench": "b", "over": "a", "min_ratio": 1.5, "min_cpus": 4}]
        results = {"a": self.sample(100.0), "b": self.sample(200.0)}
        failures, skips = perf.check_speedup_floors(results, floors, cpu_count=4)
        assert failures == [] and skips == []
        results["b"] = self.sample(120.0)
        failures, skips = perf.check_speedup_floors(results, floors, cpu_count=4)
        assert len(failures) == 1 and "1.20x" in failures[0]

    def test_speedup_floors_skip_on_small_hosts_and_missing_benches(self):
        floors = [{"bench": "b", "over": "a", "min_ratio": 1.5, "min_cpus": 4}]
        results = {"a": self.sample(100.0), "b": self.sample(120.0)}
        failures, skips = perf.check_speedup_floors(results, floors, cpu_count=1)
        assert failures == [] and len(skips) == 1 and "1 cpu" in skips[0]
        floors = [{
            "bench": "engine_ingest_process_4w",
            "over": "engine_ingest_process_1w",
            "min_ratio": 1.5,
        }]
        failures, skips = perf.check_speedup_floors({}, floors, cpu_count=8)
        assert failures == [] and len(skips) == 1

    def test_telemetry_overhead_skips_on_small_hosts(self):
        # On a 1-core host the 4w bench time-slices six processes and
        # run-to-run variance dwarfs the 5% budget; the gate must skip
        # without spawning any workers (overhead comes back None).
        failures, overhead = perf.check_telemetry_overhead(cpu_count=1)
        assert failures == [] and overhead is None

    def recovery_sample(self, recovery_ms: float, replayed: float) -> dict:
        return {
            "events_per_sec": 1000.0, "p50_us": 1.0, "p99_us": 2.0,
            "recovery_ms": recovery_ms, "events_replayed": replayed,
        }

    def test_recovery_floors_pass(self):
        floors = [{"bench": "cp", "over": "zero", "min_time_ratio": 1.3}]
        results = {
            "zero": self.recovery_sample(400.0, 3000.0),
            "cp": self.recovery_sample(100.0, 375.0),
        }
        failures, skips = perf.check_recovery_floors(results, floors)
        assert failures == [] and skips == []

    def test_recovery_floors_require_strictly_fewer_replays(self):
        floors = [{"bench": "cp", "over": "zero", "min_time_ratio": 1.3}]
        results = {
            "zero": self.recovery_sample(400.0, 3000.0),
            "cp": self.recovery_sample(100.0, 3000.0),  # not fewer
        }
        failures, _ = perf.check_recovery_floors(results, floors)
        assert len(failures) == 1 and "strictly fewer" in failures[0]

    def test_recovery_floors_require_time_ratio(self):
        floors = [{"bench": "cp", "over": "zero", "min_time_ratio": 1.3}]
        results = {
            "zero": self.recovery_sample(110.0, 3000.0),
            "cp": self.recovery_sample(100.0, 375.0),  # only 1.1x faster
        }
        failures, _ = perf.check_recovery_floors(results, floors)
        assert len(failures) == 1 and "1.10x" in failures[0]

    def test_recovery_floors_skip_when_unmeasured(self):
        floors = [{
            "bench": "recovery_from_checkpoint",
            "over": "recovery_from_zero",
            "min_time_ratio": 1.3,
        }]
        failures, skips = perf.check_recovery_floors({}, floors)
        assert failures == [] and len(skips) == 1

    def test_unregistered_names_fail_whatever_the_selection(self):
        """A deleted or renamed bench must not switch its gate off: under
        ``--select`` (``require_all=False``, nothing of it measured) a
        registered name is skipped, an unregistered one fails."""
        baseline = {"gone": self.sample(1.0)}
        failures = perf.check_baseline({}, baseline, 0.2, require_all=False)
        assert failures == ["gone: not a registered bench"]
        floors = [{"bench": "gone", "over": "task_ingest_batch", "min_ratio": 1.0}]
        for check in (perf.check_speedup_floors, perf.check_recovery_floors):
            failures, skips = check({}, floors)
            assert skips == [] and len(failures) == 1
            assert "gone: not a registered bench" in failures[0]

    def test_recovery_floors_reject_non_recovery_benches(self):
        """A misconfigured floor fails the gate cleanly, no KeyError."""
        floors = [{"bench": "b", "over": "a", "min_time_ratio": 1.3}]
        results = {"a": self.sample(100.0), "b": self.sample(200.0)}
        failures, skips = perf.check_recovery_floors(results, floors)
        assert len(failures) == 1 and "recovery metrics" in failures[0]
        assert skips == []

    def test_telemetry_decomposition_within_tolerance(self):
        stages = {
            "engine_batch_ms": {"sum_ms": 100.0},
            "engine_ingest_ms": {"sum_ms": 20.0},
            "engine_dispatch_ms": {"sum_ms": 30.0},
            "engine_collect_ms": {"sum_ms": 40.0},
            "engine_reply_ms": {"sum_ms": 8.0},
        }
        results = {
            "engine_ingest_process_1w": {**self.sample(1.0), "stages": stages},
        }
        assert perf.check_telemetry_decomposition(results) == []

    def test_telemetry_decomposition_flags_unaccounted_time(self):
        stages = {
            "engine_batch_ms": {"sum_ms": 100.0},
            "engine_ingest_ms": {"sum_ms": 10.0},
            "engine_dispatch_ms": {"sum_ms": 10.0},
            "engine_collect_ms": {"sum_ms": 10.0},
            "engine_reply_ms": {"sum_ms": 10.0},
        }
        results = {
            "engine_ingest_process_1w": {**self.sample(1.0), "stages": stages},
        }
        failures = perf.check_telemetry_decomposition(results)
        assert len(failures) == 1 and "engine_batch_ms" in failures[0]

    def test_telemetry_decomposition_skips_disabled_and_missing(self):
        assert perf.check_telemetry_decomposition({}) == []
        results = {"engine_ingest_process_1w": {**self.sample(1.0), "stages": {}}}
        assert perf.check_telemetry_decomposition(results) == []

    def test_checked_in_baseline_floor_names_are_real(self):
        import pathlib

        baseline_path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "baseline_micro.json"
        )
        baseline = json.loads(baseline_path.read_text())
        for floor in baseline.get("_speedup_floors", []):
            assert floor["bench"] in perf.BENCHES
            assert floor["over"] in perf.BENCHES
        recovery_floors = baseline.get("_recovery_floors", [])
        assert recovery_floors  # checkpointed recovery is gated
        for floor in recovery_floors:
            assert floor["bench"] in perf.BENCHES
            assert floor["over"] in perf.BENCHES
        for name in baseline:
            if not name.startswith("_"):
                assert name in perf.BENCHES, name


class TestMain:
    def test_writes_report_and_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_micro.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "reservoir_append_batch": {
                "events_per_sec": 1.0, "p50_us": 0.0, "p99_us": 0.0,
            }
        }))
        code = perf.main([
            "--out", str(out), "--events", "1200", "--batch-size", "128",
            "--engine-events", "600", "--no-warmup", "--baseline", str(baseline),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == set(perf.BENCHES) | {"_host"}
        assert report["_host"]["cpu_count"] >= 1
        for name, stats in report.items():
            if not name.startswith("_"):
                assert set(stats) == expected_keys(name)

    def test_select_matching_nothing_is_a_config_error(self, tmp_path, capsys):
        code = perf.main([
            "--out", str(tmp_path / "b.json"), "--events", "600",
            "--no-warmup", "--select", "engine-ingest",  # typo'd selector
        ])
        assert code == 1
        assert "no benches matched" in capsys.readouterr().err

    def test_unregistered_baseline_name_exits_nonzero_under_select(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "_speedup_floors": [{
                "bench": "engine_ingest_process_gone",
                "over": "engine_ingest_process_1w",
                "min_ratio": 0.5,
            }],
        }))
        code = perf.main([
            "--out", str(tmp_path / "b.json"), "--events", "600",
            "--no-warmup", "--select", "codec_work_batch_columnar",
            "--baseline", str(baseline),
        ])
        assert code == 2
        assert "not a registered bench" in capsys.readouterr().err

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_micro.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "reservoir_append_batch": {
                "events_per_sec": 1e15, "p50_us": 0.0, "p99_us": 0.0,
            }
        }))
        code = perf.main([
            "--out", str(out), "--events", "1200", "--batch-size", "128",
            "--no-warmup", "--baseline", str(baseline),
        ])
        assert code == 2
        assert "PERF REGRESSION" in capsys.readouterr().err
