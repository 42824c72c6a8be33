"""Chaos harness tests: generator determinism + pinned regression corpus.

Two layers:

- **Determinism contracts** — the whole harness hinges on "same seed,
  same everything": scenario generation must be a pure function of the
  seed, and a rerun of the same (seed, topology) pair must produce the
  same verdict. These are cheap and run every time.
- **Pinned corpus** — every seed that ever exposed a real bug gets a
  named test here, so the bug's exact traffic shape and fault schedule
  replay forever. The corpus grows append-only; a fixed smoke set keeps
  the tier-1 cost bounded while the 25-fresh-seed sweep lives in the
  ``chaos`` CI job.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import FAULT_KINDS, TOPOLOGIES, generate_scenario, run_seed
from repro.chaos.__main__ import main as chaos_main


class TestScenarioDeterminism:
    def test_same_seed_same_scenario(self):
        first = generate_scenario(1234)
        second = generate_scenario(1234)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)
        assert first.batches == second.batches  # Event __eq__ covers payloads

    def test_different_seeds_differ(self):
        scenarios = [generate_scenario(seed) for seed in range(6)]
        described = {s.describe() for s in scenarios}
        assert len(described) == len(scenarios)

    def test_traffic_shapes_all_appear_across_seeds(self):
        """The generator's messy-traffic vocabulary is live: across a
        seed range we see duplicates, ties, out-of-order arrivals, and
        at least one of every fault kind."""
        saw_dup = saw_tie = saw_ooo = False
        kinds: set[str] = set()
        for seed in range(40):
            scenario = generate_scenario(seed)
            kinds.update(f.kind for f in scenario.faults)
            seen_ids: set[str] = set()
            last_ts = 0
            for _stream, events in scenario.batches:
                for event in events:
                    if event.event_id in seen_ids:
                        saw_dup = True
                    seen_ids.add(event.event_id)
                    if event.timestamp < last_ts:
                        saw_ooo = True
                    last_ts = max(last_ts, event.timestamp)
                timestamps = [e.timestamp for e in events]
                if len(timestamps) != len(set(timestamps)):
                    saw_tie = True
        assert saw_dup and saw_tie and saw_ooo
        assert kinds == set(FAULT_KINDS)

    def test_fault_schedule_is_sorted_and_in_range(self):
        for seed in range(20):
            scenario = generate_scenario(seed)
            indices = [f.at_batch for f in scenario.faults]
            assert indices == sorted(indices)
            assert all(0 <= i < len(scenario.batches) for i in indices)

    def test_rebalance_and_mid_batch_kinds_are_scheduled(self):
        """The PR-9 fault vocabulary (pool grow/shrink, kill-mid-batch)
        is generated within the first forty seeds, with every fault's
        fields inside the bounds the runner relies on: ``at_batch``
        indexes a real batch, ``target`` is a small non-negative int the
        runner takes modulo the live pool, and ``kind`` is never outside
        ``FAULT_KINDS``."""
        seen: set[str] = set()
        for seed in range(40):
            scenario = generate_scenario(seed)
            for fault in scenario.faults:
                assert fault.kind in FAULT_KINDS
                assert 0 <= fault.at_batch < len(scenario.batches)
                assert 0 <= fault.target < 4
                seen.add(fault.kind)
        assert {"add_worker", "remove_worker", "crash_mid_batch"} <= seen


class TestRunnerContracts:
    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError, match="unknown topology"):
            run_seed(0, "mainframe")

    def test_replay_command_names_the_seed(self):
        result = run_seed(7, "single", max_events=60)
        assert "--seed 7" in result.replay_command
        assert "--topology single" in result.replay_command
        assert result.ok, result.detail

    def test_same_seed_same_verdict_and_reply_count(self):
        first = run_seed(11, "process", max_events=120)
        second = run_seed(11, "process", max_events=120)
        assert first.ok and second.ok, (first.detail, second.detail)
        assert first.replies == second.replies
        assert first.scenario == second.scenario

    def test_cli_exit_codes(self, capsys):
        assert chaos_main(["--seed", "3", "--topology", "single",
                           "--max-events", "60"]) == 0
        out = capsys.readouterr().out
        assert "ok topology=single" in out
        assert "1 run(s) clean" in out


class TestChaosSmoke:
    """A bounded always-on slice of the chaos space: one faulty seed per
    process topology, small scenarios so tier-1 stays fast. The broad
    sweep (25 fresh seeds, full-size scenarios, every topology) runs in
    the ``chaos`` CI job."""

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_seed_zero_everywhere(self, topology):
        # Seed 0 at this scenario size schedules a worker crash
        # mid-stream; the rebalance kinds get their own smoke below.
        result = run_seed(0, topology, max_events=200)
        assert result.ok, f"{result.detail}\nreplay: {result.replay_command}"

    def test_rebalance_faults_hold_the_invariant(self):
        # Seed 4 at this size grows the pool twice around a worker
        # crash — checkpoint shipping to fresh workers under traffic.
        result = run_seed(4, "process", max_events=200)
        assert result.ok, f"{result.detail}\nreplay: {result.replay_command}"
        assert any(f.startswith("add_worker") for f in result.faults_applied)

    def test_mid_batch_kill_holds_the_invariant(self):
        # Seed 11 SIGKILLs a worker from a side thread while send_batch
        # is in flight, then forces a checkpoint: the recovery replay
        # must keep replies byte-identical to the single reference.
        result = run_seed(11, "process", max_events=200)
        assert result.ok, f"{result.detail}\nreplay: {result.replay_command}"
        assert any(
            f.startswith("crash_mid_batch") for f in result.faults_applied
        )


class TestPinnedCorpus:
    """Seeds that exposed real bugs, one named test each — append-only.

    No seed has survived verification as a bug-finder yet (seeds 0-2
    and the 100-124 sweep run clean on every topology); when one does,
    pin it like::

        def test_seed_NNNN_description_of_the_bug(self):
            result = run_seed(NNNN, "process-2f")
            assert result.ok, result.detail
    """

    def test_corpus_placeholder_keeps_class_importable(self):
        assert callable(run_seed)

    def test_seed_10_mid_stream_ddl_races_the_data_plane(self):
        """Seed 10 on the sharded-frontend topology caught a real bug
        during PR 9 development: ``create_metric`` mid-stream broadcast
        the metric on the supervisor control pipes while the next
        batch rode the frontends' data sockets — two unordered
        channels — so a worker could process the following events
        before applying the metric and reply without its results
        (reply[46] lost ``count(*)`` for the batch-2 mid-stream
        metric). Fixed by ordering, with no barrier: ``_publish_op``
        writes the op to every worker's control pipe before any
        frontend hears of it, and a worker drains its control pipe
        before every data frame it reads (the ``_sync_workers`` round
        trip that first fixed it is deleted)."""
        result = run_seed(10, "process-2f", max_events=200)
        assert result.ok, f"{result.detail}\nreplay: {result.replay_command}"

    def test_seed_9108_two_crashes_race_the_redial(self):
        """Seed 9108 on ``process-2f`` crashes ``shard-0`` twice in quick
        succession: a frontend dials the restarted worker, learns of the
        next restart and hangs up to re-dial — and the worker, reading
        its accept backlog late, finds a link whose peer is already
        gone. ``shard_worker_main`` must drop such a link (it once died
        on it, ~1 run in 6) and serve the re-dial."""
        result = run_seed(9108, "process-2f")
        assert result.ok, f"{result.detail}\nreplay: {result.replay_command}"
