"""Ablation bench: reservoir chunk size / codec / prefetch."""

from conftest import assert_checks, write_report

from repro.bench.experiments import abl_reservoir


def test_ablation_reservoir(benchmark):
    result = benchmark.pedantic(
        abl_reservoir.run, kwargs={"fast": True}, rounds=1, iterations=1
    )
    # wall-clock rates go to stdout only: the tracked report repeats exactly
    write_report("ablation_reservoir", abl_reservoir.render(result, rates=False))
    print("\n" + abl_reservoir.render(result))
    assert_checks(result)
