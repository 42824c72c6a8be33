"""Ablation bench: LSM state store behaviour."""

from conftest import assert_checks, write_report

from repro.bench.experiments import abl_lsm


def test_ablation_lsm(benchmark):
    result = benchmark.pedantic(
        abl_lsm.run, kwargs={"fast": True}, rounds=1, iterations=1
    )
    # wall-clock rates go to stdout only: the tracked report repeats exactly
    write_report("ablation_lsm", abl_lsm.render(result, rates=False))
    print("\n" + abl_lsm.render(result))
    assert_checks(result)
