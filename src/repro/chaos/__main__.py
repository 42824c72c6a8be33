"""CLI: ``python -m repro.chaos`` — run chaos seeds, replay failures.

Examples::

    # one seed on the default topology (shard worker processes)
    PYTHONPATH=src python -m repro.chaos --seed 42

    # a CI-style sweep: 25 fresh seeds on every topology
    PYTHONPATH=src python -m repro.chaos --seeds 25 --start 1000 \\
        --topology all

    # replay exactly what a failure printed
    PYTHONPATH=src python -m repro.chaos --seed 1017 --topology process-2f

Exit code 0 iff every (seed, topology) run upheld the invariant; any
failure prints the seed and a ready-to-paste replay command.
"""

from __future__ import annotations

import argparse
import json
import sys

from .runner import TOPOLOGIES, run_seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description=(
            "seeded chaos runs asserting replies byte-identical to "
            'create_cluster("single")'
        ),
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="run exactly this seed")
    parser.add_argument("--seeds", type=int, default=1,
                        help="how many consecutive seeds to run (with --start)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed when sweeping with --seeds")
    parser.add_argument(
        "--topology",
        default="process",
        help=(
            "target topology: "
            + ", ".join(sorted(TOPOLOGIES))
            + ", or 'all', or a comma-separated list"
        ),
    )
    parser.add_argument("--durable", action="store_true",
                        help="run the target over a durable (on-disk) log")
    parser.add_argument("--max-events", type=int, default=500,
                        help="upper bound on events per scenario")
    args = parser.parse_args(argv)

    if args.topology == "all":
        topologies = sorted(TOPOLOGIES)
    else:
        topologies = [name.strip() for name in args.topology.split(",")]
    for name in topologies:
        if name not in TOPOLOGIES:
            parser.error(
                f"unknown topology {name!r}; pick from {sorted(TOPOLOGIES)}"
            )

    seeds = [args.seed] if args.seed is not None else [
        args.start + offset for offset in range(args.seeds)
    ]

    failures = 0
    for seed in seeds:
        for topology in topologies:
            result = run_seed(
                seed,
                topology,
                durable=args.durable,
                max_events=args.max_events,
            )
            status = "ok" if result.ok else "FAIL"
            print(
                f"{status} topology={topology} {result.scenario} "
                f"replies={result.replies} "
                f"faults=[{', '.join(result.faults_applied) or 'none'}]"
            )
            if not result.ok:
                failures += 1
                print(f"  {result.detail}")
                print(f"  replay: {result.replay_command}")
                if result.telemetry:
                    print(
                        "  telemetry: "
                        + json.dumps(result.telemetry, sort_keys=True)
                    )
    if failures:
        print(f"chaos: {failures} failing run(s)", file=sys.stderr)
        return 1
    print(f"chaos: {len(seeds) * len(topologies)} run(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
