"""The process that hosts ``frontdoor_trips``' cluster behind TCP.

Started by ``workloads.Target`` as a plain child (``subprocess``, not
``multiprocessing``: a spawn context would leave a resource-tracker
process that outlives the run by a moment). Prints the listening address
as one JSON line, serves until its standard input reaches end of file —
which a dead parent also causes — then closes the cluster and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
sys.path[:] = [p for p in sys.path if not p or Path(p).resolve() != _BENCH]
sys.path.insert(0, str(_BENCH.parent / "src"))

from repro.engine import create_cluster  # noqa: E402


def main() -> int:
    cluster = create_cluster("single", serve="tcp://127.0.0.1:0")
    try:
        print(json.dumps(list(cluster.server.address)), flush=True)
        sys.stdin.buffer.read()
    finally:
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
