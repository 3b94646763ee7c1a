"""Set-up probe, run by ``run.py`` in a fresh interpreter.

Prints the seconds from before ``import mehler`` to the end of the
workload's first-call lazy set-up, then the mean time of the speed probe
measured right after, in this interpreter:

    python3 perfbench/probe.py heat-points    # from the repository root
"""

import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import mehler

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workloads.setup(mehler, sys.argv[1])
    elapsed = time.perf_counter() - start

    from run import SpeedProbe

    probe = SpeedProbe()
    for _ in range(20):
        probe()
    print(elapsed, statistics.fmean(probe.samples))
