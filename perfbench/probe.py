"""One timed set-up of a workload, in a fresh interpreter.

``run.py`` starts this several times and reports the median as
``setup_s``.  Set-up is everything before the timed phase: importing the
program, deriving the grid and guarding its identity, and constructing
the runner.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED DB_PATH``.  Prints one
JSON object with ``setup_s``.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    start = time.perf_counter()
    name, seed, db_path = argv[0], int(argv[1]), argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads

    workload = workloads.WORKLOADS[name]
    grid = workload.grid()
    # Constructing the runner imports the program and its cell function.
    with workloads.make_runner(workload, db_path, seed) as runner:
        workloads.guard_grid(runner.cells(**grid))
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
