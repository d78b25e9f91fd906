"""One set-up in a fresh interpreter, timed; run.py starts several.

    python3 bench/probe.py <workload> <seed>

Prints the set-up seconds: import of cmforge.cli, input generation and one
warm-up operation.  cmforge.cli is imported before anything else, so its
import pays for every module it needs.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.path[0] + "/../src")
import cmforge.cli  # noqa: E402

imported = time.perf_counter() - start

import run  # noqa: E402

start = time.perf_counter()
run.prepare(sys.argv[1], int(sys.argv[2]))
print(imported + time.perf_counter() - start)
