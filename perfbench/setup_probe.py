"""Cold set-up time of the simulator, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR SIMULATE_ARGS...

Prints the seconds from ``import onebit_mimo`` through
``cli.parse_run_spec(SIMULATE_ARGS)``: the work a user pays before the first
trial, including the numpy/scipy imports the package pulls in.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import onebit_mimo  # noqa: E402
from onebit_mimo import cli  # noqa: E402

cli.parse_run_spec(sys.argv[2:])
print(time.perf_counter() - start)
