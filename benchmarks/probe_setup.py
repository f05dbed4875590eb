"""Print the set-up time of one benchmark workload in a fresh interpreter.

run.py starts this several times per run and reports the median as setup_s:
    python3 benchmarks/probe_setup.py <workload> <seed>
"""

import sys

import run

print(run.Run(sys.argv[1], int(sys.argv[2])).setup_s)
