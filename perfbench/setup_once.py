"""Time one cold set-up of a workload in a fresh interpreter.

Usage: ``python3 perfbench/setup_once.py WORKLOAD SEED PROBE``.  Prints
the seconds from before ``import repro`` to the end of the workload's
set-up, then the named host speed probe taken just before; ``run.py``
takes the median over several of these.
"""

import sys
import time

import hostspeed

_PROBE = hostspeed.PROBES[sys.argv[3]].measure(repeats=3)
_START = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(time.perf_counter() - _START, _PROBE)
