"""Speed probe that runs beside one benchmark operation.

Usage: python3 perfbench/calibrate.py

On a shared host the speed of a CPU can change by a factor of two within
seconds, so raw times of identical operations spread far more than any
code change worth measuring.  This probe measures that speed where and when
the operation runs: started pinned to the operation's CPU, it lowers its own
priority to the lowest (nice 19), prints ``ready``, and repeats a fixed unit
of pure-Python work until it receives SIGTERM.  At that priority it gets
about 1.5% of the CPU, in short slices spread over the operation's whole
run.  It then prints its CPU seconds per completed unit as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import time

_IDENTITY = tuple(range(1, 513))
_REVERSAL = _IDENTITY[::-1]


def unit() -> tuple:
    """Twenty products of degree-512 permutations stored as image tuples."""
    x = _IDENTITY
    for _ in range(20):
        x = tuple(_REVERSAL[i - 1] for i in x)
    return x


def main() -> None:
    stop = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    os.nice(19)
    print("ready", flush=True)
    units, cpu, start = 0, 0.0, time.process_time()
    while not (stop and units):
        unit()
        units += 1
        cpu = time.process_time() - start
    print(json.dumps({"units": units, "cpu_s": cpu}))


if __name__ == "__main__":
    main()
