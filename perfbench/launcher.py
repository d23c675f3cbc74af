"""Spawn-and-reap helper for run.py.

On Linux a child's ``ru_maxrss`` starts at the high-water RSS of the
process that spawned it, so a CLI child spawned straight from run.py
(which holds numpy and the generated grids) would report run.py's memory
instead of its own. This helper imports nothing heavy and stays small
(about 22 MB, well below any CLI child), so the children it spawns report
their own peak.

The helper can also time a fixed pure-Python calibration loop right before
and right after each child. On a shared host the CPU's speed drifts by up
to 2x over seconds to minutes; the loop measures that speed around the
moment the child runs, and run.py uses it to put each child's times on a
fixed speed scale.

Protocol: one JSON request per line on stdin,
``{"cmd": [...], "cwd": "...", "calibrate": n}``;
one JSON reply per line on stdout with the child's exit code, wall seconds
from spawn to exit, user+sys CPU seconds and peak RSS in MB, all read from
``os.wait4``, and the seconds of ``calibrate`` loops run before and as many
after the child. The helper exits at end of input.
"""

import array
import json
import os
import subprocess
import sys
import time

CALIBRATION_ITERATIONS = 200_000
# 8 MB, more than a core's private caches, so the loop also feels
# contention for the shared cache and memory, as the CLI does.
CALIBRATION_TABLE = array.array("d", range(1 << 20))


def calibrate() -> float:
    """Seconds of a fixed loop of integer arithmetic and scattered reads."""
    start = time.perf_counter()
    x, total = 1, 0.0
    for _ in range(CALIBRATION_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += CALIBRATION_TABLE[x & 0xFFFFF]
    return time.perf_counter() - start


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        before = [calibrate() for _ in range(request["calibrate"])]
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"], stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        after = [calibrate() for _ in range(request["calibrate"])]
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "rc": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "calibration": before + after,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
