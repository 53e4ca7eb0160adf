"""Run one command and record its own wall time, CPU time and peak RSS.

    python3 perfbench/spawn.py REPORT.json COMMAND [ARG...]

The command inherits this process's standard streams and environment.
The harness starts every measured command through this small process
rather than directly: at exec, Linux charges a new process with the
peak RSS of the memory it was spawned from, so a child of the harness,
which holds whole outputs, would report the harness's peak instead of
its own.  Times are CLOCK_MONOTONIC, comparable with the harness's.
"""

import json
import os
import sys
import time


def main() -> int:
    report, command = sys.argv[1], sys.argv[2:]
    start = time.monotonic()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = time.monotonic()
    with open(report, "w") as handle:
        json.dump({"returncode": os.waitstatus_to_exitcode(status),
                   "start": start, "end": end, "wall_s": end - start,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
