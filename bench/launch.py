"""Run one command; write its exit code, wall time and resource use as JSON.

Usage: ``python3 -I -S launch.py RESULT.json COMMAND...``

On Linux a child's peak RSS starts at the RSS of the process that forked it,
and the benchmark's own process holds numpy, the package and the generated
data. Forking the measured command from this small interpreter instead keeps
the figure to the command's own memory. ``wait4`` also counts the workers the
command has reaped, so CPU time and peak RSS cover the whole process tree.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result_path, *command = sys.argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "returncode": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
