"""Run one command and report its wall time, exit code and peak RSS.

    python3 -S perfbench/launch.py TIMEOUT STDOUT_PATH -- ARGV...

Prints one JSON line: ``{"wall": s, "code": n, "rss_kb": n}``. The wall
runs from spawn to exit. The command is started from this small process,
not from the benchmark, because Linux counts the resident set a child
inherits at fork towards its peak (``ru_maxrss``): spawned from a parent
holding a workload in memory, every child would report at least the
parent's size. A command still running after TIMEOUT seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    timeout, out_path, sep, cmd = float(argv[0]), argv[1], argv[2], argv[3:]
    if sep != "--" or not cmd:
        sys.stderr.write(__doc__)
        return 2
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "code": proc.returncode,
                      "rss_kb": usage.ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
