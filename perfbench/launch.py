"""Process launcher for the benchmark: runs one command per request and times it.

Reads one JSON request per line on stdin, ``{"args": [...], "cwd": "...",
"env": {...}, "timeout": seconds}``, runs the command to its end and writes
one JSON line ``{"wall_s", "peak_rss_mb", "code"}`` to stdout.

It exists to keep the parent of every timed process small. Linux carries the
peak RSS of a process's pre-exec image into the child's ``ru_maxrss``, so a
child forked from the benchmark itself, which holds the planted truth, would
report the benchmark's peak instead of its own. ``wait4`` returns the largest
peak RSS among the child and the children it reaped, which covers a process
pool's workers.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _run(request: dict) -> dict:
    with open(os.path.join(request["cwd"], "stderr.txt"), "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(request["args"], cwd=request["cwd"], env=request["env"],
                                   stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        watchdog = threading.Timer(request["timeout"], os.killpg, (process.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "code": process.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(_run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
