"""Start-and-wait helper for bench/run.py.

    python3 bench/spawn.py OUT_FILE ERR_FILE

Reads one JSON argv list per line from standard input, runs it to its end
with standard output and error sent to OUT_FILE and ERR_FILE, and answers
with one JSON line: exit code, wall seconds and the child's peak RSS from
os.wait4.  Jobs run one at a time.

On Linux a child inherits the peak RSS of the process that forked it (the
high-water mark is carried across exec), so jobs are started from this small
process rather than from the benchmark, whose memory grows as it checks
results.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    out_path, err_path = sys.argv[1:3]
    for line in sys.stdin:
        argv = json.loads(line)
        with open(out_path, "w") as out, open(err_path, "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"exit": proc.returncode, "wall_s": wall,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
