"""Starts cli_workflow ops from a process that has imported almost nothing.

On Linux a child's peak-RSS count starts from its parent's size at exec, so
an op started by a process that has imported phaseff, numpy and scipy would
never report less than that process.  The worker starts this launcher before
it imports anything heavy and sends it one JSON request per stdin line:

    {"argv": [...], "env": {...}, "out": path, "err": path}

and gets one JSON line back per op:

    {"returncode": n, "cpu_s": user + sys of the op, "maxrss_kb": n}
"""

import json
import os
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
            pid = os.posix_spawn(
                request["argv"][0],
                request["argv"],
                request["env"],
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                    (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
                ],
            )
            _, status, usage = os.wait4(pid, 0)
        reply = {
            "returncode": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
