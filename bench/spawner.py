"""Small helper process that starts the cli workload's processes.

Reads one JSON argument list per line on standard input, starts it with
``os.posix_spawn`` (standard output and error to /dev/null), waits for it
and answers one JSON line: the exit code, the wall time from just before
the spawn to the reaped exit, and the child's peak resident set.

The helper imports neither numpy nor bargtop, so its own small resident
set is all a child inherits before ``exec``; the child's peak is then the
peak of the program alone.  An argument ``{spawn_ns}`` is replaced by
``time.monotonic_ns()`` taken just before the spawn.  End of input ends
the helper.
"""

import json
import os
import sys
import time


def main() -> int:
    null = os.open(os.devnull, os.O_RDWR)
    actions = [(os.POSIX_SPAWN_DUP2, null, 1), (os.POSIX_SPAWN_DUP2, null, 2)]
    for line in sys.stdin:
        argv = json.loads(line)
        t0 = time.monotonic_ns()
        argv = [str(t0) if a == "{spawn_ns}" else a for a in argv]
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall_s = (time.monotonic_ns() - t0) / 1e9
        reply = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall_s, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
