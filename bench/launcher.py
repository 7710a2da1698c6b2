"""Starts benchmark child processes from a process that stays small.

On Linux a child's ``ru_maxrss`` is at least the high-water RSS of the
process that spawned it, because exec records the spawner's memory as the
child's. The benchmark holds its inputs and oracle in memory, so it spawns
every timed stage through this launcher, started before set-up, and the
children's peak RSS is their own.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "stderr",
"timeout"}``; one JSON reply per line on stdout, ``{"status", "wall_s",
"maxrss_kb", "utime_s", "stime_s"}``, with ``status`` as ``os.wait4`` gives
it. The launcher exits at end of input. Run it with ``python3 -S``.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    for request in sys.stdin:
        job = json.loads(request)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, job["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(job["argv"][0], job["argv"], job["env"], file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(job["timeout"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        reply = {"status": status, "wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                 "utime_s": usage.ru_utime, "stime_s": usage.ru_stime}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
