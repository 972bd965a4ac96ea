"""Start benchmark children from a process that stays small.

On Linux a child's ``ru_maxrss`` also counts the high-water mark of the
address space it was forked from, recorded when it calls exec.  Children
spawned by the benchmark itself, which holds their outputs (up to 44 MB),
would report the benchmark's size instead of their own; children forked from
this process report their own peak, because this process stays a few MB.

Usage: ``python3 -I -S perfbench/spawner.py FD``, where FD is one end of a
Unix ``SOCK_SEQPACKET`` socket pair.  Each request is one message: a JSON object
``{"argv": [...], "env": {...}, "cwd": "..."}`` carrying the descriptors the
child gets as 0, 1, 2 and, when there is a fourth, 3.  The replies are JSON
messages: ``{"pid": ...}`` once the child is forked, then ``{"status": ...,
"cpu_s": ..., "maxrss_kib": ..., "wall_s": ...}`` from ``os.wait4`` once it
has ended.  The process exits when the socket is closed.
"""

import json
import os
import socket
import sys
import time


def spawn(request, fds):
    pid = os.fork()
    if pid == 0:
        try:
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.chdir(request["cwd"])
            os.execve(request["argv"][0], request["argv"], request["env"])
        finally:
            os._exit(127)
    return pid


def main():
    sock = socket.socket(fileno=int(sys.argv[1]))
    sock.set_inheritable(False)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 4)
        if not msg:
            return 0
        for fd in fds:
            os.set_inheritable(fd, False)
        start = time.perf_counter()
        pid = spawn(json.loads(msg), fds)
        for fd in fds:
            os.close(fd)
        sock.send(json.dumps({"pid": pid}).encode())
        _, status, usage = os.wait4(pid, 0)
        reply = {
            "status": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "wall_s": time.perf_counter() - start,
        }
        sock.send(json.dumps(reply).encode())


if __name__ == "__main__":
    sys.exit(main())
