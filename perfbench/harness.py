"""Workload-independent pieces of the lirg benchmark.

- quartiles and spread, as ``statistics.quantiles`` gives them;
- running one CLI child with its own resource accounting: ``os.wait4``
  returns the rusage of that child alone, so a large ``ru_maxrss`` from one
  child never carries into the next reading, as it would with
  ``RUSAGE_CHILDREN``, and ``spawner.py`` keeps the benchmark's own size out
  of it;
- span arithmetic on the traces that ``launcher.py`` writes.

Spans are lists ``[name, start, end, parent, op]``; a span's id is its index
in the list, and ``parent`` is the id of the span that was open when it
started (``None`` at the top).
"""

import json
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

SPAWNER = Path(__file__).resolve().parent / "spawner.py"
TRACE_FD_ENV = "PERFBENCH_TRACE_FD"
_READ_CHUNK = 1 << 20
_WRITE_CHUNK = 1 << 16


# -- statistics ---------------------------------------------------------------


def quartiles(values):
    """(q1, q2, q3) by ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return (float(values[0]),) * 3
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


# -- one child process ----------------------------------------------------------


@dataclass
class Child:
    """What one child process did, accounted on its own."""

    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    trace: bytes = b""
    out_bytes: int = 0


class Spawner:
    """Runs children through ``spawner.py`` (see there for why)."""

    def __init__(self):
        mine, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-I", "-S", str(SPAWNER), str(theirs.fileno())],
                stdin=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )
        self.sock = mine

    def close(self):
        self.sock.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, argv, *, env, cwd, timeout, stdin=b"", traced=False) -> Child:
        """Run ``argv`` to the end, feeding ``stdin`` and draining its pipes.

        Wall time runs from the fork to the reap.  A child still running after
        ``timeout`` seconds is killed and reported as timed out.  With
        ``traced``, the child gets one more pipe as descriptor 3, whose number
        it finds in the environment under ``TRACE_FD_ENV``.
        """
        pipes = [os.pipe() for _ in range(4 if traced else 3)]
        theirs = [pipes[0][0]] + [w for _, w in pipes[1:]]
        mine = [pipes[0][1]] + [r for r, _ in pipes[1:]]
        if traced:
            env = dict(env, **{TRACE_FD_ENV: "3"})
        request = json.dumps({"argv": list(map(str, argv)), "env": dict(env), "cwd": str(cwd)})
        try:
            socket.send_fds(self.sock, [request.encode()], theirs)
        finally:
            for fd in theirs:
                os.close(fd)
        pid = json.loads(self.sock.recv(1 << 16))["pid"]
        try:
            chunks, timed_out = _pump(mine[0], stdin, mine[1:], time.monotonic() + timeout)
            if timed_out:
                os.kill(pid, signal.SIGKILL)
        finally:
            for fd in mine[1:]:
                os.close(fd)
        done = json.loads(self.sock.recv(1 << 16))
        stdout = b"".join(chunks[0])
        return Child(
            returncode=done["status"],
            stdout=stdout,
            stderr=b"".join(chunks[1]),
            wall_s=done["wall_s"],
            cpu_s=done["cpu_s"],
            rss_mb=done["maxrss_kib"] / 1024.0,
            timed_out=timed_out,
            trace=b"".join(chunks[2]) if traced else b"",
            out_bytes=len(stdout),
        )


def _pump(stdin_fd, data, read_fds, deadline):
    """Write ``data`` to ``stdin_fd``, closing it after, and read ``read_fds``
    to EOF, in whatever order the child needs; give up at ``deadline``."""
    chunks = [[] for _ in read_fds]
    index = {fd: i for i, fd in enumerate(read_fds)}
    pending = memoryview(data)
    with selectors.DefaultSelector() as sel:
        for fd in read_fds:
            sel.register(fd, selectors.EVENT_READ)
        if pending:
            os.set_blocking(stdin_fd, False)
            sel.register(stdin_fd, selectors.EVENT_WRITE)
        else:
            os.close(stdin_fd)
        try:
            open_reads = len(read_fds)
            while open_reads:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return chunks, True
                for key, _ in sel.select(remaining):
                    fd = key.fd
                    if fd in index:
                        block = os.read(fd, _READ_CHUNK)
                        if block:
                            chunks[index[fd]].append(block)
                        else:
                            sel.unregister(fd)
                            open_reads -= 1
                        continue
                    try:
                        pending = pending[os.write(fd, pending[:_WRITE_CHUNK]) :]
                    except BlockingIOError:
                        continue
                    except BrokenPipeError:
                        pending = pending[:0]
                    if not pending:
                        sel.unregister(fd)
                        os.close(fd)
            return chunks, False
        finally:
            if stdin_fd in sel.get_map():
                sel.unregister(stdin_fd)
                os.close(stdin_fd)


# -- spans ---------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def self_by_name(spans):
    out = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        out[name] += s
    return dict(out)


def total_by_name(spans):
    """Inclusive time per name; a span inside one of the same name is not
    counted again, so recursion is not double counted."""
    out = defaultdict(float)
    for name, start, end, parent, _ in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[name] += end - start
    return dict(out)


@dataclass
class OpRecord:
    """The children of one op, in order, with the command label of each."""

    children: list = field(default_factory=list)
    error: str | None = None

    @property
    def wall_s(self):
        return sum(c.wall_s for _, c in self.children)

    @property
    def cpu_s(self):
        return sum(c.cpu_s for _, c in self.children)

    @property
    def rss_mb(self):
        return max((c.rss_mb for _, c in self.children), default=0.0)
