"""Child processes, started one at a time and timed from spawn to exit."""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import NamedTuple


class ChildResult(NamedTuple):
    exit_code: int
    wall_s: float
    max_rss_kb: int


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_python(args: list[str], env: dict, log_path: str,
               timeout_s: float) -> ChildResult:
    """Run ``python3 <args>`` with stdout and stderr sent to ``log_path``.

    Waits with ``wait4`` so the child's own peak RSS comes back with its
    exit status.  A child still running after ``timeout_s`` is killed and
    reaped before ``ChildTimeout`` propagates.
    """
    if timeout_s <= 0:
        raise ChildTimeout
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_path,
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(pid, 0)
        except ChildTimeout:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return ChildResult(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss)


def child_env(root: str) -> dict:
    """Environment for a child that imports finsym from ``<root>/src`` and
    the benchmark's speed probe from ``<root>/perfbench``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(root, "src"), root))
    env.pop("PYTHONSTARTUP", None)
    return env
