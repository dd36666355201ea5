"""Start commands in a lean helper process; report wall time, exit code and
peak RSS of each.

On Linux a child's ``ru_maxrss`` starts from the high-water RSS of the
process that forked it. The benchmark process holds a whole block of
arrays, so its children would all report at least that much. The helper
imports nothing beyond the standard library and is started before the
benchmark loads numpy, so the children it forks start from a few MiB.

Protocol: one JSON request per line on stdin, ``{"argv", "log", "cwd"}``;
one JSON reply per line on stdout, ``{"wall", "maxrss_kb", "code"}``. The
helper exits when its stdin closes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Spawner:
    """Client side: owns the helper process."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], log: str, cwd: str) -> tuple[float, float, int]:
        """Run ``argv`` to completion; (wall seconds, peak RSS MiB, exit code)."""
        self._proc.stdin.write(json.dumps({"argv": argv, "log": log, "cwd": cwd}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner helper exited")
        reply = json.loads(line)
        return reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"]

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=log, stderr=subprocess.STDOUT,
                                    cwd=req["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": code}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
