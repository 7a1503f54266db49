"""Run CLI child processes and measure their wall time and peak RSS."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# Per-command timeout.
CMD_TIMEOUT_S = 120.0
# Everything a benchmark run starts must have ended by this point of the run.
HARD_LIMIT_S = 170.0

# Children are started by this small helper process, not by the harness.
# On exec, Linux records the high-water RSS of the address space being
# replaced into the new program's ru_maxrss, so a child forked from the
# harness would report at least the harness's own peak (tens of MB after it
# has parsed the inputs and read the outputs). The helper stays at the
# interpreter's baseline, below the peak of any CLI run. It reaps each child
# with os.wait4, which returns that child's usage alone (with the pool
# workers it reaped itself), unlike RUSAGE_CHILDREN, which keeps the maximum
# over every child reaped so far and would hide a drop in peak RSS. Each
# child gets its own process group, so a timeout also kills its pool workers.
SPAWNER = r"""
import json, os, signal, subprocess, sys, threading, time

def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass

for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"],
                                start_new_session=True)
        timer = threading.Timer(req["timeout"], kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss]), flush=True)
"""


@dataclass(frozen=True)
class ChildResult:
    argv: tuple[str, ...]
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        command = self.argv[3] if len(self.argv) > 3 else self.argv[-1]
        return f"{command}: exit {self.returncode}; {tail[0][:200]}"


def time_left(started: float) -> float:
    """Timeout for the next child of a run that began at perf_counter() == started."""
    return max(0.1, min(CMD_TIMEOUT_S, started + HARD_LIMIT_S - time.perf_counter()))


def cli_env(root: Path) -> dict:
    """Environment that runs the CLI from the checkout's sources."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TASC_COLOR", None)
    return env


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "tasc.cli", *args]


class Spawner:
    """Runs children one at a time through the helper process; use as a context manager."""

    def __init__(self, work: Path):
        self.work = work
        self.helper = subprocess.Popen(
            [sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()

    def run(self, argv: list[str], env: dict, timeout: float) -> ChildResult:
        fd_out, out = tempfile.mkstemp(dir=self.work)
        fd_err, err = tempfile.mkstemp(dir=self.work)
        os.close(fd_out)
        os.close(fd_err)
        request = {"argv": argv, "env": env, "timeout": timeout, "stdout": out, "stderr": err}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError("the process spawner exited")
        returncode, wall, maxrss_kb = json.loads(reply)
        texts = []
        for path in (out, err):
            texts.append(Path(path).read_text(encoding="utf-8", errors="replace"))
            os.unlink(path)
        return ChildResult(tuple(argv), returncode, wall, maxrss_kb / 1024.0, *texts)
