"""Process plumbing and statistics shared by the benchmark scripts.

Every command the benchmark times runs as a fresh interpreter in its own
process group, with its output redirected to files, a wall-clock
timeout, and its resource usage (peak RSS of the process tree) taken
from ``os.wait4``.  Nothing here imports ``repro``: the program is only
ever driven from outside, through its CLI.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: ``prctl`` option making this process adopt orphaned descendants, so a
#: killed pass's grandchildren (e.g. pool workers) are reaped here.
_PR_SET_CHILD_SUBREAPER = 36


def load_spec() -> dict:
    """The benchmark definition (``BENCHMARK.json`` at the repo root)."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def program_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux); a no-op elsewhere."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _stop_group(pgid: int, grace: float = 10.0) -> None:
    """Kill whatever is left of process group ``pgid`` and wait until
    every member has been reaped (or ``grace`` seconds pass)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass  # orphans adopted through the subreaper flag
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class CommandRun:
    """One finished child process."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


def run_command(argv: Sequence[str], *, cwd: str, timeout: float,
                log_prefix: str) -> CommandRun:
    """Run ``argv`` to completion in its own process group.

    Output goes to ``<log_prefix>.stdout``/``.stderr`` (files, so a
    chatty child can never block on a full pipe).  The wall clock spans
    process creation to reaping.  On timeout the whole group is killed.
    """
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    out_path, err_path = log_prefix + ".stdout", log_prefix + ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=cwd, env=program_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, start_new_session=True)
        timer = threading.Timer(max(0.0, timeout), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    # ru_maxrss is in KiB on Linux and covers the child and every
    # descendant it waited for (its largest member, not a sum).
    return CommandRun(returncode=proc.returncode,
                      wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                      timed_out=killed.is_set(), stdout=stdout, stderr=stderr)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of ``samples`` (Python's default
    ``statistics.quantiles`` method, as the comparison tools use)."""
    values = list(samples)
    if not values:
        raise ValueError("no samples to summarize")
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` directly (no subprocess, and
    never a search above the checkout); ``unknown`` outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> Dict[str, object]:
    """Where a result was measured: interpreter, platform, cores, commit."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def tail(text: str, lines: int = 3) -> str:
    """Last few non-empty lines of ``text``, joined for a one-line log."""
    kept = [line for line in text.strip().splitlines() if line.strip()]
    return " | ".join(kept[-lines:])
