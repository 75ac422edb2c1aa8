"""The benchmark's workloads: which ``repro`` commands one pass runs,
what each must print, and which of its outputs the golden digest covers.

Why each workload exists (the same text is in ``BENCHMARK.json``):

* ``report-cold`` — the headline pipeline, ``repro report --grid smoke``
  on an empty cache: the event loop and the graphs layer dominate and
  the cache is written.
* ``report-warm`` — the same command on a primed cache: every cell is a
  cache hit, so only aggregation, checks and rendering run and the
  engines are idle (engine changes must show no change here).
* ``sweep-modeled`` — the Δ-ring/loss/crash path of the event loop on
  seeded graphs that redraw topology per cell; the only process pool.
* ``columnar`` — batched NumPy kernels plus one large single election;
  the event loop and ``Network.build`` are idle.
* ``net`` — the real-socket backend, which copies the round logic.

Argument templates use ``{seed}`` (the program seed), ``{cache}`` and
``{out}`` (fresh per-pass directories).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Command:
    """One ``python -m repro`` invocation inside a pass."""

    argv: Tuple[str, ...]
    #: Substring the command's stdout must contain (its verdict line).
    expect: str
    #: What the digest covers: ``report`` (report.json + EXPERIMENTS.md
    #: in ``{out}``), ``cache`` (the sorted records under ``{cache}``,
    #: see :func:`cache_lines`) or ``stdout``.
    output: str

    def render(self, seed: int, cache: str, out: str) -> List[str]:
        return [a.format(seed=seed, cache=cache, out=out) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[Command, ...]
    #: Passes run against a copy of a cache primed by one untimed run of
    #: the same commands (users of a warm cache paid for it earlier).
    warm_cache: bool = False


_REPORT = Command(
    argv=("report", "--grid", "smoke", "--seed", "{seed}", "--workers", "1",
          "--cache-dir", "{cache}", "--out", "{out}"),
    expect="claims: 15 verified, 0 diverged, 0 skipped; "
           "cells: 161 total, 161 executed, 0 cached",
    output="report")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("report-cold", (_REPORT,)),
    Workload("report-warm", (Command(
        argv=_REPORT.argv,
        expect="claims: 15 verified, 0 diverged, 0 skipped; "
               "cells: 161 total, 0 executed, 161 cached",
        output="report"),), warm_cache=True),
    Workload("sweep-modeled", (Command(
        argv=("sweep", "--name", "bench-modeled",
              "--algorithms", "least-el", "flood-max",
              "--graphs", "er:128:m1000", "ring:64",
              "--delay", "1", "uniform:4", "--loss", "0", "0.05",
              "--crash", "0", "4", "--trials", "6", "--workers", "2",
              "--seed", "{seed}", "--cache-dir", "{cache}"),
        expect="cells: 192 total, 192 executed, 0 cached",
        output="cache"),)),
    Workload("columnar", (
        Command(
            argv=("sweep", "--name", "bench-columnar",
                  "--algorithms", "flood-max", "sublinear",
                  "--graphs", "clique:8192", "clique:16384",
                  "--auto-knowledge", "D", "--backend", "columnar",
                  "--trials", "4", "--seed", "{seed}",
                  "--cache-dir", "{cache}"),
            expect="cells: 16 total, 16 executed, 0 cached",
            output="cache"),
        Command(
            argv=("elect", "--graph", "clique:131072",
                  "--algorithm", "sublinear", "--backend", "columnar",
                  "--seed", "{seed}"),
            expect="success:   1.00",
            output="stdout"),
    )),
    Workload("net", (Command(
        argv=("sweep", "--name", "bench-net",
              "--algorithms", "flood-max", "least-el",
              "--graphs", "ring:16", "clique:32", "--backend", "net",
              "--trials", "6", "--seed", "{seed}", "--cache-dir", "{cache}"),
        expect="cells: 24 total, 24 executed, 0 cached",
        output="cache"),)),
)}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_lines(cache: str) -> List[str]:
    """Every record under a sweep's cache directory, sorted, as
    canonical JSON without the cell's ``backend`` field.  That field is
    provenance only (results are backend-independent by contract), so
    a sweep has one digest on every backend."""
    lines: List[str] = []
    if os.path.isdir(cache):
        for entry in sorted(os.listdir(cache)):
            if not entry.endswith(".jsonl"):
                continue
            with open(os.path.join(cache, entry), encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        record = json.loads(line)
                        record["cell"].pop("backend", None)
                        lines.append(json.dumps(record, sort_keys=True,
                                                separators=(",", ":")))
    return sorted(lines)


def command_digest(command: Command, stdout: str, cache: str,
                   out: str) -> str:
    """SHA-256 of the part of a command's output the golden pins."""
    if command.output == "report":
        data = b""
        for name in ("report.json", "EXPERIMENTS.md"):
            with open(os.path.join(out, name), "rb") as fh:
                data += fh.read()
        return _sha256(data)
    if command.output == "cache":
        return _sha256("\n".join(cache_lines(cache)).encode())
    return _sha256(stdout.encode())


def pass_digest(command_digests: List[str]) -> str:
    """One digest per pass: a single command's own digest, else the
    hash of the per-command digests in order."""
    if len(command_digests) == 1:
        return command_digests[0]
    return _sha256("\n".join(command_digests).encode())


def verdict_problem(command: Command, returncode: int,
                    stdout: str) -> Optional[str]:
    """Why a command's run is wrong at the verdict level, or ``None``."""
    if returncode != 0:
        return f"exit code {returncode}"
    if command.expect not in stdout:
        return f"stdout lacks {command.expect!r}"
    return None


def serial_argv(argv: List[str]) -> List[str]:
    """``argv`` with any ``--workers N`` forced to 1 (same outputs: the
    runner is bit-identical across worker counts)."""
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg == "--workers":
            out[i + 1] = "1"
    return out


def uses_pool(argv: List[str]) -> bool:
    return serial_argv(argv) != list(argv)


def without_backend(argv: List[str]) -> List[str]:
    """``argv`` run on the default (event-loop) backend."""
    out = list(argv)
    if "--backend" in out:
        i = out.index("--backend")
        del out[i:i + 2]
    return out
