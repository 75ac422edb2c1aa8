"""Experiment-runner telemetry and the live ``--progress`` status line.

:class:`RunnerTelemetry` is filled in by
:class:`repro.experiments.Runner` on every sweep: wall clock for the
whole run, per-cell execution walls (measured inside the worker, so
pool overhead is visible as the gap to ``wall_s``), cache hit/miss
counters from :meth:`ResultCache.stats`, and the derived worker
utilization.  :class:`ProgressLine` renders cell completions as a
single self-overwriting status line on a TTY and as occasional plain
lines otherwise (CI logs stay readable).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO


@dataclass
class RunnerTelemetry:
    """Everything one sweep's execution cost, beyond its results."""

    cells: int = 0
    cached: int = 0
    executed: int = 0
    #: Wall clock of the whole Runner.run call (cache serving included).
    wall_s: float = 0.0
    #: Per-executed-cell wall clocks, in grid order (worker-side).
    cell_walls: List[float] = field(default_factory=list)
    workers: int = 1
    #: Cell groups executed as one batched backend call (a columnar
    #: kernel over the trial axis, or trials sharing one socket mesh),
    #: and the cells they covered.
    batched_groups: int = 0
    batched_trials: int = 0
    #: Cells of multi-trial groups that ran per cell, by the reason
    #: their group was not batched.
    unbatched: Dict[str, int] = field(default_factory=dict)
    #: Result-cache counters (hits/misses/appends), when a cache is on.
    cache: Optional[Dict[str, int]] = None

    @property
    def cell_wall_s(self) -> float:
        """Total worker-side compute time across executed cells."""
        return sum(self.cell_walls)

    @property
    def utilization(self) -> Optional[float]:
        """Fraction of the worker pool's capacity spent simulating:
        ``Σ cell walls / (run wall × workers)``.  ``None`` before any
        cell executed (a fully cache-served run has no pool to use)."""
        if not self.cell_walls or self.wall_s <= 0:
            return None
        return self.cell_wall_s / (self.wall_s * max(1, self.workers))

    def summary(self) -> str:
        """One human line: cells, cache, wall, utilization."""
        parts = [f"{self.cells} cells ({self.cached} cached, "
                 f"{self.executed} executed)", f"wall {self.wall_s:.2f}s"]
        if self.cell_walls:
            parts.append(f"cell time {self.cell_wall_s:.2f}s "
                         f"over {self.workers} worker"
                         f"{'s' if self.workers != 1 else ''}")
        if self.batched_groups:
            parts.append(f"{self.batched_trials} trials batched as "
                         f"{self.batched_groups} group"
                         f"{'s' if self.batched_groups != 1 else ''}")
        for reason, count in sorted(self.unbatched.items()):
            parts.append(f"{count} trials unbatched: {reason}")
        util = self.utilization
        if util is not None:
            parts.append(f"utilization {util:.0%}")
        if self.cache is not None:
            parts.append(f"cache {self.cache.get('hits', 0)} hits / "
                         f"{self.cache.get('misses', 0)} misses")
        return ", ".join(parts)

    def to_json(self) -> Dict[str, Any]:
        return {
            "cells": self.cells, "cached": self.cached,
            "executed": self.executed, "wall_s": round(self.wall_s, 6),
            "cell_wall_s": round(self.cell_wall_s, 6),
            "workers": self.workers,
            "utilization": (None if self.utilization is None
                            else round(self.utilization, 4)),
            "batched_groups": self.batched_groups,
            "batched_trials": self.batched_trials,
            "unbatched": dict(sorted(self.unbatched.items())),
            "cache": self.cache,
        }


def _fmt_eta(seconds: float) -> str:
    seconds = max(0, int(seconds + 0.5))
    minutes, sec = divmod(seconds, 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}:{minutes:02d}:{sec:02d}"
    return f"{minutes}:{sec:02d}"


class ProgressLine:
    """Live ``done/total`` status with ETA; safe without a TTY.

    On a TTY the line redraws in place (``\\r``); otherwise a plain
    line is printed at most every ``fallback_interval`` seconds plus
    once at the end, so piped/CI output gets a handful of checkpoints
    instead of either silence or thousands of lines.
    """

    def __init__(self, label: str = "", *, stream: Optional[TextIO] = None,
                 min_interval: float = 0.1,
                 fallback_interval: float = 5.0) -> None:
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False
        self._min_interval = min_interval if self._tty else fallback_interval
        self._t0 = time.monotonic()
        # A TTY draws on the first update; piped output stays silent
        # until the first fallback interval elapses (checkpoints, not an
        # echo of every update).
        self._last_draw = self._t0 if not self._tty else self._t0 - min_interval
        self._last_len = 0
        self._open = False

    # ------------------------------------------------------------------
    def _line(self, done: int, total: int, note: str) -> str:
        elapsed = time.monotonic() - self._t0
        pct = f"{done / total:4.0%}" if total else " -- "
        eta = ""
        if total and 0 < done < total and elapsed > 0:
            eta = f"  eta {_fmt_eta(elapsed / done * (total - done))}"
        prefix = f"{self.label}: " if self.label else ""
        suffix = f"  {note}" if note else ""
        return (f"{prefix}{done}/{total} cells {pct}  "
                f"elapsed {_fmt_eta(elapsed)}{eta}{suffix}")

    def update(self, done: int, total: int, note: str = "") -> None:
        now = time.monotonic()
        if done < total and now - self._last_draw < self._min_interval:
            return
        self._last_draw = now
        line = self._line(done, total, note)
        if self._tty:
            pad = " " * max(0, self._last_len - len(line))
            self.stream.write("\r" + line + pad)
            self._last_len = len(line)
            self._open = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def finish(self, note: str = "") -> None:
        """Terminate the live line (newline on a TTY, final line off)."""
        if self._tty and self._open:
            if note:
                self.stream.write("\r" + note
                                  + " " * max(0, self._last_len - len(note)))
            self.stream.write("\n")
            self._open = False
        elif note:
            self.stream.write(note + "\n")
        self.stream.flush()
