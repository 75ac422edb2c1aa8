"""Grid execution: serial or multiprocess, cache-aware, deterministic.

The :class:`Runner` takes an :class:`ExperimentSpec`, expands it, serves
whatever it can from the on-disk cache, and executes the remaining cells
— either in-process or fanned out over a ``multiprocessing`` pool.

Determinism contract
--------------------
Every cell's randomness derives from the cell's own content (see
:func:`repro.experiments.spec.derive_seed`), never from worker identity
or scheduling, and results are reassembled in grid-expansion order
regardless of completion order.  A parallel run is therefore
bit-identical to a serial run of the same spec, and mixing cached and
fresh cells changes nothing.  Execution-model adversaries (delay,
crash, loss — :mod:`repro.sim.models`) are part of each cell's content:
their draws derive from ``(cell seed, model seed)``, so a modeled sweep
keeps the same contract — the runner itself never needs to know which
model a cell carries.
"""

from __future__ import annotations

import inspect
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.log import get_logger
from ..obs.telemetry import RunnerTelemetry
from ..sim.backend import resolve_backend
from .aggregate import GroupStats, aggregate
from .cache import ResultCache
from .spec import CellSpec, ExperimentSpec
from .tasks import resolve_task

log = get_logger("experiments")

#: Why a multi-trial group ran per cell when its cells cannot be
#: expressed as one batch request (see ``plan_elect_group``).
UNPLANNED = ("cells share no batch request (seeded graphs redraw the "
             "topology per trial; malformed configs run per cell)")


def execute_cell(cell: CellSpec) -> Dict[str, Any]:
    """Run one cell to completion (also the worker entry point)."""
    return resolve_task(cell.task)(cell)


def _timed_execute_cell(cell: CellSpec) -> Tuple[Dict[str, Any], float]:
    """Worker entry point wrapping :func:`execute_cell` with its wall
    clock, measured inside the worker so pool overhead stays visible as
    the gap to the run's total wall.  Looks ``execute_cell`` up as a
    module global so tests monkeypatching it keep working.
    """
    t0 = time.perf_counter()
    metrics = execute_cell(cell)
    return metrics, time.perf_counter() - t0


def _timed_execute_unit(unit) -> List[Tuple[Dict[str, Any], float]]:
    """Worker entry point for one execution unit.

    A unit is either a single :class:`CellSpec` (runs through
    :func:`execute_cell`, exactly as before) or a list of
    same-configuration ``elect`` cells executing as one backend batch
    call.  The batch request is rebuilt *inside* the worker from the
    picklable cells — process factories may be lambdas, so the request
    itself can never cross the pool boundary.  A batched unit's wall
    clock is attributed evenly across its cells, keeping per-cell wall
    telemetry comparable between batched and per-cell runs.
    """
    if isinstance(unit, CellSpec):
        return [_timed_execute_cell(unit)]
    from .tasks import execute_elect_group
    t0 = time.perf_counter()
    rows = execute_elect_group(unit)
    share = (time.perf_counter() - t0) / len(rows)
    return [(metrics, share) for metrics in rows]


def _note_adapter(on_cell: Optional[Callable]) -> Callable[..., None]:
    """Wrap ``on_cell`` so the runner can always pass a note string.

    Two-parameter callbacks (the documented ``on_cell(done, total)``
    shape) keep working unchanged; callbacks whose signature accepts a
    third parameter (e.g. :meth:`ProgressLine.update`) also receive the
    note, which is how ``--progress`` reports batched groups
    distinctly.
    """
    if on_cell is None:
        return lambda done, total, note="": None
    try:
        params = [p for p in inspect.signature(on_cell).parameters.values()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        takes_note = len(params) >= 3
    except (TypeError, ValueError):  # builtins, odd callables
        takes_note = False
    if takes_note:
        return lambda done, total, note="": on_cell(done, total, note)
    return lambda done, total, note="": on_cell(done, total)


@dataclass
class CellResult:
    """One executed (or cache-served) cell."""

    cell: CellSpec
    metrics: Dict[str, Any]
    cached: bool = False


@dataclass
class SweepResult:
    """Everything a sweep produced, in grid order."""

    spec: ExperimentSpec
    results: List[CellResult] = field(default_factory=list)
    #: Execution cost of the sweep (wall clocks, cache counters,
    #: worker utilization); filled in by :meth:`Runner.run`.
    telemetry: Optional[RunnerTelemetry] = None

    @property
    def cells(self) -> int:
        return len(self.results)

    @property
    def executed(self) -> int:
        """Cells actually simulated this run (0 on a full cache hit)."""
        return sum(not r.cached for r in self.results)

    @property
    def cached(self) -> int:
        return sum(r.cached for r in self.results)

    @property
    def metrics(self) -> List[Dict[str, Any]]:
        return [r.metrics for r in self.results]

    def groups(self) -> List[GroupStats]:
        """Aggregate per-trial cells into per-configuration statistics."""
        return aggregate(self.results)


class Runner:
    """Executes experiment grids.

    Parameters
    ----------
    cache_dir:
        Root directory for the JSONL result cache, or None to disable
        caching entirely.
    workers:
        Number of worker processes; 0 or 1 runs serially in-process.
    mp_context:
        ``multiprocessing`` start-method name.  Defaults to ``fork``
        where available (cheap, inherits registered custom tasks);
        ``spawn`` works for the built-in and dotted-path tasks.
    """

    def __init__(self, cache_dir: Optional[str] = None, *,
                 workers: int = 1,
                 mp_context: Optional[str] = None,
                 batch_trials: bool = True) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.workers = workers
        self._mp_context = mp_context
        #: Run same-configuration ``elect`` trials as one batched engine
        #: call when the cell's backend advertises a genuinely batched
        #: path.  Purely a speed knob: per-cell seeds, metrics rows, and
        #: cache digests are identical either way (the batch contract is
        #: bit-exactness with the sequential expansion).
        self.batch_trials = batch_trials

    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec, *,
            progress: Optional[Callable[[str], None]] = None,
            on_cell: Optional[Callable[[int, int], None]] = None) -> SweepResult:
        """Expand ``spec``, serve cache hits, execute misses, persist.

        ``progress`` receives occasional human-readable status strings
        (defaults to the ``repro.experiments`` INFO log).  ``on_cell``
        — when given — is called as ``on_cell(done, total)`` once after
        the cache scan and again after every executed cell, for live
        progress displays (:class:`repro.obs.ProgressLine`); callbacks
        accepting a third parameter additionally receive a short note
        when a batched group of trials lands at once.
        """
        t0 = time.perf_counter()
        cells = spec.expand()
        report = progress if progress is not None else \
            (lambda msg: log.info("%s", msg))
        notify = _note_adapter(on_cell)

        slots: List[Optional[CellResult]] = [None] * len(cells)
        misses: List[int] = []
        for i, cell in enumerate(cells):
            hit = self.cache.get(cell) if self.cache is not None else None
            if hit is not None:
                slots[i] = CellResult(cell, hit, cached=True)
            else:
                misses.append(i)
        report(f"{spec.name}: {len(cells)} cells "
               f"({len(cells) - len(misses)} cached, {len(misses)} to run)")
        done = len(cells) - len(misses)
        notify(done, len(cells))

        cell_walls: List[float] = []
        units: List[List[int]] = []
        unbatched: Dict[str, int] = {}
        batched_groups = batched_trials = 0
        if misses:
            units, unbatched = self._plan_units(cells, misses)
            batched_groups = sum(1 for u in units if len(u) > 1)
            batched_trials = sum(len(u) for u in units if len(u) > 1)
            if batched_groups:
                report(f"{spec.name}: batching {batched_trials} trials "
                       f"as {batched_groups} batched group"
                       f"{'s' if batched_groups != 1 else ''}")
            # Results stream back in input order and are persisted one by
            # one, so an interrupted sweep keeps every finished cell.
            payloads = [cells[u[0]] if len(u) == 1
                        else [cells[i] for i in u] for u in units]
            outputs = self._iter_execute(payloads)
            for unit, rows in zip(units, outputs):
                for i, (metrics, wall) in zip(unit, rows):
                    slots[i] = CellResult(cells[i], metrics, cached=False)
                    cell_walls.append(wall)
                    if self.cache is not None:
                        self.cache.put(cells[i], metrics)
                done += len(unit)
                note = (f"{len(unit)} trials batched" if len(unit) > 1
                        else "")
                notify(done, len(cells), note)

        telemetry = RunnerTelemetry(
            cells=len(cells), cached=len(cells) - len(misses),
            executed=len(misses), wall_s=time.perf_counter() - t0,
            cell_walls=cell_walls,
            workers=self._pool_size(len(units)),
            batched_groups=batched_groups,
            batched_trials=batched_trials,
            unbatched=unbatched,
            cache=self.cache.stats() if self.cache is not None else None)
        log.debug("%s: %s", spec.name, telemetry.summary())
        return SweepResult(spec=spec,
                           results=[s for s in slots if s is not None],
                           telemetry=telemetry)

    # ------------------------------------------------------------------
    def _plan_units(self, cells: List[CellSpec], misses: List[int]
                    ) -> Tuple[List[List[int]], Dict[str, int]]:
        """Partition the miss list into execution units, in order, and
        count the cells of every multi-trial group left unbatched, by
        reason.

        A unit is a list of cell indices: singletons run through the
        per-cell task function exactly as before; longer units are runs
        of same-configuration ``elect`` trials whose backend advertises
        a *genuinely* batched path (:meth:`EngineBackend.supports_batch`
        returns ``None``) and execute as one ``run_batch`` call.  Other
        groups run per cell under the backend's ``supports_batch``
        reason (or :data:`UNPLANNED` when the cells share no batch
        request), so batching changes nothing unless it actually is a
        speedup.
        """
        from .tasks import plan_elect_group

        units: List[List[int]] = []
        unbatched: Dict[str, int] = {}
        i = 0
        while i < len(misses):
            cell = cells[misses[i]]
            j = i + 1
            if self.batch_trials and cell.task == "elect":
                key = cell.group_key()
                while (j < len(misses)
                       and cells[misses[j]].task == "elect"
                       and cells[misses[j]].group_key() == key):
                    j += 1
            group = [misses[k] for k in range(i, j)]
            i = j
            if len(group) == 1:
                units.append(group)
                continue
            request = plan_elect_group([cells[k] for k in group])
            reason = (UNPLANNED if request is None else
                      resolve_backend(cell.backend).supports_batch(request))
            if reason is None:
                units.append(group)
            else:
                units.extend([k] for k in group)
                unbatched[reason] = unbatched.get(reason, 0) + len(group)
        return units, unbatched

    def _pool_size(self, pending: int) -> int:
        """Worker processes a batch of ``pending`` units would use."""
        if self.workers <= 1 or pending <= 1:
            return 1
        return min(self.workers, pending, max(1, (os.cpu_count() or 2)))

    def _iter_execute(self, units: list):
        """Yield per-unit lists of ``(metrics, worker wall seconds)``,
        in unit order (units are single cells or batched cell lists)."""
        if self.workers <= 1 or len(units) <= 1:
            for unit in units:
                yield _timed_execute_unit(unit)
            return
        method = self._mp_context
        if method is None:
            method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                      else None)
        ctx = multiprocessing.get_context(method)
        procs = self._pool_size(len(units))
        with ctx.Pool(processes=procs) as pool:
            # imap (not imap_unordered) so outputs line up with inputs:
            # completion order never leaks into result order.
            yield from pool.imap(_timed_execute_unit, units, chunksize=1)


def run_sweep(spec: ExperimentSpec, *,
              cache_dir: Optional[str] = None,
              workers: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              on_cell: Optional[Callable[[int, int], None]] = None,
              batch_trials: bool = True) -> SweepResult:
    """One-call sweep: build a :class:`Runner` and run ``spec``."""
    runner = Runner(cache_dir=cache_dir, workers=workers,
                    batch_trials=batch_trials)
    return runner.run(spec, progress=progress, on_cell=on_cell)
