"""Simulator-throughput measurement harness (``repro bench-sim``).

Every claim in the paper is a scaling statement, so the binding
constraint on reproducing its figures is raw simulator throughput at
large n.  This module measures it on a fixed grid and records the
numbers as an append-only JSON trajectory (``BENCH_sim.json``) so that
scheduler regressions are visible commit over commit.

Two throughput figures are reported per grid point:

* ``events_per_s`` — node activations scheduled per second (one event =
  one (event round, active node) pair, halted skips included; the
  scheduler-loop rate).
* ``messages_per_s`` — messages transmitted per second (the send-path
  rate: port resolution, CONGEST check, accounting, delivery buffering).

Wall time covers ``Simulator(...)`` construction plus ``run()`` — the
network build is excluded (it is amortized across a sweep's trials).
"""

from __future__ import annotations

import cProfile
import json
import os
import platform
import pstats
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.log import get_logger

log = get_logger("bench")

#: (algorithm, graph-spec[, delay-spec]) grid measured by default:
#: FloodMax over cliques is the acceptance workload (dense alarm +
#: delivery rounds); least-el exercises the wave/send_soon path.
DEFAULT_GRID: Tuple[Tuple[str, ...], ...] = (
    ("flood-max", "complete:128"),
    ("flood-max", "complete:256"),
    ("flood-max", "complete:512"),
    ("least-el", "complete:256"),
)

#: Small grid for CI smoke runs (seconds, not minutes, per run).
TINY_GRID: Tuple[Tuple[str, ...], ...] = (
    ("flood-max", "complete:64"),
    ("least-el", "complete:64"),
)

#: Δ>1 scenario: the same workloads through the general (ring-buffer)
#: path, so its overhead relative to the Δ=1 fast path is tracked in
#: the BENCH_sim.json trajectory alongside the fast-path numbers.
DELAY_GRID: Tuple[Tuple[str, ...], ...] = (
    ("flood-max", "complete:128"),
    ("flood-max", "complete:128", "fixed:4"),
    ("flood-max", "complete:128", "uniform:4"),
    ("least-el", "complete:128"),
    ("least-el", "complete:128", "fixed:4"),
    ("least-el", "complete:128", "uniform:4"),
)

#: Large-n series (implicit topologies + lazy port tables + broadcast
#: aggregation): the scale where the paper's asymptotic separation is
#: visible.  Run with ``--auto-knowledge D --repeats 1``: flood-max
#: without the true diameter would spin n-1 empty alarm rounds, and
#: granting D (analytic for implicit topologies) is the O(D)-baseline
#: reading of Table 1.  Flood-max pays Θ(n²) messages per election
#: while the sublinear referee protocol pays O(√n·log^{3/2} n) — at
#: n = 16384 that is ~2.7e8 vs ~6e4, the headline divergence.
LARGE_GRID: Tuple[Tuple[str, ...], ...] = (
    ("sublinear", "clique:4096"),
    ("sublinear", "clique:16384"),
    ("flood-max", "clique:4096"),
    ("flood-max", "clique:16384"),
    ("least-el", "torus:128x128"),
)

#: CI-sized slice of the large-n series: completes in a couple of
#: minutes on shared runners, guarding the implicit path end to end.
LARGE_SMOKE_GRID: Tuple[Tuple[str, ...], ...] = (
    ("sublinear", "clique:4096"),
    ("flood-max", "clique:4096"),
    ("least-el", "torus:64x64"),
)

#: Engine A/B series: the same cells through the event-loop and the
#: columnar backend, interleaved, so each snapshot carries a direct
#: same-machine speedup reading (results are bit-identical by the
#: backend contract; only wall/events_per_s may differ).  The final
#: point is the columnar-only million-node headline — there is no
#: event-loop twin at that scale.  Run with ``--auto-knowledge D
#: --repeats 1`` like the other large-n grids.
VECTOR_GRID: Tuple[Tuple[str, Optional[str], Optional[str], str], ...] = (
    ("flood-max", "clique:4096", None, "event-loop"),
    ("flood-max", "clique:4096", None, "columnar"),
    ("flood-max", "clique:16384", None, "event-loop"),
    ("flood-max", "clique:16384", None, "columnar"),
    ("sublinear", "clique:16384", None, "event-loop"),
    ("sublinear", "clique:16384", None, "columnar"),
    ("sublinear", "clique:1000000", None, "columnar"),
)

#: CI-sized A/B slice (tens of seconds): one flood-max pair and one
#: sublinear pair, small enough for the event-loop side to stay cheap.
VECTOR_SMOKE_GRID: Tuple[Tuple[str, Optional[str], Optional[str], str], ...] = (
    ("flood-max", "clique:1024", None, "event-loop"),
    ("flood-max", "clique:1024", None, "columnar"),
    ("sublinear", "clique:4096", None, "event-loop"),
    ("sublinear", "clique:4096", None, "columnar"),
)

#: Trial-batched A/B series: whole trial axes through the columnar
#: backend, each cell measured twice — per-trial loop vs one
#: ``run_batch`` call — as *interleaved* rows sharing every column but
#: the wall clocks, plus per-trial message counts so the bit-exactness
#: of the batch contract is visible in the artifact itself.  Points are
#: ``(algorithm, graph, trials)``; run with ``--auto-knowledge D``.
BATCH_GRID: Tuple[Tuple[str, str, int], ...] = (
    ("flood-max", "clique:4096", 30),
    ("flood-max", "clique:8192", 30),
    ("sublinear", "clique:16384", 30),
)

#: CI-sized slice of the trial-batched A/B series (seconds per run).
BATCH_SMOKE_GRID: Tuple[Tuple[str, str, int], ...] = (
    ("flood-max", "clique:4096", 10),
)

#: Real-socket A/B series: the same small cells through the net backend
#: (N asyncio tasks on loopback TCP) and the event loop, interleaved,
#: so each snapshot records what a *physically real* election costs in
#: wall clock next to its simulated twin (results are bit-identical by
#: the backend contract; the gap is pickling + kernel round trips).
NET_SMOKE_GRID: Tuple[Tuple[str, Optional[str], Optional[str], str], ...] = (
    ("flood-max", "ring:16", None, "net"),
    ("flood-max", "ring:16", None, "event-loop"),
    ("flood-max", "clique:32", None, "net"),
    ("flood-max", "clique:32", None, "event-loop"),
    ("least-el", "ring:8", None, "net"),
    ("least-el", "ring:8", None, "event-loop"),
)

GRIDS: Dict[str, Tuple[Tuple[str, ...], ...]] = {
    "default": DEFAULT_GRID,
    "tiny": TINY_GRID,
    "delay": DELAY_GRID,
    "large": LARGE_GRID,
    "large-smoke": LARGE_SMOKE_GRID,
    "vector": VECTOR_GRID,
    "vector-smoke": VECTOR_SMOKE_GRID,
    "net-smoke": NET_SMOKE_GRID,
}

#: Grids measured per trial axis (one cell = ``trials`` elections)
#: rather than per single run; dispatched to :func:`run_batch_grid`.
BATCH_GRIDS: Dict[str, Tuple[Tuple[str, str, int], ...]] = {
    "batch": BATCH_GRID,
    "batch-smoke": BATCH_SMOKE_GRID,
}


def measure_point(algorithm: str, graph: str, delay: Optional[str] = None, *,
                  backend: Optional[str] = None,
                  seed: int = 1, repeats: int = 3,
                  max_rounds: Optional[int] = None,
                  auto_knowledge: Sequence[str] = (),
                  profile: bool = False) -> Dict[str, Any]:
    """Time one (algorithm, graph[, delay][, backend]) point.

    ``repeats`` independent simulations are run on the same network and
    the *best* wall time is kept (the usual benchmarking convention:
    minimum over repeats estimates the noise floor).  ``delay`` is an
    execution-model delay spec (``fixed:Δ``/``uniform:Δ``/...); Δ>1
    measures the general ring-buffer path instead of the flat fast
    path.  ``backend`` selects the engine (event-loop default); both
    backends of an A/B pair run the same request, so everything but the
    wall-clock columns is identical between their rows.
    ``auto_knowledge`` grants extra graph-derived parameters
    ("n"/"m"/"D") beyond the algorithm's registry needs — the large-n
    grids grant ``D`` so flood-max runs as the O(D) baseline.
    ``profile=True`` runs **one extra** simulation under :mod:`cProfile`
    after the timed repeats (so the wall numbers stay untouched) and
    attaches a ``"profile"`` dict splitting its time into scheduler /
    algorithm / metrics / model / other buckets.
    """
    from ..api import _auto_knowledge, algorithm_spec
    from ..graphs.network import Network
    from ..graphs.specs import parse_graph_spec
    from .backend import DEFAULT_BACKEND, RunRequest, normalize_backend, \
        resolve_backend
    from .models import make_model

    model = make_model(delay)
    spec = algorithm_spec(algorithm, model)
    backend = normalize_backend(backend)
    engine = resolve_backend(backend)
    topology = parse_graph_spec(graph, seed=seed)
    network = Network.build(topology, seed=seed)
    knowledge = _auto_knowledge(topology, spec.needs + tuple(auto_knowledge),
                                None)

    def _request() -> RunRequest:
        return RunRequest(network=network, factory=spec.factory, seed=seed,
                          knowledge=knowledge, model=model,
                          max_rounds=max_rounds, algorithm=algorithm)

    best_wall: Optional[float] = None
    result = None
    metrics = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = engine.run(_request())
        wall = time.perf_counter() - t0
        metrics = result.metrics
        if best_wall is None or wall < best_wall:
            best_wall = wall
    assert result is not None and metrics is not None and best_wall is not None
    wall = max(best_wall, 1e-9)
    profile_row: Optional[Dict[str, float]] = None
    if profile:
        def _profiled_run() -> None:
            engine.run(_request())
        profile_row = _profile_buckets(_profiled_run)
    return {
        "algorithm": algorithm,
        "graph": graph,
        "delay": delay,
        "backend": backend or DEFAULT_BACKEND,
        "knowledge": sorted(knowledge),
        "n": network.num_nodes,
        "m": network.num_edges,
        "seed": seed,
        "repeats": repeats,
        "wall_s": round(wall, 6),
        "messages": result.messages,
        "bits": result.bits,
        "rounds": result.rounds,
        "rounds_executed": metrics.rounds_executed,
        "events": metrics.activations,
        "events_per_s": round(metrics.activations / wall, 1),
        "messages_per_s": round(result.messages / wall, 1),
        "truncated": bool(result.truncated),
        "profile": profile_row,
    }


#: Filename → profile bucket, most specific first.  ``core/`` holds the
#: algorithm implementations; everything in ``sim/`` splits into the
#: dispatch loop, the accounting, and the execution-model machinery.
_PROFILE_BUCKETS: Tuple[Tuple[Tuple[str, ...], str], ...] = (
    (("scheduler.py", "process.py"), "scheduler"),
    (("metrics.py", "message.py"), "metrics"),
    (("models.py", "wakeup.py"), "model"),
)


def _bucket_for(filename: str) -> str:
    base = os.path.basename(filename)
    sep = os.sep
    if f"{sep}core{sep}" in filename or filename.startswith(f"core{sep}"):
        return "algorithm"
    for names, bucket in _PROFILE_BUCKETS:
        if base in names:
            return bucket
    return "other"


def _profile_buckets(fn) -> Dict[str, float]:
    """Run ``fn`` under cProfile and aggregate per-function *self* time
    (tottime) into coarse subsystem buckets.  Self times sum to the
    profiled wall, so the buckets are a partition of ``total_s``."""
    prof = cProfile.Profile()
    prof.enable()
    fn()
    prof.disable()
    stats = pstats.Stats(prof)
    buckets: Dict[str, float] = {"scheduler": 0.0, "algorithm": 0.0,
                                 "metrics": 0.0, "model": 0.0, "other": 0.0}
    total = 0.0
    for (filename, _lineno, _name), (_cc, _nc, tottime, _ct, _callers) \
            in stats.stats.items():  # type: ignore[attr-defined]
        buckets[_bucket_for(filename)] += tottime
        total += tottime
    row = {k: round(v, 6) for k, v in buckets.items()}
    row["total_s"] = round(total, 6)
    return row


def run_grid(grid: Sequence[Tuple[str, ...]], *, seed: int = 1,
             repeats: int = 3, max_rounds: Optional[int] = None,
             auto_knowledge: Sequence[str] = (),
             backend: Optional[str] = None,
             profile: bool = False,
             progress=None) -> List[Dict[str, Any]]:
    """Measure every grid point; ``backend`` is the default for points
    without their own fourth element (empty/"-" elements mean None)."""
    rows = []
    for point in grid:
        algorithm, graph = point[0], point[1]
        delay = point[2] if len(point) > 2 else None
        if delay in ("", "-"):
            delay = None
        point_backend = point[3] if len(point) > 3 else backend
        if point_backend in ("", "-"):
            point_backend = backend
        if progress:
            suffix = f" delay={delay}" if delay else ""
            if point_backend:
                suffix += f" backend={point_backend}"
            progress(f"bench {algorithm} on {graph}{suffix} ...")
        rows.append(measure_point(algorithm, graph, delay,
                                  backend=point_backend, seed=seed,
                                  repeats=repeats, max_rounds=max_rounds,
                                  auto_knowledge=auto_knowledge,
                                  profile=profile))
    return rows


def measure_trials_point(algorithm: str, graph: str, trials: int, *,
                         batch: bool,
                         backend: Optional[str] = "columnar",
                         seed: int = 1,
                         max_rounds: Optional[int] = None,
                         auto_knowledge: Sequence[str] = ()
                         ) -> Dict[str, Any]:
    """Time one whole trial axis of ``(algorithm, graph)``.

    Unlike :func:`measure_point` — one simulation on one prebuilt
    network — this measures what a sweep cell actually costs: ``trials``
    elections with per-trial networks and seeds, through
    :func:`repro.analysis.stats.run_trials`.  ``batch=False`` forces the
    per-trial loop; ``batch=True`` hands the axis to the backend as one
    :class:`~repro.sim.contract.BatchRunRequest`.  Both modes share the
    exact per-trial seeds, so an interleaved row pair differs only in
    its wall-clock columns — the ``messages_per_trial`` list is recorded
    in full to make that checkable from the artifact alone.
    """
    from ..analysis.stats import run_trials
    from ..api import algorithm_spec
    from ..graphs.specs import parse_graph_spec
    from .backend import DEFAULT_BACKEND, normalize_backend

    keys = tuple(algorithm_spec(algorithm).needs) + tuple(auto_knowledge)
    backend = normalize_backend(backend)
    topology = parse_graph_spec(graph, seed=seed)
    t0 = time.perf_counter()
    stats = run_trials(topology, algorithm, trials=trials, seed=seed,
                       knowledge_keys=keys, max_rounds=max_rounds,
                       backend=backend, batch=batch, keep_results=True)
    wall = max(time.perf_counter() - t0, 1e-9)
    events = sum(r.metrics.activations for r in stats.results)
    messages = sum(r.messages for r in stats.results)
    return {
        "algorithm": algorithm,
        "graph": graph,
        "delay": None,
        "backend": backend or DEFAULT_BACKEND,
        "mode": "batch" if batch else "sequential",
        "knowledge": sorted(keys),
        "n": topology.num_nodes,
        "m": topology.num_edges,
        "seed": seed,
        "trials": trials,
        "wall_s": round(wall, 6),
        "wall_per_trial_s": round(wall / trials, 6),
        "messages": messages,
        "messages_per_trial": [r.messages for r in stats.results],
        "rounds": max(r.rounds for r in stats.results),
        "events": events,
        "events_per_s": round(events / wall, 1),
        "messages_per_s": round(messages / wall, 1),
        "successes": stats.successes,
        "truncated": any(r.truncated for r in stats.results),
        "profile": None,
    }


def run_batch_grid(grid: Sequence[Tuple[str, str, int]], *, seed: int = 1,
                   max_rounds: Optional[int] = None,
                   auto_knowledge: Sequence[str] = (),
                   backend: Optional[str] = "columnar",
                   progress=None) -> List[Dict[str, Any]]:
    """Measure every ``(algorithm, graph, trials)`` point twice —
    sequential per-trial loop first, then the batched path — emitting
    the interleaved A/B row pairs.  Raises if any pair's per-trial
    message counts diverge: a bench artifact must never record a
    batched speedup bought with different numbers."""
    rows: List[Dict[str, Any]] = []
    for algorithm, graph, trials in grid:
        pair = []
        for batch in (False, True):
            if progress:
                mode = "batch" if batch else "sequential"
                progress(f"bench {algorithm} on {graph} x{trials} "
                         f"({mode}) ...")
            pair.append(measure_trials_point(
                algorithm, graph, trials, batch=batch, backend=backend,
                seed=seed, max_rounds=max_rounds,
                auto_knowledge=auto_knowledge))
        if pair[0]["messages_per_trial"] != pair[1]["messages_per_trial"]:
            raise AssertionError(
                f"batched {algorithm} on {graph} diverged from the "
                f"sequential path: per-trial messages "
                f"{pair[1]['messages_per_trial']} != "
                f"{pair[0]['messages_per_trial']}")
        rows.extend(pair)
    return rows


def _git_sha() -> Optional[str]:
    """The repository HEAD this run measured, or None outside a checkout
    (or without a git binary) — provenance must never fail a bench run."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment() -> Dict[str, Any]:
    """Machine/toolchain provenance recorded with every snapshot."""
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def snapshot(rows: List[Dict[str, Any]], *, label: str = "") -> Dict[str, Any]:
    """Wrap one grid run with enough provenance to compare over time.

    The legacy top-level ``python``/``platform`` keys are kept so older
    tooling reading the trajectory keeps working; ``env`` is the full
    provenance record (adds cpu_count and the measured git SHA).
    """
    env = environment()
    return {
        "label": label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": env["python"],
        "platform": env["platform"],
        "env": env,
        "results": rows,
    }


def load_trajectory(path: str) -> Dict[str, Any]:
    """Read a ``BENCH_sim.json`` trajectory, normalizing legacy runs.

    Runs recorded before provenance landed get a backfilled ``env``
    (from their top-level python/platform, with ``cpu_count`` and
    ``git_sha`` as None) and rows gain ``"profile": None`` — so readers
    can index uniformly across the whole history.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        raise ValueError(f"{path} is not a bench trajectory")
    for run in doc["runs"]:
        if not isinstance(run, dict):
            continue
        if "env" not in run:
            run["env"] = {"python": run.get("python"),
                          "platform": run.get("platform"),
                          "cpu_count": None, "git_sha": None}
        for row in run.get("results") or []:
            if isinstance(row, dict):
                row.setdefault("profile", None)
    return doc


def append_snapshot(path: str, snap: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``snap`` to the trajectory file at ``path``.

    The file is rewritten atomically (temp file + ``os.replace``) so an
    interrupted run can never truncate the history.  A corrupt or
    foreign file is set aside as ``<path>.corrupt`` — with a warning —
    rather than silently discarded.
    """
    doc: Dict[str, Any] = {"schema": 1, "runs": []}
    if os.path.exists(path):
        loaded = None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
            doc = loaded
        else:
            backup = path + ".corrupt"
            os.replace(path, backup)
            log.warning("%s was not a bench trajectory; moved it to %s "
                        "and starting fresh", path, backup)
    doc["runs"].append(snap)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
    return doc


def format_rows(rows: List[Dict[str, Any]]) -> str:
    has_mode = any(row.get("mode") for row in rows)
    header = f"{'algorithm':<14} {'graph':<16} {'delay':<10} "
    if has_mode:
        header += f"{'trials':>6} {'mode':<11} "
    header += (f"{'backend':<10} {'n':>8} "
               f"{'events/s':>12} {'messages/s':>12} {'wall_s':>9}")
    lines = [header]
    for row in rows:
        line = (f"{row['algorithm']:<14} {row['graph']:<16} "
                f"{row.get('delay') or '-':<10} ")
        if has_mode:
            line += (f"{row.get('trials') or 1:>6} "
                     f"{row.get('mode') or '-':<11} ")
        line += (f"{row.get('backend') or 'event-loop':<10} "
                 f"{row['n']:>8} {row['events_per_s']:>12,.0f} "
                 f"{row['messages_per_s']:>12,.0f} {row['wall_s']:>9.4f}")
        lines.append(line)
    return "\n".join(lines)
