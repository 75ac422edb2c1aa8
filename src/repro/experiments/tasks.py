"""Task registry: what a single grid cell *does*.

A task is a function ``task(cell: CellSpec) -> dict`` returning a flat,
JSON-serializable metrics mapping.  All randomness must derive from
``cell.seed`` — that is the whole contract that makes parallel runs
bit-identical to serial ones and cache records trustworthy.

Built-in tasks
--------------
``elect``
    One leader election of a registry algorithm on a graph-spec graph.
``candidate-f``
    Theorem 4.4's knob: a :class:`CandidateElection` with the expected
    candidate count fixed by the ``f`` param (bypasses the registry so
    sweeps can put ``f`` on an axis).
``clique-cycle``
    Builds the Figure 1 clique-cycle for an ``instance`` = ``"n:d"``
    param and reports its derived parameters and symmetry check.
``bridge-crossing``
    One Theorem 3.1 dumbbell trial (``half`` = ``"n:m"`` param): sample
    from Ψ, run the cell's algorithm with bridges watched, report the
    messages sent before the first crossing.
``truncated-elect``
    One Theorem 3.13 trial: run the cell's algorithm on the Figure 1
    clique-cycle (``instance`` = ``"n:d"``) but stop after
    ``frac × D'`` rounds; report whether a unique leader existed.

Custom tasks register with :func:`register_task`, or live anywhere
importable and are referenced as ``"package.module:function"``.
"""

from __future__ import annotations

import importlib
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..graphs.ids import IdAssigner, RandomIds, ReversedIds, SequentialIds
from ..graphs.network import Network
from ..graphs.specs import SEEDED_KINDS, parse_graph_spec
from ..graphs.topology import Topology
from ..sim.backend import RunRequest, resolve_backend
from ..sim.contract import BatchRunRequest
from ..sim.models import make_model
from ..sim.scheduler import RunResult, Simulator
from ..sim.wakeup import AdversarialWakeup, Simultaneous, WakeupModel
from .spec import CellSpec

Task = Callable[[CellSpec], Dict[str, Any]]

TASKS: Dict[str, Task] = {}


def register_task(name: str) -> Callable[[Task], Task]:
    """Decorator adding a task to the registry under ``name``."""
    def decorate(fn: Task) -> Task:
        TASKS[name] = fn
        return fn
    return decorate


def resolve_task(name: str) -> Task:
    """Look up a registered task, or import a ``module:function`` path."""
    if name in TASKS:
        return TASKS[name]
    if ":" in name:
        module_name, _, attr = name.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if callable(fn):
            return fn
    known = ", ".join(sorted(TASKS))
    raise KeyError(f"unknown task {name!r}; registered tasks: {known}")


# ----------------------------------------------------------------------
# Spec-string factories for the simulator's strategy objects.
# ----------------------------------------------------------------------
def make_wakeup(spec: Optional[str]) -> Optional[WakeupModel]:
    """``None`` | ``simultaneous`` | ``adversarial[:frac[:max_delay]]``."""
    if spec is None:
        return None
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "simultaneous":
        return Simultaneous()
    if kind == "adversarial":
        fraction = float(parts[1]) if len(parts) > 1 else 0.25
        max_delay = int(parts[2]) if len(parts) > 2 else 0
        return AdversarialWakeup(fraction_awake=fraction, max_delay=max_delay)
    raise ValueError(f"unknown wakeup spec {spec!r}")


def make_ids(spec: Optional[str]) -> Optional[IdAssigner]:
    """``None`` | ``random`` | ``sequential[:start]`` | ``reversed[:start]``."""
    if spec is None:
        return None
    parts = spec.split(":")
    kind = parts[0].lower()
    if kind == "random":
        return RandomIds()
    if kind == "sequential":
        return SequentialIds(start=int(parts[1]) if len(parts) > 1 else 1)
    if kind == "reversed":
        return ReversedIds(start=int(parts[1]) if len(parts) > 1 else 1)
    raise ValueError(f"unknown ids spec {spec!r}")


# ----------------------------------------------------------------------
# Shared election harness
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _topology_and_diameter(graph: str, seed: int) -> Tuple[Topology, int]:
    topology = parse_graph_spec(graph, seed=seed)
    return topology, topology.diameter()


def _cell_topology(cell: CellSpec) -> Tuple[Topology, int]:
    """Per-process memo of (topology, diameter) for a cell's graph.

    Deterministic graph kinds ignore the seed entirely, so all their
    trials share one construction and one O(n·m) diameter BFS; seeded
    kinds keep the cell seed in the key and are redrawn per cell.
    """
    kind = cell.graph.split(":")[0].lower()
    return _topology_and_diameter(cell.graph,
                                  cell.seed if kind in SEEDED_KINDS else 0)


def _election_metrics(result: RunResult, network: Network,
                      diameter: int) -> Dict[str, Any]:
    metrics = result.metrics
    return {
        "n": network.num_nodes,
        "m": network.num_edges,
        "D": diameter,
        "messages": result.messages,
        "messages_delivered": metrics.messages_delivered,
        "messages_dropped": metrics.messages_dropped,
        "rounds": result.rounds,
        "rounds_executed": metrics.rounds_executed,
        "bits": result.bits,
        "success": bool(result.has_unique_leader),
        "success_surviving": bool(result.has_unique_surviving_leader),
        "leaders": result.num_leaders,
        "crashes": len(metrics.crashed_nodes),
        "truncated": bool(result.truncated),
        "leader_uid": result.leader_uid,
    }


def _run_election(cell: CellSpec, factory: Optional[Callable[[], Any]] = None,
                  needs: tuple = ()) -> Dict[str, Any]:
    """One election for ``cell``: the cell's registry algorithm, or an
    anonymous ``factory`` that knows ``needs``.

    A registry algorithm passes :func:`repro.api.algorithm_spec` with
    the cell's model before any network is built.
    """
    from ..api import _auto_knowledge, algorithm_spec

    if cell.graph is None:
        raise ValueError(f"task {cell.task!r} needs a graph spec")
    model = make_model(cell.delay, cell.crash, cell.loss,
                       model_seed=cell.model_seed)
    if factory is None:
        spec = algorithm_spec(cell.algorithm, model)
        factory, needs = spec.factory, spec.needs
    topology, diameter = _cell_topology(cell)
    network = Network.build(topology, seed=cell.seed,
                            ids=make_ids(cell.ids))
    knowledge = _auto_knowledge(topology, tuple(needs) + cell.auto_knowledge,
                                cell.knowledge_dict, diameter=diameter)
    request = RunRequest(network=network, factory=factory, seed=cell.seed,
                         knowledge=knowledge,
                         wakeup=make_wakeup(cell.wakeup),
                         model=model,
                         congest_bits=cell.congest_bits,
                         max_rounds=cell.max_rounds,
                         algorithm=cell.algorithm)
    result = resolve_backend(cell.backend).run(request)
    return _election_metrics(result, network, diameter)


def plan_elect_group(cells: Sequence[CellSpec]) -> Optional[BatchRunRequest]:
    """One :class:`BatchRunRequest` covering ``cells``, or ``None``.

    ``cells`` must be same-configuration ``elect`` trials (equal
    ``group_key()``, differing only in trial/seed).  A cell's seed is
    both its network seed and its simulator seed (see
    :func:`_run_election`), so the batch's seed pairs are
    ``(cell.seed, cell.seed)`` and its sequential expansion is exactly
    the per-cell execution.  Returns ``None`` whenever the group cannot
    be expressed as one batch — seeded graph kinds redraw their topology
    per trial, and malformed configs are left to the per-cell path so
    they raise their real, specific error.
    """
    from ..api import _auto_knowledge, algorithm_spec

    first = cells[0]
    if first.task != "elect" or first.graph is None or first.algorithm is None:
        return None
    if first.graph.split(":")[0].lower() in SEEDED_KINDS:
        return None  # per-trial topologies: no shared trial axis
    if first.params:
        return None  # elect rejects params; let the per-cell path say so
    try:
        model = make_model(first.delay, first.crash, first.loss,
                           model_seed=first.model_seed)
        spec = algorithm_spec(first.algorithm, model)
        topology, diameter = _cell_topology(first)
        knowledge = _auto_knowledge(
            topology, tuple(spec.needs) + first.auto_knowledge,
            first.knowledge_dict, diameter=diameter)
        wakeup = make_wakeup(first.wakeup)
        ids = make_ids(first.ids)
    except Exception:
        return None
    return BatchRunRequest(
        topology=topology, factory=spec.factory,
        seeds=[(cell.seed, cell.seed) for cell in cells],
        knowledge=knowledge, ids=ids, wakeup=wakeup, model=model,
        congest_bits=first.congest_bits, max_rounds=first.max_rounds,
        algorithm=first.algorithm)


def execute_elect_group(cells: Sequence[CellSpec]) -> List[Dict[str, Any]]:
    """Run same-configuration ``elect`` trials as one backend batch.

    Returns one metrics row per cell, in cell order, identical to
    executing each cell through :func:`elect_task` (the batch contract
    guarantees bit-identical per-trial results; the rows are computed by
    the same :func:`_election_metrics`).  Groups that cannot be planned
    fall back to per-cell execution.
    """
    request = plan_elect_group(cells)
    if request is None:
        return [resolve_task(cell.task)(cell) for cell in cells]
    results = resolve_backend(cells[0].backend).run_batch(request)
    _, diameter = _cell_topology(cells[0])
    return [_election_metrics(result, result.network, diameter)
            for result in results]


def _reject_unsupported(cell: CellSpec, **fields: Any) -> None:
    """Fail loudly on cell fields this task would silently ignore.

    The ignored value would still enter the cache digest, so accepting
    it would let users believe they measured a setting that never took
    effect.
    """
    set_fields = [name for name, value in fields.items()
                  if value not in (None, (), {})]
    if set_fields:
        raise ValueError(
            f"task {cell.task!r} does not support: {', '.join(set_fields)}")


def _reject_unknown_params(cell: CellSpec, allowed: tuple = ()) -> None:
    """Fail loudly on param axes no task code will consume.

    Every param value perturbs the cell's derived seed, so a typo'd
    axis would otherwise show distinct per-value metrics that look like
    a measured effect.
    """
    unknown = sorted(k for k, _ in cell.params if k not in allowed)
    if unknown:
        raise ValueError(
            f"task {cell.task!r} does not consume params: {', '.join(unknown)}")


def _require_param(cell: CellSpec, name: str) -> Any:
    if name not in cell.param_dict:
        raise ValueError(f"task {cell.task!r} requires a {name!r} param axis")
    return cell.param_dict[name]


def _split_pair(value: Any, what: str) -> tuple:
    try:
        a, b = str(value).split(":")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"{what} param must look like 'A:B', got {value!r}")


# ----------------------------------------------------------------------
# Built-in tasks
# ----------------------------------------------------------------------
@register_task("elect")
def elect_task(cell: CellSpec) -> Dict[str, Any]:
    """One election of a registry algorithm (the engine's workhorse)."""
    _reject_unknown_params(cell)
    if cell.algorithm is None:
        raise ValueError("task 'elect' needs an algorithm axis "
                         "(set ExperimentSpec.algorithms / --algorithms)")
    return _run_election(cell)


@register_task("candidate-f")
def candidate_f_task(cell: CellSpec) -> Dict[str, Any]:
    """Theorem 4.4 with the candidate count ``f`` as a swept param."""
    from ..core.candidate_le import CandidateElection

    _reject_unsupported(cell, algorithm=cell.algorithm)
    _reject_unknown_params(cell, allowed=("f",))
    f_val = float(_require_param(cell, "f"))
    return _run_election(cell, lambda: CandidateElection(lambda n: f_val),
                         needs=("n",))


@register_task("clique-cycle")
def clique_cycle_task(cell: CellSpec) -> Dict[str, Any]:
    """Build one Figure 1 instance (``instance`` param = ``"n:d"``)."""
    from ..graphs.clique_cycle import CliqueCycle

    _reject_unsupported(cell, algorithm=cell.algorithm, graph=cell.graph,
                        knowledge=cell.knowledge,
                        auto_knowledge=cell.auto_knowledge, ids=cell.ids,
                        wakeup=cell.wakeup, congest_bits=cell.congest_bits,
                        max_rounds=cell.max_rounds,
                        delay=cell.delay, crash=cell.crash, loss=cell.loss,
                        model_seed=cell.model_seed or None,
                        backend=cell.backend)
    _reject_unknown_params(cell, allowed=("instance",))
    n, d = _split_pair(_require_param(cell, "instance"), "instance")
    cc = CliqueCycle(n, d)
    return {
        "requested_n": n,
        "requested_d": d,
        "num_cliques": cc.params.num_cliques,
        "clique_size": cc.params.clique_size,
        "num_nodes": cc.params.num_nodes,
        "diameter": cc.topology.diameter(),
        "automorphism": bool(cc.is_automorphism()),
    }


@register_task("bridge-crossing")
def bridge_crossing_task(cell: CellSpec) -> Dict[str, Any]:
    """One Theorem 3.1 dumbbell trial (``half`` param = ``"n:m"``)."""
    from ..api import algorithm_spec
    from ..graphs.dumbbell import DumbbellSampler
    from ..lower_bounds.bridge_crossing import run_crossing_trial

    _reject_unsupported(cell, graph=cell.graph,
                        auto_knowledge=cell.auto_knowledge, ids=cell.ids,
                        wakeup=cell.wakeup, congest_bits=cell.congest_bits,
                        delay=cell.delay, crash=cell.crash, loss=cell.loss,
                        model_seed=cell.model_seed or None,
                        backend=cell.backend)
    _reject_unknown_params(cell, allowed=("half",))
    spec = algorithm_spec(cell.algorithm or "least-el")
    n, m = _split_pair(_require_param(cell, "half"), "half")
    sampler = DumbbellSampler(n, m, seed=cell.seed)
    trial = run_crossing_trial(sampler.sample(), spec.factory,
                               seed=cell.seed,
                               knowledge=cell.knowledge_dict or None,
                               max_rounds=cell.max_rounds)
    return {
        "n": n,
        "m": m,
        "kappa": sampler.kappa,
        "m1": sampler.kappa * (sampler.kappa - 1) // 2,
        "crossed": bool(trial.crossed),
        "messages_before_crossing": trial.messages_before_crossing,
        "total_messages": trial.total_messages,
        "rounds": trial.rounds,
        "success": bool(trial.solved),
    }


@lru_cache(maxsize=64)
def _clique_cycle_and_diameter(n: int, d: int):
    """Per-process memo: the Figure 1 construction is deterministic in
    (n, d), so all trials share one build and one O(n·m) diameter BFS
    (mirrors :func:`_topology_and_diameter` for graph-spec cells)."""
    from ..graphs.clique_cycle import CliqueCycle

    cc = CliqueCycle(n, d)
    return cc, cc.topology.diameter()


@register_task("truncated-elect")
def truncated_elect_task(cell: CellSpec) -> Dict[str, Any]:
    """One Theorem 3.13 truncation trial on the Figure 1 clique-cycle.

    Params: ``instance`` = ``"n:d"`` (the construction's target size and
    arc count) and ``frac`` — the run is cut off after
    ``max(1, int(frac · D'))`` rounds, where ``D'`` is the number of
    cliques (the graph's Θ(diameter)).  The theorem predicts a unique
    leader is unlikely while ``frac`` is a small constant and routine
    once ``frac·D'`` clears the diameter.
    """
    from ..api import _auto_knowledge, algorithm_spec

    _reject_unsupported(cell, graph=cell.graph,
                        auto_knowledge=cell.auto_knowledge, ids=cell.ids,
                        wakeup=cell.wakeup, congest_bits=cell.congest_bits,
                        max_rounds=cell.max_rounds,
                        delay=cell.delay, crash=cell.crash, loss=cell.loss,
                        model_seed=cell.model_seed or None,
                        backend=cell.backend)
    _reject_unknown_params(cell, allowed=("instance", "frac"))
    spec = algorithm_spec(cell.algorithm or "least-el")
    n, d = _split_pair(_require_param(cell, "instance"), "instance")
    frac = float(_require_param(cell, "frac"))
    if frac <= 0:
        raise ValueError(f"frac param must be positive, got {frac!r}")
    cc, diameter = _clique_cycle_and_diameter(n, d)
    d_prime = cc.params.num_cliques
    horizon = max(1, int(frac * d_prime))
    network = Network.build(cc.topology, seed=cell.seed)
    knowledge = _auto_knowledge(cc.topology, ("n", "D"), cell.knowledge_dict,
                                diameter=diameter)
    sim = Simulator(network, spec.factory, seed=cell.seed,
                    knowledge=knowledge)
    result = sim.run(max_rounds=horizon)
    return {
        "n": network.num_nodes,
        "m": network.num_edges,
        "D": diameter,
        "d_prime": d_prime,
        "horizon": horizon,
        "messages": result.messages,
        "rounds": result.rounds,
        "leaders": result.num_leaders,
        "success": bool(result.has_unique_leader),
        "truncated": bool(result.truncated),
    }
