"""High-level convenience API.

The library's primitive workflow is explicit::

    network = Network.build(topology, seed=1)
    sim = Simulator(network, lambda: LeastElementElection(), seed=2,
                    knowledge={"n": topology.num_nodes})
    result = sim.run()

This module wraps that in one call for scripts and examples, with a
string registry of every algorithm in the suite and automatic knowledge
wiring per Table 1's "Knowledge" column.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, Mapping, Optional,
                    Sequence, Union)

from .graphs.network import Network
from .graphs.topology import Topology
from .sim.backend import RunRequest, resolve_backend
from .sim.models import ExecutionModel
from .sim.process import NodeProcess
from .sim.scheduler import RunResult
from .sim.wakeup import WakeupModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .obs.trace import Tracer


class AlgorithmSpec:
    """Registry entry: how to build a process and what it must know.

    Besides the factory and knowledge requirements, every entry carries
    the paper's claimed bounds (``result`` / ``time`` / ``messages``),
    so ``repro list`` and the claim-verification report
    (:mod:`repro.report`) render Table 1's columns from one source.
    """

    def __init__(self, factory: Callable[[], NodeProcess],
                 needs: tuple = (), description: str = "", *,
                 result: str = "", time: str = "",
                 messages: str = "",
                 backends: tuple = ("event-loop",),
                 delay_tolerant: bool = True) -> None:
        self.factory = factory
        self.needs = needs
        self.description = description
        self.result = result
        self.time = time
        self.messages = messages
        #: Engine backends able to run this algorithm (capability, not a
        #: guarantee — a backend may still refuse a specific request,
        #: e.g. columnar refuses traced or staggered-wakeup runs).
        self.backends = backends
        #: Whether the algorithm stays correct under asynchronous-style
        #: message delays (``ExecutionModel`` with max_delay > 1).  The
        #: kingdom algorithms are proved for lock-step rounds; under
        #: delays a run may raise ``ModelViolation`` (a conquest wave
        #: re-sends over a port that still holds a delayed message) or
        #: silently end with zero or several leaders.  Every named run
        #: therefore refuses them up front (:func:`algorithm_spec`).
        self.delay_tolerant = delay_tolerant

    @property
    def knowledge(self) -> str:
        """Table 1's "Knows" column, rendered from ``needs``."""
        return ",".join(self.needs) if self.needs else "-"


def _registry() -> Dict[str, AlgorithmSpec]:
    # Imports are local so that `import repro` stays cheap and so the
    # registry always reflects the full installed suite.
    from .core.candidate_le import CandidateElection, log_candidates, constant_candidates
    from .core.clustering import ClusteringElection
    from .core.dfs_agent import DfsAgentElection
    from .core.flood_max import FloodMaxElection
    from .core.kingdom import KingdomElection, KnownDiameterKingdomElection
    from .core.las_vegas import RestartingElection
    from .core.least_el import LeastElementElection
    from .core.size_estimation import SizeEstimationElection
    from .core.spanner_le import SpannerElection
    from .core.sublinear import SublinearElection
    from .core.trivial import TrivialSelfElection
    from .sim.columnar import KERNEL_ALGORITHMS

    specs = {
        "flood-max": AlgorithmSpec(
            FloodMaxElection, needs=("n",),
            description="O(D)-time baseline (Peleg [20]); floods the max ID.",
            result="Peleg [20]", time="O(D)", messages="O(m·min(n, D))"),
        "dfs-agent": AlgorithmSpec(
            DfsAgentElection, needs=(),
            description="Theorem 4.1: deterministic O(m) messages, unbounded time.",
            result="Thm 4.1", time="unbounded", messages="O(m)"),
        "least-el": AlgorithmSpec(
            LeastElementElection, needs=("n",),
            description="Least-element lists [11]: O(D) time, O(m log n) messages.",
            result="LE lists [11]", time="O(D)", messages="O(m log n)"),
        "candidate": AlgorithmSpec(
            lambda: CandidateElection(log_candidates), needs=("n",),
            description="Theorem 4.4(A): f=Θ(log n) candidates; O(m log log n) msgs.",
            result="Thm 4.4(A)", time="O(D)", messages="O(m·min(loglog n, D))"),
        "candidate-constant": AlgorithmSpec(
            lambda: CandidateElection(constant_candidates(0.05)), needs=("n",),
            description="Theorem 4.4(B): f=Θ(1); O(m) messages, success 1-ε.",
            result="Thm 4.4(B)", time="O(D)", messages="O(m)"),
        "size-estimation": AlgorithmSpec(
            SizeEstimationElection, needs=(),
            description="Corollary 4.5: no knowledge; Las Vegas via n-estimation.",
            result="Cor 4.5", time="O(D)", messages="O(m·min(log n, D)) whp"),
        "las-vegas": AlgorithmSpec(
            RestartingElection, needs=("n", "D"),
            description="Corollary 4.6: knows n and D; expected O(D)/O(m).",
            result="Cor 4.6", time="O(D) exp.", messages="O(m) exp."),
        "spanner": AlgorithmSpec(
            SpannerElection, needs=("n",),
            description="Corollary 4.2: Baswana-Sen spanner + election; O(m) msgs on dense graphs.",
            result="Cor 4.2", time="O(D)", messages="O(m), m > n^(1+eps)"),
        "clustering": AlgorithmSpec(
            ClusteringElection, needs=("n",),
            description="Theorem 4.7 / Algorithm 1: O(D log n) time, O(m + n log n) msgs.",
            result="Thm 4.7", time="O(D log n)", messages="O(m + n log n)"),
        "kingdom": AlgorithmSpec(
            KingdomElection, needs=(),
            description="Theorem 4.10 / Algorithm 2: deterministic O(D log n)/O(m log n).",
            result="Thm 4.10", time="O(D log n)", messages="O(m log n)",
            delay_tolerant=False),
        "kingdom-known-d": AlgorithmSpec(
            KnownDiameterKingdomElection, needs=("D",),
            description="Section 4.3 simplified kingdom variant with known D.",
            result="Thm 4.10 (D known)", time="O(D log n)",
            messages="O(m log n)", delay_tolerant=False),
        "sublinear": AlgorithmSpec(
            SublinearElection, needs=("n",),
            description="Referee sampling on cliques: O(√n·log^3/2 n) msgs, "
                        "O(1) rounds, success w.h.p.",
            result="Sublinear (clique)", time="O(1)",
            messages="O(√n·log^3/2 n)"),
        "trivial": AlgorithmSpec(
            TrivialSelfElection, needs=("n",),
            description="Intro example: self-elect w.p. 1/n; 0 messages, succ ≈ 1/e.",
            result="Intro example", time="0", messages="0"),
    }
    for name in KERNEL_ALGORITHMS:
        specs[name].backends = ("event-loop", "columnar")
    # Delay-tolerant algorithms additionally run on the real-socket
    # backend (repro.net); synchronous-only ones (kingdom family) keep
    # their lock-step port discipline to the simulator.
    for spec in specs.values():
        if spec.delay_tolerant:
            spec.backends = spec.backends + ("net",)
    return specs


#: Public name → spec mapping (built on first use).
ALGORITHMS: Dict[str, AlgorithmSpec] = {}


def _ensure_registry() -> Dict[str, AlgorithmSpec]:
    if not ALGORITHMS:
        ALGORITHMS.update(_registry())
    return ALGORITHMS


def algorithm_spec(name: str,
                   model: Optional[ExecutionModel] = None) -> AlgorithmSpec:
    """The registry entry for ``name``, checked against ``model``.

    The one gate every entry point that runs a registry algorithm by
    name passes through.  Raises ``ValueError`` for an unknown name, and
    for a synchronous-only algorithm (``delay_tolerant=False``) under a
    model with max_delay > 1 — such a run may raise ``ModelViolation``
    or silently elect the wrong number of leaders, so it never starts.
    :class:`~repro.sim.scheduler.Simulator` used directly runs anything.
    """
    registry = _ensure_registry()
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise ValueError(
            f"unknown algorithm {name!r}; choose one of: {known}")
    spec = registry[name]
    if (not spec.delay_tolerant and model is not None
            and model.delay.max_delay > 1):
        raise ValueError(
            f"algorithm {name!r} is synchronous-only: it assumes lock-step "
            f"rounds, and under message delays (max_delay="
            f"{model.delay.max_delay}) a run may raise ModelViolation or "
            "silently elect the wrong number of leaders; drop the delay "
            "model or pick a delay-tolerant algorithm")
    return spec


def make_network(graph: Union[Topology, Network], *, seed: int = 0) -> Network:
    """Promote a bare topology into a concrete network (IDs + ports)."""
    if isinstance(graph, Network):
        return graph
    return Network.build(graph, seed=seed)


def _auto_knowledge(topology: Topology, needs: Sequence[str],
                    given: Optional[Mapping[str, int]], *,
                    diameter: Optional[int] = None) -> Dict[str, int]:
    """``given`` plus each key of ``needs`` ("n"/"m"/"D") it lacks.

    Table 1's knowledge, derived from ``topology``; explicit entries
    win.  D costs an all-pairs BFS, so it is computed only when needed
    and not given — a caller holding a memoized ``diameter`` passes it.
    """
    knowledge: Dict[str, int] = dict(given or {})
    for key in needs:
        if key in knowledge:
            continue
        if key == "n":
            knowledge["n"] = topology.num_nodes
        elif key == "m":
            knowledge["m"] = topology.num_edges
        elif key == "D":
            knowledge["D"] = (topology.diameter()
                              if diameter is None else diameter)
    return knowledge


def run_algorithm(graph: Union[Topology, Network], algorithm: str, *,
                  seed: int = 0,
                  knowledge: Optional[Mapping[str, int]] = None,
                  wakeup: Optional[WakeupModel] = None,
                  model: Optional[ExecutionModel] = None,
                  max_rounds: Optional[int] = None,
                  tracer: Optional["Tracer"] = None,
                  timeline: bool = False,
                  backend: Optional[str] = None) -> RunResult:
    """Run a named algorithm on ``graph`` and return the full result.

    Knowledge required by the algorithm (per Table 1) is computed from
    the graph automatically unless supplied explicitly.  ``model``
    selects the execution model (delays, crash faults, message loss);
    the default is the paper's synchronous fault-free model, and a
    synchronous-only algorithm under delays is refused (see
    :func:`algorithm_spec`).  ``tracer`` (a :class:`repro.obs.Tracer`)
    streams structured events and ``timeline=True`` records the
    per-round time series
    (``result.timeline``); both observe without perturbing — a traced
    run is bit-identical to an untraced one.  ``backend`` selects the
    engine (``"event-loop"`` default, ``"columnar"`` for the vectorized
    NumPy engine, ``"net"`` for real loopback TCP sockets); a backend
    that cannot run the request bit-identically raises
    :class:`~repro.sim.errors.BackendUnsupported`.
    """
    spec = algorithm_spec(algorithm, model)
    network = make_network(graph, seed=seed)
    request = RunRequest(
        network=network, factory=spec.factory, seed=seed,
        knowledge=_auto_knowledge(network.topology, spec.needs, knowledge),
        wakeup=wakeup, model=model, tracer=tracer, timeline=timeline,
        max_rounds=max_rounds, algorithm=algorithm)
    return resolve_backend(backend).run(request)


def elect_leader(graph: Union[Topology, Network], *,
                 algorithm: str = "least-el", seed: int = 0,
                 knowledge: Optional[Mapping[str, int]] = None,
                 wakeup: Optional[WakeupModel] = None,
                 model: Optional[ExecutionModel] = None,
                 max_rounds: Optional[int] = None,
                 tracer: Optional["Tracer"] = None,
                 timeline: bool = False,
                 backend: Optional[str] = None) -> RunResult:
    """One-call leader election; raises if no unique leader emerged.

    The check is the crash-tolerant one (`has_unique_surviving_leader`):
    nodes the execution model crash-stopped are not required to have
    decided.  Without crash faults this is exactly the paper's strict
    condition.
    """
    from .sim.errors import ElectionFailure

    result = run_algorithm(graph, algorithm, seed=seed, knowledge=knowledge,
                           wakeup=wakeup, model=model, max_rounds=max_rounds,
                           tracer=tracer, timeline=timeline, backend=backend)
    if not result.has_unique_surviving_leader:
        crashed = result.crashed_indices
        crash_note = f", crashed: {crashed}" if crashed else ""
        raise ElectionFailure(
            f"{algorithm} elected {result.num_leaders} leaders "
            f"(statuses: {[s.value for s in result.statuses][:10]}..."
            f"{crash_note})")
    return result


def run_sweep(spec=None, *,
              cache_dir: Optional[str] = None,
              workers: int = 1,
              progress: Optional[Callable[[str], None]] = None,
              on_cell: Optional[Callable[[int, int], None]] = None,
              batch_trials: bool = True,
              **spec_kwargs):
    """Run a declarative experiment sweep (see :mod:`repro.experiments`).

    Accepts either a prebuilt :class:`~repro.experiments.ExperimentSpec`
    or the spec's keyword arguments directly::

        sweep = run_sweep(name="scaling",
                          algorithms=["least-el", "kingdom"],
                          graphs=["ring:64", "er:100:0.08"],
                          trials=10, workers=4,
                          cache_dir=".repro-cache")

    Returns a :class:`~repro.experiments.SweepResult`; call
    ``sweep.groups()`` for per-configuration statistics.
    """
    from .experiments import ExperimentSpec
    from .experiments import run_sweep as _run_sweep

    if spec is None:
        spec = ExperimentSpec(**spec_kwargs)
    elif spec_kwargs:
        raise TypeError("pass either a spec object or spec kwargs, not both")
    return _run_sweep(spec, cache_dir=cache_dir, workers=workers,
                      progress=progress, on_cell=on_cell,
                      batch_trials=batch_trials)
