"""Engine backends: pluggable executors of the run contract.

A *backend* turns one :class:`RunRequest` into one
:class:`~repro.sim.contract.RunResult`.  The reference implementation is
the event-loop :class:`~repro.sim.scheduler.Simulator`; the columnar
NumPy engine (:mod:`repro.sim.columnar`) is an opt-in second backend for
synchronous, broadcast-dominated algorithms.  Backends are *equivalent
or absent*: a backend either produces results bit-identical to the
event loop (messages, bits, rounds, statuses, outputs — pinned by the
backend-equivalence tests against the golden parity suite) or refuses
the request with :class:`~repro.sim.errors.BackendUnsupported`.

This module is also the seam future executors plug into (the ROADMAP's
asyncio real-network backend): implement :class:`EngineBackend`,
register it in :data:`BACKENDS`, and every entry point that accepts
``backend=`` — :func:`repro.api.run_algorithm`,
:func:`repro.analysis.stats.run_trials`, the experiment engine, and the
``repro`` CLI — can route through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..graphs.network import Network
from .contract import BatchRunRequest, ProcessFactory, RunResult
from .errors import BackendUnsupported
from .models import ExecutionModel
from .scheduler import Simulator
from .wakeup import WakeupModel

#: The backend every request runs on unless one is named explicitly.
DEFAULT_BACKEND = "event-loop"


@dataclass
class RunRequest:
    """One simulation run, described backend-neutrally.

    The fields mirror :class:`~repro.sim.scheduler.Simulator`'s
    constructor plus ``max_rounds``; ``algorithm`` optionally names the
    registry algorithm the factory instantiates, which is how kernel
    backends look up their vectorized implementation (a bare factory is
    opaque — without the name, only the event loop can run it).
    """

    network: Network
    factory: ProcessFactory
    seed: int = 0
    knowledge: Mapping[str, int] = field(default_factory=dict)
    wakeup: Optional[WakeupModel] = None
    model: Optional[ExecutionModel] = None
    watch_edges: Optional[Set[Tuple[int, int]]] = None
    record_sends: bool = False
    congest_bits: Optional[int] = None
    tracer: Optional[Any] = None
    timeline: bool = False
    max_rounds: Optional[int] = None
    algorithm: Optional[str] = None

    def effective_wakeup(self) -> Optional[WakeupModel]:
        """The wakeup model the run will use (explicit beats model's)."""
        if self.wakeup is not None:
            return self.wakeup
        if self.model is not None:
            return self.model.wakeup
        return None


def expand_batch(request: BatchRunRequest) -> Iterator[RunRequest]:
    """The defining sequential expansion of a batch: one
    :class:`RunRequest` per trial, network built from that trial's
    network seed.  Every ``run_batch`` implementation must be
    bit-identical to running these in order."""
    for network_seed, sim_seed in request.seeds:
        network = Network.build(request.topology, seed=network_seed,
                                ids=request.ids)
        yield RunRequest(network=network, factory=request.factory,
                         seed=sim_seed, knowledge=request.knowledge,
                         wakeup=request.wakeup, model=request.model,
                         congest_bits=request.congest_bits,
                         max_rounds=request.max_rounds,
                         algorithm=request.algorithm)


class EngineBackend:
    """Interface every execution backend implements."""

    name: str = "abstract"

    def supports(self, request: RunRequest) -> Optional[str]:
        """``None`` if this backend can run ``request`` bit-identically
        to the event loop; otherwise a human-readable refusal reason."""
        raise NotImplementedError

    def check(self, request: RunRequest) -> None:
        """Raise :class:`BackendUnsupported` if the request is refused."""
        reason = self.supports(request)
        if reason is not None:
            raise BackendUnsupported(self.name, reason)

    def run(self, request: RunRequest) -> RunResult:
        raise NotImplementedError

    # -- trial batching ----------------------------------------------------
    def supports_batch(self, request: BatchRunRequest) -> Optional[str]:
        """``None`` if this backend executes ``request`` through a
        *genuinely batched* path — one vectorized computation over the
        whole trial axis (columnar), or trials sharing costly per-batch
        setup such as one socket mesh (net); otherwise the reason it
        would fall back.

        Unlike :meth:`supports`, a non-``None`` reason here does not
        make :meth:`run_batch` illegal — it merely signals that the
        batch would degrade to the sequential per-trial expansion, so
        callers who batch *for speed* (the experiments Runner) know not
        to bother.
        """
        return f"backend {self.name!r} has no batched execution path"

    def run_batch(self, request: BatchRunRequest) -> List[RunResult]:
        """Run every trial and return their results in trial order.

        A request :meth:`supports_batch` accepts takes the backend's
        genuinely batched path (:meth:`_run_batched`), which must stay
        bit-identical to the sequential expansion; any other request
        takes the expansion itself (:func:`expand_batch` piped through
        :meth:`run`, so each trial is still ``check()``-ed and an
        unsupported request refuses loudly instead of degrading).
        """
        if self.supports_batch(request) is None:
            return self._run_batched(request)
        return [self.run(single) for single in expand_batch(request)]

    def _run_batched(self, request: BatchRunRequest) -> List[RunResult]:
        """The genuinely batched path, for requests
        :meth:`supports_batch` accepts."""
        raise NotImplementedError


class EventLoopBackend(EngineBackend):
    """The reference backend: the per-process event-loop Simulator."""

    name = "event-loop"

    def supports(self, request: RunRequest) -> Optional[str]:
        return None  # the reference semantics: everything runs here

    def run(self, request: RunRequest) -> RunResult:
        sim = Simulator(request.network, request.factory,
                        seed=request.seed,
                        knowledge=request.knowledge,
                        wakeup=request.wakeup,
                        model=request.model,
                        watch_edges=request.watch_edges,
                        record_sends=request.record_sends,
                        congest_bits=request.congest_bits,
                        tracer=request.tracer,
                        timeline=request.timeline)
        return sim.run(max_rounds=request.max_rounds)


class ColumnarBackend(EngineBackend):
    """Vectorized NumPy backend (:mod:`repro.sim.columnar`).

    This shim keeps the numpy import lazy: constructing or listing the
    backend never imports numpy, so ``repro`` stays fully usable — and
    refuses columnar runs with a clear reason — on hosts without it.
    """

    name = "columnar"

    def supports(self, request: RunRequest) -> Optional[str]:
        from . import columnar
        reason = columnar.numpy_missing()
        if reason is not None:
            return reason
        from .columnar import engine
        return engine.supports(request)

    def run(self, request: RunRequest) -> RunResult:
        self.check(request)
        from .columnar import engine
        return engine.run(request)

    def supports_batch(self, request: BatchRunRequest) -> Optional[str]:
        from . import columnar
        reason = columnar.numpy_missing()
        if reason is not None:
            return reason
        from .columnar import batch
        return batch.supports_batch(request)

    def _run_batched(self, request: BatchRunRequest) -> List[RunResult]:
        from .columnar import batch
        return batch.run_batch(request)


class NetBackend(EngineBackend):
    """Real-socket asyncio backend (:mod:`repro.net`).

    Same lazy-import shim idiom as :class:`ColumnarBackend`: listing or
    constructing the backend imports none of the transport machinery;
    only checking or running a request does.
    """

    name = "net"

    def supports(self, request: RunRequest) -> Optional[str]:
        from ..net import engine
        return engine.supports(request)

    def run(self, request: RunRequest) -> RunResult:
        self.check(request)
        from ..net import engine
        return engine.run(request)

    def supports_batch(self, request: BatchRunRequest) -> Optional[str]:
        from ..net import engine
        return engine.supports_batch(request)

    def _run_batched(self, request: BatchRunRequest) -> List[RunResult]:
        from ..net import engine
        return engine.run_batch(request)


#: Registry of available backends, keyed by canonical name.
BACKENDS: Dict[str, EngineBackend] = {
    "event-loop": EventLoopBackend(),
    "columnar": ColumnarBackend(),
    "net": NetBackend(),
}

_ALIASES = {
    None: "event-loop",
    "": "event-loop",
    "default": "event-loop",
    "event-loop": "event-loop",
    "event_loop": "event-loop",
    "eventloop": "event-loop",
    "columnar": "columnar",
    "net": "net",
    "tcp": "net",
    "asyncio": "net",
}


def backend_names() -> Tuple[str, ...]:
    """Canonical backend names, default first."""
    return tuple(BACKENDS)


def normalize_backend(name: Optional[str]) -> Optional[str]:
    """Canonical backend name, with the default normalized to ``None``.

    The ``None`` normalization is what keeps the experiment cache
    stable: a cell's identity never mentions the default backend, so
    pre-backend cache rows and ``backend=None`` rows are the same rows.
    Unknown names raise ``ValueError`` listing the valid ones.
    """
    key = name.strip().lower() if isinstance(name, str) else name
    try:
        canonical = _ALIASES[key]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; valid backends: "
            f"{', '.join(BACKENDS)}") from None
    return None if canonical == DEFAULT_BACKEND else canonical


def resolve_backend(name: Optional[str]) -> EngineBackend:
    """The :class:`EngineBackend` instance for ``name`` (default-tolerant)."""
    return BACKENDS[normalize_backend(name) or DEFAULT_BACKEND]
