"""Request checking and execution for the real-network backend.

``supports`` is the "equivalent or absent" gate: a request is accepted
only when the socket transport is *proven* to reproduce the event
loop's numbers bit for bit (see :mod:`repro.net.runner` for the
argument); everything else refuses with a specific reason.

``supports_batch`` says whether a trial batch is *genuinely batched*:
:func:`run_batch` opens one mesh for the batch's topology and runs
every trial on it in order, each through :func:`run` with a fresh
runner and fresh node tasks, so a trial's result is the sequential
expansion's by construction.  Its refusals are the single-run matrix
below, checked on the batch's topology without building a network,
plus crash schedules.

Known-unsupported matrix (each entry is a deliberate refusal, not a
missing feature):

===========================  ==============================================
Request feature              Why the net backend refuses it
===========================  ==============================================
anonymous factory            delay tolerance can't be checked without the
                             registry spec behind the factory
non-delay-tolerant algorithm kingdom's port discipline assumes lock-step
                             rounds; real sockets are asynchronous
``watch_edges``              needs the per-send Envelope path
``record_sends``             same — sends live on sockets, not in a log
delay Δ > 1                  one delivery round can hold frames from
                             several send rounds, which the simulator
                             orders by send round first; frames carry
                             only their delivery round
implicit (lazy) networks     implicit topologies exist for n far beyond
                             any socket mesh
n > NET_MAX_NODES            n(n-1)/2 loopback connections; beyond this,
                             benchmark with the simulator
crash schedule (batch only)  a crash closes the victim's sockets, so the
                             mesh cannot serve the next trial; such
                             batches run one mesh per trial
===========================  ==============================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graphs.network import ImplicitNetwork
from ..sim.backend import RunRequest, expand_batch
from ..sim.contract import BatchRunRequest, RunResult
from ..sim.models import ExecutionModel
from .links import Mesh
from .runner import DEFAULT_ROUND_TIMEOUT, NetRunner

#: Largest n the net backend accepts: a clique at this size is already
#: ~2k real TCP connections, comfortably under default fd limits.
NET_MAX_NODES = 64


def _config_reason(algorithm: Optional[str],
                   model: Optional[ExecutionModel]) -> Optional[str]:
    """The refusals a single run and a batch share, keyed by the
    configuration alone."""
    if algorithm is None:
        return ("net backend needs a registry algorithm name; anonymous "
                "factories cannot be checked for delay tolerance")
    from ..api import _ensure_registry
    registry = _ensure_registry()
    spec = registry.get(algorithm)
    if spec is None:
        return f"unknown algorithm {algorithm!r}"
    if not spec.delay_tolerant:
        return (f"algorithm {algorithm!r} is synchronous-only "
                "(delay_tolerant=False); real sockets deliver "
                "asynchronously")
    if model is not None and model.delay.max_delay > 1:
        return (f"delay Δ={model.delay.max_delay} > 1: a receiver "
                "can get frames from several send rounds in one delivery "
                "round, which the simulator orders by send round first, "
                "and net frames carry only their delivery round")
    return None


def _size_reason(n: int) -> Optional[str]:
    if n > NET_MAX_NODES:
        return (f"n={n} > {NET_MAX_NODES}: a real socket mesh needs "
                "O(m) loopback connections; use the simulator for scale")
    return None


def supports(request: RunRequest) -> Optional[str]:
    """``None`` if the socket transport reproduces ``request`` exactly,
    else the refusal reason (see the module docstring's matrix)."""
    reason = _config_reason(request.algorithm, request.model)
    if reason is not None:
        return reason
    if request.watch_edges:
        return "watch_edges needs the event loop's per-send Envelope path"
    if request.record_sends:
        return "record_sends needs the event loop's per-send Envelope path"
    if isinstance(request.network, ImplicitNetwork):
        return ("implicit (lazy) networks are simulator-scale; the net "
                "backend opens one real TCP connection per edge")
    return _size_reason(request.network.num_nodes)


def supports_batch(request: BatchRunRequest) -> Optional[str]:
    """``None`` if :func:`run_batch` can run every trial of ``request``
    on one shared mesh, else the reason it would not.

    Builds no network: ``n`` comes from the topology and is checked
    first (networks of at most ``NET_MAX_NODES`` nodes are never
    implicit), and batches carry no edge watches or send logs.
    """
    reason = (_size_reason(request.topology.num_nodes)
              or _config_reason(request.algorithm, request.model))
    if reason is not None:
        return reason
    if request.model is not None and not request.model.crash.is_null:
        return ("crash schedule: a crash closes the victim's sockets, so "
                "one mesh cannot serve the next trial")
    return None


def run(request: RunRequest, *,
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
        hang_nodes: Sequence[int] = (),
        mesh: Optional[Mesh] = None) -> RunResult:
    """Execute ``request`` over real loopback sockets.

    ``round_timeout`` bounds every round-barrier wait (frame collection
    and activation replies); ``hang_nodes`` is the test hook that wedges
    the named nodes to exercise :class:`~repro.net.errors.TransportTimeout`.
    ``mesh`` is an open mesh of the request's topology to run on (a
    batch's); without one, the run opens and closes a mesh of its own.
    """
    runner = NetRunner(request.network, request.factory,
                       seed=request.seed,
                       knowledge=request.knowledge,
                       wakeup=request.wakeup,
                       model=request.model,
                       congest_bits=request.congest_bits,
                       tracer=request.tracer,
                       timeline=request.timeline,
                       round_timeout=round_timeout,
                       hang_nodes=hang_nodes)
    return runner.run(request.max_rounds, mesh=mesh)


def run_batch(request: BatchRunRequest, *,
              round_timeout: float = DEFAULT_ROUND_TIMEOUT,
              hang_nodes: Sequence[int] = ()) -> List[RunResult]:
    """Run the trials of ``request`` in order on one shared mesh.

    Each trial goes through :func:`run`, so the per-trial boundary (and
    every CONGEST violation or timeout, raised at the trial where the
    sequential expansion raises it) is unchanged.  Callers are expected
    to have passed :func:`supports_batch` (the ``NetBackend`` shim
    enforces it).
    """
    with Mesh(request.topology, round_timeout) as mesh:
        return [run(trial, round_timeout=round_timeout,
                    hang_nodes=hang_nodes, mesh=mesh)
                for trial in expand_batch(request)]
