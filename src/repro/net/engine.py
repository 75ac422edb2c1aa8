"""Request checking and execution for the real-network backend.

``supports`` is the "equivalent or absent" gate: a request is accepted
only when the socket transport is *proven* to reproduce the event
loop's numbers bit for bit (see :mod:`repro.net.runner` for the
argument); everything else refuses with a specific reason.

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
===========================  ==============================================
"""

from __future__ import annotations

import asyncio
from typing import Optional, Sequence

from ..graphs.network import ImplicitNetwork
from ..sim.backend import RunRequest
from ..sim.contract import RunResult
from .runner import DEFAULT_ROUND_TIMEOUT, NetRunner

#: Largest n the net backend accepts: a clique at this size is already
#: ~2k real TCP connections, comfortably under default fd limits.
NET_MAX_NODES = 64


def supports(request: RunRequest) -> Optional[str]:
    """``None`` if the socket transport reproduces ``request`` exactly,
    else the refusal reason (see the module docstring's matrix)."""
    if request.algorithm is None:
        return ("net backend needs a registry algorithm name; anonymous "
                "factories cannot be checked for delay tolerance")
    from ..api import _ensure_registry
    registry = _ensure_registry()
    spec = registry.get(request.algorithm)
    if spec is None:
        return f"unknown algorithm {request.algorithm!r}"
    if not spec.delay_tolerant:
        return (f"algorithm {request.algorithm!r} is synchronous-only "
                "(delay_tolerant=False); real sockets deliver "
                "asynchronously")
    if request.watch_edges:
        return "watch_edges needs the event loop's per-send Envelope path"
    if request.record_sends:
        return "record_sends needs the event loop's per-send Envelope path"
    if request.model is not None and request.model.delay.max_delay > 1:
        return (f"delay Δ={request.model.delay.max_delay} > 1: a receiver "
                "can get frames from several send rounds in one delivery "
                "round, which the simulator orders by send round first, "
                "and net frames carry only their delivery round")
    if isinstance(request.network, ImplicitNetwork):
        return ("implicit (lazy) networks are simulator-scale; the net "
                "backend opens one real TCP connection per edge")
    n = request.network.num_nodes
    if n > NET_MAX_NODES:
        return (f"n={n} > {NET_MAX_NODES}: a real socket mesh needs "
                "O(m) loopback connections; use the simulator for scale")
    return None


def run(request: RunRequest, *,
        round_timeout: float = DEFAULT_ROUND_TIMEOUT,
        hang_nodes: Sequence[int] = ()) -> RunResult:
    """Execute ``request`` over real loopback sockets.

    ``round_timeout`` bounds every round-barrier wait (frame collection
    and activation replies); ``hang_nodes`` is the test hook that wedges
    the named nodes to exercise :class:`~repro.net.errors.TransportTimeout`.
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
    return asyncio.run(runner.run_async(request.max_rounds))
