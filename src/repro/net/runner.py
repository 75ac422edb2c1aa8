"""The socket transport under the round core.

:class:`NetRunner` runs one algorithm instance per node as N asyncio
tasks exchanging length-prefixed pickled frames over loopback TCP, and
produces a :class:`~repro.sim.contract.RunResult` *bit-identical* to the
event-loop :class:`~repro.sim.scheduler.Simulator` on every supported
request.  Both are subclasses of :class:`~repro.sim.rounds.RoundCore`,
which owns the round semantics (event queue, timers, sends, the
``model:``/``crash:`` streams, crash settlement, CONGEST, accounting,
observability); this module supplies only the links.  What is left to
argue is that the links deliver what the simulator's buffer would:

* **Same bookings.**  :meth:`NetRunner._transmit` is the core's
  per-message delivery hook: it books the frame in the core's flat
  ``dst -> [...]`` map (all supported models have Δ = 1) and writes it
  to the sender's socket, so the event rounds, the crash purge and the
  delivered/dropped accounting are the simulator's own code.
* **Same activation order.**  Within a round the coordinator activates
  nodes *sequentially in ascending index order* — the core's sorted
  active set — shipping each activation into the owning node's task and
  awaiting its reply before the next.  Activations contain no awaits of
  their own, so each is atomic, and the global send order (and
  therefore the shared loss stream) is identical to the simulator's.
* **Same inbox order.**  Each node sends at most one message per port
  per round (the CONGEST discipline enforced by ``NodeContext``), and
  the graphs are simple, so a receiver gets at most one frame per
  neighbor per round; sorting the collected frames by source index
  reproduces the simulator's submission-order inbox.  Frames from one
  sender share a TCP connection, so ties keep write order (stable sort).

What is *physically real*: every payload is pickled, framed, written to
a TCP socket, read back by the receiver's reader task, and unpickled;
crash injection kills the victim's tasks and closes its sockets; a
wedged peer trips the round barrier's timeout instead of deadlocking
the run.

A run executes on a :class:`~repro.net.links.Mesh` — its own, or one a
trial batch shares — with node tasks of its own, and leaves the mesh's
round buffers as empty as it found them: a run that stops at its round
ceiling still has frames booked for the next round, and collects and
drops them before it returns (:meth:`NetRunner._drain`).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..graphs.network import Network
from ..sim.contract import ProcessFactory, RunResult
from ..sim.message import Payload
from ..sim.models import ExecutionModel
from ..sim.process import Delivery
from ..sim.rounds import RoundCore
from ..sim.wakeup import WakeupModel
from .codec import encode_frame
from .links import Mesh, NodeEndpoint
from .node import NodeRunner

DEFAULT_ROUND_TIMEOUT = 30.0


class NetRunner(RoundCore):
    """Coordinates one real-socket run; constructor mirrors ``Simulator``."""

    def __init__(self, network: Network, process_factory: ProcessFactory, *,
                 seed: int = 0,
                 knowledge: Optional[Mapping[str, int]] = None,
                 wakeup: Optional[WakeupModel] = None,
                 model: Optional[ExecutionModel] = None,
                 congest_bits: Optional[int] = None,
                 tracer=None,
                 timeline: bool = False,
                 round_timeout: float = DEFAULT_ROUND_TIMEOUT,
                 hang_nodes: Sequence[int] = ()) -> None:
        super().__init__(network, process_factory, seed=seed,
                         knowledge=knowledge, wakeup=wakeup, model=model,
                         congest_bits=congest_bits, tracer=tracer)
        self._round_timeout = round_timeout
        self._hang_nodes = set(hang_nodes)
        # Transport state, materialized inside run_on (needs a loop).
        self._endpoints: List[NodeEndpoint] = []
        self._runners: List[NodeRunner] = []
        self._alive: List[bool] = [True] * network.num_nodes
        self._bind_paths(timeline)

    # ------------------------------------------------------------------
    # Physical transmission
    # ------------------------------------------------------------------
    def _transmit(self, src: int, dst: int, dst_port: int,
                  payload: Payload, delivery_round: int) -> None:
        """Book one frame for delivery and write it to the socket.

        The booking (the sender's index, in the core's flat map) is
        what the receiver must collect at ``delivery_round``; its
        insertion order matches the simulator's inbox map, which the
        core's crash purge relies on.  Frames addressed to crashed
        nodes are still *booked* (the simulator buffers them too, then
        drops them at their delivery round) but not physically written
        — the victim's sockets are closed.
        """
        booked = self._inboxes.get(dst)
        if booked is None:
            booked = self._inboxes[dst] = []
        booked.append(src)
        self._delivery_round = delivery_round
        if self._alive[dst]:
            self._endpoints[src].send(
                dst, encode_frame(src, delivery_round, dst_port, payload))

    _deliver = _transmit

    async def _collect(self, r: int, booked: Dict[int, List[int]]
                       ) -> Dict[int, List[Delivery]]:
        """Await this round's frames off the sockets and rebuild inboxes.

        The coordinator knows exactly how many frames each receiver is
        owed; each endpoint blocks on its arrival event until they are
        all buffered (or the round barrier times out, naming the node).
        Sorting by source index reproduces the simulator's inbox order
        (one frame per neighbor per round, ascending-index activations).
        """
        inboxes: Dict[int, List[Delivery]] = {}
        for dst in sorted(booked):
            endpoint = self._endpoints[dst]
            await endpoint.expect(r, len(booked[dst]), self._round_timeout)
            frames = endpoint.take(r)
            frames.sort(key=lambda frame: frame[0])
            inboxes[dst] = [Delivery(frame[2], frame[3]) for frame in frames]
        return inboxes

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    async def _execute_round(self, r: int) -> None:
        inboxes = await self._collect(r, self._take_round(r))
        active, fired = self._round_prelude(r, inboxes)
        await self._activate(r, active, fired, inboxes)

    async def _activate(self, r: int, active: Sequence[int], fired: Set[int],
                        inboxes: Dict[int, List[Delivery]]) -> None:
        """The activation loop: one awaited activation per non-halted
        active node, ascending."""
        contexts = self._contexts
        for idx in active:
            if contexts[idx]._halted:
                continue
            inbox = inboxes.get(idx, [])
            await self._runners[idx].activate(
                self._activation(idx, r, inbox, bool(inbox) or idx in fired),
                r, self._round_timeout)

    def _activation(self, idx: int, r: int, inbox: List[Delivery],
                    run_round: bool):
        """Build the closure one node executes inside its own task.

        The body is the simulator's per-node activation step; it ends
        by draining the node's touched sockets so this round's frames
        are flushed before the coordinator moves on.
        """
        ctx = self._contexts[idx]
        process = self._processes[idx]

        async def command() -> None:
            ctx._round = r
            if ctx._outbox:
                ctx._flush_outbox()
            if not self._started[idx]:
                self._started[idx] = True
                self.metrics.on_activity(r)
                process.on_start(ctx)
            if run_round:
                process.on_round(ctx, inbox)
            await self._endpoints[idx].drain()
        return command

    def _kill_node(self, node: int) -> None:
        """Crash injection: cancel the victim's tasks, close its sockets.

        TCP flushes written data before FIN, so frames the victim sent
        in earlier rounds still reach their receivers; peers simply see
        EOF on the shared connection afterwards.
        """
        self._alive[node] = False
        self._runners[node].kill()
        self._endpoints[node].kill()

    # ------------------------------------------------------------------
    def run(self, max_rounds: Optional[int] = None, *,
            mesh: Optional[Mesh] = None) -> RunResult:
        """Execute on ``mesh``, or on a mesh of this run's own that is
        opened before the run and closed after it."""
        if mesh is not None:
            return mesh.run(self.run_on(mesh.endpoints, max_rounds))
        with Mesh(self.network.topology, self._round_timeout) as own:
            return own.run(self.run_on(own.endpoints, max_rounds))

    async def run_on(self, endpoints: List[NodeEndpoint],
                     max_rounds: Optional[int] = None) -> RunResult:
        """Execute to quiescence on an open mesh's endpoints.

        Starts this run's node tasks and stops them at the end; the
        endpoints must hold no frames of an earlier run, and are left
        holding none of this one's.
        """
        self._start()
        for endpoint in endpoints:
            endpoint.check_clean()
        self._endpoints = endpoints
        self._runners = [NodeRunner(i)
                         for i in range(self.network.num_nodes)]
        for idx in self._hang_nodes:
            self._runners[idx].hang = True
        try:
            for r in self._rounds(max_rounds, False):
                await self._execute_round(r)
            await self._drain()
            return self._result()
        finally:
            for runner in self._runners:
                runner.task.cancel()
            await asyncio.gather(*(runner.task for runner in self._runners),
                                 return_exceptions=True)

    async def _drain(self) -> None:
        """Collect and drop the frames a truncated run left booked.

        Reads the core's flat booking map directly, never through
        ``_take_round``: on modeled runs that is the accounting variant,
        which would count the frames as delivered and fire due crashes.
        Receivers that crashed are skipped — frames addressed to them
        were never written.
        """
        r = self._delivery_round
        if r is None:
            return
        for dst in sorted(self._inboxes):
            if self._alive[dst]:
                endpoint = self._endpoints[dst]
                await endpoint.expect(r, len(self._inboxes[dst]),
                                      self._round_timeout)
                endpoint.take(r)

    # -- transport telemetry -------------------------------------------
    @property
    def wire_bytes(self) -> Tuple[int, int]:
        """(bytes written, bytes read) across all endpoints, counted
        from the start of this run."""
        out = sum(e.wire_bytes_out for e in self._endpoints)
        into = sum(e.wire_bytes_in for e in self._endpoints)
        return out, into
