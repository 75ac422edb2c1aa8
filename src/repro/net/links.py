"""Per-node TCP endpoints and the loopback mesh.

Each node owns a :class:`NodeEndpoint`: one listening socket plus one
established TCP connection per neighbour (the lower-indexed endpoint of
every undirected edge dials the higher-indexed one, which is how the
mesh stays at exactly one connection per edge).  The endpoint splits
YACA-style into a *sender* side (``send``/``drain`` over per-peer
writers) and a *listener* side (one reader task per connection that
parses length-prefixed frames and files them into per-delivery-round
buffers).

The round barrier lives in :meth:`NodeEndpoint.expect`: the coordinator
knows exactly how many frames each node must receive for a delivery
round (the simulator's bookkeeping tells it), and ``expect`` blocks on
the arrival event until that many frames are buffered.  Frames for
*later* rounds arriving early is fine — they sit in their own buffer
until their round comes up.

A :class:`Mesh` is the endpoints of one topology together with the
event loop their sockets are bound to (transports never move between
loops).  It has three operations — open (the constructor), run a
coroutine, close — and one close path, taken by single runs, by trial
batches that share the mesh, and by a handshake that fails halfway.
No round depends on its links being new, so any number of runs can
execute on one mesh in turn, provided each leaves the round buffers
empty (:meth:`NodeEndpoint.check_clean` verifies it).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Dict, List, Optional, Set, TypeVar

from ..graphs.topology import Topology
from . import codec
from .errors import TransportError, TransportTimeout

LOOPBACK = "127.0.0.1"

T = TypeVar("T")


class NodeEndpoint:
    """One node's sockets: a listener plus per-peer connections.

    Built only inside a coroutine running on the mesh's loop: on
    Python 3.9 the arrival and ready events bind to the loop that is
    current when they are created.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.server: Optional[asyncio.base_events.Server] = None
        self.port: int = 0
        #: peer index -> writer for the shared per-edge connection.
        self.writers: Dict[int, asyncio.StreamWriter] = {}
        #: reader tasks, one per established connection.
        self.reader_tasks: List["asyncio.Task[None]"] = []
        #: delivery round -> frames received for that round.
        self._buffers: Dict[int, List[codec.Frame]] = {}
        #: set whenever a frame arrives; expect() clears and re-checks.
        self._arrival = asyncio.Event()
        #: peers touched by send() since the last drain().
        self._touched: Set[int] = set()
        #: bytes actually moved over the wire (transport telemetry).
        self.wire_bytes_out = 0
        self.wire_bytes_in = 0
        #: fires once all expected inbound dials have completed.
        self._ready = asyncio.Event()
        self._expected_dials = 0

    # -- listener side -------------------------------------------------

    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._on_accept, host=LOOPBACK, port=0)
        sockets = self.server.sockets or []
        self.port = sockets[0].getsockname()[1]

    async def _on_accept(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        peer = await codec.read_hello(reader)
        if peer is None:
            writer.close()
            return
        self.writers[peer] = writer
        self.reader_tasks.append(
            asyncio.ensure_future(self._read_loop(reader)))
        self._expected_dials -= 1
        if self._expected_dials <= 0:
            self._ready.set()

    def attach(self, peer: int, reader: asyncio.StreamReader,
               writer: asyncio.StreamWriter) -> None:
        """Register an outbound connection this endpoint dialed."""
        self.writers[peer] = writer
        self.reader_tasks.append(
            asyncio.ensure_future(self._read_loop(reader)))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            body = await codec.read_raw(reader)
            if body is None:
                return
            self.wire_bytes_in += codec.HEADER_SIZE + len(body)
            frame = codec.decode_body(body)
            self._buffers.setdefault(frame[1], []).append(frame)
            self._arrival.set()

    # -- barrier side --------------------------------------------------

    async def expect(self, delivery_round: int, count: int,
                     timeout: float) -> None:
        """Block until ``count`` frames for ``delivery_round`` arrived."""
        while len(self._buffers.get(delivery_round, ())) < count:
            self._arrival.clear()
            if len(self._buffers.get(delivery_round, ())) >= count:
                break
            try:
                await asyncio.wait_for(self._arrival.wait(), timeout)
            except asyncio.TimeoutError:
                raise TransportTimeout(self.index, delivery_round, timeout,
                                       what="frame delivery") from None

    def take(self, delivery_round: int) -> List[codec.Frame]:
        """Remove and return all frames buffered for ``delivery_round``."""
        return self._buffers.pop(delivery_round, [])

    def check_clean(self) -> None:
        """Refuse to start a run while an earlier run's frames are
        still buffered here: they would satisfy this run's barrier.
        Resets the wire-byte counters for the run about to start."""
        if self._buffers:
            r = min(self._buffers)
            raise TransportError(
                f"node {self.index} holds {len(self._buffers[r])} stale "
                f"frame(s) for round {r} from an earlier run on this mesh")
        self.wire_bytes_out = self.wire_bytes_in = 0

    # -- sender side ---------------------------------------------------

    def send(self, peer: int, frame: bytes) -> None:
        """Queue one wire frame to ``peer`` (actual I/O happens on drain)."""
        writer = self.writers[peer]
        if writer.is_closing():
            return
        writer.write(frame)
        self.wire_bytes_out += len(frame)
        self._touched.add(peer)

    async def drain(self) -> None:
        """Flush every writer touched since the last drain."""
        for peer in sorted(self._touched):
            writer = self.writers.get(peer)
            if writer is not None and not writer.is_closing():
                try:
                    await writer.drain()
                except ConnectionError:
                    pass
        self._touched.clear()

    # -- teardown ------------------------------------------------------

    def kill(self) -> None:
        """Synchronously sever this node from the mesh (crash injection).

        Cancels reader tasks and closes sockets.  TCP flushes buffered
        data before FIN, so frames written in earlier rounds still reach
        their peers.
        """
        for task in self.reader_tasks:
            task.cancel()
        for writer in self.writers.values():
            if not writer.is_closing():
                writer.close()
        if self.server is not None:
            self.server.close()


class Mesh:
    """One loopback TCP connection per edge of ``topology``, and the
    event loop that owns them for the mesh's whole life.

    The constructor opens the mesh (closing whatever it opened if the
    handshake fails), :meth:`run` executes one coroutine on the mesh's
    loop, and :meth:`close` tears everything down once.  Only the
    topology matters: every network built from it has the same edges
    between the same node indices, whatever its IDs and port order.
    """

    def __init__(self, topology: Topology, timeout: float) -> None:
        self.endpoints: List[NodeEndpoint] = []
        self._loop = asyncio.new_event_loop()
        try:
            self.run(self._open(topology, timeout))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Mesh":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(self, coro: Awaitable[T]) -> T:
        """Run ``coro`` to completion on the mesh's loop."""
        return self._loop.run_until_complete(coro)

    async def _open(self, topology: Topology, timeout: float) -> None:
        """For every edge ``(u, v)`` with ``u < v``, node ``u`` dials
        node ``v``'s listener and announces itself with a hello frame;
        both sides then share the connection full-duplex."""
        n = topology.num_nodes
        self.endpoints = endpoints = [NodeEndpoint(i) for i in range(n)]
        dial_pairs = [(u, v) for u in range(n)
                      for v in topology.neighbors(u) if u < v]
        for _, v in dial_pairs:
            endpoints[v]._expected_dials += 1
        for ep in endpoints:
            if ep._expected_dials == 0:
                ep._ready.set()
            await ep.start()

        async def dial(u: int, v: int) -> None:
            reader, writer = await asyncio.open_connection(
                LOOPBACK, endpoints[v].port)
            endpoints[u].attach(v, reader, writer)
            writer.write(codec.encode_hello(u))
            await writer.drain()

        await asyncio.gather(*(dial(u, v) for u, v in dial_pairs))
        for ep in endpoints:
            try:
                await asyncio.wait_for(ep._ready.wait(), timeout)
            except asyncio.TimeoutError:
                raise TransportTimeout(ep.index, -1, timeout,
                                       what="mesh handshake") from None

    async def _close_endpoints(self) -> None:
        for endpoint in self.endpoints:
            endpoint.kill()
        readers = [task for endpoint in self.endpoints
                   for task in endpoint.reader_tasks]
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        for endpoint in self.endpoints:
            if endpoint.server is not None:
                try:
                    await endpoint.server.wait_closed()
                except Exception:
                    pass

    def close(self) -> None:
        """Close every socket, then do what ``asyncio.run`` does on
        exit: cancel leftover tasks, shut down async generators, close
        the loop.  Idempotent."""
        loop = self._loop
        if loop.is_closed():
            return
        try:
            loop.run_until_complete(self._close_endpoints())
            leftovers = [task for task in asyncio.all_tasks(loop)
                         if not task.done()]
            for task in leftovers:
                task.cancel()
            if leftovers:
                loop.run_until_complete(
                    asyncio.gather(*leftovers, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
