"""The round-synchronized coordinator of the real-network backend.

:class:`NetRunner` runs one algorithm instance per node as N asyncio
tasks exchanging length-prefixed pickled frames over loopback TCP — and
produces a :class:`~repro.sim.contract.RunResult` *bit-identical* to the
event-loop :class:`~repro.sim.scheduler.Simulator` on every supported
request.  The equivalence argument, piece by piece:

* **Same state machine.**  The runner mirrors the simulator's event
  queue exactly: the flat ``_delivery_round`` scalar (all supported
  models have Δ = 1), the alarm heap with dedup set, the wakeup heap,
  and on the modeled path the crash heap with the same
  ``crash:{seed}:{model_seed}`` stream.  ``_next_event_round`` is a
  line-for-line port, so the two backends execute the identical
  sequence of event rounds.
* **Same activation order.**  Within a round the coordinator activates
  nodes *sequentially in ascending index order* — the simulator's
  ``sorted(active)`` loop — shipping each activation into the owning
  node's task and awaiting its reply before the next.  Activations
  contain no awaits of their own, so each is atomic, and the global
  send order (and therefore the shared ``model:{seed}:{model_seed}``
  loss stream consumption) is identical to the simulator's.
* **Same inbox order.**  Each node sends at most one message per port
  per round (the CONGEST discipline enforced by ``NodeContext``), and
  the graphs are simple, so a receiver gets at most one frame per
  neighbor per round; sorting the collected frames by source index
  reproduces the simulator's submission-order inbox.  Frames from one
  sender share a TCP connection, so ties keep write order (stable sort).
* **Same accounting.**  The metrics calls are copied from the
  simulator's submit/execute methods verbatim — message counts, bit
  counts, drops, activations, crash order, and the per-round timeline
  all come out identical (pinned by ``tests/test_net.py``).

What is *physically real*: every payload is pickled, framed, written to
a TCP socket, read back by the receiver's reader task, and unpickled;
crash injection kills the victim's tasks and closes its sockets; a
wedged peer trips the round barrier's timeout instead of deadlocking
the run.
"""

from __future__ import annotations

import asyncio
import heapq
import random
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..graphs.network import Network
from ..sim.contract import (DEFAULT_MAX_ROUNDS, ProcessFactory, RunResult,
                            wakeup_rng)
from ..sim.errors import CongestViolation, ModelViolation, RoundLimitExceeded
from ..sim.message import Payload
from ..sim.metrics import Metrics
from ..sim.models import SYNCHRONOUS, ExecutionModel
from ..sim.process import Delivery, NodeContext, NodeProcess
from ..sim.status import Status
from ..sim.wakeup import Simultaneous, WakeupModel
from .codec import encode_frame
from .links import NodeEndpoint, open_mesh
from .node import NodeRunner

DEFAULT_ROUND_TIMEOUT = 30.0


class NetRunner:
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
        self.network = network
        self.seed = seed
        self.knowledge: Mapping[str, int] = dict(knowledge or {})
        self._congest_bits = congest_bits
        self.metrics = Metrics()
        self._fast_sends = True  # watches / send recording are refused
        self._tracer = tracer
        self.model = model if model is not None else SYNCHRONOUS
        self._round_timeout = round_timeout
        self._hang_nodes = set(hang_nodes)
        n = network.num_nodes
        self._processes: List[NodeProcess] = [process_factory() for _ in range(n)]
        self._contexts: List[NodeContext] = [NodeContext(self, i) for i in range(n)]
        self._started: List[bool] = [False] * n

        wake_model = wakeup if wakeup is not None else self.model.wakeup
        if wake_model is None:
            wake_model = Simultaneous()
        wake_rng = wakeup_rng(seed)
        self._wake_schedule = wake_model.schedule(n, wake_rng)
        self._pending_wakeups: Dict[int, List[int]] = {}
        for i, r in enumerate(self._wake_schedule):
            if r is not None:
                self._pending_wakeups.setdefault(r, []).append(i)
        self._wakeup_heap: List[int] = sorted(self._pending_wakeups)

        # In-flight bookkeeping: how many frames each receiver must
        # collect at the (single, Δ = 1) pending delivery round.  This
        # is the simulator's flat inbox map with counts instead of
        # buffered deliveries — the deliveries themselves are in flight
        # on the sockets.  Insertion order matches the simulator's inbox
        # map (first buffered message per receiver), which the crash
        # purge below relies on.
        self._expected: Dict[int, int] = {}
        self._delivery_round: Optional[int] = None

        self._alarm_heap: List[Tuple[int, int]] = []
        self._alarm_set: Set[Tuple[int, int]] = set()
        self._current_round = 0
        self._ran = False

        self._port_table = network.port_table
        self._peer_table = network.peer_port_table

        # Transport state, materialized inside run_async (needs a loop).
        self._endpoints: List[NodeEndpoint] = []
        self._runners: List[NodeRunner] = []
        self._alive: List[bool] = [True] * n

        if not self.model.is_synchronous:
            self._init_model_path(n)
        if tracer is not None or timeline:
            self._init_obs_path(timeline)

    def _init_model_path(self, n: int) -> None:
        """Bind the modeled submit/execute variants (crash + loss, Δ = 1).

        Same rebinding idiom as the simulator; the delay policy is
        sampled through the shared ``model:`` stream even though Δ = 1
        forces the result, so the stream position stays identical.
        """
        mdl = self.model
        self._delta = mdl.delay.max_delay
        self._delay_policy = mdl.delay
        self._loss = mdl.loss
        self._model_rng = random.Random(f"model:{self.seed}:{mdl.seed}")
        crash_map = mdl.crash.schedule(
            n, random.Random(f"crash:{self.seed}:{mdl.seed}"))
        self._crash_heap: List[Tuple[int, int]] = sorted(
            (r, node) for node, r in crash_map.items())
        self._crashed: List[bool] = [False] * n
        self._submit_send = self._submit_send_model        # type: ignore[method-assign]
        self._submit_multicast = self._submit_multicast_model  # type: ignore[method-assign]
        self._next_event_round = self._next_event_round_model  # type: ignore[method-assign]
        self._execute_round = self._execute_round_model    # type: ignore[method-assign]

    def _init_obs_path(self, record_timeline: bool) -> None:
        """Wrap the bound methods with the simulator's observability
        instrumentation — same events, same ordering, so net traces
        validate and `repro timeline` works on real runs."""
        tracer = self._tracer
        timeline = None
        if record_timeline:
            from ..obs.timeline import Timeline
            timeline = Timeline()
            self.metrics.timeline = timeline
        metrics = self.metrics
        contexts = self._contexts
        self._obs_delivered = 0

        inner_dispatch = self._dispatch_round
        async def dispatch_obs(r: int, inboxes: Dict[int, List[Delivery]]) -> None:
            if inboxes:
                if tracer is not None:
                    total = 0
                    for node in sorted(inboxes):
                        count = len(inboxes[node])
                        total += count
                        tracer.deliver(r, node, count)
                else:
                    total = sum(map(len, inboxes.values()))
                self._obs_delivered = total
            await inner_dispatch(r, inboxes)
        self._dispatch_round = dispatch_obs  # type: ignore[method-assign]

        inner_execute = self._execute_round
        async def execute_obs(r: int) -> None:
            if tracer is not None:
                tracer.round_begin(r)
                woken = self._pending_wakeups.get(r)
                if woken:
                    tracer.wakeup(r, sorted(woken))
            sent0 = metrics.messages
            dropped0 = metrics.messages_dropped
            active0 = metrics.activations
            self._obs_delivered = 0
            await inner_execute(r)
            sent = metrics.messages - sent0
            dropped = metrics.messages_dropped - dropped0
            active = metrics.activations - active0
            undecided = elected = 0
            for ctx in contexts:
                status = ctx._status
                if status is Status.UNDECIDED:
                    undecided += 1
                elif status is Status.ELECTED:
                    elected += 1
            if timeline is not None:
                timeline.append(round=r, sent=sent,
                                delivered=self._obs_delivered,
                                dropped=dropped, active=active,
                                undecided=undecided, elected=elected)
            if tracer is not None:
                tracer.round_end(r, sent=sent,
                                 delivered=self._obs_delivered,
                                 dropped=dropped, active=active,
                                 undecided=undecided, elected=elected)
        self._execute_round = execute_obs  # type: ignore[method-assign]

        if tracer is not None and self.model.is_synchronous:
            inner_send = self._submit_send
            port_table = self._port_table
            def send_obs(src: int, port: int, payload: Payload) -> None:
                inner_send(src, port, payload)
                tracer.send(self._current_round, src, payload.kind(),
                            payload.size_bits(), 1,
                            dst=port_table[src][port])
            self._submit_send = send_obs  # type: ignore[method-assign]
            inner_multicast = self._submit_multicast
            def multicast_obs(src: int, ports: Sequence[int],
                              payload: Payload) -> None:
                inner_multicast(src, ports, payload)
                tracer.send(self._current_round, src, payload.kind(),
                            payload.size_bits(), len(ports))
            self._submit_multicast = multicast_obs  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Physical transmission
    # ------------------------------------------------------------------
    def _transmit(self, src: int, dst: int, dst_port: int,
                  payload: Payload, delivery_round: int) -> None:
        """Book one frame for delivery and write it to the socket.

        Frames addressed to crashed nodes are still *booked* (the
        simulator buffers them too, then drops them at their delivery
        round) but not physically written — the victim's sockets are
        closed.
        """
        self._expected[dst] = self._expected.get(dst, 0) + 1
        self._delivery_round = delivery_round
        if self._alive[dst]:
            self._endpoints[src].send(
                dst, encode_frame(src, delivery_round, dst_port, payload))

    # ------------------------------------------------------------------
    # Hooks used by NodeContext (mirroring Simulator's submit methods)
    # ------------------------------------------------------------------
    def _submit_send(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        self.metrics.record_send(src, dst, payload.kind(), size,
                                 self._current_round)
        self._transmit(src, dst, dst_port, payload, self._current_round + 1)

    def _submit_multicast(self, src: int, ports: Sequence[int],
                          payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        port_row = self._port_table[src]
        peer_row = self._peer_table[src]
        dr = self._current_round + 1
        for port in ports:
            self._transmit(src, port_row[port], peer_row[port], payload, dr)
        self.metrics.record_broadcast(src, payload.kind(), size, len(ports))

    def _submit_broadcast(self, src: int, payload: Payload) -> None:
        self._submit_multicast(src, range(self.network.degree(src)), payload)

    # -- modeled variants (loss + crash, Δ = 1) -------------------------
    def _draw_loss(self, src: int, dst: int, r: int) -> bool:
        loss = self._loss
        return not loss.is_null and loss.drops(src, dst, r, self._model_rng)

    def _sample_delay(self, src: int, dst: int, r: int) -> int:
        d = self._delay_policy.sample(src, dst, r, self._model_rng)
        if not 1 <= d <= self._delta:
            raise ModelViolation(
                f"delay policy returned {d} for ({src} -> {dst}), "
                f"outside [1, {self._delta}]")
        return d

    def _submit_send_model(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        r = self._current_round
        lost = self._draw_loss(src, dst, r)
        self.metrics.record_send(src, dst, payload.kind(), size, r)
        tracer = self._tracer
        if tracer is not None:
            tracer.send(r, src, payload.kind(), size, 1, dst=dst)
            if lost:
                tracer.drop(r, "loss", 1, src=src, dst=dst)
        if lost:
            self.metrics.messages_dropped += 1
            return
        self._transmit(src, dst, dst_port, payload, r + self._sample_delay(src, dst, r))

    def _submit_multicast_model(self, src: int, ports: Sequence[int],
                                payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        port_row = self._port_table[src]
        peer_row = self._peer_table[src]
        r = self._current_round
        self.metrics.record_broadcast(src, payload.kind(), size, len(ports))
        tracer = self._tracer
        for port in ports:
            dst = port_row[port]
            dst_port = peer_row[port]
            lost = self._draw_loss(src, dst, r)
            if tracer is not None:
                tracer.send(r, src, payload.kind(), size, 1, dst=dst)
                if lost:
                    tracer.drop(r, "loss", 1, src=src, dst=dst)
            if lost:
                self.metrics.messages_dropped += 1
                continue
            self._transmit(src, dst, dst_port, payload,
                           r + self._sample_delay(src, dst, r))

    def _submit_alarm(self, node: int, round_index: int) -> None:
        key = (round_index, node)
        if key not in self._alarm_set:
            self._alarm_set.add(key)
            heapq.heappush(self._alarm_heap, key)

    def _note_activity(self, round_index: int) -> None:
        self.metrics.on_activity(round_index)

    # ------------------------------------------------------------------
    # Event queue (line-for-line ports of the Simulator's)
    # ------------------------------------------------------------------
    def _next_event_round(self) -> Optional[int]:
        heap = self._alarm_heap
        contexts = self._contexts
        while heap and contexts[heap[0][1]]._halted:
            key = heapq.heappop(heap)
            self._alarm_set.discard(key)
        best = self._delivery_round
        if heap:
            r = heap[0][0]
            if best is None or r < best:
                best = r
        wakeups = self._wakeup_heap
        if wakeups:
            r = wakeups[0]
            if best is None or r < best:
                best = r
        return best

    def _next_event_round_model(self) -> Optional[int]:
        heap = self._alarm_heap
        contexts = self._contexts
        while heap and contexts[heap[0][1]]._halted:
            key = heapq.heappop(heap)
            self._alarm_set.discard(key)
        wakeups = self._wakeup_heap
        pending = self._pending_wakeups
        while wakeups:
            r0 = wakeups[0]
            nodes = pending.get(r0)
            if nodes and not all(contexts[i]._halted for i in nodes):
                break
            heapq.heappop(wakeups)
            pending.pop(r0, None)
        best = self._delivery_round
        if heap:
            r = heap[0][0]
            if best is None or r < best:
                best = r
        if wakeups:
            r = wakeups[0]
            if best is None or r < best:
                best = r
        crash_heap = self._crash_heap
        if crash_heap and (heap or wakeups):
            r = crash_heap[0][0]
            if best is None or r < best:
                best = r
        return best

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    async def _collect(self, r: int, expected: Dict[int, int]
                       ) -> Dict[int, List[Delivery]]:
        """Await this round's frames off the sockets and rebuild inboxes.

        The coordinator knows exactly how many frames each receiver is
        owed; each endpoint blocks on its arrival event until they are
        all buffered (or the round barrier times out, naming the node).
        Sorting by source index reproduces the simulator's inbox order
        (one frame per neighbor per round, ascending-index activations).
        """
        inboxes: Dict[int, List[Delivery]] = {}
        for dst in sorted(expected):
            endpoint = self._endpoints[dst]
            await endpoint.expect(r, expected[dst], self._round_timeout)
            frames = endpoint.take(r)
            frames.sort(key=lambda frame: frame[0])
            inboxes[dst] = [Delivery(frame[2], frame[3]) for frame in frames]
        return inboxes

    async def _execute_round(self, r: int) -> None:
        if self._delivery_round == r:
            expected = self._expected
            self._expected = {}
            self._delivery_round = None
            inboxes = await self._collect(r, expected)
        else:
            inboxes = {}
        await self._dispatch_round(r, inboxes)

    async def _execute_round_model(self, r: int) -> None:
        if self._delivery_round == r:
            expected = self._expected
            self._expected = {}
            self._delivery_round = None
        else:
            expected = {}
        delivered = sum(expected.values())

        crash_heap = self._crash_heap
        tracer = self._tracer
        if crash_heap:
            contexts = self._contexts
            while crash_heap and crash_heap[0][0] <= r:
                _, node = heapq.heappop(crash_heap)
                contexts[node]._crash()
                self._crashed[node] = True
                self.metrics.crashed_nodes.append(node)
                if tracer is not None:
                    tracer.crash(r, node)
                self._kill_node(node)
        if expected and self.metrics.crashed_nodes:
            crashed = self._crashed
            for idx in [i for i in expected if crashed[i]]:
                dead = expected.pop(idx)
                delivered -= dead
                self.metrics.messages_dropped += dead
                if tracer is not None:
                    tracer.drop(r, "crash", dead, dst=idx)
        self.metrics.messages_delivered += delivered
        inboxes = await self._collect(r, expected)
        await self._dispatch_round(r, inboxes)

    async def _dispatch_round(self, r: int,
                              inboxes: Dict[int, List[Delivery]]) -> None:
        woken = self._pending_wakeups.pop(r, [])
        wakeups = self._wakeup_heap
        while wakeups and wakeups[0] <= r:
            heapq.heappop(wakeups)

        fired: Set[int] = set()
        heap = self._alarm_heap
        while heap and heap[0][0] <= r:
            key = heapq.heappop(heap)
            self._alarm_set.discard(key)
            fired.add(key[1])

        if woken or fired:
            active = sorted(set(woken) | inboxes.keys() | fired)
        else:
            active = sorted(inboxes)
        if inboxes:
            self.metrics.on_activity(r)
        self.metrics.activations += len(active)

        contexts = self._contexts
        for idx in active:
            ctx = contexts[idx]
            if ctx._halted:
                continue
            inbox = inboxes.get(idx, [])
            await self._runners[idx].activate(
                self._activation(idx, r, inbox, bool(inbox) or idx in fired),
                r, self._round_timeout)

    def _activation(self, idx: int, r: int, inbox: List[Delivery],
                    run_round: bool):
        """Build the closure one node executes inside its own task.

        The body is the simulator's per-node dispatch block verbatim; it
        ends by draining the node's touched sockets so this round's
        frames are flushed before the coordinator moves on.
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
    async def run_async(self, max_rounds: Optional[int] = None, *,
                        raise_on_limit: bool = False) -> RunResult:
        """Open the mesh, execute to quiescence, tear everything down."""
        if self._ran:
            raise RuntimeError("NetRunner instances are single-use")
        self._ran = True
        limit = max_rounds if max_rounds is not None else DEFAULT_MAX_ROUNDS
        truncated = False
        tracer = self._tracer

        self._endpoints = await open_mesh(self.network, self._round_timeout)
        self._runners = [NodeRunner(i)
                         for i in range(self.network.num_nodes)]
        for idx in self._hang_nodes:
            self._runners[idx].hang = True
        try:
            if tracer is not None:
                tracer.run_begin(n=self.network.num_nodes,
                                 m=self.network.num_edges,
                                 seed=self.seed,
                                 model=self.model.describe())

            while True:
                next_round = self._next_event_round()
                if next_round is None:
                    break
                if next_round > limit:
                    truncated = True
                    if raise_on_limit:
                        raise RoundLimitExceeded(limit)
                    break
                self._current_round = next_round
                await self._execute_round(next_round)
                self.metrics.rounds_executed += 1

            if self.model.is_synchronous:
                pending = sum(self._expected.values())
                self.metrics.messages_delivered = (
                    self.metrics.messages - pending)

            if tracer is not None:
                tracer.run_end(truncated, self.metrics.summary())
            return RunResult(
                network=self.network,
                statuses=[ctx.status for ctx in self._contexts],
                outputs=[ctx.output for ctx in self._contexts],
                metrics=self.metrics,
                truncated=truncated,
                wake_schedule=list(self._wake_schedule),
            )
        finally:
            await self._teardown()

    async def _teardown(self) -> None:
        for runner in self._runners:
            if not runner.task.done():
                runner.task.cancel()
        if self._runners:
            await asyncio.gather(*(runner.task for runner in self._runners),
                                 return_exceptions=True)
        for endpoint in self._endpoints:
            endpoint.kill()
        reader_tasks = [task for endpoint in self._endpoints
                        for task in endpoint.reader_tasks]
        if reader_tasks:
            await asyncio.gather(*reader_tasks, return_exceptions=True)
        for endpoint in self._endpoints:
            if endpoint.server is not None:
                try:
                    await endpoint.server.wait_closed()
                except Exception:
                    pass

    # -- transport telemetry -------------------------------------------
    @property
    def wire_bytes(self) -> Tuple[int, int]:
        """(bytes written, bytes read) across all endpoints."""
        out = sum(e.wire_bytes_out for e in self._endpoints)
        into = sum(e.wire_bytes_in for e in self._endpoints)
        return out, into
