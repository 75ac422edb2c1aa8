"""The round core shared by every event-driven backend.

Implements the model of Section 2 once: computation proceeds in
synchronous rounds; in every round each awake node may send at most one
message per incident edge, receives the messages its neighbors sent in
the previous round, and performs local computation.  :class:`RoundCore`
owns every rule of that model — which round runs next, the alarm,
wakeup and crash heaps, loss and delay draws, crash settlement, the
active set of a round, CONGEST, metrics, and observability — and a
backend subclass supplies only the links underneath (the synchronizer
split of Aspnes's notes: round semantics on top, delivery below):

* :class:`~repro.sim.scheduler.Simulator` buffers deliveries in memory
  (flat Δ = 1, a Δ-ring, or clique-aggregated broadcast records);
* :class:`~repro.net.runner.NetRunner` writes them as frames to real
  sockets and books how many each receiver must collect.

A backend plugs in :meth:`_deliver` (one message leaves the core) and
:meth:`_kill_node` (crash injection), and drives :meth:`_rounds` with
its own ``_execute_round``: take the due buffer, turn it into inboxes,
call :meth:`_round_prelude`, and run its activation loop (sync or
async).  Because both backends inherit the same sends, queue and
prelude, they execute the identical sequence of event rounds, draw the
identical ``model:`` stream, and account identically by construction.

The core is *event-driven over rounds*: it keeps the set of future
event rounds (message deliveries, alarms, spontaneous wakeups) and
jumps straight from one to the next.  Nothing can happen in a round
with no deliveries, alarms or wakeups, so skipping them is exact, and
runs whose span is exponential (Theorem 4.1: the agent with smallest
ID ``i`` finishes around round ``2m · 2^i``) cost time proportional to
their events, not their rounds.

Variants are bound per instance, never branched on per send: the
modeled path (:meth:`_init_model_path`), the CONGEST check
(:meth:`_init_congest_path`) and observability (:meth:`_init_obs_path`)
rebind hot methods as instance attributes, so an untraced, unlimited,
fault-free run executes none of their code.
"""

from __future__ import annotations

import heapq
import random
from typing import (TYPE_CHECKING, Any, Collection, Dict, Iterator, List,
                    Mapping, Optional, Sequence, Set, Tuple)

from ..graphs.network import Network
from .contract import DEFAULT_MAX_ROUNDS, ProcessFactory, RunResult, wakeup_rng
from .errors import CongestViolation, ModelViolation, RoundLimitExceeded
from .message import Envelope, Payload
from .metrics import Metrics
from .models import SYNCHRONOUS, ExecutionModel
from .process import NodeContext, NodeProcess
from .status import Status
from .wakeup import Simultaneous, WakeupModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeline import Timeline
    from ..obs.trace import Tracer

__all__ = ["RoundCore"]


class RoundCore:
    """Round semantics without a transport; see the module docstring.

    Subclasses call ``super().__init__`` with their constructor
    arguments, choose their own buffer, and finish with
    :meth:`_bind_paths`.
    """

    def __init__(self, network: Network, process_factory: ProcessFactory, *,
                 seed: int,
                 knowledge: Optional[Mapping[str, int]],
                 wakeup: Optional[WakeupModel],
                 model: Optional[ExecutionModel],
                 congest_bits: Optional[int],
                 tracer: Optional["Tracer"],
                 watch_edges: Optional[Set[Tuple[int, int]]] = None,
                 record_sends: bool = False) -> None:
        self.network = network
        self.seed = seed
        self.knowledge: Mapping[str, int] = dict(knowledge or {})
        self._congest_bits = congest_bits
        self.metrics = Metrics(watch_edges=watch_edges, record_sends=record_sends)
        #: Lazy-envelope fast path: edge watches and send recording are
        #: the only consumers of per-send Envelope objects.
        self._fast_sends = not record_sends and not watch_edges
        self._tracer = tracer
        self.model = model if model is not None else SYNCHRONOUS
        n = network.num_nodes
        self._processes: List[NodeProcess] = [process_factory() for _ in range(n)]
        self._contexts: List[NodeContext] = [NodeContext(self, i) for i in range(n)]
        self._started: List[bool] = [False] * n

        wake_model = wakeup if wakeup is not None else self.model.wakeup
        if wake_model is None:
            wake_model = Simultaneous()
        self._wake_schedule = wake_model.schedule(n, wakeup_rng(seed))
        self._pending_wakeups: Dict[int, List[int]] = {}
        for i, r in enumerate(self._wake_schedule):
            if r is not None:
                self._pending_wakeups.setdefault(r, []).append(i)
        #: Distinct spontaneous-wakeup rounds, min-heap ordered.
        self._wakeup_heap: List[int] = sorted(self._pending_wakeups)

        # The flat delivery buffer: at Δ = 1 every message in flight is
        # due the round after it was sent, so one ``dst -> [...]`` map
        # plus the scalar round it belongs to is the whole queue.  The
        # simulator stores Delivery objects here, the net runner one
        # booked frame per message.
        self._inboxes: Dict[int, List[Any]] = {}
        self._delivery_round: Optional[int] = None

        self._alarm_heap: List[Tuple[int, int]] = []
        self._alarm_set: Set[Tuple[int, int]] = set()
        self._current_round = 0
        self._ran = False
        self._truncated = False

        # Hot-path views of the network's flat port tables: (dst,
        # dst_port) of a send are two list indexes.
        self._port_table = network.port_table
        self._peer_table = network.peer_port_table

    def _bind_paths(self, record_timeline: bool) -> None:
        """Bind the per-instance variants, innermost first: the modeled
        path, then the CONGEST check, then observability wrapping
        whatever is bound by then."""
        if not self.model.is_synchronous:
            self._init_model_path()
        if self._congest_bits is not None:
            self._init_congest_path(self._congest_bits)
        if self._tracer is not None or record_timeline:
            self._init_obs_path(record_timeline)

    def _init_model_path(self) -> None:
        """Switch this instance onto the general (modeled) path: delays
        in ``[1, Δ]``, loss draws, and the crash-stop heap."""
        mdl = self.model
        n = self.network.num_nodes
        self._delta = mdl.delay.max_delay
        self._delay_policy = mdl.delay
        self._loss = mdl.loss
        #: Delay and loss draws, consumed in send order; reproducible
        #: from (seed, model seed) alone.
        self._model_rng = random.Random(f"model:{self.seed}:{mdl.seed}")
        crash_map = mdl.crash.schedule(
            n, random.Random(f"crash:{self.seed}:{mdl.seed}"))
        self._crash_heap: List[Tuple[int, int]] = sorted(
            (r, node) for node, r in crash_map.items())
        self._crashed: List[bool] = [False] * n
        self._submit_send = self._submit_send_model        # type: ignore[method-assign]
        self._submit_multicast = self._submit_multicast_model  # type: ignore[method-assign]
        self._next_event_round = self._next_event_round_model  # type: ignore[method-assign]
        self._take_round = self._take_round_model          # type: ignore[method-assign]

    def _init_congest_path(self, limit: int) -> None:
        """Check every submission against the CONGEST budget.

        The check wraps whichever submit variants are bound, before
        they buffer or transmit anything, so the first offending
        payload raises on every path; unlimited runs never bind it.
        """
        def check(payload: Payload) -> None:
            size = payload.size_bits()  # memoized; the submit reuses it
            if size > limit:
                raise CongestViolation.over(payload.kind(), size, limit)

        inner_send = self._submit_send
        def send_congest(src: int, port: int, payload: Payload) -> None:
            check(payload)
            inner_send(src, port, payload)
        self._submit_send = send_congest  # type: ignore[method-assign]

        inner_multicast = self._submit_multicast
        def multicast_congest(src: int, ports: Sequence[int],
                              payload: Payload) -> None:
            check(payload)
            inner_multicast(src, ports, payload)
        self._submit_multicast = multicast_congest  # type: ignore[method-assign]

        inner_broadcast = self._submit_broadcast
        def broadcast_congest(src: int, payload: Payload) -> None:
            check(payload)
            inner_broadcast(src, payload)
        self._submit_broadcast = broadcast_congest  # type: ignore[method-assign]

    def _init_obs_path(self, record_timeline: bool) -> None:
        """Wrap the bound methods with observability instrumentation.

        Same rebinding idiom as the model path: the wrappers close over
        whatever variants are already bound, so tracing composes with
        the modeled path and with any backend, and the default untraced
        run never sees a branch.  Instrumentation only *observes* — it
        draws no randomness and reorders nothing, so a traced run is
        bit-identical to the untraced run (enforced by
        tests/test_obs.py).
        """
        tracer = self._tracer
        timeline: Optional["Timeline"] = None
        if record_timeline:
            from ..obs.timeline import Timeline
            timeline = Timeline()
            self.metrics.timeline = timeline
        metrics = self.metrics
        contexts = self._contexts
        #: Messages handed to receivers in the round being executed.
        self._obs_delivered = 0

        inner_prelude = self._round_prelude
        def prelude_obs(r: int, inboxes: Any) -> Tuple[List[int], Set[int]]:
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
            return inner_prelude(r, inboxes)
        self._round_prelude = prelude_obs  # type: ignore[method-assign]

        inner_rounds = self._rounds
        def rounds_obs(max_rounds: Optional[int],
                       raise_on_limit: bool) -> Iterator[int]:
            for r in inner_rounds(max_rounds, raise_on_limit):
                if tracer is not None:
                    tracer.round_begin(r)
                    woken = self._pending_wakeups.get(r)
                    if woken:
                        tracer.wakeup(r, sorted(woken))
                sent0 = metrics.messages
                dropped0 = metrics.messages_dropped
                active0 = metrics.activations
                self._obs_delivered = 0
                yield r
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
        self._rounds = rounds_obs  # type: ignore[method-assign]

        if tracer is not None and self.model.is_synchronous:
            # Send events on the synchronous path wrap the bound submit
            # methods; the model path emits inline instead (the loss
            # draw deciding a drop event happens inside its submits).
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
    # The send family (called by NodeContext).  Every variant hands each
    # surviving message to the backend through one hook, _deliver.
    # ------------------------------------------------------------------
    def _deliver(self, src: int, dst: int, dst_port: int, payload: Payload,
                 delivery_round: int) -> None:
        """Backend hook: one message leaves the core, due at
        ``delivery_round`` on ``dst``'s port ``dst_port``."""
        raise NotImplementedError

    def _submit_send(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()  # memoized; shared with the metrics
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        r = self._current_round
        if self._fast_sends:
            self.metrics.record_send(src, dst, payload.kind(), size, r)
        else:
            self.metrics.on_send(Envelope(
                src=src, dst=dst, dst_port=dst_port, payload=payload,
                sent_round=r))
        self._deliver(src, dst, dst_port, payload, r + 1)
        self._delivery_round = r + 1

    def _submit_multicast(self, src: int, ports: Sequence[int],
                          payload: Payload) -> None:
        """Batched send of one payload over several ports.

        Semantically identical to ``_submit_send`` per port (in the
        given port order) but pays the size computation and the
        metrics update once for the whole fan-out.
        """
        size = payload.size_bits()
        port_row = self._port_table[src]
        peer_row = self._peer_table[src]
        deliver = self._deliver
        r = self._current_round
        dr = r + 1
        if self._fast_sends:
            for port in ports:
                deliver(src, port_row[port], peer_row[port], payload, dr)
            self.metrics.record_broadcast(src, payload.kind(), size,
                                          len(ports))
        else:
            for port in ports:
                dst = port_row[port]
                dst_port = peer_row[port]
                self.metrics.on_send(Envelope(
                    src=src, dst=dst, dst_port=dst_port, payload=payload,
                    sent_round=r))
                deliver(src, dst, dst_port, payload, dr)
        self._delivery_round = dr

    def _submit_broadcast(self, src: int, payload: Payload) -> None:
        """Full fan-out of one payload over every port of ``src``.

        Delegates to whatever :meth:`_submit_multicast` variant is
        bound, preserving the exact per-port submission order of an
        explicit ``ports`` list; the simulator's clique-aggregated
        buffer rebinds this to one record per broadcast.
        """
        self._submit_multicast(src, range(self.network.degree(src)), payload)

    # -- modeled variants: loss, delays in [1, Δ] ------------------------
    def _draw_delivery(self, src: int, dst: int, r: int) -> Optional[int]:
        """One message's loss draw, then (if it survives) its delay
        draw: the delivery round, or ``None`` when the link drops it.

        The sampled delay is hard-checked against ``[1, Δ]`` — a rogue
        :class:`~repro.sim.models.DelayPolicy` returning anything else
        would silently land in another round's ring slot, so it fails
        loudly here instead.
        """
        rng = self._model_rng
        loss = self._loss
        if not loss.is_null and loss.drops(src, dst, r, rng):
            return None
        d = self._delay_policy.sample(src, dst, r, rng)
        if not 1 <= d <= self._delta:
            raise ModelViolation(
                f"delay policy returned {d} for ({src} -> {dst}), "
                f"outside [1, {self._delta}]")
        return r + d

    def _submit_send_model(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        r = self._current_round
        dr = self._draw_delivery(src, dst, r)
        if self._fast_sends:
            # Watches force the envelope path, so no crossing can be
            # misattributed here — this branch only counts.
            self.metrics.record_send(src, dst, payload.kind(), size, r)
        else:
            self.metrics.on_send(Envelope(
                src=src, dst=dst, dst_port=dst_port, payload=payload,
                sent_round=r), crossed=dr is not None)
        tracer = self._tracer
        if tracer is not None:
            tracer.send(r, src, payload.kind(), size, 1, dst=dst)
            if dr is None:
                tracer.drop(r, "loss", 1, src=src, dst=dst)
        if dr is None:
            self.metrics.messages_dropped += 1
            return
        self._deliver(src, dst, dst_port, payload, dr)

    def _submit_multicast_model(self, src: int, ports: Sequence[int],
                                payload: Payload) -> None:
        """Batched fan-out on the general path.

        The size computation is still paid once, but loss and delay
        are drawn per message — each edge of the fan-out is an
        independent link.
        """
        size = payload.size_bits()
        port_row = self._port_table[src]
        peer_row = self._peer_table[src]
        r = self._current_round
        if self._fast_sends:
            self.metrics.record_broadcast(src, payload.kind(), size,
                                          len(ports))
        tracer = self._tracer
        for port in ports:
            dst = port_row[port]
            dst_port = peer_row[port]
            dr = self._draw_delivery(src, dst, r)
            if not self._fast_sends:
                self.metrics.on_send(Envelope(
                    src=src, dst=dst, dst_port=dst_port, payload=payload,
                    sent_round=r), crossed=dr is not None)
            if tracer is not None:
                tracer.send(r, src, payload.kind(), size, 1, dst=dst)
                if dr is None:
                    tracer.drop(r, "loss", 1, src=src, dst=dst)
            if dr is None:
                self.metrics.messages_dropped += 1
                continue
            self._deliver(src, dst, dst_port, payload, dr)

    def _submit_alarm(self, node: int, round_index: int) -> None:
        key = (round_index, node)
        if key not in self._alarm_set:
            self._alarm_set.add(key)
            heapq.heappush(self._alarm_heap, key)

    def _note_activity(self, round_index: int) -> None:
        self.metrics.on_activity(round_index)

    # ------------------------------------------------------------------
    # The event queue
    # ------------------------------------------------------------------
    def _next_event_round(self) -> Optional[int]:
        # Alarms belonging to halted nodes can never cause activity;
        # discard them so they don't keep an otherwise-finished run
        # alive (e.g. the never-taken 2^ID steps of destroyed Theorem
        # 4.1 agents).
        heap = self._alarm_heap
        contexts = self._contexts
        while heap and contexts[heap[0][1]]._halted:
            key = heapq.heappop(heap)
            self._alarm_set.discard(key)
        # O(1) peeks at the three monotone event sources.
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

    def _earliest_delivery(self) -> Optional[int]:
        """The earliest delivery round in flight on the modeled path:
        the flat buffer's (Δ = 1); the simulator's Δ-ring overrides."""
        return self._delivery_round

    def _next_event_round_model(self) -> Optional[int]:
        """General-path event queue: the earliest delivery in flight
        plus alarm/wakeup heap peeks, plus the pending crash rounds.

        Crash rounds are event rounds *while alarms or spontaneous
        wakeups are pending*: applying a crash at its scheduled round
        halts the victim and thereby prunes its alarms and its unspent
        wakeup — a crashed node's far-future alarm or wakeup must not
        keep an otherwise quiescent run alive.  With neither pending,
        lazy application suffices (deliveries apply due crashes at
        their own rounds), so a crash scheduled past quiescence
        neither truncates the run nor executes empty rounds.
        """
        heap = self._alarm_heap
        contexts = self._contexts
        while heap and contexts[heap[0][1]]._halted:
            key = heapq.heappop(heap)
            self._alarm_set.discard(key)
        # Discard wakeup rounds owed entirely to halted (e.g. crashed)
        # nodes — they can never cause activity.
        wakeups = self._wakeup_heap
        pending = self._pending_wakeups
        while wakeups:
            r0 = wakeups[0]
            nodes = pending.get(r0)
            if nodes and not all(contexts[i]._halted for i in nodes):
                break
            heapq.heappop(wakeups)
            pending.pop(r0, None)
        best = self._earliest_delivery()
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
    # Round execution: take the due buffer, settle crashes, drain the
    # timers, and hand the active set to the backend's activation loop.
    # ------------------------------------------------------------------
    def _take_round(self, r: int) -> Dict[int, List[Any]]:
        """The flat buffer's entries due at ``r``; a fresh buffer takes
        the sends made *during* ``r`` (they target ``r + 1``)."""
        if self._delivery_round != r:
            return {}
        inboxes = self._inboxes
        self._inboxes = {}
        self._delivery_round = None
        return inboxes

    #: Where the modeled path takes a round's due entries from before
    #: settling crashes: the flat buffer (Δ = 1) unless overridden, as
    #: the simulator does with its Δ-ring.
    _take_due = _take_round

    def _take_round_model(self, r: int) -> Dict[int, List[Any]]:
        """Modeled round start: take the due entries, fire due crashes,
        and account what is delivered versus dropped.

        Crash-stop faults due by now fire before anything else in the
        round: a node crashed at round c performs no action at c or
        later, and deliveries addressed to it die with it.
        """
        inboxes = self._take_due(r)
        delivered = sum(map(len, inboxes.values()))
        crash_heap = self._crash_heap
        tracer = self._tracer
        metrics = self.metrics
        if crash_heap:
            contexts = self._contexts
            while crash_heap and crash_heap[0][0] <= r:
                _, node = heapq.heappop(crash_heap)
                contexts[node]._crash()
                self._crashed[node] = True
                metrics.crashed_nodes.append(node)
                if tracer is not None:
                    tracer.crash(r, node)
                self._kill_node(node)
        if inboxes and metrics.crashed_nodes:
            crashed = self._crashed
            for idx in [i for i in inboxes if crashed[i]]:
                dead = len(inboxes.pop(idx))
                delivered -= dead
                metrics.messages_dropped += dead
                if tracer is not None:
                    tracer.drop(r, "crash", dead, dst=idx)
        metrics.messages_delivered += delivered
        return inboxes

    def _kill_node(self, node: int) -> None:
        """Backend hook for a crash that just fired (the core has
        already halted the node); in-memory backends need nothing."""

    def _round_prelude(self, r: int, inboxes: Collection[int]
                       ) -> Tuple[List[int], Set[int]]:
        """Drain due wakeups and alarms; return the sorted active set
        and the nodes whose alarm fired.

        ``inboxes`` holds the round's receivers (a ``dst -> inbox``
        map, or any iterable of node indexes for a lazily expanded
        buffer).  Message deliveries mark activity even if receivers
        are halted; activations count every active node.  The backend's
        activation loop then runs each non-halted node in ascending
        index order, wakeup code before inbox (Theorem 4.1's wakeup
        phase relies on that ordering).
        """
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
            active = sorted(set(woken).union(inboxes, fired))
        else:
            active = sorted(inboxes)
        if inboxes:
            self.metrics.on_activity(r)
        self.metrics.activations += len(active)
        return active, fired

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._ran:
            raise RuntimeError(f"{type(self).__name__} instances are single-use")
        self._ran = True

    def _rounds(self, max_rounds: Optional[int],
                raise_on_limit: bool) -> Iterator[int]:
        """Yield each event round in order; the caller executes it
        before resuming.  Stops at quiescence — no messages in flight,
        no pending alarms, no future spontaneous wakeups, so by
        induction nothing can ever happen again — or past
        ``max_rounds``."""
        limit = max_rounds if max_rounds is not None else DEFAULT_MAX_ROUNDS
        metrics = self.metrics
        tracer = self._tracer
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
                self._truncated = True
                if raise_on_limit:
                    raise RoundLimitExceeded(limit)
                break
            self._current_round = next_round
            yield next_round
            metrics.rounds_executed += 1

        if self.model.is_synchronous:
            # Fast-path delivered accounting, settled once instead of
            # per send: without loss or crashes every sent message is
            # delivered except those still buffered at truncation.
            metrics.messages_delivered = (metrics.messages
                                          - self._pending_deliveries())
        if tracer is not None:
            tracer.run_end(self._truncated, metrics.summary())

    def _pending_deliveries(self) -> int:
        """Messages still buffered when the run stops."""
        return sum(map(len, self._inboxes.values()))

    def _result(self) -> RunResult:
        return RunResult(
            network=self.network,
            statuses=[ctx.status for ctx in self._contexts],
            outputs=[ctx.output for ctx in self._contexts],
            metrics=self.metrics,
            truncated=self._truncated,
            wake_schedule=list(self._wake_schedule),
        )
