"""The synchronous round scheduler.

Implements the model of Section 2: computation proceeds in synchronous
rounds; in every round each awake node may send at most one message per
incident edge, receives the messages its neighbors sent in the previous
round, and performs local computation.

The scheduler is *event-driven over rounds*: it maintains the set of
future event rounds (message deliveries, alarms, spontaneous wakeups) and
jumps directly from one event round to the next.  Semantically this is
identical to executing every intermediate round — nothing can happen in a
round with no deliveries, no alarms, and no wakeups — but it makes runs
whose span is exponential (Theorem 4.1: the agent with smallest ID ``i``
finishes around round ``2m · 2^i``) run in time proportional to the
number of *events*, not rounds.

Hot-path design (the paper's claims are scaling statements, so sweep
throughput at large n is the binding constraint):

* **O(1) event queue.**  Messages always deliver exactly one round
  ahead, so in-flight traffic is one flat ``node -> inbox`` map plus a
  single ``_delivery_round`` scalar; alarms and spontaneous wakeups
  each sit in a min-heap.  Finding the next event round peeks at three
  monotone sources — no dict scans proportional to the number of
  buffered rounds.
* **Lazy envelopes.**  An :class:`Envelope` is materialized only when
  the run records its send log; otherwise sends are accounted straight
  into :class:`Metrics` from ``(src, dst, kind, size)`` scalars, with
  payload sizes memoized per instance.
* **Flat port tables.**  ``(dst, dst_port)`` of a send resolve through
  the network's precomputed ``port_table``/``peer_port_table`` — two
  list indexes, no method calls or reverse-dict lookups.
* **Batched broadcast.**  :meth:`NodeContext.broadcast` (and
  ``multicast``) submit all ports of one payload in a single call:
  one CONGEST check, one size computation, one bulk metrics update.

Execution models (:mod:`repro.sim.models`) generalize the delivery
rule: the default :class:`~repro.sim.models.SynchronousModel` (Δ = 1,
no faults) keeps the flat-buffer fast path above bit for bit, while any
other model swaps in a *general path* at construction time — a ring of
``Δ`` delivery buffers indexed by ``delivery_round mod Δ`` (delivery
rounds in flight always lie in the half-open window ``(r, r + Δ]``, so
the ring never collides), per-message loss draws, and a crash-stop heap
applied at the start of each executed round.  The swap is done by
rebinding the four hot methods as instance attributes, so the default
path pays no per-send model branch.
"""

from __future__ import annotations

import heapq
import random
from typing import (TYPE_CHECKING, Dict, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..graphs.network import Network
from .contract import DEFAULT_MAX_ROUNDS, ProcessFactory, RunResult, wakeup_rng
from .errors import CongestViolation, ModelViolation, RoundLimitExceeded
from .message import Envelope, Payload
from .metrics import Metrics
from .models import SYNCHRONOUS, ExecutionModel
from .process import Delivery, NodeContext, NodeProcess
from .status import Status
from .wakeup import Simultaneous, WakeupModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeline import Timeline
    from ..obs.trace import Tracer

__all__ = ["DEFAULT_MAX_ROUNDS", "ProcessFactory", "RunResult", "Simulator"]


class Simulator:
    """Runs one algorithm instance per node of a :class:`Network`.

    Parameters
    ----------
    network:
        The concrete network (topology + IDs + ports).
    process_factory:
        Zero-argument callable returning a fresh :class:`NodeProcess`
        per node (e.g. ``lambda: LeastElementElection()``).
    seed:
        Master seed deriving all per-node private coins and the wakeup
        schedule; identical seeds reproduce runs exactly.
    knowledge:
        Mapping of global parameters granted to every node, e.g.
        ``{"n": 100}`` or ``{"n": 100, "D": 12}`` (Table 1's
        "Knowledge" column).  Algorithms read it via ``ctx.knowledge``.
    wakeup:
        Wakeup model; defaults to the model's wakeup, then simultaneous
        wakeup.  An explicit argument overrides the execution model's.
    model:
        :class:`~repro.sim.models.ExecutionModel` configuring message
        delays, crash-stop faults, and message loss.  ``None`` (the
        default) is the paper's synchronous fault-free model and keeps
        the flat-buffer fast path.
    watch_edges:
        Edges whose first crossing should be recorded (bridge-crossing
        experiments, Section 3.1).
    congest_bits:
        When set, any payload larger than this many bits raises
        :class:`CongestViolation` — used to certify that the CONGEST
        algorithms really ship O(log n)-bit messages.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving structured
        events (round begin/end, sends, deliveries, drops, crashes,
        wakeups, status transitions).  ``None`` (the default) is the
        zero-overhead null path: no tracing code is bound at all, so
        the hot paths above stay bit-for-bit and branch-free.  Tracing
        never perturbs a run — a traced run's metrics and outcome are
        identical to the untraced run with the same seeds.
    timeline:
        Record a per-round time series
        (:class:`~repro.obs.timeline.Timeline`) of messages sent /
        delivered / dropped and the node-status census, surfaced as
        ``RunResult.timeline``.  Off by default for the same reason.
    """

    def __init__(self, network: Network, process_factory: ProcessFactory, *,
                 seed: int = 0,
                 knowledge: Optional[Mapping[str, int]] = None,
                 wakeup: Optional[WakeupModel] = None,
                 model: Optional[ExecutionModel] = None,
                 watch_edges: Optional[Set[Tuple[int, int]]] = None,
                 record_sends: bool = False,
                 congest_bits: Optional[int] = None,
                 tracer: Optional["Tracer"] = None,
                 timeline: bool = False) -> None:
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
        wake_rng = wakeup_rng(seed)
        self._wake_schedule = wake_model.schedule(n, wake_rng)
        self._pending_wakeups: Dict[int, List[int]] = {}
        for i, r in enumerate(self._wake_schedule):
            if r is not None:
                self._pending_wakeups.setdefault(r, []).append(i)
        #: Distinct spontaneous-wakeup rounds, min-heap ordered.
        self._wakeup_heap: List[int] = sorted(self._pending_wakeups)

        # Flat delivery buffers: under the synchronous model messages
        # always deliver exactly one round after they are sent, so a
        # single node->inbox map plus the scalar round it belongs to
        # replaces the old nested Dict[round, Dict[node, List[Delivery]]].
        self._inboxes: Dict[int, List[Delivery]] = {}
        self._delivery_round: Optional[int] = None

        self._alarm_heap: List[Tuple[int, int]] = []
        self._alarm_set: Set[Tuple[int, int]] = set()
        self._current_round = 0
        self._ran = False

        # Hot-path views of the network's flat port tables.
        self._port_table = network.port_table
        self._peer_table = network.peer_port_table

        # Broadcast aggregation (complete graphs, default model): a full
        # broadcast is buffered as one (src, payload) record instead of
        # deg(src) inbox appends, and receivers' inboxes are expanded
        # lazily one node at a time during dispatch.  On a clique this
        # halves per-message work and caps buffered delivery state at
        # O(n) records instead of O(n^2) Delivery objects.
        # Observed runs take the plain path: per-receiver deliver counts
        # require expanded inboxes, and plain == aggregated is already
        # bit-identical (test_implicit.py), so nothing observable moves.
        self._aggregate = (self.model.is_synchronous and self._fast_sends
                           and tracer is None and not timeline
                           and bool(getattr(network.topology, "is_complete",
                                            False)))
        if self._aggregate:
            self._init_aggregated_path()
        elif not self.model.is_synchronous:
            self._init_model_path(n)
        if tracer is not None or timeline:
            self._init_obs_path(timeline)

    def _init_aggregated_path(self) -> None:
        """Switch this instance onto the clique broadcast-aggregation path.

        Like :meth:`_init_model_path`, the hot methods are rebound as
        instance attributes so the plain fast path stays branch-free.
        Point sends carry a *mark* (the number of broadcast records
        buffered at submission time) so lazy expansion can interleave
        broadcast-derived deliveries with point deliveries in exact
        submission order — the golden parity suite holds bit for bit.
        """
        #: dst -> ([Delivery, ...], [mark, ...]) for point/partial sends.
        self._point_box: Dict[int, Tuple[List[Delivery], List[int]]] = {}
        #: One (src, payload) record per full broadcast, in send order.
        self._bcast_records: List[Tuple[int, Payload]] = []
        self._submit_send = self._submit_send_agg            # type: ignore[method-assign]
        self._submit_multicast = self._submit_multicast_agg  # type: ignore[method-assign]
        self._submit_broadcast = self._submit_broadcast_agg  # type: ignore[method-assign]
        self._execute_round = self._execute_round_agg        # type: ignore[method-assign]

    def _init_model_path(self, n: int) -> None:
        """Switch this instance onto the general (modeled) path.

        The four hot methods are rebound as instance attributes, so the
        default synchronous path keeps its flat buffers with zero added
        branches while modeled runs get the ring buffer, loss draws,
        and the crash heap.
        """
        mdl = self.model
        self._delta = mdl.delay.max_delay
        self._delay_policy = mdl.delay
        self._loss = mdl.loss
        #: Delay and loss draws, consumed in send order; reproducible
        #: from (simulator seed, model seed) alone.
        self._model_rng = random.Random(f"model:{self.seed}:{mdl.seed}")
        crash_map = mdl.crash.schedule(
            n, random.Random(f"crash:{self.seed}:{mdl.seed}"))
        self._crash_heap: List[Tuple[int, int]] = sorted(
            (r, node) for node, r in crash_map.items())
        self._crashed: List[bool] = [False] * n
        #: Ring of Δ delivery buffers, slot = delivery_round mod Δ; each
        #: occupied slot is ``[round, {dst: [Delivery, ...]}, count]``.
        #: Delivery rounds in flight always lie in (current, current+Δ],
        #: a window of Δ distinct values, so slots never collide.
        self._ring: List[Optional[list]] = [None] * self._delta
        self._submit_send = self._submit_send_model        # type: ignore[method-assign]
        self._submit_multicast = self._submit_multicast_model  # type: ignore[method-assign]
        self._next_event_round = self._next_event_round_model  # type: ignore[method-assign]
        self._execute_round = self._execute_round_model    # type: ignore[method-assign]

    def _init_obs_path(self, record_timeline: bool) -> None:
        """Wrap the bound hot methods with observability instrumentation.

        Same rebinding idiom as the model path: the wrappers close over
        whatever `_execute_round`/`_dispatch_round`/submit variants are
        already bound, so tracing composes with the general (modeled)
        path, and the default untraced simulator never sees a branch.
        Instrumentation only *observes* — it draws no randomness and
        reorders nothing, so a traced run is bit-identical to the
        untraced run (enforced by tests/test_obs.py).
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

        inner_dispatch = self._dispatch_round
        def dispatch_obs(r: int, inboxes: Dict[int, List[Delivery]]) -> None:
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
            inner_dispatch(r, inboxes)
        self._dispatch_round = dispatch_obs  # type: ignore[method-assign]

        inner_execute = self._execute_round
        def execute_obs(r: int) -> None:
            if tracer is not None:
                tracer.round_begin(r)
                woken = self._pending_wakeups.get(r)
                if woken:
                    tracer.wakeup(r, sorted(woken))
            sent0 = metrics.messages
            dropped0 = metrics.messages_dropped
            active0 = metrics.activations
            self._obs_delivered = 0
            inner_execute(r)
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
    # Hooks used by NodeContext
    # ------------------------------------------------------------------
    def _submit_send(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()  # memoized; shared with the metrics
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        if self._fast_sends:
            self.metrics.record_send(src, dst, payload.kind(), size,
                                     self._current_round)
        else:
            self.metrics.on_send(Envelope(
                src=src, dst=dst, dst_port=dst_port, payload=payload,
                sent_round=self._current_round))
        inboxes = self._inboxes
        box = inboxes.get(dst)
        if box is None:
            box = inboxes[dst] = []
        box.append(Delivery(dst_port, payload))
        self._delivery_round = self._current_round + 1

    def _submit_multicast(self, src: int, ports: Sequence[int],
                          payload: Payload) -> None:
        """Batched send of one payload over several ports.

        Semantically identical to ``_submit_send`` per port (in the
        given port order) but pays the CONGEST check, size computation,
        and metrics update once for the whole fan-out.
        """
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        port_row = self._port_table[src]
        peer_row = self._peer_table[src]
        inboxes = self._inboxes
        if self._fast_sends:
            for port in ports:
                dst = port_row[port]
                box = inboxes.get(dst)
                if box is None:
                    box = inboxes[dst] = []
                box.append(Delivery(peer_row[port], payload))
            self.metrics.record_broadcast(src, payload.kind(), size,
                                          len(ports))
        else:
            sent_round = self._current_round
            for port in ports:
                dst = port_row[port]
                dst_port = peer_row[port]
                self.metrics.on_send(Envelope(
                    src=src, dst=dst, dst_port=dst_port, payload=payload,
                    sent_round=sent_round))
                box = inboxes.get(dst)
                if box is None:
                    box = inboxes[dst] = []
                box.append(Delivery(dst_port, payload))
        self._delivery_round = self._current_round + 1

    def _submit_broadcast(self, src: int, payload: Payload) -> None:
        """Full fan-out of one payload over every port of ``src``.

        The default implementation delegates to :meth:`_submit_multicast`
        (whatever variant the execution model bound), preserving the
        exact per-port submission order of an explicit ``ports`` list;
        the aggregated path rebinds this to record-keeping.
        """
        self._submit_multicast(src, range(self.network.degree(src)), payload)

    # ------------------------------------------------------------------
    # Aggregated path (complete graphs, default model): full broadcasts
    # are buffered as one record each; receivers' inboxes are expanded
    # lazily during dispatch.  Bound over the fast-path methods by
    # _init_aggregated_path.
    # ------------------------------------------------------------------
    def _submit_send_agg(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        self.metrics.record_send(src, dst, payload.kind(), size,
                                 self._current_round)
        entry = self._point_box.get(dst)
        if entry is None:
            entry = self._point_box[dst] = ([], [])
        entry[0].append(Delivery(dst_port, payload))
        entry[1].append(len(self._bcast_records))
        self._delivery_round = self._current_round + 1

    def _submit_multicast_agg(self, src: int, ports: Sequence[int],
                              payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        count = len(ports)
        if count == self.network.degree(src):
            # All ports (claim_ports guarantees distinctness): this is a
            # full broadcast regardless of port order — one record.
            self._bcast_records.append((src, payload))
        else:
            port_row = self._port_table[src]
            peer_row = self._peer_table[src]
            box = self._point_box
            mark = len(self._bcast_records)
            for port in ports:
                dst = port_row[port]
                entry = box.get(dst)
                if entry is None:
                    entry = box[dst] = ([], [])
                entry[0].append(Delivery(peer_row[port], payload))
                entry[1].append(mark)
        self.metrics.record_broadcast(src, payload.kind(), size, count)
        self._delivery_round = self._current_round + 1

    def _submit_broadcast_agg(self, src: int, payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        self._bcast_records.append((src, payload))
        self.metrics.record_broadcast(src, payload.kind(), size,
                                      self.network.degree(src))
        self._delivery_round = self._current_round + 1

    # ------------------------------------------------------------------
    # General (modeled) path: delays in [1, Δ], loss, crash-stop faults.
    # Bound over the fast-path methods by _init_model_path.
    # ------------------------------------------------------------------
    def _draw_loss(self, src: int, dst: int, r: int) -> bool:
        """One loss decision for a message on (src → dst) sent at ``r``."""
        loss = self._loss
        return not loss.is_null and loss.drops(src, dst, r, self._model_rng)

    def _buffer_delivery(self, src: int, dst: int, dst_port: int,
                         payload: Payload, r: int) -> None:
        """Draw one message's delay and insert it into the delivery ring.

        The sampled delay is hard-checked against ``[1, Δ]`` — a rogue
        :class:`~repro.sim.models.DelayPolicy` returning anything else
        would silently land in another round's ring slot, so it fails
        loudly here instead.  Within the bound, delivery rounds in
        flight all lie in ``(r, r + Δ]``, so slots never collide.
        """
        delta = self._delta
        d = self._delay_policy.sample(src, dst, r, self._model_rng)
        if not 1 <= d <= delta:
            raise ModelViolation(
                f"delay policy returned {d} for ({src} -> {dst}), "
                f"outside [1, {delta}]")
        dr = r + d
        slot = self._ring[dr % delta]
        if slot is None:
            slot = self._ring[dr % delta] = [dr, {}, 0]
        box = slot[1].get(dst)
        if box is None:
            box = slot[1][dst] = []
        box.append(Delivery(dst_port, payload))
        slot[2] += 1

    def _submit_send_model(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        r = self._current_round
        lost = self._draw_loss(src, dst, r)
        if self._fast_sends:
            # Watches force the envelope path, so no crossing can be
            # misattributed here — this branch only counts.
            self.metrics.record_send(src, dst, payload.kind(), size, r)
        else:
            self.metrics.on_send(Envelope(
                src=src, dst=dst, dst_port=dst_port, payload=payload,
                sent_round=r), crossed=not lost)
        tracer = self._tracer
        if tracer is not None:
            tracer.send(r, src, payload.kind(), size, 1, dst=dst)
            if lost:
                tracer.drop(r, "loss", 1, src=src, dst=dst)
        if lost:
            self.metrics.messages_dropped += 1
            return
        self._buffer_delivery(src, dst, dst_port, payload, r)

    def _submit_multicast_model(self, src: int, ports: Sequence[int],
                                payload: Payload) -> None:
        """Batched fan-out on the general path.

        The CONGEST check and size computation are still paid once, but
        loss and delay are drawn per message — each edge of the fan-out
        is an independent link.
        """
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation.over(payload.kind(), size,
                                        self._congest_bits)
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
            lost = self._draw_loss(src, dst, r)
            if not self._fast_sends:
                self.metrics.on_send(Envelope(
                    src=src, dst=dst, dst_port=dst_port, payload=payload,
                    sent_round=r), crossed=not lost)
            if tracer is not None:
                tracer.send(r, src, payload.kind(), size, 1, dst=dst)
                if lost:
                    tracer.drop(r, "loss", 1, src=src, dst=dst)
            if lost:
                self.metrics.messages_dropped += 1
                continue
            self._buffer_delivery(src, dst, dst_port, payload, r)

    def _submit_alarm(self, node: int, round_index: int) -> None:
        key = (round_index, node)
        if key not in self._alarm_set:
            self._alarm_set.add(key)
            heapq.heappush(self._alarm_heap, key)

    def _note_activity(self, round_index: int) -> None:
        self.metrics.on_activity(round_index)

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

    def _next_event_round_model(self) -> Optional[int]:
        """General-path event queue: O(Δ) scan of the delivery ring
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
        best: Optional[int] = None
        for slot in self._ring:
            if slot is not None:
                r = slot[0]
                if best is None or r < best:
                    best = r
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

    def run(self, max_rounds: Optional[int] = None, *,
            raise_on_limit: bool = False) -> RunResult:
        """Execute until quiescence (or ``max_rounds``) and return the result.

        Quiescence means: no messages in flight, no pending alarms, no
        future spontaneous wakeups — by induction nothing can ever happen
        again, so the run's outcome is final.
        """
        if self._ran:
            raise RuntimeError("Simulator instances are single-use")
        self._ran = True
        limit = max_rounds if max_rounds is not None else DEFAULT_MAX_ROUNDS
        truncated = False
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
                truncated = True
                if raise_on_limit:
                    raise RoundLimitExceeded(limit)
                break
            self._current_round = next_round
            self._execute_round(next_round)
            self.metrics.rounds_executed += 1

        if self.model.is_synchronous:
            # Fast-path delivered accounting, settled once instead of
            # per send: without loss or crashes every sent message is
            # delivered except those still buffered at truncation.
            if self._aggregate:
                degree = self.network.degree
                pending = (sum(len(e[0]) for e in self._point_box.values())
                           + sum(degree(src)
                                 for src, _ in self._bcast_records))
            else:
                pending = sum(map(len, self._inboxes.values()))
            self.metrics.messages_delivered = self.metrics.messages - pending

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

    # ------------------------------------------------------------------
    def _execute_round(self, r: int) -> None:
        if self._delivery_round == r:
            inboxes = self._inboxes
            # Fresh buffer: sends made *during* this round target r + 1.
            self._inboxes = {}
            self._delivery_round = None
        else:
            inboxes = {}
        self._dispatch_round(r, inboxes)

    def _execute_round_agg(self, r: int) -> None:
        """Aggregated-path round: hand the point box + broadcast records
        to the lazy dispatcher; fresh buffers for sends made during r."""
        if self._delivery_round == r:
            points = self._point_box
            records = self._bcast_records
            self._point_box = {}
            self._bcast_records = []
            self._delivery_round = None
        else:
            points = {}
            records = []
        self._dispatch_round_agg(r, points, records)

    def _execute_round_model(self, r: int) -> None:
        """General-path round: ring-slot delivery, crash application,
        dropped-message accounting; activations then dispatch exactly
        as on the fast path."""
        ring = self._ring
        slot = ring[r % self._delta]
        if slot is not None and slot[0] == r:
            inboxes = slot[1]
            delivered = slot[2]
            ring[r % self._delta] = None
        else:
            inboxes = {}
            delivered = 0

        # Crash-stop faults due by now fire before anything else in the
        # round: a node crashed at round c performs no action at c or
        # later, and deliveries addressed to it die with it.
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
        if inboxes and self.metrics.crashed_nodes:
            crashed = self._crashed
            for idx in [i for i in inboxes if crashed[i]]:
                dead = len(inboxes.pop(idx))
                delivered -= dead
                self.metrics.messages_dropped += dead
                if tracer is not None:
                    tracer.drop(r, "crash", dead, dst=idx)
        self.metrics.messages_delivered += delivered
        self._dispatch_round(r, inboxes)

    def _dispatch_round(self, r: int, inboxes: Dict[int, List[Delivery]]) -> None:
        """Shared tail of both round executors: drain due wakeups and
        alarms, compute the active set, and run the activation loop.
        Keeping this in one place pins the activation ordering (wakeup
        code before inbox — Theorem 4.1's wakeup phase relies on it)
        for the fast and modeled paths alike."""
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
            # Message deliveries mark activity even if receivers are halted.
            self.metrics.on_activity(r)
        self.metrics.activations += len(active)

        contexts = self._contexts
        processes = self._processes
        started = self._started
        for idx in active:
            ctx = contexts[idx]
            if ctx._halted:
                continue
            ctx._round = r
            if ctx._outbox:
                ctx._flush_outbox()
            inbox = inboxes.get(idx, [])
            if not started[idx]:
                # A sleeping node woken by a message runs its wakeup code
                # before processing the inbox (Theorem 4.1's wakeup phase
                # relies on this ordering).
                started[idx] = True
                self.metrics.on_activity(r)
                processes[idx].on_start(ctx)
            if inbox or idx in fired:
                processes[idx].on_round(ctx, inbox)

    def _dispatch_round_agg(self, r: int,
                            points: Dict[int, Tuple[List[Delivery], List[int]]],
                            records: List[Tuple[int, Payload]]) -> None:
        """Aggregated-path dispatcher: same activation semantics and
        ordering as :meth:`_dispatch_round`, but each receiver's inbox
        is expanded from the broadcast records *on demand*, right before
        its activation, and discarded after — peak delivery state is one
        inbox plus the records, never the full O(Σ deg) expansion.

        On a clique, one broadcast record reaches every node but its
        sender, so with two or more distinct senders the active set is
        all of V; with one sender it is V minus that sender (unless a
        point send, wakeup, or alarm targets it too).
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

        n = self.network.num_nodes
        skip: Optional[int] = None
        if records:
            srcs = {src for src, _ in records}
            if len(srcs) == 1:
                (sole,) = srcs
                if (sole not in points and sole not in fired
                        and sole not in woken):
                    skip = sole
            active: Sequence[int] = range(n)
            count = n - (skip is not None)
        else:
            if woken or fired:
                active = sorted(set(woken) | points.keys() | fired)
            else:
                active = sorted(points)
            count = len(active)
        if points or records:
            # Message deliveries mark activity even if receivers are halted.
            self.metrics.on_activity(r)
        self.metrics.activations += count

        contexts = self._contexts
        processes = self._processes
        started = self._started
        expand = self.network.expand_broadcasts
        for idx in active:
            if idx == skip:
                continue
            ctx = contexts[idx]
            if ctx._halted:
                continue
            ctx._round = r
            if ctx._outbox:
                ctx._flush_outbox()
            entry = points.get(idx)
            if records:
                if entry is None:
                    inbox = expand(idx, records, Delivery)
                else:
                    inbox = self._merge_inbox(idx, entry, records)
            else:
                inbox = entry[0] if entry is not None else []
            if not started[idx]:
                # A sleeping node woken by a message runs its wakeup code
                # before processing the inbox (Theorem 4.1's wakeup phase
                # relies on this ordering).
                started[idx] = True
                self.metrics.on_activity(r)
                processes[idx].on_start(ctx)
            if inbox or idx in fired:
                processes[idx].on_round(ctx, inbox)

    def _merge_inbox(self, idx: int,
                     entry: Tuple[List[Delivery], List[int]],
                     records: List[Tuple[int, Payload]]) -> List[Delivery]:
        """Interleave one receiver's point deliveries with its broadcast
        expansions by submission order.

        ``entry`` holds the point deliveries plus, per delivery, the
        number of broadcast records buffered when it was submitted — a
        point delivery with mark ``k`` was sent after records
        ``0 .. k-1`` and before record ``k``.
        """
        pts, marks = entry
        inbound = self.network.inbound_ports(idx)
        out: List[Delivery] = []
        pi = 0
        npts = len(pts)
        for ri, (src, payload) in enumerate(records):
            while pi < npts and marks[pi] <= ri:
                out.append(pts[pi])
                pi += 1
            if src != idx:
                out.append(Delivery(inbound[src], payload))
        if pi < npts:
            out.extend(pts[pi:])
        return out

    # ------------------------------------------------------------------
    # Introspection helpers (tests / experiments)
    # ------------------------------------------------------------------
    @property
    def processes(self) -> Sequence[NodeProcess]:
        return self._processes

    @property
    def contexts(self) -> Sequence[NodeContext]:
        return self._contexts
