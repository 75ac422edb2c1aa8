"""The event-loop backend: the round core over in-memory buffers.

:class:`Simulator` inherits every rule of the Section 2 model from
:class:`~repro.sim.rounds.RoundCore` (event-round selection, timers,
sends, loss/delay draws, crash settlement, CONGEST, observability, the
run loop) and supplies only where in-flight messages wait and how a
round's inboxes reach the processes.  It picks one of three delivery
buffers per instance:

* **Flat (Δ = 1, the default).**  Messages always deliver exactly one
  round ahead, so traffic in flight is the core's ``node -> inbox`` map
  plus one ``_delivery_round`` scalar; finding the next event round
  peeks at three monotone sources, with no scans proportional to the
  number of buffered rounds.
* **Δ-ring (any other execution model).**  A ring of ``Δ`` buffers
  indexed by ``delivery_round mod Δ``: delivery rounds in flight always
  lie in the half-open window ``(r, r + Δ]``, so slots never collide.
* **Clique-aggregated (complete graphs, default model, unobserved).**
  A full broadcast is buffered as one ``(src, payload)`` record instead
  of ``deg(src)`` inbox appends, and each receiver's inbox is expanded
  lazily right before its activation — peak delivery state is one inbox
  plus the records, never the O(Σ deg) expansion.

One activation loop (:meth:`Simulator._activate`) serves all three; the
buffer only decides how a receiver's inbox is looked up.  Sends are
accounted straight into :class:`Metrics` from scalars (an
:class:`Envelope` is built only when the run records its send log), and
payload sizes are memoized per instance.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from ..graphs.network import Network
from .contract import DEFAULT_MAX_ROUNDS, ProcessFactory, RunResult
from .message import Payload
from .models import ExecutionModel
from .process import Delivery, NodeContext, NodeProcess
from .rounds import RoundCore
from .wakeup import WakeupModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Tracer

__all__ = ["DEFAULT_MAX_ROUNDS", "ProcessFactory", "RunResult", "Simulator"]


class Simulator(RoundCore):
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
        super().__init__(network, process_factory, seed=seed,
                         knowledge=knowledge, wakeup=wakeup, model=model,
                         congest_bits=congest_bits, tracer=tracer,
                         watch_edges=watch_edges, record_sends=record_sends)
        # Broadcast aggregation (complete graphs, default model): on a
        # clique it halves per-message work and caps buffered delivery
        # state at O(n) records instead of O(n^2) Delivery objects.
        # Observed runs take the flat buffer: per-receiver deliver
        # counts require expanded inboxes, and flat == aggregated is
        # already bit-identical (test_implicit.py), so nothing
        # observable moves.
        self._aggregate = (self.model.is_synchronous and self._fast_sends
                           and tracer is None and not timeline
                           and bool(getattr(network.topology, "is_complete",
                                            False)))
        if self._aggregate:
            self._init_aggregated_path()
        self._bind_paths(timeline)

    def _init_aggregated_path(self) -> None:
        """Switch this instance onto the clique broadcast-aggregation path.

        Like the modeled path, the hot methods are rebound as instance
        attributes so the flat fast path stays branch-free.  Point sends
        carry a *mark* (the number of broadcast records buffered at
        submission time) so lazy expansion can interleave
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

    def _init_model_path(self) -> None:
        super()._init_model_path()
        #: Ring of Δ delivery buffers, slot = delivery_round mod Δ; each
        #: occupied slot is ``(round, {dst: [Delivery, ...]})``.
        self._ring: List[Optional[Tuple[int, Dict[int, List[Delivery]]]]] = (
            [None] * self._delta)
        self._deliver = self._deliver_ring  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Flat and ring buffers
    # ------------------------------------------------------------------
    def _deliver(self, src: int, dst: int, dst_port: int, payload: Payload,
                 delivery_round: int) -> None:
        inboxes = self._inboxes
        box = inboxes.get(dst)
        if box is None:
            box = inboxes[dst] = []
        box.append(Delivery(dst_port, payload))

    def _deliver_ring(self, src: int, dst: int, dst_port: int,
                      payload: Payload, delivery_round: int) -> None:
        """Insert one message into its ring slot.  The core has checked
        its delay against ``[1, Δ]``, so delivery rounds in flight all
        lie in ``(r, r + Δ]`` and slots never collide."""
        ring = self._ring
        i = delivery_round % self._delta
        slot = ring[i]
        if slot is None:
            slot = ring[i] = (delivery_round, {})
        box = slot[1].get(dst)
        if box is None:
            box = slot[1][dst] = []
        box.append(Delivery(dst_port, payload))

    def _take_due(self, r: int) -> Dict[int, List[Delivery]]:
        i = r % self._delta
        slot = self._ring[i]
        if slot is None or slot[0] != r:
            return {}
        self._ring[i] = None
        return slot[1]

    def _earliest_delivery(self) -> Optional[int]:
        rounds = [slot[0] for slot in self._ring if slot is not None]
        return min(rounds) if rounds else None

    # ------------------------------------------------------------------
    # Clique-aggregated buffer: full broadcasts are one record each;
    # receivers' inboxes are expanded lazily during activation.  Bound
    # over the core's submit methods by _init_aggregated_path.
    # ------------------------------------------------------------------
    def _submit_send_agg(self, src: int, port: int, payload: Payload) -> None:
        dst = self._port_table[src][port]
        self.metrics.record_send(src, dst, payload.kind(),
                                 payload.size_bits(), self._current_round)
        entry = self._point_box.get(dst)
        if entry is None:
            entry = self._point_box[dst] = ([], [])
        entry[0].append(Delivery(self._peer_table[src][port], payload))
        entry[1].append(len(self._bcast_records))
        self._delivery_round = self._current_round + 1

    def _submit_multicast_agg(self, src: int, ports: Sequence[int],
                              payload: Payload) -> None:
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
        self.metrics.record_broadcast(src, payload.kind(),
                                      payload.size_bits(), count)
        self._delivery_round = self._current_round + 1

    def _submit_broadcast_agg(self, src: int, payload: Payload) -> None:
        self._bcast_records.append((src, payload))
        self.metrics.record_broadcast(src, payload.kind(),
                                      payload.size_bits(),
                                      self.network.degree(src))
        self._delivery_round = self._current_round + 1

    def _pending_deliveries(self) -> int:
        if not self._aggregate:
            return super()._pending_deliveries()
        degree = self.network.degree
        return (sum(len(entry[0]) for entry in self._point_box.values())
                + sum(degree(src) for src, _ in self._bcast_records))

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def run(self, max_rounds: Optional[int] = None, *,
            raise_on_limit: bool = False) -> RunResult:
        """Execute until quiescence (or ``max_rounds``) and return the result.

        Quiescence means: no messages in flight, no pending alarms, no
        future spontaneous wakeups — by induction nothing can ever happen
        again, so the run's outcome is final.
        """
        self._start()
        for r in self._rounds(max_rounds, raise_on_limit):
            self._execute_round(r)
        return self._result()

    def _execute_round(self, r: int) -> None:
        inboxes = self._take_round(r)
        active, fired = self._round_prelude(r, inboxes)
        self._activate(r, active, fired, inboxes.get)

    def _execute_round_agg(self, r: int) -> None:
        """Aggregated-buffer round: each receiver's inbox is built on
        demand from the point box and the broadcast records.

        On a clique, one broadcast record reaches every node but its
        sender, so with two or more distinct senders every node
        receives; with one sender, every node but that sender (unless a
        point send targets it too).
        """
        if self._delivery_round == r:
            points, records = self._point_box, self._bcast_records
            self._point_box = {}
            self._bcast_records = []
            self._delivery_round = None
        else:
            points, records = {}, []
        if not records:
            inboxes = {dst: entry[0] for dst, entry in points.items()}
            active, fired = self._round_prelude(r, inboxes)
            self._activate(r, active, fired, inboxes.get)
            return
        n = self.network.num_nodes
        receivers: Sequence[int] = range(n)
        senders = {src for src, _ in records}
        if len(senders) == 1:
            (sole,) = senders
            if sole not in points:
                receivers = [*range(sole), *range(sole + 1, n)]
        expand = self.network.expand_broadcasts
        merge = self._merge_inbox

        def inbox_of(idx: int, default: List[Delivery]) -> List[Delivery]:
            entry = points.get(idx)
            if entry is None:
                return expand(idx, records, Delivery)
            return merge(idx, entry, records)

        active, fired = self._round_prelude(r, receivers)
        self._activate(r, active, fired, inbox_of)

    def _activate(self, r: int, active: Sequence[int], fired: Set[int],
                  inbox_of: Callable[[int, List[Delivery]], List[Delivery]]
                  ) -> None:
        """The activation loop: each non-halted active node, ascending,
        with the inbox ``inbox_of`` yields for it."""
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
            inbox = inbox_of(idx, [])
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
