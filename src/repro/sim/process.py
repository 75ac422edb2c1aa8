"""Per-node algorithm API: :class:`NodeProcess` and :class:`NodeContext`.

An algorithm is a :class:`NodeProcess` subclass instantiated once per
node.  The scheduler activates a process only when something happens for
it — it wakes up, messages arrive, or one of its alarms fires — which is
what lets the simulator skip empty rounds (essential for Theorem 4.1's
exponentially rate-limited agents).  A process that wants a tick every
round simply re-arms an alarm one round ahead.

Everything a process may legally observe or do goes through its
:class:`NodeContext`: its own ID, its degree, local port numbers, private
coins, optional global knowledge (``n``, ``m``, ``D`` — cf. Table 1's
"Knowledge" column), and the send/alarm/status primitives.
"""

from __future__ import annotations

import random
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple,
                    Sequence, TYPE_CHECKING)

from .contract import node_rng
from .errors import InvalidPort, ModelViolation
from .message import Payload
from .status import Status

if TYPE_CHECKING:  # pragma: no cover
    from .rounds import RoundCore


class Delivery(NamedTuple):
    """One received message: the local port it arrived on + its payload."""

    port: int
    payload: Payload


class NodeContext:
    """The node-local view handed to every :class:`NodeProcess` callback."""

    def __init__(self, sim: "RoundCore", index: int) -> None:
        self._sim = sim
        self._index = index
        self._uid = sim.network.id_of(index)
        self._degree = sim.network.degree(index)
        self._status = Status.UNDECIDED
        self._halted = False
        self._crashed = False
        self._rng = node_rng(sim.seed, index)
        self._round = 0
        # One-message-per-port-per-round bookkeeping: the set holds the
        # ports used in round ``_sent_round`` and is reset lazily when
        # the round advances (bounded memory, no per-send tuple keys).
        # ``_sent_all`` is the O(1) shortcut for a full broadcast: it
        # claims every port without populating the set, so broadcasting
        # on a clique costs O(1) instead of O(degree) bookkeeping.
        self._sent_round = -1
        self._sent_ports: set = set()
        self._sent_all = False
        self._outbox: list = []
        #: Free-form per-node outputs collected into the RunResult
        #: (estimates, received-broadcast flags, phase counts, ...).
        self.output: Dict[str, Any] = {}

    # -- identity & local structure ------------------------------------
    @property
    def uid(self) -> int:
        """This node's unique identifier (adversarially assigned)."""
        return self._uid

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def ports(self) -> range:
        """Local port numbers ``0 .. degree-1``."""
        return range(self._degree)

    @property
    def round(self) -> int:
        """The current round number."""
        return self._round

    @property
    def rng(self) -> random.Random:
        """Private unbiased coins (no shared randomness, Section 2)."""
        return self._rng

    @property
    def knowledge(self) -> Mapping[str, int]:
        """Global parameters the adversary granted (``n``/``m``/``D``)."""
        return self._sim.knowledge

    # -- communication ---------------------------------------------------
    def send(self, port: int, payload: Payload) -> None:
        """Send one message through ``port``; delivered next round.

        At most one message per port per round (the CONGEST/LOCAL edge
        discipline); violations raise :class:`ModelViolation`.
        """
        if self._halted:
            raise ModelViolation(f"halted node {self._index} tried to send")
        if not 0 <= port < self._degree:
            raise InvalidPort(f"node {self._index}: port {port} out of range "
                              f"[0, {self._degree})")
        if self._round != self._sent_round:
            self._sent_round = self._round
            self._sent_ports.clear()
            self._sent_all = False
        elif self._sent_all or port in self._sent_ports:
            raise ModelViolation(
                f"node {self._index} sent twice on port {port} in round {self._round}")
        self._sent_ports.add(port)
        self._sim._submit_send(self._index, port, payload)

    def send_soon(self, port: int, payload: Payload) -> None:
        """Send through ``port`` now if it is free this round, otherwise
        in the earliest following round with a free slot.

        This is how protocols share an edge between logically concurrent
        messages (e.g. an echo and a forward of a better rank in the
        same round) without violating the one-message-per-edge-per-round
        discipline.  Deferred messages are flushed automatically at the
        node's next activation (an alarm is set to guarantee one).

        Halted nodes may not send at all — deferring would silently
        drop the message (a halted node is never activated again), so
        the model violation is raised up front.
        """
        if self._halted:
            raise ModelViolation(f"halted node {self._index} tried to send")
        if not 0 <= port < self._degree:
            raise InvalidPort(f"node {self._index}: port {port} out of range "
                              f"[0, {self._degree})")
        if self._round == self._sent_round and (self._sent_all or
                                                port in self._sent_ports):
            self._outbox.append((port, payload))
            self._sim._submit_alarm(self._index, self._round + 1)
        else:
            self.send(port, payload)

    def _flush_outbox(self) -> None:
        """Called by the scheduler at the start of each activation."""
        if not self._outbox:
            return
        backlog, self._outbox = self._outbox, []
        for port, payload in backlog:
            self.send_soon(port, payload)

    def _claim_ports(self, ports: Sequence[int],
                     check_range: bool = False) -> None:
        """Validate + mark several ports for a batched same-round send.

        Single pass, atomic: if any port fails validation the claims
        made so far are rolled back, so a failed batch leaves no port
        marked as sent (no message of the batch is ever submitted).
        """
        if self._halted:
            raise ModelViolation(f"halted node {self._index} tried to send")
        if self._round != self._sent_round:
            self._sent_round = self._round
            self._sent_ports.clear()
            self._sent_all = False
        sent = self._sent_ports
        sent_all = self._sent_all
        degree = self._degree
        claimed = 0
        try:
            for port in ports:
                if check_range and not 0 <= port < degree:
                    raise InvalidPort(
                        f"node {self._index}: port {port} out of range "
                        f"[0, {degree})")
                if sent_all or port in sent:
                    raise ModelViolation(
                        f"node {self._index} sent twice on port {port} "
                        f"in round {self._round}")
                sent.add(port)
                claimed += 1
        except Exception:
            for port in ports[:claimed]:
                sent.discard(port)
            raise

    def broadcast(self, payload: Payload, exclude: Iterable[int] = ()) -> None:
        """Send ``payload`` on every port except those in ``exclude``.

        Batched fast path: the whole fan-out is submitted in one
        scheduler call (one CONGEST check, one metrics update).  A full
        broadcast from a node that has not sent yet this round claims
        all its ports in O(1) (no per-port set bookkeeping) and reaches
        the scheduler as a single submission, which the aggregated
        delivery path stores as one record instead of deg(v) inbox
        appends.
        """
        if exclude:
            skip = set(exclude)
            ports = [p for p in range(self._degree) if p not in skip]
            if not ports:
                return
            self._claim_ports(ports)
            self._sim._submit_multicast(self._index, ports, payload)
            return
        if self._degree == 0:
            return
        if self._halted:
            raise ModelViolation(f"halted node {self._index} tried to send")
        if self._round != self._sent_round:
            self._sent_round = self._round
            self._sent_ports.clear()
            self._sent_all = False
        if self._sent_all or self._sent_ports:
            # Some port is already used: fall back to per-port claiming
            # so the double-send diagnostics match the unbatched path.
            ports = list(range(self._degree))
            self._claim_ports(ports)
            self._sim._submit_multicast(self._index, ports, payload)
            return
        self._sent_all = True
        self._sim._submit_broadcast(self._index, payload)

    def multicast(self, ports: Sequence[int], payload: Payload) -> None:
        """Send ``payload`` on each of the given distinct ports at once.

        The batched equivalent of calling :meth:`send` per port (in the
        given order): same validation, same one-per-port discipline,
        one scheduler submission.  Unlike a manual loop, the batch is
        atomic — a validation failure sends and claims nothing.
        """
        port_list = list(ports)
        if not port_list:
            return
        self._claim_ports(port_list, check_range=True)
        self._sim._submit_multicast(self._index, port_list, payload)

    def multicast_soon(self, ports: Sequence[int], payload: Payload) -> None:
        """Batched :meth:`send_soon`: ports free this round are sent as
        one multicast, the rest are deferred to following rounds.

        Atomic like :meth:`multicast`: an out-of-range port (or a
        halted sender) aborts the whole batch with nothing sent,
        claimed, or deferred.
        """
        if self._halted:
            raise ModelViolation(f"halted node {self._index} tried to send")
        now: list = []
        later: list = []
        degree = self._degree
        if self._round != self._sent_round:
            self._sent_round = self._round
            self._sent_ports.clear()
            self._sent_all = False
        sent = self._sent_ports
        sent_all = self._sent_all
        try:
            for port in ports:
                if not 0 <= port < degree:
                    raise InvalidPort(
                        f"node {self._index}: port {port} out of range "
                        f"[0, {degree})")
                if sent_all or port in sent:
                    later.append(port)
                else:
                    sent.add(port)
                    now.append(port)
        except InvalidPort:
            for port in now:
                sent.discard(port)
            raise
        if now:
            self._sim._submit_multicast(self._index, now, payload)
        if later:
            self._outbox.extend((port, payload) for port in later)
            self._sim._submit_alarm(self._index, self._round + 1)

    # -- timers ------------------------------------------------------------
    def set_alarm_in(self, delta: int) -> None:
        """Request activation ``delta`` >= 1 rounds from now."""
        if delta < 1:
            raise ValueError("alarms must be at least one round ahead")
        self._sim._submit_alarm(self._index, self._round + delta)

    def set_alarm_at(self, round_index: int) -> None:
        """Request activation at an absolute future round."""
        if round_index <= self._round:
            raise ValueError("alarms must be strictly in the future")
        self._sim._submit_alarm(self._index, round_index)

    # -- leader-election status ---------------------------------------------
    @property
    def status(self) -> Status:
        return self._status

    def elect(self) -> None:
        """Set status to ELECTED (the node claims leadership)."""
        self._set_status(Status.ELECTED)

    def set_non_elected(self) -> None:
        self._set_status(Status.NON_ELECTED)

    def set_undecided(self) -> None:
        """Revert to UNDECIDED (used by restarting Las Vegas wrappers)."""
        self._set_status(Status.UNDECIDED)

    def _set_status(self, status: Status) -> None:
        if status is not self._status:
            tracer = getattr(self._sim, "_tracer", None)
            if tracer is not None:
                tracer.status(self._round, self._index,
                              self._status.value, status.value)
            self._status = status
            self._sim._note_activity(self._round)

    def halt(self) -> None:
        """Stop participating: no further activations, inbound dropped."""
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted

    def _crash(self) -> None:
        """Scheduler hook: apply a crash-stop fault (execution model).

        A crashed node is halted *and* marked crashed: unlike a
        voluntary halt, messages delivered to it are accounted as
        dropped, and the node is excluded from the surviving-leader
        correctness check.
        """
        self._halted = True
        self._crashed = True

    @property
    def crashed(self) -> bool:
        """True once the execution model's crash-stop fault has fired."""
        return self._crashed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"NodeContext(index={self._index}, uid={self._uid}, "
                f"status={self._status}, round={self._round})")


class NodeProcess:
    """Base class for all distributed algorithms in this repository.

    Subclasses override :meth:`on_start` (called once, at wakeup) and
    :meth:`on_round` (called whenever messages arrive or an alarm fires;
    ``inbox`` may be empty in the alarm-only case).
    """

    def on_start(self, ctx: NodeContext) -> None:  # pragma: no cover - default
        """Called exactly once when the node wakes up."""

    def on_round(self, ctx: NodeContext, inbox: List[Delivery]) -> None:
        """Called on every activation after wakeup."""
