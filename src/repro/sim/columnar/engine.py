"""The columnar engine: refusal checks, the exact accounting runtime,
and the one execution path.

Every columnar execution is a batch: :func:`execute` runs T trials
that share topology, knowledge and round ceiling through their
algorithm's kernel (:mod:`repro.sim.columnar.kernels`) over one
:class:`KernelRuntime`, and :func:`run` executes a single request as a
batch of one.  The runtime keeps every counter with a leading ``(T,)``
trial dimension and folds trial ``t``'s slice back into a
:class:`Metrics` instance, so kernels cannot drift from the event
loop's counters.

Equivalence obligations a kernel must uphold (pinned by
``tests/test_backends.py`` against the golden parity suite):

* identical randomness — replay :func:`repro.sim.contract.node_rng`
  draws in the event-loop order;
* identical counters — messages/bits/per-kind/per-node at send time,
  ``activations`` per (event round, active node) pair,
  ``last_activity_round`` on delivery and status-change rounds,
  ``rounds_executed`` per executed round;
* identical truncation — an event round past ``max_rounds`` truncates
  the run with sent-but-undelivered messages left pending.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

import numpy as np

from ..contract import DEFAULT_MAX_ROUNDS, RunResult
from ..errors import CongestViolation
from ..metrics import Metrics
from ..status import Status
from ..wakeup import Simultaneous
from .kernels import KERNELS


def config_reason(request) -> Optional[str]:
    """The refusals a single run and a batch share, keyed by the
    configuration alone: registry name, kernel, synchronous model and
    simultaneous wakeup."""
    algorithm = request.algorithm
    if not algorithm:
        return ("request does not name a registry algorithm (columnar "
                "kernels are looked up by name, not by process factory)")
    if algorithm not in KERNELS:
        return (f"no columnar kernel for algorithm {algorithm!r} "
                f"(kernels exist for: {', '.join(sorted(KERNELS))})")
    model = request.model
    if model is not None and not model.is_synchronous:
        return ("execution model is not the synchronous fault-free model "
                "(delay/loss/crash simulation is event-loop only)")
    wake = request.effective_wakeup()
    if wake is not None and not isinstance(wake, Simultaneous):
        return (f"wakeup model {type(wake).__name__} is not simultaneous "
                "(staggered wakeups are event-loop only)")
    return None


def supports(request) -> Optional[str]:
    """Refusal reason for ``request`` on the columnar path, else ``None``.

    The checks are deliberately loud and specific: every feature the
    columnar engine does not replicate bit-for-bit is rejected here, so
    an unsupported request can never produce silently different numbers.
    """
    reason = config_reason(request)
    if reason is not None:
        return reason
    if request.watch_edges:
        return "edge watches need per-send envelopes (event-loop only)"
    if request.record_sends:
        return "send-log recording needs per-send envelopes (event-loop only)"
    if request.tracer is not None:
        return ("tracing is not instrumented on the columnar path; "
                "run traced elections on the event-loop backend")
    if request.timeline:
        return ("timeline recording is not instrumented on the columnar "
                "path; run observed elections on the event-loop backend")
    check, _ = KERNELS[request.algorithm]
    return check(request.knowledge or {}, request.network.topology)


class _BatchMetrics(Metrics):
    """Metrics whose ``per_node_sent`` Counter materializes lazily from
    a batched ``(n,)`` send-count row.

    Identical on observation to an eagerly folded Counter (nonzero
    entries only, same key/value ints), but free for the callers that
    never look at per-node counts — benchmark rows, sweep cells, and
    ``run_trials`` aggregates all read only the scalar counters, and
    folding ~n dict entries per trial would otherwise be a top cost of
    the whole batched run.
    """

    @property
    def per_node_sent(self) -> Counter:
        counter = self._per_node_counter
        if counter is None:
            counter = Counter()
            row = self._per_node_row
            if row is not None:
                nz = np.flatnonzero(row)
                if nz.size:
                    counter.update(dict(zip(nz.tolist(),
                                            row[nz].tolist())))
            self._per_node_counter = counter
            self._per_node_row = None
        return counter

    @per_node_sent.setter
    def per_node_sent(self, value) -> None:
        self._per_node_counter = value
        self._per_node_row = None


class KernelRuntime:
    """Exact per-trial accounting for one kernel execution.

    Counters are arrays with a leading ``(T,)`` trial dimension instead
    of one :class:`Metrics` per run; :meth:`metrics_for` folds trial
    ``t``'s slice back into a Metrics instance bit-identical to the one
    the event loop produces.  Statuses/outputs stay per-trial Python
    lists (set by the kernel; trials the kernel leaves untouched get
    the all-UNDECIDED default of a run truncated before any decision).
    """

    def __init__(self, requests) -> None:
        if not requests:
            raise ValueError("kernel runtime needs at least one trial")
        self.requests = list(requests)
        first = self.requests[0]
        self.T = len(self.requests)
        self.networks = [rq.network for rq in self.requests]
        self.n = first.network.num_nodes
        self.knowledge = dict(first.knowledge or {})
        self.congest_bits = first.congest_bits
        self.limit = (first.max_rounds if first.max_rounds is not None
                      else DEFAULT_MAX_ROUNDS)
        T = self.T
        self.messages = np.zeros(T, dtype=np.int64)
        self.bits = np.zeros(T, dtype=np.int64)
        self.max_payload_bits = np.zeros(T, dtype=np.int64)
        self.activations = np.zeros(T, dtype=np.int64)
        self.last_activity_round = np.zeros(T, dtype=np.int64)
        self.rounds_executed = np.zeros(T, dtype=np.int64)
        #: Per-trial messages sent but not yet handed to a receiver.
        self.pending = np.zeros(T, dtype=np.int64)
        self.truncated = np.zeros(T, dtype=bool)
        #: kind -> (T,) per-trial send counts.
        self.per_kind: Dict[str, np.ndarray] = {}
        #: (T, n) per-node send counts.
        self.per_node_sent = np.zeros((T, self.n), dtype=np.int64)
        self.statuses: List[Optional[list]] = [None] * T
        self.outputs: List[Optional[list]] = [None] * T

    def per_kind_array(self, kind: str) -> np.ndarray:
        arr = self.per_kind.get(kind)
        if arr is None:
            arr = self.per_kind[kind] = np.zeros(self.T, dtype=np.int64)
        return arr

    def congest_check(self, kind: str, size: int) -> None:
        """The CONGEST check of one send of ``size`` bits."""
        if self.congest_bits is not None and size > self.congest_bits:
            raise CongestViolation.over(kind, size, self.congest_bits)

    def metrics_for(self, t: int) -> Metrics:
        """Trial ``t``'s Metrics, identical to an event-loop run's."""
        m = _BatchMetrics()
        m.messages = int(self.messages[t])
        m.bits = int(self.bits[t])
        m.max_payload_bits = int(self.max_payload_bits[t])
        m.activations = int(self.activations[t])
        m.last_activity_round = int(self.last_activity_round[t])
        m.rounds_executed = int(self.rounds_executed[t])
        # Synchronous delivered settle, identical to Simulator.run's:
        # every sent message was delivered except those still in flight.
        m.messages_delivered = int(self.messages[t] - self.pending[t])
        for kind, arr in self.per_kind.items():
            count = int(arr[t])
            if count:  # the event loop never creates zero-count keys
                m.per_kind[kind] = count
        m._per_node_counter = None
        m._per_node_row = self.per_node_sent[t]
        return m

    def results(self) -> List[RunResult]:
        """Fold the batch into per-trial RunResults, in trial order."""
        out = []
        for t in range(self.T):
            statuses = self.statuses[t]
            if statuses is None:
                statuses = [Status.UNDECIDED] * self.n
            outputs = self.outputs[t]
            if outputs is None:
                outputs = [{} for _ in range(self.n)]
            out.append(RunResult(
                network=self.networks[t], statuses=statuses,
                outputs=outputs, metrics=self.metrics_for(t),
                truncated=bool(self.truncated[t]),
                wake_schedule=[0] * self.n))
        return out


def execute(requests) -> List[RunResult]:
    """Run trials that share one configuration through their
    algorithm's kernel; results in trial order.

    Callers are expected to have passed :func:`supports` (or the batch
    path's ``supports_batch``); running an unchecked unsupported
    request is a programming error, not a fallback.
    """
    rt = KernelRuntime(requests)
    _, kernel = KERNELS[rt.requests[0].algorithm]
    kernel(rt)
    return rt.results()


def run(request) -> RunResult:
    """Execute ``request`` as a batch of one.

    The ``ColumnarBackend`` shim checks :func:`supports` first.
    """
    return execute([request])[0]
