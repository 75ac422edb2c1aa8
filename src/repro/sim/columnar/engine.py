"""The columnar round engine: kernel loop + exact accounting runtime.

The engine mirrors :meth:`Simulator.run` structurally — find the next
event round, execute it, count it, settle delivered messages at the
end — but delegates the *content* of each round to a vectorized
:class:`~repro.sim.columnar.kernels.Kernel`.  A kernel's contract is
the per-round map ``step(state, inbox) -> outbox`` with the inbox and
outbox represented columnarly (flat arrays / grouped dicts) instead of
per-node ``Delivery`` lists; :class:`KernelRuntime` provides the
Metrics-exact accounting primitives so kernels cannot drift from the
event loop's counters.

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


def supports(request) -> Optional[str]:
    """Refusal reason for ``request`` on the columnar path, else ``None``.

    The checks are deliberately loud and specific: every feature the
    columnar engine does not replicate bit-for-bit is rejected here, so
    an unsupported request can never produce silently different numbers.
    """
    algorithm = request.algorithm
    if not algorithm:
        return ("request does not name a registry algorithm (columnar "
                "kernels are looked up by name, not by process factory)")
    kernel_cls = KERNELS.get(algorithm)
    if kernel_cls is None:
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
    return kernel_cls().supports(request)


class KernelRuntime:
    """Accounting surface shared by all kernels.

    Wraps one :class:`Metrics` instance plus the statuses/outputs the
    :class:`RunResult` will carry, and owns the ``pending`` in-flight
    message counter used for the end-of-run ``messages_delivered``
    settle (the exact analogue of the Simulator's buffered-inbox scan).
    """

    def __init__(self, request) -> None:
        self.request = request
        self.network = request.network
        self.n = self.network.num_nodes
        self.seed = request.seed
        self.knowledge = dict(request.knowledge or {})
        self.congest_bits = request.congest_bits
        self.limit = (request.max_rounds if request.max_rounds is not None
                      else DEFAULT_MAX_ROUNDS)
        self.metrics = Metrics()
        self.statuses = [Status.UNDECIDED] * self.n
        self.outputs = [{} for _ in range(self.n)]
        #: Messages sent but not yet handed to a receiver.
        self.pending = 0

    def account_multicast(self, src: int, kind: str, size: int,
                          count: int) -> None:
        """Count one payload fanned out over ``count`` ports of ``src``.

        Same CONGEST check and counter updates as the round core's
        ``_submit_multicast``.
        """
        self.congest_check(kind, size)
        self.metrics.record_broadcast(src, kind, size, count)
        self.pending += count

    def congest_check(self, kind: str, size: int) -> None:
        """Standalone CONGEST check for bulk-accounted sends."""
        if self.congest_bits is not None and size > self.congest_bits:
            raise CongestViolation.over(kind, size, self.congest_bits)


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


class BatchKernelRuntime:
    """Exact per-trial accounting for one *batched* kernel execution.

    The trial-batched kernels (:mod:`repro.sim.columnar.batch`)
    accumulate counters into arrays with a leading ``(T,)`` trial
    dimension instead of one :class:`Metrics` per run;
    :meth:`metrics_for` folds trial ``t``'s slice back into a Metrics
    instance bit-identical to the one a sequential
    :class:`KernelRuntime` run would have produced.  Statuses/outputs
    stay per-trial Python lists (set by the kernel at finish; trials the
    kernel leaves untouched get the all-UNDECIDED default, exactly like
    a truncated sequential run).
    """

    def __init__(self, requests) -> None:
        if not requests:
            raise ValueError("batch runtime needs at least one trial")
        self.requests = list(requests)
        first = self.requests[0]
        self.T = len(self.requests)
        self.networks = [rq.network for rq in self.requests]
        self.n = first.network.num_nodes
        self.knowledge = dict(first.knowledge or {})
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
        #: kind -> (T,) per-trial send counts.
        self.per_kind: Dict[str, np.ndarray] = {}
        #: (T, n) per-node send counts, set by the kernel.
        self.per_node_sent: Optional[np.ndarray] = None
        self.statuses: List[Optional[list]] = [None] * T
        self.outputs: List[Optional[list]] = [None] * T

    def per_kind_array(self, kind: str) -> np.ndarray:
        arr = self.per_kind.get(kind)
        if arr is None:
            arr = self.per_kind[kind] = np.zeros(self.T, dtype=np.int64)
        return arr

    def metrics_for(self, t: int) -> Metrics:
        """Trial ``t``'s Metrics, identical to a sequential run's."""
        m = _BatchMetrics()
        m.messages = int(self.messages[t])
        m.bits = int(self.bits[t])
        m.max_payload_bits = int(self.max_payload_bits[t])
        m.activations = int(self.activations[t])
        m.last_activity_round = int(self.last_activity_round[t])
        m.rounds_executed = int(self.rounds_executed[t])
        m.messages_delivered = int(self.messages[t] - self.pending[t])
        for kind, arr in self.per_kind.items():
            count = int(arr[t])
            if count:  # the event loop never creates zero-count keys
                m.per_kind[kind] = count
        if self.per_node_sent is not None:
            m._per_node_counter = None
            m._per_node_row = self.per_node_sent[t]
        return m

    def results(self, truncated: bool) -> List[RunResult]:
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
                truncated=truncated, wake_schedule=[0] * self.n))
        return out


def run(request) -> RunResult:
    """Execute ``request`` through its algorithm's vectorized kernel.

    Callers are expected to have passed :func:`supports` (the
    ``ColumnarBackend`` shim enforces it); running an unchecked
    unsupported request is a programming error, not a fallback.
    """
    kernel = KERNELS[request.algorithm]()
    rt = KernelRuntime(request)
    state = kernel.init(rt)
    truncated = False
    while True:
        r = kernel.next_round(state)
        if r is None:
            break
        if r > rt.limit:
            truncated = True
            break
        kernel.step(rt, state, r)
        rt.metrics.rounds_executed += 1
    # Synchronous delivered settle, identical to Simulator.run's: every
    # sent message was delivered except those still in flight.
    rt.metrics.messages_delivered = rt.metrics.messages - rt.pending
    kernel.finish(rt, state, truncated)
    return RunResult(
        network=rt.network,
        statuses=rt.statuses,
        outputs=rt.outputs,
        metrics=rt.metrics,
        truncated=truncated,
        wake_schedule=[0] * rt.n,
    )
