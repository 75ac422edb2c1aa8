"""The backend-neutral run contract.

Everything an execution backend must agree on lives here, independent of
*how* rounds are executed: the :class:`RunResult` record every backend
returns, the default round ceiling, and the seeding conventions that
make two backends' randomness streams identical.

The event-loop :class:`~repro.sim.scheduler.Simulator` and the columnar
NumPy engine (:mod:`repro.sim.columnar`) are both implementations of
this contract — the golden parity suite and the backend-equivalence
tests pin them to each other bit for bit (messages, bits, rounds,
statuses, outputs).

Seeding conventions
-------------------
A run is reproducible from ``(network seed, simulator seed)`` alone.
Every backend must derive its randomness through these exact streams:

* per-node private coins: ``node_rng(sim_seed, index)``
  (= ``random.Random(f"node:{seed}:{index}")``);
* the wakeup schedule: ``wakeup_rng(sim_seed)``
  (= ``random.Random(f"wakeup:{seed}")``);
* network IDs/rotations: seeded inside :meth:`Network.build` from the
  *network* seed (a separate stream — backends never touch it).

A backend that replays an algorithm's draws (e.g. a vectorized kernel
reproducing per-node coin flips) must consume the node RNG in the exact
order the algorithm's process implementation does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

from ..graphs.network import Network
from .metrics import Metrics
from .status import Status

if TYPE_CHECKING:  # pragma: no cover
    from ..graphs.ids import IdAssigner
    from ..graphs.topology import Topology
    from ..obs.timeline import Timeline
    from .models import ExecutionModel
    from .process import NodeProcess
    from .wakeup import WakeupModel

ProcessFactory = Callable[[], "NodeProcess"]

#: Default ceiling protecting against accidental non-termination.  Event
#: rounds beyond this are treated as a truncated run, never silently
#: executed forever.
DEFAULT_MAX_ROUNDS = 10 ** 9


def node_rng(seed: int, index: int) -> random.Random:
    """The private coin stream of node ``index`` under simulator ``seed``."""
    return random.Random(f"node:{seed}:{index}")


def wakeup_rng(seed: int) -> random.Random:
    """The wakeup-schedule stream under simulator ``seed``."""
    return random.Random(f"wakeup:{seed}")


@dataclass
class BatchRunRequest:
    """A *trial axis* over one run configuration.

    ``T = len(seeds)`` runs that share everything — topology, process
    factory, knowledge, ID assigner, wakeup, execution model, CONGEST
    limit, round ceiling — and differ only in their per-trial
    ``(network_seed, sim_seed)`` pair.  Trial ``t`` is *defined* as::

        network = Network.build(topology, seed=seeds[t][0], ids=ids)
        RunRequest(network=network, seed=seeds[t][1], ...)

    and every backend's ``run_batch`` must return results bit-identical
    to running those T requests sequentially (same Metrics counters,
    statuses, outputs, networks).  A backend with a genuinely batched
    path — vectorized state arrays with a leading ``(T,)`` dimension
    and IDs for all trials drawn in C (columnar), or one socket mesh
    shared by all trials (net) — advertises it via
    :meth:`~repro.sim.backend.EngineBackend.supports_batch`; everyone
    else falls back to the sequential expansion — batching is a speed
    seam, never a semantics seam.
    """

    topology: "Topology"
    factory: ProcessFactory
    #: Per-trial ``(network_seed, sim_seed)`` pairs; callers derive them
    #: (e.g. ``analysis.stats._trial_seed``'s independent SHA-256
    #: streams) so the batch is reproducible from the base seed alone.
    seeds: Sequence[Tuple[int, int]]
    knowledge: Mapping[str, int] = field(default_factory=dict)
    ids: Optional["IdAssigner"] = None
    wakeup: Optional["WakeupModel"] = None
    model: Optional["ExecutionModel"] = None
    congest_bits: Optional[int] = None
    max_rounds: Optional[int] = None
    algorithm: Optional[str] = None

    @property
    def trials(self) -> int:
        return len(self.seeds)

    def effective_wakeup(self) -> Optional["WakeupModel"]:
        """The wakeup model the runs will use (explicit beats model's)."""
        if self.wakeup is not None:
            return self.wakeup
        if self.model is not None:
            return self.model.wakeup
        return None


@dataclass
class RunResult:
    """Everything an experiment needs to know about one simulation run."""

    network: Network
    statuses: List[Status]
    outputs: List[Dict[str, Any]]
    metrics: Metrics
    truncated: bool
    wake_schedule: List[Optional[int]]

    # -- complexity ------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Time complexity: index of the last round with any activity."""
        return self.metrics.last_activity_round

    @property
    def messages(self) -> int:
        return self.metrics.messages

    @property
    def bits(self) -> int:
        return self.metrics.bits

    # -- election outcome --------------------------------------------------
    @property
    def elected_indices(self) -> List[int]:
        return [i for i, s in enumerate(self.statuses) if s is Status.ELECTED]

    @property
    def num_leaders(self) -> int:
        return len(self.elected_indices)

    @property
    def has_unique_leader(self) -> bool:
        """Exactly one ELECTED node and nobody left UNDECIDED."""
        return (self.num_leaders == 1 and
                all(s is not Status.UNDECIDED for s in self.statuses))

    @property
    def leader_uid(self) -> Optional[int]:
        leaders = self.elected_indices
        if len(leaders) != 1:
            return None
        return self.network.id_of(leaders[0])

    # -- fault tolerance ---------------------------------------------------
    @property
    def crashed_indices(self) -> List[int]:
        """Nodes whose execution-model crash-stop fault fired, sorted."""
        return sorted(self.metrics.crashed_nodes)

    @property
    def has_unique_surviving_leader(self) -> bool:
        """The crash-tolerant correctness condition: exactly one ELECTED
        node and no UNDECIDED node *among the survivors*.

        Crashed nodes are exempt — a node silenced mid-election cannot
        be blamed for staying UNDECIDED.  Without crashes this is
        identical to :attr:`has_unique_leader`.
        """
        crashed = set(self.metrics.crashed_nodes)
        survivors = [s for i, s in enumerate(self.statuses)
                     if i not in crashed]
        return (survivors.count(Status.ELECTED) == 1 and
                all(s is not Status.UNDECIDED for s in survivors))

    # -- observability -----------------------------------------------------
    @property
    def timeline(self) -> Optional["Timeline"]:
        """Per-round time series, when the run recorded one
        (``Simulator(..., timeline=True)``); ``None`` otherwise."""
        return self.metrics.timeline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunResult(rounds={self.rounds}, messages={self.messages}, "
                f"leaders={self.num_leaders}, truncated={self.truncated})")
