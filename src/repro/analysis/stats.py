"""Multi-trial experiment statistics.

The paper's randomized bounds are "in expectation" or "with high
probability"; experiments therefore run each configuration over many
seeds and report means and dispersion.  :func:`run_trials` is the
standard loop used by the benchmarks and EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..graphs.network import Network
from ..graphs.topology import Topology
from ..sim.backend import RunRequest, resolve_backend
from ..sim.contract import BatchRunRequest
from ..sim.process import NodeProcess
from ..sim.scheduler import RunResult


def _trial_seed(base_seed: int, stream: str, trial: int) -> int:
    """63-bit per-trial seed for one named stream (SHA-256 mixing).

    Mirrors :func:`repro.experiments.spec.derive_seed` (implemented
    locally to avoid a circular import: ``experiments.aggregate``
    imports this module).  The old affine derivations
    (``seed*7919 + t`` for the network, ``seed*104729 + t`` for the
    simulator) both collapsed to ``t`` at the default ``seed=0`` —
    correlating random-ID assignment with the algorithms' coin flips —
    and their arithmetic progressions overlap across nearby base seeds.
    Hashing the (stream, base seed, trial) triple gives independent,
    non-overlapping streams for any inputs.
    """
    blob = f"repro-trials|{stream}|{base_seed}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1


@dataclass
class Summary:
    """Five-number-ish summary of one metric across trials."""

    mean: float
    median: float
    minimum: float
    maximum: float
    stdev: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        vals = list(values)
        return cls(mean=statistics.fmean(vals),
                   median=statistics.median(vals),
                   minimum=min(vals), maximum=max(vals),
                   stdev=statistics.pstdev(vals) if len(vals) > 1 else 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Summary(mean={self.mean:.1f}, median={self.median:.1f}, "
                f"min={self.minimum:.1f}, max={self.maximum:.1f})")


@dataclass
class TrialStats:
    """Aggregated results of repeated runs of one configuration."""

    trials: int
    successes: int
    messages: Summary
    rounds: Summary
    bits: Summary
    results: List[RunResult] = field(default_factory=list, repr=False)
    #: Trials satisfying the crash-tolerant condition (unique leader
    #: among non-crashed nodes); equals ``successes`` when no crash
    #: faults fire, so fault-free callers can ignore it.
    surviving_successes: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def surviving_success_rate(self) -> float:
        return self.surviving_successes / self.trials


def run_trials(topology: Topology,
               factory: Union[str, Callable[[], NodeProcess]], *,
               trials: int = 10,
               seed: int = 0,
               knowledge: Optional[Dict[str, int]] = None,
               knowledge_keys: Sequence[str] = (),
               max_rounds: Optional[int] = None,
               ids=None,
               model=None,
               keep_results: bool = False,
               tracer=None,
               backend: Optional[str] = None,
               batch: Optional[bool] = None) -> TrialStats:
    """Run ``trials`` independent simulations (fresh network instance and
    coins per trial) and aggregate messages/rounds/success.

    ``factory`` is a process factory, or a registry algorithm name
    (e.g. ``"flood-max"``) resolved through :data:`repro.api.ALGORITHMS`
    — the name form is what lets non-default backends look up their
    vectorized kernel.  ``knowledge_keys`` requests auto-computed
    parameters ("n", "m", "D"); explicit ``knowledge`` entries win.
    ``model`` is an optional :class:`~repro.sim.models.ExecutionModel`
    applied to every trial (the per-trial simulator seed varies, so
    seeded delay/loss/crash draws differ across trials while staying
    reproducible).  ``tracer`` (a :class:`repro.obs.Tracer`) observes
    trial 0 only — one representative trace instead of ``trials``
    interleaved streams — and never changes any trial's outcome.
    ``backend`` selects the engine for every trial; per-trial seeds are
    backend-independent, so A/B runs over the same base seed see the
    same networks and coins.

    ``batch`` controls the trial axis: ``None`` (the default) hands the
    whole axis to the backend as one
    :class:`~repro.sim.contract.BatchRunRequest` whenever no tracer is
    attached — backends without a genuinely batched path run the exact
    sequential expansion, so every trial's numbers are identical either
    way and batching is purely a speed knob.  ``False`` forces the
    per-trial loop (useful for timing A/Bs); ``True`` insists on the
    batch call even when it will degrade to the sequential expansion.

    Per-trial network and simulator seeds are derived through SHA-256
    (see :func:`_trial_seed`), so the two randomness streams are
    independent at every base seed and never overlap across base seeds.
    """
    if trials < 1:
        raise ValueError(
            f"run_trials needs trials >= 1, got {trials} "
            "(an empty trial set has no statistics to summarize)")
    from ..api import _auto_knowledge, algorithm_spec

    algorithm: Optional[str] = None
    if isinstance(factory, str):
        algorithm = factory
        factory = algorithm_spec(algorithm, model).factory
    engine = resolve_backend(backend)
    auto = _auto_knowledge(topology, knowledge_keys, knowledge)

    if batch and tracer is not None:
        raise ValueError(
            "batch=True cannot observe a tracer (tracing attaches to "
            "trial 0's event loop); pass batch=False for traced trials")
    use_batch = tracer is None if batch is None else batch

    messages: List[float] = []
    rounds: List[float] = []
    bits: List[float] = []
    successes = 0
    surviving = 0
    results: List[RunResult] = []
    if use_batch:
        request = BatchRunRequest(
            topology=topology, factory=factory,
            seeds=[(_trial_seed(seed, "network", t),
                    _trial_seed(seed, "sim", t)) for t in range(trials)],
            knowledge=auto, ids=ids, model=model,
            max_rounds=max_rounds, algorithm=algorithm)
        run_results = engine.run_batch(request)
    else:
        run_results = []
        for t in range(trials):
            network = Network.build(topology,
                                    seed=_trial_seed(seed, "network", t),
                                    ids=ids)
            single = RunRequest(network=network, factory=factory,
                                seed=_trial_seed(seed, "sim", t),
                                knowledge=auto, model=model,
                                tracer=tracer if t == 0 else None,
                                max_rounds=max_rounds, algorithm=algorithm)
            run_results.append(engine.run(single))
    for result in run_results:
        messages.append(result.messages)
        rounds.append(result.rounds)
        bits.append(result.bits)
        if result.has_unique_leader:
            successes += 1
        if result.has_unique_surviving_leader:
            surviving += 1
        if keep_results:
            results.append(result)
    return TrialStats(trials=trials, successes=successes,
                      messages=Summary.of(messages),
                      rounds=Summary.of(rounds),
                      bits=Summary.of(bits),
                      results=results,
                      surviving_successes=surviving)
