"""The Ω(D) time lower-bound experiment of Theorem 3.13 (Figure 1).

The proof's contrapositive: on the clique-cycle graph, an algorithm
whose running time is o(D') leaves opposite arcs causally independent;
by the rotation symmetry φ, the probability that arc C0 elects a leader
equals arc C2's, so with constant probability the run ends with 0 or 2
leaders.  Hence any algorithm with success probability above the
theorem's threshold must run Ω(D') rounds.

Two measurable consequences, both implemented here:

* :func:`truncation_experiment` — run an election on the clique-cycle
  but *truncate* it after ``T`` rounds, for ``T`` swept from o(D') to
  Θ(D'); record the probability that a unique leader exists at time T.
  The curve exhibits the predicted failure plateau for small T/D' and
  climbs toward 1 once information can traverse Ω(D') distance.
* :func:`completion_time_experiment` — run correct algorithms to
  completion and record their round counts, which the theorem
  lower-bounds by Ω(D') (and [20] upper-bounds by O(D)); the measured
  rounds/D' ratio stays within a constant band as D' grows.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..api import _auto_knowledge
from ..graphs.clique_cycle import CliqueCycle
from ..graphs.network import Network
from ..sim.process import NodeProcess
from ..sim.scheduler import Simulator

ProcessFactory = Callable[[], NodeProcess]


@dataclass
class TruncationPoint:
    """Success statistics for one truncation horizon."""

    horizon: int                 # T (rounds allowed)
    fraction_of_diameter: float  # T / D'
    unique_leader_rate: float
    mean_leaders: float


@dataclass
class TruncationExperiment:
    n: int
    d: int
    num_cliques: int             # D'
    points: List[TruncationPoint]

    def summary(self) -> List[Dict[str, float]]:
        return [
            {"T": p.horizon, "T/D'": round(p.fraction_of_diameter, 3),
             "unique_leader_rate": p.unique_leader_rate,
             "mean_leaders": p.mean_leaders}
            for p in self.points
        ]


def _build(n: int, d: int, seed: int) -> Network:
    cc = CliqueCycle(n, d)
    return Network.build(cc.topology, seed=seed)


def truncation_experiment(n: int, d: int, factory: ProcessFactory, *,
                          fractions: Optional[List[float]] = None,
                          trials: int = 20, seed: int = 0,
                          knowledge_keys: tuple = ("n", "D")) -> TruncationExperiment:
    """Probability of a unique leader when stopped after T = f·D' rounds."""
    cc = CliqueCycle(n, d)
    d_prime = cc.params.num_cliques
    knowledge = _auto_knowledge(cc.topology, knowledge_keys, None)
    if fractions is None:
        fractions = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0]
    points = []
    for fraction in fractions:
        horizon = max(1, int(fraction * d_prime))
        leaders_counts = []
        for t in range(trials):
            network = Network.build(cc.topology, seed=seed * 31 + t)
            sim = Simulator(network, factory, seed=seed * 1009 + t,
                            knowledge=knowledge)
            result = sim.run(max_rounds=horizon)
            leaders_counts.append(result.num_leaders)
        points.append(TruncationPoint(
            horizon=horizon,
            fraction_of_diameter=horizon / d_prime,
            unique_leader_rate=sum(c == 1 for c in leaders_counts) / trials,
            mean_leaders=statistics.fmean(leaders_counts)))
    return TruncationExperiment(n=n, d=d, num_cliques=d_prime, points=points)


@dataclass
class CompletionStats:
    n: int
    d: int
    num_cliques: int
    diameter: int
    mean_rounds: float
    min_rounds: int
    max_rounds: int

    @property
    def rounds_over_diameter(self) -> float:
        return self.mean_rounds / max(1, self.diameter)


def completion_time_experiment(n: int, d: int, factory: ProcessFactory, *,
                               trials: int = 10, seed: int = 0,
                               knowledge_keys: tuple = ("n", "D"),
                               max_rounds: Optional[int] = None) -> CompletionStats:
    """Round counts of full (untruncated) runs on the clique-cycle."""
    cc = CliqueCycle(n, d)
    diameter = cc.topology.diameter()
    knowledge = _auto_knowledge(cc.topology, knowledge_keys, None,
                                diameter=diameter)
    rounds: List[int] = []
    for t in range(trials):
        network = Network.build(cc.topology, seed=seed * 31 + t)
        sim = Simulator(network, factory, seed=seed * 1009 + t,
                        knowledge=knowledge)
        result = sim.run(max_rounds=max_rounds)
        if not result.has_unique_leader:
            continue  # failed Monte Carlo runs carry no timing signal
        rounds.append(result.rounds)
    if not rounds:
        raise RuntimeError("no successful runs to time")
    return CompletionStats(
        n=n, d=d, num_cliques=cc.params.num_cliques, diameter=diameter,
        mean_rounds=statistics.fmean(rounds),
        min_rounds=min(rounds), max_rounds=max(rounds))
