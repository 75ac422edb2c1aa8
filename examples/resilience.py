#!/usr/bin/env python
"""How do the paper's elections behave when the rest of the adversary
is switched on?

The paper proves its Table 1 bounds in the clean synchronous model:
message delays are exactly one round, nodes never fail, links never
drop.  The execution-model layer (``repro.sim.models``) turns on the
standard extensions — bounded delays Δ, crash-stop faults, lossy links
— and this script measures what that does to *correctness*, sweeping
two representative algorithms over cliques and rings:

* **least-el** (Section 4.2) is wave-driven: it mostly tolerates
  delays in [1, Δ] (time stretches by ≤ Δ) though message *reordering*
  can occasionally stall a wave, and a single lost or crash-swallowed
  message usually does.
* **kingdom** (Theorem 4.10 / Algorithm 2) re-floods its kingdom
  claims, which makes it surprisingly robust to moderate loss — at the
  price of extra messages — but crashes can still behead a kingdom.
  Kingdom is proved for lock-step rounds, so it sits out the *delay*
  sweep: under Δ > 1 a run may raise ``ModelViolation`` (a conquest
  wave re-sends over a port that still holds a delayed message) or
  silently end with zero or several leaders.  ``repro.api`` marks it
  ``delay_tolerant=False`` and every named run refuses it under delays.

Two success columns are reported: ``success`` is the paper's strict
condition (every node decided, exactly one leader), ``surviving`` the
crash-tolerant one (the condition restricted to non-crashed nodes).

Pass a directory as argv[1] to cache results there; a second run with
the same grids executes zero simulations.

Usage:  python examples/resilience.py [cache_dir]
"""

import sys

from repro import run_sweep
from repro.api import _ensure_registry

ALGORITHMS = ["least-el", "kingdom"]
GRAPHS = ["complete:24", "ring:24"]
TRIALS = 10


def delay_tolerant(algorithms):
    """Split ``algorithms`` into (delay-capable, synchronous-only)."""
    registry = _ensure_registry()
    capable = [a for a in algorithms if registry[a].delay_tolerant]
    return capable, [a for a in algorithms if a not in capable]


def print_table(title, sweep, axis):
    print(f"\n{title}")
    print(f"{'configuration':<34} {axis:>12} {'success':>8} "
          f"{'surviving':>10} {'sent':>7} {'dropped':>8} {'rounds':>7}")
    for g in sweep.groups():
        base = " ".join(b for b in (g.algorithm, g.graph) if b)
        value = g.model.get(axis, "-")
        surviving = g.rates.get("success_surviving")
        print(f"{base:<34} {str(value):>12} {g.success_rate:>8.2f} "
              f"{surviving:>10.2f} {g.mean('messages'):>7.0f} "
              f"{g.mean('messages_dropped'):>8.1f} {g.mean('rounds'):>7.0f}")


def main() -> None:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else None
    common = dict(algorithms=ALGORITHMS, graphs=GRAPHS, trials=TRIALS,
                  seed=9, max_rounds=10 ** 6, cache_dir=cache_dir,
                  progress=lambda msg: print(f"... {msg}", file=sys.stderr))

    delay_algos, skipped = delay_tolerant(ALGORITHMS)
    if skipped:
        print(f"... delay sweep: skipping {', '.join(skipped)} "
              "(synchronous-only: refused under Δ > 1 delays)",
              file=sys.stderr)
    delays = run_sweep(name="resilience-delay",
                       delay=["1", "uniform:2", "uniform:4"],
                       **{**common, "algorithms": delay_algos})
    print_table("Delay: correctness under bounded message delays Δ",
                delays, "delay")

    crashes = run_sweep(name="resilience-crash",
                        crash=[0, 1, 2, 4], **common)
    print_table("Crash-stop: correctness vs number of crashed nodes",
                crashes, "crash")

    losses = run_sweep(name="resilience-loss",
                       loss=[0, 0.01, 0.05], **common)
    print_table("Loss: correctness vs per-message drop probability",
                losses, "loss")

    print("\nReadings: wave algorithms (least-el) largely shrug off "
          "pure delay (rounds stretch, correctness mostly holds) but "
          "stall under loss; kingdom's re-flooding buys loss tolerance "
          "at extra message cost; neither was designed for crash "
          "faults — that gap is exactly what this axis measures.")


if __name__ == "__main__":
    main()
