"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show every algorithm in the registry with its claimed paper bounds.
``elect``
    Run one election (or several trials) on a generated graph.
``report``
    Run the claim-verification report: every registered paper claim
    re-derived through the cached experiment engine, checked against
    its claimed bound shape, and rendered as ``EXPERIMENTS.md`` +
    ``report.json`` (exit status 1 if any claim diverged).
``table1``
    Regenerate the paper's Table 1 — the report's summary section —
    from the same claim registry and result cache.
``lower-bound``
    Run the Theorem 3.1 (messages) or Theorem 3.13 (time) experiment.
``sweep``
    Run a declarative experiment grid (algorithms × graphs × params ×
    trials) through the parallel, cached engine of
    :mod:`repro.experiments`.
``bench-sim``
    Measure simulator throughput (events/sec, messages/sec) on a fixed
    grid and append the numbers to the ``BENCH_sim.json`` trajectory.
``timeline``
    Run one observed election and render its per-round time series
    (messages sent/delivered/dropped, status census) as sparklines,
    JSON, or CSV — or rebuild the same view from a saved ``--trace``
    JSONL file.
``lint``
    Run the repository's domain-specific static analysis
    (:mod:`repro.lint`): AST-level proofs of the determinism and
    contract invariants (seeded-RNG discipline, set-iteration order,
    kernel-registry consistency, Paper-claim docstrings, rebinding
    signatures).  Exit 1 on any violation — the CI blocking gate.

Global flags: ``-v``/``--verbose`` turns on DEBUG logging with
timestamps, ``-q``/``--quiet`` drops the ``...`` progress chatter;
``elect --trace events.jsonl`` records a structured execution trace
(``--trace-chrome trace.json`` for the chrome://tracing view), and
``sweep``/``report`` accept ``--progress`` for a live done/total
status line.

Graph specs are compact strings::

    ring:32          path:9        star:10        complete:20
    grid:5x6         torus:8x8     hypercube:4    regular:12:3
    er:100:0.08      er:100:m400   lollipop:6:5   clique:16384

``clique`` aliases ``complete``; cliques, rings, and full tori use
implicit O(1)-memory topologies, so large-n specs are first-class::

    python -m repro elect --graph clique:16384 --algorithm sublinear
    python -m repro bench-sim --grid large --auto-knowledge D --repeats 1

Examples::

    python -m repro elect --graph er:100:0.08 --algorithm least-el --trials 5
    python -m repro report --grid smoke --seed 0
    python -m repro table1 --grid smoke
    python -m repro lower-bound messages --sweep 14:24 20:48 28:96
    python -m repro sweep --algorithms least-el kingdom \
        --graphs ring:64 er:100:0.08 --trials 10 --workers 4 \
        --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .graphs import Topology
from .graphs.specs import parse_graph_spec
from .obs.log import configure_logging, get_logger

log = get_logger("cli")

#: ``progress=`` callback the subcommands hand to the engines: routed
#: through logging so ``-q`` silences it and ``-v`` timestamps it.
_log_progress = lambda msg: log.info("%s", msg)  # noqa: E731


def parse_graph(spec: str, seed: int = 0) -> Topology:
    """Parse a compact graph spec (see module docstring).

    CLI-flavored wrapper around :func:`repro.graphs.parse_graph_spec`:
    malformed specs exit with a message instead of raising.
    """
    try:
        return parse_graph_spec(spec, seed=seed)
    except ValueError as exc:
        raise SystemExit(str(exc))


# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    from .api import _ensure_registry

    registry = _ensure_registry()
    names = sorted(registry)
    columns = [("algorithm", names),
               ("result", [registry[n].result for n in names]),
               ("time", [registry[n].time for n in names]),
               ("messages", [registry[n].messages for n in names]),
               ("knows", [registry[n].knowledge for n in names]),
               ("backends", [",".join(registry[n].backends) for n in names])]
    widths = [max(len(header), *(len(v) for v in values))
              for header, values in columns]
    print("  ".join(h.ljust(w) for (h, _), w in zip(columns, widths))
          + "  description")
    for i, name in enumerate(names):
        cells = [values[i] for _, values in columns]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths))
              + f"  {registry[name].description}")
    return 0


def cmd_elect(args: argparse.Namespace) -> int:
    from .analysis import run_trials
    from .api import algorithm_spec
    from .sim.backend import normalize_backend
    from .sim.errors import BackendUnsupported
    from .sim.models import make_model

    topology = parse_graph(args.graph, seed=args.seed)
    try:
        backend = normalize_backend(args.backend)
        model = make_model(args.delay, args.crash, args.loss,
                           model_seed=args.model_seed)
        spec = algorithm_spec(args.algorithm, model)
        if model is not None:
            # Eager validation of graph-size-dependent model input
            # (e.g. an explicit crash schedule naming absent nodes), so
            # run_trials below never raises for bad CLI arguments.
            import random
            model.crash.schedule(topology.num_nodes, random.Random(0))
    except ValueError as exc:
        raise SystemExit(str(exc))
    tracer = None
    if args.trace or args.trace_chrome:
        from .obs import ChromeTracer, JsonlTracer, TeeTracer

        sinks = []
        if args.trace:
            sinks.append(JsonlTracer(args.trace))
        if args.trace_chrome:
            sinks.append(ChromeTracer(args.trace_chrome))
        tracer = sinks[0] if len(sinks) == 1 else TeeTracer(*sinks)
        if args.trials > 1:
            log.info("tracing trial 0 only (of %d trials)", args.trials)
    print(f"graph: {topology.name}  n={topology.num_nodes} "
          f"m={topology.num_edges} D={topology.diameter()}")
    if model is not None:
        knobs = {k: v for k, v in model.describe().items()
                 if v not in (None, 0)}
        print("model: " + " ".join(f"{k}={v}" for k, v in knobs.items()))
    try:
        stats = run_trials(topology, args.algorithm, trials=args.trials,
                           seed=args.seed, knowledge_keys=spec.needs,
                           max_rounds=args.max_rounds, model=model,
                           tracer=tracer, backend=backend)
    except BackendUnsupported as exc:
        raise SystemExit(str(exc))
    finally:
        if tracer is not None:
            tracer.close()
            for path in (args.trace, args.trace_chrome):
                if path:
                    log.info("trace written to %s", path)
    print(f"algorithm: {args.algorithm}  ({spec.description})")
    print(f"trials:    {stats.trials}")
    print(f"success:   {stats.success_rate:.2f}")
    if model is not None and not model.crash.is_null:
        print(f"surviving: {stats.surviving_success_rate:.2f}  "
              f"(unique leader among non-crashed nodes)")
    print(f"messages:  mean={stats.messages.mean:.0f} "
          f"min={stats.messages.minimum:.0f} max={stats.messages.maximum:.0f}")
    print(f"rounds:    mean={stats.rounds.mean:.0f} "
          f"min={stats.rounds.minimum:.0f} max={stats.rounds.maximum:.0f}")
    return 0 if stats.success_rate > 0 else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from .analysis import reproduce_table1

    table = reproduce_table1(grid=args.grid, seed=args.seed,
                             cache_dir=args.cache_dir, workers=args.workers,
                             progress=_log_progress)
    print(table)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from .report import CLAIMS, run_report, summary_table, write_report

    if args.list:
        width = max(len(cid) for cid in CLAIMS)
        for cid, claim in CLAIMS.items():
            print(f"{cid.ljust(width)}  {claim.result}: {claim.statement}")
        return 0

    progress_line = None
    on_cell = None
    if getattr(args, "progress", False):
        from .obs import ProgressLine

        progress_line = ProgressLine("report")
        on_cell = progress_line.update
    try:
        report = run_report(grid=args.grid, seed=args.seed,
                            cache_dir=args.cache_dir, workers=args.workers,
                            backend=args.backend, claim_ids=args.claims,
                            progress=_log_progress, on_cell=on_cell)
    except (KeyError, ValueError) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    finally:
        if progress_line is not None:
            progress_line.finish()

    out_dir = args.out
    if out_dir is None:
        # Only the canonical run — full registry, smoke grid — may
        # write to the default destination (the current directory,
        # normally the repo root): a --claims-filtered or --grid full
        # run would otherwise silently overwrite the committed artifact
        # with one CI's regression gate cannot be compared against.
        if args.claims or args.grid != "smoke" or args.seed != 0:
            out_dir = ""
            print("note: non-canonical run (claim filter, non-smoke "
                  "grid, or non-zero seed); not writing EXPERIMENTS.md/"
                  "report.json (pass --out to write)", file=sys.stderr)
        else:
            out_dir = "."
    if out_dir:
        paths = write_report(report, out_dir)
        for path in paths:
            print(f"wrote {path}", file=sys.stderr)

    print(summary_table(report))
    v = report.verdicts
    print(f"claims: {v['verified']} verified, {v['diverged']} diverged, "
          f"{v['skipped']} skipped; cells: {report.cells} total, "
          f"{report.executed} executed, {report.cached} cached")
    return 1 if v["diverged"] else 0


def cmd_lower_bound(args: argparse.Namespace) -> int:
    from .core import LeastElementElection
    from .lower_bounds import crossing_experiment, truncation_experiment

    if args.which == "messages":
        print("Theorem 3.1: messages before bridge crossing on dumbbells")
        print(f"{'n':>5} {'m':>6} {'m1':>6} {'mean msgs':>10} {'cost/m1':>8}")
        for pair in args.sweep:
            n, m = (int(x) for x in pair.split(":"))
            exp = crossing_experiment(n, m, LeastElementElection,
                                      trials=args.trials, seed=args.seed)
            print(f"{n:>5} {m:>6} {exp.m1:>6} "
                  f"{exp.mean_messages_before_crossing:>10.1f} "
                  f"{exp.mean_messages_before_crossing / exp.m1:>8.2f}")
    else:
        print("Theorem 3.13: unique-leader probability vs truncation horizon")
        exp = truncation_experiment(args.n, args.d, LeastElementElection,
                                    trials=args.trials, seed=args.seed)
        print(f"clique-cycle: D'={exp.num_cliques}")
        print(f"{'T':>6} {'T/D_prime':>10} {'P(unique)':>10}")
        for p in exp.points:
            print(f"{p.horizon:>6} {p.fraction_of_diameter:>10.2f} "
                  f"{p.unique_leader_rate:>10.2f}")
    return 0


def _parse_param_value(text: str):
    """CLI param literal: int if it looks like one, else float, else str."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def cmd_sweep(args: argparse.Namespace) -> int:
    from .api import run_sweep
    from .sim.errors import SimulationError

    params = {}
    for entry in args.param or []:
        name, _, values = entry.partition("=")
        if not values:
            raise SystemExit(f"bad --param {entry!r}; expected name=v1,v2,...")
        params[name] = [_parse_param_value(v) for v in values.split(",")]
    knowledge = {}
    for entry in args.knowledge or []:
        name, _, value = entry.partition("=")
        try:
            knowledge[name] = int(value)
        except ValueError:
            raise SystemExit(f"bad --knowledge {entry!r}; expected key=int")

    progress_line = None
    on_cell = None
    if args.progress:
        from .obs import ProgressLine

        progress_line = ProgressLine(args.name)
        on_cell = progress_line.update
    try:
        sweep = run_sweep(
            name=args.name, task=args.task,
            algorithms=args.algorithms or [None],
            graphs=args.graphs or [None],
            params=params, trials=args.trials, seed=args.seed,
            knowledge=knowledge, auto_knowledge=args.auto_knowledge or (),
            wakeup=args.wakeup, ids=args.ids,
            congest_bits=args.congest_bits, max_rounds=args.max_rounds,
            delay=args.delay, crash=args.crash, loss=args.loss,
            model_seed=args.model_seed, backend=args.backend,
            cache_dir=args.cache_dir, workers=args.workers,
            progress=_log_progress, on_cell=on_cell,
            batch_trials=not args.no_batch)
    except (KeyError, ValueError, SimulationError) as exc:
        # str(KeyError) is the repr of its argument; unwrap for a clean
        # one-line message.
        raise SystemExit(exc.args[0] if exc.args else str(exc))
    finally:
        if progress_line is not None:
            progress_line.finish()

    groups = sweep.groups()
    width = max((len(g.label) for g in groups), default=5)
    print(f"{'configuration'.ljust(width)} {'cells':>5} {'success':>8} "
          f"{'messages':>10} {'dropped':>8} {'rounds':>8}")
    for g in groups:
        success = ("-" if g.success_rate is None
                   else f"{g.success_rate:.2f}")
        messages = (f"{g.mean('messages'):.1f}"
                    if "messages" in g.metrics else "-")
        dropped = (f"{g.mean('messages_dropped'):.1f}"
                   if "messages_dropped" in g.metrics else "-")
        rounds = f"{g.mean('rounds'):.1f}" if "rounds" in g.metrics else "-"
        print(f"{g.label.ljust(width)} {g.cells:>5} {success:>8} "
              f"{messages:>10} {dropped:>8} {rounds:>8}")
    if sweep.cells and sweep.executed == 0:
        # A fully cache-served sweep used to be easy to misread as "did
        # nothing": say so explicitly on stdout.
        print(f"all {sweep.cells} cells served from cache (0 executed)")
    else:
        print(f"cells: {sweep.cells} total, {sweep.executed} executed, "
              f"{sweep.cached} cached")
    if sweep.telemetry is not None:
        log.info("%s", sweep.telemetry.summary())
    return 0


def cmd_bench_sim(args: argparse.Namespace) -> int:
    from .sim.bench import (BATCH_GRIDS, GRIDS, append_snapshot, format_rows,
                            run_batch_grid, run_grid, snapshot)
    from .sim.errors import BackendUnsupported

    if not args.point and args.grid in BATCH_GRIDS:
        try:
            rows = run_batch_grid(
                BATCH_GRIDS[args.grid], seed=args.seed,
                max_rounds=args.max_rounds,
                auto_knowledge=tuple(args.auto_knowledge or ()),
                backend=args.backend or "columnar",
                progress=_log_progress)
        except (KeyError, ValueError, BackendUnsupported) as exc:
            raise SystemExit(exc.args[0] if exc.args else str(exc))
        print(format_rows(rows))
        snap = snapshot(rows, label=args.label)
        if args.out:
            append_snapshot(args.out, snap)
            print(f"appended snapshot to {args.out}")
        return 0

    if args.point:
        grid = []
        for entry in args.point:
            parts = entry.split("@")
            if len(parts) not in (2, 3, 4) or not parts[1]:
                raise SystemExit(f"bad --point {entry!r}; expected "
                                 f"ALGORITHM@GRAPHSPEC[@DELAY][@BACKEND] "
                                 f"('-' for no delay), e.g. "
                                 f"flood-max@complete:512, "
                                 f"least-el@complete:128@uniform:4, or "
                                 f"flood-max@clique:4096@-@columnar")
            grid.append(tuple(parts))
    else:
        grid = list(GRIDS[args.grid])

    try:
        rows = run_grid(grid, seed=args.seed, repeats=args.repeats,
                        max_rounds=args.max_rounds,
                        auto_knowledge=tuple(args.auto_knowledge or ()),
                        backend=args.backend,
                        profile=args.profile,
                        progress=_log_progress)
    except (KeyError, ValueError, BackendUnsupported) as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc))

    print(format_rows(rows))
    if args.profile:
        for row in rows:
            prof = row.get("profile")
            if prof:
                parts = " ".join(
                    f"{k}={prof[k]:.3f}s"
                    for k in ("scheduler", "algorithm", "metrics",
                              "model", "other"))
                print(f"profile {row['algorithm']}@{row['graph']}: {parts} "
                      f"(total {prof['total_s']:.3f}s)")
    snap = snapshot(rows, label=args.label)
    if args.out:
        append_snapshot(args.out, snap)
        print(f"appended snapshot to {args.out}")
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    import json as _json

    from .obs import Timeline

    if args.from_trace:
        from .obs import read_trace

        try:
            events = read_trace(args.from_trace)
        except (OSError, ValueError) as exc:
            raise SystemExit(str(exc))
        timeline = Timeline.from_trace(events)
        label = args.from_trace
    else:
        if not args.graph:
            raise SystemExit("timeline needs --graph (or --from-trace PATH)")
        from .api import run_algorithm
        from .sim.models import make_model

        topology = parse_graph(args.graph, seed=args.seed)
        try:
            model = make_model(args.delay, args.crash, args.loss,
                               model_seed=args.model_seed)
            result = run_algorithm(topology, args.algorithm, seed=args.seed,
                                   model=model, max_rounds=args.max_rounds,
                                   timeline=True)
        except (KeyError, ValueError) as exc:
            raise SystemExit(exc.args[0] if exc.args else str(exc))
        timeline = result.timeline
        label = f"{args.algorithm}@{args.graph} seed={args.seed}"
    assert timeline is not None
    if args.json:
        print(_json.dumps(timeline.to_json(), indent=1))
    elif args.csv:
        sys.stdout.write(timeline.to_csv())
    else:
        print(timeline.render(width=args.width, label=label))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import all_rules, lint_paths, render_json, render_text

    if args.list_rules:
        rules = all_rules()
        width = max(len(code) for code in rules)
        for code in sorted(rules):
            rule = rules[code]
            print(f"{code.ljust(width)}  [{rule.severity.value}]  "
                  f"{rule.summary}")
        return 0

    def split(values):
        if values is None:
            return None
        return [c for v in values for c in v.split(",") if c]

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    try:
        result = lint_paths(paths, select=split(args.select),
                            ignore=split(args.ignore))
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Universal leader election (Kutten et al., PODC'13/JACM'15) "
                    "— reproduction toolkit")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="DEBUG logging with timestamps (repeatable)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="suppress '...' progress chatter "
                             "(warnings still shown)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available algorithms")

    elect = sub.add_parser("elect", help="run an election on a graph")
    elect.add_argument("--graph", required=True,
                       help="graph spec, e.g. ring:32 or er:100:0.08")
    elect.add_argument("--algorithm", default="least-el")
    elect.add_argument("--trials", type=int, default=1)
    elect.add_argument("--seed", type=int, default=0)
    elect.add_argument("--max-rounds", type=int, default=10 ** 7)
    elect.add_argument("--backend", default=None,
                       help="engine backend: event-loop (default) | columnar "
                            "(vectorized NumPy engine) | net (real loopback "
                            "TCP sockets, one asyncio task per node); "
                            "non-default backends refuse unsupported "
                            "requests rather than approximating")
    elect.add_argument("--delay",
                       help="message delay: Δ | fixed:Δ | uniform:Δ | "
                            "adversarial:Δ (default: synchronous, Δ=1)")
    elect.add_argument("--crash",
                       help="crash-stop faults: COUNT[:MAX_ROUND] | "
                            "at:NODE@ROUND,...")
    elect.add_argument("--loss", type=float,
                       help="per-message loss probability in [0, 1]")
    elect.add_argument("--model-seed", type=int, default=0,
                       help="seed of the model's adversary randomness")
    elect.add_argument("--trace", metavar="PATH",
                       help="write a JSONL execution trace of trial 0 "
                            "(see repro.obs; replayable/validatable)")
    elect.add_argument("--trace-chrome", metavar="PATH",
                       help="write a chrome://tracing / Perfetto trace "
                            "of trial 0")

    table1 = sub.add_parser(
        "table1", help="regenerate the paper's Table 1 (the report's "
                       "summary section)")
    table1.add_argument("--grid", choices=["smoke", "full"], default="smoke",
                        help="claim-registry experiment scale")
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument("--workers", type=int, default=1)
    table1.add_argument("--cache-dir", default=".repro-cache",
                        help="shared report result cache; a warm run does "
                             "no simulation work ('' to disable)")

    rep = sub.add_parser(
        "report", help="run the claim-verification report "
                       "(EXPERIMENTS.md + report.json)")
    rep.add_argument("--grid", choices=["smoke", "full"], default="smoke",
                     help="experiment scale per claim (smoke = CI-sized)")
    rep.add_argument("--seed", type=int, default=0,
                     help="base seed; the whole report is deterministic "
                          "from it")
    rep.add_argument("--claims", nargs="+", metavar="ID",
                     help="verify only these claim ids (others are "
                          "reported as skipped); see --list")
    rep.add_argument("--list", action="store_true",
                     help="list registered claims and exit")
    rep.add_argument("--out", default=None,
                     help="directory for EXPERIMENTS.md and report.json "
                          "(default: current directory for canonical "
                          "full-registry smoke runs, no write otherwise; "
                          "'' to skip writing)")
    rep.add_argument("--backend", default=None,
                     help="engine backend for every claim's cells "
                          "(event-loop default | columnar | net); verdicts "
                          "and cache rows are backend-independent")
    rep.add_argument("--workers", type=int, default=1,
                     help="worker processes (results identical to serial)")
    rep.add_argument("--cache-dir", default=".repro-cache",
                     help="on-disk result cache; re-runs are free "
                          "('' to disable)")
    rep.add_argument("--progress", action="store_true",
                     help="live done/total status line per claim sweep "
                          "(plain checkpoint lines without a TTY)")

    lb = sub.add_parser("lower-bound", help="run a Section 3 experiment")
    lb.add_argument("which", choices=["messages", "time"])
    lb.add_argument("--sweep", nargs="+", default=["14:24", "20:48", "28:96"],
                    help="n:m pairs per dumbbell half (messages mode)")
    lb.add_argument("--n", type=int, default=48)
    lb.add_argument("--d", type=int, default=16)
    lb.add_argument("--trials", type=int, default=10)
    lb.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="run a declarative experiment grid (repro.experiments)")
    sweep.add_argument("--name", default="cli-sweep",
                       help="experiment name (names the cache file)")
    sweep.add_argument("--task", default="elect",
                       help="registered task or module:function path")
    sweep.add_argument("--algorithms", nargs="+",
                       help="algorithm registry names (one grid axis)")
    sweep.add_argument("--graphs", nargs="+",
                       help="graph specs, e.g. ring:64 er:100:0.08")
    sweep.add_argument("--param", action="append", metavar="NAME=V1,V2,...",
                       help="extra grid axis (repeatable)")
    sweep.add_argument("--knowledge", action="append", metavar="KEY=INT",
                       help="explicit knowledge override (repeatable)")
    sweep.add_argument("--auto-knowledge", nargs="+", metavar="KEY",
                       choices=["n", "m", "D"],
                       help="extra knowledge derived from each cell's graph")
    sweep.add_argument("--trials", type=int, default=5)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--wakeup", help="simultaneous | adversarial[:frac[:delay]]")
    sweep.add_argument("--ids", help="random | sequential[:start] | reversed[:start]")
    sweep.add_argument("--congest-bits", type=int)
    sweep.add_argument("--max-rounds", type=int)
    sweep.add_argument("--delay", nargs="+", metavar="SPEC",
                       help="execution-model delay axis: Δ | fixed:Δ | "
                            "uniform:Δ | adversarial:Δ (repeat values to "
                            "sweep)")
    sweep.add_argument("--crash", nargs="+", metavar="SPEC",
                       help="crash-fault axis: COUNT[:MAX_ROUND] | "
                            "at:NODE@ROUND,... (repeat values to sweep)")
    sweep.add_argument("--loss", nargs="+", type=float, metavar="RATE",
                       help="message-loss axis: probabilities in [0, 1]")
    sweep.add_argument("--backend", default=None,
                       help="engine backend for every cell (event-loop "
                            "default | columnar | net); cache rows are "
                            "shared across backends")
    sweep.add_argument("--model-seed", type=int, default=0,
                       help="seed of the model's adversary randomness")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (results identical to serial)")
    sweep.add_argument("--cache-dir",
                       help="on-disk result cache; re-runs are free")
    sweep.add_argument("--progress", action="store_true",
                       help="live done/total status line with ETA "
                            "(plain checkpoint lines without a TTY); "
                            "batched cell groups are reported distinctly")
    sweep.add_argument("--no-batch", action="store_true",
                       help="never group same-configuration trials into "
                            "one batched engine call (results are "
                            "identical either way; this is a speed knob)")

    bench = sub.add_parser(
        "bench-sim",
        help="measure simulator throughput and append it to BENCH_sim.json")
    bench.add_argument("--grid",
                       choices=["default", "tiny", "delay", "large",
                                "large-smoke", "vector", "vector-smoke",
                                "batch", "batch-smoke", "net-smoke"],
                       default="default",
                       help="predefined measurement grid ('large' is the "
                            "implicit-topology n>=16k series; 'vector' the "
                            "event-loop/columnar A/B series incl. the "
                            "million-node point; 'batch' the trial-batched "
                            "vs sequential A/B series over whole trial "
                            "axes; run them with --auto-knowledge D; "
                            "'net-smoke' the real-socket vs event-loop A/B "
                            "series on small graphs)")
    bench.add_argument("--point", action="append",
                       metavar="ALGORITHM@GRAPHSPEC[@DELAY][@BACKEND]",
                       help="explicit grid point (repeatable); overrides "
                            "--grid ('-' for no delay)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="simulations per point (best wall time kept)")
    bench.add_argument("--auto-knowledge", nargs="+", metavar="KEY",
                       choices=["n", "m", "D"],
                       help="extra graph-derived knowledge granted to every "
                            "point (e.g. D makes flood-max the O(D) baseline)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument("--backend", default=None,
                       help="default engine backend for points without an "
                            "explicit @BACKEND element (event-loop | "
                            "columnar | net)")
    bench.add_argument("--max-rounds", type=int)
    bench.add_argument("--label", default="",
                       help="free-form tag stored with the snapshot")
    bench.add_argument("--out", default="BENCH_sim.json",
                       help="trajectory file to append to ('' to skip writing)")
    bench.add_argument("--profile", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="one extra cProfile run per point, recorded as "
                            "scheduler/algorithm/metrics/model buckets "
                            "(wall numbers stay unprofiled)")

    timeline = sub.add_parser(
        "timeline",
        help="render an election's per-round time series (repro.obs)")
    timeline.add_argument("--graph",
                          help="graph spec to simulate, e.g. clique:256")
    timeline.add_argument("--algorithm", default="least-el")
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument("--max-rounds", type=int, default=10 ** 7)
    timeline.add_argument("--delay",
                          help="message delay: Δ | fixed:Δ | uniform:Δ | "
                               "adversarial:Δ")
    timeline.add_argument("--crash",
                          help="crash-stop faults: COUNT[:MAX_ROUND] | "
                               "at:NODE@ROUND,...")
    timeline.add_argument("--loss", type=float,
                          help="per-message loss probability in [0, 1]")
    timeline.add_argument("--model-seed", type=int, default=0)
    timeline.add_argument("--from-trace", metavar="PATH",
                          help="rebuild the timeline from a saved JSONL "
                               "trace instead of simulating")
    timeline.add_argument("--width", type=int, default=60,
                          help="sparkline width in cells")
    timeline.add_argument("--json", action="store_true",
                          help="emit the rows as JSON instead of sparklines")
    timeline.add_argument("--csv", action="store_true",
                          help="emit the rows as CSV instead of sparklines")

    lint = sub.add_parser(
        "lint",
        help="run the repository's static-analysis rules (repro.lint)")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint "
                           "(default: src/ when present, else .)")
    lint.add_argument("--select", action="append", metavar="CODES",
                      help="run only rules matching these comma-separated "
                           "codes or prefixes (e.g. RL1,RL301); repeatable")
    lint.add_argument("--ignore", action="append", metavar="CODES",
                      help="drop rules matching these comma-separated "
                           "codes or prefixes; repeatable")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="output format (json is the CI artifact; "
                           "schema in repro.lint.reporting)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list registered rules with severities and exit")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    handlers = {
        "list": cmd_list,
        "elect": cmd_elect,
        "table1": cmd_table1,
        "report": cmd_report,
        "lower-bound": cmd_lower_bound,
        "sweep": cmd_sweep,
        "bench-sim": cmd_bench_sim,
        "timeline": cmd_timeline,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
