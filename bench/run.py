"""Benchmark of the repro pipeline, driven only through its CLI.

    python bench/run.py                              # every workload
    python bench/run.py --workload report-cold --seed 3 --seconds 12
    python bench/run.py --trace                      # per-layer metrics
    python bench/run.py --record-golden [--force]    # re-pin outputs

Load model: a closed loop with one client.  One pass at a time, each
command of a pass a fresh interpreter (``python -m repro ...``) with a
fresh cache and output directory; program caches are never pre-filled
(except the warm-report workload's, primed by an untimed run), because
users pay for them on every run.  Each workload first runs one
discarded warm-up pass, then passes until ``--seconds`` have elapsed
(at least three), with the ``setup_s`` samples spread between them.
Every pass is checked against ``bench/golden.json``.

``--seed S`` picks the program seed ``golden.seeds[S % len]``: the
recorded seeds are those on which every workload succeeds (at smoke
scale some seeds make a statistical claim diverge, which the report
rightly exits 1 for), and each has a pinned output digest.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace``.  Metric
names get a ``<workload>.`` prefix when several workloads ran.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from harness import (BENCH_DIR, OUT_DIR, SRC, become_subreaper, load_spec,
                     provenance, run_command, summarize, tail)
from spans import layer_metrics, merge
from workloads import (WORKLOADS, Workload, command_digest, pass_digest,
                       serial_argv, uses_pool, verdict_problem,
                       without_backend)

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
SPANS_SCRIPT = os.path.join(BENCH_DIR, "spans.py")
#: Wall-clock limit of one command; a hung pass is killed and counted.
PASS_TIMEOUT_S = 120.0
#: Time one workload may take in total, set-up and warm-up included, so
#: a single-workload invocation always ends within three minutes.
WORKLOAD_BUDGET_S = 160.0
#: Fresh ``repro list`` runs whose median is ``setup_s``.
SETUP_RUNS = 15
MIN_PASSES = 3
#: Program seeds pinned by ``--record-golden``.
GOLDEN_SEEDS = 16
GOLDEN_CANDIDATES = 64


def log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


@dataclass
class Pass:
    """One workload pass: every command, in order, in fresh directories."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    digest: Optional[str] = None
    problem: Optional[str] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Time spent inside the CLI's ``main`` (traced passes only).
    traced_wall_s: float = 0.0


def run_pass(workload: Workload, seed: int, *, work: str, deadline: float,
             primed: Optional[str] = None, traced: bool = False,
             serial: bool = False, event_loop: bool = False) -> Pass:
    """Run ``workload``'s commands once and check their verdicts.

    ``serial`` forces ``--workers 1``; ``traced`` runs each command
    under :mod:`spans` (serially, so every span is in one process);
    ``event_loop`` drops ``--backend``.
    """
    result = Pass()
    pass_dir = tempfile.mkdtemp(prefix="pass-", dir=work)
    try:
        cache = os.path.join(pass_dir, "cache")
        out = os.path.join(pass_dir, "out")
        if primed is not None:
            shutil.copytree(os.path.join(primed, "cache"), cache)
        os.makedirs(out)
        digests, records = [], []
        for k, command in enumerate(workload.commands):
            args = command.render(seed, cache, out)
            if serial or traced:
                args = serial_argv(args)
            if event_loop:
                args = without_backend(args)
            spans_path = os.path.join(pass_dir, f"spans-{k}.json")
            if traced:
                argv = [sys.executable, SPANS_SCRIPT, spans_path, "--", *args]
            else:
                argv = [sys.executable, "-m", "repro", *args]
            timeout = min(PASS_TIMEOUT_S, deadline - time.monotonic())
            run = run_command(argv, cwd=pass_dir, timeout=timeout,
                              log_prefix=os.path.join(pass_dir, f"cmd-{k}"))
            result.wall_s += run.wall_s
            result.peak_rss_mb = max(result.peak_rss_mb, run.peak_rss_mb)
            if run.timed_out:
                result.problem = f"{args[0]} killed after {timeout:.0f} s"
                return result
            problem = verdict_problem(command, run.returncode, run.stdout)
            if problem is not None:
                result.problem = (f"{args[0]}: {problem} [{tail(run.stdout, 1)}"
                                  f" | {tail(run.stderr, 1)}]")
                return result
            digests.append(command_digest(command, run.stdout, cache, out))
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    records.append(json.load(fh))
        result.digest = pass_digest(digests)
        result.spans = merge(records)
        result.traced_wall_s = sum(r["wall_s"] for r in records)
        return result
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def prime(workload: Workload, seed: int, *, work: str,
          deadline: float) -> str:
    """A directory whose ``cache`` was filled by one untimed run of
    ``workload``'s commands."""
    primed = tempfile.mkdtemp(prefix="primed-", dir=work)
    cache = os.path.join(primed, "cache")
    out = os.path.join(primed, "out")
    os.makedirs(out)
    for k, command in enumerate(workload.commands):
        args = command.render(seed, cache, out)
        run = run_command([sys.executable, "-m", "repro", *args], cwd=primed,
                          timeout=min(PASS_TIMEOUT_S,
                                      deadline - time.monotonic()),
                          log_prefix=os.path.join(primed, f"cmd-{k}"))
        if run.returncode != 0 or run.timed_out:
            raise RuntimeError(f"priming {workload.name} failed: exit "
                               f"{run.returncode} [{tail(run.stderr)}]")
    return primed


class Checker:
    """Compares pass digests with the golden, or, for a program seed
    without one, with the first digest this invocation saw."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.reference = expected

    @property
    def status(self) -> str:
        return "checked" if self.expected is not None else "unchecked"

    def check(self, result: Pass) -> Pass:
        if result.problem is not None:
            return result
        if self.reference is None:
            self.reference = result.digest
        elif result.digest != self.reference:
            what = "golden" if self.expected else "first pass"
            result.problem = (f"output digest {result.digest[:12]} != "
                              f"{what} {self.reference[:12]}")
        return result


def _room_for(group_walls: List[float], deadline: float) -> bool:
    """Whether another group of passes fits before ``deadline``, judged
    by the slowest group so far with a twofold margin."""
    return deadline - time.monotonic() > 2 * max(group_walls) + 5


class SetupProbe:
    """``setup_s`` samples: fresh ``repro list`` runs (interpreter,
    imports, registries), the cost every command pays first.  They are
    spread over the measuring window, so one burst of load on a shared
    machine cannot set their median."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.samples: List[float] = []
        self.problems: List[str] = []

    def take(self, upto: int) -> None:
        """Run samples until ``upto`` have been taken."""
        while len(self.samples) + len(self.problems) < min(upto, SETUP_RUNS):
            run = run_command([sys.executable, "-m", "repro", "list"],
                              cwd=self.work, timeout=PASS_TIMEOUT_S,
                              log_prefix=os.path.join(self.work, "setup"))
            if run.returncode == 0 and "flood-max" in run.stdout:
                self.samples.append(run.wall_s)
            else:
                self.problems.append(f"repro list: exit {run.returncode} "
                                     f"[{tail(run.stderr)}]")


def _metric(samples: List[float], unit: str,
            value: Optional[float] = None) -> Dict[str, Any]:
    stats = summarize(samples)
    if value is None:
        # Counts stay whole numbers: the median of an even number of
        # them would be a float.
        value = (statistics.median_low(samples)
                 if all(isinstance(s, int) for s in samples)
                 else stats["median"])
    return {"value": value, "unit": unit, **stats, "samples": samples}


def bench_workload(workload: Workload, seed: int, golden: Dict[str, Any],
                   seconds: float, trace: bool, work: str) -> Dict[str, Any]:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    program_seed = program_seed_for(seed, golden)
    expected = golden.get("digests", {}).get(workload.name, {}).get(
        str(program_seed))
    checker = Checker(expected)
    result: Dict[str, Any] = {
        "program_seed": program_seed, "digest": None,
        "digest_status": checker.status, "attempted": 0, "failed": 0,
        "failed_frac": 0.0, "failures": [], "metrics": {}}
    try:
        primed = (prime(workload, program_seed, work=work, deadline=deadline)
                  if workload.warm_cache else None)
    except RuntimeError as exc:
        result["failures"].append(str(exc))
        return result

    def one(**kwargs: Any) -> Pass:
        p = checker.check(run_pass(workload, program_seed, work=work,
                                   deadline=deadline, primed=primed,
                                   **kwargs))
        label = ("traced" if kwargs.get("traced") else
                 "serial" if kwargs.get("serial") else "pass")
        log(f"{workload.name} {label}: {p.wall_s:.3f} s"
            + (f" FAILED {p.problem}" if p.problem else ""))
        return p

    pooled = any(uses_pool(list(c.argv)) for c in workload.commands)
    setup = SetupProbe(work)
    group_walls = [one(serial=trace).wall_s]  # the discarded warm-up
    attempted: List[Pass] = []
    t0 = time.monotonic()
    groups: List[Dict[str, Pass]] = []
    while ((len(groups) < (1 if trace else MIN_PASSES)
            or time.monotonic() - t0 < seconds)
           and _room_for(group_walls, deadline)):
        if not trace:
            share = (time.monotonic() - t0) / seconds if seconds > 0 else 1
            setup.take(math.ceil(SETUP_RUNS * share))
        if trace:
            group = {"serial": one(serial=True)}
            if pooled:
                group["pool"] = one()
            group["traced"] = one(traced=True)
        else:
            group = {"pass": one()}
        groups.append(group)
        attempted.extend(group.values())
        group_walls.append(sum(p.wall_s for p in group.values()))

    def ok(kind: str) -> List[Pass]:
        return [g[kind] for g in groups
                if kind in g and g[kind].problem is None]

    metrics = result["metrics"]
    if trace:
        traced, serial = ok("traced"), ok("serial")
        if traced and serial:
            per_pass = [layer_metrics(p.spans, p.traced_wall_s)
                        for p in traced]
            for name in per_pass[0]:
                metrics[name] = _metric([m[name] for m in per_pass], "")
            base = summarize([p.wall_s for p in serial])["median"]
            overhead = [p.wall_s / base - 1.0 for p in traced]
            metrics["trace.overhead_frac"] = _metric(overhead, "")
            pool = ok("pool")
            speedup = ([base / p.wall_s for p in pool] if pool else [1.0])
            metrics["experiments.pool_speedup"] = _metric(speedup, "")
            with open(os.path.join(OUT_DIR, f"trace-{workload.name}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"workload": workload.name,
                           "program_seed": program_seed,
                           "spans": traced[-1].spans}, fh)
    else:
        setup.take(SETUP_RUNS)
        passes = ok("pass")
        if passes:
            metrics["wall_s"] = _metric([p.wall_s for p in passes], "s")
            rss = [p.peak_rss_mb for p in passes]
            metrics["peak_rss_mb"] = _metric(rss, "MB", value=max(rss))
        if setup.samples:
            metrics["setup_s"] = _metric(setup.samples, "s")
    failed = [p.problem for p in attempted if p.problem is not None]
    result["failures"].extend(failed + setup.problems)
    result.update(digest=checker.reference, attempted=len(attempted),
                  failed=len(failed),
                  failed_frac=len(failed) / max(1, len(attempted)))
    return result


# ----------------------------------------------------------------------
def load_golden() -> Dict[str, Any]:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def program_seed_for(seed: int, golden: Dict[str, Any]) -> int:
    seeds = golden.get("seeds")
    return seeds[seed % len(seeds)] if seeds else seed


def _on_net(workload: Workload) -> bool:
    return any(pair == ("--backend", "net") for c in workload.commands
               for pair in zip(c.argv, c.argv[1:]))


def record_golden(force: bool, work: str) -> int:
    """Pin the output digests of the first :data:`GOLDEN_SEEDS` program
    seeds on which every workload succeeds.  A workload on the net
    backend must also produce the same digest on the event loop."""
    if os.path.exists(GOLDEN_PATH) and not force:
        log(f"{GOLDEN_PATH} exists; pass --force to overwrite it")
        return 2
    deadline = time.monotonic() + 24 * 3600
    seeds: List[int] = []
    digests: Dict[str, Dict[str, str]] = {name: {} for name in WORKLOADS}
    for candidate in range(GOLDEN_CANDIDATES):
        if len(seeds) == GOLDEN_SEEDS:
            break
        row: Dict[str, str] = {}
        for name, workload in WORKLOADS.items():
            try:
                primed = (prime(workload, candidate, work=work,
                                deadline=deadline)
                          if workload.warm_cache else None)
            except RuntimeError as exc:
                log(f"seed {candidate}: {exc}; skipped")
                break
            result = run_pass(workload, candidate, work=work,
                              deadline=deadline, primed=primed)
            if primed is not None:
                shutil.rmtree(primed, ignore_errors=True)
            if result.problem is not None:
                log(f"seed {candidate}: {name} fails ({result.problem}); "
                    "skipped")
                break
            if _on_net(workload):
                reference = run_pass(workload, candidate, work=work,
                                     deadline=deadline, event_loop=True)
                if reference.digest != result.digest:
                    log(f"seed {candidate}: {name} differs from the same "
                        f"commands on the event loop ({reference.problem})")
                    return 1
            row[name] = result.digest
        else:
            seeds.append(candidate)
            for name, digest in row.items():
                digests[name][str(candidate)] = digest
            log(f"seed {candidate}: recorded")
    if len(seeds) < GOLDEN_SEEDS:
        log(f"only {len(seeds)} of {GOLDEN_CANDIDATES} seeds succeed")
        return 1
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    log(f"wrote {GOLDEN_PATH}")
    return 0


# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Benchmark the repro pipeline (see bench/README.md).")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend", metavar="NAME",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; selects the program seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"),
                        help="result file (metrics, samples, provenance)")
    parser.add_argument("--record-golden", action="store_true",
                        help="record bench/golden.json from the current "
                             "program")
    parser.add_argument("--force", action="store_true",
                        help="let --record-golden overwrite golden.json")
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no program sources at {SRC}; nothing to benchmark")
        return 2
    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        log(f"unknown workload(s) {', '.join(unknown)}; "
            f"choose from {', '.join(WORKLOADS)}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    become_subreaper()
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if args.record_golden:
            return record_golden(args.force, work)
        golden = load_golden()
        results = {name: bench_workload(WORKLOADS[name], args.seed, golden,
                                        seconds, bool(args.trace), work)
                   for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    line: Dict[str, Any] = {}
    correct = True
    for name, result in results.items():
        for metric, unit in units.items():
            entry = result["metrics"].get(metric)
            if entry is None:
                correct = False
                continue
            entry["unit"] = unit
            key = metric if len(results) == 1 else f"{name}.{metric}"
            line[key] = {"value": entry["value"], "unit": unit}
            print(f"{name:14} {metric:34} {_fmt(entry['value']):>12} "
                  f"{unit:6} median={_fmt(entry['median'])} "
                  f"q1={_fmt(entry['q1'])} q3={_fmt(entry['q3'])} "
                  f"n={entry['n']}")
        print(f"{name:14} {'failed_frac':34} "
              f"{_fmt(result['failed_frac']):>12} ratio  "
              f"({result['failed']}/{result['attempted']} passes)")
        print(f"{name:14} {'digest':34} {result['digest'] or '-'} "
              f"{result['digest_status']} "
              f"(program seed {result['program_seed']})")
        for problem in result["failures"]:
            print(f"{name:14} FAILED {problem}")
        correct = correct and not result["failures"]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"env": provenance(), "seed": args.seed,
                   "seconds": seconds, "trace": bool(args.trace),
                   "workloads": results}, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": line}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
