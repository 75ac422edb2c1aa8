"""Layer spans for a traced benchmark pass, recorded from outside.

Run as a script, this module executes one ``repro`` CLI command
in-process with wrappers around the public functions that sit on layer
boundaries, and writes the spans to a JSON file at exit::

    python bench/spans.py SPANS.json -- report --grid smoke --seed 0 ...

Each wrapper is installed where the function is looked up at call time
(a module global for functions imported by name, the class for methods),
and only when the program itself imports that module, so a traced run
imports exactly what an untraced one does.  No span sits inside an
engine: ``sim.run`` is one span, and counts come from return values.

Imported as a module, it turns span lists into the per-layer metrics
named in ``BENCHMARK.json`` (:func:`layer_metrics`).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence

#: The layers the per-layer metrics are grouped by (the metric name's
#: first component), the ``src/repro`` module each measures, the
#: end-to-end metrics a change to it should move, and the workloads on
#: which it is heavy or idle (where a change to it must show no effect).
LAYERS: Dict[str, Dict[str, Any]] = {
    "graphs": {"module": "repro.graphs", "moves": ["wall_s"],
               "heavy": ["report-cold", "sweep-modeled"],
               "idle": ["report-warm", "columnar", "net"]},
    "sim": {"module": "repro.sim", "moves": ["wall_s"],
            "heavy": ["report-cold", "sweep-modeled"],
            "idle": ["report-warm", "columnar"]},
    "lower_bounds": {"module": "repro.lower_bounds", "moves": ["wall_s"],
                     "heavy": ["report-cold"],
                     "idle": ["report-warm", "sweep-modeled", "columnar",
                              "net"]},
    "experiments": {"module": "repro.experiments", "moves": ["wall_s"],
                    "heavy": ["report-warm", "report-cold", "sweep-modeled",
                              "columnar"],
                    "idle": []},
    "report": {"module": "repro.report", "moves": ["wall_s"],
               "heavy": ["report-warm"],
               "idle": ["sweep-modeled", "columnar", "net"]},
    "columnar": {"module": "repro.sim.columnar",
                 "moves": ["wall_s", "peak_rss_mb"],
                 "heavy": ["columnar"],
                 "idle": ["report-cold", "report-warm", "sweep-modeled",
                          "net"]},
    "net": {"module": "repro.net", "moves": ["wall_s"], "heavy": ["net"],
            "idle": ["report-cold", "report-warm", "sweep-modeled",
                     "columnar"]},
    # The harness's own accounting; it measures no program module.
    "trace": {"module": None, "moves": [], "heavy": [], "idle": []},
}

#: (span name, module, attribute) for every wrapped function.
TARGETS = (
    ("graphs.parse", "repro.experiments.tasks", "parse_graph_spec"),
    ("graphs.parse", "repro.cli", "parse_graph_spec"),
    ("graphs.diameter", "repro.graphs.topology", "Topology.diameter"),
    ("graphs.network_build", "repro.graphs.network", "Network.build"),
    ("graphs.construct", "repro.graphs.clique_cycle", "CliqueCycle.__init__"),
    ("graphs.construct", "repro.graphs.dumbbell", "DumbbellSampler.__init__"),
    ("graphs.construct", "repro.graphs.dumbbell", "DumbbellSampler.sample"),
    ("sim.init", "repro.sim.scheduler", "Simulator.__init__"),
    ("sim.run", "repro.sim.scheduler", "Simulator.run"),
    ("lower_bounds.crossing_trial", "repro.lower_bounds.bridge_crossing",
     "run_crossing_trial"),
    ("experiments.sweep", "repro.experiments.runner", "Runner.run"),
    ("experiments.expand", "repro.experiments.spec", "ExperimentSpec.expand"),
    ("experiments.cell", "repro.experiments.runner", "execute_cell"),
    ("experiments.cell_group", "repro.experiments.tasks",
     "execute_elect_group"),
    ("experiments.cache.get", "repro.experiments.cache", "ResultCache.get"),
    ("experiments.cache.put", "repro.experiments.cache", "ResultCache.put"),
    ("experiments.aggregate", "repro.experiments.runner", "aggregate"),
    ("report.evaluate", "repro.report.claims", "CLAIMS"),
    ("report.render", "repro.report", "write_report"),
    ("report.render", "repro.report", "summary_table"),
    ("columnar.run", "repro.sim.columnar.engine", "run"),
    ("columnar.run_batch", "repro.sim.columnar.batch", "run_batch"),
    ("columnar.network_build", "repro.sim.columnar.batch", "build_network"),
    ("net.run", "repro.net.engine", "run"),
)


def _run_counts(result: Any) -> Dict[str, int]:
    m = result.metrics
    return {"messages": m.messages, "bits": m.bits,
            "activations": m.activations,
            "rounds_executed": m.rounds_executed}


#: Counts read off a wrapped call's return value, by span name.
COUNTS: Dict[str, Callable[[Any], Dict[str, int]]] = {
    "graphs.network_build": lambda net: {"nodes": net.num_nodes},
    "sim.run": _run_counts,
    "net.run": _run_counts,
    "experiments.cache.get": lambda hit: {"hits": int(hit is not None),
                                          "misses": int(hit is None)},
    "experiments.sweep": lambda sweep: {
        "executed": sweep.telemetry.executed,
        "batched_trials": sweep.telemetry.batched_trials},
    "report.evaluate": lambda evidence: {"verified": int(evidence.passed)},
    "columnar.run": lambda result: {"trials": 1},
    "columnar.run_batch": lambda results: {"trials": len(results)},
}


class Recorder:
    """Spans of one command, kept in memory until the command ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span: Dict[str, Any] = {
                "name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None, "run": 0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()
            if counts is not None:
                span["counts"] = counts(result)
            return result
        return traced

    def patch(self, module: Any, attribute: str, name: str) -> None:
        """Wrap ``module.attribute`` (``Class.method`` patches the class
        and every subclass that overrides the method)."""
        if attribute == "CLAIMS":
            # Claims are frozen records; swap each for a copy whose
            # evaluate is wrapped (the registry dict is shared by name).
            claims = getattr(module, attribute)
            for cid, claim in list(claims.items()):
                claims[cid] = dataclasses.replace(
                    claim, evaluate=self.wrap(claim.evaluate, name))
            return
        if "." not in attribute:
            setattr(module, attribute,
                    self.wrap(getattr(module, attribute), name))
            return
        cls_name, method = attribute.split(".")
        todo = [getattr(module, cls_name)]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self.wrap(raw.__func__, name)))
            else:
                setattr(cls, method, self.wrap(raw, name))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies pending patches right after their module first executes."""

    def __init__(self, pending: Dict[str, List[Callable[[Any], None]]]):
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        patches = self.pending.pop(fullname, None)
        if patches is None:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module: Any) -> None:
            exec_module(module)
            for patch in patches:
                patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(recorder: Recorder) -> None:
    """Arrange for every target to be wrapped when its module loads."""
    pending: Dict[str, List[Callable[[Any], None]]] = defaultdict(list)
    for name, module, attribute in TARGETS:
        pending[module].append(
            functools.partial(_apply, recorder, attribute, name))
    sys.meta_path.insert(0, _PatchOnImport(dict(pending)))


def _apply(recorder: Recorder, attribute: str, name: str, module: Any) -> None:
    recorder.patch(module, attribute, name)


# ----------------------------------------------------------------------
# Aggregation (parent side)
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for lo, hi in sorted((max(spans[c]["start"], start),
                              min(spans[c]["end"], end))
                             for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _outermost(spans: Sequence[Dict[str, Any]], i: int, prefix: str) -> bool:
    """True when no ancestor of span ``i`` is named with ``prefix``."""
    parent = spans[i]["parent"]
    while parent is not None:
        if spans[parent]["name"].startswith(prefix):
            return False
        parent = spans[parent]["parent"]
    return True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[Dict[str, Any]],
                  traced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``traced_wall_s`` is the time the commands spent inside the CLI's
    ``main`` (interpreter start-up and imports excluded), the base of
    ``trace.coverage``.  ``trace.overhead_frac`` and
    ``experiments.pool_speedup`` compare whole passes and are added by
    the caller.
    """
    calls: Counter = Counter()
    own: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    columnar_trials = 0
    columnar_s = 0.0
    for i, (span, self_s) in enumerate(zip(spans, self_times(spans))):
        name = span["name"]
        calls[name] += 1
        own[name] += self_s
        total[name] += span["end"] - span["start"]
        for key, value in span.get("counts", {}).items():
            counts[f"{name}.{key}"] += value
        if name.startswith("columnar.run") and _outermost(
                spans, i, "columnar.run"):
            columnar_trials += span.get("counts", {}).get("trials", 0)
            columnar_s += span["end"] - span["start"]
    hits = counts["experiments.cache.get.hits"]
    misses = counts["experiments.cache.get.misses"]
    sim_s = total["sim.run"]
    return {
        "graphs.parse.calls": calls["graphs.parse"],
        "graphs.parse.self_s": own["graphs.parse"],
        "graphs.diameter.calls": calls["graphs.diameter"],
        "graphs.diameter.self_s": own["graphs.diameter"],
        "graphs.network_build.calls": calls["graphs.network_build"],
        "graphs.network_build.self_s": own["graphs.network_build"],
        "graphs.network_build.nodes": counts["graphs.network_build.nodes"],
        "graphs.construct.self_s": own["graphs.construct"],
        "sim.run.calls": calls["sim.run"],
        "sim.run.self_s": own["sim.run"],
        "sim.init.self_s": own["sim.init"],
        "sim.messages": counts["sim.run.messages"],
        "sim.bits": counts["sim.run.bits"],
        "sim.activations": counts["sim.run.activations"],
        "sim.rounds_executed": counts["sim.run.rounds_executed"],
        "sim.events_per_s": _ratio(counts["sim.run.activations"], sim_s),
        "sim.messages_per_s": _ratio(counts["sim.run.messages"], sim_s),
        "lower_bounds.crossing_trial.calls":
            calls["lower_bounds.crossing_trial"],
        "lower_bounds.crossing_trial.self_s":
            own["lower_bounds.crossing_trial"],
        "experiments.sweep.self_s": own["experiments.sweep"],
        "experiments.expand.self_s": own["experiments.expand"],
        "experiments.cell.calls": calls["experiments.cell"],
        "experiments.cell.self_s": own["experiments.cell"],
        "experiments.cell_group.calls": calls["experiments.cell_group"],
        "experiments.cell_group.self_s": own["experiments.cell_group"],
        "experiments.cache.get.calls": calls["experiments.cache.get"],
        "experiments.cache.get.self_s": own["experiments.cache.get"],
        "experiments.cache.put.calls": calls["experiments.cache.put"],
        "experiments.cache.put.self_s": own["experiments.cache.put"],
        "experiments.cache.hit_ratio": _ratio(hits, hits + misses),
        "experiments.aggregate.self_s": own["experiments.aggregate"],
        "experiments.batched_trials":
            counts["experiments.sweep.batched_trials"],
        "experiments.batch_ratio": _ratio(
            counts["experiments.sweep.batched_trials"],
            counts["experiments.sweep.executed"]),
        "report.evaluate.calls": calls["report.evaluate"],
        "report.evaluate.self_s": own["report.evaluate"],
        "report.render.self_s": own["report.render"],
        "report.claims_verified": counts["report.evaluate.verified"],
        "columnar.run.calls": calls["columnar.run"],
        "columnar.run.self_s": own["columnar.run"],
        "columnar.run_batch.calls": calls["columnar.run_batch"],
        "columnar.run_batch.self_s": own["columnar.run_batch"],
        "columnar.network_build.self_s": own["columnar.network_build"],
        "columnar.trials": columnar_trials,
        "columnar.trials_per_s": _ratio(columnar_trials, columnar_s),
        "net.run.calls": calls["net.run"],
        "net.run.self_s": own["net.run"],
        "net.messages": counts["net.run.messages"],
        "net.rounds_executed": counts["net.run.rounds_executed"],
        "net.round_ms": _ratio(1000.0 * total["net.run"],
                               counts["net.run.rounds_executed"]),
        "trace.coverage": _ratio(sum(own.values()), traced_wall_s),
    }


def merge(commands: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One pass's span list from its commands' span files, with ``run``
    set to the command's index and parents re-indexed."""
    merged: List[Dict[str, Any]] = []
    for run, record in enumerate(commands):
        offset = len(merged)
        for span in record["spans"]:
            span = dict(span, run=run)
            if span["parent"] is not None:
                span["parent"] += offset
            merged.append(span)
    return merged


# ----------------------------------------------------------------------
def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS.json -- REPRO-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    t0 = time.perf_counter()
    try:
        code: Optional[int] = cli_main(cli_args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            code = 1
        else:
            code = exc.code
    wall = time.perf_counter() - t0
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "spans": recorder.spans}, fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
