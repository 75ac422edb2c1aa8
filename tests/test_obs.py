"""Observability (repro.obs): zero-perturbation tracing, timelines,
telemetry, logging, and the CLI surface built on them.

The load-bearing guarantee is *observational transparency*: attaching a
tracer or recording a timeline must not change a single bit of any
run's outcome — the instrumented scheduler path only reads state the
untraced path already produced.  The equivalence matrix here re-runs a
spread of algorithms under every execution-model family (synchronous,
delay, loss, crash, mixed) and diffs the full observable result.
"""

from __future__ import annotations

import io
import json
import logging

import pytest

import repro.api as api
from repro.experiments import ExperimentSpec, Runner
from repro.graphs.specs import parse_graph_spec
from repro.obs import (
    ChromeTracer,
    JsonlTracer,
    ProgressLine,
    RecordingTracer,
    TeeTracer,
    Timeline,
    TraceError,
    Tracer,
    chrome_trace,
    read_trace,
    replay_round_counts,
    sparkline,
    validate_trace,
)
from repro.obs.log import configure_logging, get_logger, reset_logging
from repro.sim import Simulator, make_model
from repro.sim.bench import load_trajectory, measure_point, snapshot


def _run(algorithm, graph, *, seed=3, model=None, tracer=None,
         timeline=False, max_rounds=5000):
    """One event-loop run with ``run_algorithm``'s network, seed and
    knowledge, through :class:`Simulator` itself: the reference runs
    anything, kingdom under delays included, which every named entry
    point refuses."""
    topology = parse_graph_spec(graph, seed=seed)
    spec = api._ensure_registry()[algorithm]
    sim = Simulator(api.make_network(topology, seed=seed), spec.factory,
                    seed=seed,
                    knowledge=api._auto_knowledge(topology, spec.needs, None),
                    model=model, tracer=tracer, timeline=timeline)
    return sim.run(max_rounds=max_rounds)


MODELS = {
    "default": lambda: None,
    "delay": lambda: make_model("uniform:3", None, None, model_seed=5),
    "loss": lambda: make_model(None, None, 0.2, model_seed=5),
    "crash": lambda: make_model(None, "5:10", None, model_seed=5),
    "mixed": lambda: make_model("adversarial:4", "4:8", 0.1, model_seed=5),
}

#: algorithm -> graph; spans deterministic/randomized, clique-specific,
#: restarting, and knowledge-free protocols (>= 6 algorithms).
EQUIV_CASES = {
    "flood-max": "er:24:0.3",
    "least-el": "er:24:0.3",
    "sublinear": "clique:32",
    "candidate": "clique:24",
    "kingdom": "er:24:0.3",
    "las-vegas": "ring:12",
    "trivial": "er:24:0.3",
}


class TestTraceEquivalence:
    """Traced == untraced, bit for bit, across algorithms x models."""

    @pytest.mark.parametrize("algorithm", sorted(EQUIV_CASES))
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    def test_traced_run_is_identical(self, algorithm, model_name):
        graph = EQUIV_CASES[algorithm]
        base = _run(algorithm, graph, model=MODELS[model_name]())
        tracer = RecordingTracer()
        obs = _run(algorithm, graph, model=MODELS[model_name](),
                   tracer=tracer, timeline=True)
        assert obs.metrics.summary() == base.metrics.summary()
        assert obs.statuses == base.statuses
        assert obs.outputs == base.outputs
        assert obs.elected_indices == base.elected_indices
        # ... and the trace itself is schema-valid and self-consistent.
        info = validate_trace(tracer.events)
        assert info["rounds"] == obs.metrics.rounds_executed

    def test_timeline_only_run_is_identical(self):
        base = _run("least-el", "er:24:0.3")
        obs = _run("least-el", "er:24:0.3", timeline=True)
        assert obs.metrics.summary() == base.metrics.summary()
        assert obs.statuses == base.statuses
        assert obs.timeline is not None and len(obs.timeline) > 0
        assert base.timeline is None

    def test_timeline_totals_match_metrics(self):
        for model_name in sorted(MODELS):
            obs = _run("least-el", "er:24:0.3", model=MODELS[model_name](),
                       timeline=True)
            totals = obs.timeline.totals()
            summary = obs.metrics.summary()
            assert totals["sent"] == summary["messages"]
            assert totals["delivered"] == summary["messages_delivered"]
            assert totals["dropped"] == summary["messages_dropped"]

    def test_traced_flood_max_clique256_sums_exactly(self):
        """The acceptance workload: flood-max@clique:256 round-trips
        JSONL -> timeline with per-round counts summing to the metrics
        totals exactly."""
        buffer = io.StringIO()
        tracer = JsonlTracer(buffer)
        obs = _run("flood-max", "clique:256", seed=1, tracer=tracer,
                   timeline=True, max_rounds=10 ** 6)
        events = [json.loads(line) for line in
                  buffer.getvalue().splitlines()]
        info = validate_trace(events)
        summary = obs.metrics.summary()
        assert info["sent"] == summary["messages"] > 0
        assert info["delivered"] == summary["messages_delivered"]
        assert info["dropped"] == summary["messages_dropped"]
        rebuilt = Timeline.from_trace(events)
        assert rebuilt.to_json() == obs.timeline.to_json()
        replayed = replay_round_counts(events)
        for point in obs.timeline:
            row = replayed.get(point.round,
                               {"sent": 0, "delivered": 0, "dropped": 0})
            assert row["sent"] == point.sent
            assert row["delivered"] == point.delivered
            assert row["dropped"] == point.dropped

    def test_crash_and_loss_events_are_traced(self):
        tracer = RecordingTracer()
        _run("flood-max", "er:24:0.3",
             model=make_model(None, "5:10", 0.2, model_seed=5),
             tracer=tracer)
        kinds = {e["ev"] for e in tracer.events}
        assert "crash" in kinds and "drop" in kinds
        reasons = {e["reason"] for e in tracer.events if e["ev"] == "drop"}
        assert "loss" in reasons
        # Status transitions and the run frame are present too.
        assert "status" in kinds and "run_begin" in kinds
        assert tracer.events[-1]["ev"] == "run_end"

    def test_truncated_run_trace_still_validates(self):
        tracer = RecordingTracer()
        result = _run("flood-max", "ring:32", tracer=tracer, max_rounds=4)
        assert result.truncated
        info = validate_trace(tracer.events)
        assert tracer.events[-1]["truncated"] is True
        assert info["sent"] == result.metrics.messages


class TestTraceIO:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlTracer(path) as tracer:
            _run("sublinear", "clique:32", tracer=tracer)
        events = read_trace(path)
        validate_trace(events)
        assert events[0]["ev"] == "run_begin"
        assert events[0]["model"]["delay"] is None

    def test_chrome_export(self, tmp_path):
        path = str(tmp_path / "trace.json")
        recorder = RecordingTracer()
        chrome = ChromeTracer(path)
        _run("least-el", "ring:12", tracer=TeeTracer(recorder, chrome))
        chrome.close()
        doc = json.loads((tmp_path / "trace.json").read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C", "M"} <= phases
        # chrome_trace() over the recorded events produces the same doc.
        assert chrome_trace(recorder.events)["traceEvents"][2:] == \
            doc["traceEvents"][2:]

    def test_validate_rejects_bad_traces(self):
        with pytest.raises(TraceError):
            validate_trace([])
        with pytest.raises(TraceError):
            validate_trace([{"ev": "round_begin", "r": 0}])
        with pytest.raises(TraceError):  # unpaired round
            validate_trace([{"ev": "run_begin", "n": 1, "m": 0, "seed": 0},
                            {"ev": "round_begin", "r": 0}])
        with pytest.raises(TraceError):  # aggregate mismatch
            validate_trace([
                {"ev": "run_begin", "n": 1, "m": 0, "seed": 0},
                {"ev": "round_begin", "r": 0},
                {"ev": "round_end", "r": 0, "sent": 5, "delivered": 0,
                 "dropped": 0, "active": 1, "undecided": 1, "elected": 0},
            ])

    def test_base_tracer_discards(self):
        result = _run("trivial", "ring:8", tracer=Tracer())
        assert result.metrics.summary() == \
            _run("trivial", "ring:8").metrics.summary()


class TestTimeline:
    def test_series_and_final(self):
        obs = _run("least-el", "ring:12", timeline=True)
        timeline = obs.timeline
        assert timeline.series("round") == sorted(timeline.series("round"))
        assert timeline.final["elected"] == 1
        with pytest.raises(KeyError):
            timeline.series("nope")

    def test_csv_and_json(self):
        obs = _run("trivial", "ring:8", timeline=True)
        csv = obs.timeline.to_csv()
        header, *rows = csv.strip().splitlines()
        assert header == \
            "round,sent,delivered,dropped,active,undecided,elected"
        assert len(rows) == len(obs.timeline)
        assert obs.timeline.to_json()[0]["round"] == obs.timeline[0].round

    def test_render_and_sparkline(self):
        obs = _run("flood-max", "ring:32", timeline=True, seed=1)
        art = obs.timeline.render(width=20)
        assert "sent" in art and "undecided" in art
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "▁▁▁"
        assert sparkline([1, 8], width=2)[-1] == "█"
        # Resampling by sum preserves the flow total implicitly: the
        # 100-value series still renders to <= width cells.
        assert len(sparkline(list(range(100)), width=10)) == 10
        assert Timeline().render().endswith("(no rounds)")


class TestCacheStats:
    def _spec(self, **kw):
        base = dict(name="obs-cache", algorithms=["trivial"],
                    graphs=["ring:8"], trials=2, seed=9)
        base.update(kw)
        return ExperimentSpec(**base)

    def test_len_memoized_and_maintained(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(self._spec())
        cache = runner.cache
        assert len(cache) == 2
        scans = {"n": 0}
        original = cache._scan_file

        def counting_scan(path):
            scans["n"] += 1
            return original(path)

        cache._scan_file = counting_scan
        assert len(cache) == 2  # memoized: no rescan
        assert scans["n"] == 0
        runner.run(self._spec(trials=3))  # one new cell
        assert len(cache) == 3  # maintained by put, still no rescan
        assert scans["n"] == 0

    def test_stats_counters(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        runner.run(self._spec())
        assert runner.cache.stats() == \
            {"hits": 0, "misses": 2, "appends": 2}
        runner2 = Runner(cache_dir=str(tmp_path))
        runner2.run(self._spec())
        assert runner2.cache.stats() == \
            {"hits": 2, "misses": 0, "appends": 0}

    def test_len_before_root_exists(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path / "fresh"))
        assert len(runner.cache) == 0
        runner.run(self._spec())
        assert len(runner.cache) == 2


class TestRunnerTelemetry:
    def test_sweep_telemetry(self, tmp_path):
        runner = Runner(cache_dir=str(tmp_path))
        sweep = runner.run(ExperimentSpec(
            name="obs-tel", algorithms=["trivial"], graphs=["ring:8"],
            trials=3, seed=1))
        tel = sweep.telemetry
        assert tel is not None
        assert (tel.cells, tel.cached, tel.executed) == (3, 0, 3)
        assert len(tel.cell_walls) == 3
        assert tel.wall_s >= tel.cell_wall_s > 0
        assert 0 < tel.utilization <= 1
        assert tel.cache == {"hits": 0, "misses": 3, "appends": 3}
        assert "3 cells" in tel.summary()
        assert tel.to_json()["workers"] == 1

    def test_fully_cached_sweep_telemetry(self, tmp_path):
        spec = ExperimentSpec(name="obs-tel", algorithms=["trivial"],
                              graphs=["ring:8"], trials=2, seed=1)
        Runner(cache_dir=str(tmp_path)).run(spec)
        sweep = Runner(cache_dir=str(tmp_path)).run(spec)
        tel = sweep.telemetry
        assert (tel.cached, tel.executed) == (2, 0)
        assert tel.cell_walls == [] and tel.utilization is None

    def test_on_cell_counts_up_to_total(self):
        calls = []
        Runner().run(ExperimentSpec(name="obs-oncell",
                                    algorithms=["trivial"],
                                    graphs=["ring:8"], trials=3, seed=1),
                     on_cell=lambda done, total: calls.append((done, total)))
        assert calls == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_execute_cell_monkeypatch_still_counts(self, tmp_path,
                                                   monkeypatch):
        """The PR 5 regression guard: cached reruns execute nothing."""
        import repro.experiments.runner as runner_mod

        counter = {"n": 0}
        original = runner_mod.execute_cell

        def counting(cell):
            counter["n"] += 1
            return original(cell)

        monkeypatch.setattr(runner_mod, "execute_cell", counting)
        spec = ExperimentSpec(name="obs-count", algorithms=["trivial"],
                              graphs=["ring:8"], trials=2, seed=1)
        Runner(cache_dir=str(tmp_path)).run(spec)
        assert counter["n"] == 2
        sweep = Runner(cache_dir=str(tmp_path)).run(spec)
        assert counter["n"] == 2  # fully served from cache
        assert sweep.executed == 0 and sweep.telemetry.executed == 0


class TestProgressLine:
    def test_non_tty_prints_checkpoints(self):
        stream = io.StringIO()
        line = ProgressLine("demo", stream=stream, fallback_interval=0.0)
        line.update(0, 4)
        line.update(4, 4)
        line.finish("done")
        out = stream.getvalue().splitlines()
        assert out[0].startswith("demo: 0/4 cells")
        assert "4/4" in out[1] and "100%" in out[1]
        assert out[-1] == "done"

    def test_non_tty_throttles(self):
        stream = io.StringIO()
        line = ProgressLine(stream=stream, fallback_interval=3600.0)
        line.update(1, 10)  # suppressed: inside the interval
        line.update(10, 10)  # final update always shows
        assert len(stream.getvalue().splitlines()) == 1


class TestTrialTracing:
    def test_run_trials_traces_first_trial_only(self):
        from repro.analysis import run_trials
        from repro.core import LeastElementElection

        topology = parse_graph_spec("ring:12")
        tracer = RecordingTracer()
        base = run_trials(topology, LeastElementElection, trials=3, seed=2,
                          knowledge_keys=("n",))
        traced = run_trials(topology, LeastElementElection, trials=3, seed=2,
                            knowledge_keys=("n",), tracer=tracer)
        assert traced.messages.mean == base.messages.mean
        assert traced.successes == base.successes
        begins = [e for e in tracer.events if e["ev"] == "run_begin"]
        assert len(begins) == 1  # trial 0 only


class TestBenchProvenance:
    def test_snapshot_carries_env(self):
        snap = snapshot([], label="x")
        env = snap["env"]
        assert env["python"] == snap["python"]
        assert env["cpu_count"] is None or env["cpu_count"] >= 1
        assert "git_sha" in env  # None outside a checkout is fine

    def test_load_trajectory_backfills_legacy_runs(self, tmp_path):
        path = tmp_path / "B.json"
        path.write_text(json.dumps({"schema": 1, "runs": [
            {"label": "old", "python": "3.8.0", "platform": "legacy",
             "results": [{"algorithm": "x", "events_per_s": 1.0}]},
        ]}))
        doc = load_trajectory(str(path))
        run = doc["runs"][0]
        assert run["env"] == {"python": "3.8.0", "platform": "legacy",
                              "cpu_count": None, "git_sha": None}
        assert run["results"][0]["profile"] is None

    def test_load_trajectory_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "B.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_trajectory(str(path))

    def test_measure_point_profile_buckets(self):
        row = measure_point("trivial", "ring:8", repeats=1, profile=True)
        prof = row["profile"]
        assert prof is not None
        assert set(prof) == {"scheduler", "algorithm", "metrics", "model",
                             "other", "total_s"}
        assert prof["total_s"] >= 0
        assert abs(sum(v for k, v in prof.items() if k != "total_s")
                   - prof["total_s"]) < 1e-3

    def test_measure_point_without_profile_has_null_column(self):
        row = measure_point("trivial", "ring:8", repeats=1)
        assert row["profile"] is None


class TestLogging:
    def teardown_method(self):
        reset_logging()

    def test_default_verbosity_keeps_cli_prefix(self):
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        get_logger("cli").info("hello %d", 7)
        assert stream.getvalue() == "... hello 7\n"

    def test_quiet_drops_info_keeps_warnings(self):
        stream = io.StringIO()
        configure_logging(-1, stream=stream)
        get_logger("cli").info("chatter")
        get_logger("bench").warning("kept")
        assert stream.getvalue() == "warning: kept\n"

    def test_verbose_uses_debug_with_logger_names(self):
        stream = io.StringIO()
        configure_logging(1, stream=stream)
        get_logger("experiments").debug("deep detail")
        out = stream.getvalue()
        assert "repro.experiments" in out and "deep detail" in out

    def test_reconfigure_replaces_handler(self):
        first, second = io.StringIO(), io.StringIO()
        configure_logging(0, stream=first)
        configure_logging(0, stream=second)
        get_logger().info("once")
        assert first.getvalue() == "" and second.getvalue() == "... once\n"

    def test_import_leaves_root_logger_silent(self):
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler)
                   for h in root.handlers)


class TestObsCli:
    def test_elect_trace_smoke(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        assert main(["elect", "--graph", "clique:64", "--algorithm",
                     "sublinear", "--seed", "1",
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        events = read_trace(str(trace_path))
        info = validate_trace(events)
        assert info["rounds"] > 0 and info["sent"] > 0

    def test_timeline_command_renders(self, capsys):
        from repro.cli import main

        assert main(["timeline", "--graph", "ring:16",
                     "--algorithm", "least-el", "--width", "20"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and "delivered" in out

    def test_timeline_json_and_csv(self, capsys):
        from repro.cli import main

        assert main(["timeline", "--graph", "ring:8", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and rows[0]["round"] == 0
        assert main(["timeline", "--graph", "ring:8", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("round,sent,delivered,")
        assert len(out.strip().splitlines()) == len(rows) + 1

    def test_timeline_from_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        assert main(["elect", "--graph", "ring:16", "--trace",
                     str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["timeline", "--from-trace", str(trace_path)]) == 0
        assert "timeline:" in capsys.readouterr().out

    def test_timeline_requires_source(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["timeline"])

    def test_sweep_progress_flag_non_tty(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--algorithms", "trivial", "--graphs",
                     "ring:8", "--trials", "2", "--cache-dir",
                     str(tmp_path), "--progress"]) == 0
        err = capsys.readouterr().err
        assert "2/2 cells" in err

    def test_quiet_flag_silences_progress(self, tmp_path, capsys):
        from repro.cli import main

        try:
            assert main(["-q", "sweep", "--algorithms", "trivial",
                         "--graphs", "ring:8", "--trials", "1",
                         "--cache-dir", str(tmp_path)]) == 0
        finally:
            captured = capsys.readouterr()
            reset_logging()
        assert "... " not in captured.err


class TestGoldenParityUntouched:
    def test_observed_clique_matches_aggregated_fast_path(self):
        """Tracing a clique run disables broadcast aggregation; the
        outcome must still match the aggregated fast path exactly."""
        fast = _run("flood-max", "clique:48", seed=5, max_rounds=10 ** 6)
        observed = _run("flood-max", "clique:48", seed=5, timeline=True,
                        tracer=RecordingTracer(), max_rounds=10 ** 6)
        assert observed.metrics.summary() == fast.metrics.summary()
        assert observed.statuses == fast.statuses

    #: Every method the model, CONGEST, aggregation or obs paths rebind.
    HOT_METHODS = ("_submit_send", "_submit_multicast", "_submit_broadcast",
                   "_next_event_round", "_execute_round", "_activate",
                   "_rounds", "_round_prelude", "_take_round", "_deliver")

    def test_untraced_simulator_has_no_obs_wrappers(self):
        from repro.net.runner import NetRunner

        net = api.make_network(parse_graph_spec("ring:8"), seed=0)
        spec = api._ensure_registry()["trivial"]
        kwargs = dict(seed=0, knowledge={"n": net.num_nodes})
        # Instance-method rebinding only happens on a variant path: an
        # untraced, unlimited, fault-free run of either backend must
        # fall through to the class methods.  Constructing a NetRunner
        # opens no socket and needs no event loop.
        for runner in (Simulator(net, spec.factory, **kwargs),
                       NetRunner(net, spec.factory, **kwargs)):
            bound = [name for name in self.HOT_METHODS
                     if name in runner.__dict__]
            assert bound == [], type(runner).__name__
            assert runner._tracer is None
            assert runner.metrics.timeline is None
        traced = Simulator(net, spec.factory, timeline=True, **kwargs)
        assert {"_rounds", "_round_prelude"} <= traced.__dict__.keys()
