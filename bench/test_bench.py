"""Checks of the benchmark itself: ``python -m pytest bench -q``.

They run in seconds and never time the program; the one test that runs
passes uses ``repro list`` as a stand-in workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import run
import spans
from harness import BENCH_DIR, ROOT, load_spec, run_command
from workloads import WORKLOADS, Command, Workload, cache_lines

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [x["name"] for x in spec["workloads"] + metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in metrics:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(bounds["setup_s"] >= b for b in bounds.values())


def test_workloads_match_definitions(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_name_module_metric_and_workload(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = set(WORKLOADS)
    for metric in spec["per_layer"]:
        layer = spans.LAYERS[metric["name"].split(".")[0]]
        if layer["module"] is None:  # the harness's own accounting
            continue
        path = os.path.join(ROOT, "src", *layer["module"].split("."))
        assert os.path.isdir(path) or os.path.isfile(path + ".py"), layer
        assert layer["moves"] and set(layer["moves"]) <= e2e
        assert layer["heavy"] and set(layer["heavy"]) <= workloads
        assert set(layer["idle"]) <= workloads
        assert not set(layer["heavy"]) & set(layer["idle"])


def test_every_per_layer_metric_is_emitted(spec):
    emitted = set(spans.layer_metrics([], 1.0))
    emitted |= {"trace.overhead_frac", "experiments.pool_speedup"}
    assert emitted == {m["name"] for m in spec["per_layer"]}


def test_trace_targets_exist():
    for _, module, attribute in spans.TARGETS:
        path = os.path.join(ROOT, "src", *module.split("."))
        source = path + ".py" if os.path.isfile(path + ".py") else \
            os.path.join(path, "__init__.py")
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
        assert attribute.split(".")[-1] in text, (module, attribute)


def _span(name, start, end, parent=None, **counts):
    span = {"name": name, "start": start, "end": end, "parent": parent,
            "run": 0}
    if counts:
        span["counts"] = counts
    return span


def test_self_time_subtracts_children_union():
    tree = [
        _span("experiments.sweep", 0.0, 10.0),
        _span("experiments.cell", 1.0, 3.0, parent=0),
        _span("experiments.cell", 2.0, 5.0, parent=0),   # overlaps the first
        _span("sim.run", 3.0, 4.0, parent=2),
        _span("experiments.cell", 8.0, 12.0, parent=0),  # clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 2.0, 1.0, 4.0])
    metrics = spans.layer_metrics(tree, traced_wall_s=13.0)
    assert metrics["experiments.cell.calls"] == 3
    assert metrics["experiments.cell.self_s"] == pytest.approx(8.0)
    assert metrics["experiments.sweep.self_s"] == pytest.approx(4.0)
    assert metrics["trace.coverage"] == pytest.approx(13.0 / 13.0)


def test_layer_counts_come_from_outermost_spans():
    tree = [
        _span("columnar.run_batch", 0.0, 2.0, trials=4),
        _span("columnar.run", 0.5, 1.0, parent=0, trials=1),
        _span("columnar.run", 3.0, 4.0, trials=1),
        _span("experiments.cache.get", 4.0, 4.5, hits=1, misses=0),
        _span("experiments.cache.get", 4.5, 5.0, hits=0, misses=1),
    ]
    metrics = spans.layer_metrics(tree, traced_wall_s=5.0)
    assert metrics["columnar.trials"] == 5
    assert metrics["columnar.trials_per_s"] == pytest.approx(5 / 3.0)
    assert metrics["columnar.run.calls"] == 2
    assert metrics["experiments.cache.hit_ratio"] == pytest.approx(0.5)


def test_merge_reindexes_parents():
    merged = spans.merge([
        {"spans": [_span("a", 0, 1), _span("b", 0, 1, parent=0)]},
        {"spans": [_span("c", 0, 1), _span("d", 0, 1, parent=0)]},
    ])
    assert [s["parent"] for s in merged] == [None, 0, None, 2]
    assert [s["run"] for s in merged] == [0, 0, 1, 1]


@pytest.mark.parametrize("a, b, expected", [
    ([10.0] * 4 + [10.2] * 4, [10.1] * 4 + [10.3] * 4, "unchanged"),
    ([10.0, 10.1, 10.2, 10.1], [13.0, 13.1, 13.2, 13.1], "worse"),
    ([10.0, 10.1, 10.2, 10.1], [8.0, 8.1, 8.2, 8.1], "better"),
    ([10.0, 5.0, 15.0, 10.0], [10.5, 5.5, 15.5, 10.5], "unresolved"),
    ([10.0, 5.0, 15.0, 10.0], [3.0, 2.0, 4.0, 3.0], "better"),
])
def test_compare_verdicts(a, b, expected):
    assert compare.verdict(a, b, bound=0.1, better="lower") == expected


def test_compare_win_fraction_gates_gains():
    a = [10.0] * 10
    b = [9.0] * 8 + [11.0] * 2  # median better, but wins only 8 of 10
    assert compare.win_fraction(a, b, "lower") == pytest.approx(0.8)
    assert compare.verdict(a, b, bound=0.1, better="lower") == "unchanged"
    assert compare.win_fraction(a[:9], b[:9], "lower") is None


def test_compare_fails_on_count_mismatch(spec, capsys):
    def side(calls):
        return {"report-cold": {
            "samples": {"wall_s": [1.0, 1.0]},
            "counts": {"sim.run.calls": {calls}},
            "digests": set(), "failed": 0, "attempted": 2}}
    assert compare.compare(side(161), side(161), spec) == []
    problems = compare.compare(side(161), side(160), spec)
    assert problems and "sim.run.calls" in problems[0]


def test_golden_pins_every_workload_and_the_committed_report():
    golden = run.load_golden()
    assert len(golden["seeds"]) == run.GOLDEN_SEEDS
    assert golden["seeds"][:3] == [0, 1, 2]
    for name in WORKLOADS:
        assert set(golden["digests"][name]) == {str(s) for s in golden["seeds"]}
    data = b""
    for name in ("report.json", "EXPERIMENTS.md"):
        with open(os.path.join(ROOT, name), "rb") as fh:
            data += fh.read()
    committed = hashlib.sha256(data).hexdigest()
    assert golden["digests"]["report-cold"]["0"] == committed
    assert golden["digests"]["report-warm"]["0"] == committed


def test_sweep_digest_ignores_backend_provenance(tmp_path):
    record = {"key": "k", "cell": {"seed": 1}, "metrics": {"messages": 3}}
    for backend, sub in ((None, "a"), ("net", "b")):
        cell = dict(record["cell"], **({"backend": backend} if backend else {}))
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.jsonl").write_text(
            json.dumps(dict(record, cell=cell)) + "\n")
    assert cache_lines(str(tmp_path / "a")) == cache_lines(str(tmp_path / "b"))


def test_counts_stay_whole_numbers():
    count = run._metric([3, 3], "count")["value"]
    assert count == 3 and isinstance(count, int)
    assert run._metric([1.0, 2.0], "s")["value"] == pytest.approx(1.5)


def test_seed_maps_into_recorded_table():
    golden = {"seeds": [0, 1, 2, 4]}
    assert [run.program_seed_for(s, golden) for s in (0, 3, 4, 7)] == \
        [0, 4, 0, 4]
    assert run.program_seed_for(7, {}) == 7


_LIST = Workload("probe", (Command(argv=("list",), expect="flood-max",
                                   output="stdout"),))


@pytest.fixture
def few_setup_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 2)


def test_tampered_golden_fails_every_pass(tmp_path, few_setup_runs):
    golden = {"seeds": [0], "digests": {"probe": {"0": "0" * 64}}}
    result = run.bench_workload(_LIST, 0, golden, seconds=0.5, trace=False,
                                work=str(tmp_path))
    assert result["attempted"] >= run.MIN_PASSES
    assert result["failed_frac"] == 1.0
    assert result["digest_status"] == "checked"


def test_unseen_seed_is_unchecked_but_self_consistent(tmp_path,
                                                      few_setup_runs):
    result = run.bench_workload(_LIST, 0, {}, seconds=0.5, trace=False,
                                work=str(tmp_path))
    assert result["failed_frac"] == 0.0 and not result["failures"]
    assert result["digest_status"] == "unchecked"
    assert set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
    assert result["metrics"]["setup_s"]["n"] == 2


def test_hung_command_is_killed_with_its_children(tmp_path):
    script = ("import subprocess, sys, time; "
              "subprocess.Popen([sys.executable, '-c', "
              "'import time; time.sleep(60)']); time.sleep(60)")
    t0 = time.monotonic()
    res = run_command([sys.executable, "-c", script], cwd=str(tmp_path),
                      timeout=1.0, log_prefix=str(tmp_path / "hung"))
    assert res.timed_out and res.returncode != 0
    assert time.monotonic() - t0 < 15


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_record_golden_refuses_to_overwrite(tmp_path, monkeypatch):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"seeds": [0], "digests": {}}))
    monkeypatch.setattr(run, "GOLDEN_PATH", str(path))
    assert run.record_golden(force=False, work=str(tmp_path)) == 2
    assert json.loads(path.read_text()) == {"seeds": [0], "digests": {}}
