"""High-level API: registry, knowledge auto-wiring, elect_leader, and
the synchronous-only refusal every named entry point shares."""

import pytest

from repro import elect_leader, run_algorithm
from repro.analysis.stats import run_trials
from repro.api import _ensure_registry, make_network
from repro.cli import main
from repro.experiments import ExperimentSpec
from repro.experiments.runner import execute_cell
from repro.experiments.tasks import execute_elect_group
from repro.graphs import Network, erdos_renyi, ring
from repro.graphs.specs import parse_graph_spec
from repro.sim import ElectionFailure, make_model
from repro.sim.bench import measure_point


class TestRegistry:
    def test_all_expected_algorithms_present(self):
        names = set(_ensure_registry())
        assert names >= {
            "flood-max", "dfs-agent", "least-el", "candidate",
            "candidate-constant", "size-estimation", "las-vegas",
            "spanner", "clustering", "kingdom", "kingdom-known-d",
            "trivial",
        }

    def test_descriptions_non_empty(self):
        for spec in _ensure_registry().values():
            assert spec.description

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="flood-max"):
            run_algorithm(ring(5), "nope")


class TestRunAlgorithm:
    def test_knowledge_auto_wired(self):
        result = run_algorithm(ring(9), "las-vegas", seed=1)
        assert result.has_unique_leader  # needed n and D, got them

    def test_explicit_knowledge_wins(self):
        # Supplying n explicitly must be honored (even if wrong-ish).
        result = run_algorithm(ring(9), "least-el", seed=1,
                               knowledge={"n": 9})
        assert result.has_unique_leader

    def test_accepts_prebuilt_network(self):
        net = Network.build(ring(9), seed=4)
        result = run_algorithm(net, "least-el", seed=1)
        assert result.has_unique_leader
        assert result.network is net

    def test_max_rounds_truncates(self):
        result = run_algorithm(ring(30), "least-el", seed=1, max_rounds=2)
        assert result.truncated


class TestElectLeader:
    def test_returns_result_on_success(self):
        result = elect_leader(erdos_renyi(25, 0.2, seed=2), seed=3)
        assert result.has_unique_leader
        assert result.leader_uid in result.network.ids

    def test_forwards_wakeup_model(self):
        from repro.sim.wakeup import ExplicitWakeup

        schedule = [3] * 9
        result = elect_leader(ring(9), seed=1,
                              wakeup=ExplicitWakeup(schedule))
        assert result.has_unique_leader
        assert result.wake_schedule == schedule  # model reached the simulator

    def test_raises_on_failure(self):
        # Trivial election usually fails: catch a failing seed.
        t = ring(20)
        for seed in range(30):
            try:
                elect_leader(t, algorithm="trivial", seed=seed)
            except ElectionFailure:
                break
        else:
            pytest.fail("expected at least one trivial-election failure")


class TestMakeNetwork:
    def test_idempotent_on_network(self):
        net = Network.build(ring(5), seed=1)
        assert make_network(net) is net

    def test_builds_from_topology(self):
        net = make_network(ring(5), seed=1)
        assert net.num_nodes == 5


class TestDelayIntolerance:
    """Kingdom is synchronous-only; delayed runs refuse."""

    def test_registry_flags(self):
        registry = _ensure_registry()
        assert not registry["kingdom"].delay_tolerant
        assert not registry["kingdom-known-d"].delay_tolerant
        assert registry["least-el"].delay_tolerant

    @pytest.mark.parametrize("algorithm", ["kingdom", "kingdom-known-d"])
    def test_elect_task_refuses_delayed_kingdom(self, algorithm):
        spec = ExperimentSpec(name="delayed", algorithms=[algorithm],
                              graphs=["ring:8"], trials=1,
                              delay=["uniform:4"])
        with pytest.raises(ValueError, match="synchronous-only"):
            execute_cell(spec.expand()[0])

    def test_kingdom_without_delay_still_runs(self):
        spec = ExperimentSpec(name="plain", algorithms=["kingdom"],
                              graphs=["ring:8"], trials=1)
        metrics = execute_cell(spec.expand()[0])
        assert metrics["success"] is True

    def test_kingdom_under_loss_at_unit_delay_still_runs(self):
        model = make_model("1", None, 0.1, model_seed=0)
        result = run_algorithm(parse_graph_spec("ring:16"), "kingdom",
                               model=model)
        assert result.metrics.messages_dropped > 0


GRAPH, DELAY = "ring:16", "uniform:4"


def _delayed_cells(algorithm):
    return ExperimentSpec(name="delayed", algorithms=[algorithm],
                          graphs=[GRAPH], trials=2,
                          delay=[DELAY]).expand()


#: Every entry point that runs a registry algorithm by name, as a call
#: ``(algorithm, tmp_path) -> ...`` running it on GRAPH under DELAY.
NAMED_ENTRY_POINTS = {
    "run_algorithm": lambda algo, tmp: run_algorithm(
        parse_graph_spec(GRAPH), algo, model=make_model(DELAY)),
    "elect_leader": lambda algo, tmp: elect_leader(
        parse_graph_spec(GRAPH), algorithm=algo, model=make_model(DELAY)),
    "run_trials-batched": lambda algo, tmp: run_trials(
        parse_graph_spec(GRAPH), algo, trials=2, model=make_model(DELAY)),
    "run_trials-unbatched": lambda algo, tmp: run_trials(
        parse_graph_spec(GRAPH), algo, trials=2, model=make_model(DELAY),
        batch=False),
    "execute_cell": lambda algo, tmp: execute_cell(_delayed_cells(algo)[0]),
    "execute_elect_group": lambda algo, tmp: execute_elect_group(
        _delayed_cells(algo)),
    "measure_point": lambda algo, tmp: measure_point(algo, GRAPH, DELAY,
                                                     repeats=1),
    "cli-elect": lambda algo, tmp: main(
        ["elect", "--graph", GRAPH, "--algorithm", algo, "--delay", DELAY]),
    "cli-timeline": lambda algo, tmp: main(
        ["timeline", "--graph", GRAPH, "--algorithm", algo,
         "--delay", DELAY]),
    "cli-sweep": lambda algo, tmp: main(
        ["sweep", "--algorithms", algo, "--graphs", GRAPH, "--delay", DELAY,
         "--trials", "1", "--cache-dir", str(tmp)]),
    "cli-bench-sim": lambda algo, tmp: main(
        ["bench-sim", "--point", f"{algo}@{GRAPH}@{DELAY}", "--out", ""]),
}


@pytest.mark.parametrize("algorithm", ["kingdom", "kingdom-known-d"])
@pytest.mark.parametrize("entry", sorted(NAMED_ENTRY_POINTS))
def test_named_entry_point_refuses_delayed_sync_only(entry, algorithm,
                                                     tmp_path, capsys):
    with pytest.raises((ValueError, SystemExit), match="synchronous-only"):
        NAMED_ENTRY_POINTS[entry](algorithm, tmp_path)
    assert capsys.readouterr().out == ""  # refused before any output
