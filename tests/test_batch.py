"""Trial-batched execution: one vectorized call == the sequential loop.

The batch contract (:class:`repro.sim.contract.BatchRunRequest`) is the
trial-axis analogue of the engine-backend contract: a backend's
``run_batch`` either executes the whole axis through a genuinely
vectorized path or falls back to the defining sequential expansion —
and in both cases every trial's result must be *bit-identical* to
running the trials one by one.  This suite pins that equivalence at
every layer: the raw backend call, :func:`run_trials`'s ``batch``
parameter, the experiments runner's cell grouping, and the vectorized
network construction underneath, plus a hypothesis property that
unsupported batch requests degrade to the sequential path rather than
erroring or drifting.  A columnar single run is a batch of one through
the same kernel, so the backend-level checks also compare every trial
with the event loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.stats import _trial_seed, run_trials
from repro.api import _ensure_registry
from repro.experiments import ExperimentSpec, Runner
from repro.experiments.runner import UNPLANNED
from repro.graphs.ids import RandomIds, SequentialIds
from repro.graphs.network import Network
from repro.graphs.specs import parse_graph_spec
from repro.sim.backend import BACKENDS, expand_batch
from repro.sim.contract import BatchRunRequest

numpy = pytest.importorskip("numpy")

COLUMNAR = BACKENDS["columnar"]
EVENT_LOOP = BACKENDS["event-loop"]


def fingerprint(result):
    """Every observable of a run, including counters and per-node state."""
    m = result.metrics
    return {
        "statuses": [s.name for s in result.statuses],
        "outputs": result.outputs,
        "messages": m.messages,
        "bits": m.bits,
        "messages_delivered": m.messages_delivered,
        "max_payload_bits": m.max_payload_bits,
        "last_activity_round": m.last_activity_round,
        "rounds_executed": m.rounds_executed,
        "activations": m.activations,
        "per_kind": dict(m.per_kind),
        "per_node_sent": dict(m.per_node_sent),
        "truncated": result.truncated,
        "wake_schedule": result.wake_schedule,
        "leader_uid": result.leader_uid,
        "ids": list(result.network.ids),
    }


def batch_request(algorithm, graph, trials, *, max_rounds=None,
                  congest_bits=None, ids=None, seed_base=1000):
    topology = parse_graph_spec(graph)
    registry = _ensure_registry()
    return BatchRunRequest(
        topology=topology, factory=registry[algorithm].factory,
        seeds=[(seed_base + t, 2 * seed_base + t) for t in range(trials)],
        knowledge={"n": topology.num_nodes, "D": topology.diameter()},
        ids=ids, congest_bits=congest_bits, max_rounds=max_rounds,
        algorithm=algorithm)


def assert_batch_matches_sequential(request, backend=COLUMNAR, *,
                                    event_loop=True):
    """The batch equals the backend's own per-trial runs and, unless
    ``event_loop`` is off, the event loop's: a columnar single run is a
    batch of one through the same kernel, so only the event loop checks
    the kernel independently."""
    batched = backend.run_batch(request)
    trials = list(expand_batch(request))
    sequential = [backend.run(single) for single in trials]
    assert len(batched) == len(sequential) == request.trials
    for got, want in zip(batched, sequential):
        assert fingerprint(got) == fingerprint(want)
    if event_loop:
        for got, single in zip(batched, trials):
            assert fingerprint(got) == fingerprint(EVENT_LOOP.run(single))
    return batched


class TestBackendBatch:
    """run_batch == the sequential expansion, field for field."""

    @pytest.mark.parametrize("algorithm,graph,trials", [
        ("flood-max", "clique:64", 5),
        ("flood-max", "clique:300", 4),
        ("flood-max", "ring:32", 4),
        ("flood-max", "torus:4x8", 3),
        ("sublinear", "clique:2500", 3),   # vectorized network path
        ("sublinear", "clique:300", 3),    # unsupported -> fallback
    ])
    def test_parity(self, algorithm, graph, trials):
        assert_batch_matches_sequential(
            batch_request(algorithm, graph, trials))

    def test_vectorized_network_path_parity(self):
        """n > 2048 takes the vectorized ID/rotation build; still exact.
        The event loop needs seconds per trial for this clique's ~n²
        messages, so the smaller clique rows stand in for it."""
        request = batch_request("flood-max", "clique:2500", 3)
        from repro.sim.columnar import batch as columnar_batch
        assert columnar_batch.network_vector_reason(
            request.topology, request.ids) is None
        assert_batch_matches_sequential(request, event_loop=False)

    def test_truncation_parity(self):
        for algorithm, graph, max_rounds in [("flood-max", "ring:32", 2),
                                             ("sublinear", "clique:2500", 1)]:
            request = batch_request(algorithm, graph, 3,
                                    max_rounds=max_rounds)
            assert COLUMNAR.supports_batch(request) is None
            rows = assert_batch_matches_sequential(request)
            assert all(r.truncated for r in rows)

    def test_event_loop_backend_batches_via_expansion(self):
        assert_batch_matches_sequential(
            batch_request("flood-max", "ring:8", 3), backend=EVENT_LOOP)

    def test_congest_refused_to_sequential_path(self):
        """CONGEST enforcement is per-trial-ordered; the batch refuses
        and the fallback still produces identical accounting."""
        request = batch_request("flood-max", "clique:32", 3,
                                congest_bits=10 ** 6)
        assert COLUMNAR.supports_batch(request) is not None
        assert_batch_matches_sequential(request)

    def test_trial_order_is_seed_order(self):
        request = batch_request("flood-max", "clique:64", 4)
        rows = COLUMNAR.run_batch(request)
        for (network_seed, _), result in zip(request.seeds, rows):
            expected = Network.build(request.topology, seed=network_seed)
            assert list(result.network.ids) == list(expected.ids)


class TestVectorizedNetworkBuild:
    """The batched ID/rotation draw replays Network.build exactly."""

    @pytest.mark.parametrize("n,seed", [(2500, 0), (2500, 12345), (3000, 7)])
    def test_sample_branch_equality(self, n, seed):
        from repro.sim.columnar import batch as columnar_batch
        topology = parse_graph_spec(f"clique:{n}")
        vec = columnar_batch.build_network(topology, seed, None)
        ref = Network.build(topology, seed=seed)
        assert tuple(vec.ids) == tuple(ref.ids)
        assert list(vec._rot) == list(ref._rot)

    def test_rejection_branch_equality(self):
        """Huge ID spaces (n^4 near 2^63) use RandomIds' rejection loop;
        the vectorized draw must replay that stream too."""
        from repro.sim.columnar import batch as columnar_batch
        n = 60000
        topology = parse_graph_spec(f"clique:{n}")
        vec = columnar_batch.build_network(topology, 3, None)
        ref = Network.build(topology, seed=3)
        assert tuple(vec.ids) == tuple(ref.ids)

    def test_gates(self):
        from repro.sim.columnar import batch as columnar_batch
        clique = parse_graph_spec("clique:65536")
        reason = columnar_batch.network_vector_reason(clique, None)
        assert reason is not None and "> 64" in reason  # 65-bit draws
        ring = parse_graph_spec("ring:4096")
        assert columnar_batch.network_vector_reason(ring, None) is not None
        big = parse_graph_spec("clique:2500")
        assert columnar_batch.network_vector_reason(big, RandomIds()) is None
        assert columnar_batch.network_vector_reason(
            big, SequentialIds()) is not None


class TestRunTrialsBatch:
    """run_trials(batch=...) is a speed knob, never a semantics knob."""

    @pytest.mark.parametrize("algorithm,graph", [
        ("flood-max", "clique:128"),
        ("flood-max", "ring:24"),
        ("sublinear", "clique:2500"),
    ])
    @pytest.mark.parametrize("backend", [None, "columnar"])
    def test_ab_fingerprints(self, algorithm, graph, backend):
        topology = parse_graph_spec(graph)
        trials = 3
        kwargs = dict(trials=trials, seed=5, knowledge_keys=("n", "D"),
                      backend=backend, keep_results=True)
        seq = run_trials(topology, algorithm, batch=False, **kwargs)
        bat = run_trials(topology, algorithm, batch=True, **kwargs)
        assert (seq.messages, seq.rounds, seq.bits) == \
            (bat.messages, bat.rounds, bat.bits)
        assert (seq.successes, seq.surviving_successes) == \
            (bat.successes, bat.surviving_successes)
        for a, b in zip(seq.results, bat.results):
            assert fingerprint(a) == fingerprint(b)

    def test_batch_uses_derived_trial_seeds(self):
        topology = parse_graph_spec("clique:64")
        stats = run_trials(topology, "flood-max", trials=3, seed=9,
                           knowledge_keys=("n", "D"), backend="columnar",
                           batch=True, keep_results=True)
        for t, result in enumerate(stats.results):
            expected = Network.build(
                topology, seed=_trial_seed(9, "network", t))
            assert list(result.network.ids) == list(expected.ids)

    def test_batch_true_with_tracer_refuses(self):
        class FakeTracer:
            pass
        with pytest.raises(ValueError, match="tracer"):
            run_trials(parse_graph_spec("ring:8"), "flood-max", trials=2,
                       tracer=FakeTracer(), batch=True)


class TestRunnerGrouping:
    """The experiments runner batches cells without changing a byte."""

    SPEC_KWARGS = dict(name="batch-unit", algorithms=["flood-max"],
                       graphs=["clique:96"], trials=6, seed=11,
                       auto_knowledge=("D",), backend="columnar")

    def test_grouped_rows_and_digests_identical(self, tmp_path):
        spec = ExperimentSpec(**self.SPEC_KWARGS)
        plain = Runner(cache_dir=str(tmp_path / "a"),
                       batch_trials=False).run(spec)
        grouped = Runner(cache_dir=str(tmp_path / "b")).run(spec)
        assert plain.metrics == grouped.metrics
        assert [r.cell.digest() for r in plain.results] == \
            [r.cell.digest() for r in grouped.results]
        assert plain.telemetry.batched_groups == 0
        assert grouped.telemetry.batched_groups == 1
        assert grouped.telemetry.batched_trials == 6

    def test_fully_batched_sweep_reports_no_reasons(self, tmp_path):
        telemetry = Runner(cache_dir=str(tmp_path)).run(
            ExperimentSpec(**self.SPEC_KWARGS)).telemetry
        assert telemetry.batched_trials == 6
        assert telemetry.unbatched == {}
        assert telemetry.to_json()["unbatched"] == {}
        assert "unbatched" not in telemetry.summary()

    def test_congest_group_reports_its_reason(self, tmp_path):
        spec = ExperimentSpec(**{**self.SPEC_KWARGS, "trials": 3,
                                 "congest_bits": 10 ** 6})
        telemetry = Runner(cache_dir=str(tmp_path)).run(spec).telemetry
        reason = COLUMNAR.supports_batch(batch_request(
            "flood-max", "clique:96", 3, congest_bits=10 ** 6))
        assert reason is not None and "CONGEST" in reason
        assert telemetry.batched_groups == 0
        assert telemetry.unbatched == {reason: 3}

    def test_grouped_rows_fill_the_same_cache(self, tmp_path):
        spec = ExperimentSpec(**self.SPEC_KWARGS)
        Runner(cache_dir=str(tmp_path)).run(spec)
        replay = Runner(cache_dir=str(tmp_path),
                        batch_trials=False).run(spec)
        assert (replay.executed, replay.cached) == (0, 6)

    def test_partial_cache_hits_still_group(self, tmp_path):
        small = ExperimentSpec(**{**self.SPEC_KWARGS, "trials": 2})
        Runner(cache_dir=str(tmp_path)).run(small)
        sweep = Runner(cache_dir=str(tmp_path)).run(
            ExperimentSpec(**self.SPEC_KWARGS))
        assert (sweep.executed, sweep.cached) == (4, 2)
        assert sweep.telemetry.batched_trials == 4

    def test_event_loop_cells_never_group(self, tmp_path):
        spec = ExperimentSpec(**{**self.SPEC_KWARGS,
                                 "graphs": ["ring:12"],
                                 "backend": None, "trials": 3})
        sweep = Runner(cache_dir=str(tmp_path)).run(spec)
        assert sweep.telemetry.batched_groups == 0
        assert sweep.telemetry.unbatched == {
            "backend 'event-loop' has no batched execution path": 3}

    def test_seeded_graphs_never_group(self, tmp_path):
        spec = ExperimentSpec(**{**self.SPEC_KWARGS,
                                 "graphs": ["er:40:0.3"], "trials": 3})
        sweep = Runner(cache_dir=str(tmp_path)).run(spec)
        assert sweep.telemetry.batched_groups == 0
        assert sweep.telemetry.unbatched == {UNPLANNED: 3}

    def test_progress_note_reports_batched_cells(self, tmp_path):
        calls = []

        def on_cell(done, total, note=""):
            calls.append((done, total, note))

        Runner(cache_dir=str(tmp_path)).run(
            ExperimentSpec(**self.SPEC_KWARGS), on_cell=on_cell)
        assert (6, 6, "6 trials batched") in calls

    def test_two_arg_on_cell_still_works(self, tmp_path):
        calls = []
        Runner(cache_dir=str(tmp_path)).run(
            ExperimentSpec(**self.SPEC_KWARGS),
            on_cell=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (6, 6)


class TestDelayIntolerance:
    """Satellite: kingdom is synchronous-only; delayed runs refuse."""

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
        from repro.experiments.runner import execute_cell
        with pytest.raises(ValueError, match="synchronous-only"):
            execute_cell(spec.expand()[0])

    def test_kingdom_without_delay_still_runs(self):
        spec = ExperimentSpec(name="plain", algorithms=["kingdom"],
                              graphs=["ring:8"], trials=1)
        from repro.experiments.runner import execute_cell
        metrics = execute_cell(spec.expand()[0])
        assert metrics["success"] is True


ALGO_STRATEGY = st.sampled_from(["flood-max", "sublinear"])
GRAPH_STRATEGY = st.sampled_from(["ring:6", "clique:12", "clique:40",
                                  "star:7", "path:9"])


class TestFallbackProperty:
    """Any batch request — supported or not — never errors and never
    drifts from its sequential expansion."""

    @settings(max_examples=25, deadline=None)
    @given(algorithm=ALGO_STRATEGY, graph=GRAPH_STRATEGY,
           trials=st.integers(min_value=1, max_value=3),
           congest=st.booleans(), seed_base=st.integers(0, 2 ** 20),
           max_rounds=st.sampled_from([None, 1, 2]))
    def test_unsupported_batches_fall_back(self, algorithm, graph, trials,
                                           congest, seed_base, max_rounds):
        request = batch_request(
            algorithm, graph, trials,
            congest_bits=10 ** 6 if congest else None,
            max_rounds=max_rounds, seed_base=seed_base)
        # Small graphs / congest limits are all batch-unsupported, but
        # run_batch must still return the exact sequential results.
        assert_batch_matches_sequential(request)
