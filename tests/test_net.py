"""Net-backend equivalence suite: real sockets are bit-identical or absent.

The same "equivalent or absent" contract the columnar suite pins, for
the real-network backend (:mod:`repro.net`): every request the backend
accepts must produce a :class:`RunResult` bit-identical to the event
loop's — same leader, same message/bit counts, same per-kind counters,
same crash order — and every request outside the supported slice must
refuse with a reasoned :class:`BackendUnsupported`, never return
silently different numbers.

The parity slice is enumerated from ``tests/parity_cases.py`` — the
*same* case table the golden fixture and the scheduler parity suite
run — filtered through ``NetBackend.supports`` (satellite: backends
enumerate the shared matrix; no per-backend copies).

Chaos coverage: seeded loss must make bit-identical drop decisions
across independent socket runs; crash schedules must kill tasks
mid-round yet leave ``crashed_indices`` equal to the simulator's; a
deliberately wedged peer must trip the round barrier's timeout with a
clean :class:`TransportTimeout` naming the node, inside a hard
wall-clock budget.

Trial batching: the trials of a batch share one mesh, so every batched
trial must still equal the sequential expansion and the event loop —
truncated modeled runs included, which leave frames booked that the
run must collect before the next trial starts — and every failure path
must close every socket it opened.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import signal
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from parity_cases import build_cases, case_name, cases_for_backend, run_case
from repro.analysis.stats import run_trials
from repro.api import _ensure_registry, run_algorithm
from repro.experiments import ExperimentSpec, Runner
from repro.graphs import Network, complete, ring
from repro.graphs.ids import SequentialIds
from repro.graphs.specs import parse_graph_spec
from repro.graphs.topology import CliqueTopology
from repro.sim.backend import BACKENDS, RunRequest, expand_batch
from repro.sim.contract import BatchRunRequest
from repro.sim.errors import BackendUnsupported, CongestViolation
from repro.sim.models import (BernoulliLoss, ExecutionModel, ExplicitCrashes,
                              FixedDelay)
from repro.net import TransportError, TransportTimeout, codec
from repro.net import engine as net_engine
from repro.net.links import Mesh

pytestmark = pytest.mark.net

NET = BACKENDS["net"]
EVENT_LOOP = BACKENDS["event-loop"]

NET_CASES = cases_for_backend("net")
NET_CASE_NAMES = [case_name(c) for c in NET_CASES]

DELAY_TOLERANT = sorted(name for name, spec in _ensure_registry().items()
                        if spec.delay_tolerant)
SYNC_ONLY = sorted(name for name, spec in _ensure_registry().items()
                   if not spec.delay_tolerant)


def fingerprint(result):
    """Every observable of a run: outcome, per-node state, and every
    counter, delivered and dropped included."""
    m = result.metrics
    return {
        **m.summary(),
        "activations": m.activations,
        "per_kind": dict(m.per_kind),
        "per_node_sent": dict(m.per_node_sent),
        "crashed_nodes": list(m.crashed_nodes),
        "statuses": [s.name for s in result.statuses],
        "outputs": result.outputs,
        "truncated": result.truncated,
        "wake_schedule": result.wake_schedule,
        "ids": list(result.network.ids),
    }


def batch_request(algorithm, graph, trials=3, *, model=None,
                  max_rounds=None):
    """``trials`` seeds of one configuration, knowledge per the
    algorithm's needs (sequential IDs keep dfs-agent's spans small)."""
    topology = parse_graph_spec(graph)
    spec = _ensure_registry()[algorithm]
    known = {"n": topology.num_nodes, "m": topology.num_edges,
             "D": topology.diameter()}
    return BatchRunRequest(
        topology=topology, factory=spec.factory,
        seeds=[(40 + t, 80 + t) for t in range(trials)],
        knowledge={key: known[key] for key in spec.needs},
        ids=SequentialIds() if algorithm == "dfs-agent" else None,
        model=model, max_rounds=max_rounds, algorithm=algorithm)


@contextlib.contextmanager
def wall_budget(seconds):
    """Fail instead of hanging if the block outlives ``seconds``."""
    def too_slow(signum, frame):  # pragma: no cover - only on failure
        raise AssertionError("round-barrier timeout did not fire "
                             "within the wall-clock budget")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextlib.contextmanager
def no_resource_warnings():
    """Fail if anything the block opened is left for the collector."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []


class TestParitySlice:
    """Supported slice: net == event loop, field for field."""

    @pytest.mark.parametrize("case", NET_CASES, ids=NET_CASE_NAMES)
    def test_case_parity(self, case):
        assert run_case(case, backend="net") == run_case(case)

    def test_slice_is_substantial(self):
        """The filter keeps the delay-tolerant bulk of the matrix (the
        refusals are kingdom's family plus envelope-path features)."""
        total = len(build_cases())
        assert len(NET_CASES) >= total - 20
        refused = {c["algorithm"] for c in build_cases()
                   if case_name(c) not in set(NET_CASE_NAMES)}
        assert refused <= set(SYNC_ONLY) | {"least-el"}  # watch/record cases

    @pytest.mark.parametrize("algorithm", DELAY_TOLERANT)
    @pytest.mark.parametrize("graph", ["clique", "ring"])
    def test_every_delay_tolerant_algorithm(self, algorithm, graph):
        """The acceptance-criteria sweep: every delay-tolerant registry
        algorithm on clique and ring elects the same leader with
        identical message/bit counts over real sockets."""
        topology = complete(8) if graph == "clique" else ring(9)
        ev = run_algorithm(topology, algorithm, seed=11)
        net = run_algorithm(topology, algorithm, seed=11, backend="net")
        assert net.leader_uid == ev.leader_uid
        assert net.metrics.messages == ev.metrics.messages
        assert net.metrics.bits == ev.metrics.bits
        assert [s.name for s in net.statuses] == \
            [s.name for s in ev.statuses]
        assert net.outputs == ev.outputs

    def test_timeline_parity(self):
        """`repro timeline` works on real runs: same per-round series."""
        ev = run_algorithm(ring(8), "flood-max", seed=3, timeline=True)
        net = run_algorithm(ring(8), "flood-max", seed=3, timeline=True,
                            backend="net")
        assert net.timeline is not None
        assert list(net.timeline) == list(ev.timeline)


class TestChaos:
    """Transport-level fault injection stays seeded and deterministic."""

    LOSS_MODEL = ExecutionModel(loss=BernoulliLoss(0.2), seed=7)

    def test_loss_drop_decisions_reproduce(self):
        """Two independent socket runs from the same (sim_seed,
        model_seed) make bit-identical drop decisions."""
        runs = [run_algorithm(complete(16), "flood-max", seed=7,
                              model=self.LOSS_MODEL, backend="net")
                for _ in range(2)]
        assert runs[0].metrics.messages_dropped > 0
        assert runs[0].metrics.messages_dropped == \
            runs[1].metrics.messages_dropped
        assert runs[0].metrics.messages == runs[1].metrics.messages
        assert runs[0].leader_uid == runs[1].leader_uid
        assert runs[0].outputs == runs[1].outputs

    def test_loss_matches_simulator(self):
        """The link layer consumes the simulator's model stream in the
        same global send order, so the *same messages* are dropped."""
        ev = run_algorithm(complete(16), "least-el", seed=7,
                           model=ExecutionModel(loss=BernoulliLoss(0.1),
                                                seed=7))
        net = run_algorithm(complete(16), "least-el", seed=7,
                            model=ExecutionModel(loss=BernoulliLoss(0.1),
                                                 seed=7), backend="net")
        assert net.metrics.messages_dropped == ev.metrics.messages_dropped
        assert net.metrics.messages_delivered == \
            ev.metrics.messages_delivered
        assert net.leader_uid == ev.leader_uid

    def test_crash_schedule_matches_simulator(self):
        """Mid-round task kills leave crashed_indices equal to the
        simulator's on the same explicit schedule."""
        model = ExecutionModel(crash=ExplicitCrashes({2: 3, 5: 1}))
        ev = run_algorithm(ring(8), "flood-max", seed=4, model=model)
        net = run_algorithm(ring(8), "flood-max", seed=4, model=model,
                            backend="net")
        assert net.crashed_indices == [2, 5]
        assert net.crashed_indices == ev.crashed_indices
        assert list(net.metrics.crashed_nodes) == \
            list(ev.metrics.crashed_nodes)  # crash *order*, not just set
        assert net.metrics.messages_dropped == ev.metrics.messages_dropped
        assert [s.name for s in net.statuses] == \
            [s.name for s in ev.statuses]


class TestTimeoutRobustness:
    """A wedged peer trips the barrier, never a pytest hang."""

    def _request(self):
        spec = _ensure_registry()["flood-max"]
        return RunRequest(network=Network.build(ring(8), seed=3),
                          factory=spec.factory, seed=3,
                          knowledge={"n": 8}, algorithm="flood-max")

    def test_hung_peer_names_the_stalled_node(self):
        # Hard budget: the 0.5s barrier must fire long before.
        with wall_budget(20), pytest.raises(TransportTimeout) as exc:
            net_engine.run(self._request(), round_timeout=0.5,
                           hang_nodes=(3,))
        assert exc.value.node == 3
        assert "node 3" in str(exc.value)
        assert "timeout" in str(exc.value)

    def test_hung_node_inside_a_batch(self):
        """The wedged node's timeout ends the batch, names the node, and
        the shared mesh still closes every socket."""
        with wall_budget(20), no_resource_warnings():
            with pytest.raises(TransportTimeout) as exc:
                net_engine.run_batch(batch_request("flood-max", "ring:8"),
                                     round_timeout=0.5, hang_nodes=(3,))
        assert exc.value.node == 3
        assert "node 3" in str(exc.value)

    def test_failed_handshake_closes_everything(self, monkeypatch):
        """A dial whose hello never arrives times the handshake out;
        the listeners, dialed writers and reader tasks opened so far
        all close before the error propagates."""
        real = codec.read_hello
        calls = []

        async def lose_first_hello(reader):
            calls.append(None)
            if len(calls) == 1:
                return None
            return await real(reader)

        monkeypatch.setattr(codec, "read_hello", lose_first_hello)
        with wall_budget(20), no_resource_warnings():
            with pytest.raises(TransportTimeout, match="mesh handshake"):
                net_engine.run(self._request(), round_timeout=0.3)
        assert len(calls) > 1


class TestBatch:
    """A batch's trials share one mesh and stay bit-identical."""

    @pytest.mark.parametrize("loss", [False, True],
                             ids=["reliable", "loss"])
    @pytest.mark.parametrize("graph", ["clique:8", "ring:9"])
    @pytest.mark.parametrize("algorithm", DELAY_TOLERANT)
    def test_batch_matches_sequential_and_event_loop(self, algorithm, graph,
                                                     loss):
        model = (ExecutionModel(loss=BernoulliLoss(0.1), seed=3) if loss
                 else None)
        # Las Vegas never stops retrying on a lossy clique; the ceiling
        # truncates it (every other run here ends by round ~200).
        request = batch_request(algorithm, graph, model=model,
                                max_rounds=300)
        assert NET.supports_batch(request) is None
        batched = [fingerprint(r) for r in NET.run_batch(request)]
        sequential = [fingerprint(NET.run(trial))
                      for trial in expand_batch(request)]
        event_loop = [fingerprint(r) for r in EVENT_LOOP.run_batch(request)]
        assert batched == sequential == event_loop

    @pytest.mark.parametrize("max_rounds", [2, 3])
    @pytest.mark.parametrize("algorithm", ["flood-max", "least-el"])
    @pytest.mark.parametrize("graph", ["clique:16", "ring:16"])
    def test_truncated_modeled_runs(self, graph, algorithm, max_rounds):
        """Runs cut at their round ceiling leave frames booked; the
        drain collects them without counting them, so neither the run
        nor the next trial on the mesh sees a difference."""
        request = batch_request(
            algorithm, graph, max_rounds=max_rounds,
            model=ExecutionModel(loss=BernoulliLoss(0.1), seed=3))
        event_loop = [fingerprint(r) for r in EVENT_LOOP.run_batch(request)]
        assert all(row["truncated"] for row in event_loop)
        single = [fingerprint(NET.run(trial))
                  for trial in expand_batch(request)]
        batched = [fingerprint(r) for r in NET.run_batch(request)]
        assert single == event_loop
        assert batched == event_loop

    def test_stale_frames_refuse_the_next_run(self):
        """The isolation check: a frame left from an earlier run would
        satisfy the next run's barrier, so the run refuses to start."""
        request = batch_request("flood-max", "ring:8", trials=1)
        trial = next(expand_batch(request))
        with Mesh(request.topology, 5.0) as mesh:
            mesh.endpoints[2]._buffers[4] = [(1, 4, 0, None)]
            with pytest.raises(TransportError, match="node 2 .* round 4"):
                net_engine.run(trial, mesh=mesh)

    def test_congest_violation_raises_as_in_the_expansion(self):
        """CONGEST batches: trials run in order, so the first offending
        payload raises exactly what the sequential expansion raises."""
        request = dataclasses.replace(batch_request("flood-max", "ring:8"),
                                      congest_bits=1)
        assert NET.supports_batch(request) is None
        with pytest.raises(CongestViolation) as batched:
            NET.run_batch(request)
        with pytest.raises(CongestViolation) as expected:
            EVENT_LOOP.run_batch(request)
        assert str(batched.value) == str(expected.value)

    def test_crash_schedules_never_batch(self):
        model = ExecutionModel(crash=ExplicitCrashes({2: 3}))
        request = batch_request("flood-max", "ring:8", model=model)
        reason = NET.supports_batch(request)
        assert reason is not None and "crash" in reason
        rows = [fingerprint(r) for r in NET.run_batch(request)]
        assert rows == [fingerprint(r)
                        for r in EVENT_LOOP.run_batch(request)]
        assert all(row["crashed_nodes"] == [2] for row in rows)

    def test_supports_batch_builds_no_network(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("supports_batch built a network")

        monkeypatch.setattr(Network, "build", no_build)
        assert NET.supports_batch(batch_request("least-el", "ring:9")) \
            is None
        reason = NET.supports_batch(batch_request("flood-max", "clique:65"))
        assert reason is not None and "n=65" in reason
        reason = NET.supports_batch(batch_request("kingdom", "ring:9"))
        assert reason is not None and "synchronous-only" in reason

    def test_run_trials_batches_without_changing_statistics(self):
        kwargs = dict(trials=3, seed=5, knowledge_keys=("n",),
                      backend="net", keep_results=True)
        seq = run_trials(ring(9), "least-el", batch=False, **kwargs)
        bat = run_trials(ring(9), "least-el", **kwargs)
        assert (seq.messages, seq.rounds, seq.bits) == \
            (bat.messages, bat.rounds, bat.bits)
        assert (seq.successes, seq.surviving_successes) == \
            (bat.successes, bat.surviving_successes)
        assert [fingerprint(r) for r in seq.results] == \
            [fingerprint(r) for r in bat.results]


class TestRunnerBatching:
    """The experiments Runner groups net trials onto one mesh."""

    SPEC_KWARGS = dict(name="net-batch", algorithms=["flood-max", "least-el"],
                       graphs=["ring:8"], trials=3, seed=4, backend="net")

    def test_grouped_rows_and_digests_identical(self, tmp_path):
        spec = ExperimentSpec(**self.SPEC_KWARGS)
        plain = Runner(cache_dir=str(tmp_path / "a"),
                       batch_trials=False).run(spec)
        grouped = Runner(cache_dir=str(tmp_path / "b")).run(spec)
        assert plain.metrics == grouped.metrics
        assert [r.cell.digest() for r in plain.results] == \
            [r.cell.digest() for r in grouped.results]
        assert plain.telemetry.batched_groups == 0
        assert grouped.telemetry.batched_groups == 2
        assert grouped.telemetry.batched_trials == 6
        assert grouped.telemetry.unbatched == {}

    def test_crash_groups_run_per_trial_and_say_why(self):
        sweep = Runner().run(ExperimentSpec(**self.SPEC_KWARGS,
                                            crash=["0", "1"]))
        telemetry = sweep.telemetry
        assert telemetry.batched_trials == 6  # the crash-free groups
        [(reason, cells)] = telemetry.unbatched.items()
        assert reason.startswith("crash schedule") and cells == 6
        assert f"6 trials unbatched: {reason}" in telemetry.summary()
        assert telemetry.to_json()["unbatched"] == {reason: 6}


class TestRefusal:
    """Outside the slice: reasoned BackendUnsupported, never numbers."""

    def _request(self, **overrides):
        spec = _ensure_registry()["flood-max"]
        base = dict(network=Network.build(ring(6), seed=0),
                    factory=spec.factory, seed=0,
                    knowledge={"n": 6, "D": 3}, algorithm="flood-max")
        base.update(overrides)
        return RunRequest(**base)

    def test_implicit_million_node_topology_refused(self):
        network = Network.build(CliqueTopology(1_000_000), lazy=True)
        reason = BACKENDS["net"].supports(
            self._request(network=network, knowledge={"n": 1_000_000}))
        assert reason is not None and "implicit" in reason

    def test_oversized_explicit_mesh_refused(self):
        reason = BACKENDS["net"].supports(
            self._request(network=Network.build(ring(100), seed=0),
                          knowledge={"n": 100}))
        assert reason is not None and str(net_engine.NET_MAX_NODES) in reason

    @pytest.mark.parametrize("overrides,hint", [
        ({"watch_edges": {(0, 1)}}, "watch"),
        ({"record_sends": True}, "record_sends"),
        ({"algorithm": None}, "name"),
        ({"algorithm": "kingdom"}, "synchronous-only"),
        ({"model": ExecutionModel(delay=FixedDelay(3))}, "Δ=3"),
    ])
    def test_feature_refusals(self, overrides, hint):
        reason = BACKENDS["net"].supports(self._request(**overrides))
        assert reason is not None and hint in reason

    def test_run_surfaces_refusal(self):
        with pytest.raises(BackendUnsupported, match="synchronous-only"):
            run_algorithm(ring(6), "kingdom", backend="net")

    @settings(max_examples=25, deadline=None)
    @given(
        feature=st.sampled_from(["watch", "record", "delay", "sync-only",
                                 "anonymous", "big"]),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_property_unsupported_always_refuses(self, feature, seed):
        """For ANY request with an unsupported feature: a non-None
        reason from supports(), and BackendUnsupported from run()."""
        overrides = {
            "watch": {"watch_edges": {(0, 1)}},
            "record": {"record_sends": True},
            "delay": {"model": ExecutionModel(delay=FixedDelay(2))},
            "sync-only": {"algorithm": "kingdom-known-d"},
            "anonymous": {"algorithm": None},
            "big": {"network": Network.build(complete(65), seed=seed),
                    "knowledge": {"n": 65}},
        }[feature]
        request = self._request(seed=seed, **overrides)
        backend = BACKENDS["net"]
        assert backend.supports(request) is not None
        with pytest.raises(BackendUnsupported):
            backend.run(request)
