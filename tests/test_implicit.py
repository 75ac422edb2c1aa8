"""Large-n scaling layer: implicit topologies, lazy port tables, and the
scheduler's broadcast-aggregation path.

Three equivalence obligations anchor this suite:

1. **Implicit == materialized structure.**  `CliqueTopology`,
   `RingTopology`, and `TorusTopology` must be observationally identical
   to a materialized `Topology` built from the same edge list.
2. **Lazy == valid network.**  `ImplicitNetwork`'s analytic port tables
   must be genuine port permutations with consistent peer ports.
3. **Aggregated == plain scheduling.**  Runs through the aggregation
   path must be bit-identical to the same network scheduled without it
   (the golden parity suite pins this against the historical scheduler;
   here we pin it against a structurally identical non-clique-marked
   topology, which keeps the old code path alive as a reference).
"""

import itertools

import pytest

from repro.api import _ensure_registry, run_algorithm
from repro.graphs import (
    CliqueTopology,
    ImplicitNetwork,
    Network,
    RingTopology,
    Topology,
    TorusTopology,
    complete,
    grid,
    parse_graph_spec,
    ring,
)
from repro.sim import Simulator


def materialized_twin(topology: Topology) -> Topology:
    """A plain CSR topology with the same node set, edge set, and name."""
    return Topology(topology.num_nodes, topology.iter_edges(),
                    name=topology.name)


IMPLICIT_SAMPLES = [
    CliqueTopology(2),
    CliqueTopology(5),
    CliqueTopology(16),
    RingTopology(3),
    RingTopology(4),
    RingTopology(11),
    TorusTopology(3, 3),
    TorusTopology(3, 5),
    TorusTopology(4, 6),
]


class TestImplicitMatchesMaterialized:
    @pytest.mark.parametrize("topo", IMPLICIT_SAMPLES,
                             ids=[t.name for t in IMPLICIT_SAMPLES])
    def test_structure_identical(self, topo):
        twin = materialized_twin(topo)
        assert topo.num_nodes == twin.num_nodes
        assert topo.num_edges == twin.num_edges
        assert topo.edges == twin.edges
        for u in range(topo.num_nodes):
            assert topo.degree(u) == twin.degree(u)
            assert topo.neighbors(u) == twin.neighbors(u)
            for k in range(topo.degree(u)):
                v = topo.neighbor_at(u, k)
                assert v == twin.neighbor_at(u, k)
                assert topo.neighbor_rank(u, v) == k
        for u, v in itertools.product(range(topo.num_nodes), repeat=2):
            assert topo.has_edge(u, v) == twin.has_edge(u, v)

    @pytest.mark.parametrize("topo", IMPLICIT_SAMPLES,
                             ids=[t.name for t in IMPLICIT_SAMPLES])
    def test_analytic_distances_match_bfs(self, topo):
        twin = materialized_twin(topo)
        assert topo.is_connected()
        assert topo.diameter() == twin.diameter()
        for u in (0, topo.num_nodes // 2, topo.num_nodes - 1):
            assert topo.eccentricity(u) == twin.eccentricity(u)
        assert topo.diameter_estimate() <= topo.diameter()

    def test_generators_return_implicit_backends(self):
        assert isinstance(complete(8), CliqueTopology)
        assert isinstance(ring(9), RingTopology)
        assert isinstance(grid(4, 4, torus=True), TorusTopology)
        # Partial wraps (an axis of length <= 2) stay materialized.
        assert not grid(2, 5, torus=True).is_implicit
        assert not grid(4, 4, torus=False).is_implicit

    def test_clique_spec_alias(self):
        a = parse_graph_spec("clique:12")
        b = parse_graph_spec("complete:12")
        assert a.is_complete and b.is_complete
        assert a.num_edges == b.num_edges == 66

    def test_large_specs_are_cheap(self):
        t = parse_graph_spec("clique:16384")
        assert t.num_edges == 16384 * 16383 // 2
        assert t.diameter() == 1
        tor = parse_graph_spec("torus:128x128")
        assert tor.num_nodes == 128 * 128
        assert tor.num_edges == 2 * 128 * 128
        assert tor.diameter() == 128

    def test_huge_edge_materialization_refused(self):
        t = parse_graph_spec("clique:16384")
        with pytest.raises(ValueError, match="refusing to materialize"):
            _ = t.edges
        # ... but streaming iteration works.
        assert next(t.iter_edges()) == (0, 1)


class TestDiameterMemoized:
    def test_repeated_calls_reuse_cached_value(self, monkeypatch):
        t = Topology(6, [(i, i + 1) for i in range(5)], name="path-6")
        assert t.diameter() == 5

        def boom(*_a, **_k):  # any further BFS would betray a re-run
            raise AssertionError("diameter() re-ran the all-sources BFS")

        monkeypatch.setattr(t, "bfs_distances", boom)
        assert t.diameter() == 5

    def test_knowledge_d_callers_share_one_bfs_sweep(self):
        """Repeated run_trials with knowledge_keys=("D",) must not pay
        the all-sources diameter sweep per call."""
        from repro.analysis import run_trials
        from repro.core import LeastElementElection

        calls = {"n": 0}

        class Probe(Topology):
            def _all_sources_depth(self):
                calls["n"] += 1
                return super()._all_sources_depth()

        probe = Probe(8, [(i, (i + 1) % 8) for i in range(8)], name="ring-8")
        for _ in range(3):
            run_trials(probe, LeastElementElection, trials=2,
                       knowledge_keys=("n", "D"))
        assert calls["n"] == 1  # one sweep per instance, ever
        other = Probe(8, [(i, (i + 1) % 8) for i in range(8)], name="ring-8")
        assert other.diameter() == probe.diameter() == 4
        assert calls["n"] == 2


class TestLazyNetwork:
    def test_auto_threshold(self):
        # Small/sparse implicit graphs stay materialized ...
        assert not isinstance(Network.build(complete(64), seed=1),
                              ImplicitNetwork)
        assert not isinstance(Network.build(parse_graph_spec("torus:64x64"),
                                            seed=1), ImplicitNetwork)
        # ... large dense ones go lazy.
        assert isinstance(Network.build(parse_graph_spec("clique:4096"),
                                        seed=1), ImplicitNetwork)

    def test_lazy_requires_implicit_topology(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError, match="implicit topology"):
            Network.build(t, seed=1, lazy=True)

    @pytest.mark.parametrize("spec", ["complete:9", "ring:7", "torus:3x4"])
    def test_ports_are_valid_permutations(self, spec):
        topo = parse_graph_spec(spec)
        net = Network.build(topo, seed=3, lazy=True)
        assert isinstance(net, ImplicitNetwork)
        for u in range(topo.num_nodes):
            seen = [net.neighbor_via_port(u, p) for p in range(net.degree(u))]
            assert sorted(seen) == list(topo.neighbors(u))
            for p, v in enumerate(seen):
                assert net.port_to_neighbor(u, v) == p
                # Peer-port round trip across the shared edge.
                q = net.peer_port(u, p)
                assert net.neighbor_via_port(v, q) == u
                assert net.peer_port(v, q) == p
            # The table views agree with the method API.
            assert list(net.port_table[u]) == seen
            assert [net.peer_port_table[u][p]
                    for p in range(net.degree(u))] == [
                        net.peer_port(u, p) for p in range(net.degree(u))]

    def test_deterministic_and_seed_sensitive(self):
        topo = parse_graph_spec("complete:33")
        a = Network.build(topo, seed=5, lazy=True)
        b = Network.build(topo, seed=5, lazy=True)
        c = Network.build(topo, seed=6, lazy=True)
        assert a.ids == b.ids
        assert [list(a.port_table[u]) for u in range(33)] == \
               [list(b.port_table[u]) for u in range(33)]
        assert (a.ids != c.ids or
                [list(a.port_table[u]) for u in range(33)] !=
                [list(c.port_table[u]) for u in range(33)])

    def test_unshuffled_ports_sorted(self):
        net = Network.build(parse_graph_spec("complete:6"), seed=1,
                            lazy=True, shuffle_ports=False)
        for u in range(6):
            assert list(net.port_table[u]) == list(
                net.topology.neighbors(u))

    @pytest.mark.parametrize("algorithm", ["least-el", "flood-max",
                                           "sublinear", "kingdom"])
    def test_elections_succeed_on_lazy_networks(self, algorithm):
        topo = parse_graph_spec("complete:24")
        net = Network.build(topo, seed=2, lazy=True)
        result = run_algorithm(net, algorithm, seed=7)
        assert result.has_unique_leader
        again = run_algorithm(Network.build(topo, seed=2, lazy=True),
                              algorithm, seed=7)
        assert (again.messages, again.rounds, again.leader_uid) == \
               (result.messages, result.rounds, result.leader_uid)


def run_fingerprint(network, algorithm, seed, **kwargs):
    spec = _ensure_registry()[algorithm]
    knowledge = {"n": network.num_nodes}
    if algorithm == "flood-max":
        knowledge["D"] = 1
    sim = Simulator(network, spec.factory, seed=seed, knowledge=knowledge,
                    **kwargs)
    result = sim.run()
    m = result.metrics
    return {
        "messages": m.messages,
        "bits": m.bits,
        "rounds": result.rounds,
        "rounds_executed": m.rounds_executed,
        "activations": m.activations,
        "delivered": m.messages_delivered,
        "statuses": [s.value for s in result.statuses],
        "leader": result.leader_uid,
        "per_node": sorted(m.per_node_sent.items()),
        "per_kind": sorted(m.per_kind.items()),
        "outputs": result.outputs,
    }


class TestBroadcastAggregation:
    """The aggregated path must be semantically invisible."""

    @pytest.mark.parametrize("algorithm", ["flood-max", "least-el",
                                           "candidate", "sublinear",
                                           "kingdom", "size-estimation"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bit_identical_to_unaggregated(self, algorithm, seed):
        implicit = complete(17)
        twin = materialized_twin(implicit)  # same name => same ID/port draws
        assert not twin.is_complete  # twin runs the plain (old) path
        agg = Simulator(Network.build(implicit, seed=seed),
                        _ensure_registry()[algorithm].factory, seed=seed,
                        knowledge={"n": 17})
        assert agg._aggregate
        fp_a = run_fingerprint(Network.build(implicit, seed=seed),
                               algorithm, seed)
        fp_b = run_fingerprint(Network.build(twin, seed=seed),
                               algorithm, seed)
        assert fp_a == fp_b

    def test_watches_and_send_logs_disable_aggregation(self):
        net = Network.build(complete(8), seed=1)
        spec = _ensure_registry()["least-el"]
        assert not Simulator(net, spec.factory, seed=1,
                             knowledge={"n": 8},
                             record_sends=True)._aggregate
        net2 = Network.build(complete(8), seed=1)
        assert not Simulator(net2, spec.factory, seed=1,
                             knowledge={"n": 8},
                             watch_edges={(0, 1)})._aggregate

    def test_truncation_pending_accounting(self):
        # Cut the run before the broadcast wave is ever delivered: the
        # sends are counted, the deliveries are not.
        net = Network.build(complete(12), seed=1)
        spec = _ensure_registry()["flood-max"]
        sim = Simulator(net, spec.factory, seed=1, knowledge={"n": 12})
        result = sim.run(max_rounds=0)
        assert result.truncated
        assert result.messages == 12 * 11
        assert result.metrics.messages_delivered == 0

    def test_aggregation_on_lazy_network(self):
        topo = parse_graph_spec("complete:40")
        net = Network.build(topo, seed=4, lazy=True)
        spec = _ensure_registry()["flood-max"]
        sim = Simulator(net, spec.factory, seed=4,
                        knowledge={"n": 40, "D": 1})
        assert sim._aggregate
        result = sim.run()
        assert result.has_unique_leader
        assert result.messages == 40 * 39
        assert result.metrics.messages_delivered == 40 * 39
        assert result.rounds == 1


class TestExperimentEngineIntegration:
    def test_clique_spec_sweeps_through_engine(self, tmp_path):
        from repro.api import run_sweep

        sweep = run_sweep(name="implicit-smoke",
                          algorithms=["sublinear", "flood-max"],
                          graphs=["clique:16"], trials=2,
                          auto_knowledge=("D",),
                          cache_dir=str(tmp_path))
        assert sweep.cells == 4 and sweep.executed == 4
        for group in sweep.groups():
            assert group.success_rate == 1.0
            assert group.metrics["D"].mean == 1
        # Warm re-run: every implicit-topology cell is a cache hit.
        again = run_sweep(name="implicit-smoke",
                          algorithms=["sublinear", "flood-max"],
                          graphs=["clique:16"], trials=2,
                          auto_knowledge=("D",),
                          cache_dir=str(tmp_path))
        assert (again.executed, again.cached) == (0, 4)


class TestLargeNSmoke:
    """Time-boxed guard: the implicit path must not silently regress.

    These sizes are far past what materialized storage could build in
    test time; each case runs in well under a minute on CI hardware.
    """

    def test_sublinear_election_at_16k(self):
        import math

        result = run_algorithm(parse_graph_spec("clique:16384"),
                               "sublinear", seed=0)
        assert result.has_unique_leader
        n = 16384
        # <= 2 * (candidates) * (referees) with w.h.p. slack on the
        # binomial candidate count: the O(sqrt(n) log^1.5 n) envelope.
        envelope = 2 * (2 * 8 * math.log(n)) * math.ceil(
            math.sqrt(n * math.log(n)))
        assert result.messages <= envelope
        assert result.messages < n * (n - 1) // 1000  # vanishing vs m
        assert result.rounds <= 4

    def test_floodmax_at_2k_with_known_diameter(self):
        # 2049 sits just past the lazy-network auto threshold (2048),
        # so this exercises the ImplicitNetwork end to end.
        topo = parse_graph_spec("clique:2049")
        result = run_algorithm(topo, "flood-max", seed=0,
                               knowledge={"n": 2049, "D": 1})
        assert result.has_unique_leader
        assert result.messages == 2049 * 2048

    def test_least_el_on_large_torus(self):
        result = run_algorithm(parse_graph_spec("torus:32x32"),
                               "least-el", seed=0)
        assert result.has_unique_leader
