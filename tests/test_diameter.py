"""The bit-parallel exact diameter against per-node BFS eccentricities,
and the direct neighbor rows of the implicit topologies against their
generic ``neighbor_at`` rows and materialized twins."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.topology as topology_module
from repro.graphs import CliqueCycle, Topology
from repro.graphs.generators import erdos_renyi, grid, hypercube, path, star
from repro.graphs.topology import (CliqueTopology, ImplicitTopology,
                                   RingTopology, TorusTopology)


def bfs_diameter(topo: Topology) -> int:
    return max(topo.eccentricity(u) for u in range(topo.num_nodes))


@st.composite
def connected_graphs(draw, max_nodes=40):
    """A random tree plus random extra edges: always connected."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    if n > 1:
        for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
    return Topology(n, edges, name=f"random-{n}")


class TestBitParallelDiameter:
    @settings(max_examples=80, deadline=None)
    @given(connected_graphs())
    def test_equals_max_eccentricity(self, topo):
        assert topo.diameter() == bfs_diameter(topo)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(), st.integers(min_value=1, max_value=9))
    def test_source_blocks_do_not_change_the_answer(self, topo, block):
        expected = bfs_diameter(topo)
        original = topology_module.DIAMETER_BLOCK
        topology_module.DIAMETER_BLOCK = block
        try:
            assert topo._all_sources_depth() == expected
        finally:
            topology_module.DIAMETER_BLOCK = original

    @pytest.mark.parametrize("make", [
        lambda: erdos_renyi(60, 0.08, seed=3),
        lambda: erdos_renyi(128, target_edges=1000, seed=1),
        lambda: path(2),
        lambda: path(57),
        lambda: star(40),
        lambda: grid(5, 7),
        lambda: grid(3, 3, torus=False),
        lambda: hypercube(6),
        lambda: CliqueCycle(48, 8).topology,
    ], ids=["er-60", "er-128-m1000", "path-2", "path-57", "star-40",
            "grid-5x7", "grid-3x3", "hypercube-6", "clique-cycle-48-8"])
    def test_named_families(self, make):
        topo = make()
        assert topo.diameter() == bfs_diameter(topo)

    def test_single_node_is_zero(self):
        assert Topology(1, []).diameter() == 0

    def test_disconnected_raises(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError,
                           match="diameter undefined on a disconnected graph"):
            topo.diameter()

    @pytest.mark.parametrize("implicit", [
        RingTopology(9), RingTopology(10), TorusTopology(3, 5),
        TorusTopology(4, 6), CliqueTopology(7),
    ])
    def test_materialized_twin_matches_closed_form(self, implicit):
        twin = Topology(implicit.num_nodes, implicit.iter_edges())
        assert twin.diameter() == implicit.diameter()


def materialized(topo: Topology) -> Topology:
    """The same edge set as a CSR topology, from first principles."""
    n = topo.num_nodes
    if isinstance(topo, CliqueTopology):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif isinstance(topo, RingTopology):
        edges = [(u, (u + 1) % n) for u in range(n)]
    else:
        rows, cols = topo.rows, topo.cols
        edges = [(r * cols + c, r * cols + (c + 1) % cols)
                 for r in range(rows) for c in range(cols)]
        edges += [(r * cols + c, ((r + 1) % rows) * cols + c)
                  for r in range(rows) for c in range(cols)]
    return Topology(n, edges)


class TestImplicitNeighborRows:
    @pytest.mark.parametrize("topo", [
        CliqueTopology(2), CliqueTopology(9), RingTopology(3),
        RingTopology(8), TorusTopology(3, 3), TorusTopology(3, 5),
        TorusTopology(5, 4),
    ])
    def test_direct_row_matches_generic_and_materialized(self, topo):
        twin = materialized(topo)
        for u in range(topo.num_nodes):
            row = topo.neighbors(u)
            assert type(row) is tuple
            assert row == ImplicitTopology.neighbors(topo, u)
            assert row == twin.neighbors(u)

    @pytest.mark.parametrize("topo", [
        CliqueTopology(5), RingTopology(5), TorusTopology(3, 3)])
    @pytest.mark.parametrize("u", [-1, 9])
    def test_out_of_range_node_raises(self, topo, u):
        with pytest.raises(IndexError):
            topo.neighbors(u)
