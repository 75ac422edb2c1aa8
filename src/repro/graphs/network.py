"""Concrete network instances: topology + ID assignment + port mappings.

The paper distinguishes the abstract graph ``G0`` from its *concrete
instantiations* ``G_{phi,P}`` obtained by fixing an ID assignment ``phi``
and a port mapping ``P`` (Section 3.1).  This module implements exactly
that: a :class:`Network` wraps a :class:`~repro.graphs.topology.Topology`
with

* a unique identifier per node, drawn from an adversarially chosen set
  ``Z`` of size ``n^4`` (the paper's assumption, Section 2), and
* a per-node permutation mapping local *port numbers* to incident edges
  (nodes never see who is on the other side of a port).

Algorithms run by :class:`repro.sim.scheduler.Simulator` interact with the
network exclusively through ports and their own ID.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .topology import Topology
from .ids import IdAssigner, RandomIds

#: ``Network.build(..., lazy=None)`` switches to analytic port tables
#: automatically when an implicit topology is both large and dense —
#: materialized tables for ``clique:16384`` alone would cost gigabytes.
#: Sparse implicit graphs (rings, tori) stay materialized by default:
#: their port tables are O(n) and flat-table indexing is faster.
LAZY_AUTO_MIN_NODES = 2048
LAZY_AUTO_MIN_AVG_DEGREE = 64


class Network:
    """A concrete network instance ready to be simulated.

    Construction normally goes through :meth:`Network.build`, which
    draws IDs and port permutations from a seeded RNG so that every
    experiment is reproducible.
    """

    def __init__(self, topology: Topology, ids: Sequence[int],
                 ports: Sequence[Sequence[int]]) -> None:
        n = topology.num_nodes
        if len(ids) != n:
            raise ValueError(f"need {n} IDs, got {len(ids)}")
        if len(set(ids)) != n:
            raise ValueError("node IDs must be unique")
        if len(ports) != n:
            raise ValueError(f"need {n} port maps, got {len(ports)}")
        for u in range(n):
            if sorted(ports[u]) != list(topology.neighbors(u)):
                raise ValueError(
                    f"port map of node {u} is not a permutation of its neighbors")
        self._topology = topology
        self._ids: Tuple[int, ...] = tuple(ids)
        self._ports: Tuple[Tuple[int, ...], ...] = tuple(tuple(p) for p in ports)
        # Reverse maps -------------------------------------------------
        self._id_to_index: Dict[int, int] = {uid: i for i, uid in enumerate(self._ids)}
        self._port_of_neighbor: Tuple[Dict[int, int], ...] = tuple(
            {nbr: port for port, nbr in enumerate(self._ports[u])} for u in range(n))
        # Flat hot-path tables: degree per node, and for each (node,
        # port) the *receiver-side* port of the shared edge, so a send
        # resolves (dst, dst_port) with two list indexes and no dict
        # lookups (see RoundCore._submit_send).
        self._degrees: Tuple[int, ...] = tuple(len(p) for p in self._ports)
        self._peer_ports: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(self._port_of_neighbor[nbr][u] for nbr in self._ports[u])
            for u in range(n))

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, topology: Topology, *, seed: int = 0,
              ids: Optional[IdAssigner] = None,
              shuffle_ports: bool = True,
              lazy: Optional[bool] = None) -> "Network":
        """Instantiate ``topology`` with IDs and port permutations.

        Parameters
        ----------
        seed:
            Master seed; IDs and ports are derived deterministically.
        ids:
            ID-assignment strategy (defaults to uniform sampling without
            replacement from ``[1, n^4]``, the paper's model).
        shuffle_ports:
            When False, port *i* of node *u* leads to its *i*-th smallest
            neighbor — useful in unit tests that need predictable wiring.
        lazy:
            ``True`` builds an :class:`ImplicitNetwork` whose port
            tables are analytic (O(n) memory regardless of density;
            requires an implicit topology).  ``False`` forces the
            materialized tables.  ``None`` (default) picks lazily only
            for large, dense implicit topologies, so existing seeds on
            small graphs keep their exact port permutations.  The two
            backends draw *different* deterministic port mappings from
            the same seed — materialized builds use uniform per-node
            shuffles, lazy builds use per-node rotations (see the
            :class:`ImplicitNetwork` caution).
        """
        n = topology.num_nodes
        rng = random.Random(f"network:{seed}:{topology.name}")
        assigner = ids if ids is not None else RandomIds()
        id_list = assigner.assign(n, rng)
        if lazy is None:
            lazy = (topology.is_implicit and n > LAZY_AUTO_MIN_NODES and
                    2 * topology.num_edges > LAZY_AUTO_MIN_AVG_DEGREE * n)
        if lazy:
            if not topology.is_implicit:
                raise ValueError(
                    "lazy port tables require an implicit topology "
                    f"(got materialized {topology.name!r})")
            # One rotation offset per node is the whole port state: port
            # p of u leads to sorted-neighbor (p + rot[u]) mod deg(u).
            if shuffle_ports:
                rot = [rng.randrange(topology.degree(u)) if topology.degree(u)
                       else 0 for u in range(n)]
            else:
                rot = [0] * n
            return ImplicitNetwork(topology, id_list, rot)
        ports: List[List[int]] = []
        for u in range(n):
            mapping = list(topology.neighbors(u))
            if shuffle_ports:
                rng.shuffle(mapping)
            ports.append(mapping)
        return cls(topology, id_list, ports)

    # ------------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def num_nodes(self) -> int:
        return self._topology.num_nodes

    @property
    def num_edges(self) -> int:
        return self._topology.num_edges

    @property
    def ids(self) -> Tuple[int, ...]:
        return self._ids

    def id_of(self, index: int) -> int:
        return self._ids[index]

    def index_of_id(self, uid: int) -> int:
        return self._id_to_index[uid]

    def degree(self, index: int) -> int:
        return self._degrees[index]

    def neighbor_via_port(self, index: int, port: int) -> int:
        """Node index reached by sending through ``port`` from ``index``."""
        return self._ports[index][port]

    def port_to_neighbor(self, index: int, neighbor: int) -> int:
        """Local port of ``index`` whose edge leads to ``neighbor``."""
        return self._port_of_neighbor[index][neighbor]

    def peer_port(self, index: int, port: int) -> int:
        """The receiver-side port of the edge behind ``(index, port)``.

        Equivalent to ``port_to_neighbor(neighbor_via_port(index, port),
        index)`` but a single table index.
        """
        return self._peer_ports[index][port]

    @property
    def port_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Flat ``[node][port] -> neighbor`` table (hot-path view)."""
        return self._ports

    @property
    def peer_port_table(self) -> Tuple[Tuple[int, ...], ...]:
        """Flat ``[node][port] -> receiver port`` table (hot-path view)."""
        return self._peer_ports

    # ------------------------------------------------------------------
    # Broadcast-aggregation hooks (see Simulator's aggregated path)
    # ------------------------------------------------------------------
    def inbound_ports(self, index: int):
        """Mapping-like ``[src] -> local port of index leading to src``."""
        return self._port_of_neighbor[index]

    def expand_broadcasts(self, index: int, records: Sequence[Tuple[int, Any]],
                          make: Callable[[int, Any], Any]) -> List[Any]:
        """Expand buffered full-broadcast records into ``index``'s inbox.

        ``records`` is a sequence of ``(src, payload)`` pairs on a
        complete graph (every ``src != index`` is a neighbor); ``make``
        is the delivery constructor, passed in by the scheduler to keep
        this module free of simulator imports.  Returns one delivery per
        foreign record, in record order.
        """
        row = self._port_of_neighbor[index]
        return [make(row[src], payload)
                for src, payload in records if src != index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Network({self._topology.name!r}, n={self.num_nodes}, "
                f"m={self.num_edges})")


class _LazyPortRow:
    """One node's analytic ``port -> neighbor`` (or peer-port) view."""

    __slots__ = ("_fn", "_node", "_degree")

    def __init__(self, fn: Callable[[int, int], int], node: int,
                 degree: int) -> None:
        self._fn = fn
        self._node = node
        self._degree = degree

    def __getitem__(self, port: int) -> int:
        if not 0 <= port < self._degree:
            raise IndexError(f"port {port} out of range [0, {self._degree})")
        return self._fn(self._node, port)

    def __len__(self) -> int:
        return self._degree

    def __iter__(self):
        fn, node = self._fn, self._node
        return (fn(node, p) for p in range(self._degree))


class _LazyPortTable:
    """Analytic stand-in for the flat ``[node][port]`` tuple tables."""

    __slots__ = ("_fn", "_network", "_rows")

    def __init__(self, network: "ImplicitNetwork",
                 fn: Callable[[int, int], int]) -> None:
        self._network = network
        self._fn = fn
        self._rows: Dict[int, _LazyPortRow] = {}

    def __getitem__(self, node: int) -> _LazyPortRow:
        row = self._rows.get(node)
        if row is None:
            row = self._rows[node] = _LazyPortRow(
                self._fn, node, self._network.degree(node))
        return row

    def __len__(self) -> int:
        return self._network.num_nodes


class _LazyInboundRow:
    """Analytic ``[src] -> local port`` view for one receiver."""

    __slots__ = ("_network", "_node")

    def __init__(self, network: "ImplicitNetwork", node: int) -> None:
        self._network = network
        self._node = node

    def __getitem__(self, src: int) -> int:
        return self._network.port_to_neighbor(self._node, src)


class ImplicitNetwork(Network):
    """A network whose port tables are closed-form functions.

    Built by :meth:`Network.build` with ``lazy=True`` over an implicit
    topology.  The only per-node state is the ID vector and one port
    *rotation* offset: port ``p`` of node ``u`` leads to its
    ``(p + rot[u]) mod deg(u)``-th smallest neighbor.  Rotations are
    seeded, so instances stay deterministic and ports stay scrambled
    relative to node indices, at O(n) memory for any density — a
    ``clique:16384`` network costs ~400 KB instead of the ~4 GB its
    materialized port/peer tables would need.

    .. caution::
       Rotations span only ``deg`` of the ``deg!`` possible port
       permutations per node: consecutive ports lead to cyclically
       consecutive neighbors.  Every port mapping is still a legal
       instantiation of the paper's model (Section 3.1 quantifies over
       *arbitrary* port mappings), and algorithms that sample ports via
       ``ctx.rng`` are unaffected — but an experiment whose statistics
       depend on port wirings being *uniformly random permutations*
       (e.g. a port-wiring lower-bound sweep) must use the materialized
       builder (``lazy=False``), which shuffles each node's map.
    """

    def __init__(self, topology: Topology, ids: Sequence[int],
                 rotations: Sequence[int]) -> None:
        n = topology.num_nodes
        if len(ids) != n:
            raise ValueError(f"need {n} IDs, got {len(ids)}")
        if len(set(ids)) != n:
            raise ValueError("node IDs must be unique")
        if len(rotations) != n:
            raise ValueError(f"need {n} port rotations, got {len(rotations)}")
        for u, r in enumerate(rotations):
            if topology.degree(u) and not 0 <= r < topology.degree(u):
                raise ValueError(f"rotation {r} of node {u} out of range")
        self._topology = topology
        self._ids = tuple(ids)
        self._id_to_index = {uid: i for i, uid in enumerate(self._ids)}
        self._rot = list(rotations)
        self._is_clique = bool(topology.is_complete)
        self._out_table = _LazyPortTable(self, self._out_port)
        self._peer_table = _LazyPortTable(self, self.peer_port)

    @classmethod
    def from_trusted(cls, topology: Topology, ids_array,
                     rotations_array) -> "ImplicitNetwork":
        """Construct from numpy arrays without the O(n) validation scans.

        For builders that guarantee distinct IDs and in-range rotations
        *by construction* — the trial-batched network builder
        (:func:`repro.sim.columnar.batch.build_network`), whose
        rejection-sampling replay cannot emit a duplicate or
        out-of-range value.  The Python-level views (``_ids`` tuple,
        ``_rot`` list, id->index map) materialize lazily through
        ``__getattr__`` on first use, so a network that only ever feeds
        a vectorized kernel never pays the per-node conversion.
        """
        self = object.__new__(cls)
        self._topology = topology
        self._ids_arr = ids_array
        self._rot_arr = rotations_array
        self._is_clique = bool(topology.is_complete)
        self._out_table = _LazyPortTable(self, self._out_port)
        self._peer_table = _LazyPortTable(self, self.peer_port)
        return self

    def __getattr__(self, name: str):
        # Only trusted-constructed instances lack these attributes;
        # materialize the Python views from the arrays on first touch.
        if name == "_ids":
            self._ids = tuple(self._ids_arr.tolist())
            return self._ids
        if name == "_rot":
            self._rot = self._rot_arr.tolist()
            return self._rot
        if name == "_id_to_index":
            self._id_to_index = {uid: i for i, uid in enumerate(self._ids)}
            return self._id_to_index
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- analytic port arithmetic --------------------------------------
    def _out_port(self, index: int, port: int) -> int:
        topo = self._topology
        deg = topo.degree(index)
        return topo.neighbor_at(index, (port + self._rot[index]) % deg)

    def degree(self, index: int) -> int:
        return self._topology.degree(index)

    def neighbor_via_port(self, index: int, port: int) -> int:
        deg = self._topology.degree(index)
        if not 0 <= port < deg:
            raise IndexError(f"port {port} out of range [0, {deg})")
        return self._out_port(index, port)

    def port_to_neighbor(self, index: int, neighbor: int) -> int:
        topo = self._topology
        rank = topo.neighbor_rank(index, neighbor)
        return (rank - self._rot[index]) % topo.degree(index)

    def peer_port(self, index: int, port: int) -> int:
        neighbor = self.neighbor_via_port(index, port)
        return self.port_to_neighbor(neighbor, index)

    @property
    def port_table(self):
        return self._out_table

    @property
    def peer_port_table(self):
        return self._peer_table

    def inbound_ports(self, index: int) -> _LazyInboundRow:
        return _LazyInboundRow(self, index)

    def expand_broadcasts(self, index: int, records: Sequence[Tuple[int, Any]],
                          make: Callable[[int, Any], Any]) -> List[Any]:
        if self._is_clique:
            # Inlined clique arithmetic: the receiver-side port of the
            # (src -> index) edge is (rank(src) - rot[index]) mod (n-1)
            # with rank(src) = src - [src > index].  This loop is the
            # large-n hot path (one iteration per delivered message).
            rot = self._rot[index]
            nm1 = self.num_nodes - 1
            v = index
            return [make((s - (s > v) - rot) % nm1, payload)
                    for s, payload in records if s != v]
        row = self.inbound_ports(index)
        return [make(row[src], payload)
                for src, payload in records if src != index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ImplicitNetwork({self._topology.name!r}, n={self.num_nodes}, "
                f"m={self.num_edges})")
