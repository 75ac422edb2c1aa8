"""Static undirected-graph structure used by every other subsystem.

A :class:`Topology` is a plain adjacency structure over node indices
``0 .. n-1``.  It knows nothing about identifiers, port numbers, or the
simulation runtime; those concerns live in :mod:`repro.graphs.network`.

The paper's model (Section 2) assumes an undirected connected graph
``G = (V, E)``.  All generators in :mod:`repro.graphs.generators` return
instances of this class.

Storage backends
----------------
The class now has a pluggable storage layer, because the paper's claims
are *asymptotic* and reproducing them means running cliques at
n = 16384 and beyond:

* **Materialized (CSR).**  :class:`Topology` itself stores the graph as
  flat compressed-sparse-row arrays (``array('l')`` index pointers +
  neighbor indices), roughly an order of magnitude smaller than the old
  tuple-of-tuples adjacency.  Canonical edge tuples are built lazily
  and cached only when something actually asks for :attr:`edges`.
* **Implicit.**  :class:`CliqueTopology`, :class:`RingTopology`, and
  :class:`TorusTopology` store *nothing* per edge: adjacency, degree,
  ``has_edge``, and the diameter are all O(1) closed-form answers.  A
  ``clique:65536`` costs a few machine words instead of the ~2 GiB its
  2^31 materialized half-edges would need.

Every graph algorithm on the base class (BFS, bridges, eccentricity,
...) is written against the small storage interface — ``degree``,
``neighbors``, ``neighbor_at``, ``neighbor_rank``, ``iter_edges`` — so
implicit subclasses inherit them unchanged.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from typing import (Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

Edge = Tuple[int, int]

#: Ceiling on lazily materializing the full edge tuple of an implicit
#: topology.  ``clique:16384`` has ~1.3e8 edges; building that tuple by
#: accident (a stray ``.edges`` on a hot path) would stall the process
#: for minutes, so it fails loudly instead.  Use :meth:`iter_edges`.
EDGE_MATERIALIZE_LIMIT = 20_000_000

#: Sources per pass of the bit-parallel diameter: each node holds a mask
#: of this many bits (512 bytes), so a pass stays O(n) in memory.
DIAMETER_BLOCK = 4096


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    if u == v:
        raise ValueError(f"self-loop on node {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Topology:
    """An immutable simple undirected graph over indices ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes; indices run from 0 to ``num_nodes - 1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicates and orientation are
        normalized away; self-loops raise ``ValueError``.
    name:
        Optional human-readable label used in reports and benchmarks.
    """

    #: True for analytic (non-materialized) storage subclasses.
    is_implicit = False
    #: True when the graph is a complete graph by construction; the
    #: scheduler's broadcast-aggregation fast path keys off this.
    is_complete = False

    def __init__(self, num_nodes: int, edges: Iterable[Edge], name: str = "graph") -> None:
        if num_nodes <= 0:
            raise ValueError("a topology needs at least one node")
        self._n = num_nodes
        self._name = name
        adjacency: List[List[int]] = [[] for _ in range(num_nodes)]
        edge_set: Set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for n={num_nodes}")
            e = normalize_edge(u, v)
            if e in edge_set:
                continue
            edge_set.add(e)
            adjacency[e[0]].append(e[1])
            adjacency[e[1]].append(e[0])
        # Flat CSR: indptr[u] .. indptr[u+1] delimit u's sorted neighbors.
        indptr = array("l", [0] * (num_nodes + 1))
        indices = array("l", [0] * (2 * len(edge_set)))
        pos = 0
        for u, nbrs in enumerate(adjacency):
            nbrs.sort()
            indptr[u] = pos
            for v in nbrs:
                indices[pos] = v
                pos += 1
        indptr[num_nodes] = pos
        self._indptr = indptr
        self._indices = indices
        self._m = len(edge_set)
        self._edge_cache: Optional[Tuple[Edge, ...]] = None
        self._diameter: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic accessors (the storage interface)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def _check_edge_materialization(self) -> None:
        """Fail loudly before an O(m) edge materialization at a size
        where it would stall the process for minutes (or OOM)."""
        if self.num_edges > EDGE_MATERIALIZE_LIMIT:
            raise ValueError(
                f"refusing to materialize {self.num_edges} edges of "
                f"{self._name!r}; iterate iter_edges() instead")

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges in canonical sorted order (built lazily, cached)."""
        if self._edge_cache is None:
            self._check_edge_materialization()
            self._edge_cache = tuple(self.iter_edges())
        return self._edge_cache

    def iter_edges(self) -> Iterator[Edge]:
        """Yield edges in canonical sorted order without materializing."""
        indptr, indices = self._indptr, self._indices
        for u in range(self._n):
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if v > u:
                    yield (u, v)

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Sorted neighbor indices of node ``u``."""
        return tuple(self._indices[self._indptr[u]:self._indptr[u + 1]])

    def degree(self, u: int) -> int:
        return self._indptr[u + 1] - self._indptr[u]

    def neighbor_at(self, u: int, k: int) -> int:
        """The ``k``-th smallest neighbor of ``u`` (0-based)."""
        i = self._indptr[u] + k
        if not self._indptr[u] <= i < self._indptr[u + 1]:
            raise IndexError(f"node {u} has no neighbor #{k}")
        return self._indices[i]

    def neighbor_rank(self, u: int, v: int) -> int:
        """Rank of ``v`` among ``u``'s sorted neighbors (inverse of
        :meth:`neighbor_at`); raises ``ValueError`` on non-neighbors."""
        lo, hi = self._indptr[u], self._indptr[u + 1]
        k = bisect_left(self._indices, v, lo, hi)
        if k == hi or self._indices[k] != v:
            raise ValueError(f"{v} is not a neighbor of {u}")
        return k - lo

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        lo, hi = self._indptr[u], self._indptr[u + 1]
        k = bisect_left(self._indices, v, lo, hi)
        return k < hi and self._indices[k] == v

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Topology(name={self._name!r}, n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Graph algorithms used throughout the reproduction
    # ------------------------------------------------------------------
    def bfs_distances(self, source: int) -> List[Optional[int]]:
        """Distances from ``source``; ``None`` marks unreachable nodes."""
        dist: List[Optional[int]] = [None] * self._n
        dist[source] = 0
        queue = deque([source])
        neighbors = self.neighbors
        while queue:
            u = queue.popleft()
            base = dist[u]
            assert base is not None
            for v in neighbors(u):
                if dist[v] is None:
                    dist[v] = base + 1
                    queue.append(v)
        return dist

    def is_connected(self) -> bool:
        if self._n == 1:
            return True
        return all(d is not None for d in self.bfs_distances(0))

    def eccentricity(self, source: int) -> int:
        """Maximum finite BFS distance from ``source``.

        Raises ``ValueError`` on disconnected graphs.
        """
        dist = self.bfs_distances(source)
        if any(d is None for d in dist):
            raise ValueError("eccentricity undefined on a disconnected graph")
        return max(d for d in dist if d is not None)

    def diameter(self) -> int:
        """Exact diameter, memoized on the instance.

        Computed by :meth:`_all_sources_depth`, a bit-parallel
        all-sources expansion that costs O(D · m · n / 64) word
        operations instead of n separate BFS sweeps.  Topologies are
        immutable, so ``knowledge_keys=("D",)`` callers outside the
        experiment engine's cell cache pay for it once per instance
        instead of per call.
        """
        if self._diameter is None:
            if not self.is_connected():
                raise ValueError("diameter undefined on a disconnected graph")
            self._diameter = self._all_sources_depth()
        return self._diameter

    def _all_sources_depth(self) -> int:
        """Largest eccentricity, by growing every node's ball at once.

        ``reach[u]`` is a bitmask of the sources whose ball of the
        current radius contains ``u`` (on an undirected graph, the same
        as the sources inside ``u``'s ball).  One step ORs each node's
        neighbors' masks into its own; a node whose mask is full drops
        out.  The number of steps until every mask is full is the
        largest eccentricity among the sources.  Sources go in blocks of
        ``DIAMETER_BLOCK`` bits so memory stays O(n · DIAMETER_BLOCK)
        bits.  Requires a connected graph.
        """
        n = self._n
        rows = [self.neighbors(u) for u in range(n)]
        depth = 0
        for lo in range(0, n, DIAMETER_BLOCK):
            hi = min(n, lo + DIAMETER_BLOCK)
            full = (1 << (hi - lo)) - 1
            reach = [0] * n
            for s in range(lo, hi):
                reach[s] = 1 << (s - lo)
            pending = [u for u in range(n) if reach[u] != full]
            steps = 0
            while pending:
                steps += 1
                prev = reach[:]  # a step reads only last step's masks
                still = []
                for u in pending:
                    mask = prev[u]
                    for v in rows[u]:
                        mask |= prev[v]
                    reach[u] = mask
                    if mask != full:
                        still.append(u)
                pending = still
            depth = max(depth, steps)
        return depth

    def diameter_estimate(self) -> int:
        """Cheap 2-approximation: double-sweep BFS lower bound.

        Used where exact diameters would dominate bench runtime.  The
        double sweep returns the true diameter on trees and is a lower
        bound in general.
        """
        if not self.is_connected():
            raise ValueError("diameter undefined on a disconnected graph")
        dist0 = self.bfs_distances(0)
        far = max(range(self._n), key=lambda u: dist0[u] or 0)
        return self.eccentricity(far)

    def is_two_edge_connected(self) -> bool:
        """True when the graph has no bridge edges.

        Theorem 3.1's base graph ``G0`` must stay connected after any
        single clique edge is removed; this check validates instances.
        """
        return not self.bridges()

    def bridges(self) -> List[Edge]:
        """All bridge edges (iterative Tarjan lowpoint algorithm)."""
        disc: List[int] = [-1] * self._n
        low: List[int] = [0] * self._n
        parent: List[int] = [-1] * self._n
        out: List[Edge] = []
        timer = 0
        degree = self.degree
        neighbor_at = self.neighbor_at
        for root in range(self._n):
            if disc[root] != -1:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            disc[root] = low[root] = timer
            timer += 1
            while stack:
                u, i = stack[-1]
                if i < degree(u):
                    stack[-1] = (u, i + 1)
                    v = neighbor_at(u, i)
                    if disc[v] == -1:
                        parent[v] = u
                        disc[v] = low[v] = timer
                        timer += 1
                        stack.append((v, 0))
                    elif v != parent[u]:
                        low[u] = min(low[u], disc[v])
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        if low[u] > disc[p]:
                            out.append(normalize_edge(p, u))
        return out

    def subgraph_without_edge(self, u: int, v: int, name: Optional[str] = None) -> "Topology":
        """Copy of this topology with edge ``(u, v)`` removed.

        Materializes (the copy is a plain CSR topology), so it is
        refused past ``EDGE_MATERIALIZE_LIMIT`` like :attr:`edges`.
        """
        e = normalize_edge(u, v)
        if not self.has_edge(u, v):
            raise ValueError(f"edge {e} not present")
        self._check_edge_materialization()
        remaining = [edge for edge in self.iter_edges() if edge != e]
        return Topology(self._n, remaining, name=name or f"{self._name}-minus-{e}")

    def relabeled(self, offset: int) -> List[Edge]:
        """Edge list with every index shifted by ``offset``.

        Helper for compositions such as the dumbbell construction, which
        places two copies of an open graph side by side.  Materializes,
        so it is refused past ``EDGE_MATERIALIZE_LIMIT``.
        """
        self._check_edge_materialization()
        return [(u + offset, v + offset) for (u, v) in self.iter_edges()]


# ----------------------------------------------------------------------
# Implicit (analytic, O(1)-memory) storage backends
# ----------------------------------------------------------------------
class ImplicitTopology(Topology):
    """Base for topologies whose structure is a closed-form function.

    Subclasses override the storage interface (``degree``,
    ``neighbor_at``, ``neighbor_rank``, ``has_edge``, ``num_edges``) with
    O(1) arithmetic and the distance queries (``diameter``,
    ``eccentricity``) with analytic answers; every generic algorithm on
    :class:`Topology` keeps working through that interface.
    """

    is_implicit = True

    def __init__(self, num_nodes: int, name: str) -> None:
        if num_nodes <= 0:
            raise ValueError("a topology needs at least one node")
        self._n = num_nodes
        self._name = name
        self._edge_cache = None
        self._diameter = None

    # Subclass responsibility --------------------------------------------
    def degree(self, u: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def neighbor_at(self, u: int, k: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def neighbor_rank(self, u: int, v: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    # Generic implementations over the analytic interface ----------------
    def neighbors(self, u: int) -> Tuple[int, ...]:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        return tuple(self.neighbor_at(u, k) for k in range(self.degree(u)))

    def iter_edges(self) -> Iterator[Edge]:
        for u in range(self._n):
            for k in range(self.degree(u)):
                v = self.neighbor_at(u, k)
                if v > u:
                    yield (u, v)

    def is_connected(self) -> bool:
        return True

    def bfs_distances(self, source: int) -> List[Optional[int]]:
        # Generic BFS works but allocates a neighbor tuple per node;
        # fine at test scale, never on the large-n hot path.
        dist: List[Optional[int]] = [None] * self._n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            base = dist[u]
            assert base is not None
            for v in self.neighbors(u):
                if dist[v] is None:
                    dist[v] = base + 1
                    queue.append(v)
        return dist


class CliqueTopology(ImplicitTopology):
    """Complete graph K_n with O(1) memory: every pair is an edge."""

    is_complete = True

    def __init__(self, num_nodes: int, name: Optional[str] = None) -> None:
        if num_nodes < 2:
            raise ValueError("a complete graph needs at least 2 nodes")
        super().__init__(num_nodes, name or f"complete-{num_nodes}")

    @property
    def num_edges(self) -> int:
        return self._n * (self._n - 1) // 2

    def degree(self, u: int) -> int:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        return self._n - 1

    def neighbors(self, u: int) -> Tuple[int, ...]:
        # Built from two C-level ranges, not n - 1 neighbor_at calls.
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        return (*range(u), *range(u + 1, self._n))

    def neighbor_at(self, u: int, k: int) -> int:
        if not 0 <= k < self._n - 1:
            raise IndexError(f"node {u} has no neighbor #{k}")
        return k + (k >= u)

    def neighbor_rank(self, u: int, v: int) -> int:
        if u == v or not 0 <= v < self._n:
            raise ValueError(f"{v} is not a neighbor of {u}")
        return v - (v > u)

    def has_edge(self, u: int, v: int) -> bool:
        return (u != v and 0 <= u < self._n and 0 <= v < self._n)

    def eccentricity(self, source: int) -> int:
        return 1

    def diameter(self) -> int:
        return 1

    def diameter_estimate(self) -> int:
        return 1


class RingTopology(ImplicitTopology):
    """Cycle C_n with O(1) memory: u's neighbors are u±1 mod n."""

    def __init__(self, num_nodes: int, name: Optional[str] = None) -> None:
        if num_nodes < 3:
            raise ValueError("a ring needs at least 3 nodes")
        super().__init__(num_nodes, name or f"ring-{num_nodes}")

    @property
    def num_edges(self) -> int:
        return self._n

    def degree(self, u: int) -> int:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        return 2

    def neighbors(self, u: int) -> Tuple[int, ...]:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        a, b = (u - 1) % self._n, (u + 1) % self._n
        return (a, b) if a < b else (b, a)

    def neighbor_at(self, u: int, k: int) -> int:
        if not 0 <= k < 2:
            raise IndexError(f"node {u} has no neighbor #{k}")
        return self.neighbors(u)[k]

    def neighbor_rank(self, u: int, v: int) -> int:
        nbrs = self.neighbors(u)
        if v == nbrs[0]:
            return 0
        if v == nbrs[1]:
            return 1
        raise ValueError(f"{v} is not a neighbor of {u}")

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return (u - v) % self._n in (1, self._n - 1)

    def eccentricity(self, source: int) -> int:
        return self._n // 2

    def diameter(self) -> int:
        return self._n // 2

    def diameter_estimate(self) -> int:
        return self._n // 2


class TorusTopology(ImplicitTopology):
    """2D torus (rows × cols, both ≥ 3) with O(1) memory.

    Node ``(r, c)`` is index ``r * cols + c``; its four neighbors wrap
    around both axes.  Matches the edge set of
    :func:`repro.graphs.generators.grid` with ``torus=True``.
    """

    def __init__(self, rows: int, cols: int, name: Optional[str] = None) -> None:
        if rows < 3 or cols < 3:
            raise ValueError("an implicit torus needs rows >= 3 and cols >= 3")
        super().__init__(rows * cols, name or f"torus-{rows}x{cols}")
        self.rows = rows
        self.cols = cols

    @property
    def num_edges(self) -> int:
        return 2 * self._n

    def degree(self, u: int) -> int:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        return 4

    def neighbors(self, u: int) -> Tuple[int, ...]:
        if not 0 <= u < self._n:
            raise IndexError(f"node {u} out of range")
        rows, cols = self.rows, self.cols
        r, c = divmod(u, cols)
        four = [((r - 1) % rows) * cols + c,
                ((r + 1) % rows) * cols + c,
                r * cols + (c - 1) % cols,
                r * cols + (c + 1) % cols]
        four.sort()
        return tuple(four)

    def neighbor_at(self, u: int, k: int) -> int:
        if not 0 <= k < 4:
            raise IndexError(f"node {u} has no neighbor #{k}")
        return self.neighbors(u)[k]

    def neighbor_rank(self, u: int, v: int) -> int:
        nbrs = self.neighbors(u)
        try:
            return nbrs.index(v)
        except ValueError:
            raise ValueError(f"{v} is not a neighbor of {u}") from None

    def has_edge(self, u: int, v: int) -> bool:
        if u == v or not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self.neighbors(u)

    def eccentricity(self, source: int) -> int:
        return self.rows // 2 + self.cols // 2

    def diameter(self) -> int:
        return self.rows // 2 + self.cols // 2

    def diameter_estimate(self) -> int:
        return self.diameter()


def union_topology(parts: Sequence[Topology],
                   extra_edges: Iterable[Edge] = (),
                   name: str = "union") -> Topology:
    """Disjoint union of ``parts`` plus ``extra_edges`` between them.

    Node indices of part *i* are shifted by the total size of parts
    ``0 .. i-1``.  ``extra_edges`` are given in the shifted index space.
    """
    total = sum(p.num_nodes for p in parts)
    edges: List[Edge] = []
    offset = 0
    for part in parts:
        edges.extend(part.relabeled(offset))
        offset += part.num_nodes
    edges.extend(extra_edges)
    return Topology(total, edges, name=name)
