"""Network topologies with exact structural metadata.

A :class:`Topology` is an immutable undirected connected graph on nodes
``0..k-1`` with adjacency lists, plus the structural queries protocols and
benchmarks need: diameter, BFS layers/trees, and power graphs (``G^r``, used
by the LOCAL-model MIS).  Construction goes through ``networkx`` for the
random families but the stored representation is plain tuples, so protocol
code never touches networkx objects.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import ParameterError
from repro.rng import SeedLike, ensure_rng


class TreeSchedule:
    """The max-ID flooding fixpoint of a topology, precomputed.

    The paper's token-packaging protocol (Section 5) first elects the
    max-ID node as leader and builds a BFS tree by flooding.  Under the
    engine's deterministic delivery order (messages arrive sorted by
    sender ID), the elected tree is a pure function of the topology:

    - the root is node ``k − 1`` (the maximum ID);
    - ``dist(v)`` is the BFS hop distance from the root — node *v* first
      hears the winning ID in round ``dist(v)`` and never improves on it;
    - ``parent(v)`` is the *smallest-ID* neighbour of *v* at distance
      ``dist(v) − 1`` — the first winning announcement in *v*'s inbox.

    Warm-started protocol runs load this schedule instead of re-running
    the FLOOD/CHILD/COUNT phases; ``verify_warm_start`` in
    :mod:`repro.congest.token_packaging` cross-checks the equivalence
    against the real protocol.
    """

    __slots__ = ("root", "dist", "parent", "children", "height", "postorder",
                 "_counts_cache", "aux")

    def __init__(self, topology: "Topology") -> None:
        k = topology.k
        self.root: int = k - 1
        dist = topology.bfs_distances(self.root)
        self.dist: Tuple[int, ...] = tuple(int(d) for d in dist)
        parent: List[Optional[int]] = [None] * k
        children: List[List[int]] = [[] for _ in range(k)]
        for v in range(k):
            if v == self.root:
                continue
            target = self.dist[v] - 1
            p = min(u for u in topology.neighbors(v) if self.dist[u] == target)
            parent[v] = p
            children[p].append(v)
        self.parent: Tuple[Optional[int], ...] = tuple(parent)
        self.children: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(ch)) for ch in children
        )
        self.height: int = max(self.dist)
        # Bottom-up order (decreasing depth, then ID): children always
        # precede their parent, so one pass computes convergecast values.
        self.postorder: Tuple[int, ...] = tuple(
            sorted(range(k), key=lambda v: (-self.dist[v], v))
        )
        self._counts_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        # Scratch cache for consumers deriving per-(τ, s) artefacts from
        # the schedule (e.g. warm-start views); keyed by consumer.
        self.aux: Dict[Any, Any] = {}

    def token_counts(
        self, tau: int, tokens_per_node: int = 1
    ) -> Tuple[int, ...]:
        """Per-node convergecast counts ``c(v)`` for package size *tau*.

        ``c(v) = (tokens_per_node + Σ_{u child of v} c(u)) mod τ`` — the
        number of tokens *v* forwards to its parent during the TOKENS
        phase (Theorem 5.1).  Cached per ``(tau, tokens_per_node)``.
        """
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        if tokens_per_node < 1:
            raise ParameterError(
                f"tokens_per_node must be >= 1, got {tokens_per_node}"
            )
        key = (tau, tokens_per_node)
        cached = self._counts_cache.get(key)
        if cached is not None:
            return cached
        c = [0] * len(self.dist)
        for v in self.postorder:
            total = tokens_per_node
            for u in self.children[v]:
                total += c[u]
            c[v] = total % tau
        counts = tuple(c)
        self._counts_cache[key] = counts
        return counts


class Topology:
    """An immutable connected undirected graph on ``{0, ..., k-1}``.

    Use the class-method constructors (:meth:`line`, :meth:`ring`,
    :meth:`star`, :meth:`grid`, :meth:`complete`, :meth:`balanced_tree`,
    :meth:`random_regular`, :meth:`gnp`) or :meth:`from_edges`.
    """

    __slots__ = ("_adjacency", "_name", "_diameter", "_diam_ub", "_tree_schedule")

    def __init__(self, adjacency: Sequence[Sequence[int]], name: str = "") -> None:
        adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(set(neigh))) for neigh in adjacency
        )
        k = len(adj)
        if k == 0:
            raise ParameterError("topology must have at least one node")
        for v, neigh in enumerate(adj):
            for u in neigh:
                if not 0 <= u < k:
                    raise ParameterError(f"edge ({v},{u}) leaves the node range")
                if u == v:
                    raise ParameterError(f"self-loop at node {v}")
                if v not in adj[u]:
                    raise ParameterError(f"edge ({v},{u}) is not symmetric")
        self._adjacency = adj
        self._name = name
        self._diameter: Optional[int] = None
        self._diam_ub: Optional[int] = None
        self._tree_schedule: Optional[TreeSchedule] = None
        if not self._is_connected():
            raise ParameterError("topology must be connected")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def from_edges(k: int, edges: Iterable[Tuple[int, int]], name: str = "") -> "Topology":
        """Build from an explicit edge list over ``k`` nodes."""
        adj: List[List[int]] = [[] for _ in range(k)]
        for u, v in edges:
            if not (0 <= u < k and 0 <= v < k):
                raise ParameterError(f"edge ({u},{v}) outside node range [0, {k})")
            adj[u].append(v)
            adj[v].append(u)
        return Topology(adj, name=name)

    @staticmethod
    def from_networkx(graph: "nx.Graph", name: str = "") -> "Topology":
        """Build from a networkx graph with integer node labels ``0..k-1``."""
        k = graph.number_of_nodes()
        mapping = {node: i for i, node in enumerate(sorted(graph.nodes()))}
        edges = [(mapping[u], mapping[v]) for u, v in graph.edges()]
        return Topology.from_edges(k, edges, name=name)

    @staticmethod
    def line(k: int) -> "Topology":
        """Path graph — diameter ``k − 1``, the worst case for gathering."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        return Topology.from_edges(k, [(i, i + 1) for i in range(k - 1)], name=f"line({k})")

    @staticmethod
    def ring(k: int) -> "Topology":
        """Cycle graph — diameter ``⌊k/2⌋``."""
        if k < 3:
            raise ParameterError(f"ring needs k >= 3, got {k}")
        edges = [(i, (i + 1) % k) for i in range(k)]
        return Topology.from_edges(k, edges, name=f"ring({k})")

    @staticmethod
    def star(k: int) -> "Topology":
        """Star with centre 0 — diameter 2, the best case for gathering."""
        if k < 2:
            raise ParameterError(f"star needs k >= 2, got {k}")
        return Topology.from_edges(k, [(0, i) for i in range(1, k)], name=f"star({k})")

    @staticmethod
    def complete(k: int) -> "Topology":
        """Complete graph — diameter 1."""
        if k < 2:
            raise ParameterError(f"complete needs k >= 2, got {k}")
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        return Topology.from_edges(k, edges, name=f"complete({k})")

    @staticmethod
    def grid(rows: int, cols: int) -> "Topology":
        """2-D grid — diameter ``rows + cols − 2``."""
        if rows < 1 or cols < 1:
            raise ParameterError(f"grid needs positive dims, got {(rows, cols)}")
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return Topology.from_edges(rows * cols, edges, name=f"grid({rows}x{cols})")

    @staticmethod
    def balanced_tree(branching: int, height: int) -> "Topology":
        """Complete ``branching``-ary tree of the given height."""
        if branching < 1 or height < 0:
            raise ParameterError(f"bad tree shape {(branching, height)}")
        graph = nx.balanced_tree(branching, height)
        return Topology.from_networkx(graph, name=f"tree(b={branching},h={height})")

    @staticmethod
    def random_regular(k: int, degree: int, rng: SeedLike = None) -> "Topology":
        """Random ``degree``-regular graph (an expander w.h.p.)."""
        gen = ensure_rng(rng)
        for attempt in range(64):
            seed = int(gen.integers(2**31 - 1))
            graph = nx.random_regular_graph(degree, k, seed=seed)
            if nx.is_connected(graph):
                return Topology.from_networkx(graph, name=f"regular(k={k},d={degree})")
        raise ParameterError(
            f"failed to sample a connected {degree}-regular graph on {k} nodes"
        )

    @staticmethod
    def gnp(k: int, p: float, rng: SeedLike = None) -> "Topology":
        """Connected Erdős–Rényi ``G(k, p)`` (resampled until connected)."""
        if not 0.0 < p <= 1.0:
            raise ParameterError(f"p must be in (0, 1], got {p}")
        gen = ensure_rng(rng)
        for attempt in range(64):
            seed = int(gen.integers(2**31 - 1))
            graph = nx.gnp_random_graph(k, p, seed=seed)
            if graph.number_of_nodes() == k and nx.is_connected(graph):
                return Topology.from_networkx(graph, name=f"gnp(k={k},p={p})")
        raise ParameterError(f"failed to sample a connected G({k},{p}) graph")

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of nodes."""
        return len(self._adjacency)

    @property
    def name(self) -> str:
        """Human-readable label."""
        return self._name

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbours of node *v*."""
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        """Degree of node *v*."""
        return len(self._adjacency[v])

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(a) for a in self._adjacency) // 2

    def edges(self) -> List[Tuple[int, int]]:
        """All undirected edges as sorted pairs."""
        return [
            (v, u)
            for v in range(self.k)
            for u in self._adjacency[v]
            if v < u
        ]

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from *source* to every node."""
        dist = np.full(self.k, -1, dtype=np.int64)
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in self._adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        return dist

    def bfs_tree(self, root: int) -> Dict[int, Optional[int]]:
        """Parent pointers of a BFS tree rooted at *root* (root maps to None).

        Deterministic: among equal-distance candidates the smallest-ID
        parent wins — matching what the flooding protocol converges to.
        """
        parent: Dict[int, Optional[int]] = {root: None}
        dist = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in self._adjacency[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
        return parent

    def tree_schedule(self) -> TreeSchedule:
        """The max-ID flooding fixpoint (cached; one BFS + one sort).

        See :class:`TreeSchedule` — the BFS tree the Section 5 protocols
        elect on this topology, used to warm-start Monte-Carlo runs.
        """
        if self._tree_schedule is None:
            self._tree_schedule = TreeSchedule(self)
        return self._tree_schedule

    def eccentricity(self, v: int) -> int:
        """Maximum hop distance from *v*."""
        return int(self.bfs_distances(v).max())

    def diameter(self) -> int:
        """Exact diameter (cached; ``O(k·m)`` BFS sweep)."""
        if self._diameter is None:
            self._diameter = max(self.eccentricity(v) for v in range(self.k))
        return self._diameter

    def diameter_upper_bound(self) -> int:
        """Cheap 2-approximation: ``2·ecc(0)`` with a single BFS (cached).

        Protocol runners use this for round budgets; benchmarks that report
        ``D`` itself use the exact :meth:`diameter`.
        """
        if self._diameter is not None:
            return self._diameter
        if self._diam_ub is None:
            self._diam_ub = 2 * self.eccentricity(0)
        return self._diam_ub

    def _bfs_within(self, source: int, r: int) -> Dict[int, int]:
        """Distances from *source* for all nodes at hop distance ≤ r.

        Depth-limited BFS: ``O(|ball| · max-degree)``, independent of ``k``
        — the workhorse behind :meth:`power_graph` on large sparse graphs.
        """
        dist = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and depth < r:
            depth += 1
            next_frontier: List[int] = []
            for v in frontier:
                for u in self._adjacency[v]:
                    if u not in dist:
                        dist[u] = depth
                        next_frontier.append(u)
            frontier = next_frontier
        return dist

    def power_graph(self, r: int) -> "Topology":
        """``G^r``: connect every pair at hop distance ≤ r (used by LOCAL MIS)."""
        if r < 1:
            raise ParameterError(f"power must be >= 1, got {r}")
        adj: List[List[int]] = [[] for _ in range(self.k)]
        for v in range(self.k):
            adj[v] = [u for u in self._bfs_within(v, r) if u != v]
        return Topology(adj, name=f"{self._name}^{r}")

    def ball(self, v: int, r: int) -> List[int]:
        """All nodes within hop distance ≤ r of *v* (including *v*)."""
        return sorted(self._bfs_within(v, r))

    def _is_connected(self) -> bool:
        return bool((self.bfs_distances(0) >= 0).all())

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return f"<Topology{label} k={self.k} edges={self.edge_count()}>"
