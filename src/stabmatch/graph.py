"""Undirected simple graphs with totally ordered node identifiers.

Nodes are nonnegative integers. The matching protocol only requires
identifiers to be unique within two hops, so a graph may optionally carry a
separate identifier assignment (``ident``) to model hand-crafted instances
where distant nodes share an identifier value. Generators and the file
format always use globally unique identifiers equal to the node keys.
"""

from __future__ import annotations

import hashlib
import random
from collections import defaultdict
from dataclasses import dataclass, field

GENERATOR_KINDS = ("path", "cycle", "complete", "star", "random_gnm")


class GraphFormatError(ValueError):
    """Raised for malformed graph files; message carries the line number."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    ``adjacency`` maps each node to its neighbors sorted ascending, which
    keeps every downstream iteration deterministic; a row out of order is
    rejected. ``ident`` maps nodes to
    identifier values; it defaults to the identity assignment. The edge
    count is computed once, at construction, as are two tables that let a
    neighbor scan index state lists by position in ``nodes``: ``around[k]``
    holds the positions of the neighbors of ``nodes[k]``, in adjacency
    order, and ``rank[k]`` is ``ident[nodes[k]]``. With ``nodes`` 0..n-1 in
    order, ``around`` shares the adjacency tuples.
    """

    nodes: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    ident: dict[int, int] = field(default_factory=dict)
    _m: int = field(init=False, repr=False, compare=False, default=0)
    around: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        nodes, adjacency = self.nodes, self.adjacency
        if not nodes:
            raise ValueError("graph needs at least one node")
        identity = not self.ident
        if identity:
            object.__setattr__(self, "ident", dict(zip(nodes, nodes)))
        ident = self.ident
        node_set = set(nodes)
        if len(node_set) != len(nodes):
            raise ValueError("node keys must be distinct")
        if ident.keys() != node_set:
            raise ValueError("ident must assign a value to every node")
        if adjacency.keys() != node_set:
            raise ValueError("adjacency needs one entry per node and no other key")
        if min(nodes) < 0 or min(ident.values()) < 0:
            raise ValueError("node keys and identifier values must be nonnegative")
        try:  # KeyError: an endpoint that is not a node
            for u, nbrs in adjacency.items():
                if u in nbrs:
                    raise ValueError(f"self-loop at node {u}")
                last = -1
                for v in nbrs:
                    if adjacency[v].count(u) != 1:  # symmetric, and no repeat
                        if u in adjacency[v]:
                            raise ValueError(f"repeated neighbor {u} at node {v}")
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
                    if v < last:
                        raise ValueError(f"adjacency of node {u} is not sorted ascending")
                    last = v
        except KeyError as exc:
            raise ValueError(f"edge endpoint {exc.args[0]} not a node") from None
        object.__setattr__(self, "_m", sum(map(len, adjacency.values())) // 2)
        if nodes == tuple(range(len(nodes))):
            around = tuple(map(adjacency.__getitem__, nodes))
        else:
            position = {u: k for k, u in enumerate(nodes)}.__getitem__
            around = tuple(tuple(map(position, adjacency[u])) for u in nodes)
        object.__setattr__(self, "around", around)
        object.__setattr__(
            self, "rank", nodes if identity else tuple(map(ident.__getitem__, nodes)))

    @staticmethod
    def from_edges(nodes, edges, ident=None) -> "Graph":
        nodes = tuple(sorted(set(nodes)))
        adj: dict[int, set[int]] = {u: set() for u in nodes}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) uses unknown node")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj[u].add(v)
            adj[v].add(u)
        adjacency = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        return Graph(nodes, adjacency, dict(ident) if ident else {})

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return self._m

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return sorted(
            (u, v) for u, vs in self.adjacency.items() for v in vs if u < v
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency.get(u, ())

    def is_connected(self) -> bool:
        around = self.around
        seen = bytearray(len(around))
        seen[0] = 1
        stack = [0]
        reached = 1
        while stack:
            for v in around[stack.pop()]:
                if not seen[v]:
                    seen[v] = 1
                    reached += 1
                    stack.append(v)
        return reached == len(around)

    def digest(self) -> str:
        return text_digest(write_graph(self))


def text_digest(graph_text: str) -> str:
    """The graph hash of a graph serialized by ``write_graph``."""
    return hashlib.sha256(graph_text.encode()).hexdigest()[:16]


def check_distance2_unique(g: Graph) -> list[tuple[int, int]]:
    """Return node pairs within two hops that share an identifier value.

    Empty result means the identifier discipline the protocol relies on
    holds. Globally unique identifiers (the default) trivially pass.
    """
    violations = []
    for u in g.nodes:
        within: set[int] = set()
        for v in g.adjacency[u]:
            within.add(v)
            within.update(g.adjacency[v])
        within.discard(u)
        for v in within:
            if v > u and g.ident[v] == g.ident[u]:
                violations.append((u, v))
    return sorted(violations)


def generate(kind: str, n: int, m: int | None = None, seed: int = 0) -> Graph:
    """Build a connected graph of the requested family with nodes 0..n-1.

    Deterministic: the same (kind, n, m, seed) always yields the same graph.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "random_gnm":
        if m is None:
            raise ValueError("random_gnm needs m")
        max_m = n * (n - 1) // 2
        if m > max_m:
            raise ValueError(f"random_gnm with n={n} allows at most {max_m} edges")
        if m < n - 1:
            raise ValueError(f"random_gnm with n={n} needs at least {n - 1} edges to connect")
        edges = _random_connected_edges(n, m, seed)
    else:
        raise ValueError(f"unknown generator kind: {kind}")
    if kind != "random_gnm" and m is not None and m != len(edges):
        raise ValueError(f"{kind} with n={n} has {len(edges)} edges, not m={m}")
    return Graph.from_edges(range(n), edges)


def _random_connected_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    # random spanning tree first, then uniform extra edges
    edges = set()
    for k in range(1, n):
        u = order[k]
        v = order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def read_graph(text: str) -> Graph:
    """Parse the edge-list format.

    First nonempty line is the node count; every following nonempty line is
    an edge "u v" with u < v. '#' starts a comment. Nodes are the identifiers
    appearing in edge lines; an edge-free file denotes nodes 0..n-1.

    One pass appends each edge to both endpoints' neighbor lists.
    """
    n = None
    adj: defaultdict[int, list[int]] = defaultdict(list)
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if n is None:
            # isdecimal, not isdigit: int() rejects digits such as '²'
            if len(parts) != 1 or not parts[0].isdecimal():
                raise GraphFormatError(f"line {lineno}: expected node count")
            n = int(parts[0])
            if n < 1:
                raise GraphFormatError(f"line {lineno}: node count must be >= 1")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer node id") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u}")
        if not 0 <= u < v:
            raise GraphFormatError(f"line {lineno}: edge must satisfy 0 <= u < v")
        if (edge := (u, v)) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add(edge)
        adj[u].append(v)
        adj[v].append(u)
    if n is None:
        raise GraphFormatError("line 1: missing node count")
    if not adj:
        return Graph(tuple(range(n)), {u: () for u in range(n)})
    if len(adj) != n:
        raise GraphFormatError(
            f"node count {n} does not match the {len(adj)} ids in edge lines"
            " (isolated nodes are not representable alongside edges)"
        )
    nodes = tuple(sorted(adj))
    return Graph(nodes, {u: tuple(sorted(adj[u])) for u in nodes})


def write_graph(g: Graph) -> str:
    """Serialize to canonical form: count line, then edges sorted by (u, v).

    The edge-list format names nodes by their identifier, so only graphs
    whose identifier map is the identity (and whose isolated nodes, if any,
    are the whole node set) are representable.
    """
    if any(g.ident[u] != u for u in g.nodes):
        raise ValueError("custom identifier maps are not representable")
    lines = [str(g.n)]
    has_edges = any(g.adjacency.values())
    if not has_edges and list(g.nodes) != list(range(g.n)):
        raise ValueError("edge-free graph with non-contiguous ids is not representable")
    if has_edges and not all(g.adjacency.get(u) for u in g.nodes):
        raise ValueError("graph with isolated nodes is not representable")
    lines.extend(f"{u} {v}" for u, vs in sorted(g.adjacency.items()) for v in vs if u < v)
    return "\n".join(lines) + "\n"
