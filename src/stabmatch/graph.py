"""Undirected simple graphs with totally ordered node identifiers.

Nodes are nonnegative integers. A graph may carry a separate identifier
assignment (``ident``) in which nodes share a value. The paper assumes
identifiers unique within two hops; the tests pin that equal identifiers on
an edge livelock, and that proper colorings of six graphs, which repeat
identifiers within two hops, stabilize. Generators and the file format
always use globally unique identifiers equal to the node keys.

Each node id is one int object, the one in ``Graph.nodes``, and ids 0..n-1
are made together: ``read_graph`` fills its rows with them as it reads, and
``from_edges`` maps every entry to them. A scan of a large graph reads one
compact block of ints (CPython shares only the ints up to 256).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter

GENERATOR_KINDS = ("path", "cycle", "complete", "star", "random_gnm")
MAX_EDGE_FREE_NODES = 1_000_000  # the most nodes a graph file of a count alone names


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
    order, ``around`` shares the adjacency tuples. ``Graph(...)`` checks every
    node and arc; ``read_graph`` and ``from_edges``, whose rows are
    well-formed by construction, check no arc (``_built``).
    """

    nodes: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    ident: dict[int, int] = field(default_factory=dict)
    _m: int = field(init=False, repr=False, compare=False, default=0)
    around: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False, default=())
    rank: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    @classmethod
    def _built(cls, nodes, adjacency, ident) -> "Graph":
        g = object.__new__(cls)
        g.__dict__.update(nodes=nodes, adjacency=adjacency, ident=ident)
        g.__post_init__(check_arcs=False)
        return g

    def __post_init__(self, check_arcs: bool = True):  # Graph(...) checks the arcs
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
        if check_arcs:
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
        node = dict(zip(nodes, nodes))  # an edge's id -> the node's own object
        adj: dict[int, set[int]] = {u: set() for u in nodes}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u}, {v}) uses unknown node")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj[u].add(node[v])
            adj[v].add(node[u])
        adjacency = {u: tuple(sorted(vs)) for u, vs in adj.items()}
        # with no ident given, the node map is the identity assignment
        return Graph._built(nodes, adjacency, dict(ident) if ident else node)

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

    def components(self, mask: bytes) -> list[list[int]]:
        """Maximal connected components of the subgraph induced on the positions
        set in ``mask``, as lists of positions, in the order of their smallest keys."""
        around, left = self.around, bytearray(mask)  # left: not yet in a component
        comps = []
        for start in sorted(itertools.compress(range(len(mask)), mask), key=self.nodes.__getitem__):
            if left[start]:
                left[start] = 0
                comp = [start]
                for u in comp:
                    for v in around[u]:
                        if left[v]:
                            left[v] = 0
                            comp.append(v)
                comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components(b"\1" * self.n)) == 1

    def digest(self) -> str:
        return text_digest(write_graph(self))


def text_digest(graph_text: str) -> str:
    """The graph hash of a graph serialized by ``write_graph``."""
    return hashlib.sha256(graph_text.encode()).hexdigest()[:16]


def check_distance2_unique(g: Graph) -> list[tuple[int, int]]:
    """Return node pairs within two hops that share an identifier value.

    Empty result means the paper's assumption, identifiers unique within two
    hops, holds. The tests find proper colorings that fail it and stabilize.
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


def text_fields(text: str):
    """``(lineno, fields)`` for each line, numbered from 1, that has a field
    once its '#' comment is cut; iterated in C, with no Python frame per line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return filter(itemgetter(1), enumerate(map(str.split, lines), start=1))


def read_graph(text: str) -> Graph:
    """Parse the edge-list format.

    First nonempty line is the node count; every following nonempty line is
    an edge "u v" with u < v. '#' starts a comment. Nodes are the identifiers
    appearing in edge lines; an edge-free file, nodes 0..n-1, n <= MAX_EDGE_FREE_NODES.

    The parse loop appends each edge to its endpoints' rows, lists indexed by
    id that hold the node objects 0..n-1, made first; ids past them are kept by
    id and mapped at the end. A duplicate edge shows as a repeated neighbor.
    """
    fields = text_fields(text)
    count_line, parts = next(fields, (1, None))
    if parts is None:
        raise GraphFormatError("line 1: missing node count")
    if len(parts) != 1 or not parts[0].isdecimal():  # not isdigit: int() rejects '²'
        raise GraphFormatError(f"line {count_line}: expected node count")
    try:
        n = int(parts[0])
    except ValueError:  # more digits than Python's int-string limit
        raise GraphFormatError(f"line {count_line}: expected node count") from None
    if n < 1:
        raise GraphFormatError(f"line {count_line}: node count must be >= 1")
    ids = tuple(range(size := min(n, len(text) // 2)))  # no more ids fit in the text
    rows: list[list[int]] = [[] for _ in ids]
    far: defaultdict[int, list[int]] = defaultdict(list)  # the rows of ids past ``rows``
    try:
        for lineno, parts in fields:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:  # int() refuses decimal digits only past its int-string digit limit
                digits = parts[0].isdecimal() and parts[1].isdecimal()
                why = "node id too long" if digits else "non-integer node id"
                raise GraphFormatError(f"line {lineno}: {why}") from None
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop {u}")
            if not 0 <= u < v:
                raise GraphFormatError(f"line {lineno}: edge must satisfy 0 <= u < v")
            if v < size:
                rows[u].append(ids[v])
                rows[v].append(ids[u])
            else:
                far[u].append(v)
                far[v].append(u)
        if far:  # ids not 0..n-1: every row by id, then by position
            for u in itertools.compress(ids, rows):
                far[u] += rows[u]
            node, ids = dict(zip(far, far)).__getitem__, tuple(sorted(far))
            rows = [list(map(node, far[u])) for u in ids]
        lineno = 0  # the scan below reads every line
        if sum(map(len, map(set, rows))) < sum(map(len, rows)):  # a repeated neighbor
            raise GraphFormatError  # named by the scan below
    except GraphFormatError:  # a duplicate edge before the error line is the first error
        stop, seen = lineno, set()  # the count line's 1-tuple in ``seen`` is no edge
        for k, parts in itertools.takewhile(lambda f: f[0] != stop, text_fields(text)):
            if (edge := tuple(map(int, parts))) in seen:
                raise GraphFormatError(f"line {k}: duplicate edge {edge}") from None
            seen.add(edge)
        raise
    if not (count := len(rows) - rows.count([])):
        if n > MAX_EDGE_FREE_NODES:
            raise GraphFormatError(f"line {count_line}: an edge-free graph has at most"
                                   f" {MAX_EDGE_FREE_NODES} nodes, not {n}")
        nodes = tuple(range(n))
        return Graph._built(nodes, dict.fromkeys(nodes, ()), {})
    if count != n:
        raise GraphFormatError(f"node count {n} does not match the {count} ids in edge lines"
                               " (isolated nodes are not representable alongside edges)")
    return Graph._built(ids, dict(zip(ids, map(tuple, map(sorted, rows)))), {})


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
