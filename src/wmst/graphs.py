"""Weighted simple connected graphs with exact rational weights.

Vertices are dense integers ``0..n-1``.  Edges carry dense integer ids
assigned by position, so a weight map is simply a sequence of fractions
indexed by edge id.  Everything here is immutable after construction and
all arithmetic is exact; floating point never enters the picture.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .exceptions import (
    BadParameter,
    DisconnectedGraph,
    DuplicateEdge,
    EdgeInTree,
    InstanceError,
    MissingWeight,
    NonpositiveWeight,
    NotSpanning,
    SelfLoop,
    TooLarge,
)
from .rationals import ensure_fraction, parse_fraction

Weights = Sequence[Fraction]

# Subset enumeration cap for the brute-force oracle: C(24, 12) ~ 2.7M.
BRUTE_FORCE_EDGE_LIMIT = 24

# A weight whose numerator and denominator differ in length by more than this
# many bits is refused: that refuses every weight outside (2^-257, 2^257) and
# none inside [2^-256, 2^256].  The bound keeps every float the program derives
# from weights finite and nonzero: sums over fewer than 2^250 edges, their
# ratios, and the Monte Carlo variance.  Bit lengths cost less than Fractions.
WEIGHT_BITS = 256

# Scaled weights are ints only while their common scale has at most this many
# bits.  Each scaled weight is about as long as the scale, and 2m pairwise
# coprime denominators of 2500 digits would make the scale 2m * 8300 bits long,
# so past the bound the weights stay Fractions: memory stays linear in the input.
SCALE_BITS = 1024


def is_plain_int(value) -> bool:
    """True for an ``int`` that is not a ``bool``: a valid vertex or edge id type."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected edge with a dense id and two distinct endpoints."""

    id: int
    u: int
    v: int


class _UnionFind:
    """The one union-find, with path halving: ``union`` runs the finds of ``a``
    and then ``b`` inline, one call instead of three on every accept and Kruskal step.
    ``Graph``'s check and ``_play_deal`` write ``union`` out in their loops."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``, under ``a``'s root; False if already one."""
        parent = self.parent
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            return False
        parent[b] = a
        return True


@dataclass(frozen=True)
class Graph:
    """A simple connected undirected graph; edge ids equal list positions."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n, edges = self.n, self.edges
        if n < 2:
            raise InstanceError(f"need at least 2 vertices, got {n}")
        if len(edges) < n - 1:
            raise DisconnectedGraph(f"{len(edges)} edges cannot connect {n} vertices")
        # one pass: each pair keyed as the int u * n + v with u < v, and the union inline
        seen_pairs = set()
        parent = list(range(n))
        components = n
        for position, edge in enumerate(edges):
            if edge.id != position:
                raise InstanceError(
                    f"edge ids must be dense and in order: position {position} has id {edge.id}"
                )
            u, v = edge.u, edge.v
            if not ((type(u) is int or is_plain_int(u)) and (type(v) is int or is_plain_int(v))):
                raise InstanceError(f"edge {edge.id} endpoints must be integers")
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge {edge.id} endpoint out of range")
            if u == v:
                raise SelfLoop(f"edge {edge.id} joins vertex {u} to itself")
            key = u * n + v if u < v else v * n + u
            if key in seen_pairs:
                pair = (u, v) if u < v else (v, u)
                raise DuplicateEdge(f"edge {edge.id} duplicates endpoint pair {pair}")
            seen_pairs.add(key)
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                components -= 1
        if components != 1:
            raise DisconnectedGraph(f"graph has {components} connected components")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, tuple(Edge(i, u, v) for i, (u, v) in enumerate(pairs)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def check_weights(self, weights: Weights) -> None:
        if len(weights) != self.m:
            raise MissingWeight(f"expected {self.m} weights, got {len(weights)}")


@dataclass(frozen=True)
class SpanningTree:
    """An edge subset forming a spanning tree, with path queries.

    The edge set is validated on construction (``NotSpanning`` otherwise).
    Path queries walk ``rooted``, the tree rooted at vertex 0 by ``_root`` on
    first use, with ``_path_ids``.
    """

    graph: Graph
    edge_ids: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", frozenset(self.edge_ids))
        n = self.graph.n
        if len(self.edge_ids) != n - 1:
            raise NotSpanning(f"{len(self.edge_ids)} edges cannot span {n} vertices")
        uf = _UnionFind(n)
        for eid in self.edge_ids:
            if not 0 <= eid < self.graph.m:
                raise NotSpanning(f"unknown edge id {eid}")
            edge = self.graph.edges[eid]
            if not uf.union(edge.u, edge.v):
                raise NotSpanning("edge set contains a cycle")

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.edge_ids

    @cached_property
    def rooted(self) -> tuple[list[int], list[int], list[int]]:
        """``(parent, parent_edge, depth)`` of the tree rooted at vertex 0 (see ``_root``)."""
        return _root(self.graph.n, self.graph.edges, self.edge_ids)

    def path_ids(self, a: int, b: int) -> list[int]:
        """Edge ids of the unique a-b path, ordered from a to b (see ``_path_ids``)."""
        n = self.graph.n
        if not (0 <= a < n and 0 <= b < n):
            raise BadParameter(f"path endpoints {a} and {b} must be vertices 0..{n - 1}")
        return _path_ids(self.rooted, a, b)

    def tree_path(self, a: int, b: int) -> list[Edge]:
        """The edges of the unique a-b path, ordered from a to b."""
        edges = self.graph.edges
        return [edges[eid] for eid in self.path_ids(a, b)]


def _root(
    n: int, edges: Sequence[Edge], ids: Iterable[int]
) -> tuple[list[int], list[int], list[int]]:
    """``(parent, parent_edge, depth)`` of the tree on ``edges[i]``, ``i`` in ``ids``, rooted at 0.

    The one rooting walk, behind ``SpanningTree``, ``PreparedInstance`` and
    ``engine._Deal``'s contracted tree, over the vertices ``0..n-1``; the
    root has parent and parent edge -1.  It reads only the tree's edges.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid in ids:
        edge = edges[eid]
        adj[edge.u].append((edge.v, eid))
        adj[edge.v].append((edge.u, eid))
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [0] * n
    stack = [0]
    while stack:
        x = stack.pop()
        for y, eid in adj[x]:
            if eid != parent_edge[x]:
                parent[y], parent_edge[y], depth[y] = x, eid, depth[x] + 1
                stack.append(y)
    return parent, parent_edge, depth


def _path_ids(rooted: tuple[list[int], list[int], list[int]], a: int, b: int) -> list[int]:
    """Edge ids of the a-b path in the tree ``rooted`` by ``_root``, ordered from a to b.

    The one path walk, behind ``SpanningTree.path_ids`` and ``engine``'s
    ``_contested``.  It climbs the deeper endpoint until both meet at their
    lowest common ancestor; at equal depths, distinct endpoints are both below it.
    """
    parent, parent_edge, depth = rooted
    up: list[int] = []
    down: list[int] = []  # b's side, listed upward
    while a != b:
        if depth[a] >= depth[b]:
            up.append(parent_edge[a])
            a = parent[a]
        else:
            down.append(parent_edge[b])
            b = parent[b]
    return up + down[::-1]


@dataclass(frozen=True)
class WmstInstance:
    """A graph together with total predicted and actual weight maps."""

    graph: Graph
    predicted: tuple[Fraction, ...]
    actual: tuple[Fraction, ...]

    def __post_init__(self):
        m = self.graph.m
        for name in ("predicted", "actual"):
            values = getattr(self, name)
            if type(values) is not tuple or not set(map(type, values)) <= {Fraction}:
                values = tuple(w if type(w) is Fraction else ensure_fraction(w, name)
                               for w in values)
                object.__setattr__(self, name, values)
            if len(values) != m:
                raise MissingWeight(f"{name} map covers {len(values)} of {m} edges")
            for eid, (num, den) in enumerate(map(Fraction.as_integer_ratio, values)):
                if num <= 0:  # a Fraction's denominator is positive
                    raise NonpositiveWeight(f"{name} weight of edge {eid} is {values[eid]}")
                if abs(num.bit_length() - den.bit_length()) > WEIGHT_BITS:
                    raise InstanceError(
                        f"{name} weight of edge {eid} lies outside "
                        f"[2^-{WEIGHT_BITS}, 2^{WEIGHT_BITS}]"
                    )

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    def with_predictions(self, predicted: Iterable[Fraction]) -> "WmstInstance":
        """Copy of this instance with a replacement prediction map."""
        return WmstInstance(self.graph, tuple(predicted), self.actual)

    @cached_property
    def prepared(self) -> "PreparedInstance":
        """This instance's ``PreparedInstance``, built on first use and kept while it lives.

        Every run, estimate and error measure reads it.  Like ``SpanningTree.rooted``
        it is kept outside the fields: equality and hashing ignore it, and a copy
        prepares its own.
        """
        return PreparedInstance(self.graph, self.predicted, self.actual)


def validate_instance(raw) -> WmstInstance:
    """Build a validated instance from a parsed file payload.

    The payload shape is ``{"n": int, "edges": [{"u", "v", "predicted",
    "actual"}, ...]}`` with weights as exact fraction strings.  Edge order
    in the list defines the edge ids.
    """
    if not isinstance(raw, dict):
        raise InstanceError("instance payload must be a JSON object")
    try:
        n = raw["n"]
        entries = raw["edges"]
    except KeyError as exc:
        raise InstanceError(f"instance payload missing key {exc}") from None
    if not is_plain_int(n):
        raise InstanceError("vertex count must be an integer")
    if not isinstance(entries, list):
        raise InstanceError("edges must be a list")
    edges: list[Edge] = []
    predicted: list[Fraction] = []
    actual: list[Fraction] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InstanceError(f"edge {index} must be an object")
        try:
            edges.append(Edge(index, entry["u"], entry["v"]))
        except KeyError as exc:
            raise InstanceError(f"edge {index} missing endpoint {exc}") from None
        for key, store in (("predicted", predicted), ("actual", actual)):
            if key not in entry:
                raise MissingWeight(f"edge {index} has no {key} weight")
            weight = entry[key]  # a str, the file form, needs no name for its messages
            store.append(parse_fraction(weight) if type(weight) is str
                         else ensure_fraction(weight, f"edge {index} {key}"))
    return WmstInstance(Graph(n, tuple(edges)), tuple(predicted), tuple(actual))


def mst(graph: Graph, weights: Weights) -> SpanningTree:
    """Minimum spanning tree by Kruskal.

    Edges are scanned by ``(weight, edge id)`` ascending, so ties always
    resolve toward the smaller id and the result is deterministic.
    """
    graph.check_weights(weights)
    edges = graph.edges
    picked = _kruskal(graph.n, [e.u for e in edges], [e.v for e in edges], weights)
    return SpanningTree(graph, frozenset(picked))


def _kruskal(n: int, us: Sequence[int], vs: Sequence[int], weights: Sequence) -> list[int]:
    """Edge ids of a minimum spanning tree, in the order Kruskal picks them.

    The sort is stable over ascending ids, so edges are scanned by
    ``(weight, edge id)``: ties resolve toward the smaller id.  ``weights``
    may be Fractions or the integers of a common scale; the tree is the same.
    """
    uf = _UnionFind(n)
    picked: list[int] = []
    need = n - 1
    for eid in sorted(range(len(us)), key=weights.__getitem__):
        if uf.union(us[eid], vs[eid]):
            picked.append(eid)
            if len(picked) == need:
                break
    return picked


def tree_cost(tree: SpanningTree, weights: Weights) -> Fraction:
    """Exact sum of the tree's edge weights."""
    tree.graph.check_weights(weights)
    return sum((weights[eid] for eid in tree.edge_ids), Fraction(0))


class PreparedInstance:
    """An instance's start state, built once by ``WmstInstance.prepared`` and shared by every game.

    - ``scale``: a common denominator ``D`` of all predicted and true weights;
      ``predicted_scaled`` and ``actual_scaled`` are the weights times ``D``,
      as ints.  Without true weights (a player set up through ``initialize``
      alone, or a game that fixes them as it runs), or when ``D`` would take
      more than ``SCALE_BITS`` bits, ``D`` is 1 and the scaled weights are the
      Fractions themselves.  Either way, comparisons and sums of scaled weights
      are exact, and a sum divided by ``scale`` is the Fraction it stands for.
    - ``us`` and ``vs``: the edge endpoints, as flat lists.
    - ``tree``: the predicted-weight MST, the edge set of ``mst(graph, predicted)``.
    - ``rooted``: that tree rooted at vertex 0.
    - ``opt`` and ``eta``: the optimum under the true weights and the error;
      ``metrics`` and ``randomorder`` read both from here.
    - ``deal``: what a ``gftp`` trial is dealt and where it starts
      (``engine._Deal``), built by the first ``gftp`` estimate and kept here;
      None until then.

    The built-in players copy their start state from it instead of building
    it, and never change it.
    """

    def __init__(self, graph: Graph, predicted: Weights, actual: Weights | None = None):
        graph.check_weights(predicted)
        self.graph = graph
        self.predicted = predicted
        self.actual = actual
        self.scale = 1
        self.predicted_scaled, self.actual_scaled = predicted, actual
        if actual is not None:
            # one read of each weight's ratio serves both the scale and the scaled ints
            ratios = [[w.as_integer_ratio() for w in ws] for ws in (predicted, actual)]
            scale = _common_scale(*ratios)
            if scale is not None:
                self.scale = scale
                self.predicted_scaled, self.actual_scaled = (
                    [num * (scale // den) for num, den in pairs] for pairs in ratios
                )
        self.us = [e.u for e in graph.edges]
        self.vs = [e.v for e in graph.edges]
        self.deal = None

    @cached_property
    def tree(self) -> frozenset[int]:
        return frozenset(_kruskal(self.graph.n, self.us, self.vs, self.predicted_scaled))

    @cached_property
    def rooted(self) -> tuple[list[int], list[int], list[int]]:
        """``(parent, parent_edge, depth)`` of the tree rooted at vertex 0 (see ``_root``)."""
        return _root(self.graph.n, self.graph.edges, self.tree)

    @cached_property
    def opt(self) -> Fraction:
        """Exact cost of a minimum spanning tree under the true weights."""
        return self.mst_cost(self.actual_scaled)

    def mst_cost(self, scaled: Sequence) -> Fraction:
        """Exact cost of a minimum spanning tree under weights on this scale."""
        picked = _kruskal(self.graph.n, self.us, self.vs, scaled)
        return Fraction(sum(scaled[eid] for eid in picked), self.scale)

    @cached_property
    def eta(self) -> Fraction:
        """Exact sum of the ``n-1`` largest per-edge discrepancies (``metrics.eta``)."""
        gaps = map(abs, map(operator.sub, self.predicted_scaled, self.actual_scaled))
        gaps = sorted(gaps, reverse=True)
        return Fraction(sum(gaps[: self.graph.n - 1]), self.scale)


def _common_scale(*ratio_maps: Sequence[tuple[int, int]]) -> int | None:
    """The lcm of the denominators of ``(num, den)`` pairs, or None past ``SCALE_BITS`` bits."""
    scale = 1
    for denominator in {den for ratios in ratio_maps for _, den in ratios}:
        scale = math.lcm(scale, denominator)
        if scale.bit_length() > SCALE_BITS:
            return None
    return scale


def tree_cycle(tree: SpanningTree, edge: Edge) -> list[Edge]:
    """The tree edges on the cycle a non-tree edge would close.

    Returns the unique tree path between the edge's endpoints; the queried
    edge itself is not included.
    """
    if edge.id in tree:
        raise EdgeInTree(f"edge {edge.id} is already in the tree")
    return tree.tree_path(edge.u, edge.v)


def exchange_witness(t1: SpanningTree, t2: SpanningTree, e1: Edge) -> Edge:
    """A partner edge for swapping ``e1`` out of ``t1`` and into ``t2``.

    Given ``e1 in t1`` but not in ``t2``, returns some ``e2`` of ``t2``
    such that each edge lies on the cycle the other closes in the
    opposite tree: the first edge on the ``t2``-path between the
    endpoints of ``e1`` whose own ``t1``-path runs through ``e1``.
    """
    if e1.id not in t1 or e1.id in t2:
        raise BadParameter("witness requires an edge of t1 that is absent from t2")
    for candidate in t2.tree_path(e1.u, e1.v):
        if e1.id in t1.path_ids(candidate.u, candidate.v):
            return candidate
    raise AssertionError("spanning tree must cross every cut")


def brute_force_mst(graph: Graph, weights: Weights) -> tuple[Fraction, SpanningTree]:
    """Exhaustive minimum spanning tree oracle for small graphs.

    Enumerates every ``n-1``-subset of the edges in lexicographic id
    order, so among minimum-cost trees the lexicographically smallest id
    tuple wins.
    """
    graph.check_weights(weights)
    if graph.m > BRUTE_FORCE_EDGE_LIMIT:
        raise TooLarge(
            f"{graph.m} edges exceed the enumeration guard of {BRUTE_FORCE_EDGE_LIMIT}"
        )
    edges = graph.edges
    n = graph.n
    best_cost: Fraction | None = None
    best: tuple[int, ...] | None = None
    for subset in combinations(range(graph.m), n - 1):
        uf = _UnionFind(n)
        for eid in subset:
            edge = edges[eid]
            if not uf.union(edge.u, edge.v):
                break
        else:
            cost = sum((weights[eid] for eid in subset), Fraction(0))
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best = subset
    if best is None:
        raise DisconnectedGraph("no spanning subset found")
    return best_cost, SpanningTree(graph, frozenset(best))
