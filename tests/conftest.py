"""Shared builders and reference opponents for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from wmst import Decision, Graph, OnlineAlgorithm, WmstInstance, mst, random_instance


def triangle() -> WmstInstance:
    """Three vertices, predictions (2, 3, 2), true weights (1, 1, 2)."""
    graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    return WmstInstance(
        graph,
        (Fraction(2), Fraction(3), Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(2)),
    )


def mst_pairs(count: int, top: int):
    """Every ordered pair among four MSTs of each of ``count`` random graphs.

    The trees are taken under the predictions, the true weights and two
    random integer weightings in ``1..top``.
    """
    for seed in range(count):
        inst = random_instance(3 + seed % 5, Fraction(7, 10), Fraction(1, 2), seed=seed)
        graph = inst.graph
        rng = random.Random(seed)
        trees = [mst(graph, inst.predicted), mst(graph, inst.actual)]
        for _ in range(2):
            trees.append(mst(graph, tuple(Fraction(rng.randint(1, top)) for _ in range(graph.m))))
        yield from product(trees, repeat=2)


class RejectFirstThenGreedy(OnlineAlgorithm):
    """Rejects the very first reveal, then accepts whatever keeps a forest.

    A deliberately prediction-blind opponent for the adaptive games.
    """

    name = "reject-first"

    def initialize(self, graph, predicted):
        self._first = True
        self._parent = list(range(graph.n))

    def _find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def reveal(self, edge, weight) -> Decision:
        if self._first:
            self._first = False
            return Decision.reject()
        ru, rv = self._find(edge.u), self._find(edge.v)
        if ru == rv:
            return Decision.reject()
        self._parent[rv] = ru
        return Decision.accept()
