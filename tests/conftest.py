"""Shared builders and reference opponents for the test suite."""

from __future__ import annotations

import math
import random
import signal
from fractions import Fraction
from itertools import product

import pytest

from wmst import (
    Decision,
    GreedyFollowPredictions,
    Graph,
    OnlineAlgorithm,
    WmstInstance,
    mst,
    random_instance,
    tree_cycle,
)
from wmst.graphs import PreparedInstance, SpanningTree


@pytest.fixture
def deadline():
    """Fail the test after 30 s instead of letting a hang stall the suite."""

    def hung(signum, frame):
        raise TimeoutError("the test ran past its 30 s deadline")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def triangle() -> WmstInstance:
    """Three vertices, predictions (2, 3, 2), true weights (1, 1, 2)."""
    graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    return WmstInstance(
        graph,
        (Fraction(2), Fraction(3), Fraction(2)),
        (Fraction(1), Fraction(1), Fraction(2)),
    )


def shuffles(ids, seed: int, count: int) -> list[list[int]]:
    """The first ``count`` orders of ``ids`` that repeated ``Random(seed).shuffle`` calls give.

    ``mc_estimate`` deals trial ``t`` of ``gftp`` the ``t``-th of its
    contested ids, and trial ``t`` of any other player the ``t``-th of
    ``range(m)``.
    """
    rng = random.Random(seed)
    ids = list(ids)
    out = []
    for _ in range(count):
        rng.shuffle(ids)
        out.append(ids.copy())
    return out


def embedded(m: int, dealt: list[int], placement: int) -> list[int]:
    """An order of all ``m`` ids that orders the ids of ``dealt`` as it does.

    The other ids take their places in the ``Random(placement)`` shuffle of
    ``range(m)``, and the ids of ``dealt`` fill the rest in turn.
    """
    ids = shuffles(range(m), placement, 1)[0]
    kept, fill = set(dealt), iter(dealt)
    return [next(fill) if eid in kept else eid for eid in ids]


def gftp_orders(inst: WmstInstance, seed: int, count: int) -> list[list[int]]:
    """Orders of all the edges of ``inst`` as ``mc_estimate(gftp, inst, count, seed)``'s
    trials play them: the ``t``-th orders the contested ids as the ``t``-th
    shuffle of them does, and is ``embedded`` at placement ``t``."""
    contested = GreedyFollowPredictions._contested(inst.prepared)[0]
    return [embedded(inst.m, ids, t) for t, ids in enumerate(shuffles(contested, seed, count))]


def cycle_bottlenecks(prepared: PreparedInstance) -> dict[int, Fraction]:
    """Each edge off the predicted tree, by id, and its cycle bottleneck: the
    largest prediction on its path in the predicted tree, on Fractions."""
    tree = SpanningTree(prepared.graph, prepared.tree)
    predicted = prepared.predicted
    return {
        edge.id: max(predicted[eid] for eid in tree.path_ids(edge.u, edge.v))
        for edge in prepared.graph.edges
        if edge.id not in tree
    }


def dead_edges(prepared: PreparedInstance) -> list[int]:
    """The edges ``gftp`` rejects in every order, changing nothing, by their
    definition: off the predicted tree, with true weight above their cycle
    bottleneck (``cycle_bottlenecks``)."""
    return [
        eid for eid, bottleneck in cycle_bottlenecks(prepared).items()
        if prepared.actual[eid] > bottleneck
    ]


def sample_statistics(costs: list[Fraction]) -> tuple[float, float]:
    """The mean and standard error that ``mc_estimate`` reports for trials costing ``costs``."""
    trials = len(costs)
    mean = sum(costs, Fraction(0)) / trials
    variance = sum(((c - mean) ** 2 for c in costs), Fraction(0)) / max(trials - 1, 1)
    return float(mean), math.sqrt(variance / trials)


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


def small_exact_instances(count: int):
    """The first ``count`` random instances with at most 7 edges, over a rotation of sizes."""
    produced = 0
    seed = 0
    while produced < count:
        n = (3, 4, 5)[seed % 3]
        prob = (Fraction(1), Fraction(7, 10), Fraction(1, 2))[seed % 3]
        noise = (Fraction(1, 4), Fraction(1), Fraction(3))[seed % 3]
        inst = random_instance(n, prob, noise, seed=seed)
        seed += 1
        if inst.m > 7:  # keep enumeration desk-scale; limit is 9
            continue
        produced += 1
        yield inst


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


class SlowSwapPlayer(OnlineAlgorithm):
    """Reference swapper rebuilt from the public tree queries each step.

    No incremental bookkeeping: the cycle, the unseen filter and the
    eviction choice are recomputed from scratch, so any divergence from the
    production player points at its caching.
    """

    def initialize(self, graph, predicted):
        self._graph = graph
        self._pred = predicted
        self._tree = set(mst(graph, predicted).edge_ids)
        self._seen = set()

    def reveal(self, edge, weight):
        self._seen.add(edge.id)
        if edge.id in self._tree:
            return Decision.accept()
        snapshot = SpanningTree(self._graph, frozenset(self._tree))
        unseen_cycle = [
            e.id for e in tree_cycle(snapshot, edge) if e.id not in self._seen
        ]
        if not unseen_cycle:
            return Decision.reject()
        if weight > max(self._pred[eid] for eid in unseen_cycle):
            return Decision.reject()
        evict = self._evict(unseen_cycle)
        self._tree.discard(evict)
        self._tree.add(edge.id)
        return Decision.accept(swapped_out=evict)

    def _evict(self, unseen_cycle: list[int]) -> int:
        """The unseen cycle edge of largest prediction, ties to the smaller id."""
        return max(unseen_cycle, key=lambda eid: (self._pred[eid], -eid))
