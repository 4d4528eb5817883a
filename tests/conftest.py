"""Fixtures, reference opponents and the definitions the tests check against.

The instances and orders the tests play are in ``corpus.py``.
"""

from __future__ import annotations

import math
import random
import signal
from fractions import Fraction

import pytest

from wmst import (
    Decision,
    GreedyFollowPredictions,
    OnlineAlgorithm,
    WmstInstance,
    mst,
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
