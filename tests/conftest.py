"""Fixtures, an opponent for the games and the definitions the tests check against.

``predicted_paths`` is the one walk of the predicted tree's paths: the cycle
bottlenecks, the dead edges and the live edges' paths are all read from it.
The one reference ``gftp`` is ``reference_gftp.py``, and the instances and
orders the tests play are in ``corpus.py``.
"""

from __future__ import annotations

import math
import random
import signal
from fractions import Fraction

import pytest

from wmst import ArrivalOrder, Decision, GreedyFollowPredictions, OnlineAlgorithm, RoEstimate
from wmst import WmstInstance, run
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


def predicted_paths(prepared: PreparedInstance) -> dict[int, list[int]]:
    """Each edge off the predicted tree, by id, and the ids of its path in the
    predicted tree, from ``SpanningTree.path_ids``: the one walk of those
    paths that every definition here reads."""
    tree = SpanningTree(prepared.graph, prepared.tree)
    return {
        edge.id: tree.path_ids(edge.u, edge.v)
        for edge in prepared.graph.edges
        if edge.id not in tree
    }


def cycle_bottlenecks(prepared: PreparedInstance) -> dict[int, Fraction]:
    """Each edge off the predicted tree, by id, and its cycle bottleneck: the
    largest prediction on its path in the predicted tree, on Fractions."""
    predicted = prepared.predicted
    return {
        eid: max(predicted[e] for e in path) for eid, path in predicted_paths(prepared).items()
    }


def dead_edges(prepared: PreparedInstance) -> list[int]:
    """The edges ``gftp`` rejects in every order, changing nothing, by their
    definition: off the predicted tree, with true weight above their cycle
    bottleneck (``cycle_bottlenecks``)."""
    return [
        eid for eid, bottleneck in cycle_bottlenecks(prepared).items()
        if prepared.actual[eid] > bottleneck
    ]


def outcome(call, *args):
    """What ``call(*args)`` makes: its type and value, or its exception's type and message."""
    try:
        value = call(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return type(value), value


def assert_estimates_the_sample(
    est: RoEstimate, factory, inst: WmstInstance, orders
) -> list[Fraction]:
    """Assert that ``est`` reports the mean and standard error of the costs
    that players of ``factory`` reach on ``orders`` of ``inst``; returns those costs.

    Each order is played whole by ``run``, edge by edge, not from a deal."""
    costs = [run(factory(), inst, ArrivalOrder(tuple(ids))).cost for ids in orders]
    trials = len(costs)
    mean = sum(costs, Fraction(0)) / trials
    variance = sum(((c - mean) ** 2 for c in costs), Fraction(0)) / max(trials - 1, 1)
    assert (est.mean_cost, est.std_error) == (float(mean), math.sqrt(variance / trials))
    return costs


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
