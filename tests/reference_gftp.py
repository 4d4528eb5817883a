"""The greedy swapping player as it was before the prepared-instance hot path.

Kept as the reference the production ``gftp`` is compared against.  Its
decision rule is verbatim: scan every edge on the cycle, take the unseen one
of largest prediction with ties to the smaller id, and swap it out if the
revealed weight is at most its prediction.  It rebuilds the predicted MST on
every ``initialize`` and keeps the working tree as a ``SpanningTree``, built
anew after each swap, which it asks for each cycle.
It is an opaque player to the reveal loop, so it gets Fraction weights.
"""

from __future__ import annotations

from fractions import Fraction

from wmst import Decision, Edge, Graph, OnlineAlgorithm, SpanningTree, mst
from wmst.graphs import Weights

_ACCEPT = Decision.accept()
_REJECT = Decision.reject()


class GreedyFollowPredictions(OnlineAlgorithm):
    """Follow the predicted-weight MST, but swap in revealed bargains.

    The working tree starts as the predicted-weight MST.  A revealed tree
    edge is always accepted.  A revealed non-tree edge closes one cycle in
    the working tree; among the still-unseen edges on that cycle, let
    ``e_max`` carry the largest predicted weight (ties evict the smallest
    id).  If the revealed true weight is at most that prediction, the edge
    is accepted and ``e_max`` leaves the tree; otherwise it is rejected.
    """

    name = "gftp"
    tracks_swaps = True

    def __init__(self):
        self._graph: Graph | None = None

    def initialize(self, graph: Graph, predicted: Weights) -> None:
        self._graph = graph
        self._pred = predicted
        self._tree = mst(graph, predicted)
        self._unseen = bytearray([1] * graph.m)
        self._unseen_in_tree = graph.n - 1

    def reveal(self, edge: Edge, weight: Fraction) -> Decision:
        self._unseen[edge.id] = 0
        if edge.id in self._tree:
            self._unseen_in_tree -= 1
            return _ACCEPT
        if self._unseen_in_tree == 0:
            return _REJECT  # every cycle edge already seen
        evict = self._heaviest_unseen_on_cycle(edge.u, edge.v)
        if evict < 0 or weight > self._pred[evict]:
            return _REJECT
        self._swap(evict, edge)
        return Decision.accept(swapped_out=evict)

    def _heaviest_unseen_on_cycle(self, a: int, b: int) -> int:
        """Unseen tree edge with maximal prediction on the a-b tree path.

        Returns -1 when every edge on the path has been seen.  Ties go to
        the smallest edge id.
        """
        unseen = self._unseen
        pred = self._pred
        best = -1
        best_pred = None
        for eid in self._tree.path_ids(a, b):
            if unseen[eid]:
                p = pred[eid]
                if best < 0 or p > best_pred or (p == best_pred and eid < best):
                    best, best_pred = eid, p
        return best

    def _swap(self, evict: int, incoming: Edge) -> None:
        self._tree = SpanningTree(self._graph, self._tree.edge_ids - {evict} | {incoming.id})
        self._unseen_in_tree -= 1  # the evicted edge was unseen by construction

    def working_tree_ids(self) -> frozenset[int]:
        return self._tree.edge_ids
