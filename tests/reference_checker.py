"""The checked-mode invariant checker as it was before it compared scaled ints.

Kept as the reference the production ``engine._InvariantChecker`` is compared
against.  Its class body is verbatim: it re-reads the working tree as a
``SpanningTree`` after every reveal and hands each check to the public
``check_cycle_dominance`` and ``check_post_rejection_dominance``, on the
instance's Fraction weights, with a set of the unseen ids.
"""

from __future__ import annotations

from fractions import Fraction

from wmst import Edge, Graph, OnlineAlgorithm, SpanningTree
from wmst.engine import Decision, check_cycle_dominance, check_post_rejection_dominance
from wmst.graphs import Weights


class _InvariantChecker:
    """Runs the structural checks around each reveal in checked mode.

    After every reveal the player's working tree is validated as a spanning
    tree (``NotSpanning`` otherwise); that one tree, rooted once for its
    path queries, serves every check until the working tree next changes.
    The checks read the live set of unseen edges, which they only test.
    """

    def __init__(self, alg: OnlineAlgorithm, graph: Graph, predicted: Weights):
        self._alg = alg
        self._graph = graph
        self._predicted = predicted
        self._unseen = set(range(graph.m))
        self._rejections: list[tuple[Edge, Fraction]] = []
        self._tree: SpanningTree | None = None
        self._refresh_tree()
        # the initial tree is the working tree the player was set up with
        self._initial = frozenset() if self._tree is None else self._tree.edge_ids

    def _refresh_tree(self) -> bool:
        """Re-read the player's working tree; True if it is a new tree."""
        ids = self._alg.working_tree_ids()
        if ids is None:
            self._tree = None
        elif self._tree is None or ids != self._tree.edge_ids:
            self._tree = SpanningTree(self._graph, ids)
            return True
        return False

    def before_reveal(self, edge: Edge) -> None:
        tree = self._tree
        if tree is None or edge.id in tree:
            return
        check_cycle_dominance(
            self._predicted,
            tree,
            self._initial,
            self._unseen,
            edge,
        )

    def after_reveal(self, edge: Edge, weight: Fraction, decision: Decision) -> None:
        self._unseen.discard(edge.id)
        changed = self._refresh_tree()
        if not self._alg.tracks_swaps:
            return
        if not decision.accepted:
            self._rejections.append((edge, weight))
        if self._tree is None or decision.accepted and not changed:
            return
        # on an unchanged tree an older rejection's cycle has only lost unseen
        # edges since its last check, so only the one just recorded can fail
        for rejected, rejected_weight in self._rejections[0 if changed else -1:]:
            check_post_rejection_dominance(
                self._predicted,
                self._tree,
                self._unseen,
                rejected,
                rejected_weight,
            )
