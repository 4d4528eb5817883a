"""Online weight-arrival execution.

The engine replays an instance against an online algorithm: true weights
arrive one edge at a time, the algorithm answers each with an irrevocable
accept or reject, and the accepted set must end as a spanning tree.  Every
execution (``run``, ``run_cost`` and the adaptive games) goes through one
reveal loop, which raises ``NotSpanning`` at the offending reveal.  Two
players are provided: one that commits to the predicted-weight tree, and a
greedy variant that swaps revealed bargains in for unseen tree edges.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .exceptions import BadParameter, InvariantViolation, NotSpanning
from .graphs import (
    Edge,
    Graph,
    SpanningTree,
    Weights,
    WmstInstance,
    _UnionFind,
    is_plain_int,
    mst,
    tree_path_ids,
)
from .rationals import format_fraction


@dataclass(frozen=True)
class Decision:
    """An irrevocable accept/reject, optionally naming a swapped-out edge."""

    accepted: bool
    swapped_out: int | None = None

    @classmethod
    def accept(cls, swapped_out: int | None = None) -> "Decision":
        return _ACCEPT if swapped_out is None else cls(True, swapped_out)

    @classmethod
    def reject(cls) -> "Decision":
        return _REJECT


_ACCEPT = Decision(True)
_REJECT = Decision(False)


@dataclass(frozen=True)
class ArrivalOrder:
    """A permutation of all edge ids, defining the reveal sequence."""

    edge_ids: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(self.edge_ids)
        object.__setattr__(self, "edge_ids", ids)
        if not all(map(is_plain_int, ids)) or sorted(ids) != list(range(len(ids))):
            raise BadParameter("arrival order must be a permutation of all edge ids")

    @classmethod
    def identity(cls, m: int) -> "ArrivalOrder":
        return cls(tuple(range(m)))

    @classmethod
    def shuffled(cls, m: int, seed: int) -> "ArrivalOrder":
        ids = list(range(m))
        random.Random(seed).shuffle(ids)
        return cls(tuple(ids))

    def __iter__(self):
        return iter(self.edge_ids)

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class TraceStep:
    edge_id: int
    weight: Fraction
    decision: Decision


@dataclass(frozen=True)
class RunTrace:
    """Every decision of one online execution, plus the final tree."""

    steps: tuple[TraceStep, ...]
    accepted: frozenset[int]
    cost: Fraction

    def to_text(self) -> str:
        """One decision per line: id, weight, verdict, optional swap."""
        lines = []
        for step in self.steps:
            verdict = "ACCEPT" if step.decision.accepted else "REJECT"
            line = f"{step.edge_id} {format_fraction(step.weight)} {verdict}"
            if step.decision.swapped_out is not None:
                line += f" SWAP={step.decision.swapped_out}"
            lines.append(line)
        return "\n".join(lines) + "\n"


class OnlineAlgorithm(ABC):
    """Contract for weight-arrival players.

    ``initialize`` is called once with the graph and all predicted weights;
    ``reveal`` is then called exactly once per edge, in arrival order, with
    the true weight.  Decisions are irrevocable and must be deterministic.
    Implementations may consult anything revealed so far, but never a weight
    that has not arrived yet.
    """

    name = "online"
    #: Whether the post-rejection dominance check applies (swap-based players).
    tracks_swaps = False

    @abstractmethod
    def initialize(self, graph: Graph, predicted: Weights) -> None: ...

    @abstractmethod
    def reveal(self, edge: Edge, weight: Fraction) -> Decision: ...

    def working_tree_ids(self) -> frozenset[int] | None:
        """Current intended tree, if the player maintains one (checked mode)."""
        return None

    def initial_tree_ids(self) -> frozenset[int] | None:
        return None


class FollowPredictions(OnlineAlgorithm):
    """Commit to the predicted-weight MST and accept exactly its edges."""

    name = "ftp"

    def __init__(self):
        self._tree: frozenset[int] | None = None

    def initialize(self, graph: Graph, predicted: Weights) -> None:
        self._tree = mst(graph, predicted).edge_ids

    def reveal(self, edge: Edge, weight: Fraction) -> Decision:
        return _ACCEPT if edge.id in self._tree else _REJECT

    def working_tree_ids(self) -> frozenset[int]:
        return self._tree

    def initial_tree_ids(self) -> frozenset[int]:
        return self._tree


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
        tree = mst(graph, predicted)
        self._initial = tree.edge_ids
        self._tree = set(tree.edge_ids)
        self._adj = list(tree.adjacency)
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
        for eid in tree_path_ids(self._adj, a, b):
            if unseen[eid]:
                p = pred[eid]
                if best < 0 or p > best_pred or (p == best_pred and eid < best):
                    best, best_pred = eid, p
        return best

    def _swap(self, evict: int, incoming: Edge) -> None:
        self._tree.discard(evict)
        self._tree.add(incoming.id)
        # Entries start as the tree's shared tuples: replace them, never mutate.
        adj = self._adj
        gone = self._graph.edges[evict]
        adj[gone.u] = [t for t in adj[gone.u] if t[1] != evict]
        adj[gone.v] = [t for t in adj[gone.v] if t[1] != evict]
        adj[incoming.u] = [*adj[incoming.u], (incoming.v, incoming.id)]
        adj[incoming.v] = [*adj[incoming.v], (incoming.u, incoming.id)]
        self._unseen_in_tree -= 1  # the evicted edge was unseen by construction

    def working_tree_ids(self) -> frozenset[int]:
        return frozenset(self._tree)

    def initial_tree_ids(self) -> frozenset[int]:
        return self._initial


def ftp() -> OnlineAlgorithm:
    """Fresh predictions-following player."""
    return FollowPredictions()


def gftp() -> OnlineAlgorithm:
    """Fresh greedy swapping player."""
    return GreedyFollowPredictions()


ALGORITHMS: dict[str, Callable[[], OnlineAlgorithm]] = {"ftp": ftp, "gftp": gftp}


def _play(
    alg: OnlineAlgorithm,
    graph: Graph,
    predicted: Weights,
    actual: Sequence[Fraction],
    edge_ids: Iterable[int],
    steps: list[TraceStep] | None = None,
    checked: bool = False,
) -> tuple[list[int], Fraction]:
    """The one reveal loop: every online execution goes through it.

    Reads ``actual[eid]`` only once ``eid`` has been drawn from ``edge_ids``,
    so an adaptive opponent may fix weights as the loop runs.  Records to
    ``steps`` if given and runs the invariant checks if ``checked``.  Returns
    the accepted ids in arrival order and their exact total weight.
    """
    alg.initialize(graph, predicted)
    checker = _InvariantChecker(alg, graph, predicted) if checked else None
    edges = graph.edges
    reveal = alg.reveal
    uf = _UnionFind(graph.n)
    accepted: list[int] = []
    cost = Fraction(0)
    for eid in edge_ids:
        edge = edges[eid]
        weight = actual[eid]
        if checker is not None:
            checker.before_reveal(edge)
        decision = reveal(edge, weight)
        if steps is not None:
            steps.append(TraceStep(eid, weight, decision))
        if checker is not None:
            checker.after_reveal(edge, weight, decision)
        if decision.accepted:
            if not uf.union(edge.u, edge.v):
                raise NotSpanning("accepted edges contain a cycle")
            accepted.append(eid)
            cost += weight
    if len(accepted) != graph.n - 1:
        raise NotSpanning(f"accepted {len(accepted)} edges, a spanning tree needs {graph.n - 1}")
    return accepted, cost


def run(
    alg: OnlineAlgorithm,
    instance: WmstInstance,
    order: ArrivalOrder,
    *,
    checked: bool = False,
) -> RunTrace:
    """Reveal true weights in order and record every decision.

    Shares its reveal loop with :func:`run_cost` and the adaptive games, and
    raises ``NotSpanning`` at the accept that closes a cycle, or at the end
    if too few edges were accepted.  ``checked=True`` asserts the swap rule's
    invariants around every reveal (``check_cycle_dominance`` and
    ``check_post_rejection_dominance``).
    """
    graph = instance.graph
    if len(order) != graph.m:
        raise BadParameter(f"order covers {len(order)} of {graph.m} edges")
    steps: list[TraceStep] = []
    accepted, cost = _play(
        alg, graph, instance.predicted, instance.actual, order.edge_ids, steps, checked
    )
    return RunTrace(tuple(steps), frozenset(accepted), cost)


def run_cost(alg: OnlineAlgorithm, instance: WmstInstance, order_ids: Sequence[int]) -> Fraction:
    """Cost-only form of :func:`run` for bulk experiments.

    The same reveal loop with no trace and no checks, raising the same
    ``NotSpanning``; trusts ``order_ids`` to be a permutation of the edge ids.
    """
    return _play(alg, instance.graph, instance.predicted, instance.actual, order_ids)[1]


def check_cycle_dominance(
    predicted: Weights,
    working_tree: SpanningTree,
    initial_tree: frozenset[int],
    unseen: frozenset[int],
    revealed: Edge,
) -> None:
    """Assert no unseen initial-tree edge on the revealed edge's cycle
    predicts heavier than the revealed edge itself.

    Applies when a non-tree edge is revealed; a violation means the swap
    bookkeeping is broken, not that the input is bad.  The cycle is scanned
    from the ``v`` end, so the violation reported is the one nearest ``v``.
    """
    for eid in tree_path_ids(working_tree.adjacency, revealed.v, revealed.u):
        if eid in unseen and eid in initial_tree:
            if predicted[eid] > predicted[revealed.id]:
                raise InvariantViolation(
                    f"unseen tree edge {eid} predicts {predicted[eid]} above "
                    f"revealed edge {revealed.id} at {predicted[revealed.id]}"
                )


def check_post_rejection_dominance(
    predicted: Weights,
    working_tree: SpanningTree,
    unseen: frozenset[int],
    rejected: Edge,
    rejected_weight: Fraction,
) -> None:
    """Assert every unseen edge on a rejected edge's current cycle predicts
    strictly below the rejected true weight.

    Must hold at every step after the rejection for swap-based players.
    The cycle is scanned from the ``v`` end, as in ``check_cycle_dominance``.
    """
    for eid in tree_path_ids(working_tree.adjacency, rejected.v, rejected.u):
        if eid in unseen and not predicted[eid] < rejected_weight:
            raise InvariantViolation(
                f"unseen tree edge {eid} predicts {predicted[eid]}, not below "
                f"rejected weight {rejected_weight} of edge {rejected.id}"
            )


class _InvariantChecker:
    """Runs the structural checks around each reveal in checked mode.

    After every reveal the player's working tree is validated as a spanning
    tree (``NotSpanning`` otherwise); that one tree, and its adjacency,
    serve every check until the working tree next changes.
    """

    def __init__(self, alg: OnlineAlgorithm, graph: Graph, predicted: Weights):
        self._alg = alg
        self._graph = graph
        self._predicted = predicted
        self._unseen = set(range(graph.m))
        self._rejections: list[tuple[Edge, Fraction]] = []
        self._initial = alg.initial_tree_ids() or frozenset()
        self._tree: SpanningTree | None = None
        self._refresh_tree()

    def _refresh_tree(self) -> None:
        ids = self._alg.working_tree_ids()
        if ids is None:
            self._tree = None
        elif self._tree is None or ids != self._tree.edge_ids:
            self._tree = SpanningTree(self._graph, ids)

    def before_reveal(self, edge: Edge) -> None:
        tree = self._tree
        if tree is None or edge.id in tree:
            return
        check_cycle_dominance(
            self._predicted,
            tree,
            self._initial,
            frozenset(self._unseen),
            edge,
        )

    def after_reveal(self, edge: Edge, weight: Fraction, decision: Decision) -> None:
        self._unseen.discard(edge.id)
        self._refresh_tree()
        if not self._alg.tracks_swaps:
            return
        if not decision.accepted:
            self._rejections.append((edge, weight))
        tree = self._tree
        if tree is None:
            return
        unseen = frozenset(self._unseen)
        for rejected, rejected_weight in self._rejections:
            check_post_rejection_dominance(
                self._predicted,
                tree,
                unseen,
                rejected,
                rejected_weight,
            )
