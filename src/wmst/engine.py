"""Online weight-arrival execution.

The engine replays an instance against an online algorithm: true weights
arrive one edge at a time, the algorithm answers each with an irrevocable
accept or reject, and the accepted set must end as a spanning tree.  Every
execution of one order (``run``, ``run_cost`` and the adaptive games) goes
through one reveal loop, which raises ``NotSpanning`` at the offending
reveal; the memoised exact expectation in ``randomorder`` walks all orders
at once on branched players and raises it at the same faults.  Two players
are provided: one that commits to the predicted-weight tree, and a greedy
variant that swaps revealed bargains in for unseen tree edges.  Any other
player, a subclass of either included, is set up through ``initialize``.
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
    PreparedInstance,
    SpanningTree,
    Weights,
    WmstInstance,
    _UnionFind,
    is_plain_int,
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
        """The ids shuffled by ``random.Random(seed)``; ``seed`` must be non-negative."""
        if seed < 0:  # Random(-s) seeds like Random(s)
            raise BadParameter(f"seed must be non-negative, got {seed}")
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


class FollowPredictions(OnlineAlgorithm):
    """Commit to the predicted-weight MST and accept exactly its edges.

    Its cost is therefore the same in every arrival order, so ``randomorder``
    plays one game of it per estimate.
    """

    name = "ftp"

    def initialize(self, graph: Graph, predicted: Weights) -> None:
        self._start(PreparedInstance(graph, predicted))

    def _start(self, prepared: PreparedInstance) -> None:
        self._tree = prepared.tree

    def reveal(self, edge: Edge, weight: Fraction) -> Decision:
        return _ACCEPT if edge.id in self._tree else _REJECT

    def working_tree_ids(self) -> frozenset[int]:
        return self._tree


class GreedyFollowPredictions(OnlineAlgorithm):
    """Follow the predicted-weight MST, but swap in revealed bargains.

    The working tree starts as the predicted-weight MST.  A revealed tree
    edge is always accepted.  A revealed non-tree edge closes one cycle in
    the working tree; among the still-unseen edges on that cycle, let
    ``e_max`` carry the largest predicted weight (ties evict the smallest
    id).  If the revealed true weight is at most that prediction, the edge
    is accepted and ``e_max`` leaves the tree; otherwise it is rejected.

    Cycle dominance: every unseen working-tree edge on the cycle of an
    unseen edge off the working tree predicts at most that edge's own
    prediction.  It holds at the start by the MST cycle property.  A swap of
    ``e`` for ``e_max`` can only bring onto such an edge's cycle unseen
    edges of ``e``'s cycle, which predict at most ``e_max``, and ``e_max``
    was on that cycle; the evicted ``e_max`` itself gets ``e``'s cycle.  So a
    revealed weight above the edge's own prediction is rejected without a
    cycle query, and an edge off the predicted tree whose true weight is
    above its own prediction, or above every tree prediction, is rejected in
    every order (``_rejected``).  Such a rejection clears the edge's
    candidate flag, which is never read for an edge off the working tree,
    and changes nothing else.

    ``_start`` copies the start state in O(n) from a ``PreparedInstance``:
    the predicted MST rooted at vertex 0, as parent and parent-edge arrays,
    its edges heaviest prediction first, and the predictions on the
    preparation's scale, which ``reveal``'s weights share.  ``initialize``
    builds a preparation without true weights, so its scale is 1 and the
    predictions stay Fractions.

    The unseen edges of the working tree are the predicted tree's edges
    that are neither revealed nor evicted.  A pointer into the heaviest-first
    list skips the others, so it names the largest prediction any unseen
    cycle edge can carry, and a revealed weight above it is also rejected
    in O(1).  Otherwise the cycle query marks the ancestors of one endpoint
    and climbs from the other to their lowest common ancestor.  A swap
    reverses the parent pointers from the revealed edge's endpoint on the
    cut-off side up to the evicted edge, so vertex 0 stays the root.  The
    parent-edge array is then the tree's canonical name, and ``_key``
    returns it: with the unseen edges it fixes the unseen edges of the
    working tree, and so every later decision.
    """

    name = "gftp"
    tracks_swaps = True

    def initialize(self, graph: Graph, predicted: Weights) -> None:
        self._start(PreparedInstance(graph, predicted))

    def _start(self, prepared: PreparedInstance) -> None:
        graph = prepared.graph
        parent, parent_edge = prepared.rooted
        self._parent = parent.copy()
        self._parent_edge = parent_edge.copy()
        self._mark = [-1] * graph.n
        self._pred = prepared.predicted_scaled
        self._heaviest = prepared.tree_by_prediction
        self._head = 0  # no edge before it in ``_heaviest`` is a candidate
        # 1 until the edge is revealed or evicted; on the working tree's
        # edges, 1 marks the unseen ones, which a swap may evict
        self._candidate = bytearray(b"\x01") * graph.m

    def reveal(self, edge: Edge, weight: Fraction) -> Decision:
        eid, a, b = edge.id, edge.u, edge.v
        candidate = self._candidate
        candidate[eid] = 0
        parent_edge = self._parent_edge
        if parent_edge[a] == eid or parent_edge[b] == eid:
            return _ACCEPT
        pred = self._pred
        if weight > pred[eid]:
            return _REJECT  # cycle dominance: no unseen cycle edge predicts more
        # the heaviest unseen tree edge predicts at least as much as any
        # unseen edge on the cycle, so a weight above it is rejected unclimbed
        heaviest, head = self._heaviest, self._head
        end = len(heaviest)
        while head < end and not candidate[heaviest[head]]:
            head += 1
        self._head = head
        if head == end or weight > pred[heaviest[head]]:
            return _REJECT
        parent, mark = self._parent, self._mark
        # each edge is revealed once, so its id marks this query's ancestors
        x = a
        while x >= 0:
            mark[x] = eid
            x = parent[x]
        # the unseen cycle edge of largest prediction, ties to the smaller id,
        # and the endpoint of the revealed edge on the same side of the cycle
        best = cut = -1
        best_pred = None
        x = b
        while mark[x] != eid:
            e = parent_edge[x]
            if candidate[e]:
                p = pred[e]
                if best < 0 or p > best_pred or (p == best_pred and e < best):
                    best, best_pred, cut = e, p, x
            x = parent[x]
        lca, below_b = x, best >= 0
        x = a
        while x != lca:
            e = parent_edge[x]
            if candidate[e]:
                p = pred[e]
                if best < 0 or p > best_pred or (p == best_pred and e < best):
                    best, best_pred, cut = e, p, x
                    below_b = False
            x = parent[x]
        if best < 0 or weight > best_pred:
            return _REJECT
        # cutting ``best`` detaches the subtree under ``cut``; re-root it at the
        # revealed edge's endpoint inside it and hang it from the other endpoint
        x, up, up_edge = (b, a, eid) if below_b else (a, b, eid)
        while True:
            old_up, old_edge = parent[x], parent_edge[x]
            parent[x], parent_edge[x] = up, up_edge
            if x == cut:
                break
            x, up, up_edge = old_up, x, old_edge
        candidate[best] = 0  # evicted: the pointer may now pass it
        return Decision.accept(swapped_out=best)

    def _rejected(self, prepared: PreparedInstance) -> list[int]:
        """The edges rejected in every order, each without a change of state.

        These are the edges off the predicted tree whose scaled true weight
        is above their own prediction or above the heaviest tree prediction.
        """
        tree, pred, actual = prepared.tree, prepared.predicted_scaled, prepared.actual_scaled
        top = pred[prepared.tree_by_prediction[0]]
        return [
            eid for eid in range(prepared.graph.m)
            if eid not in tree and actual[eid] > min(pred[eid], top)
        ]

    def _key(self) -> tuple[int, ...]:
        return tuple(self._parent_edge)

    def _branch(self) -> "GreedyFollowPredictions":
        twin = object.__new__(type(self))
        # reveal stamps marks with the edge's id, so a stamp left by a sibling
        # branch, which revealed that id on another tree, must not be seen
        twin.__dict__.update(
            self.__dict__,
            _parent=self._parent.copy(),
            _parent_edge=self._parent_edge.copy(),
            _candidate=self._candidate.copy(),
            _mark=[-1] * len(self._mark),
        )
        return twin

    def working_tree_ids(self) -> frozenset[int]:
        # vertex 0 stays the root, and every other vertex has its tree edge
        return frozenset(self._parent_edge[1:])


def ftp() -> OnlineAlgorithm:
    """Fresh predictions-following player."""
    return FollowPredictions()


def gftp() -> OnlineAlgorithm:
    """Fresh greedy swapping player."""
    return GreedyFollowPredictions()


ALGORITHMS: dict[str, Callable[[], OnlineAlgorithm]] = {"ftp": ftp, "gftp": gftp}

# The players ``_start``ed from a preparation: tested by exact type, so a subclass is opaque.
_BUILT_IN = (FollowPredictions, GreedyFollowPredictions)


def _play(
    alg: OnlineAlgorithm,
    prepared: PreparedInstance,
    actual: Sequence[Fraction],
    edge_ids: Iterable[int],
    steps: list[TraceStep] | None = None,
    checked: bool = False,
) -> tuple[list[int], int | Fraction]:
    """The one reveal loop: every execution of one order goes through it.

    Reads ``actual[eid]`` only once ``eid`` has been drawn from ``edge_ids``,
    so an adaptive opponent may fix weights as the loop runs (its
    ``prepared`` then has no true weights).  A built-in player is started
    from ``prepared`` and shown its scaled weights, any other player gets
    ``initialize`` and Fractions.  Records to ``steps`` if given and runs
    the invariant checks if ``checked``.  Returns the accepted ids in
    arrival order and their total weight on ``prepared.scale``: an int sum
    where the true weights are scaled ints, which the caller divides by the
    scale once.
    """
    graph = prepared.graph
    summed = actual if prepared.actual_scaled is None else prepared.actual_scaled
    if type(alg) in _BUILT_IN:
        alg._start(prepared)
        shown = summed
    else:
        alg.initialize(graph, prepared.predicted)
        shown = actual
    checker = _InvariantChecker(alg, graph, prepared.predicted) if checked else None
    edges = graph.edges
    reveal = alg.reveal
    union = _UnionFind(graph.n).union
    accepted: list[int] = []
    total = 0
    for eid in edge_ids:
        edge = edges[eid]
        if checker is not None:
            checker.before_reveal(edge)
        decision = reveal(edge, shown[eid])
        if steps is not None:
            steps.append(TraceStep(eid, actual[eid], decision))
        if checker is not None:
            checker.after_reveal(edge, actual[eid], decision)
        if decision.accepted:
            if not union(edge.u, edge.v):
                raise NotSpanning("accepted edges contain a cycle")
            accepted.append(eid)
            total += summed[eid]
    if len(accepted) != graph.n - 1:
        raise NotSpanning(f"accepted {len(accepted)} edges, a spanning tree needs {graph.n - 1}")
    return accepted, total


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
    if len(order) != instance.m:
        raise BadParameter(f"order covers {len(order)} of {instance.m} edges")
    prepared = PreparedInstance.of(instance)
    steps: list[TraceStep] = []
    accepted, total = _play(alg, prepared, instance.actual, order.edge_ids, steps, checked)
    return RunTrace(tuple(steps), frozenset(accepted), Fraction(total, prepared.scale))


def run_cost(alg: OnlineAlgorithm, instance: WmstInstance, order_ids: Sequence[int]) -> Fraction:
    """Cost-only form of :func:`run` for bulk experiments.

    The same reveal loop with no trace and no checks, raising the same
    ``NotSpanning``; trusts ``order_ids`` to be a permutation of the edge ids.
    """
    prepared = PreparedInstance.of(instance)
    return Fraction(_play(alg, prepared, instance.actual, order_ids)[1], prepared.scale)


def check_cycle_dominance(
    predicted: Weights,
    working_tree: SpanningTree,
    initial_tree: frozenset[int],
    unseen: frozenset[int],
    revealed: Edge,
) -> None:
    """Assert no unseen initial-tree edge on the revealed edge's cycle
    predicts heavier than the revealed edge itself.

    This is the cycle-dominance lemma of ``GreedyFollowPredictions``, on
    which its in-``reveal`` rejection and its ``_rejected`` edges rest.
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
            frozenset(self._unseen),
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
        unseen = frozenset(self._unseen)
        # on an unchanged tree an older rejection's cycle has only lost unseen
        # edges since its last check, so only the one just recorded can fail
        for rejected, rejected_weight in self._rejections[0 if changed else -1:]:
            check_post_rejection_dominance(
                self._predicted,
                self._tree,
                unseen,
                rejected,
                rejected_weight,
            )
