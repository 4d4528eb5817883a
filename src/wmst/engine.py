"""Online weight-arrival execution.

The engine replays an instance against an online algorithm: true weights
arrive one edge at a time, the algorithm answers each with an irrevocable
accept or reject, and the accepted set must end as a spanning tree.  Every
other execution of a whole order (``run``, ``run_cost``, the adaptive games
and an opaque player's trials) goes through one reveal loop, ``_play``,
which raises ``NotSpanning`` at the offending reveal.  A Monte Carlo trial
of an exact ``gftp``, and its ``run_cost`` of a permutation, are played
from its deal by one fused loop, ``GreedyFollowPredictions._play_deal``,
that writes ``reveal`` out inline and faults alike, on the predicted tree
with its inert edges contracted; the memoised exact expectation in
``randomorder`` walks all orders at once in place on one ``gftp`` started
from the same deal, which never faults.
Two players are provided: one that commits to the predicted-weight tree,
and a greedy variant that swaps revealed bargains in for unseen tree edges.
Any other player, a subclass of either included, is set up through
``initialize``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import AbstractSet, Callable, Iterable, Sequence

from .exceptions import BadParameter, InvariantViolation, NotSpanning
from .graphs import (
    Edge,
    Graph,
    PreparedInstance,
    SpanningTree,
    Weights,
    WmstInstance,
    _path_ids,
    _root,
    _UnionFind,
    is_plain_int,
)
from .rationals import format_fraction


@dataclass(frozen=True)
class Decision:
    """An irrevocable accept/reject, optionally naming a swapped-out edge.

    Frozen and compared by value, so ``accept`` shares one per evicted edge (``_swap``).
    """

    accepted: bool
    swapped_out: int | None = None

    @classmethod
    def accept(cls, swapped_out: int | None = None) -> "Decision":
        return _ACCEPT if swapped_out is None else _swap(swapped_out)

    @classmethod
    def reject(cls) -> "Decision":
        return _REJECT


_ACCEPT = Decision(True)
_REJECT = Decision(False)


# a game evicts at most n - 1 tree edges: all fit up to 4097 vertices
@lru_cache(maxsize=4096)
def _swap(evicted: int) -> Decision:
    """The accept that swaps out ``evicted``, built once while it stays cached.

    ``evicted`` is an edge id, or for a player started from a ``_Deal`` a
    position in its contracted tree, so one cache holds both kinds.
    """
    return Decision(True, evicted)


def _shuffles(items: Iterable, seed: int):
    """The one order stream: in-place shuffles of a copy of ``items`` by ``Random(seed)``.

    Each shuffle is ``Random.shuffle``'s Fisher-Yates, inlined: from the top
    down, position ``i`` swaps with ``j``, drawn as ``getrandbits(k)`` for
    the bit length ``k`` of ``i + 1`` and drawn again while above ``i``.
    These are the draws ``Random(seed).shuffle`` makes, so the stream is the
    one repeated ``Random(seed).shuffle`` calls give; what is saved is the
    method call and the bit length that ``shuffle`` pays per position.  The
    draws depend only on the length, so a list of ``k`` items is permuted as
    ``range(k)`` is, and a list of fewer than two draws nothing.  Monte
    Carlo shuffles the edges of the graph, or for an exact ``gftp`` its
    contested edges alone (``_Deal``).
    """
    getrandbits = random.Random(seed).getrandbits
    items = list(items)
    steps = [(i, (i + 1).bit_length()) for i in range(len(items) - 1, 0, -1)]
    while True:
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        yield items


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
        """The ids shuffled by ``random.Random(seed)``.

        The first order of ``_shuffles(range(m), seed)``.  ``seed`` must be
        non-negative.
        """
        if seed < 0:  # Random(-s) seeds like Random(s)
            raise BadParameter(f"seed must be non-negative, got {seed}")
        return cls(tuple(next(_shuffles(range(m), seed))))

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

    Cycle dominance: for an unseen edge ``f`` off the working tree, the
    largest prediction among the unseen working-tree edges on ``f``'s cycle
    never rises.  At the start it is ``f``'s cycle bottleneck, the largest
    prediction on its path in the predicted tree, which is at most ``f``'s
    own prediction by the MST cycle property.  A swap of ``e`` for ``e_max``
    can only bring onto ``f``'s cycle unseen edges of ``e``'s cycle, which
    predict at most ``e_max``, and ``e_max`` was unseen on ``f``'s cycle;
    the evicted ``e_max`` itself gets ``e``'s cycle.  So a revealed weight
    above the edge's own prediction is rejected without a cycle query, and
    an edge off the predicted tree whose true weight is above its cycle
    bottleneck is rejected in every order, *dead* (``_contested``).  Such a
    rejection clears the edge's candidate flag, which is never read for an
    edge off the working tree, and changes nothing else.

    ``_start`` copies the start state in O(n) from a ``PreparedInstance``:
    the predicted MST rooted at vertex 0, as parent and parent-edge arrays,
    and the predictions on the preparation's scale, which ``reveal``'s
    weights share.  ``initialize`` builds a preparation without true
    weights, so its scale is 1 and the predictions stay Fractions.  From a
    ``_Deal`` it copies, in O(L' + n'), that tree with its inert edges
    contracted: the player then plays over the ``n'`` components and the
    ``L'`` contested edges, each named by its position in ``deal.edges``,
    and its decisions and swaps name positions, not ids.

    The unseen edges of the working tree are the predicted tree's edges that
    are neither revealed nor evicted.  A revealed weight at most its own
    prediction goes to the cycle query, which stamps the ancestors of one
    endpoint with a new count and climbs from the other to their lowest
    common ancestor.  A swap reverses the parent pointers from the revealed
    edge's endpoint on the cut-off side up to the evicted edge, so vertex 0
    stays the root, and the parent arrays are a function of the tree alone.
    With the unseen edges the tree fixes the unseen edges of the working
    tree, and so every later decision.  It also fixes the accepted edges,
    the tree's revealed ones, since only unseen edges are evicted and a
    rejected edge never joins the tree.  ``_undo`` takes a reveal back to the
    ``_saved`` state; the edge may then be revealed again.
    """

    name = "gftp"
    tracks_swaps = True

    def initialize(self, graph: Graph, predicted: Weights) -> None:
        self._start(PreparedInstance(graph, predicted))

    def _start(self, prepared: PreparedInstance, deal: "_Deal | None" = None) -> None:
        """Copy the start state from ``prepared`` in O(n), or from its ``deal`` in O(L' + n').

        From a deal the player starts as if every inert edge had arrived,
        on the contracted tree, whose vertices are components and whose
        edges are positions (``_Deal``).
        """
        if deal is None:
            parent, parent_edge, _ = prepared.rooted
            self._pred, self._tree = prepared.predicted_scaled, prepared.tree
            flags = prepared.graph.m
        else:
            parent, parent_edge = deal.parent, deal.parent_edge
            self._pred, self._tree = deal.pred, deal.tree
            flags = len(deal.edges)
        # ``_tree`` is the start tree, by which ``_undo`` tells an evicted edge
        self._parent = parent.copy()
        self._parent_edge = parent_edge.copy()
        self._mark, self._stamp = [0] * len(parent), 0  # the last cycle query's stamp
        # 1 until the edge is revealed or evicted; on the working tree's
        # edges, 1 marks the unseen ones, which a swap may evict.  A list of
        # ints, not a bytearray: CPython 3.11 specialises list subscripts,
        # and the reveal loop reads a flag per cycle edge
        self._candidate = [1] * flags

    def reveal(self, edge: Edge, weight: Fraction) -> Decision:
        """Decide one edge by the swap rule, on the scaled weights of ``_start``.

        The rule is written out again in ``_play_deal``'s loop for Monte
        Carlo trials; ``test_the_fused_trial_plays_as_reveal_does`` plays
        both on the same deals and compares them.
        """
        eid, a, b = edge.id, edge.u, edge.v
        candidate = self._candidate
        candidate[eid] = 0
        parent_edge = self._parent_edge
        if parent_edge[a] == eid or parent_edge[b] == eid:
            return _ACCEPT
        pred = self._pred
        if weight > pred[eid]:
            return _REJECT  # cycle dominance: no unseen cycle edge predicts more
        parent, mark = self._parent, self._mark
        stamp = self._stamp = self._stamp + 1
        x = a
        while x >= 0:
            mark[x] = stamp
            x = parent[x]
        # the unseen cycle edge of largest prediction, ties to the smaller id,
        # and the endpoint of the revealed edge on the same side of the cycle
        best = cut = -1
        best_pred = None
        x = b
        while mark[x] != stamp:
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
        candidate[best] = 0  # evicted: no later climb picks it
        return _swap(best)

    def _play_deal(
        self, prepared: PreparedInstance, deal: "_Deal", edges: Iterable[Edge]
    ) -> int | Fraction:
        """Play ``edges``, an order of ``deal.edges``, from its start; return the scaled cost.

        One Monte Carlo trial of an exact ``gftp``: ``reveal``'s rule written
        out in a single loop over the dealt edges, with no call and no
        ``Decision`` per edge, on the contracted tree, with the true weights
        by position from ``deal.weights``.  The union-find over the
        components starts from ``deal.forest``, all singletons, its two
        path-halving finds run inline, and the accepted weight is summed on
        ``prepared.scale``, starting from the inert weight.  It raises the
        ``NotSpanning`` that ``_play`` would: at an accept that closes a
        cycle, or at the end if the inert and accepted edges fall short of
        ``n - 1``, and it leaves the player in the state ``reveal`` calls
        would.  The swap rule is written here and in ``reveal``: one
        per-climb method called from both ran these trials at 0.91x the speed
        on ``gen_ro_lb(4, 1/2, 20)`` and 0.96x on
        ``random_instance(60, 1/5, 1/4, s)`` (in-process A/B, shared 2-CPU
        Xeon, Python 3.11).
        ``test_the_fused_trial_plays_as_reveal_does`` plays both on the same
        deals and compares the costs and the final states.
        """
        self._start(prepared, deal)
        candidate, pred, stamp = self._candidate, self._pred, self._stamp
        parent, parent_edge, mark = self._parent, self._parent_edge, self._mark
        weights = deal.weights
        joined = deal.forest.copy()
        total, accepted = deal.inert_weight, len(deal.inert)
        for edge in edges:
            eid, a, b = edge.id, edge.u, edge.v
            candidate[eid] = 0
            weight = weights[eid]
            if parent_edge[a] != eid and parent_edge[b] != eid:  # off the working tree
                if weight > pred[eid]:
                    continue
                stamp += 1
                x = a
                while x >= 0:
                    mark[x] = stamp
                    x = parent[x]
                best = cut = -1
                best_pred = None
                x = b
                while mark[x] != stamp:
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
                    continue
                x, up, up_edge = (b, a, eid) if below_b else (a, b, eid)
                while True:
                    old_up, old_edge = parent[x], parent_edge[x]
                    parent[x], parent_edge[x] = up, up_edge
                    if x == cut:
                        break
                    x, up, up_edge = old_up, x, old_edge
                candidate[best] = 0
            while joined[a] != a:
                joined[a] = a = joined[joined[a]]
            while joined[b] != b:
                joined[b] = b = joined[joined[b]]
            if a == b:
                self._stamp = stamp
                raise NotSpanning("accepted edges contain a cycle")
            joined[b] = a
            accepted += 1
            total += weight
        self._stamp = stamp
        n = prepared.graph.n
        if accepted != n - 1:
            raise NotSpanning(f"accepted {accepted} edges, a spanning tree needs {n - 1}")
        return total

    @staticmethod
    def _contested(prepared: PreparedInstance) -> tuple[list[int], list[int]]:
        """The contested edges and the inert tree edges, each in id order.

        An edge off the predicted tree is contested when it is live: when its
        true weight is at most its cycle bottleneck, the largest prediction on
        its predicted-tree path.  An edge of the predicted tree is inert when
        it lies on no live off-tree edge's predicted-tree path, or when its
        scaled prediction is below ``mu``, the least scaled true weight of the
        live edges and the tree edges on their paths, its own included; the
        other tree edges are contested.

        The dead off-tree edges are rejected whenever they arrive, without a
        change of state, and an edge on the working tree is accepted, so only
        a live edge or a tree edge evicted earlier can evict.  By induction
        over swaps, the working-tree path of such an edge stays inside the
        live edges' paths, so no cycle query climbs a tree edge on none of
        them, and none of those is evicted.  A tree edge ``e`` predicting
        below ``mu`` is climbed but never evicted: at the first eviction of
        such an edge, the edge that evicts is live or a tree edge of the paths
        evicted earlier, so it weighs at least ``mu``, while an eviction needs
        a weight at most ``pred[e] < mu``.  So an inert edge is accepted
        whenever it arrives, and its arrival, which clears its own flag,
        changes no other decision.  A climb that would pick an unseen ``e`` as
        ``e_max`` rejects with or without it, since the revealed weight is at
        least ``mu``, and a climb that would not picks the same edge.  So in
        any order of all the edges, the contested edges are decided as in
        their relative order alone, played from the state in which every inert
        edge has arrived (``_Deal``), and the cost is theirs plus the inert
        weight.  An off-tree edge whose scaled true weight is above its own
        prediction or the heaviest tree prediction, both at least its
        bottleneck, is dead; any other has its path listed once, in O(n), by
        ``graphs._path_ids``.
        """
        tree, pred, actual = prepared.tree, prepared.predicted_scaled, prepared.actual_scaled
        top = max(pred[eid] for eid in tree)
        rooted, us, vs = prepared.rooted, prepared.us, prepared.vs
        m = prepared.graph.m
        contested = [0] * m
        for eid in range(m):
            if eid in tree:
                continue
            weight = actual[eid]
            if weight > pred[eid] or weight > top:
                continue
            path = _path_ids(rooted, us[eid], vs[eid])
            for e in path:
                if pred[e] >= weight:  # live: mark it and every edge of its path
                    contested[eid] = 1
                    for f in path:
                        contested[f] = 1
                    break
        on_paths = [eid for eid in range(m) if contested[eid]]
        if on_paths:
            mu = min(actual[eid] for eid in on_paths)
            for eid in tree:
                if pred[eid] < mu:
                    contested[eid] = 0
        inert = sorted(eid for eid in tree if not contested[eid])
        return [eid for eid in on_paths if contested[eid]], inert

    @staticmethod
    def _deal(prepared: PreparedInstance) -> "_Deal":
        """The ``_Deal`` of ``prepared``: built on the first call and kept as ``prepared.deal``."""
        if prepared.deal is None:
            prepared.deal = _Deal(prepared)
        return prepared.deal

    def _saved(self) -> tuple:
        """The state ``_undo`` restores: both parent arrays, in O(n), or O(n') from a ``_Deal``.

        The candidate flags are not copied.  A reveal changes at most two of
        them, and ``_undo`` works out both from the decision.
        """
        return self._parent.copy(), self._parent_edge.copy()

    def _undo(self, eid: int, decision: Decision, saved: tuple) -> None:
        """Take back the reveal of ``eid`` that gave ``decision`` from the ``_saved`` state.

        An unseen edge's flag is 0 only once it has been evicted, and only
        revealed edges are swapped in, so an unseen edge off the predicted
        tree was never on the working tree.  So ``eid``'s flag was 1 before a
        plain tree accept (``_ACCEPT``) or if ``eid`` is off the predicted
        tree, and 0 for a predicted-tree edge revealed off the working tree,
        which was evicted.  A swapped-out edge was an unseen working-tree
        edge, so its flag was 1.  For a player started from a ``_Deal``,
        ``eid`` and the swapped-out edge are positions and the predicted
        tree is ``deal.tree``; its inert edges are contracted, never held.
        """
        parent, parent_edge = saved
        self._candidate[eid] = 1 if decision is _ACCEPT or eid not in self._tree else 0
        if decision.swapped_out is not None:
            self._candidate[decision.swapped_out] = 1
            self._parent[:], self._parent_edge[:] = parent, parent_edge

    def working_tree_ids(self) -> frozenset[int]:
        # vertex 0 stays the root, and every other vertex has its tree edge
        return frozenset(self._parent_edge[1:])


class _Deal:
    """What an exact ``gftp`` is dealt on one preparation, on the predicted
    tree with its inert edges contracted, and where it starts.

    ``contested`` and ``inert`` are the ids of ``_contested``.  The inert
    edges are joined into components, numbered in the order of their least
    vertex, so vertex 0's component is 0, the root; ``forest`` is the
    union-find of the ``n'`` components, each its own set, whose parent list
    each trial copies.  Position ``p`` is the contested edge
    ``contested[p]``, and ``edges[p]`` is ``Edge(p, cu, cv)`` on the
    components of its endpoints: the list, in id order, that a Monte Carlo
    trial shuffles and plays as it comes.  ``pred`` and ``weights`` are the
    scaled prediction and true weight by position, ``tree`` the positions on
    the predicted tree, and ``parent`` and ``parent_edge`` that tree of
    contested edges rooted at component 0.  ``inert_weight`` is the scaled
    sum of the inert edges, and ``by_id[eid]`` is ``edges[p]`` for the
    contested ``eid``, None for any other edge, so that :func:`run_cost` can
    keep the contested edges of a whole order.

    This is the state once every inert edge has arrived and been accepted,
    with those edges contracted.  An inert edge stays on the working tree,
    where it is accepted with no cycle query, and it is never a candidate
    (``GreedyFollowPredictions._contested``), so a cycle query on the full
    tree and on the contracted one see the same unseen contested edges, in
    the same order of prediction and id, and make the same decision; a
    contested edge's endpoints lie in two components, since its path holds
    a contested tree edge.  A Monte Carlo trial
    (``GreedyFollowPredictions._play_deal``) and the exact memo start from
    here, in O(L' + n').
    """

    __slots__ = (
        "contested", "inert", "edges", "pred", "weights", "tree",
        "parent", "parent_edge", "forest", "inert_weight", "by_id",
    )

    def __init__(self, prepared: PreparedInstance):
        self.contested, self.inert = GreedyFollowPredictions._contested(prepared)
        us, vs, n = prepared.us, prepared.vs, prepared.graph.n
        joined = _UnionFind(n)
        for eid in self.inert:
            joined.union(us[eid], vs[eid])
        roots, numbers, component = joined.parent, {}, [0] * n
        for x in range(n):
            root = x
            while roots[root] != root:
                root = roots[root]
            component[x] = numbers.setdefault(root, len(numbers))
        self.edges = [
            Edge(p, component[us[eid]], component[vs[eid]]) for p, eid in enumerate(self.contested)
        ]
        self.pred = [prepared.predicted_scaled[eid] for eid in self.contested]
        self.weights = [prepared.actual_scaled[eid] for eid in self.contested]
        self.tree = frozenset(p for p, eid in enumerate(self.contested) if eid in prepared.tree)
        self.parent, self.parent_edge, _ = _root(len(numbers), self.edges, self.tree)
        self.forest = list(range(len(numbers)))
        self.inert_weight = sum(prepared.actual_scaled[eid] for eid in self.inert)
        self.by_id = [None] * prepared.graph.m
        for eid, edge in zip(self.contested, self.edges):
            self.by_id[eid] = edge


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
    edges: Iterable[Edge],
    steps: list[TraceStep] | None = None,
    checked: bool = False,
) -> tuple[list[int], int | Fraction]:
    """The one reveal loop for whole orders: runs, games and opaque players' trials.

    Reads ``actual[eid]`` only once edge ``eid`` has been drawn from
    ``edges``, so an adaptive opponent may fix weights as the loop runs (its
    ``prepared`` then has no true weights).  A built-in player is started
    from ``prepared`` and shown its scaled weights, any other player gets
    ``initialize`` and Fractions.  Records to ``steps`` if given and runs
    the invariant checks if ``checked``.  Returns the accepted ids, in
    arrival order, and their total weight on ``prepared.scale``: an int sum
    where the true weights are scaled ints, which the caller divides by the
    scale once.  A Monte Carlo trial of an exact ``gftp`` is played from its
    deal by ``GreedyFollowPredictions._play_deal`` instead.
    """
    graph = prepared.graph
    summed = actual if prepared.actual_scaled is None else prepared.actual_scaled
    built_in = type(alg) in _BUILT_IN
    if built_in:
        alg._start(prepared)
    else:
        alg.initialize(graph, prepared.predicted)
    shown = summed if built_in else actual
    checker = _InvariantChecker(alg, prepared, actual, summed) if checked else None
    reveal = alg.reveal
    union, accepted, total = _UnionFind(graph.n).union, [], 0
    for edge in edges:
        eid = edge.id
        if checker is not None:
            checker.before_reveal(edge)
        decision = reveal(edge, shown[eid])
        if steps is not None:
            steps.append(TraceStep(eid, actual[eid], decision))
        if checker is not None:
            checker.after_reveal(edge, decision)
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
    prepared = instance.prepared
    steps: list[TraceStep] = []
    edges = map(instance.graph.edges.__getitem__, order.edge_ids)
    accepted, total = _play(alg, prepared, instance.actual, edges, steps, checked)
    return RunTrace(tuple(steps), frozenset(accepted), Fraction(total, prepared.scale))


def run_cost(alg: OnlineAlgorithm, instance: WmstInstance, order_ids: Sequence[int]) -> Fraction:
    """Cost-only form of :func:`run` for bulk experiments.

    The same reveal loop with no trace and no checks, raising the same
    ``NotSpanning``.  An exact ``gftp`` given a permutation of the edge ids
    plays only its contested edges, in their order, from its deal (built on
    first use) through ``GreedyFollowPredictions._play_deal``, as a Monte
    Carlo trial does: the other edges change no decision and add the inert
    weight (``GreedyFollowPredictions._contested``).  Any other order, and
    any other player, goes through ``_play``.
    """
    prepared = instance.prepared
    if type(alg) is GreedyFollowPredictions:
        order_ids, m = list(order_ids), instance.m
        # a permutation? Only ints are hashed and compared, so no id raises here
        if (len(order_ids) == m and set(map(type, order_ids)) == {int}
                and set(order_ids) == set(range(m))):
            deal = alg._deal(prepared)
            dealt = filter(None, map(deal.by_id.__getitem__, order_ids))  # drop the Nones
            return Fraction(alg._play_deal(prepared, deal, dealt), prepared.scale)
    edges = map(instance.graph.edges.__getitem__, order_ids)
    return Fraction(_play(alg, prepared, instance.actual, edges)[1], prepared.scale)


def check_cycle_dominance(
    predicted: Weights,
    working_tree: SpanningTree,
    initial_tree: frozenset[int],
    unseen: AbstractSet[int],
    revealed: Edge,
) -> None:
    """Assert no unseen initial-tree edge on the revealed edge's cycle
    predicts heavier than the revealed edge itself.

    This is the cycle-dominance lemma of ``GreedyFollowPredictions``, on
    which its in-``reveal`` rejection and its dead edges rest.
    Applies when a non-tree edge is revealed; a violation means the swap
    bookkeeping is broken, not that the input is bad.  The cycle is scanned
    from the ``v`` end, so the violation reported is the one nearest ``v``.
    """
    for eid in working_tree.path_ids(revealed.v, revealed.u):
        if eid in unseen and eid in initial_tree:
            if predicted[eid] > predicted[revealed.id]:
                raise InvariantViolation(
                    f"unseen tree edge {eid} predicts {predicted[eid]} above "
                    f"revealed edge {revealed.id} at {predicted[revealed.id]}"
                )


def check_post_rejection_dominance(
    predicted: Weights,
    working_tree: SpanningTree,
    unseen: AbstractSet[int],
    rejected: Edge,
    rejected_weight: Fraction,
) -> None:
    """Assert every unseen edge on a rejected edge's current cycle predicts
    strictly below the rejected true weight.

    Must hold at every step after the rejection for swap-based players.
    The cycle is scanned from the ``v`` end, as in ``check_cycle_dominance``.
    """
    for eid in working_tree.path_ids(rejected.v, rejected.u):
        if eid in unseen and not predicted[eid] < rejected_weight:
            raise InvariantViolation(
                f"unseen tree edge {eid} predicts {predicted[eid]}, not below "
                f"rejected weight {rejected_weight} of edge {rejected.id}"
            )


class _InvariantChecker:
    """Runs the structural checks around each reveal in checked mode.

    After every reveal the player's working tree is re-read and validated as
    a spanning tree (``NotSpanning`` otherwise); that one tree, rooted once,
    serves every check until the working tree next changes.  The checks
    compare on the preparation's common integer scale, ``predicted_scaled``
    against the scaled true weights that ``_play`` sums (the Fractions
    themselves where the scale is 1), and climb each cycle up the rooted tree
    without listing it.  A violation is then named by ``check_cycle_dominance``
    or ``check_post_rejection_dominance`` on the exact Fraction weights, so a
    failure reads as theirs; should the reference pass where the scan failed,
    the disagreement itself is raised.  Listing each cycle by
    ``graphs._path_ids`` instead ran the checked ``gftp`` run of
    ``random_instance(30, 1/4, 1/4, 1)``, order ``seed:1002``, at 1.26x the
    time (25 alternating in-process rounds, shared 2-CPU Xeon, Python 3.11).
    """

    def __init__(
        self,
        alg: OnlineAlgorithm,
        prepared: PreparedInstance,
        actual: Sequence[Fraction],
        summed: Sequence,
    ):
        self._alg = alg
        self._prepared = prepared
        self._pred = prepared.predicted_scaled
        self._actual, self._summed = actual, summed
        self._unseen = [1] * prepared.graph.m  # a list for the speed of its reads
        self._rejections: list[tuple[Edge, int | Fraction]] = []  # with the scaled weight
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
            self._tree = SpanningTree(self._prepared.graph, ids)
            return True
        return False

    def before_reveal(self, edge: Edge) -> None:
        tree = self._tree
        if tree is None or edge.id in tree:
            return
        parent, parent_edge, depth = tree.rooted
        unseen, initial, pred = self._unseen, self._initial, self._pred
        own = pred[edge.id]
        # climb the deeper end until the ends meet: the path ``graphs._path_ids`` lists
        a, b = edge.v, edge.u
        while a != b:
            if depth[a] >= depth[b]:
                e, a = parent_edge[a], parent[a]
            else:
                e, b = parent_edge[b], parent[b]
            if unseen[e] and pred[e] > own and e in initial:
                check_cycle_dominance(
                    self._prepared.predicted, tree, initial, self._unseen_ids(), edge
                )
                self._disagree("check_cycle_dominance", e, edge)

    def after_reveal(self, edge: Edge, decision: Decision) -> None:
        self._unseen[edge.id] = 0
        changed = self._refresh_tree()
        if not self._alg.tracks_swaps:
            return
        if not decision.accepted:
            self._rejections.append((edge, self._summed[edge.id]))
        tree = self._tree
        if tree is None or decision.accepted and not changed:
            return
        # on an unchanged tree an older rejection's cycle has only lost unseen
        # edges since its last check, so only the one just recorded can fail
        parent, parent_edge, depth = tree.rooted
        unseen, pred = self._unseen, self._pred
        for rejected, weight in self._rejections[0 if changed else -1:]:
            a, b = rejected.v, rejected.u
            while a != b:
                if depth[a] >= depth[b]:
                    e, a = parent_edge[a], parent[a]
                else:
                    e, b = parent_edge[b], parent[b]
                if unseen[e] and not pred[e] < weight:
                    check_post_rejection_dominance(
                        self._prepared.predicted,
                        tree,
                        self._unseen_ids(),
                        rejected,
                        self._actual[rejected.id],
                    )
                    self._disagree("check_post_rejection_dominance", e, rejected)

    def _unseen_ids(self) -> set[int]:
        return {eid for eid, flag in enumerate(self._unseen) if flag}

    @staticmethod
    def _disagree(reference: str, eid: int, edge: Edge) -> None:
        raise InvariantViolation(
            f"the scaled check failed at unseen edge {eid} on the cycle of edge "
            f"{edge.id}, but {reference} passes"
        )
