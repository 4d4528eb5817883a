"""Online execution: the two players, the replay engine, checked mode."""

import weakref
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import groupby, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmst import (
    ArrivalOrder,
    BadParameter,
    Decision,
    FollowPredictions,
    Graph,
    GreedyFollowPredictions,
    InvariantViolation,
    NotSpanning,
    OnlineAlgorithm,
    WmstInstance,
    ftp,
    gen_eta2_game,
    gen_ftp_lb,
    gen_general_lb_game,
    gen_ro_lb,
    gftp,
    mc_estimate,
    mst,
    random_instance,
    run,
    run_cost,
    tree_cost,
)
from wmst import checks, engine
from wmst.engine import _play

from conftest import assert_estimates_the_sample, cycle_bottlenecks, dead_edges, gftp_orders
from conftest import outcome, shuffles
import corpus
from reference_gftp import GreedyFollowPredictions as ReferenceGreedy
import reference_checker

F = Fraction


class TestArrivalOrder:
    def test_identity_and_shuffled(self):
        assert ArrivalOrder.identity(4).edge_ids == (0, 1, 2, 3)
        a = ArrivalOrder.shuffled(10, seed=5)
        b = ArrivalOrder.shuffled(10, seed=5)
        assert a == b
        assert sorted(a.edge_ids) == list(range(10))

    def test_negative_seed_rejected(self):
        # Random(-5) shuffles as Random(5) does
        with pytest.raises(BadParameter, match="seed must be non-negative, got -5"):
            ArrivalOrder.shuffled(10, seed=-5)

    def test_non_permutation_rejected(self):
        for ids in ((0, 0, 1), (1, 2, 3), (True, 0), (0, 1.0), (0, "1")):
            with pytest.raises(BadParameter):
                ArrivalOrder(ids)

    def test_wrong_length_rejected_by_run(self):
        inst = corpus.triangle()
        with pytest.raises(BadParameter):
            run(ftp(), inst, ArrivalOrder((0, 1)))


class TestFollowPredictions:
    def test_triangle_any_order(self):
        inst = corpus.triangle()
        for order in permutations(range(3)):
            trace = run(ftp(), inst, ArrivalOrder(order))
            assert trace.accepted == frozenset({0, 2})
            assert trace.cost == 3

    def test_order_invariance_on_random_instances(self):
        for seed in range(20):
            inst = random_instance(5, F(3, 5), F(1), seed=seed)
            costs = set()
            accepted = set()
            for oseed in range(6):
                trace = run(ftp(), inst, ArrivalOrder.shuffled(inst.m, oseed))
                costs.add(trace.cost)
                accepted.add(trace.accepted)
            assert len(costs) == 1 and len(accepted) == 1


class TestGreedyFollowPredictions:
    def test_hand_simulated_swap(self):
        # revealing the mispredicted cheap edge first evicts the unseen
        # equal-prediction tree edge with the smaller id
        inst = corpus.triangle()
        trace = run(gftp(), inst, ArrivalOrder((1, 2, 0)))
        assert trace.accepted == frozenset({1, 2})
        assert trace.cost == 3
        assert trace.steps[0].decision == Decision(True, swapped_out=0)
        assert trace.steps[2].decision == Decision(False)

    def test_trace_text_golden(self):
        inst = corpus.triangle()
        trace = run(gftp(), inst, ArrivalOrder((1, 2, 0)))
        assert trace.to_text() == "1 1/1 ACCEPT SWAP=0\n2 2/1 ACCEPT\n0 1/1 REJECT\n"

    def test_swap_decisions_are_built_once_per_evicted_edge(self, monkeypatch):
        built = []
        init = Decision.__init__

        def counted(self, accepted, swapped_out=None):
            built.append(swapped_out)
            init(self, accepted, swapped_out)

        engine._swap.cache_clear()
        monkeypatch.setattr(Decision, "__init__", counted)
        inst = gen_ro_lb(4, F(1, 2), 20)
        # Monte Carlo trials and run_cost build no decisions, so whole seeded orders are run
        for ids in shuffles(range(inst.m), 3, 500):
            run(gftp(), inst, ArrivalOrder(tuple(ids)))
        # about ten swaps an order, and a swap evicts one of the 21 tree edges
        assert 0 < len(built) == len(set(built)) <= inst.n - 1 == 21

    def test_the_swap_cache_is_bounded_and_holds_no_player(self):
        bound = engine._swap.cache_info().maxsize
        for eid in range(bound + 10):
            assert Decision.accept(swapped_out=eid) == Decision(True, eid)
        assert engine._swap.cache_info().currsize == bound
        assert Decision.accept(swapped_out=0) is Decision.accept(swapped_out=0)
        # it keys on ids alone, so a swapping player is freed once its game ends
        player = gftp()
        trace = run(player, corpus.triangle(), ArrivalOrder((1, 2, 0)))
        assert trace.steps[0].decision is Decision.accept(swapped_out=0)
        freed = weakref.ref(player)
        del player
        assert freed() is None

    def test_swap_comparison_is_non_strict(self):
        # a revealed weight exactly equal to the best unseen prediction
        # still triggers the swap
        graph = corpus.triangle().graph
        inst = WmstInstance(graph, (F(2), F(3), F(2)), (F(1), F(2), F(2)))
        trace = run(gftp(), inst, ArrivalOrder((1, 2, 0)))
        assert trace.steps[0].decision == Decision(True, swapped_out=0)
        assert trace.accepted == frozenset({1, 2})

    @staticmethod
    def path_with_chords(actual) -> WmstInstance:
        """The path 0-1-2-3 predicted at 10, 5 and 1, and three chords predicted at 20."""
        graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)])
        predicted = tuple(map(F, (10, 5, 1, 20, 20, 20)))
        return WmstInstance(graph, predicted, tuple(map(F, actual)))

    @staticmethod
    def drive(inst: WmstInstance, order) -> tuple[list[Decision], list[bool]]:
        """Each decision, and whether the reveal climbed the tree to make it.

        A reveal off the working tree climbs exactly when its weight is at
        most its own prediction.
        """
        prepared = inst.prepared
        alg = gftp()
        alg._start(prepared)
        decisions, climbed = [], []
        for eid in order:
            off_tree = eid not in alg.working_tree_ids()
            stamp = alg._stamp  # a cycle query takes the next stamp
            decisions.append(alg.reveal(inst.graph.edges[eid], prepared.actual_scaled[eid]))
            climbed.append(alg._stamp != stamp)
            assert climbed[-1] == (off_tree and inst.actual[eid] <= inst.predicted[eid])
        trace = run(gftp(), inst, ArrivalOrder(tuple(order)))
        assert trace == run(ReferenceGreedy(), inst, ArrivalOrder(tuple(order)))
        assert [step.decision for step in trace.steps] == decisions
        return decisions, climbed

    def test_weight_equal_to_the_heaviest_unseen_prediction_still_swaps(self):
        # chord 3 closes the cycle through edges 0 and 1; edge 0's prediction,
        # 10, is the largest of any unseen tree edge
        order = [3, 5, 4, 1, 2, 0]
        decisions, climbed = self.drive(self.path_with_chords((10, 5, 1, 10, 30, 30)), order)
        assert decisions[0] == Decision(True, swapped_out=0) and climbed[0]
        # a hair above that prediction is at most the chord's own, so the
        # cycle query runs and rejects it
        decisions, climbed = self.drive(
            self.path_with_chords((10, 5, 1, F(10001, 1000), 30, 30)), order
        )
        assert decisions[0] == Decision(False) and climbed[0]

    def test_the_bound_passes_an_evicted_heaviest_edge(self):
        order = [3, 5, 4, 1, 2, 0]
        decisions, climbed = self.drive(self.path_with_chords((10, 5, 1, 2, 5, 7)), order)
        assert decisions == [
            Decision(True, swapped_out=0),  # evicts the heaviest tree edge
            Decision(False),  # 7 is above edge 2's 1, the one unseen edge on its cycle
            Decision(True, swapped_out=1),  # 5 equals edge 1's prediction, on the cycle
            Decision(False),  # evicted edge 1 is revealed off the tree
            Decision(True),
            Decision(False),  # no unseen tree edge is left
        ]
        # every off-tree reveal is at most its own prediction, so each climbs
        assert climbed == [True, True, True, True, False, True]

    def test_all_spokes_swap_when_cheap_side_first(self):
        # reveal each cheap spoke edge before its expensive sibling: every
        # spoke swaps and the bridge is kept
        k, spokes = 3, 4
        inst = gen_ro_lb(k, F(1, 2), spokes)
        tree = mst(inst.graph, inst.predicted)
        cheap_first = [0]
        for i in range(spokes):
            a, b = 1 + 2 * i, 2 + 2 * i
            tree_side = a if a in tree else b
            other = b if tree_side == a else a
            cheap_first.extend((other, tree_side))
        trace = run(gftp(), inst, ArrivalOrder(tuple(cheap_first)), checked=True)
        assert trace.cost == F(1, 2) + spokes
        swaps = [s for s in trace.steps if s.decision.swapped_out is not None]
        assert len(swaps) == spokes

    def test_tree_edges_first_blocks_all_swaps(self):
        inst = gen_ro_lb(3, F(1, 2), 4)
        tree = mst(inst.graph, inst.predicted)
        order = sorted(tree.edge_ids) + sorted(set(range(inst.m)) - tree.edge_ids)
        trace = run(gftp(), inst, ArrivalOrder(tuple(order)), checked=True)
        assert trace.cost == run(ftp(), inst, ArrivalOrder.identity(inst.m)).cost

    def test_working_tree_stays_spanning_and_matches_accepts(self):
        from wmst.graphs import SpanningTree

        for seed in range(30):
            inst = random_instance(6, F(3, 5), F(1), seed=seed)
            alg = GreedyFollowPredictions()
            alg.initialize(inst.graph, inst.predicted)
            order = ArrivalOrder.shuffled(inst.m, seed)
            accepted = set()
            unseen = set(range(inst.m))
            for eid in order:
                decision = alg.reveal(inst.graph.edges[eid], inst.actual[eid])
                unseen.discard(eid)
                if decision.accepted:
                    accepted.add(eid)
                SpanningTree(inst.graph, alg.working_tree_ids())  # raises if broken
                # only unseen edges are evicted and no rejected edge comes back,
                # so the tree fixes the accepts: the exact memo keys on it alone
                assert accepted == alg.working_tree_ids() - unseen


class TestRunEngine:
    def test_tree_graph_forces_all_accepts(self):
        graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        inst = WmstInstance(graph, (F(4), F(1), F(9)), (F(2), F(2), F(2)))
        for factory in (ftp, gftp):
            trace = run(factory(), inst, ArrivalOrder.identity(3))
            assert trace.accepted == frozenset({0, 1, 2})
            assert trace.cost == 6

    def test_perfect_predictions_reach_optimum(self):
        for seed in range(20):
            inst = random_instance(6, F(3, 5), F(0), seed=seed)
            opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
            for factory in (ftp, gftp):
                trace = run(factory(), inst, ArrivalOrder.shuffled(inst.m, seed))
                assert trace.cost == opt

    def test_run_cost_matches_run(self):
        for seed in range(40):
            inst = random_instance(6, F(3, 5), F(1), seed=seed)
            order = ArrivalOrder.shuffled(inst.m, seed + 1)
            for factory in (ftp, gftp):
                assert run_cost(factory(), inst, order.edge_ids) == run(
                    factory(), inst, order
                ).cost

    def test_gftp_run_cost_plays_the_deal_and_costs_what_run_does(self, monkeypatch):
        # the deal's instances have inert and dead edges, ro-lb neither, and a
        # K4 past SCALE_BITS keeps Fractions; each order is whole
        orders = [(inst, ids) for seed, inst in enumerate(corpus.dealt())
                  for ids in shuffles(range(inst.m), seed, 3)]
        costs = [run(gftp(), inst, ArrivalOrder(tuple(ids))).cost for inst, ids in orders]
        played = []
        monkeypatch.setattr(engine, "_play", lambda *args: played.append(args))
        assert [run_cost(gftp(), inst, ids) for inst, ids in orders] == costs
        assert played == []

    def test_gftp_run_cost_of_a_non_permutation_is_played_whole(self):
        # an order that is not a permutation of the ids gets what the whole
        # reveal loop makes of it: its cost or its fault
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        assert dead_edges(inst.prepared)
        ids = shuffles(range(inst.m), 7, 1)[0]
        last, inert = inst.m - 1, gftp()._deal(inst.prepared).inert[0]
        orders = [
            ids[:-1], ids + ids[:1], ids[:-1] + ids[:1],
            [eid for eid in ids if eid != inert], ids + [inert],
            [-1 if eid == last else eid for eid in ids],
            [inst.m if eid == last else eid for eid in ids],
            [True if eid == 1 else eid for eid in ids],
            [1.0 if eid == 1 else eid for eid in ids],
            ["1" if eid == 1 else eid for eid in ids],
            [[1] if eid == 1 else eid for eid in ids],
        ]
        for order in orders:
            edges = map(inst.graph.edges.__getitem__, order)
            whole = outcome(_play, gftp(), inst.prepared, inst.actual, edges)
            if type(whole[1]) is tuple:
                whole = (F, F(whole[1][1], inst.prepared.scale))
            assert outcome(run_cost, gftp(), inst, order) == whole

    def test_rejecting_everything_is_caught(self):
        message = "accepted 0 edges, a spanning tree needs 2"
        assert _not_spanning_messages(RejectAll) == [message, message]

    def test_cycle_accepts_are_caught(self):
        message = "accepted edges contain a cycle"
        assert _not_spanning_messages(AcceptAll) == [message, message]

    def test_over_acceptance_stops_at_the_cycle(self):
        # a triangle 0-1-2 plus a pendant edge 2-3: the third accept closes the
        # cycle, so the pendant edge is never revealed
        graph = Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        ones = (F(1),) * 4
        inst = WmstInstance(graph, ones, ones)
        for execute in (run, partial(run, checked=True), run_cost):
            player = AcceptAll()
            with pytest.raises(NotSpanning, match="accepted edges contain a cycle"):
                execute(player, inst, ArrivalOrder.identity(4))
            assert player.revealed == [0, 1, 2]

    @given(st.integers(0, 10**6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_an_opaque_player_faults_at_the_first_accept_closing_a_cycle(self, seed, data):
        inst = random_instance(3 + seed % 6, F(1, 2), F(1, 4), seed=seed)
        order = ArrivalOrder.shuffled(inst.m, seed)
        accepts = data.draw(st.sets(st.integers(0, inst.m - 1)))
        label, closing = list(range(inst.n)), None  # component labels of the accepts so far
        for position, eid in enumerate(order):
            edge = inst.graph.edges[eid]
            if eid in accepts:
                a, b = label[edge.u], label[edge.v]
                if a == b:
                    closing = position
                    break
                label = [a if c == b else c for c in label]
        player = AcceptListed(accepts)
        if closing is not None:
            with pytest.raises(NotSpanning, match="accepted edges contain a cycle"):
                run(player, inst, order)
            assert player.revealed == list(order.edge_ids[: closing + 1])
        elif len(accepts) != inst.n - 1:
            with pytest.raises(NotSpanning, match=f"accepted {len(accepts)} edges"):
                run(player, inst, order)
        else:
            assert run(player, inst, order).accepted == accepts


def _not_spanning_messages(player) -> list[str]:
    """The ``NotSpanning`` messages of ``run`` and ``run_cost`` on the triangle."""
    messages = []
    for execute in (run, run_cost):
        with pytest.raises(NotSpanning) as excinfo:
            execute(player(), corpus.triangle(), ArrivalOrder.identity(3))
        messages.append(str(excinfo.value))
    return messages


class AcceptAll(OnlineAlgorithm):
    """Accepts every edge; remembers which ones it was shown."""

    def initialize(self, graph, predicted):
        self.revealed = []

    def reveal(self, edge, weight):
        self.revealed.append(edge.id)
        return Decision.accept()


class AcceptListed(AcceptAll):
    """Accepts the edges it was built with, spanning or not."""

    def __init__(self, accepts):
        self.accepts = accepts

    def reveal(self, edge, weight):
        super().reveal(edge, weight)
        return Decision.accept() if edge.id in self.accepts else Decision.reject()


class RejectAll(OnlineAlgorithm):
    def initialize(self, graph, predicted):
        pass

    def reveal(self, edge, weight):
        return Decision.reject()


class TestCheckedMode:
    def test_fuzz_campaign_has_no_violations(self):
        checks.checked_runs_agree(corpus.spread(F(1))[:150])

    def test_perfect_predictions_hold_vacuously(self):
        inst = random_instance(6, F(1, 2), F(0), seed=9)
        run(gftp(), inst, ArrivalOrder.identity(inst.m), checked=True)

    def test_exhaustive_small_orders(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        for order in permutations(range(3)):
            run(gftp(), inst, ArrivalOrder(order), checked=True)

    def test_hub_spoke_sweep(self):
        for k in (2, 3):
            for spokes in (1, 2, 3):
                inst = gen_ro_lb(k, F(1, 2), spokes)
                for oseed in range(10):
                    order = ArrivalOrder.shuffled(inst.m, oseed)
                    run(gftp(), inst, order, checked=True)


class SwaplessTracker(FollowPredictions):
    """Claims the swap rule but never swaps: rejections stop being dominated."""

    tracks_swaps = True


class MaxTreeFollower(FollowPredictions):
    """Follows the maximum predicted tree, whose cycles hold heavier edges."""

    def initialize(self, graph, predicted):
        self._tree = mst(graph, [-p for p in predicted]).edge_ids


class EvictsTheLightest(ReferenceGreedy):
    """Takes a bargain as gftp does, but evicts the lightest unseen cycle edge.

    The heavier edge it keeps can then sit on an earlier rejection's cycle.
    """

    def _swap(self, evict, incoming):
        cycle = self._tree.path_ids(incoming.u, incoming.v)
        unseen = [eid for eid in cycle if self._unseen[eid]]
        return super()._swap(min(unseen, key=lambda eid: (self._pred[eid], eid)), incoming)


class EmptyTreeFollower(FollowPredictions):
    """Reports a working tree that spans nothing."""

    def working_tree_ids(self):
        return frozenset()


def _ftp_lb_reversed():
    inst, _, _ = gen_ftp_lb(3, 3)
    return inst, ArrivalOrder(tuple(reversed(range(inst.m))))


def _triangle_chord_first():
    return corpus.triangle(), ArrivalOrder((2, 0, 1))


def _square_rejection_first():
    """The path 0-1-2-3 predicted at 1, 1 and 5, chord 3 (0-2) rejected first.

    Chord 4 (1-3) then evicts edge 1 rather than edge 2, which puts edge 2,
    unseen and predicted at 5, on chord 3's cycle.  Every later reveal keeps
    the tree and rejects nothing with an unseen edge on its cycle.
    """
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    predicted = tuple(map(F, (1, 1, 5, 10, 6)))
    actual = tuple(map(F, (1, 1, 5, 2, 1)))
    return WmstInstance(graph, predicted, actual), ArrivalOrder((3, 4, 2, 0, 1))


def _square_in_halves():
    """``_square_rejection_first`` with every weight halved: the same decisions on scale 2."""
    inst, order = _square_rejection_first()
    halve = lambda weights: tuple(w / 2 for w in weights)  # noqa: E731
    inst = WmstInstance(inst.graph, halve(inst.predicted), halve(inst.actual))
    assert inst.prepared.scale == 2
    return inst, order


# Two predictions a hair above 3 and 2, with coprime denominators of 634 and 697 bits
FINE_THREE, FINE_TWO = 3 + F(1, 3**400), 2 + F(1, 5**300)


def _triangle_past_scale_bits():
    """The max tree {1, 2} of predictions (2, ~3, ~2), chord 0 revealed first.

    The denominators' lcm is longer than ``SCALE_BITS``, so the checks compare Fractions.
    """
    graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    inst = WmstInstance(graph, (F(2), FINE_THREE, FINE_TWO), (F(1), F(1), F(2)))
    assert inst.prepared.scale == 1
    return inst, ArrivalOrder((0, 1, 2))


@pytest.mark.parametrize(
    "player, case, error, message",
    [
        (SwaplessTracker, _ftp_lb_reversed, InvariantViolation,
         "unseen tree edge 5 predicts 4, not below rejected weight 1 of edge 6"),
        (MaxTreeFollower, _triangle_chord_first, InvariantViolation,
         "unseen tree edge 1 predicts 3 above revealed edge 2 at 2"),
        (EmptyTreeFollower, _triangle_chord_first, NotSpanning,
         "0 edges cannot span 3 vertices"),
        (EvictsTheLightest, _square_rejection_first, InvariantViolation,
         "unseen tree edge 2 predicts 5, not below rejected weight 2 of edge 3"),
        (EvictsTheLightest, _square_in_halves, InvariantViolation,
         "unseen tree edge 2 predicts 5/2, not below rejected weight 1 of edge 3"),
        (MaxTreeFollower, _triangle_past_scale_bits, InvariantViolation,
         f"unseen tree edge 1 predicts {FINE_THREE} above revealed edge 0 at 2"),
    ],
    ids=["post-rejection-dominance", "cycle-dominance", "working-tree-spans",
         "earlier-rejection-after-a-swap", "weights-in-halves", "past-scale-bits"],
)
def test_checked_mode_catches_broken_players(player, case, error, message):
    inst, order = case()
    run(player(), inst, order)  # the accepted set itself is a valid tree
    with pytest.raises(error) as excinfo:
        run(player(), inst, order, checked=True)
    assert str(excinfo.value) == message


class _ReferenceChecker(reference_checker._InvariantChecker):
    """The reference checker behind the engine's calls, shown the Fraction true weights."""

    def __init__(self, alg, prepared, actual, summed):
        super().__init__(alg, prepared.graph, prepared.predicted)
        self._actual = actual

    def after_reveal(self, edge, decision):
        super().after_reveal(edge, self._actual[edge.id], decision)


def _checked_outcome(player, inst, order):
    """The trace text of a checked run, or the type and text of what it raised."""
    try:
        return run(player(), inst, order, checked=True).to_text()
    except (InvariantViolation, NotSpanning) as error:
        return type(error), str(error)


def test_checker_agrees_with_the_reference(monkeypatch, deadline):
    players = [SwaplessTracker, MaxTreeFollower, EmptyTreeFollower, EvictsTheLightest, ftp, gftp]
    cases = [(inst, ArrivalOrder(ids)) for inst, ids in corpus.checker_fuzz()]
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_InvariantChecker", _ReferenceChecker)
        expected = [_checked_outcome(p, inst, order) for p in players for inst, order in cases]
    got = [_checked_outcome(p, inst, order) for p in players for inst, order in cases]
    assert got == expected
    kinds = Counter(_outcome_kind(outcome) for outcome in expected)
    assert set(kinds) == {"passed", "cycle", "rejection", "NotSpanning"}, kinds


def _outcome_kind(outcome) -> str:
    if type(outcome) is str:
        return "passed"
    error, text = outcome
    if " above revealed edge " in text:
        return "cycle"
    if ", not below rejected weight " in text:
        return "rejection"
    return error.__name__


@pytest.mark.parametrize(
    "player, case, reference",
    [
        (MaxTreeFollower, _triangle_chord_first, "check_cycle_dominance"),
        (EvictsTheLightest, _square_in_halves, "check_post_rejection_dominance"),
    ],
)
def test_a_violation_the_reference_passes_is_raised(monkeypatch, player, case, reference):
    inst, order = case()
    monkeypatch.setattr(engine, reference, lambda *args: None)
    with pytest.raises(InvariantViolation, match=f"but {reference} passes$"):
        run(player(), inst, order, checked=True)


class TestCostBounds:
    def test_both_players_within_two_eta(self):
        # and gftp within pred-OPT + eta: the swap rule only replaces an edge
        # when the newcomer's true weight undercuts the replaced prediction
        checks.cost_bounds(corpus.spread(F(2))[:100])


class _InitializeSubclass(GreedyFollowPredictions):
    """Extends ``initialize`` the ordinary way, through ``super()``."""

    def initialize(self, graph, predicted):
        super().initialize(graph, predicted)
        self.set_up = True


class TestAgainstReference:
    """The prepared-instance ``gftp`` plays exactly like the reference player
    (on the dealt orders, in ``TestDealtEdges``)."""

    def test_games_play_and_replay_alike(self):
        games = [(gen_general_lb_game, k, l) for k, l in ((2, 1), (3, 3), (5, 2))]
        games += [(gen_eta2_game, k, 10 * k) for k in (2, 3, 7)]
        for play, *params in games:
            game = play(*params, gftp())
            reference = play(*params, ReferenceGreedy())
            assert game == reference
            assert run(gftp(), game.instance, game.order) == game.trace

    def test_public_contract_keeps_the_working_tree(self):
        # as bench/run.py drives it: initialize, then reveal with Fraction weights
        cases = corpus.fuzz_pairs()[:2_000:5] + corpus.with_orders(corpus.deep(), 4)
        for inst, ids in cases:
            players = [gftp(), ReferenceGreedy()]
            for player in players:
                player.initialize(inst.graph, inst.predicted)
            assert players[0].working_tree_ids() == players[1].working_tree_ids()
            for eid in ids:
                edge, weight = inst.graph.edges[eid], inst.actual[eid]
                fast, slow = (player.reveal(edge, weight) for player in players)
                assert fast == slow
                assert players[0].working_tree_ids() == players[1].working_tree_ids()

    @pytest.mark.parametrize("subclass", [_InitializeSubclass])
    def test_subclasses_set_up_their_way_and_play_alike(self, subclass):
        cases = corpus.fuzz_pairs()[:1_000:5] + corpus.with_orders(corpus.deep(), 4)
        assert any(inst.prepared.scale > 1 for inst, _ in cases)
        for inst, ids in cases:
            order = ArrivalOrder(tuple(ids))
            player = subclass()
            assert run(player, inst, order) == run(ReferenceGreedy(), inst, order)
            assert player.set_up
        # a subclass is dealt shuffles of every edge, and plays as the reference
        inst = random_instance(30, F(1, 4), F(1, 3), 5)
        est = mc_estimate(subclass, inst, 40, 7)
        assert_estimates_the_sample(est, ReferenceGreedy, inst, shuffles(range(inst.m), 7, 40))


def _square_with_a_chord(chord: Fraction) -> WmstInstance:
    """Edge 3 closes the path 0-1-2 of edges 0 and 1, which predict 1 each.

    The bridge 2-3 predicts 5 and edge 3 predicts 4, so edge 3's cycle
    bottleneck, 1, is below both its own prediction and the heaviest tree
    prediction.
    """
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    return WmstInstance(graph, (F(1), F(1), F(5), F(4)), (F(3), F(1), F(5), chord))


def _played(alg, inst: WmstInstance, ids) -> tuple[list[int], int | Fraction]:
    """``_play`` of ``alg`` on the edges of ``inst`` with the ids ``ids``, in that order."""
    return _play(alg, inst.prepared, inst.actual, [inst.graph.edges[eid] for eid in ids])


def _assert_mc_plays_like_the_reference(inst: WmstInstance, trials: int, seed: int) -> None:
    """``mc_estimate``'s mean is that of the reference player on orders of all the
    edges that order the contested ones as its trials are dealt, which reach
    exactly two distinct costs."""
    est = mc_estimate(gftp, inst, trials, seed)
    costs = assert_estimates_the_sample(est, ReferenceGreedy, inst, gftp_orders(inst, seed, trials))
    assert len(set(costs)) == 2


class TestDealtEdges:
    """The dead edges (``conftest.dead_edges``) are rejected in every order,
    changing nothing; ``ftp`` costs in every order what it costs in id order;
    ``gftp`` traces every dealt order as the reference player does."""

    def test_rejected_edges_are_those_above_their_cycle_bottleneck(self):
        # the instances of the dealt orders
        instances = corpus.fuzz_instances() + corpus.families() + corpus.tie_heavy()
        for inst in instances + corpus.deep():
            prepared = inst.prepared
            off_tree = [eid for eid in range(inst.m) if eid not in prepared.tree]
            contested = set(gftp()._contested(prepared)[0])
            rejected = [eid for eid in off_tree if eid not in contested]
            assert rejected == dead_edges(prepared)
            # the looser bound of an edge's own and the heaviest tree prediction
            top = max(inst.predicted[eid] for eid in prepared.tree)
            loose = {eid for eid in off_tree if inst.actual[eid] > min(inst.predicted[eid], top)}
            assert loose <= set(rejected)

    def test_dealt_orders_play_like_whole_orders(self):
        rejected_at_all = at_the_bound = at_the_bottleneck = 0
        # the pairs of one instance are consecutive: its own work is done once
        for _, pairs in groupby(corpus.dealt_pairs(), key=lambda pair: id(pair[0])):
            pairs = list(pairs)
            inst = pairs[0][0]
            prepared = inst.prepared
            one_game = _played(ftp(), inst, range(inst.m))[1]
            rejected = set(dead_edges(prepared))
            top = max(inst.predicted[eid] for eid in prepared.tree)
            off_tree = [eid for eid in range(inst.m) if eid not in prepared.tree]
            on_bound = any(inst.actual[eid] == min(inst.predicted[eid], top) for eid in off_tree)
            on_bottleneck = any(
                inst.actual[eid] == bottleneck
                for eid, bottleneck in cycle_bottlenecks(prepared).items()
            )
            for _, ids in pairs:
                assert _played(ftp(), inst, ids)[1] == one_game
                dealt = [eid for eid in ids if eid not in rejected]
                whole = _played(gftp(), inst, ids)
                assert _played(gftp(), inst, dealt) == whole
                trace = run(ReferenceGreedy(), inst, ArrivalOrder(ids))
                assert run(gftp(), inst, ArrivalOrder(ids)) == trace
                assert not any(s.decision.accepted for s in trace.steps if s.edge_id in rejected)
            rejected_at_all += bool(rejected) * len(pairs)
            at_the_bound += on_bound * len(pairs)
            at_the_bottleneck += on_bottleneck * len(pairs)
        assert rejected_at_all > 1000 and at_the_bound > 100 and at_the_bottleneck > 100

    def test_an_edge_at_its_own_prediction_is_dealt_and_swapped_in(self):
        # edge 2 closes a cycle with tree edges 0 and 1, and edge 1 predicts
        # what edge 2 does; so does the true weight of edge 2
        graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        inst = WmstInstance(graph, (F(1), F(2), F(2)), (F(1), F(5), F(2)))
        prepared = inst.prepared
        assert prepared.tree == {0, 1}
        assert dead_edges(prepared) == []
        trace = run(gftp(), inst, ArrivalOrder((2, 0, 1)))
        assert trace.steps[0].decision == Decision.accept(swapped_out=1)
        assert trace.cost == 3
        _assert_mc_plays_like_the_reference(inst, trials=12, seed=1)

    def test_an_edge_below_its_prediction_but_above_its_bottleneck_is_not_dealt(self):
        inst = _square_with_a_chord(F(2))
        prepared = inst.prepared
        assert prepared.tree == {0, 1, 2}
        assert inst.actual[3] < min(inst.predicted[3], inst.predicted[2])  # dealt by that bound
        assert dead_edges(prepared) == [3]
        for order in permutations(range(inst.m)):
            trace = run(ReferenceGreedy(), inst, ArrivalOrder(order))
            assert not trace.steps[order.index(3)].decision.accepted
            dealt = [eid for eid in order if eid != 3]
            whole = _played(gftp(), inst, order)
            assert _played(gftp(), inst, dealt) == whole

    def test_an_edge_at_its_bottleneck_is_dealt_and_swapped_in(self):
        inst = _square_with_a_chord(F(1))
        prepared = inst.prepared
        assert dead_edges(prepared) == []
        # edges 0 and 1 tie at the bottleneck, and the smaller id is evicted
        trace = run(gftp(), inst, ArrivalOrder((3, 0, 1, 2)))
        assert trace.steps[0].decision == Decision.accept(swapped_out=0)
        assert trace.cost == 7
        _assert_mc_plays_like_the_reference(inst, trials=12, seed=1)


def _undo_kind(untouched: int, decision: Decision) -> str:
    """The kind of a decision, told apart by the revealed edge's flag before the reveal."""
    if decision.swapped_out is not None:
        return "swap" if untouched else "swap-in of an evicted edge"
    if decision.accepted:
        return "tree accept"
    return "reject of an untouched edge" if untouched else "reject of an evicted tree edge"


class TestUndo:
    """``_undo`` restores the ``_saved`` state, flags included, after every kind of decision."""

    def test_undo_restores_a_full_copy(self):
        # at each state of a seeded order, as the exact memo does, every unseen
        # edge is revealed and taken back; then the order's next edge is revealed
        kinds = Counter()
        for inst, order in corpus.undo():
            prepared = inst.prepared
            edges, scaled = inst.graph.edges, prepared.actual_scaled
            player = gftp()
            player._start(prepared)
            for step, next_id in enumerate(order):
                full = (list(player._candidate), list(player._parent), list(player._parent_edge))
                for eid in order[step:]:
                    saved = player._saved()
                    decision = player.reveal(edges[eid], scaled[eid])
                    kind = _undo_kind(full[0][eid], decision)
                    kinds[kind] += 1
                    player._undo(eid, decision, saved)
                    assert (player._candidate, player._parent, player._parent_edge) == full, kind
                player.reveal(edges[next_id], scaled[next_id])
        assert len(kinds) == 5 and min(kinds.values()) >= 50, kinds
