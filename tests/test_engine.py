"""Online execution: the two players, the replay engine, checked mode."""

import random
from fractions import Fraction
from functools import partial
from itertools import islice, permutations

import pytest

from wmst import (
    ALGORITHMS,
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
    error_report,
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
from wmst import checks
from wmst.cli import FAMILIES
from wmst.engine import _play
from wmst.graphs import PreparedInstance

from conftest import SlowSwapPlayer, triangle
from reference_gftp import GreedyFollowPredictions as ReferenceGreedy

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
        inst = triangle()
        with pytest.raises(BadParameter):
            run(ftp(), inst, ArrivalOrder((0, 1)))


class TestFollowPredictions:
    def test_triangle_any_order(self):
        inst = triangle()
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
        inst = triangle()
        trace = run(gftp(), inst, ArrivalOrder((1, 2, 0)))
        assert trace.accepted == frozenset({1, 2})
        assert trace.cost == 3
        assert trace.steps[0].decision == Decision(True, swapped_out=0)
        assert trace.steps[2].decision == Decision(False)

    def test_trace_text_golden(self):
        inst = triangle()
        trace = run(gftp(), inst, ArrivalOrder((1, 2, 0)))
        assert trace.to_text() == "1 1/1 ACCEPT SWAP=0\n2 2/1 ACCEPT\n0 1/1 REJECT\n"

    def test_swap_comparison_is_non_strict(self):
        # a revealed weight exactly equal to the best unseen prediction
        # still triggers the swap
        graph = triangle().graph
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
        """Each decision, and whether the reveal climbed the tree to make it."""
        prepared = PreparedInstance.of(inst)
        alg = gftp()
        alg._start(prepared)
        decisions, climbed = [], []
        for eid in order:
            decisions.append(alg.reveal(inst.graph.edges[eid], prepared.actual_scaled[eid]))
            climbed.append(eid in alg._mark)  # a cycle query stamps the revealed id
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
        # a hair above that prediction is rejected without a cycle query
        decisions, climbed = self.drive(
            self.path_with_chords((10, 5, 1, F(10001, 1000), 30, 30)), order
        )
        assert decisions[0] == Decision(False) and not climbed[0]

    def test_the_bound_passes_an_evicted_heaviest_edge(self):
        order = [3, 5, 4, 1, 2, 0]
        decisions, climbed = self.drive(self.path_with_chords((10, 5, 1, 2, 5, 7)), order)
        assert decisions == [
            Decision(True, swapped_out=0),  # evicts the heaviest tree edge
            Decision(False),  # 7 is above edge 1's 5, now the heaviest unseen
            Decision(True, swapped_out=1),  # 5 equals it, on the cycle
            Decision(False),  # evicted edge 1 is revealed off the tree
            Decision(True),
            Decision(False),  # no unseen tree edge is left
        ]
        assert climbed == [True, False, True, False, False, False]

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
            for eid in order:
                decision = alg.reveal(inst.graph.edges[eid], inst.actual[eid])
                if decision.accepted:
                    accepted.add(eid)
                SpanningTree(inst.graph, alg.working_tree_ids())  # raises if broken
            assert accepted == set(alg.working_tree_ids())


def test_swapper_matches_slow_reference():
    for seed in range(400):
        inst = random_instance(4 + seed % 4, F(3, 5), (F(0), F(1, 4), F(1), F(3))[seed % 4], seed=seed)
        order = ArrivalOrder.shuffled(inst.m, seed + 7)
        fast = run(gftp(), inst, order)
        slow = run(SlowSwapPlayer(), inst, order)
        assert fast == slow


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


def _not_spanning_messages(player) -> list[str]:
    """The ``NotSpanning`` messages of ``run`` and ``run_cost`` on the triangle."""
    messages = []
    for execute in (run, run_cost):
        with pytest.raises(NotSpanning) as excinfo:
            execute(player(), triangle(), ArrivalOrder.identity(3))
        messages.append(str(excinfo.value))
    return messages


class AcceptAll(OnlineAlgorithm):
    """Accepts every edge; remembers which ones it was shown."""

    def initialize(self, graph, predicted):
        self.revealed = []

    def reveal(self, edge, weight):
        self.revealed.append(edge.id)
        return Decision.accept()


class RejectAll(OnlineAlgorithm):
    def initialize(self, graph, predicted):
        pass

    def reveal(self, edge, weight):
        return Decision.reject()


def _shuffled_cases(count: int, noise: Fraction):
    """Random instances on 4..7 vertices, each with an order shuffled by its seed."""
    for seed in range(count):
        inst = random_instance(4 + seed % 4, F(3, 5), noise, seed=seed)
        yield inst, ArrivalOrder.shuffled(inst.m, seed).edge_ids


class TestCheckedMode:
    def test_fuzz_campaign_has_no_violations(self):
        checks.checked_runs_agree(_shuffled_cases(150, F(1)))

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


class EvictsTheLightest(SlowSwapPlayer):
    """Takes a bargain as gftp does, but evicts the lightest unseen cycle edge.

    The heavier edge it keeps can then sit on an earlier rejection's cycle.
    """

    tracks_swaps = True

    def _evict(self, unseen_cycle):
        return min(unseen_cycle, key=lambda eid: (self._pred[eid], eid))

    def working_tree_ids(self):
        return frozenset(self._tree)


class EmptyTreeFollower(FollowPredictions):
    """Reports a working tree that spans nothing."""

    def working_tree_ids(self):
        return frozenset()


def _ftp_lb_reversed():
    inst, _, _ = gen_ftp_lb(3, 3)
    return inst, ArrivalOrder(tuple(reversed(range(inst.m))))


def _triangle_chord_first():
    return triangle(), ArrivalOrder((2, 0, 1))


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
    ],
    ids=["post-rejection-dominance", "cycle-dominance", "working-tree-spans",
         "earlier-rejection-after-a-swap"],
)
def test_checked_mode_catches_broken_players(player, case, error, message):
    inst, order = case()
    run(player(), inst, order)  # the accepted set itself is a valid tree
    with pytest.raises(error) as excinfo:
        run(player(), inst, order, checked=True)
    assert str(excinfo.value) == message


class TestCostBounds:
    def test_both_players_within_two_eta(self):
        checks.cost_bounds(_shuffled_cases(100, F(2)))

    def test_swapper_never_beats_predicted_budget(self):
        # the swap rule only replaces an edge when the newcomer's true
        # weight undercuts the replaced prediction
        for inst, ids in _shuffled_cases(100, F(2)):
            tree = mst(inst.graph, inst.predicted)
            budget = tree_cost(tree, inst.predicted) + error_report(inst).eta
            assert run_cost(gftp(), inst, ids) <= budget


def _family_instances():
    """Every ``cli.FAMILIES`` family at a few sizes, games played by both players."""
    grids = {
        "ftp-lb": [dict(k=F(2), l=1), dict(k=F(3), l=4), dict(k=F(5, 2), l=7)],
        "ro-lb": [dict(k=F(2), delta=F(1, 2), l=1), dict(k=F(4), delta=F(1, 3), l=6)],
        "general-lb": [dict(k=k, l=l, alg=a) for k, l in ((2, 1), (3, 2)) for a in ALGORITHMS],
        "eta2": [dict(k=k, big_k=10 * k, alg=a) for k in (2, 5) for a in ALGORITHMS],
        "random": [dict(n=n, edge_prob=F(1, 3), noise=F(1, 2), seed=s)
                   for n, s in ((8, 1), (20, 2), (40, 3))],
    }
    assert set(grids) == set(FAMILIES)
    for family, grid in grids.items():
        for params in grid:
            yield FAMILIES[family].build(**params)[0]


def _orders(inst, count: int):
    yield ArrivalOrder.identity(inst.m)
    yield ArrivalOrder(tuple(reversed(range(inst.m))))
    for seed in range(count):
        yield ArrivalOrder.shuffled(inst.m, seed)


def _deep_cases():
    """Instances shaped like the benchmark's mc-random ones: deep trees, many swaps."""
    for seed in (1, 2, 3):
        inst = random_instance(60, F(1, 5), F(1, 4), seed)
        for order in _orders(inst, 4):
            yield inst, order.edge_ids


class _InitializeSubclass(GreedyFollowPredictions):
    """Extends ``initialize`` the ordinary way, through ``super()``."""

    def initialize(self, graph, predicted):
        super().initialize(graph, predicted)
        self.set_up = True


class TestAgainstReference:
    """The prepared-instance ``gftp`` plays exactly like the reference player."""

    def test_traces_on_the_fuzz_corpus(self):
        for inst, ids in checks.fuzz_pairs(10_000):
            order = ArrivalOrder(tuple(ids))
            assert run(gftp(), inst, order) == run(ReferenceGreedy(), inst, order)

    def test_traces_on_every_family_and_deep_trees(self):
        cases = [(inst, order.edge_ids) for inst in _family_instances()
                 for order in _orders(inst, 6)]
        for inst, ids in cases + list(_deep_cases()):
            order = ArrivalOrder(tuple(ids))
            assert run(gftp(), inst, order) == run(ReferenceGreedy(), inst, order)

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
        cases = list(islice(checks.fuzz_pairs(2_000), 0, None, 5)) + list(_deep_cases())
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
        cases = list(islice(checks.fuzz_pairs(1_000), 0, None, 5)) + list(_deep_cases())
        assert any(PreparedInstance.of(inst).scale > 1 for inst, _ in cases)
        for inst, ids in cases:
            order = ArrivalOrder(tuple(ids))
            player = subclass()
            assert run(player, inst, order) == run(ReferenceGreedy(), inst, order)
            assert player.set_up
        inst = random_instance(30, F(1, 4), F(1, 3), 5)
        assert mc_estimate(subclass, inst, 40, 7) == mc_estimate(gftp, inst, 40, 7)


def _tie_heavy_instances():
    """Instances full of equal weights, where a strict bound and a loose one differ."""
    for n in (3, 4, 5):
        graph = Graph.from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        for true in (1, 2, 3):  # below, at and above the one prediction
            yield WmstInstance(graph, (F(2),) * graph.m, (F(true),) * graph.m)
    for seed in range(40):
        graph = random_instance(4 + seed % 3, F(7, 10), F(0), seed).graph
        rng = random.Random(seed)
        predicted, actual = ([F(rng.randint(1, 3)) for _ in range(graph.m)] for _ in range(2))
        yield WmstInstance(graph, tuple(predicted), tuple(actual))
    for k, spokes in ((2, 1), (3, 3), (F(5, 2), 4)):
        yield gen_ftp_lb(k, spokes)[0]


def _dealt_cases():
    """The corpora the dealt orders are checked on, as (instance, order ids)."""
    yield from checks.fuzz_pairs(10_000)
    for inst in [*_family_instances(), *_tie_heavy_instances()]:
        for order in _orders(inst, 6):
            yield inst, order.edge_ids
    yield from _deep_cases()


class TestDealtEdges:
    """The edges ``gftp._rejected`` names are rejected in every order, changing
    nothing; ``ftp`` costs in every order what it costs in id order."""

    def test_dealt_orders_play_like_whole_orders(self):
        rejected_at_all = at_the_bound = 0
        for inst, ids in _dealt_cases():
            prepared = PreparedInstance.of(inst)
            one_game = _play(ftp(), prepared, inst.actual, range(inst.m))[1]
            assert _play(ftp(), prepared, inst.actual, ids)[1] == one_game
            rejected = set(gftp()._rejected(prepared))
            dealt = [eid for eid in ids if eid not in rejected]
            whole = _play(gftp(), prepared, inst.actual, ids)
            assert _play(gftp(), prepared, inst.actual, dealt) == whole
            trace = run(ReferenceGreedy(), inst, ArrivalOrder(tuple(ids)))
            assert not any(s.decision.accepted for s in trace.steps if s.edge_id in rejected)
            rejected_at_all += bool(rejected)
            top = max(inst.predicted[eid] for eid in prepared.tree)
            at_the_bound += any(
                inst.actual[eid] == min(inst.predicted[eid], top)
                for eid in range(inst.m) if eid not in prepared.tree
            )
        assert rejected_at_all > 1000 and at_the_bound > 100

    def test_an_edge_at_its_own_prediction_is_dealt_and_swapped_in(self):
        # edge 2 closes a cycle with tree edges 0 and 1, and edge 1 predicts
        # what edge 2 does; so does the true weight of edge 2
        graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        inst = WmstInstance(graph, (F(1), F(2), F(2)), (F(1), F(5), F(2)))
        prepared = PreparedInstance.of(inst)
        assert prepared.tree == {0, 1}
        assert gftp()._rejected(prepared) == []
        trace = run(gftp(), inst, ArrivalOrder((2, 0, 1)))
        assert trace.steps[0].decision == Decision.accept(swapped_out=1)
        assert trace.cost == 3
        trials, seed = 12, 1
        rng = random.Random(seed)
        ids, costs = [0, 1, 2], []
        for _ in range(trials):
            rng.shuffle(ids)
            costs.append(run(ReferenceGreedy(), inst, ArrivalOrder(tuple(ids))).cost)
        assert len(set(costs)) == 2  # some orders swap edge 2 in, some do not
        mean = sum(costs, F(0)) / trials
        assert mc_estimate(gftp, inst, trials, seed).mean_cost == float(mean)
