"""Random-order lab: exact enumeration, Monte Carlo, harmonic bound."""

import dataclasses
import math
import multiprocessing
import os
import random as pyrandom
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import cycle, islice, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from wmst import (
    ArrivalOrder,
    BadParameter,
    Graph,
    RoEstimate,
    TooLarge,
    exact_expectation,
    ftp,
    gen_ro_lb,
    gftp,
    harmonic_bound,
    mc_estimate,
    random_instance,
    ratio_report,
    run,
    run_cost,
    tree_cost,
    mst,
    WmstInstance,
    eta,
)
from wmst import Decision, FollowPredictions, GreedyFollowPredictions, NotSpanning
from wmst import checks, cli, engine, randomorder
from wmst.cli import FAMILIES
from wmst.graphs import PreparedInstance, _UnionFind
from wmst.engine import _play
from wmst.io import save_instance
from wmst.randomorder import estimate

from conftest import (
    RejectFirstThenGreedy,
    assert_estimates_the_sample,
    dead_edges,
    embedded,
    gftp_orders,
    predicted_paths,
    shuffles,
)
import corpus
from reference_gftp import GreedyFollowPredictions as ReferenceGreedy
import reference_memo

F = Fraction

_play_deal = GreedyFollowPredictions._play_deal  # unspied, for ``dealt_games``


def serial_pools(monkeypatch) -> list[int]:
    """Make ``mc_estimate``'s process pools map serially in this process.

    Returns the list that records the size each pool was asked for.
    """
    sizes: list[int] = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, function, jobs):
            return list(map(function, jobs))

    monkeypatch.setattr(randomorder.multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=SerialPool))
    monkeypatch.setattr(randomorder, "_forked_job", None)  # restored after the test
    return sizes


def drawn_orders(monkeypatch) -> list[int]:
    """Record the seed of every order ``mc_estimate`` draws from its order stream."""
    drawn: list[int] = []
    shuffles = randomorder._shuffles

    def counted(m, seed):
        for ids in shuffles(m, seed):
            drawn.append(seed)
            yield ids

    monkeypatch.setattr(randomorder, "_shuffles", counted)
    return drawn


def dealt_games(monkeypatch) -> SimpleNamespace:
    """Record every game ``randomorder`` plays: the ids of the edges it is
    dealt, in order, to ``dealt``, and its cost, once played, to ``costs``.

    Whole orders go through ``_play`` and an exact ``gftp``'s trials through
    ``GreedyFollowPredictions._play_deal``, so both are spied on; each spy
    wraps the unspied function, so a second call starts a new record.  A
    trial's edges are positions in its deal, recorded as the ids
    ``deal.contested`` maps them to.
    """
    games = SimpleNamespace(dealt=[], costs=[])

    def played(alg, prepared, actual, edges, *args, **kwargs):
        edges = list(edges)
        games.dealt.append([edge.id for edge in edges])
        accepted, total = _play(alg, prepared, actual, edges, *args, **kwargs)
        games.costs.append(F(total, prepared.scale))
        return accepted, total

    def dealt(alg, prepared, deal, edges):
        edges = list(edges)
        games.dealt.append([deal.contested[edge.id] for edge in edges])
        total = _play_deal(alg, prepared, deal, edges)
        games.costs.append(F(total, prepared.scale))
        return total

    monkeypatch.setattr(randomorder, "_play", played)
    monkeypatch.setattr(GreedyFollowPredictions, "_play_deal", dealt)
    return games


def pin_cpus(monkeypatch, cpus: int | None) -> None:
    """Let this process run on ``cpus`` CPUs; ``None`` hides the CPU set and count."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestExactExpectation:
    def test_swapper_on_smallest_family(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        assert exact_expectation(gftp, inst) == F(7, 2)

    def test_matches_manual_enumeration(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        costs = [
            run(gftp(), inst, ArrivalOrder(order)).cost
            for order in permutations(range(3))
        ]
        assert sum(costs, F(0)) / 6 == F(7, 2)

    def test_swap_happens_in_exactly_half_the_orders(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        swaps = 0
        for order in permutations(range(3)):
            trace = run(gftp(), inst, ArrivalOrder(order))
            swaps += any(s.decision.swapped_out is not None for s in trace.steps)
        assert swaps == 3

    def test_follower_is_order_invariant(self):
        inst = random_instance(4, F(7, 10), F(1), seed=2)
        fixed = run_cost(ftp(), inst, range(inst.m))
        assert exact_expectation(ftp, inst) == fixed

    def test_perfect_predictions_give_opt(self):
        inst = random_instance(4, F(7, 10), F(0), seed=3)
        opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
        assert exact_expectation(gftp, inst) == opt

    def test_follower_answers_past_the_edge_limit(self):
        # ftp costs its one game in every order, so no m! orders are walked
        inst = random_instance(5, F(1), F(0), seed=0)  # complete K5, m=10
        assert inst.m > randomorder.EXACT_EDGE_LIMIT
        assert exact_expectation(ftp, inst) == run_cost(ftp(), inst, range(inst.m))

    def test_guard_refuses_an_opaque_gftp_at_ten_edges(self, enumerations):
        inst = random_instance(5, F(1), F(0), seed=0)  # complete K5, m=10
        with pytest.raises(TooLarge, match="the limit is 9"):
            exact_expectation(NamedGreedy, inst)
        assert enumerations == []

    @pytest.mark.parametrize("spokes", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "k, delta",
        [(F(2), F(1, 2)), (F(3), F(1, 3)), (F(7, 2), F(1, 4)), (F(3), F(1, 2))],
        ids=["k2-d1/2", "k3-d1/3", "k7/2-d1/4", "k3-d1/2"],
    )
    def test_matches_analytic_formula_on_ro_lb(self, k, delta, spokes):
        # each spoke swaps exactly when its cheap side precedes its
        # sibling, a probability-1/2 event, so by linearity the exact
        # expectation is delta + spokes*(k+1): k*spokes above the optimum,
        # whose error is k*(spokes+1)
        inst = gen_ro_lb(k, delta, spokes)
        value = exact_expectation(gftp, inst)
        assert value == delta + spokes * (k + 1)
        assert value - tree_cost(mst(inst.graph, inst.actual), inst.actual) == k * spokes
        assert eta(inst) == k * (spokes + 1)


# E[gftp] on random_instance(20, 1/5, 1/4, s) for s = 1..8, m = 34-46 and
# 0-12 contested edges.  Seeds 1-4, 6 and 8 were checked against the
# live-edge memo of ``reference_memo``, which takes 7-98 s and up to 1.3 GB
# for each; seeds 5 and 7, past its memory, against 200,000 Monte Carlo
# trials, which fell within 0.6 standard errors.
N20_VALUES = {
    1: F(197839, 32768),
    2: F(841415, 131072),
    3: F(883841, 196608),
    4: F(420031, 65536),
    5: F(1009293, 131072),
    6: F(240423, 65536),
    7: F(7278461977, 1321205760),
    8: F(369183, 65536),
}


def enumerated(factory, inst: WmstInstance) -> Fraction:
    """The expectation from playing every one of the ``m!`` orders, every edge of each."""
    prepared = inst.prepared
    orders, count = permutations(inst.graph.edges), math.factorial(inst.m)
    d, total, _ = randomorder._cost_sums(factory, type(factory()), prepared, orders, count, None)
    return F(total, count * d)


def whole_cost(inst: WmstInstance, ids) -> Fraction:
    """What ``gftp`` pays on the order ``ids`` played edge by edge by ``run``,
    the reference for a trial and for ``run_cost``, which play from the deal."""
    return run(gftp(), inst, ArrivalOrder(tuple(ids))).cost


@pytest.fixture
def enumerations(monkeypatch) -> list[int]:
    """The edge counts ``exact_expectation`` enumerated every order of, one per call."""
    calls: list[int] = []

    def counted(ids):
        calls.append(len(ids))
        return permutations(ids)

    monkeypatch.setattr(randomorder, "permutations", counted)
    return calls


class SwapsAfterAnEvenStart(GreedyFollowPredictions):
    """``gftp`` that takes bargains at face value only if its first edge had an even id.

    Its decisions depend on which edge came first, which its tree does not
    show, so it must not be keyed by the tree.
    """

    def __init__(self):
        super().__init__()
        self._first = None

    def reveal(self, edge, weight):
        if self._first is None:
            self._first = edge.id
        return super().reveal(edge, weight if self._first % 2 == 0 else 4 * weight)


class NamedGreedy(GreedyFollowPredictions):
    """``gftp`` under another name: a subclass, so an opaque player."""

    name = "named-gftp"


class NamedFollower(FollowPredictions):
    """``ftp`` under another name: a subclass, so an opaque player that plays every order."""

    name = "named-ftp"


class TestMemoisedExpectation:
    """gftp takes the memoised recursion and ftp plays one game; both match enumeration."""

    @staticmethod
    def assert_memo_matches(instances, enumerations) -> None:
        for inst in instances:
            for factory in (gftp, ftp):
                assert exact_expectation(factory, inst) == enumerated(factory, inst)
        assert enumerations == []

    def test_acceptance_seven_instances(self, enumerations, deadline):
        self.assert_memo_matches(corpus.small_exact(), enumerations)

    def test_fuzz_instances_up_to_eight_edges(self, enumerations, deadline):
        # the instances of the first 200 fuzz pairs, four orders each
        instances = corpus.fuzz_instances()[:50]
        self.assert_memo_matches([inst for inst in instances if inst.m <= 8], enumerations)

    def test_family_instances_up_to_nine_edges(self, enumerations, deadline):
        instances = corpus.exact_families()
        assert max(inst.m for inst in instances) == randomorder.EXACT_EDGE_LIMIT
        self.assert_memo_matches(instances, enumerations)

    def test_tree_graph_and_single_edge(self, enumerations):
        for inst in corpus.edge_cases():
            opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
            assert exact_expectation(gftp, inst) == exact_expectation(ftp, inst) == opt
        self.assert_memo_matches(corpus.edge_cases(), enumerations)

    def test_common_denominator_past_scale_bits(self, enumerations):
        # m = 6: twelve pairwise coprime denominators of 65 digits, 2600 bits together
        inst = corpus.wide_coprime(4, base=50)
        assert inst.prepared.scale == 1
        self.assert_memo_matches([inst], enumerations)

    def test_a_mark_of_an_earlier_query_does_not_end_a_climb(self, enumerations, deadline):
        # the in-place walk reveals each edge on many trees, so a mark taken
        # from the edge id can be a stale one from another tree: on these K4
        # instances (m = 6) the climb from the other endpoint then stopped
        # short of the lowest common ancestor, which gave seed 27 a wrong
        # value and sent seed 33's second climb round forever
        instances = [random_instance(4, F(1), F(1), seed=s) for s in (27, 33)]
        self.assert_memo_matches(instances, enumerations)

    @pytest.mark.parametrize(
        "inst",
        [gen_ro_lb(2, F(1, 2), 3), random_instance(4, F(1), F(1), seed=33)],
        ids=["ro-lb", "k4"],
    )
    def test_the_memo_walks_one_player_and_hands_it_back(self, inst, deadline):
        def factory():
            made.append(gftp())
            return made[-1]

        def state(player):
            return player._parent_edge, player._parent, bytes(player._candidate)

        made = []
        start = gftp()
        start._start(inst.prepared, gftp()._deal(inst.prepared))  # past the inert edges
        exact_expectation(factory, inst)
        [player] = made
        assert player._stamp > 0  # it made cycle queries
        assert state(player) == state(start)

    @pytest.mark.parametrize(
        "factory",
        [RejectFirstThenGreedy, ReferenceGreedy, SwapsAfterAnEvenStart],
        ids=["reject-first", "slow-swap", "gftp-subclass"],
    )
    def test_players_without_a_key_enumerate(self, enumerations, factory):
        inst = random_instance(4, F(1), F(3), seed=5)  # K4: rejecting one edge still spans
        assert exact_expectation(factory, inst) == enumerated(factory, inst)
        assert enumerations == [inst.m]
        if factory is SwapsAfterAnEvenStart:  # the memo of gftp would be wrong for it
            assert exact_expectation(factory, inst) != exact_expectation(gftp, inst)

    def test_follower_plays_one_game(self, enumerations, monkeypatch):
        # test_acceptance_seven_instances asserts that this is the mean over every order
        memo = []
        monkeypatch.setattr(randomorder, "_completion_sum", lambda *args: memo.append(args))
        for inst in corpus.small_exact():
            assert exact_expectation(ftp, inst) == run_cost(ftp(), inst, range(inst.m))
        assert memo == []
        assert enumerations == []

    def test_subclass_that_only_renames_gftp_plays_as_an_opaque_player(
        self, enumerations, monkeypatch
    ):
        set_up = []

        def initialize(player, graph, predicted):
            set_up.append(type(player))
            original(player, graph, predicted)

        original = GreedyFollowPredictions.initialize
        monkeypatch.setattr(GreedyFollowPredictions, "initialize", initialize)
        inst = random_instance(4, F(1), F(3), seed=5)
        order = ArrivalOrder.shuffled(inst.m, 3)
        assert run(NamedGreedy(), inst, order) == run(gftp(), inst, order)
        # the subclass is dealt shuffles of every edge, gftp of its contested ones
        for factory, orders in ((NamedGreedy, shuffles(range(inst.m), 2, 30)),
                                (gftp, gftp_orders(inst, 2, 30))):
            est = mc_estimate(factory, inst, 30, 2)
            assert_estimates_the_sample(est, ReferenceGreedy, inst, orders)
        assert exact_expectation(NamedGreedy, inst) == exact_expectation(gftp, inst)
        assert set(set_up) == {NamedGreedy}  # gftp itself starts from the preparation
        assert enumerations == [inst.m]

    @pytest.mark.parametrize(
        "accepts, message",
        [({0, 1, 2}, "accepted edges contain a cycle"), ({0}, "accepted 1 edges")],
        ids=["cycle", "short"],
    )
    def test_keyed_player_faults_as_in_a_run(self, enumerations, monkeypatch, accepts, message):
        # ftp itself, not a subclass, so that both estimates play its one game
        def reveal(player, edge, weight):
            return Decision.accept() if edge.id in accepts else Decision.reject()

        monkeypatch.setattr(FollowPredictions, "reveal", reveal)
        pin_cpus(monkeypatch, 2)
        sizes = serial_pools(monkeypatch)
        inst = corpus.triangle()
        with pytest.raises(NotSpanning) as in_a_run:
            run_cost(ftp(), inst, range(inst.m))
        with pytest.raises(NotSpanning) as in_the_memo:
            exact_expectation(ftp, inst)
        assert str(in_the_memo.value) == str(in_a_run.value)
        for workers in (1, 2):
            with pytest.raises(NotSpanning) as in_the_parent:
                mc_estimate(ftp, inst, trials=10, seed=0, workers=workers)
            assert str(in_the_parent.value) == str(in_a_run.value)
        assert message in str(in_a_run.value)
        assert enumerations == []
        assert sizes == []  # the one game is played before any pool

    @pytest.mark.parametrize(
        "accepts, message",
        [({0, 1, 2}, "accepted edges contain a cycle"), ({0}, "accepted 1 edges")],
        ids=["cycle", "short"],
    )
    def test_memo_faults_as_in_a_run(self, enumerations, monkeypatch, accepts, message):
        # a built-in gftp never faults, so the memo has no fault to raise: a
        # faulting gftp is a subclass, which the memo hands to enumeration and
        # Monte Carlo deals every edge.  On the triangle every edge is
        # contested; on the pendant gftp's deal holds none, three inert edges
        # and edge 2, rejected, so a subclass started from it would not fault
        class AcceptsOnly(GreedyFollowPredictions):
            def reveal(self, edge, weight):
                return Decision.accept() if edge.id in accepts else Decision.reject()

        entered = []
        monkeypatch.setattr(randomorder, "_completion_sum", lambda *args: entered.append(args))
        pin_cpus(monkeypatch, 2)
        sizes = serial_pools(monkeypatch)
        pendant = corpus.pendant()
        deal = gftp()._deal(pendant.prepared)
        assert (deal.contested, sorted(deal.inert)) == ([], [0, 1, 3])
        for inst in (corpus.triangle(), pendant):
            games = dealt_games(monkeypatch)
            with pytest.raises(NotSpanning) as in_a_run:
                run_cost(AcceptsOnly(), inst, range(inst.m))
            with pytest.raises(NotSpanning) as in_the_estimate:
                exact_expectation(AcceptsOnly, inst)
            assert str(in_the_estimate.value) == str(in_a_run.value)
            for workers in (1, 2):
                with pytest.raises(NotSpanning) as in_a_trial:
                    mc_estimate(AcceptsOnly, inst, trials=10, seed=0, workers=workers)
                assert str(in_a_trial.value) == str(in_a_run.value)
            assert message in str(in_a_run.value)
            # each estimate faulted in its first game, dealt every edge
            assert [sorted(ids) for ids in games.dealt] == [list(range(inst.m))] * 3
            assert games.costs == []
        assert enumerations == [3, 4]
        assert entered == []
        assert sizes == [2, 2]

    def test_memo_matches_the_straightforward_player(self, enumerations, deadline):
        # enumerating the reference takes about 7 times as long as enumerating
        # gftp; the K4 past SCALE_BITS plays the memo on Fraction weights
        instances = [*corpus.small_exact()[:20], corpus.wide_coprime(4, base=50)]
        assert instances[-1].prepared.scale == 1
        rejected = [dead_edges(inst.prepared) for inst in instances]
        assert sum(map(bool, rejected)) >= 10 and rejected[-1]  # edges the memo never deals
        for inst in instances:
            assert exact_expectation(gftp, inst) == exact_expectation(ReferenceGreedy, inst)
        assert enumerations == [inst.m for inst in instances]

    def test_the_memo_reveals_only_live_edges(self, enumerations, monkeypatch, deadline):
        def recorded(player, edge, weight):
            revealed.add(edge.id)
            return reveal(player, edge, weight)

        reveal = GreedyFollowPredictions.reveal
        monkeypatch.setattr(GreedyFollowPredictions, "reveal", recorded)
        instances = [*corpus.small_exact()[:100], corpus.wide_coprime(4, base=50)]
        played = 0
        for inst in instances:
            prepared = inst.prepared
            rejected = set(dead_edges(prepared))
            if not rejected:
                continue
            revealed = set()
            exact_expectation(gftp, inst)
            # the live edges, less the inert ones the deal accepted unrevealed;
            # the memo reveals positions, mapped to ids by the deal
            deal = gftp()._deal(prepared)
            live = set(range(inst.m)) - rejected
            assert {deal.contested[p] for p in revealed} == live - set(deal.inert)
            played += 1
        assert played >= 50

    def test_exact_enum_values(self, enumerations, deadline):
        # the instances of the benchmark's exact-enum workload: ro-lb has no
        # rejected edge, and the m = 8 random graph deals 5 of its 8 edges
        ro_lb = gen_ro_lb(2, F(1, 2), 3)
        rnd = random_instance(5, F(4, 5), F(1, 4), 2)
        assert (ro_lb.m, rnd.m) == (7, 8)
        assert len(dead_edges(rnd.prepared)) == 3
        assert exact_expectation(gftp, ro_lb) == F(19, 2)
        assert exact_expectation(ftp, ro_lb) == F(31, 2)
        assert exact_expectation(gftp, rnd) == F(84693, 65536)
        assert exact_expectation(ftp, rnd) == F(78609, 65536)
        assert enumerations == []

    def test_exact_row_still_counts_every_order(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_instance(random_instance(5, F(4, 5), F(1, 4), 2), "r8.json")
        assert cli.main(["ro", "gftp", "r8.json", "--exact"]) == 0
        assert capsys.readouterr().out == (
            "# config: ro alg=gftp instance=r8.json exact\n"
            "# exact mean = 84693/65536\n"
            "instance_id,algorithm,trials,seed,mean,stderr,opt,eta,epsilon,ratio,"
            "bound_1e,bound_ln2,bound_2e\n"
            "r8.json,gftp,40320,0,84693/65536,0,78609/65536,23791/32768,47582/78609,"
            "28231/26203,1.60529964762,2.02486139177,2.21059929525\n"
        )

    @pytest.mark.parametrize("alg", ["gftp", "ftp"])
    def test_exact_row_prepares_the_instance_once(self, tmp_path, monkeypatch, alg):
        def counted(self, *args):
            prepared.append(self)
            init(self, *args)

        init = PreparedInstance.__init__
        monkeypatch.setattr(PreparedInstance, "__init__", counted)
        monkeypatch.chdir(tmp_path)
        save_instance(random_instance(5, F(4, 5), F(1, 4), 2), "r8.json")
        prepared = []
        assert cli.main(["ro", alg, "r8.json", "--exact"]) == 0
        assert len(prepared) == 1


def _live_paths(prepared: PreparedInstance) -> dict[int, list[int]]:
    """Each live edge, one off the predicted tree that ``dead_edges`` does not
    name, by id, and its predicted-tree path (``predicted_paths``)."""
    dead = set(dead_edges(prepared))
    return {eid: path for eid, path in predicted_paths(prepared).items() if eid not in dead}


def _inert_on_live_paths(prepared: PreparedInstance) -> set[int]:
    """The inert tree edges that lie on a live edge's predicted-tree path:
    those left out for predicting below every contested true weight."""
    return set().union(*_live_paths(prepared).values()) & set(gftp()._contested(prepared)[1])


def _contested_reference(inst: WmstInstance) -> tuple[list[int], list[int]]:
    """``_contested`` from ``dead_edges`` and ``predicted_paths``, on Fraction weights."""
    prepared = inst.prepared
    live = _live_paths(prepared)
    on_paths = set(live).union(*live.values())
    if on_paths:
        mu = min(inst.actual[eid] for eid in on_paths)
        on_paths -= {eid for eid in prepared.tree if inst.predicted[eid] < mu}
    return sorted(on_paths), sorted(prepared.tree - on_paths)


class TestContestedEdges:
    """The memo walks only the contested edges and never reveals the inert ones."""

    def test_one_climb_per_edge_names_what_the_rejected_edges_and_paths_name(self, deadline):
        for inst in corpus.dealt():
            assert gftp()._contested(inst.prepared) == _contested_reference(inst)

    def test_matches_the_live_edge_memo(self, enumerations, deadline):
        played = inert = below = 0
        for inst in corpus.differential():
            contested, left_out = gftp()._contested(inst.prepared)
            assert exact_expectation(gftp, inst) == reference_memo.expectation(inst)
            played += 1
            inert += bool(left_out) and bool(contested)
            below += bool(_inert_on_live_paths(inst.prepared))
        assert played >= 470 and inert >= 120  # both inert and contested edges
        # a tree edge on a live path left out, predicting below every contested weight
        assert below >= 100
        assert enumerations == []

    def test_contested_edges_of_ro_lb_and_a_tree(self):
        # every ro-lb edge lies on a cycle of a live edge; a tree graph has none
        for spokes in (1, 4, 7):
            prepared = gen_ro_lb(2, F(1, 2), spokes).prepared
            assert gftp()._contested(prepared) == (list(range(2 * spokes + 1)), [])
        tree = corpus.edge_cases()[0]
        prepared = tree.prepared
        assert gftp()._contested(prepared) == ([], sorted(prepared.tree))

    @pytest.mark.parametrize(
        "weight, contested, inert",
        [(F(1), [0, 1, 2], []), (F(2), [0, 1, 2], []), (F(3), [0, 2], [1])],
    )
    def test_a_tree_edge_is_left_out_only_below_every_contested_weight(
        self, enumerations, weight, contested, inert
    ):
        # edge 2, at 5/2, evicts edge 0, which predicts 3; revealed later at
        # ``weight``, edge 0 evicts edge 1, which predicts 2, unless it weighs
        # more than 2: edge 1 predicts below edge 2's weight in every case
        graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        inst = WmstInstance(graph, (F(3), F(2), F(4)), (weight, F(5), F(5, 2)))
        assert gftp()._contested(inst.prepared) == (contested, inert)
        swapped = run(gftp(), inst, ArrivalOrder((2, 0, 1))).steps[1].decision.swapped_out
        assert swapped == (None if inert else 1)
        assert exact_expectation(gftp, inst) == enumerated(gftp, inst)
        assert enumerations == []

    def test_inert_edges_start_accepted_and_are_never_revealed(self, monkeypatch, deadline):
        def recorded(player, edge, weight):
            revealed.append(edge.id)
            return reveal(player, edge, weight)

        def state(player):
            return player._candidate, player._parent, player._parent_edge

        reveal = GreedyFollowPredictions.reveal
        monkeypatch.setattr(GreedyFollowPredictions, "reveal", recorded)
        played = 0
        for inst in corpus.differential():
            prepared = inst.prepared
            deal = gftp()._deal(prepared)
            contested, inert = deal.contested, deal.inert
            # the deal's start is the state the inert reveals leave, with the
            # inert edges contracted: the same tree and flags, read by id
            revealed = []
            walked, dealt = gftp(), gftp()
            walked._start(prepared)
            for eid in inert:
                assert walked.reveal(inst.graph.edges[eid], prepared.actual_scaled[eid]).accepted
            dealt._start(prepared, deal)
            tree = {contested[p] for p in dealt.working_tree_ids()}
            assert tree | set(inert) == walked.working_tree_ids()
            assert [walked._candidate[eid] for eid in contested] == dealt._candidate
            assert not any(walked._candidate[eid] for eid in inert)
            # the memo reveals only the contested edges and hands the player back
            revealed = []
            randomorder._completion_sum(dealt, prepared, deal)
            assert {contested[p] for p in revealed} == set(contested)
            fresh = gftp()
            fresh._start(prepared, deal)
            assert state(dealt) == state(fresh)
            played += bool(inert) and bool(contested)
        assert played >= 120

    def test_many_inert_and_undealt_edges(self, enumerations, deadline):
        # m = 373 with 13 contested and 48 inert edges; 312 are never dealt
        inst = random_instance(60, F(1, 5), F(1, 20), 23)
        contested, inert = gftp()._contested(inst.prepared)
        assert (inst.m, len(contested), len(inert)) == (373, 13, 48)
        assert exact_expectation(gftp, inst) == F(25280969, 3932160)
        assert enumerations == []

    @pytest.mark.parametrize("seed", sorted(N20_VALUES))
    def test_twenty_vertices_past_the_edge_limit(self, enumerations, seed):
        inst = random_instance(20, F(1, 5), F(1, 4), seed)
        assert inst.m > randomorder.EXACT_EDGE_LIMIT
        assert exact_expectation(gftp, inst) == N20_VALUES[seed]
        assert enumerations == []

    def test_guard_refuses_past_the_contested_budget(self, enumerations, monkeypatch):
        entered = []
        monkeypatch.setattr(randomorder, "_completion_sum", lambda *args: entered.append(args))
        inst = random_instance(20, F(1, 5), F(1, 4), 39)  # m = 42
        contested, _ = gftp()._contested(inst.prepared)
        assert len(contested) == randomorder.EXACT_CONTESTED_LIMIT + 1
        with pytest.raises(TooLarge, match="16 contested edges"):
            exact_expectation(gftp, inst)
        assert entered == [] and enumerations == []


class TestDealtTrials:
    """A ``gftp`` trial is dealt a shuffle of its contested edges alone, from the
    deal's start, and costs what any order of all the edges that orders them so
    costs; a subclass is dealt a shuffle of every edge."""

    def test_each_trial_costs_what_its_whole_shuffle_costs(self, monkeypatch, deadline):
        # trial t of gftp is dealt the t-th shuffle of its contested ids, and
        # costs what orders of all the edges that order those ids so cost,
        # wherever the others go; a subclass is dealt the t-th shuffle of all ids
        trials, placements = 8, 3
        kinds = {"inert and rejected": 0, "neither": 0, "below": 0, "fractions": 0}
        for seed, inst in enumerate(corpus.dealt()):
            prepared = inst.prepared
            deal = gftp()._deal(prepared)
            dealt = shuffles(deal.contested, seed, trials)
            whole = shuffles(range(inst.m), seed, trials)
            costs = {}
            for factory, orders in ((gftp, dealt), (NamedGreedy, whole)):
                games = dealt_games(monkeypatch)
                mc_estimate(factory, inst, trials=trials, seed=seed, workers=1)
                assert games.dealt == orders
                costs[factory] = games.costs
            assert costs[NamedGreedy] == [whole_cost(inst, ids) for ids in whole]
            for t, ids in enumerate(dealt):
                for placement in range(t * placements, (t + 1) * placements):
                    full = embedded(inst.m, ids, placement)
                    assert whole_cost(inst, full) == costs[gftp][t]
            rejected = dead_edges(prepared)
            kinds["inert and rejected"] += bool(deal.inert) and bool(rejected)
            kinds["neither"] += not deal.inert and not rejected
            kinds["below"] += bool(_inert_on_live_paths(prepared))
            kinds["fractions"] += prepared.scale == 1
        assert kinds["inert and rejected"] >= 80 and kinds["neither"] >= 5
        assert kinds["below"] >= 20
        assert kinds["fractions"] == 1

    def test_worker_count_does_not_change_an_estimate_with_inert_edges(self, monkeypatch):
        # both workers fork after the parent builds the deal, and the second
        # starts mid-stream
        inst = random_instance(60, F(1, 5), F(1, 4), 3)
        deal = gftp()._deal(inst.prepared)
        assert len(deal.inert) == 35 and len(dead_edges(inst.prepared)) == 278
        pin_cpus(monkeypatch, 2)
        one, two = (mc_estimate(gftp, inst, trials=41, seed=9, workers=w) for w in (1, 2))
        assert one == two
        assert inst.prepared.deal is deal

    def test_the_deal_is_built_once_per_preparation(self, monkeypatch):
        built = []
        init = engine._Deal.__init__

        def counted(self, prepared):
            built.append(prepared)
            init(self, prepared)

        monkeypatch.setattr(engine._Deal, "__init__", counted)
        inst = random_instance(20, F(1, 5), F(1, 4), 1)
        mc_estimate(NamedGreedy, inst, trials=4, seed=0)
        mc_estimate(ftp, inst, trials=4, seed=0)
        assert built == [] and inst.prepared.deal is None
        for seed in range(3):
            mc_estimate(gftp, inst, trials=4, seed=seed)
        exact_expectation(gftp, inst)
        assert built == [inst.prepared]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gftp_shuffles_its_contested_edges_and_a_subclass_every_edge(
        self, monkeypatch, workers
    ):
        inst = random_instance(60, F(1, 5), F(1, 4), 3)
        contested = gftp()._contested(inst.prepared)[0]
        assert (inst.m, len(contested)) == (352, 39)
        pin_cpus(monkeypatch, 2)
        serial_pools(monkeypatch)
        shuffled = []
        stream = randomorder._shuffles

        def spied(edges, seed):
            shuffled.append([edge.id for edge in edges])
            return stream(edges, seed)

        monkeypatch.setattr(randomorder, "_shuffles", spied)
        for factory in (gftp, NamedGreedy):
            mc_estimate(factory, inst, trials=10, seed=4, workers=workers)
        # one stream per chunk, of the contested edges in id order, or of all;
        # gftp's are the deal's positions, mapped to ids
        ids = inst.prepared.deal.contested
        shuffled[:workers] = [[ids[p] for p in positions] for positions in shuffled[:workers]]
        assert shuffled == [contested] * workers + [list(range(inst.m))] * workers

    def test_all_contested_families_estimate_as_a_subclass_does(self):
        # every edge is contested, in id order, so gftp shuffles the very list
        # a subclass shuffles
        instances = [gen_ro_lb(k, delta, spokes)
                     for k, delta, spokes in ((2, F(1, 2), 1), (4, F(1, 2), 20), (3, F(1, 3), 6))]
        instances += [FAMILIES["ftp-lb"].build(k=k, l=l)[0] for k, l in ((F(2), 1), (F(7, 2), 5))]
        for seed, inst in enumerate(instances):
            assert gftp()._contested(inst.prepared) == (list(range(inst.m)), [])
            gftp_est = mc_estimate(gftp, inst, trials=300, seed=seed)
            assert gftp_est == mc_estimate(NamedGreedy, inst, trials=300, seed=seed)
            assert gftp_est.std_error > 0

    def test_a_deal_without_contested_edges_costs_its_inert_weight_and_draws_nothing(
        self, monkeypatch
    ):
        draws = []

        class Counted(pyrandom.Random):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(engine, "random", SimpleNamespace(Random=Counted))
        for inst in corpus.edge_cases():  # a tree graph and a single edge
            assert gftp()._contested(inst.prepared)[0] == []
            est = mc_estimate(gftp, inst, trials=25, seed=3)
            assert (est.mean_cost, est.std_error) == (float(sum(inst.actual)), 0.0)
        assert draws == []
        mc_estimate(gftp, gen_ro_lb(2, F(1, 2), 1), trials=1, seed=3)
        assert len(draws) >= 2  # the spy sees the draws of a deal with three edges

    def test_monte_carlo_lies_within_four_standard_errors_of_the_exact_mean(self, deadline):
        # instances with inert, rejected and 3-12 contested edges; a correct
        # estimator lands farther than 4 standard errors out about once in
        # 16,000 checks (normal approximation), so each of these twelve fixed
        # checks fails only on a biased stream or trial
        for seed in (1, 2, 3, 5, 7, 8):
            inst = random_instance(20, F(1, 5), F(1, 4), seed)
            contested, inert = gftp()._contested(inst.prepared)
            assert 3 <= len(contested) <= 12 and inert and dead_edges(inst.prepared)
            exact = float(exact_expectation(gftp, inst))
            for factory, trials in ((gftp, 4000), (NamedGreedy, 1000)):
                est = mc_estimate(factory, inst, trials=trials, seed=seed, workers=1)
                assert abs(est.mean_cost - exact) <= 4 * est.std_error


def _revealed_from_the_deal(prepared, deal, edges) -> tuple[GreedyFollowPredictions, int]:
    """A ``gftp`` started from ``deal`` and shown its ``edges`` by ``reveal``,
    and the number of swaps it made: the reference for ``_play_deal``."""
    player, swaps = gftp(), 0
    player._start(prepared, deal)
    for edge in edges:
        decision = player.reveal(edge, deal.weights[edge.id])
        swaps += decision.swapped_out is not None
    return player, swaps


def _with(deal, **changes):
    """A copy of ``deal`` with the slots named in ``changes`` replaced."""
    copy = object.__new__(engine._Deal)
    for name in engine._Deal.__slots__:
        setattr(copy, name, changes.get(name, getattr(deal, name)))
    return copy


class TestFusedTrial:
    """``_play_deal`` writes ``reveal``'s rule out in one loop; it must play as
    ``reveal`` does from the same deal start and fault as ``_play`` does."""

    def test_the_fused_trial_plays_as_reveal_does(self, deadline):
        played = swapped = 0
        instances = [
            *corpus.dealt(),
            *corpus.differential(),
            *(gen_ro_lb(2, F(1, 2), spokes) for spokes in range(1, 5)),
            *corpus.tie_heavy(),
        ]
        for seed, inst in enumerate(instances):
            prepared = inst.prepared
            deal = gftp()._deal(prepared)
            inert = [inst.graph.edges[eid] for eid in deal.inert]
            for edges in shuffles(deal.edges, seed, 4):
                fused = gftp()
                cost = fused._play_deal(prepared, deal, edges)
                # _play reveals the inert edges first, which leave the deal's start
                whole = [inst.graph.edges[deal.contested[edge.id]] for edge in edges]
                assert cost == _play(gftp(), prepared, inst.actual, inert + whole)[1]
                revealed, swaps = _revealed_from_the_deal(prepared, deal, edges)
                for state in ("_parent", "_parent_edge", "_candidate", "_stamp"):
                    assert getattr(fused, state) == getattr(revealed, state), state
                played += 1
                swapped += bool(swaps)
        assert played >= 2000 and swapped >= 500

    def test_the_contracted_tree_maps_to_the_full_tree(self, deadline):
        # a trial's final tree, its positions mapped to ids and the inert edges
        # added, is the tree of a player on the full predicted tree shown the
        # inert edges and then the same shuffle
        instances = [*corpus.dealt(), random_instance(60, F(1, 5), F(1, 20), 23), corpus.pendant()]
        shapes = set()
        for seed, inst in enumerate(instances):
            prepared = inst.prepared
            deal = gftp()._deal(prepared)
            shapes.add((len(deal.contested), len(deal.inert)))
            inert = [inst.graph.edges[eid] for eid in deal.inert]
            for edges in shuffles(deal.edges, seed, 4):
                fused = gftp()
                fused._play_deal(prepared, deal, edges)
                full = gftp()
                full._start(prepared)
                for edge in inert + [inst.graph.edges[deal.contested[e.id]] for e in edges]:
                    full.reveal(edge, prepared.actual_scaled[edge.id])
                mapped = {deal.contested[p] for p in fused.working_tree_ids()}
                assert mapped | set(deal.inert) == full.working_tree_ids()
        assert any(inert == 0 < contested for contested, inert in shapes)  # ro-lb
        assert (13, 48) in shapes  # mostly inert
        assert (0, 3) in shapes  # no contested edge: the pendant

    def test_a_deal_that_already_joins_an_accepted_edge_faults(self):
        inst = gen_ro_lb(2, F(1, 2), 3)
        prepared = inst.prepared
        deal = gftp()._deal(prepared)
        edge = deal.edges[next(iter(deal.tree))]  # a tree edge is accepted first
        joined = _UnionFind(0)
        joined.parent = deal.forest.copy()  # the components, one set each
        joined.union(edge.u, edge.v)
        rest = [e for e in deal.edges if e is not edge]
        with pytest.raises(NotSpanning, match="accepted edges contain a cycle"):
            gftp()._play_deal(prepared, _with(deal, forest=joined.parent), [edge, *rest])
        assert gftp()._play_deal(prepared, deal, [edge, *rest]) == whole_cost(
            inst, [deal.contested[e.id] for e in (edge, *rest)]
        ) * prepared.scale

    def test_a_deal_missing_an_inert_edge_faults(self):
        inst = random_instance(60, F(1, 5), F(1, 4), 3)
        prepared = inst.prepared
        deal = gftp()._deal(prepared)
        with pytest.raises(NotSpanning, match="accepted 58 edges, a spanning tree needs 59"):
            gftp()._play_deal(prepared, _with(deal, inert=deal.inert[1:]), deal.edges)


class TestMonteCarlo:
    def test_single_trial_equals_that_run(self):
        inst = gen_ro_lb(2, F(1, 2), 3)
        seed = 17
        est = mc_estimate(gftp, inst, trials=1, seed=seed)
        ids = list(range(inst.m))
        pyrandom.Random(seed).shuffle(ids)
        assert est.mean_cost == float(whole_cost(inst, ids))
        assert est.std_error == 0.0

    @pytest.mark.parametrize("factory", [ftp, gftp])
    def test_single_trial_with_fixed_rejections_equals_that_run(self, factory):
        # ftp rejects every edge off its tree and plays one game in id order;
        # gftp is dealt a shuffle of its contested edges alone, and costs what
        # an order of all the edges that orders them so costs
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        prepared = inst.prepared
        assert len(prepared.tree) < inst.m
        if factory is gftp:
            assert dead_edges(prepared)  # so trials are dealt
        for seed in range(5):
            est = mc_estimate(factory, inst, trials=1, seed=seed)
            if factory is gftp:
                ids = gftp_orders(inst, seed, 1)[0]
            else:
                ids = shuffles(range(inst.m), seed, 1)[0]
            assert est.mean_cost == float(run(factory(), inst, ArrivalOrder(tuple(ids))).cost)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "players", [(gftp, ftp), (gftp, NamedGreedy), (NamedGreedy, gftp)],
        ids=["gftp-ftp", "gftp-subclass", "subclass-gftp"],
    )
    def test_a_factory_of_two_player_types_is_refused(self, monkeypatch, players, workers):
        # the first player decides how every trial is played, so the factory
        # must make one type; the first trial makes the other and is refused
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        pin_cpus(monkeypatch, 2)
        sizes = serial_pools(monkeypatch)
        mixed = (factory() for factory in cycle(players)).__next__
        first, other = (type(factory()).__name__ for factory in players)
        message = f"the factory must make one type of player, made {first} and {other}"
        with pytest.raises(BadParameter, match=f"^{message}$"):
            mc_estimate(mixed, inst, trials=20, seed=3, workers=workers)
        assert sizes == ([] if workers == 1 else [2])

    def test_a_factory_whose_first_player_is_ftp_is_called_once(self):
        made = []

        def factory():
            made.append(gftp() if made else ftp())
            return made[-1]

        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        assert mc_estimate(factory, inst, trials=20, seed=3) == mc_estimate(ftp, inst, 20, 3)
        assert len(made) == 1

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_follower_draws_no_order(self, monkeypatch, workers):
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        trials, seed = 40, 3
        monkeypatch.setattr(randomorder, "REVEALS_PER_WORKER", trials * inst.m // 2)
        pin_cpus(monkeypatch, 2)
        sizes = serial_pools(monkeypatch)
        drawn = drawn_orders(monkeypatch)
        est = mc_estimate(ftp, inst, trials=trials, seed=seed, workers=workers)
        # an ftp player costs its one game, played in the parent at any worker
        # count, however the factory that made it is written
        for factory in (FollowPredictions, lambda: ftp()):
            assert mc_estimate(factory, inst, trials=trials, seed=seed, workers=workers) == est
        assert drawn == []
        assert sizes == []
        assert est == mc_estimate(NamedFollower, inst, trials=trials, seed=seed, workers=workers)
        # the opaque follower plays every trial, and a second chunk replays the first
        assert len(drawn) == (trials if workers == 1 else trials // 2 + trials)
        assert sizes == ([] if workers == 1 else [2])  # with None, sized by its reveals

    def test_follower_estimates_any_trial_count_at_once(self, deadline):
        inst = gen_ro_lb(2, F(1, 2), 3)
        est = mc_estimate(ftp, inst, trials=sys.maxsize, seed=0)
        assert est.trials == sys.maxsize
        assert est.std_error == 0.0
        assert est.mean_cost == float(run_cost(ftp(), inst, range(inst.m)))

    def test_follower_row_at_any_trial_count(self, tmp_path, capsys, deadline):
        path = tmp_path / "ro.json"
        save_instance(gen_ro_lb(2, F(1, 2), 3), path)
        assert cli.main(["ro", "ftp", str(path), "--trials", str(10**15)]) == 0
        *_, header, row = capsys.readouterr().out.splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["trials"], fields["stderr"]) == (str(10**15), "0")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_follower_estimates_like_an_opaque_follower(self, monkeypatch, workers):
        instances = corpus.fuzz_instances() + corpus.families() + corpus.deep()
        pin_cpus(monkeypatch, 2)
        serial_pools(monkeypatch)
        for seed, inst in enumerate(instances):
            est = mc_estimate(ftp, inst, trials=5, seed=seed, workers=workers)
            assert est == mc_estimate(NamedFollower, inst, trials=5, seed=seed, workers=workers)

    def test_negative_seed_is_refused(self):
        # Random(-2) draws the stream of Random(2)
        inst = gen_ro_lb(2, F(1, 2), 1)
        with pytest.raises(BadParameter, match="seed must be non-negative, got -2"):
            mc_estimate(gftp, inst, trials=10, seed=-2)

    def test_follower_has_zero_variance(self):
        inst = gen_ro_lb(3, F(1, 2), 2)
        est = mc_estimate(ftp, inst, trials=200, seed=4)
        assert est.std_error == 0.0
        assert est.mean_cost == float(run_cost(ftp(), inst, range(inst.m)))

    def test_converges_to_exact_value(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        est = mc_estimate(gftp, inst, trials=100_000, seed=11)
        exact = float(exact_expectation(gftp, inst))
        assert abs(est.mean_cost - exact) <= 4 * max(est.std_error, 1e-12)

    def test_seed_determinism(self):
        inst = gen_ro_lb(2, F(1, 2), 4)
        a = mc_estimate(gftp, inst, trials=500, seed=9)
        b = mc_estimate(gftp, inst, trials=500, seed=9)
        assert a == b

    @pytest.mark.parametrize(
        "make, trials",
        [(lambda: gen_ro_lb(2, F(1, 2), 4), 401), (lambda: corpus.wide_coprime(6), 7)],
        ids=["ro-lb", "past-scale-bits"],
    )
    def test_estimate_does_not_depend_on_the_worker_count(self, monkeypatch, make, trials):
        # past SCALE_BITS the chunks' sums cross the pool as Fractions
        inst = make()
        pin_cpus(monkeypatch, 3)
        one, two = (mc_estimate(gftp, inst, trials=trials, seed=9, workers=w) for w in (1, 2))
        sizes = serial_pools(monkeypatch)  # three chunks, without three processes
        three = mc_estimate(gftp, inst, trials=trials, seed=9, workers=3)
        assert sizes == [3]
        assert one == two == three
        assert one.trials == trials

    @pytest.mark.parametrize("kind", ["lambda", "local-class"])
    def test_factories_that_do_not_pickle_run_in_workers(self, monkeypatch, kind):
        class Local(GreedyFollowPredictions):
            pass

        factory = (lambda: gftp()) if kind == "lambda" else Local
        inst = gen_ro_lb(2, F(1, 2), 4)
        serial = mc_estimate(factory, inst, trials=40, seed=5, workers=1)
        pin_cpus(monkeypatch, 2)
        contexts = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(randomorder.multiprocessing, "get_context",
                            lambda method: contexts.append(method) or get_context(method))
        assert mc_estimate(factory, inst, trials=40, seed=5, workers=2) == serial
        assert contexts == ["fork"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, pools", [(2, [2]), (None, [])])
    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch, cpus, pools):
        inst = gen_ro_lb(2, F(1, 2), 2)
        serial = mc_estimate(gftp, inst, trials=50, seed=3, workers=1)
        pin_cpus(monkeypatch, cpus)
        sizes = serial_pools(monkeypatch)
        assert mc_estimate(gftp, inst, trials=50, seed=3, workers=64) == serial
        assert sizes == pools

    @pytest.mark.parametrize(
        "per_worker, cpus, fork, pools",
        [
            (randomorder.REVEALS_PER_WORKER, 2, True, []),  # below the reveal floor
            (100, 2, True, [2]),  # 350 reveals: three workers' worth, two CPUs
            (100, 8, True, [3]),
            (100, 1, True, []),
            (100, 8, False, []),
        ],
    )
    def test_automatic_worker_count(self, monkeypatch, per_worker, cpus, fork, pools):
        inst = gen_ro_lb(2, F(1, 2), 2)  # m = 5
        serial = mc_estimate(gftp, inst, trials=70, seed=3, workers=1)
        monkeypatch.setattr(randomorder, "REVEALS_PER_WORKER", per_worker)
        methods = ["fork", "spawn"] if fork else ["spawn"]
        monkeypatch.setattr(randomorder.multiprocessing, "get_all_start_methods", lambda: methods)
        pin_cpus(monkeypatch, cpus)
        sizes = serial_pools(monkeypatch)
        assert mc_estimate(gftp, inst, trials=70, seed=3) == serial
        assert sizes == pools

    @pytest.mark.parametrize("factory", [gftp, lambda: gftp()], ids=["gftp", "lambda"])
    def test_automatic_worker_count_counts_dealt_reveals(self, monkeypatch, factory):
        # 352 edges, 74 of them live for gftp and 39 of those contested: 2900
        # trials deal 113,100 reveals, two workers' worth, though the live edges
        # would be 214,600 reveals, four workers, and every edge 1,020,800, all
        # eight CPUs; the 53 contested before tree edges below every contested
        # weight were left out would be 153,700, three workers
        inst = random_instance(60, F(1, 5), F(1, 4), 3)
        dead = dead_edges(inst.prepared)
        contested, inert = gftp()._contested(inst.prepared)
        assert (inst.m, inst.m - len(dead), len(contested), len(inert)) == (352, 74, 39, 35)
        assert inst.prepared.deal is None  # built by the estimate below
        pin_cpus(monkeypatch, 8)
        sizes = serial_pools(monkeypatch)
        named = []
        contested = GreedyFollowPredictions._contested
        monkeypatch.setattr(GreedyFollowPredictions, "_contested",
                            staticmethod(lambda prepared: named.append(1) or contested(prepared)))
        mc_estimate(factory, inst, trials=2900, seed=0)
        # sized from the player the factory makes, so a wrapper is sized like gftp,
        # and the edges it sizes by are the ones its trials are dealt
        assert sizes == [2]
        assert named == [1]

    def test_mean_and_std_error_are_those_of_the_exact_sample(self):
        inst = gen_ro_lb(3, F(1, 3), 3)
        trials, seed = 300, 21
        est = mc_estimate(gftp, inst, trials=trials, seed=seed)
        assert est.std_error > 0
        assert_estimates_the_sample(est, gftp, inst, shuffles(range(inst.m), seed, trials))

    def test_trials_guard(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        with pytest.raises(BadParameter):
            mc_estimate(gftp, inst, trials=0, seed=1)

    @pytest.mark.parametrize("workers", [1, None])
    def test_trials_past_maxsize_are_refused_before_any_pool(self, monkeypatch, workers):
        inst = gen_ro_lb(2, F(1, 2), 1)
        sizes = serial_pools(monkeypatch)
        with pytest.raises(BadParameter, match="at most"):
            mc_estimate(gftp, inst, trials=sys.maxsize + 1, seed=1, workers=workers)
        assert sizes == []


class TestOrderStream:
    """``_shuffles`` replays ``Random.shuffle``; a change to it in Python shows here."""

    SEEDS = (0, 5, 2**62 + 7, 10**25)

    @pytest.mark.parametrize("m", [1, 2, 3, 41, 352])
    def test_same_orders_as_repeated_random_shuffle(self, m):
        for seed in self.SEEDS:
            expected = shuffles(range(m), seed, 60)
            stream = randomorder._shuffles(range(m), seed)
            assert [ids.copy() for ids in islice(stream, 60)] == expected
            # a worker's chunk starts mid-stream, as ``_mc_chunk`` slices it
            chunk = islice(randomorder._shuffles(range(m), seed), 23, 51)
            assert [ids.copy() for ids in chunk] == expected[23:51]

    @pytest.mark.parametrize("m", [0, 1, 2, 41])
    def test_a_shuffled_order_is_the_first_of_the_stream(self, m):
        for seed in self.SEEDS:
            assert list(ArrivalOrder.shuffled(m, seed)) == shuffles(range(m), seed, 1)[0]


class TestHarmonicBound:
    def test_small_values(self):
        assert harmonic_bound(2) == F(3, 2)  # 1 + 1/2
        assert harmonic_bound(3) == F(19, 12)  # 1 + 1/4 + 1/3

    def test_guard(self):
        with pytest.raises(BadParameter):
            harmonic_bound(1)

    def test_increasing_and_bounded_sample(self):
        checks.harmonic_growth(range(2, 401))

    def test_increment_identity(self):
        # consecutive values differ by exactly 1/(2n(2n-1))
        for n in (2, 3, 10, 57, 200):
            delta = harmonic_bound(n + 1) - harmonic_bound(n)
            assert delta == F(1, 2 * n * (2 * n - 1))


class TestRatioReport:
    def _estimate(self, ratio: float, std_error: float) -> RoEstimate:
        eps = F(2)
        return RoEstimate(
            mean_cost=ratio * 10.0,
            std_error=std_error,
            trials=100,
            opt=F(10),
            eta=F(20),
            epsilon=eps,
            ratio=ratio,
            bound_1e=3.0,
            bound_ln2=1.0 + (1.0 + math.log(2.0)) * 2.0,
            bound_2e=5.0,
        )

    def test_swapper_above_bound_is_flagged(self):
        est = self._estimate(ratio=4.9, std_error=0.001)
        assert ratio_report(est, "gftp").exceeds_ln2_bound

    def test_swapper_within_noise_is_not_flagged(self):
        est = self._estimate(ratio=4.4, std_error=0.2)
        assert not ratio_report(est, "gftp").exceeds_ln2_bound

    def test_follower_is_never_flagged(self):
        est = self._estimate(ratio=4.9, std_error=0.001)
        assert not ratio_report(est, "ftp").exceeds_ln2_bound

    def test_exact_ratio_is_flagged_as_a_float(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        ref = estimate(inst, F(0), 6)
        at_bound = ref.opt * F(ref.bound_ln2)
        # above the curve by less than a float can show, then by a visible step
        for excess in (F(0), F(1, 10**30), F(1, 10**6)):
            est = estimate(inst, at_bound + excess, 6)
            assert isinstance(est.ratio, Fraction) and est.ratio == est.mean_cost / est.opt
            flagged = ratio_report(est, "gftp").exceeds_ln2_bound
            assert flagged == (float(est.ratio) > est.bound_ln2)
            assert flagged == (excess == F(1, 10**6))

    def test_real_sweep_sits_between_curves(self):
        k, delta, spokes = 4, F(1, 2), 5
        inst = gen_ro_lb(k, delta, spokes)
        est = mc_estimate(gftp, inst, trials=4_000, seed=3)
        rep = ratio_report(est, "gftp")
        assert not rep.exceeds_ln2_bound
        # the family's exact expectation is opt + spokes*k, i.e. a ratio of
        # 1 + (1 - delta/(spokes+delta)) * k
        expected = float(1 + F(spokes * k) / (spokes + delta))
        assert abs(est.ratio - expected) <= 4 * est.std_error / float(est.opt)
        assert est.ratio < est.bound_2e


class TestExpectationOnSpokes:
    def test_mean_matches_per_spoke_half_swap(self):
        # each spoke swaps with probability 1/2: E = delta + l*(k+1)
        inst = gen_ro_lb(2, F(1, 2), 20)
        est = mc_estimate(gftp, inst, trials=20_000, seed=29)
        expected = 0.5 + 20 * 3.0
        assert abs(est.mean_cost - expected) <= 3 * est.std_error


@pytest.mark.parametrize("case", corpus.large_denominator(), ids=["triangle", "k6"])
def test_large_coprime_denominators_keep_memory_small_and_results_exact(case):
    inst = dataclasses.replace(case)  # an unprepared copy, so its preparation is traced
    trials, seed = 6, 8
    for factory, reference in ((gftp, ReferenceGreedy), (ftp, ftp)):
        tracemalloc.start()
        try:
            est = mc_estimate(factory, inst, trials=trials, seed=seed, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # k6 peaks near 0.33 MB; scaling its 30 weights to ints on one common
        # denominator of 256,000 bits would peak above 2 MB
        assert peak < 1_000_000
        # gftp is dealt shuffles of its contested edges; ftp costs its one game
        # in every order
        assert_estimates_the_sample(est, reference, inst, gftp_orders(inst, seed, trials))


def test_a_re_import_frees_the_previous_package():
    # a module-level alias that subscripts a typing generic with a package
    # class is cached by typing, and the cached key keeps that class, its
    # module and so the whole replaced package alive
    script = """if True:
        import gc, sys, weakref
        import wmst, wmst.cli, wmst.io
        old = weakref.ref(wmst.engine.OnlineAlgorithm)
        for name in [n for n in sys.modules if n == "wmst" or n.startswith("wmst.")]:
            del sys.modules[name]
        import wmst, wmst.cli, wmst.io
        gc.collect()
        print("freed" if old() is None else "kept")
    """
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "freed\n"
