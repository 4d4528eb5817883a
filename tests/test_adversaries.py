"""Instance families and the adaptive weight-fixing games."""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from wmst import (
    ArrivalOrder,
    BadParameter,
    TooLarge,
    error_report,
    eta,
    eta2,
    ftp,
    gen_eta2_game,
    gen_ftp_lb,
    gen_general_lb_game,
    gen_ro_lb,
    gftp,
    mst,
    random_instance,
    run,
    run_cost,
    tree_cost,
)
from wmst import adversaries, checks
from wmst.io import dumps_instance

from conftest import RejectFirstThenGreedy
import corpus
import reference_generator

F = Fraction


class TestHubSpokeFamily:
    def test_reference_values(self):
        inst, natural, _ = gen_ftp_lb(3, 3)
        report = error_report(inst)
        assert report.opt_actual == 4
        assert report.eta == 12
        assert report.epsilon == 3
        assert run_cost(ftp(), inst, natural.edge_ids) == 22

    @pytest.mark.parametrize("k,l", [(2, 1), (2, 4), (3, 2), (5, 8), (F(7, 2), 3)])
    def test_closed_form_ratio(self, k, l):
        checks.hub_spoke_identity([(k, l)])

    def test_small_ratio_value(self):
        inst, natural, _ = gen_ftp_lb(2, 1)
        report = error_report(inst)
        cost = run_cost(ftp(), inst, natural.edge_ids)
        assert cost / report.opt_actual == 3

    def test_defeating_order_reveals_tree_first(self):
        inst, _, defeating = gen_ftp_lb(4, 5)
        tree = mst(inst.graph, inst.predicted)
        head = set(defeating.edge_ids[: inst.n - 1])
        assert head == set(tree.edge_ids)

    @pytest.mark.parametrize("k,l", [(2, 1), (3, 3), (5, 2)])
    def test_defeating_order_pins_swapper_to_follower(self, k, l):
        inst, natural, defeating = gen_ftp_lb(k, l)
        follower = run_cost(ftp(), inst, natural.edge_ids)
        swapper = run_cost(gftp(), inst, defeating.edge_ids)
        assert swapper == follower

    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            gen_ftp_lb(1, 3)
        with pytest.raises(BadParameter):
            gen_ftp_lb(2, 0)


class TestRandomOrderFamily:
    def test_reference_values(self):
        inst = gen_ro_lb(2, F(1, 2), 1)
        report = error_report(inst)
        assert report.opt_actual == F(3, 2)
        assert report.eta == 4  # (l+1) * k
        assert report.epsilon == F(8, 3)

    def test_opt_is_spokes_plus_delta(self):
        for k, delta, l in ((2, F(1, 2), 3), (5, F(1, 4), 2), (3, F(9, 10), 6)):
            inst = gen_ro_lb(k, delta, l)
            report = error_report(inst)
            assert report.opt_actual == l + delta
            assert report.eta == (l + 1) * k

    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            gen_ro_lb(2, F(3, 2), 1)
        with pytest.raises(BadParameter):
            gen_ro_lb(2, F(0), 1)
        with pytest.raises(BadParameter):
            gen_ro_lb(F(1, 2), F(1, 2), 1)


class TestMinMaxGapGame:
    def test_accept_branch_against_follower(self):
        # the follower's predicted tree contains the first edge, so it
        # accepts; the game then leaves the min/max gap at zero
        game = gen_eta2_game(5, 100, ftp())
        report = error_report(game.instance)
        assert game.trace.cost == 6  # k + 1
        assert report.opt_actual == 2
        assert report.eta2 == 0

    def test_reject_branch_against_blind_opponent(self):
        game = gen_eta2_game(5, 100, RejectFirstThenGreedy())
        report = error_report(game.instance)
        assert game.trace.cost == 101  # big_k + 1
        assert report.opt_actual == 6  # k + 1
        assert report.eta2 == 4  # k - 1

    def test_ratio_grows_without_bound_while_gap_is_zero(self):
        previous = F(0)
        k = 2
        while k <= 1024:
            game = gen_eta2_game(k, 10 * k, ftp())
            ratio = game.trace.cost / error_report(game.instance).opt_actual
            assert ratio == F(k + 1, 2)
            assert eta2(game.instance) == 0
            assert ratio > previous
            previous = ratio
            k *= 2

    def test_replay_reproduces_trace(self):
        for opponent in (ftp, gftp, RejectFirstThenGreedy):
            game = gen_eta2_game(7, 70, opponent())
            replay = run(opponent(), game.instance, game.order)
            assert replay == game.trace
            assert replay.to_text() == game.trace.to_text()

    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            gen_eta2_game(1, 10, ftp())
        with pytest.raises(BadParameter):
            gen_eta2_game(5, 5, ftp())


class TestPathStarGame:
    @pytest.mark.parametrize("k,stars", [(2, 1), (2, 3), (3, 2), (4, 1)])
    def test_gap_per_star_for_both_players(self, k, stars):
        for factory in (ftp, gftp):
            game = gen_general_lb_game(k, stars, factory())
            opt = tree_cost(mst(game.instance.graph, game.instance.actual),
                            game.instance.actual)
            assert game.trace.cost - opt == stars * (2 * k - 1)
            assert eta(game.instance) == (2 * k + stars - 1) * k

    def test_star_discrepancies_are_exactly_k(self):
        k, stars = 3, 2
        game = gen_general_lb_game(k, stars, gftp())
        inst = game.instance
        path_edges = 2 * k - 1
        for eid in range(inst.m):
            gap = abs(inst.predicted[eid] - inst.actual[eid])
            assert gap == (0 if eid < path_edges else k)

    def test_opt_against_oracle(self):
        checks.mst_matches_oracle([gen_general_lb_game(2, 2, ftp()).instance])

    def test_replay_reproduces_trace(self):
        for opponent in (ftp, gftp):
            game = gen_general_lb_game(3, 2, opponent())
            replay = run(opponent(), game.instance, game.order)
            assert replay == game.trace

    def test_all_weights_are_fixed(self):
        game = gen_general_lb_game(2, 1, RejectFirstThenGreedy())
        assert len(game.instance.actual) == game.instance.m

    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            gen_general_lb_game(1, 1, ftp())
        with pytest.raises(BadParameter):
            gen_general_lb_game(3, 0, ftp())


class TestRandomInstance:
    def test_seed_determinism(self):
        a = random_instance(6, F(1, 2), F(1, 4), seed=42)
        b = random_instance(6, F(1, 2), F(1, 4), seed=42)
        assert a == b
        c = random_instance(6, F(1, 2), F(1, 4), seed=43)
        assert a != c

    def test_zero_noise_matches_predictions(self):
        inst = random_instance(7, F(1, 2), F(0), seed=1)
        assert inst.predicted == inst.actual
        assert eta(inst) == 0

    def test_generated_instances_validate(self):
        checks.instances_round_trip(inst for inst, _ in corpus.spread(F(1, 2))[:50])

    def test_weights_live_on_the_grid(self):
        inst = random_instance(6, F(1, 2), F(1, 4), seed=5)
        for w in (*inst.actual, *inst.predicted):
            assert 0 < w
            assert (w * 65536).denominator == 1

    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            random_instance(1, F(1, 2), F(0), seed=0)
        with pytest.raises(BadParameter):
            random_instance(4, F(0), F(0), seed=0)
        with pytest.raises(BadParameter):
            random_instance(4, F(1, 2), F(-1), seed=0)
        with pytest.raises(BadParameter, match="too small to connect 30 vertices"):
            random_instance(30, F(1, 10**6), F(0), seed=0)  # refused before any draw
        with pytest.raises(BadParameter, match="seed must be non-negative, got -42"):
            random_instance(6, F(1, 2), F(1, 4), seed=-42)  # else the instance of seed 42


    @pytest.mark.parametrize(
        "params, digest",
        [
            ((6, F(1, 2), F(0), 0),
             "159cab8e71b60333966435e74ca45fa9ac21b731c69d82c957b01e9f2639e808"),
            ((12, F(1, 3), F(1, 4), 3),
             "aa620474538d092ec275a04e5a330471a7730843fc8e757cc7526745e955c81f"),
            ((30, F(1, 4), F(1, 4), 1),
             "362dd1f8f7f37ac02bcf29467327727c54ed3c4ff8e30cc033b8308875bac78e"),
            ((20, F(1, 3), F(1, 2), 7),
             "aa138cd66dfbeaf6e49d3141c5de01a5cf1d4ce676f9e16b6b2d4e7d201354b3"),
            ((9, F(4, 5), F(1, 2), 11),
             "54e7b4e765792f4f22f64450368d9ba4b09f559207674cbcaa4f9af8e77e15b5"),
            ((5, F(1), F(3), 2),
             "72b8d0ecd2b9e8160700543e9498a17b7d355630fe19328c68df33d2d79d066b"),
        ],
    )
    def test_files_are_pinned(self, params, digest):
        """The sha256 of each instance file, as the Fraction arithmetic per edge once wrote it."""
        text = dumps_instance(random_instance(*params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_expected_edge_count_limit_admits_exactly_its_edges(self, monkeypatch):
        # C(10, 2) = 45 candidate pairs: 45 expected edges at edge_prob 1, 45/2 at 1/2
        for limit, prob, admitted in ((45, F(1), True), (44, F(1), False),
                                      (23, F(1, 2), True), (22, F(1, 2), False)):
            monkeypatch.setattr(adversaries, "FAMILY_EDGE_LIMIT", limit)
            if admitted:
                assert random_instance(10, prob, F(1, 4), seed=3).m <= 45
            else:
                with pytest.raises(TooLarge, match=(
                    f"^10 vertices at edge_prob {prob} expect {45 * prob} edges; "
                    f"the limit is {limit}$"
                )):
                    random_instance(10, prob, F(1, 4), seed=3)

    def test_a_refusal_draws_at_most_its_budget_of_pairs(self, monkeypatch, deadline):
        # 200 vertices at edge_prob 1/100 expect 199 edges, the fewest that
        # connect, so nearly every attempt fails; each draws 19,900 pairs
        class CountingRandom(adversaries.random.Random):
            def randrange(self, *args):
                draws["randrange"] += 1
                return super().randrange(*args)

            def getrandbits(self, k):
                draws["getrandbits"] += 1
                return super().getrandbits(k)

        monkeypatch.setattr(adversaries.random, "Random", CountingRandom)
        monkeypatch.setattr(adversaries, "RANDOM_PAIR_DRAWS", 100_000)
        refused = "^edge_prob too small to produce a connected graph$"
        counts = []
        for generate in (reference_generator.random_instance, random_instance):
            draws = {"randrange": 0, "getrandbits": 0}
            with pytest.raises(BadParameter, match=refused):
                generate(200, F(1, 100), F(0), seed=1)
            counts.append(draws)
        reference, production = counts
        assert reference["randrange"] == 5 * 19_900  # one randrange(100) a pair
        assert production["getrandbits"] == reference["getrandbits"] > 5 * 19_900

    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_draws_what_randrange_and_randint_draw(self, n):
        # edge_prob 1 still draws a bit per pair, noise 0 and 1/10**6 (under one
        # grid step) draw no noise, and noise 1 and 3 push predictions off the grid
        for edge_prob, noise, seed in product(
            (F(1), F(1, 2), F(1, 3), F(2, 7)), (F(0), F(1, 10**6), F(1, 4), F(1), F(3)), range(3)
        ):
            params = (n, edge_prob, noise, seed)
            assert dumps_instance(random_instance(*params)) == dumps_instance(
                reference_generator.random_instance(*params)
            ), params

    def test_refuses_after_the_draws_the_reference_makes(self, monkeypatch):
        monkeypatch.setattr(adversaries, "RANDOM_PAIR_DRAWS", 40_000)  # two attempts
        outcomes = []
        for generate in (reference_generator.random_instance, random_instance):
            with pytest.raises(BadParameter) as excinfo:
                generate(200, F(1, 100), F(1, 4), seed=2)
            outcomes.append(str(excinfo.value))
        assert outcomes == ["edge_prob too small to produce a connected graph"] * 2

    def test_complete_graphs_past_the_edge_limit_are_refused_undrawn(self):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=(
                "^2000 vertices at edge_prob 1 expect 1999000 edges; the limit is 400000$"
            )):
                random_instance(2000, F(1), F(1, 4), seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the graph alone would take about 1.4 GB


class TestGameOrdersReplayWithEngine:
    def test_game_orders_are_permutations(self):
        game = gen_general_lb_game(2, 2, ftp())
        ArrivalOrder(game.order.edge_ids)  # re-validates the permutation
        assert len(game.order) == game.instance.m


def test_every_family_emits_valid_instances():
    produced = [
        gen_ftp_lb(3, 2)[0],
        gen_ro_lb(2, F(1, 2), 3),
        gen_eta2_game(4, 40, ftp()).instance,
        gen_general_lb_game(2, 2, gftp()).instance,
        random_instance(6, F(1, 2), F(1, 2), seed=0),
    ]
    checks.instances_round_trip(produced)


def _sized_families(limit: int):
    """Each sized family with just ``limit`` edges and with just past it, as (builder, edges)."""
    # a hub-spoke family has 2l + 1 edges, the path-star game with k = 2 has 3 + 4l
    hub, star = (limit - 1) // 2, (limit - 3) // 4
    for spokes in (hub, hub + 1):
        yield (lambda spokes=spokes: gen_ftp_lb(2, spokes)[0]), 2 * spokes + 1
        yield (lambda spokes=spokes: gen_ro_lb(2, F(1, 2), spokes)), 2 * spokes + 1
    for stars in (star, star + 1):
        yield (lambda stars=stars: gen_general_lb_game(2, stars, ftp()).instance), 3 + 4 * stars


def test_family_edge_limit_admits_exactly_its_edge_count(monkeypatch):
    monkeypatch.setattr(adversaries, "FAMILY_EDGE_LIMIT", 41)
    for build, edges in _sized_families(41):
        if edges <= 41:
            assert build().m == edges
        else:
            with pytest.raises(TooLarge, match=f"would have {edges} edges; the limit is 41"):
                build()


def test_families_past_the_edge_limit_are_refused_unbuilt():
    limit = adversaries.FAMILY_EDGE_LIMIT
    assert limit == 400_000  # from a 512 MB budget, measured per family
    past = [(build, edges) for build, edges in _sized_families(limit) if edges > limit]
    assert sorted(edges - limit for _, edges in past) == [1, 1, 3]
    for build, edges in past:
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=f"would have {edges} edges"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the graph alone would take hundreds of MB
