"""Random-order lab: exact enumeration, Monte Carlo, harmonic bound."""

import math
import multiprocessing
import os
import random as pyrandom
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations
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
)
from wmst import Decision, FollowPredictions, GreedyFollowPredictions, NotSpanning
from wmst import checks, randomorder
from wmst.cli import FAMILIES
from wmst.graphs import PreparedInstance
from wmst.randomorder import estimate

from conftest import RejectFirstThenGreedy, SlowSwapPlayer, small_exact_instances, triangle
from reference_gftp import GreedyFollowPredictions as ReferenceGreedy

F = Fraction


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

    def test_guard_refuses_ten_edges(self):
        inst = random_instance(5, F(1), F(0), seed=0)  # complete K5, m=10
        with pytest.raises(TooLarge):
            exact_expectation(ftp, inst)

    def test_matches_analytic_formula_on_two_spokes(self):
        # each spoke swaps exactly when its cheap side precedes its
        # sibling, a probability-1/2 event, so by linearity the exact
        # expectation is delta + spokes*(k+1)
        k, delta, spokes = 3, F(1, 2), 2
        inst = gen_ro_lb(k, delta, spokes)
        assert exact_expectation(gftp, inst) == delta + spokes * (k + 1)


def enumerated(factory, inst: WmstInstance) -> Fraction:
    """The expectation from playing every one of the ``m!`` orders."""
    prepared = PreparedInstance.of(inst)
    orders, count = permutations(range(inst.m)), math.factorial(inst.m)
    d, total, _ = randomorder._cost_sums(factory, prepared, orders, count)
    return F(total, count * d)


@pytest.fixture
def enumerations(monkeypatch) -> list[int]:
    """The edge counts ``exact_expectation`` enumerated every order of, one per call."""
    calls: list[int] = []

    def counted(ids):
        calls.append(len(ids))
        return permutations(ids)

    monkeypatch.setattr(randomorder, "permutations", counted)
    return calls


def _family_instances():
    """``cli.FAMILIES`` instances with at most 9 edges, both games against both players.

    Of the two hub-spoke families at 9 edges only ``ro-lb`` is here: each
    instance at 9 edges takes about 8 s to enumerate for the two players.
    """
    build = {name: family.build for name, family in FAMILIES.items()}
    for l in (1, 2, 3):
        yield build["ftp-lb"](k=F(2), l=l)[0]
        yield build["ftp-lb"](k=F(7, 2), l=l)[0]
    for l in (1, 2, 3, 4):
        yield build["ro-lb"](k=F(2), delta=F(1, 2), l=l)[0]
    yield build["ro-lb"](k=F(3), delta=F(1, 3), l=2)[0]
    for alg in ("ftp", "gftp"):
        yield build["general-lb"](k=2, l=1, alg=alg)[0]
        for k in (2, 5):
            yield build["eta2"](k=k, big_k=10 * k, alg=alg)[0]
    for n, seed in ((2, 0), (3, 1), (4, 2), (5, 3)):
        yield build["random"](n=n, edge_prob=F(1, 2), noise=F(1, 4), seed=seed)[0]


def _edge_cases():
    """A tree graph, where every edge must be accepted, and a single edge."""
    path = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    yield WmstInstance(path, (F(4), F(1), F(9), F(2)), (F(2), F(3, 2), F(2), F(7)))
    edge = Graph.from_pairs(2, [(0, 1)])
    yield WmstInstance(edge, (F(3),), (F(5, 3),))


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

    def test_acceptance_seven_instances(self, enumerations):
        self.assert_memo_matches(small_exact_instances(500), enumerations)

    def test_fuzz_instances_up_to_eight_edges(self, enumerations):
        # the instances of checks.fuzz_pairs(200), four orders each
        corpus = (checks.fuzz_instance(index) for index in range(50))
        self.assert_memo_matches((inst for inst in corpus if inst.m <= 8), enumerations)

    def test_family_instances_up_to_nine_edges(self, enumerations):
        instances = list(_family_instances())
        assert max(inst.m for inst in instances) == randomorder.EXACT_EDGE_LIMIT
        self.assert_memo_matches(instances, enumerations)

    def test_tree_graph_and_single_edge(self, enumerations):
        for inst in _edge_cases():
            opt = tree_cost(mst(inst.graph, inst.actual), inst.actual)
            assert exact_expectation(gftp, inst) == exact_expectation(ftp, inst) == opt
        self.assert_memo_matches(_edge_cases(), enumerations)

    def test_common_denominator_past_scale_bits(self, enumerations):
        # m = 6: twelve pairwise coprime denominators of 65 digits, 2600 bits together
        inst = _wide_coprime_instance(4, base=50)
        assert PreparedInstance.of(inst).scale == 1
        self.assert_memo_matches([inst], enumerations)

    @pytest.mark.parametrize(
        "factory",
        [RejectFirstThenGreedy, SlowSwapPlayer, SwapsAfterAnEvenStart],
        ids=["reject-first", "slow-swap", "gftp-subclass"],
    )
    def test_players_without_a_key_enumerate(self, enumerations, factory):
        inst = random_instance(4, F(1), F(3), seed=5)  # K4: rejecting one edge still spans
        assert exact_expectation(factory, inst) == enumerated(factory, inst)
        assert enumerations == [inst.m]
        if factory is SwapsAfterAnEvenStart:  # the memo of gftp would be wrong for it
            assert exact_expectation(factory, inst) != exact_expectation(gftp, inst)

    def test_follower_plays_one_game(self, enumerations, monkeypatch):
        instances = list(small_exact_instances(500))
        expected = [enumerated(NamedFollower, inst) for inst in instances]
        memo = []
        monkeypatch.setattr(randomorder, "_completion_sum", lambda *args: memo.append(args))
        assert [exact_expectation(ftp, inst) for inst in instances] == expected
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
        assert mc_estimate(NamedGreedy, inst, 30, 2) == mc_estimate(gftp, inst, 30, 2)
        assert exact_expectation(NamedGreedy, inst) == exact_expectation(gftp, inst)
        assert set(set_up) == {NamedGreedy}  # gftp itself starts from the preparation
        assert enumerations == [inst.m]

    @pytest.mark.parametrize(
        "accepts, message",
        [({0, 1, 2}, "accepted edges contain a cycle"), ({0}, "accepted 1 edges")],
        ids=["cycle", "short"],
    )
    def test_keyed_player_faults_as_in_a_run(self, enumerations, monkeypatch, accepts, message):
        # ftp itself, not a subclass, so that the memo still plays it
        def reveal(player, edge, weight):
            return Decision.accept() if edge.id in accepts else Decision.reject()

        monkeypatch.setattr(FollowPredictions, "reveal", reveal)
        inst = triangle()
        with pytest.raises(NotSpanning) as in_a_run:
            run_cost(ftp(), inst, range(inst.m))
        with pytest.raises(NotSpanning) as in_the_memo:
            exact_expectation(ftp, inst)
        assert str(in_the_memo.value) == str(in_a_run.value)
        assert message in str(in_a_run.value)
        assert enumerations == []

    @pytest.mark.parametrize(
        "accepts, message",
        [({0, 1, 2}, "accepted edges contain a cycle"), ({0}, "accepted 1 edges")],
        ids=["cycle", "short"],
    )
    def test_memo_faults_as_in_a_run(self, enumerations, monkeypatch, accepts, message):
        # gftp itself, not a subclass, so that the memo plays it
        def reveal(player, edge, weight):
            return Decision.accept() if edge.id in accepts else Decision.reject()

        def completion_sum(*args):
            entered.append(args)
            return memo(*args)

        entered, memo = [], randomorder._completion_sum
        monkeypatch.setattr(GreedyFollowPredictions, "reveal", reveal)
        monkeypatch.setattr(randomorder, "_completion_sum", completion_sum)
        inst = triangle()
        with pytest.raises(NotSpanning) as in_a_run:
            run_cost(gftp(), inst, range(inst.m))
        with pytest.raises(NotSpanning) as in_the_memo:
            exact_expectation(gftp, inst)
        assert str(in_the_memo.value) == str(in_a_run.value)
        assert message in str(in_a_run.value)
        assert len(entered) == 1
        assert enumerations == []


class TestMonteCarlo:
    def test_single_trial_equals_that_run(self):
        inst = gen_ro_lb(2, F(1, 2), 3)
        seed = 17
        est = mc_estimate(gftp, inst, trials=1, seed=seed)
        ids = list(range(inst.m))
        pyrandom.Random(seed).shuffle(ids)
        assert est.mean_cost == float(run_cost(gftp(), inst, ids))
        assert est.std_error == 0.0

    @pytest.mark.parametrize("factory", [ftp, gftp])
    def test_single_trial_with_fixed_rejections_equals_that_run(self, factory):
        # ftp rejects every edge off its tree and plays one game in id order;
        # gftp is dealt each shuffle without the edges it always rejects
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        prepared = PreparedInstance.of(inst)
        assert len(prepared.tree) < inst.m
        if factory is gftp:
            assert gftp()._rejected(prepared)  # so trials are dealt
        for seed in range(5):
            est = mc_estimate(factory, inst, trials=1, seed=seed)
            ids = list(range(inst.m))
            pyrandom.Random(seed).shuffle(ids)
            assert est.mean_cost == float(run_cost(factory(), inst, ids))

    def test_each_player_type_is_dealt_its_own_edges(self):
        # ftp plays no shuffle, gftp is dealt each shuffle without the edges
        # it always rejects: a gftp trial played as ftp's one game would
        # accept exactly the predicted tree
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        players = [ftp, gftp] * 10
        mixed = (factory() for factory in players).__next__
        trials, seed = len(players), 3
        rng = pyrandom.Random(seed)
        ids = list(range(inst.m))
        costs = []
        for factory in players:
            rng.shuffle(ids)
            costs.append(run_cost(factory(), inst, ids))
        assert len(set(costs[1::2])) > 1  # gftp's costs vary with the order
        est = mc_estimate(mixed, inst, trials=trials, seed=seed, workers=1)
        assert est.mean_cost == float(sum(costs, F(0)) / trials)

    @staticmethod
    def mixed_players() -> list:
        """Runs of ftp trials, which draw no order, between gftp trials, which draw them."""
        return ([ftp] * 3 + [gftp] + [ftp] * 2 + [gftp]) * 2 + [gftp] + [ftp] * 10

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_mixed_trials_play_their_own_shuffles(self, monkeypatch, workers):
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        players = self.mixed_players()
        trials, seed = len(players), 4
        rng = pyrandom.Random(seed)
        ids = list(range(inst.m))
        costs = []
        for factory in players:
            rng.shuffle(ids)
            costs.append(run_cost(factory(), inst, ids))
        assert len({c for c, f in zip(costs, players) if f is gftp}) > 1
        mean = sum(costs, F(0)) / trials
        variance = sum(((c - mean) ** 2 for c in costs), F(0)) / (trials - 1)
        pin_cpus(monkeypatch, 3)
        sizes = serial_pools(monkeypatch)  # one process, so the factory's calls stay in order
        drawn = drawn_orders(monkeypatch)
        mixed = (factory() for factory in players).__next__
        est = mc_estimate(mixed, inst, trials=trials, seed=seed, workers=workers)
        assert est.mean_cost == float(mean)
        assert est.std_error == math.sqrt(variance / trials)
        # a chunk draws its orders up to its last gftp trial, its replay included
        bounds = [(trials * w // workers, trials * (w + 1) // workers) for w in range(workers)]
        last = [max((t for t in range(*b) if players[t] is gftp), default=-1) for b in bounds]
        assert len(drawn) == sum(t + 1 for t in last)
        assert sizes == ([] if workers == 1 else [workers])
        if workers == 3:
            assert last[-1] == -1  # the last chunk plays ftp alone and draws nothing

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_follower_draws_no_order(self, monkeypatch, workers):
        inst = random_instance(30, F(1, 4), F(1, 4), 5)
        trials, seed = 40, 3
        monkeypatch.setattr(randomorder, "REVEALS_PER_WORKER", trials * inst.m // 2)
        pin_cpus(monkeypatch, 2)
        sizes = serial_pools(monkeypatch)
        drawn = drawn_orders(monkeypatch)
        est = mc_estimate(ftp, inst, trials=trials, seed=seed, workers=workers)
        assert drawn == []
        # a pure ftp job still forks: the factory is not called before the workers start
        assert sizes == ([] if workers == 1 else [2])
        assert est == mc_estimate(NamedFollower, inst, trials=trials, seed=seed, workers=workers)
        # the opaque follower plays every trial, and a second chunk replays the first
        assert len(drawn) == (trials if workers == 1 else trials // 2 + trials)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_follower_estimates_like_an_opaque_follower(self, monkeypatch, workers):
        pairs = checks.fuzz_pairs(10_000)
        corpus = [inst for inst, _ in islice(pairs, 0, None, checks.ORDERS_PER_INSTANCE)]
        corpus += _family_instances()
        corpus += [random_instance(60, F(1, 5), F(1, 4), seed) for seed in (1, 2, 3)]
        pin_cpus(monkeypatch, 2)
        serial_pools(monkeypatch)
        for seed, inst in enumerate(corpus):
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

    def test_estimate_does_not_depend_on_the_worker_count(self, monkeypatch):
        inst = gen_ro_lb(2, F(1, 2), 4)
        pin_cpus(monkeypatch, 3)
        one, two = (mc_estimate(gftp, inst, trials=401, seed=9, workers=w) for w in (1, 2))
        sizes = serial_pools(monkeypatch)  # three chunks, without three processes
        three = mc_estimate(gftp, inst, trials=401, seed=9, workers=3)
        assert sizes == [3]
        assert one == two == three
        assert one.trials == 401

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

    def test_mean_and_std_error_are_those_of_the_exact_sample(self):
        inst = gen_ro_lb(3, F(1, 3), 3)
        trials, seed = 300, 21
        rng = pyrandom.Random(seed)
        ids = list(range(inst.m))
        costs = []
        for _ in range(trials):
            rng.shuffle(ids)
            costs.append(run_cost(gftp(), inst, ids))
        mean = sum(costs, F(0)) / trials
        variance = sum(((c - mean) ** 2 for c in costs), F(0)) / (trials - 1)
        assert variance > 0
        est = mc_estimate(gftp, inst, trials=trials, seed=seed)
        assert est.mean_cost == float(mean)
        assert est.std_error == math.sqrt(variance / trials)

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

    @staticmethod
    def shuffled(m: int, seed: int, count: int) -> list[list[int]]:
        rng = pyrandom.Random(seed)
        ids = list(range(m))
        out = []
        for _ in range(count):
            rng.shuffle(ids)
            out.append(ids.copy())
        return out

    @pytest.mark.parametrize("m", [1, 2, 3, 41, 352])
    def test_same_orders_as_repeated_random_shuffle(self, m):
        for seed in self.SEEDS:
            expected = self.shuffled(m, seed, 60)
            assert [ids.copy() for ids in islice(randomorder._shuffles(m, seed), 60)] == expected
            # a worker's chunk starts mid-stream, as ``_mc_chunk`` slices it
            chunk = islice(randomorder._shuffles(m, seed), 23, 51)
            assert [ids.copy() for ids in chunk] == expected[23:51]


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


def _coprime_denominators(count: int, base: int = 1000) -> list[int]:
    """``count`` pairwise coprime denominators ``k * base! + 1``, of 2568 digits by default.

    A common divisor of two of them divides their difference, a multiple of
    base! by at most ``count - 1 < base``, so it divides base! and then 1.
    """
    assert count < base
    factorial = math.factorial(base)
    return [k * factorial + 1 for k in range(1, count + 1)]


def _wide_coprime_instance(n: int, base: int = 1000) -> WmstInstance:
    """The complete graph on ``n`` vertices, each of its 2m weights over its own denominator."""
    graph = Graph.from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    dens = _coprime_denominators(2 * graph.m, base)
    rng = pyrandom.Random(n)
    predicted = tuple(rng.randint(1, 5) + F(1, d) for d in dens[: graph.m])
    actual = tuple(rng.randint(1, 5) + F(1, d) for d in dens[graph.m :])
    return WmstInstance(graph, predicted, actual)


def _large_denominator_instances():
    # the 2501-digit triangle of test_cli: the optimum's denominator has 5002 digits
    a, b = int("3" * 2500 + "1"), int("7" * 2500 + "3")
    weights = (F(a + 1, a), F(b + 1, b), F(3))
    yield Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)]), weights, weights
    wide = _wide_coprime_instance(6)  # m = 15: 30 denominators, 256,000 bits together
    yield wide.graph, wide.predicted, wide.actual


@pytest.mark.parametrize("case", list(_large_denominator_instances()), ids=["triangle", "k6"])
def test_large_coprime_denominators_keep_memory_small_and_results_exact(case):
    inst = WmstInstance(*case)
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
        rng = pyrandom.Random(seed)
        ids = list(range(inst.m))
        costs = []
        for _ in range(trials):
            rng.shuffle(ids)
            costs.append(run(reference(), inst, ArrivalOrder(tuple(ids))).cost)
        mean = sum(costs, F(0)) / trials
        variance = sum(((c - mean) ** 2 for c in costs), F(0)) / (trials - 1)
        assert est.mean_cost == float(mean)
        assert est.std_error == math.sqrt(variance / trials)
