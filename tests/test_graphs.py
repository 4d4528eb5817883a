"""Core graph types, MST routines and the brute-force oracle."""

import ast
import dataclasses
import enum
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmst import (
    ArrivalOrder,
    BadParameter,
    DisconnectedGraph,
    DuplicateEdge,
    EdgeInTree,
    Graph,
    MissingWeight,
    NonpositiveWeight,
    NotSpanning,
    SelfLoop,
    SpanningTree,
    TooLarge,
    WmstInstance,
    brute_force_mst,
    error_report,
    eta,
    eta1,
    eta2,
    exact_expectation,
    exchange_witness,
    ftp,
    gftp,
    mc_estimate,
    mst,
    random_instance,
    run,
    run_cost,
    tree_cost,
    tree_cycle,
    validate_instance,
)
import wmst
from wmst import checks
from wmst.exceptions import InstanceError
from wmst.graphs import SCALE_BITS, PreparedInstance, _UnionFind
from wmst.randomorder import estimate

import corpus

F = Fraction


def triangle_payload():
    return {
        "n": 3,
        "edges": [
            {"u": 0, "v": 1, "predicted": "2/1", "actual": "1/1"},
            {"u": 1, "v": 2, "predicted": "3/1", "actual": "1/1"},
            {"u": 0, "v": 2, "predicted": "2/1", "actual": "2/1"},
        ],
    }


class TestValidateInstance:
    def test_triangle_payload_is_valid(self):
        inst = validate_instance(triangle_payload())
        assert inst.n == 3 and inst.m == 3
        assert inst.predicted == (F(2), F(3), F(2))
        assert inst.actual == (F(1), F(1), F(2))

    def test_single_edge_is_smallest_instance(self):
        inst = validate_instance(
            {"n": 2, "edges": [{"u": 0, "v": 1, "predicted": "1/1", "actual": "1/1"}]}
        )
        assert inst.n == 2 and inst.m == 1

    def test_two_disjoint_edges_are_rejected(self):
        payload = {
            "n": 4,
            "edges": [
                {"u": 0, "v": 1, "predicted": "1/1", "actual": "1/1"},
                {"u": 2, "v": 3, "predicted": "1/1", "actual": "1/1"},
            ],
        }
        with pytest.raises(DisconnectedGraph):
            validate_instance(payload)

    def test_self_loop_rejected(self):
        payload = triangle_payload()
        payload["edges"][0]["v"] = 0
        with pytest.raises(SelfLoop):
            validate_instance(payload)

    def test_duplicate_pair_rejected(self):
        payload = triangle_payload()
        payload["edges"].append(
            {"u": 1, "v": 0, "predicted": "5/1", "actual": "5/1"}
        )
        with pytest.raises(DuplicateEdge):
            validate_instance(payload)

    def test_nonpositive_weight_rejected(self):
        payload = triangle_payload()
        payload["edges"][1]["actual"] = "0/1"
        with pytest.raises(NonpositiveWeight):
            validate_instance(payload)

    def test_missing_weight_rejected(self):
        payload = triangle_payload()
        del payload["edges"][2]["predicted"]
        with pytest.raises(MissingWeight):
            validate_instance(payload)

    def test_float_weights_refused(self):
        graph = Graph.from_pairs(2, [(0, 1)])
        with pytest.raises(BadParameter):
            WmstInstance(graph, (0.5,), (F(1),))

    def test_decimal_strings_parse_exactly(self):
        payload = triangle_payload()
        payload["edges"][0]["predicted"] = "0.5"
        inst = validate_instance(payload)
        assert inst.predicted[0] == F(1, 2)

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            ({(1, "actual"): "x/", (2, "actual"): "x/"}, BadParameter,
             "not an exact rational: 'x/'"),
            ({(1, "actual"): "0/1", (2, "actual"): "0/1"}, NonpositiveWeight,
             "actual weight of edge 1 is 0"),
            ({(1, "predicted"): 0.5, (2, "predicted"): 0.5}, BadParameter,
             "edge 1 predicted must be an exact rational, got float"),
            ({(0, "actual"): "0" * 4300 + "7/3"}, BadParameter, "not an exact rational"),
            ({(0, "actual"): "7/" + "0" * 4300 + "3"}, BadParameter, "not an exact rational"),
            ({(0, "u"): True}, InstanceError, "edge 0 endpoints must be integers"),
            ({(2, "u"): 1, (2, "v"): 0}, DuplicateEdge, "edge 2 duplicates endpoint pair (0, 1)"),
        ],
        ids=["repeated-malformed", "repeated-zero", "repeated-float", "long-numerator",
             "long-denominator", "bool-endpoint", "reversed-duplicate"],
    )
    def test_messages_name_the_first_faulty_edge(self, edit, error, message):
        payload = triangle_payload()
        for (index, key), value in edit.items():
            payload["edges"][index][key] = value
        with pytest.raises(error) as excinfo:
            validate_instance(payload)
        assert str(excinfo.value).startswith(message)

    def test_an_int_enum_endpoint_is_an_int(self):
        class Vertex(enum.IntEnum):
            ZERO = 0

        payload = triangle_payload()
        payload["edges"][0]["u"] = Vertex.ZERO
        inst = validate_instance(payload)
        assert inst == validate_instance(triangle_payload())
        assert inst.graph.edges[0].u is Vertex.ZERO

    def test_sparse_huge_vertex_count_fails_before_allocating(self):
        payload = {
            "n": 2_000_000,
            "edges": [{"u": 0, "v": 1, "predicted": "1/1", "actual": "1/1"}],
        }
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraph):
                validate_instance(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestMst:
    def test_triangle_under_predictions(self):
        inst = corpus.triangle()
        tree = mst(inst.graph, inst.predicted)
        assert tree.edge_ids == frozenset({0, 2})
        assert tree_cost(tree, inst.predicted) == 4
        cost, oracle_tree = brute_force_mst(inst.graph, inst.predicted)
        assert cost == 4 and oracle_tree.edge_ids == tree.edge_ids

    def test_triangle_under_actuals(self):
        inst = corpus.triangle()
        tree = mst(inst.graph, inst.actual)
        assert tree.edge_ids == frozenset({0, 1})
        assert tree_cost(tree, inst.actual) == 2
        cost, _ = brute_force_mst(inst.graph, inst.actual)
        assert cost == 2

    def test_path_graph_has_unique_tree(self):
        graph = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        weights = (F(9), F(1), F(4), F(7))
        assert mst(graph, weights).edge_ids == frozenset(range(4))

    def test_ties_break_toward_smaller_id(self):
        graph = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        weights = (F(1),) * 5
        assert mst(graph, weights).edge_ids == frozenset({0, 1, 2})

    def test_deterministic_across_calls(self):
        inst = random_instance(7, F(1, 2), F(1, 2), seed=11)
        first = mst(inst.graph, inst.predicted).edge_ids
        for _ in range(5):
            assert mst(inst.graph, inst.predicted).edge_ids == first

    def test_agrees_with_oracle_on_random_graphs(self):
        checks.mst_matches_oracle(
            random_instance(3 + seed % 5, F(3, 5), F(1, 2), seed=seed) for seed in range(300)
        )

    def test_short_weight_map_rejected(self):
        inst = corpus.triangle()
        with pytest.raises(MissingWeight):
            mst(inst.graph, inst.predicted[:2])


class TestSpanningTree:
    def test_wrong_size_rejected(self):
        graph = corpus.triangle().graph
        with pytest.raises(NotSpanning):
            SpanningTree(graph, frozenset({0}))

    def test_cycle_rejected(self):
        graph = Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        with pytest.raises(NotSpanning):
            SpanningTree(graph, frozenset({0, 1, 2}))

    def test_tree_path_is_ordered(self):
        graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        tree = SpanningTree(graph, frozenset({0, 1, 2}))
        assert [e.id for e in tree.tree_path(0, 3)] == [0, 1, 2]
        assert [e.id for e in tree.tree_path(3, 0)] == [2, 1, 0]
        assert tree.tree_path(2, 2) == []
        for a, b in ((-1, 0), (0, -2), (4, 0)):
            with pytest.raises(BadParameter):
                tree.tree_path(a, b)


def _random_tree(rng: random.Random, n: int):
    """A uniform-ish labelled tree as shuffled ``(u, v)`` pairs."""
    labels = list(range(n))
    rng.shuffle(labels)
    pairs = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(pairs)
    return pairs


def _separated_without(pairs, skip: int, a: int, b: int, n: int) -> bool:
    """Union-find oracle: are a and b disconnected once edge ``skip`` is cut?"""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid, (u, v) in enumerate(pairs):
        if eid != skip:
            parent[find(u)] = find(v)
    return find(a) != find(b)


class TestUnionFind:
    @staticmethod
    def three_call_union(parent: list[int], a: int, b: int) -> bool:
        """The union as two separate path-halving finds, then the link."""
        roots = []
        for x in (a, b):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            roots.append(x)
        if roots[0] == roots[1]:
            return False
        parent[roots[1]] = roots[0]
        return True

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_union_matches_a_component_label_oracle(self, case):
        n, pairs = case
        uf = _UnionFind(n)
        label = list(range(n))
        halved = list(range(n))
        for a, b in pairs:
            joined = label[a] != label[b]
            assert uf.union(a, b) is joined
            if joined:
                label = [label[a] if c == label[b] else c for c in label]
            # the one call leaves the same forest as the finds it inlines
            assert self.three_call_union(halved, a, b) is joined
            assert uf.parent == halved


class TestPreparedInstance:
    @staticmethod
    def assert_exact(inst: WmstInstance, prepared: PreparedInstance) -> None:
        """The preparation agrees with the Fraction computations it replaces."""
        graph = inst.graph
        lcm = math.lcm(*(w.denominator for w in inst.predicted + inst.actual))
        assert prepared.scale == (lcm if lcm.bit_length() <= SCALE_BITS else 1)
        assert prepared.tree == mst(graph, inst.predicted).edge_ids
        assert prepared.opt == tree_cost(mst(graph, inst.actual), inst.actual)
        assert prepared.mst_cost(prepared.predicted_scaled) == tree_cost(
            mst(graph, inst.predicted), inst.predicted
        )
        gaps = sorted((abs(p - a) for p, a in zip(inst.predicted, inst.actual)), reverse=True)
        assert prepared.eta == eta(inst) == sum(gaps[: graph.n - 1], F(0))
        assert eta1(inst) == error_report(inst).eta1 == sum(gaps, F(0))
        upper = [max(p, a) for p, a in zip(inst.predicted, inst.actual)]
        lower = [min(p, a) for p, a in zip(inst.predicted, inst.actual)]
        assert eta2(inst) == (
            tree_cost(mst(graph, upper), upper) - tree_cost(mst(graph, lower), lower)
        )
        for scaled, weights in ((prepared.predicted_scaled, inst.predicted),
                                (prepared.actual_scaled, inst.actual)):
            assert [F(w, prepared.scale) for w in scaled] == list(weights)
        parent, parent_edge, depth = prepared.rooted
        assert parent[0] == parent_edge[0] == -1 and depth[0] == 0
        assert sorted(parent_edge[1:]) == sorted(prepared.tree)
        for x in range(1, graph.n):
            edge = graph.edges[parent_edge[x]]
            assert {edge.u, edge.v} == {x, parent[x]}
            assert depth[x] == depth[parent[x]] + 1
            for _ in range(graph.n):  # the parent pointers reach the root
                x = parent[x]
                if x == 0:
                    break
            assert x == 0

    def test_matches_fractions_on_fuzz_and_tie_heavy_instances(self):
        # predictions in thirds and true weights in sevenths, none of them whole
        graph = corpus.complete_graph(6)
        thirds = tuple(F(3 * (e % 4) + 1 + e % 2, 3) for e in range(graph.m))
        sevenths = tuple(F(7 * (e % 3) + 1 + e % 6, 7) for e in range(graph.m))
        fractional = WmstInstance(graph, thirds, sevenths)
        assert fractional.prepared.scale == 21
        for inst in [*corpus.fuzz_instances()[:300], fractional, *corpus.tie_heavy()]:
            prepared = inst.prepared
            assert all(isinstance(w, int) for w in prepared.predicted_scaled)
            self.assert_exact(inst, prepared)

    def test_a_scale_past_the_bound_keeps_the_fractions(self):
        # 2^600 + 1 and 2^600 + 3 are odd and differ by 2, so coprime: the lcm
        # of the denominators needs 1201 bits
        a, b = 2**600 + 1, 2**600 + 3
        graph = corpus.complete_graph(4)
        predicted = tuple(F(a + e, a) for e in range(graph.m))
        actual = tuple(F(b + 7 - e, b) for e in range(graph.m))
        inst = WmstInstance(graph, predicted, actual)
        prepared = inst.prepared
        assert (a * b).bit_length() > SCALE_BITS
        assert prepared.scale == 1 and prepared.predicted_scaled is inst.predicted
        self.assert_exact(inst, prepared)
        # one of the two denominators alone fits
        assert WmstInstance(graph, predicted, predicted).prepared.scale == a

    def test_without_true_weights_the_scale_is_one(self):
        inst = random_instance(9, F(1, 2), F(1, 4), seed=4)
        prepared = PreparedInstance(inst.graph, inst.predicted)
        assert prepared.scale == 1 and prepared.actual_scaled is None
        assert prepared.tree == mst(inst.graph, inst.predicted).edge_ids


class TestInstancePreparation:
    """``WmstInstance.prepared``: one preparation per instance, never shared with another."""

    @staticmethod
    def top_gaps(predicted, actual, count: int) -> Fraction:
        """The sum of the ``count`` largest per-edge discrepancies."""
        gaps = sorted((abs(p - a) for p, a in zip(predicted, actual)), reverse=True)
        return sum(gaps[:count], F(0))

    def test_every_run_measure_and_estimate_shares_one(self, monkeypatch):
        def counted(self, *args):
            built.append(self)
            init(self, *args)

        inst = random_instance(5, F(4, 5), F(1, 4), 2)
        init = PreparedInstance.__init__
        monkeypatch.setattr(PreparedInstance, "__init__", counted)
        built = []
        run(gftp(), inst, ArrivalOrder.identity(inst.m), checked=True)
        run_cost(ftp(), inst, range(inst.m))
        error_report(inst)
        eta1(inst)
        eta2(inst)
        eta(inst)
        estimate(inst, F(1), 1)
        for factory in (gftp, ftp):
            mc_estimate(factory, inst, 20, 0)
            exact_expectation(factory, inst)
        assert built == [inst.prepared]

    def test_equality_hashing_and_copies_ignore_it(self):
        inst = random_instance(5, F(4, 5), F(1, 4), 2)
        prepared = inst.prepared
        fresh = random_instance(5, F(4, 5), F(1, 4), 2)
        assert inst == fresh and hash(inst) == hash(fresh)
        assert {inst: 1}[fresh] == 1
        assert fresh.prepared is not prepared

        # predictions that favour the larger ids pick another tree
        predicted = tuple(F(inst.m - eid) for eid in range(inst.m))
        renewed = inst.with_predictions(predicted)
        tree = mst(inst.graph, predicted).edge_ids
        assert renewed.prepared is not prepared and tree != prepared.tree
        assert renewed.prepared.tree == tree
        assert renewed.prepared.opt == prepared.opt
        assert renewed.prepared.eta == self.top_gaps(predicted, inst.actual, inst.n - 1)

        doubled = dataclasses.replace(inst, actual=tuple(2 * w for w in inst.actual))
        assert doubled != inst and doubled.prepared is not prepared
        assert doubled.prepared.tree == prepared.tree
        assert doubled.prepared.opt == 2 * prepared.opt
        assert doubled.prepared.eta == self.top_gaps(inst.predicted, doubled.actual, inst.n - 1)
        assert doubled.prepared.eta != prepared.eta
        assert inst.prepared is prepared


class TestTreePathIds:
    def test_matches_cut_oracle_and_is_contiguous(self):
        rng = random.Random(2302)
        for _ in range(300):
            n = rng.randint(2, 14)
            pairs = _random_tree(rng, n)
            tree = SpanningTree(Graph.from_pairs(n, pairs), range(n - 1))
            for _ in range(6):
                a, b = rng.randrange(n), rng.randrange(n)
                path = tree.path_ids(a, b)
                on_path = {
                    eid for eid in range(n - 1) if _separated_without(pairs, eid, a, b, n)
                }
                assert sorted(path) == sorted(on_path)
                x = a
                for eid in path:
                    u, v = pairs[eid]
                    assert x in (u, v)
                    x = v if x == u else u
                assert x == b

    def test_only_the_rooting_and_path_walks_and_the_checker_read_depths(self):
        """Within ``wmst``, only ``_root``, ``_path_ids`` and the checker's two
        scans subscript ``depth``: every other path climb goes through ``_path_ids``."""
        def read(node, scope: str) -> None:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = f"{scope}.{node.name}"
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and node.value.id == "depth"):
                readers.add(scope)
            for child in ast.iter_child_nodes(node):
                read(child, scope)

        readers = set()
        for source in Path(wmst.__file__).parent.glob("*.py"):
            read(ast.parse(source.read_text(encoding="utf-8")), source.stem)
        assert readers == {
            "graphs._root",
            "graphs._path_ids",
            "engine._InvariantChecker.before_reveal",
            "engine._InvariantChecker.after_reveal",
        }


class TestTreeCycle:
    def test_triangle_cycle(self):
        inst = corpus.triangle()
        tree = SpanningTree(inst.graph, frozenset({0, 2}))
        cycle = tree_cycle(tree, inst.graph.edges[1])
        assert [e.id for e in cycle] == [0, 2]

    def test_star_with_chord(self):
        graph = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        tree = SpanningTree(graph, frozenset({0, 1, 2}))
        cycle = tree_cycle(tree, graph.edges[3])
        assert {e.id for e in cycle} == {0, 1}

    def test_chord_over_path(self):
        graph = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
        tree = SpanningTree(graph, frozenset({0, 1, 2, 3}))
        cycle = tree_cycle(tree, graph.edges[4])
        assert [e.id for e in cycle] == [1, 2, 3]

    def test_tree_edge_rejected(self):
        inst = corpus.triangle()
        tree = SpanningTree(inst.graph, frozenset({0, 2}))
        with pytest.raises(EdgeInTree):
            tree_cycle(tree, inst.graph.edges[0])


class TestExchangeWitness:
    def test_triangle_witness(self):
        graph = corpus.triangle().graph
        t1 = SpanningTree(graph, frozenset({0, 1}))
        t2 = SpanningTree(graph, frozenset({1, 2}))
        assert exchange_witness(t1, t2, graph.edges[0]).id == 2
        checks.exchange_witnesses_pair_cycles([(t1, t2)])

    def test_precondition_enforced(self):
        graph = corpus.triangle().graph
        t1 = SpanningTree(graph, frozenset({0, 1}))
        t2 = SpanningTree(graph, frozenset({0, 2}))
        with pytest.raises(BadParameter):
            exchange_witness(t1, t2, graph.edges[0])  # shared edge

    def test_random_tree_pairs(self):
        checks.exchange_witnesses_pair_cycles(corpus.tree_pairs(100))


class TestBruteForce:
    def test_single_edge(self):
        graph = Graph.from_pairs(2, [(0, 1)])
        cost, tree = brute_force_mst(graph, (F(7, 3),))
        assert cost == F(7, 3) and tree.edge_ids == frozenset({0})

    def test_guard_refuses_large_graphs(self):
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8)][:25]
        graph = Graph.from_pairs(8, pairs)
        with pytest.raises(TooLarge):
            brute_force_mst(graph, (F(1),) * 25)

    def test_lexicographic_minimizer(self):
        # all weights equal: every spanning tree is minimal, the smallest
        # id tuple must win
        graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
        _, tree = brute_force_mst(graph, (F(5), F(5), F(5)))
        assert sorted(tree.edge_ids) == [0, 1]


class TestTreeExchangeProperty:
    def test_cycle_edges_are_replaceable(self):
        for inst in corpus.mst_oracle()[:120]:
            graph = inst.graph
            tree = mst(graph, inst.actual)
            for edge in graph.edges:
                if edge.id in tree:
                    continue
                for cycle_edge in tree_cycle(tree, edge):
                    swapped = (tree.edge_ids - {cycle_edge.id}) | {edge.id}
                    SpanningTree(graph, swapped)  # raises if not spanning


rationals = st.fractions(
    min_value=F(-1000), max_value=F(1000), max_denominator=10_000
)


class TestExactArithmetic:
    @given(rationals, rationals)
    def test_add_then_subtract_is_identity(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals)
    @settings(max_examples=200)
    def test_comparisons_are_total(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1
