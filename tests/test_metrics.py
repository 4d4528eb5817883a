"""Error measures: examples, orderings, and the two structural properties."""

import random as pyrandom
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wmst import (
    Graph,
    WmstInstance,
    brute_force_mst,
    error_report,
    eta,
    eta1,
    eta2,
    gen_ftp_lb,
    random_instance,
)

import corpus

F = Fraction


def test_triangle_values():
    inst = corpus.triangle()
    assert eta1(inst) == 3  # |2-1| + |3-1| + |2-2|
    assert eta(inst) == 3  # top-2 of {1, 2, 0}
    assert eta2(inst) == 2  # max-map MST costs 4, min-map MST costs 2
    report = error_report(inst)
    assert report.opt_actual == 2
    assert report.opt_predicted == 4
    assert report.epsilon == F(3, 2)


def test_perfect_predictions_have_zero_error():
    inst = random_instance(6, F(1, 2), F(0), seed=3)
    assert inst.predicted == inst.actual
    report = error_report(inst)
    assert report.eta1 == report.eta2 == report.eta == 0
    assert report.epsilon == 0


def test_hub_spoke_family_values():
    # k=3, l=3: six spoke edges with gap 3 each, bridge exact
    inst, _, _ = gen_ftp_lb(3, 3)
    assert eta1(inst) == 18
    assert eta(inst) == 12  # top n-1 = 4 gaps of 3
    report = error_report(inst)
    assert report.opt_actual == 4
    assert report.epsilon == 3


def test_eta_bounded_by_eta1():
    for inst, _ in corpus.spread(F(1, 2)):
        nonzero = sum(1 for p, a in zip(inst.predicted, inst.actual) if p != a)
        if nonzero <= inst.n - 1:
            assert eta(inst) == eta1(inst)
        else:
            assert eta(inst) < eta1(inst)


def test_eta_equals_eta1_with_few_discrepancies():
    # at most n-1 edges wrong: the top n-1 gaps cover everything
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    predicted = (F(5), F(2), F(2), F(7), F(3))
    actual = (F(1), F(2), F(2), F(3), F(3))  # two nonzero gaps, n-1 = 3
    inst = WmstInstance(graph, predicted, actual)
    assert eta(inst) == eta1(inst) == 8


def test_tree_graph_measures_coincide():
    # m = n-1 means eta sums every gap
    graph = Graph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
    inst = WmstInstance(graph, (F(4), F(1), F(9)), (F(1), F(2), F(3)))
    assert eta(inst) == eta1(inst)


def test_eta2_nonnegative():
    for inst, _ in corpus.spread(F(2)):
        assert eta2(inst) >= 0


def _corrected(inst: WmstInstance, which: list[int]) -> WmstInstance:
    predicted = list(inst.predicted)
    for eid in which:
        predicted[eid] = inst.actual[eid]
    return inst.with_predictions(predicted)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=2**30))
@settings(max_examples=150, deadline=None)
def test_eta_monotone_under_corrections(seed, subset_seed):
    inst = random_instance(4 + seed % 4, F(3, 5), F(1), seed=seed)
    rng = pyrandom.Random(subset_seed)
    subset = [eid for eid in range(inst.m) if rng.random() < 0.5]
    assert eta(_corrected(inst, subset)) <= eta(inst)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_eta_lipschitz_against_oracle(seed):
    inst = random_instance(3 + seed % 3, F(7, 10), F(1), seed=seed)
    opt_pred, _ = brute_force_mst(inst.graph, inst.predicted)
    opt_act, _ = brute_force_mst(inst.graph, inst.actual)
    assert abs(opt_pred - opt_act) <= eta(inst)


def _relabeled(inst: WmstInstance, order: list[int]) -> WmstInstance:
    pairs = [(inst.graph.edges[eid].u, inst.graph.edges[eid].v) for eid in order]
    graph = Graph.from_pairs(inst.n, pairs)
    return WmstInstance(
        graph,
        tuple(inst.predicted[eid] for eid in order),
        tuple(inst.actual[eid] for eid in order),
    )


def test_measures_are_permutation_invariant():
    for seed, (inst, _) in enumerate(corpus.spread(F(1, 2))[:60]):
        order = list(range(inst.m))
        pyrandom.Random(seed).shuffle(order)
        other = _relabeled(inst, order)
        assert eta1(other) == eta1(inst)
        assert eta2(other) == eta2(inst)
        assert eta(other) == eta(inst)
        assert error_report(other).opt_actual == error_report(inst).opt_actual
