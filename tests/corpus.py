"""The instances and orders the tests play, as named corpora.

A corpus is a function that builds its items on its first call and returns
the same object to every later caller: one instance, or a tuple of instances
or of (instance, order ids) pairs.  ``test_corpus.py`` pins each corpus's
size and contents.

- ``triangle``, ``pendant``, ``wide_coprime(n, base)``: single instances.
- ``edge_cases``: a tree graph and a single edge.
- ``large_denominator``: weights with thousands of digits.
- ``fuzz_instances`` and ``fuzz_pairs``: 2,500 instances on 4-7 vertices,
  ``ORDERS_PER_INSTANCE`` shuffles of each.
- ``families``: every ``cli.FAMILIES`` family; ``exact_families``: m <= 9.
- ``small_exact``: m <= 7; ``differential``: a small live-edge memo.
- ``dealt``: for the dealt trials; ``dealt_pairs``: for the dealt orders.
- ``tie_heavy``: tied and integer weights; ``undo``: integer weights.
- ``deep``: shaped like the benchmark's mc-random instances.
- ``checker_fuzz``: two orders each, every fifth instance past ``SCALE_BITS``.
- ``spread(noise)``: 200 instances on 4-7 vertices, each with an order.
- ``eta_oracle``, ``mst_oracle`` and ``tree_pairs(top)``: for the
  brute-force oracle and the exchange witnesses.

A cached instance keeps its ``prepared`` and ``prepared.deal``.  So a test
that counts calls of ``PreparedInstance.__init__``, ``_Deal.__init__`` or
``_contested``, that asserts ``prepared.deal is None``, or that measures the
memory a preparation takes, builds its own instances or plays
``dataclasses.replace(inst)``, an unprepared copy.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import islice, product

from wmst import ALGORITHMS, ArrivalOrder, Graph, WmstInstance, gen_ftp_lb, gen_ro_lb, mst
from wmst import random_instance
from wmst.cli import FAMILIES

from conftest import dead_edges

F = Fraction

FUZZ_MAX_N = 7
ORDERS_PER_INSTANCE = 4


def complete_graph(n: int) -> Graph:
    return Graph.from_pairs(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def with_orders(instances, count: int) -> tuple:
    """Each instance with the identity order, its reverse and ``count`` seeded shuffles."""
    return tuple((inst, ids) for inst in instances for ids in (
        tuple(range(inst.m)), tuple(reversed(range(inst.m))),
        *(ArrivalOrder.shuffled(inst.m, seed).edge_ids for seed in range(count))))


def _seeded(instances) -> tuple:
    """Each of ``instances`` with the order shuffled by its position."""
    return tuple((inst, ArrivalOrder.shuffled(inst.m, seed).edge_ids)
                 for seed, inst in enumerate(instances))


@cache
def triangle() -> WmstInstance:
    """Three vertices, predictions (2, 3, 2), true weights (1, 1, 2)."""
    graph = Graph.from_pairs(3, [(0, 1), (1, 2), (0, 2)])
    return WmstInstance(graph, (F(2), F(3), F(2)), (F(1), F(1), F(2)))


@cache
def pendant() -> WmstInstance:
    """A triangle with a pendant edge, where ``gftp``'s deal holds no contested
    edge: edges 0, 1 and 3 are inert and edge 2 is rejected in every order."""
    return WmstInstance(Graph.from_pairs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
                        (F(1), F(1), F(5), F(1)), (F(1), F(2), F(5), F(3)))


@cache
def wide_coprime(n: int, base: int = 1000) -> WmstInstance:
    """The complete graph on ``n`` vertices, each of its 2m weights over its own
    denominator ``k * base! + 1``, of 2568 digits by default.

    A common divisor of two of them divides their difference, a multiple of
    base! by at most ``2m - 1 < base``, so it divides base! and then 1.
    """
    graph = complete_graph(n)
    assert 2 * graph.m < base
    dens = [k * math.factorial(base) + 1 for k in range(1, 2 * graph.m + 1)]
    rng = random.Random(n)
    predicted = tuple(rng.randint(1, 5) + F(1, d) for d in dens[: graph.m])
    actual = tuple(rng.randint(1, 5) + F(1, d) for d in dens[graph.m :])
    return WmstInstance(graph, predicted, actual)


@cache
def edge_cases() -> tuple[WmstInstance, ...]:
    """A tree graph, where every edge must be accepted, and a single edge."""
    path = Graph.from_pairs(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    return (WmstInstance(path, (F(4), F(1), F(9), F(2)), (F(2), F(3, 2), F(2), F(7))),
            WmstInstance(complete_graph(2), (F(3),), (F(5, 3),)))


@cache
def large_denominator() -> tuple[WmstInstance, ...]:
    """The 2501-digit triangle of ``test_cli``, whose optimum's denominator has
    5002 digits, and ``wide_coprime(6)``: 30 denominators, 256,000 bits together."""
    a, b = int("3" * 2500 + "1"), int("7" * 2500 + "3")
    weights = (F(a + 1, a), F(b + 1, b), F(3))
    return WmstInstance(triangle().graph, weights, weights), wide_coprime(6)


@cache
def fuzz_instances() -> tuple[WmstInstance, ...]:
    """A deterministic rotation through sizes, densities and noise levels."""
    return tuple(random_instance(4 + i % (FUZZ_MAX_N - 3), (F(3, 5), F(4, 5))[i % 2],
                                 (F(0), F(1, 4), F(1), F(3))[i % 4], seed=i)
                 for i in range(10_000 // ORDERS_PER_INSTANCE))


@cache
def fuzz_pairs() -> tuple:
    """Pair ``i`` is fuzz instance ``i // ORDERS_PER_INSTANCE``, ``i``-seeded."""
    return _seeded(inst for inst in fuzz_instances() for _ in range(ORDERS_PER_INSTANCE))


def _built(specs) -> list[WmstInstance]:
    return [FAMILIES[family].build(**params)[0] for family, params in specs]


@cache
def exact_families() -> tuple[WmstInstance, ...]:
    """Family instances with m <= 9.  Of the two hub-spoke families at 9 edges
    only ``ro-lb`` is here: each takes about 8 s to enumerate for both players."""
    return tuple(_built([
        *(("ftp-lb", dict(k=k, l=l)) for l in (1, 2, 3) for k in (F(2), F(7, 2))),
        *(("ro-lb", dict(k=F(2), delta=F(1, 2), l=l)) for l in (1, 2, 3, 4)),
        ("ro-lb", dict(k=F(3), delta=F(1, 3), l=2)),
        *((family, dict(alg=alg, **params)) for alg in ALGORITHMS
          for family, params in (("general-lb", dict(k=2, l=1)), ("eta2", dict(k=2, big_k=20)),
                                 ("eta2", dict(k=5, big_k=50)))),
        *(("random", dict(n=n, edge_prob=F(1, 2), noise=F(1, 4), seed=seed))
          for n, seed in ((2, 0), (3, 1), (4, 2), (5, 3))),
    ]))


@cache
def families() -> tuple[WmstInstance, ...]:
    """Every family at a few sizes, up to m = 242, then ``exact_families``, then
    one more instance of each family; games are played by both players."""
    grid = [
        *(("ftp-lb", dict(k=k, l=l)) for k, l in ((F(2), 1), (F(3), 4), (F(5, 2), 7))),
        ("ro-lb", dict(k=F(2), delta=F(1, 2), l=1)), ("ro-lb", dict(k=F(4), delta=F(1, 3), l=6)),
        *(("general-lb", dict(k=k, l=l, alg=a)) for k, l in ((2, 1), (3, 2)) for a in ALGORITHMS),
        *(("eta2", dict(k=k, big_k=10 * k, alg=a)) for k in (2, 5) for a in ALGORITHMS),
        *(("random", dict(n=n, edge_prob=F(1, 3), noise=F(1, 2), seed=s))
          for n, s in ((8, 1), (20, 2), (40, 3))),
    ]
    assert {family for family, _ in grid} == set(FAMILIES)
    more = [("ftp-lb", dict(k=F(7, 2), l=3)), ("ro-lb", dict(k=F(2), delta=F(1, 2), l=3)),
            ("random", dict(n=6, edge_prob=F(1, 2), noise=F(1, 4), seed=3)),
            *((family, dict(alg=alg, **params)) for alg in ALGORITHMS for family, params
              in (("general-lb", dict(k=2, l=2)), ("eta2", dict(k=3, big_k=30))))]
    return (*_built(grid), *exact_families(), *_built(more))


@cache
def small_exact() -> tuple[WmstInstance, ...]:
    """The first 500 random instances with at most 7 edges, over a rotation of sizes."""
    out, seed = [], 0
    while len(out) < 500:
        inst = random_instance((3, 4, 5)[seed % 3], (F(1), F(7, 10), F(1, 2))[seed % 3],
                               (F(1, 4), F(1), F(3))[seed % 3], seed=seed)
        seed += 1
        if inst.m <= 7:  # keep enumeration desk-scale; limit is 9
            out.append(inst)
    return tuple(out)


@cache
def differential() -> tuple[WmstInstance, ...]:
    """440 instances over n = 4-7, four densities and four noises, each with at
    most 12 live edges, then 39 on n = 10 with at most 13; most have inert edges."""
    live = lambda inst: inst.m - len(dead_edges(inst.prepared))  # noqa: E731
    out, seed = [], 0
    while len(out) < 440:
        prob = (F(1, 2), F(3, 5), F(4, 5), F(1))[seed // 4 % 4]
        noise = (F(0), F(1, 4), F(1), F(3))[seed // 16 % 4]
        inst = random_instance(4 + seed % 4, prob, noise, seed)
        seed += 1
        if live(inst) <= 12:
            out.append(inst)
    wide = (random_instance(10, F(1, 2), F(1, 4), seed) for seed in range(40))
    return (*out, *(inst for inst in wide if live(inst) <= 13))


@cache
def deep() -> tuple[WmstInstance, ...]:
    return tuple(random_instance(60, F(1, 5), F(1, 4), seed) for seed in (1, 2, 3))


@cache
def dealt() -> tuple[WmstInstance, ...]:
    """Every fourth differential instance and the deep ones, most with inert
    and rejected edges; ro-lb, with neither; and a K4 past ``SCALE_BITS``."""
    ro_lb = (gen_ro_lb(2, F(1, 2), spokes) for spokes in (1, 2, 4))
    return (*islice(differential(), 0, None, 4), *deep(), *ro_lb, wide_coprime(4, base=50))


@cache
def dealt_pairs() -> tuple:
    return (*fuzz_pairs(), *with_orders(families() + tie_heavy(), 6), *with_orders(deep(), 4))


def _integer_weighted(count: int, n, prob, top: int):
    """Random graphs with independent predictions and true weights in ``1..top``."""
    for seed in range(count):
        graph = random_instance(n(seed), prob, F(0), seed).graph
        rng = random.Random(seed)
        predicted, actual = ([F(rng.randint(1, top)) for _ in range(graph.m)] for _ in range(2))
        yield WmstInstance(graph, tuple(predicted), tuple(actual))


@cache
def tie_heavy() -> tuple[WmstInstance, ...]:
    """Equal weights, where a strict bound and a loose one differ: complete
    graphs, hub-spoke families and random graphs with integer weights in 1-3."""
    def equal(n, predicted, actual):
        graph = complete_graph(n)
        return WmstInstance(graph, (F(predicted),) * graph.m, (F(actual),) * graph.m)

    hub_spoke = ((2, 1), (3, 4), (F(5, 2), 9))
    return (
        *(equal(n, 2, true) for n in (3, 4, 5) for true in (1, 2, 3)),  # below, at, above
        *_integer_weighted(40, lambda seed: 4 + seed % 3, F(7, 10), 3),
        *(gen_ftp_lb(k, spokes)[0] for k, spokes in ((2, 1), (3, 3), (F(5, 2), 4))),
        *(inst for k, l in hub_spoke for inst in (gen_ftp_lb(k, l)[0], gen_ro_lb(k, F(1, 3), l))),
        *(equal(n, *weights) for n in (2, 5, 9) for weights in ((1, 1), (F(3, 7), F(5, 2)))),
        *_integer_weighted(100, lambda seed: 5 + seed % 6, F(1, 2), 3),
    )


@cache
def undo() -> tuple:
    """Independent integer weights in 1-20, which make many evicted edges come
    back at a bargain and be swapped in again, then noisy weights."""
    integer = _seeded(_integer_weighted(60, lambda seed: 5 + seed % 6, F(2, 5), 20))
    return integer + _seeded(random_instance(5 + s % 6, F(3, 5), F(3), s) for s in range(30))


@cache
def checker_fuzz() -> tuple:
    out = []
    for seed in range(150):
        noise = (F(0), F(1, 4), F(1, 2), F(2))[seed % 4]
        inst = random_instance(4 + seed % 9, F(1, 2), noise, seed=seed)
        if seed % 5 == 4:
            predicted = list(inst.predicted)
            predicted[0] += F(1, 3**400)
            predicted[-1] += F(1, 5**300)
            inst = inst.with_predictions(predicted)
        out += [(inst, ArrivalOrder.shuffled(inst.m, 1000 * seed + salt).edge_ids)
                for salt in range(2)]
    return tuple(out)


@cache
def spread(noise: Fraction) -> tuple:
    return _seeded(random_instance(4 + s % 4, F(3, 5), noise, seed=s) for s in range(200))


@cache
def eta_oracle() -> tuple[WmstInstance, ...]:
    return tuple(random_instance(3 + i % 3, F(7, 10), (F(1, 4), F(1), F(3))[i % 3], seed=i)
                 for i in range(10_000))


@cache
def mst_oracle() -> tuple[WmstInstance, ...]:
    return tuple(random_instance(3 + s % 5, F(3, 5), F(1, 2), seed=s) for s in range(1000))


@cache
def tree_pairs(top: int) -> tuple:
    """Every ordered pair among four MSTs of each of 100 random graphs: under the
    predictions, the true weights and two random integer weightings in ``1..top``."""
    out = []
    for seed in range(100):
        inst = random_instance(3 + seed % 5, F(7, 10), F(1, 2), seed=seed)
        rng = random.Random(seed)
        weightings = [tuple(F(rng.randint(1, top)) for _ in range(inst.m)) for _ in range(2)]
        out += product([mst(inst.graph, ws) for ws in (inst.predicted, inst.actual, *weightings)],
                       repeat=2)
    return tuple(out)
