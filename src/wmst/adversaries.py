"""Instance generators, including adaptive weight-fixing opponents.

Two kinds of constructions live here: fixed families whose true weights
are labeled after querying the deterministic predicted-weight MST (so the
construction adapts to this package's tie-breaking instead of assuming
one), and interactive games that fix future true weights based on the
decisions an arbitrary online algorithm makes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .engine import ArrivalOrder, OnlineAlgorithm, RunTrace, TraceStep, _play
from .exceptions import BadParameter, TooLarge
from .graphs import Graph, PreparedInstance, WmstInstance, _UnionFind, mst
from .rationals import ensure_fraction

# Random weights land on this grid so denominators stay small and exact
# arithmetic stays fast.
WEIGHT_GRID = 1 << 16

# Each connection attempt draws all C(n, 2) candidate pairs: about 2e6 here.
RANDOM_VERTEX_LIMIT = 2000

# Draws of a random graph before random_instance gives up on connecting it.
RANDOM_ATTEMPTS = 100_000

# Candidate pairs drawn over all attempts, so a refusal ends within seconds: 5
# attempts at 2000 vertices, 2.4 s on a shared 2-CPU Xeon (Python 3.11).
RANDOM_PAIR_DRAWS = 10_000_000

# The most edges a family may have, so that one command stays under 512 MB.
# Peak RSS of one in-process command grows linearly in the edges (Python 3.11,
# Linux): `gen general-lb`, the costliest family, 101 MB at 100,003 edges,
# 180 MB at 200,003 and 339 MB at 399,999; `gen ro-lb` 71 MB and 124 MB at
# 100,001 and 200,001; and `sweep general-lb`, which plays a game per player
# and frees each before the next, 196 MB at 250,003 edges and 307 MB at 399,999.
FAMILY_EDGE_LIMIT = 400_000


@dataclass(frozen=True)
class AdversarialGame:
    """Outcome of one interactive construction.

    The realized instance's true weights are fully determined when the game
    ends, and replaying it with the recorded order against a fresh copy of
    the same algorithm reproduces the recorded trace exactly.
    """

    instance: WmstInstance
    order: ArrivalOrder
    trace: RunTrace


def _check_edge_count(family: str, m: int) -> None:
    """Refuse a family of more than ``FAMILY_EDGE_LIMIT`` edges before it is built."""
    if m > FAMILY_EDGE_LIMIT:
        raise TooLarge(
            f"the {family} family would have {m} edges; the limit is {FAMILY_EDGE_LIMIT}"
        )


def _hub_spoke_instance(k: Fraction, spokes: int, bridge: Fraction) -> WmstInstance:
    """Two hubs joined by a bridge edge, each spoke vertex tied to both hubs.

    Every spoke edge predicts ``k+1``.  The predicted-weight MST picks one
    spoke edge per spoke vertex; those get true weight ``2k+1`` while their
    siblings get ``1``, so following predictions pays ``2k+1`` per spoke
    where the optimum pays ``1``.  The bridge and two edges per spoke make
    ``2 * spokes + 1`` edges.
    """
    _check_edge_count("hub-spoke", 2 * spokes + 1)
    n = spokes + 2  # hubs are vertices 0 and 1
    pairs: list[tuple[int, int]] = [(0, 1)]
    for z in range(2, n):
        pairs.append((0, z))
        pairs.append((1, z))
    predicted = [bridge] + [k + 1] * (2 * spokes)
    graph = Graph.from_pairs(n, pairs)
    tree = mst(graph, predicted)
    expensive, cheap = 2 * k + 1, Fraction(1)
    actual = [bridge]
    for eid in range(1, graph.m):
        actual.append(expensive if eid in tree else cheap)
    return WmstInstance(graph, tuple(predicted), tuple(actual))


def gen_ftp_lb(k, spokes: int) -> tuple[WmstInstance, ArrivalOrder, ArrivalOrder]:
    """Worst-case hub-spoke family for prediction-following players.

    Returns the instance, the natural id order, and a defeating order that
    reveals the whole predicted-weight tree first, which forces the greedy
    swapper to keep that tree as well.
    """
    k = ensure_fraction(k, "k")
    if k <= 1:
        raise BadParameter(f"k must exceed 1, got {k}")
    if spokes < 1:
        raise BadParameter(f"need at least one spoke, got {spokes}")
    instance = _hub_spoke_instance(k, spokes, Fraction(1))
    tree = mst(instance.graph, instance.predicted)
    defeating = sorted(tree.edge_ids) + sorted(
        eid for eid in range(instance.m) if eid not in tree
    )
    return (
        instance,
        ArrivalOrder.identity(instance.m),
        ArrivalOrder(tuple(defeating)),
    )


def gen_ro_lb(k, delta, spokes: int) -> WmstInstance:
    """Hub-spoke family tuned for random arrival orders.

    The bridge edge is perfectly predicted at ``delta < 1``, so it is always
    kept; each spoke then hinges on whether its cheap side arrives before
    its expensive sibling.
    """
    k = ensure_fraction(k, "k")
    delta = ensure_fraction(delta, "delta")
    if k <= 1:
        raise BadParameter(f"k must exceed 1, got {k}")
    if not 0 < delta < 1:
        raise BadParameter(f"delta must lie strictly between 0 and 1, got {delta}")
    if spokes < 1:
        raise BadParameter(f"need at least one spoke, got {spokes}")
    return _hub_spoke_instance(k, spokes, delta)


def _play_game(
    graph: Graph,
    predicted: tuple[Fraction, ...],
    actual: list[Fraction | None],
    alg: OnlineAlgorithm,
    arrivals,
) -> AdversarialGame:
    """Play ``alg`` on ``arrivals(steps)``, which sets ``actual[eid]`` before it yields ``eid``."""
    steps: list[TraceStep] = []
    # no true weights up front, so the preparation keeps scale 1 and Fractions
    edges = map(graph.edges.__getitem__, arrivals(steps))
    accepted, cost = _play(alg, PreparedInstance(graph, predicted), actual, edges, steps)
    return AdversarialGame(
        instance=WmstInstance(graph, predicted, tuple(actual)),
        order=ArrivalOrder(tuple(step.edge_id for step in steps)),
        trace=RunTrace(tuple(steps), frozenset(accepted), cost),
    )


def gen_eta2_game(k: int, big_k: int, alg: OnlineAlgorithm) -> AdversarialGame:
    """Triangle game that defeats the min/max-gap error measure.

    All three edges predict 1.  The first reveal costs ``k``; if the
    opponent accepts, the last edge is priced at 1 (leaving the measure at
    zero while the opponent overpays), otherwise at ``big_k`` (forcing the
    opponent to buy it).
    """
    if not isinstance(k, int) or k <= 1:
        raise BadParameter(f"k must be an integer above 1, got {k}")
    if not isinstance(big_k, int) or big_k <= k:
        raise BadParameter(f"big_k must exceed k, got {big_k}")
    graph = Graph.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    predicted = (Fraction(1), Fraction(1), Fraction(1))
    actual: list[Fraction | None] = [Fraction(k), Fraction(1), None]

    def arrivals(steps):
        yield 0
        actual[2] = Fraction(1) if steps[-1].decision.accepted else Fraction(big_k)
        yield 1
        yield 2

    return _play_game(graph, predicted, actual, alg, arrivals)


def gen_general_lb_game(k: int, stars: int, alg: OnlineAlgorithm) -> AdversarialGame:
    """Path-plus-stars game that penalizes any online player per star.

    A path of ``2k`` vertices carries perfectly predicted unit weights.
    Each star center is tied to every path vertex, with predictions rising
    along the path.  Star weights are fixed on the fly: the first edge
    costs ``2k``; after an accept the next edge turns cheap (so the
    optimum undercuts the player by ``2k-1``), after a reject it turns
    expensive (so rejecting never helps).
    """
    if not isinstance(k, int) or k <= 1:
        raise BadParameter(f"k must be an integer above 1, got {k}")
    if stars < 1:
        raise BadParameter(f"need at least one star, got {stars}")
    path_len = 2 * k  # vertices v_1..v_2k are ids 0..2k-1
    _check_edge_count("path-star", path_len - 1 + stars * path_len)
    pairs: list[tuple[int, int]] = []
    predicted: list[Fraction] = []
    for i in range(path_len - 1):
        pairs.append((i, i + 1))
        predicted.append(Fraction(1))
    star_edge = {}
    for j in range(stars):
        center = path_len + j
        for i in range(path_len):
            star_edge[j, i] = len(pairs)
            pairs.append((center, i))
            predicted.append(Fraction(k + i))
    graph = Graph.from_pairs(path_len + stars, pairs)

    actual: list[Fraction | None] = [Fraction(1)] * (path_len - 1) + [None] * (stars * path_len)

    def arrivals(steps):
        yield from range(path_len - 1)
        for j in range(stars):
            for i in range(path_len):
                cheap = i > 0 and steps[-1].decision.accepted
                actual[star_edge[j, i]] = Fraction(i if cheap else 2 * k + i)
                yield star_edge[j, i]

    return _play_game(graph, tuple(predicted), actual, alg, arrivals)


def random_instance(n: int, edge_prob, noise_scale, seed: int) -> WmstInstance:
    """Seed-deterministic random connected instance for fuzzing.

    Samples an Erdos-Renyi graph until it is connected.  True weights are
    uniform grid fractions in ``(0, 1]``; predictions add uniform noise in
    ``[-noise_scale, +noise_scale]`` (quantized to the grid) and are
    clamped to stay strictly positive.  ``seed`` must be non-negative, since
    ``Random(-s)`` seeds like ``Random(s)``.  Parameters whose expected edge
    count ``C(n, 2) * edge_prob`` exceeds ``FAMILY_EDGE_LIMIT`` are refused
    before any draw.  At most ``RANDOM_ATTEMPTS`` graphs are drawn, and no
    more than ``RANDOM_PAIR_DRAWS`` candidate pairs in all.
    """
    if seed < 0:
        raise BadParameter(f"seed must be non-negative, got {seed}")
    if n < 2:
        raise BadParameter(f"need at least 2 vertices, got {n}")
    if n > RANDOM_VERTEX_LIMIT:
        raise TooLarge(
            f"{n} vertices means {n * (n - 1) // 2} candidate pairs; "
            f"the limit is {RANDOM_VERTEX_LIMIT} vertices"
        )
    edge_prob = ensure_fraction(edge_prob, "edge_prob")
    noise_scale = ensure_fraction(noise_scale, "noise_scale")
    if not 0 < edge_prob <= 1:
        raise BadParameter(f"edge_prob must lie in (0, 1], got {edge_prob}")
    if noise_scale < 0:
        raise BadParameter(f"noise_scale must be nonnegative, got {noise_scale}")
    num, den = edge_prob.numerator, edge_prob.denominator
    candidates = n * (n - 1) // 2
    expected = candidates * edge_prob
    if expected > FAMILY_EDGE_LIMIT:  # the families' memory budget, checked before any draw
        raise TooLarge(
            f"{n} vertices at edge_prob {edge_prob} expect {expected} edges; "
            f"the limit is {FAMILY_EDGE_LIMIT}"
        )
    attempts = min(RANDOM_ATTEMPTS, RANDOM_PAIR_DRAWS // candidates)
    # Refuse when a union bound on any attempt drawing the n - 1 edges that a
    # connected graph needs, attempts * C(N, n-1) * p**(n-1) with N = C(n, 2),
    # is below 2**-64.
    log_comb = math.lgamma(candidates + 1) - math.lgamma(n) - math.lgamma(candidates - n + 2)
    log2_p = math.log2(num) - math.log2(den)
    if math.log2(attempts) + log_comb / math.log(2) + (n - 1) * log2_p < -64:
        raise BadParameter(f"edge_prob {edge_prob} is too small to connect {n} vertices")
    rng = random.Random(seed)
    for _ in range(attempts):
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.randrange(den) < num
        ]
        if len(pairs) >= n - 1 and _connected(n, pairs):
            break
    else:
        raise BadParameter("edge_prob too small to produce a connected graph")
    graph = Graph.from_pairs(n, pairs)
    half_span = int(noise_scale * WEIGHT_GRID)
    randint = rng.randint
    actual = []
    predicted = []
    for _ in range(graph.m):
        # grid numerators: the true weight a, its prediction b clamped to the floor 1
        a = randint(1, WEIGHT_GRID)
        b = a + randint(-half_span, half_span) if half_span else a
        actual.append(Fraction(a, WEIGHT_GRID))
        predicted.append(Fraction(max(b, 1), WEIGHT_GRID))
    return WmstInstance(graph, tuple(predicted), tuple(actual))


def _connected(n: int, pairs: list[tuple[int, int]]) -> bool:
    uf = _UnionFind(n)
    components = n
    for u, v in pairs:
        if uf.union(u, v):
            components -= 1
    return components == 1
